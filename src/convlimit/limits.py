"""Limits of backward convolution products and the trichotomy classifier.

A noise law is a prefix, then a periodic tail of period P. The right-centred
powers of the tail block B (one period's product) converge to omega_K, Haar
measure on the normal closure K of S^-1 S inside <S>, S the support of B
(Kawada-Ito 1940; Csiszar 1966). So the window's limit laws are omega_K at a
tail period boundary with the noise above it convolved on top, aligned by a
deterministic gauge with anchor a, and H = a^-1 K a; H = G, H = {e} and
anything in between are the three cases. The certified depth comes from a
squaring ladder over the powers of B, and every centering is a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable

import numpy as np

from .errors import BadRange, InvalidSpec, NoConvergenceAtDepth
from .groups import (
    FiniteGroup,
    Subgroup,
    _conjugates,
    conjugate_subgroup,
    generated_subgroup,
    group_from_spec,
    normal_closure,
    same_group,
)
from .measures import (
    Measure,
    all_right_translates,
    convolve,
    delta,
    haar_subgroup,
    measure_from_spec,
    translate_right,
    tv_distance,
    tv_to_right_translates,
)

DEFAULT_EPS_SHAPE = 1e-9
DEFAULT_MAX_DEPTH = 4096
DEFAULT_K_MIN = -8
SUPPORT_TOL = 1e-12

GAUGE_MAX_WEIGHT = "max-weight"
GAUGE_MIN_SUPPORT = "min-support"


@dataclass(frozen=True)
class NoiseLaw:
    """A noise sequence (mu_k : k <= 0), finitely specified.

    ``prefix[i]`` is the measure at k = -i. Positions below the prefix take
    the tail measure ``tail[(-k - len(prefix)) % len(tail)]``; a constant
    tail is a period-1 periodic one.
    """

    group: FiniteGroup
    prefix: tuple[Measure, ...]
    tail: tuple[Measure, ...]

    def __post_init__(self):
        if not self.tail:
            raise InvalidSpec("noise tail must be non-empty")
        for mu in (*self.prefix, *self.tail):
            if not same_group(mu.group, self.group):
                raise InvalidSpec("all noise measures must live on the noise group")

    def measure_at(self, k: int) -> Measure:
        if k > 0:
            raise BadRange(f"noise index must be <= 0, got {k}")
        i = -k
        if i < len(self.prefix):
            return self.prefix[i]
        return self.tail[(i - len(self.prefix)) % len(self.tail)]


def constant_noise(mu: Measure) -> NoiseLaw:
    return NoiseLaw(group=mu.group, prefix=(), tail=(mu,))


def noise_from_spec(obj: dict) -> NoiseLaw:
    """Build a noise law from its JSON spec.

    Shape: {"group": <group spec>, "prefix": [<measure spec>...],
    "tail": {"kind": "constant", "mu": ...} | {"kind": "periodic", "mus": [...]}}.
    """
    if not isinstance(obj, dict) or "group" not in obj or "tail" not in obj:
        raise InvalidSpec("noise spec must be an object with 'group' and 'tail' fields")
    group = group_from_spec(obj["group"])
    prefix = obj.get("prefix", [])
    if not isinstance(prefix, list):
        raise InvalidSpec(f"noise prefix must be a list of measure specs, got {prefix!r}")
    prefix = tuple(measure_from_spec(group, m) for m in prefix)
    tail_obj = obj["tail"]
    if not isinstance(tail_obj, dict) or "kind" not in tail_obj:
        raise InvalidSpec("noise tail spec must be an object with a 'kind' field")
    kind = tail_obj["kind"]
    if kind not in ("constant", "periodic"):
        raise InvalidSpec(f"unknown tail kind {kind!r}")
    if kind == "constant" and "mu" not in tail_obj:
        raise InvalidSpec("constant tail spec requires a 'mu' field")
    # a constant tail is the periodic tail of period 1
    mus = [tail_obj["mu"]] if kind == "constant" else tail_obj.get("mus")
    if not isinstance(mus, list) or not mus:
        raise InvalidSpec("periodic tail spec requires a non-empty 'mus' list")
    return NoiseLaw(group, prefix, tuple(measure_from_spec(group, m) for m in mus))


@dataclass(frozen=True)
class LimitResult:
    """Output of :func:`compute_limit`.

    ``lambdas`` maps k in [k_min, 0] to the limit law at k, ``anchor`` is the
    gauge's translation and ``shape_history`` the ladder's rungs as (-depth,
    shape distance), by depth. ``prefix_len``, ``picks`` and ``top`` are the
    centering data of :func:`extend_centerings`. ``case`` is 'A' iff the
    subgroup is everything, 'B' iff it is trivial, 'C' otherwise.
    """

    group: FiniteGroup
    lambdas: dict[int, Measure]
    subgroup: Subgroup
    case: str
    depth_used: int
    deepest_depth: int
    k_min: int
    residuals: dict[str, float]
    shape_history: tuple[tuple[int, float], ...]
    anchor: int
    prefix_len: int
    picks: tuple[int, ...]
    top: int

    @property
    def lambda0(self) -> Measure:
        return self.lambdas[0]

    @cached_property
    def alphas(self) -> dict[int, int]:
        """alpha_l at the levels a default-depth ensemble reads, -depth_used and -deepest_depth."""
        return extend_centerings(None, self, (-self.depth_used, -self.deepest_depth))

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "subgroup": {
                "members": list(self.subgroup.members),
                "labels": [self.group.label(g) for g in self.subgroup.members],
                "order": self.subgroup.order,
            },
            "depth_used": self.depth_used,
            "deepest_depth": self.deepest_depth,
            "k_min": self.k_min,
            "residuals": dict(self.residuals),
            "alphas": {str(l): int(a) for l, a in sorted(self.alphas.items())},
            "lambdas": {
                str(k): [float(x) for x in mu.weights]
                for k, mu in sorted(self.lambdas.items())
            },
        }


def partial_product(noise: NoiseLaw, k: int, l: int) -> Measure:
    """The backward product mu_k * mu_{k-1} * ... * mu_l."""
    if k > 0 or l > 0 or k < l:
        raise BadRange(f"need l <= k <= 0, got k={k}, l={l}")
    acc = noise.measure_at(k)
    for j in range(k - 1, l - 1, -1):
        acc = convolve(acc, noise.measure_at(j))
    return acc


def shape_distance(mu: Measure, nu: Measure) -> tuple[float, int]:
    """min_g tv(mu * delta_g, nu) and the smallest g achieving it."""
    dists = tv_to_right_translates(mu, nu)
    g = int(np.argmin(dists))
    return float(dists[g]), g


def _check_gauge(gauge: str) -> None:
    if gauge not in (GAUGE_MAX_WEIGHT, GAUGE_MIN_SUPPORT):
        raise InvalidSpec(f"unknown gauge {gauge!r}")


def _gauge_align(nu: Measure, gauge: str) -> tuple[Measure, int]:
    """Deterministic representative of nu's right-translation class.

    max-weight: the (first) maximal-weight element goes to the smallest
    possible index. min-support: index 0 must carry positive weight.
    Ties break by lexicographic weight vector, then by the translation index:
    one ``lexsort`` whose last key is the primary one.
    """
    _check_gauge(gauge)
    translates = all_right_translates(nu)  # column g holds nu delta_g
    if gauge == GAUGE_MAX_WEIGHT:
        primary = np.argmax(translates, axis=0)
    else:
        primary = np.where(translates[0] > SUPPORT_TOL, 0, 1)
    g = int(np.lexsort((np.arange(nu.group.order), *translates[::-1], primary))[0])
    return translate_right(nu, g), g


def _tail_block(noise: NoiseLaw) -> tuple[Measure, Subgroup, tuple[int, ...]]:
    """The tail block B, the subgroup K its right-centred powers tend to, and the picks.

    The support S of B is the product of the factors' supports (weight > 0, no
    tolerance), and the conjugates of s_0^-1 S by <S> generate K. ``picks[r]``
    = t_r multiplies the first support point of each of the first r factors,
    so t_0 = e and b = t_P lies in S.
    """
    group = noise.group
    block = reduce(convolve, noise.tail)
    support = np.array([group.identity])
    picks = [group.identity]
    for mu in noise.tail:
        factor = np.flatnonzero(mu.weights > 0)
        support = np.unique(group.mul[np.ix_(support, factor)])
        picks.append(int(group.mul[picks[-1], factor[0]]))
    quotients = group.mul[group.inv[support[0]], support]
    ambient = generated_subgroup(group, support).members
    K = generated_subgroup(group, np.unique(_conjugates(group, quotients, ambient)))
    return block, K, tuple(picks)


def _ladder(block: Measure, omega: Measure, eps_shape: float) -> tuple[int | None, dict]:
    """Least m >= 0 with shape_distance(block^m, omega) < eps_shape, and the distances seen.

    Squares the block, then bisects over the stored powers block^(2^i): the
    distance does not increase with m, as the block contracts and maps omega_K
    to a translate. m is None when a squaring fails to shrink the distance
    above eps_shape: the ladder stalled at the float floor.
    """
    group = block.group
    dist = {0: shape_distance(delta(group, group.identity), omega)[0]}
    if dist[0] < eps_shape:
        return 0, dist
    powers, hi = [block], 1  # powers[i] = block^(2^i)
    while True:
        dist[hi] = shape_distance(powers[-1], omega)[0]
        if dist[hi] < eps_shape:
            break
        if dist[hi] >= dist[hi // 2]:
            return None, dist
        powers.append(convolve(powers[-1], powers[-1]))
        hi *= 2
    # invariant: block^m fails; the least passing power lies in (m, m + 2^(i+1)]
    m = hi // 2
    acc = powers[-2] if m else None
    for i in range(len(powers) - 3, -1, -1):
        cand = convolve(acc, powers[i])
        dist[m + 2 ** i] = shape_distance(cand, omega)[0]
        if dist[m + 2 ** i] >= eps_shape:
            m, acc = m + 2 ** i, cand
    return m + 1, dist


def compute_limit(
    noise: NoiseLaw,
    *,
    eps_shape: float = DEFAULT_EPS_SHAPE,
    max_depth: int = DEFAULT_MAX_DEPTH,
    gauge: str = GAUGE_MAX_WEIGHT,
) -> LimitResult:
    """Compute the limit laws, centering data, subgroup and case for a noise law.

    ``depth_used`` is max(len(prefix), -k_min) + (m + 1) P for the least m
    with shape_distance(B^m, omega_K) < eps_shape: at that depth every window
    level's product holds m whole blocks, so it lies within eps_shape of its
    limit shape. Raises :class:`NoConvergenceAtDepth` when depth_used exceeds
    max_depth, with that depth, or when the ladder stalls at the float floor.
    """
    if eps_shape <= 0:
        raise InvalidSpec("eps_shape must be positive")
    _check_gauge(gauge)
    group, k_min = noise.group, DEFAULT_K_MIN
    p, period = len(noise.prefix), len(noise.tail)

    block, K, picks = _tail_block(noise)
    omega = haar_subgroup(group, K)
    m, dist = _ladder(block, omega, eps_shape)
    head = max(p, -k_min)
    history = tuple((-(head + (e + 1) * period), d) for e, d in sorted(dist.items()))
    if m is None:
        raise NoConvergenceAtDepth(max_depth, history, None, None)
    depth_used = head + (m + 1) * period
    if depth_used > max_depth:
        (l1, d1), (l2, d2) = history[-2:] if m else (history[0], history[0])
        rate = (d2 / d1) ** (1 / (l1 - l2)) if min(d1, d2) > 0 else 0.0  # 0: an exact rung
        raise NoConvergenceAtDepth(max_depth, history, rate, depth_used)

    # omega_K at the first tail period boundary below the window, the noise above it
    blocks = max(0, -((p - 1 + k_min) // period))
    base = -(p + blocks * period)
    sigma = {base: omega}
    for k in range(base + 1, 1):
        sigma[k] = convolve(noise.measure_at(k), sigma[k - 1])
    _, anchor = _gauge_align(sigma[0], gauge)
    lambdas = {k: translate_right(sigma[k], anchor) for k in range(k_min, 1)}
    H = conjugate_subgroup(K, anchor)

    conv_eq = max(tv_distance(lambdas[k], convolve(noise.measure_at(k),
                                                   translate_right(sigma[k - 1], anchor)))
                  for k in range(k_min, 1))
    b = picks[-1]
    haar_check = tv_distance(convolve(block, omega), translate_right(omega, b))
    top = anchor
    for _ in range(blocks):  # lambda at the top tail level is B^blocks omega_K delta_anchor
        top = int(group.mul[b, top])

    residuals = {"shape_stabilization": float(dist[m]), "conv_eq": float(conv_eq),
                 "haar_check": float(haar_check)}
    return LimitResult(
        group=group, lambdas=lambdas, subgroup=H, case=_case_of(group, H),
        depth_used=depth_used, deepest_depth=2 * depth_used, k_min=k_min,
        residuals=residuals, shape_history=history, anchor=anchor,
        prefix_len=p, picks=picks, top=top,
    )


def _case_of(group: FiniteGroup, H: Subgroup) -> str:
    return "A" if H.order == group.order else "B" if H.order == 1 else "C"


def strong_subgroup(group: FiniteGroup, H_mu: Subgroup) -> Subgroup:
    """Smallest normal subgroup containing H_mu."""
    return normal_closure(group, H_mu)


def extend_centerings(noise: NoiseLaw, result: LimitResult,
                      levels: Iterable[int]) -> dict[int, int]:
    """Centering elements alpha_l at the requested levels l <= 0, as {l: alpha_l}.

    nu_l is the prefix, then q whole tail blocks and r more tail factors (none
    inside the prefix), whose product tends to omega_K delta_(b^q t_r). Lambda
    at the top tail level is omega_K delta_c, c = ``result.top``, so
    alpha_l = (b^q t_r)^-1 c, exact modulo H. A closed form: ``noise`` is not
    read and nothing is convolved, at any depth.
    """
    levels = sorted(set(levels), reverse=True)
    if levels and levels[0] > 0:
        raise BadRange(f"centering levels must be <= 0, got {levels[0]}")
    group, picks = result.group, result.picks
    cycle = [group.identity]  # powers of b, up to its order
    while (nxt := int(group.mul[cycle[-1], picks[-1]])) != group.identity:
        cycle.append(nxt)
    out = {}
    for l in levels:
        q, r = divmod(max(0, 1 - l - result.prefix_len), len(picks) - 1)
        shift = group.mul[cycle[q % len(cycle)], picks[r]]
        out[l] = int(group.mul[group.inv[shift], result.top])
    return out


@dataclass(frozen=True)
class ConjugacyCheck:
    ok: bool
    witness: int
    shape_gap: float
    subgroups_match: bool


def verify_conjugacy_uniqueness(
    noise: NoiseLaw,
    result: LimitResult,
    *,
    eps_shape: float = DEFAULT_EPS_SHAPE,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> ConjugacyCheck:
    """Check that two independent gauge conventions agree up to conjugation.

    ``result`` is the max-weight anchor run of :func:`compute_limit`; the
    min-support anchor is run here. Finds g with
    tv(lambda~_0, lambda_0 * delta_g) <= 10 eps_shape and g^{-1} H g = H~.
    """
    res2 = compute_limit(noise, eps_shape=eps_shape, max_depth=max_depth,
                         gauge=GAUGE_MIN_SUPPORT)
    gap, witness = shape_distance(result.lambda0, res2.lambda0)
    conj = conjugate_subgroup(result.subgroup, witness)
    match = conj.members == res2.subgroup.members
    ok = gap <= 10 * eps_shape and match
    return ConjugacyCheck(ok=ok, witness=witness, shape_gap=gap, subgroups_match=match)
