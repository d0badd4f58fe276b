"""Limits of backward convolution products and the trichotomy classifier.

A noise law is a prefix, then a periodic tail of period P. The right-centred
powers of the tail block B (one period's product) converge to omega_K, Haar
measure on the normal closure K of S^-1 S inside <S>, S the support of B
(Kawada-Ito 1940; Csiszar 1966). So the window's limit laws are omega_K at a
tail period boundary with the noise above it convolved on top, aligned by a
deterministic gauge with anchor a, and H = a^-1 K a; H = G, H = {e} and
anything in between are the three cases, and every centering is a closed form.
None of this reads a depth. The certified depth comes from a squaring ladder
over the powers of B, run only when a result's certificate is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable, Iterator, Optional

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

# shape_distance screens every translate by its overlap sum min(mu delta_g, nu)
# and sums |mu delta_g - nu| / 2 only where the overlap is within this of the
# largest. 1 - overlap and that sum differ by at most WEIGHT_SUM_TOL + 3n 2^-53:
# the weights of mu and nu each sum to 1 within WEIGHT_SUM_TOL and the rounding
# of that sum, and each float sum of n terms of total at most 2 rounds by at
# most n 2^-53 per unit of its total. For n up to 10^6 that is under 4e-10, so
# a minimiser's overlap lies within twice it, under the slack, of the largest.
SCREEN_SLACK = 1e-9

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
        return next(self.law_runs(-k, 1 - k))[0]

    def law_runs(self, top: int, stop: int) -> Iterator[tuple[Measure, slice]]:
        """The laws of the levels j in [top, stop), k = -j, as (mu, levels) runs.

        Prefix positions come first, each as ``slice(j, j + 1, 1)``, then each
        tail phase as ``slice(first, stop, len(tail))`` from its first level in
        the range. The runs cover the range exactly once.
        """
        if top < 0:
            raise BadRange(f"noise index must be <= 0, got {-top}")
        n_prefix, period = len(self.prefix), len(self.tail)
        for j in range(top, min(stop, n_prefix)):
            yield self.prefix[j], slice(j, j + 1, 1)
        first = max(top, n_prefix)
        for j in range(first, min(first + period, stop)):
            yield self.tail[(j - n_prefix) % period], slice(j, stop, period)

    def random_levels(self) -> Optional[int]:
        """How many levels from k = 0 down reach the last law that is not a point mass.

        None when some tail law has two or more support points: then no level
        bounds the randomness. Otherwise it is 1 + i for the deepest prefix
        position i whose law has two or more support points, or 0 if none has;
        every level below is a point mass. Any positive weight counts as a
        support point. As |supp(mu * nu)| >= max(|supp mu|, |supp nu|) and K
        contains S^-1 S, a bound exists exactly when H is trivial (case B).
        """
        if any(np.count_nonzero(mu.weights) > 1 for mu in self.tail):
            return None
        return max((i + 1 for i, mu in enumerate(self.prefix)
                    if np.count_nonzero(mu.weights) > 1), default=0)


def constant_noise(mu: Measure) -> NoiseLaw:
    return NoiseLaw(group=mu.group, prefix=(), tail=(mu,))


def read_noise_spec(obj: dict, *fields: str,
                    tails: tuple[str, ...] = ()) -> tuple[list, dict, Optional[list]]:
    """The prefix list, tail object and tail measure specs of a noise spec, for both engines.

    The spec must hold ``fields`` and 'tail'. A constant tail is the periodic
    tail of period 1; a tail whose kind is in ``tails`` has None for its
    measure specs, and the caller reads it.
    """
    keys = (*fields, "tail")
    if not isinstance(obj, dict) or any(key not in obj for key in keys):
        need = " and ".join(f"'{key}'" for key in keys) + " fields" if fields else "a 'tail' field"
        raise InvalidSpec(f"noise spec must be an object with {need}")
    prefix = obj.get("prefix", [])
    if not isinstance(prefix, list):
        raise InvalidSpec(f"noise prefix must be a list of measure specs, got {prefix!r}")
    tail = obj["tail"]
    if not isinstance(tail, dict) or "kind" not in tail:
        raise InvalidSpec("noise tail spec must be an object with a 'kind' field")
    kind = tail["kind"]
    if kind in tails:
        return prefix, tail, None
    if kind not in ("constant", "periodic"):
        raise InvalidSpec(f"unknown tail kind {kind!r}")
    if kind == "constant" and "mu" not in tail:
        raise InvalidSpec("constant tail spec requires a 'mu' field")
    mus = [tail["mu"]] if kind == "constant" else tail.get("mus")
    if not isinstance(mus, list) or not mus:
        raise InvalidSpec("periodic tail spec requires a non-empty 'mus' list")
    return prefix, tail, mus


def noise_from_spec(obj: dict) -> NoiseLaw:
    """Build a noise law from its JSON spec.

    Shape: {"group": <group spec>, "prefix": [<measure spec>...],
    "tail": {"kind": "constant", "mu": ...} | {"kind": "periodic", "mus": [...]}}.
    """
    prefix, _, mus = read_noise_spec(obj, "group")
    group = group_from_spec(obj["group"])
    return NoiseLaw(group, tuple(measure_from_spec(group, m) for m in prefix),
                    tuple(measure_from_spec(group, m) for m in mus))


@dataclass(frozen=True)
class LimitResult:
    """Output of :func:`compute_limit`.

    ``lambdas`` maps k in [k_min, 0] to the limit law at k, ``anchor`` is the
    gauge's translation, and ``prefix_len``, ``picks`` and ``top`` are the
    centering data of :func:`extend_centerings`; all exact, at no depth.
    ``case`` is 'A' iff the subgroup is everything, 'B' iff it is trivial,
    'C' otherwise. ``block`` (B), ``omega`` (omega_K), ``eps_shape`` and
    ``max_depth`` are the inputs of the ladder that :attr:`certificate` runs.
    """

    group: FiniteGroup
    lambdas: dict[int, Measure]
    subgroup: Subgroup
    case: str
    k_min: int
    anchor: int
    prefix_len: int
    picks: tuple[int, ...]
    top: int
    block: Measure = field(repr=False)
    omega: Measure = field(repr=False)
    eps_shape: float
    max_depth: int
    rounding_residuals: dict[str, float]  # conv_eq and haar_check, which need no depth

    @cached_property
    def certificate(self) -> tuple[int, tuple[tuple[int, float], ...], float]:
        """(depth_used, the rungs as (-depth, shape distance) by depth, the distance at depth_used).

        Runs the ladder on first read. depth_used is max(len(prefix), -k_min)
        + (m + 1) P for the least m with shape_distance(B^m, omega_K) <
        eps_shape: every window level's product down to it holds m whole
        blocks, so it lies within eps_shape of its limit shape. Raises
        :class:`NoConvergenceAtDepth` when depth_used exceeds max_depth, with
        that depth, or when the ladder stalls at the float floor.
        """
        m, dist = _ladder(self.block, self.omega, self.eps_shape)
        head, period = max(self.prefix_len, -self.k_min), len(self.picks) - 1
        history = tuple((-(head + (e + 1) * period), d) for e, d in sorted(dist.items()))
        if m is None:
            raise NoConvergenceAtDepth(self.max_depth, history, None, None)
        depth_used = head + (m + 1) * period
        if depth_used > self.max_depth:
            (l1, d1), (l2, d2) = history[-2:] if m else (history[0], history[0])
            rate = (d2 / d1) ** (1 / (l1 - l2)) if min(d1, d2) > 0 else 0.0  # 0: an exact rung
            raise NoConvergenceAtDepth(self.max_depth, history, rate, depth_used)
        return depth_used, history, float(dist[m])

    @property
    def depth_used(self) -> int:
        return self.certificate[0]

    @property
    def deepest_depth(self) -> int:  # reported, not sampled from
        return 2 * self.depth_used

    @property
    def shape_history(self) -> tuple[tuple[int, float], ...]:
        return self.certificate[1]

    @property
    def residuals(self) -> dict[str, float]:
        return {"shape_stabilization": self.certificate[2], **self.rounding_residuals}

    @property
    def lambda0(self) -> Measure:
        return self.lambdas[0]

    @cached_property
    def alphas(self) -> dict[int, int]:
        """alpha_l at -depth_used and -deepest_depth, for limit.json; no ensemble reads either."""
        return extend_centerings(self, (-self.depth_used, -self.deepest_depth))

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


def shape_distance(mu: Measure, nu: Measure) -> tuple[float, int]:
    """min_g tv(mu * delta_g, nu) and the smallest g achieving it.

    Every g is first screened by its overlap sum_x min((mu delta_g)(x), nu(x)),
    as tv = 1 - overlap for laws that sum to 1, summed over the smaller
    support: O(n min(|supp mu|, |supp nu|)). The g within SCREEN_SLACK of the
    largest overlap hold every minimiser, and only they are summed as
    :func:`tv_to_right_translates` sums: the distance and g are those of the
    sum over every translate, bit for bit.
    """
    grp, w, v = mu.group, mu.weights, nu.weights
    a, b = w.nonzero()[0], v.nonzero()[0]
    if a.size <= b.size:  # column g: min(mu(x), nu(x g)) for x in supp mu
        overlap = np.minimum(w[a, None], v.take(grp.mul[a])).sum(axis=0)
    else:  # column h: min(mu(y h), nu(y)) for y in supp nu, read at h = g^-1
        overlap = np.minimum(w.take(grp.mul[b]), v[b, None]).sum(axis=0).take(grp.inv)
    near = (overlap >= overlap.max() - SCREEN_SLACK).nonzero()[0]
    dists = tv_to_right_translates(mu, nu, near)
    i = dists.argmin()
    return float(dists[i]), int(near[i])


def _check_gauge(gauge: str) -> None:
    if gauge not in (GAUGE_MAX_WEIGHT, GAUGE_MIN_SUPPORT):
        raise InvalidSpec(f"unknown gauge {gauge!r}")


def _gauge_align(nu: Measure, gauge: str) -> tuple[Measure, int]:
    """Deterministic representative of nu's right-translation class.

    max-weight: the (first) maximal-weight element goes to the smallest
    possible index. min-support: index 0 must carry positive weight.
    Ties break by lexicographic weight vector, then by the translation index:
    one ``lexsort``, over the g that tie on the least primary key only.
    """
    _check_gauge(gauge)
    grp, w = nu.group, nu.weights
    if gauge == GAUGE_MAX_WEIGHT:
        # nu delta_g is largest at x = a g, a in the argmax set; the key is the least such x
        primary = grp.mul[np.flatnonzero(w == w.max())].min(axis=0)
    else:
        # (nu delta_g)(0) = nu(0 g^-1); element 0 need not be the identity
        primary = np.where(w.take(grp.mul[0, grp.inv]) > SUPPORT_TOL, 0, 1)
    ties = np.flatnonzero(primary == primary.min())
    translates = all_right_translates(nu, ties)  # column i holds nu delta_ties[i]
    g = int(ties[np.lexsort((ties, *translates[::-1]))[0]])
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

    All of it is exact: no ladder runs. ``eps_shape`` and ``max_depth`` are
    kept for :attr:`LimitResult.certificate`, which raises when it is read.
    """
    if eps_shape <= 0:
        raise InvalidSpec("eps_shape must be positive")
    _check_gauge(gauge)
    group, k_min = noise.group, DEFAULT_K_MIN
    p, period = len(noise.prefix), len(noise.tail)

    block, K, picks = _tail_block(noise)
    omega = haar_subgroup(group, K)
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

    return LimitResult(
        group=group, lambdas=lambdas, subgroup=H, case=_case_of(group, H), k_min=k_min,
        anchor=anchor, prefix_len=p, picks=picks, top=top, block=block, omega=omega,
        eps_shape=eps_shape, max_depth=max_depth,
        rounding_residuals={"conv_eq": float(conv_eq), "haar_check": float(haar_check)},
    )


def _case_of(group: FiniteGroup, H: Subgroup) -> str:
    return "A" if H.order == group.order else "B" if H.order == 1 else "C"


def strong_subgroup(group: FiniteGroup, H_mu: Subgroup) -> Subgroup:
    """Smallest normal subgroup containing H_mu."""
    return normal_closure(group, H_mu)


def extend_centerings(result: LimitResult, levels: Iterable[int]) -> dict[int, int]:
    """Centering elements alpha_l at the requested levels l <= 0, as {l: alpha_l}.

    nu_l is the prefix, then q whole tail blocks and r more tail factors (none
    inside the prefix), whose product tends to omega_K delta_(b^q t_r). Lambda
    at the top tail level is omega_K delta_c, c = ``result.top``, so
    alpha_l = (b^q t_r)^-1 c, exact modulo H. A closed form in the result's
    centering data: no noise law is read and nothing is convolved, at any depth.
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


def verify_conjugacy_uniqueness(noise: NoiseLaw, result: LimitResult) -> ConjugacyCheck:
    """Check that two independent gauge conventions agree up to conjugation.

    ``result`` is the max-weight anchor run of :func:`compute_limit`; the
    min-support anchor is run here, with the result's ``eps_shape`` and
    ``max_depth``. Finds g with tv(lambda~_0, lambda_0 * delta_g) <= 10
    eps_shape and g^{-1} H g = H~. No ladder runs.
    """
    res2 = compute_limit(noise, eps_shape=result.eps_shape, max_depth=result.max_depth,
                         gauge=GAUGE_MIN_SUPPORT)
    gap, witness = shape_distance(result.lambda0, res2.lambda0)
    conj = conjugate_subgroup(result.subgroup, witness)
    match = conj.members == res2.subgroup.members
    ok = gap <= 10 * result.eps_shape and match
    return ConjugacyCheck(ok=ok, witness=witness, shape_gap=gap, subgroups_match=match)
