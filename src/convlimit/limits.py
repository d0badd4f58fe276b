"""Limits of backward convolution products and the trichotomy classifier.

The engine deepens the product nu_l = mu_0 * mu_-1 * ... * mu_l one factor
at a time and watches the *shape* of nu_l, i.e. its equivalence class under
right translation. Shapes always converge on a finite group; once they hold
still for a confirmation span the product is certified and deepened on to
an anchor depth M, and a deterministic gauge picks alpha_M, turning nu_M
into nu_M delta_{alpha_M}. The result keeps the chain nu_0 .. nu_M; the
centering element alpha_l at any level is read from it on request, by
:func:`extend_centerings`, as the translation that aligns nu_l best with
nu_M delta_{alpha_M}. The subgroup H is the right stabilizer of that law;
H = G, H = {e} and anything in between are the three classification cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import BadRange, InvalidSpec, NoConvergenceAtDepth
from .groups import (
    FiniteGroup,
    Subgroup,
    conjugate_subgroup,
    group_from_spec,
    normal_closure,
    same_group,
)
from .measures import (
    Measure,
    all_right_translates,
    convolve,
    haar_subgroup,
    measure_from_spec,
    right_stabilizer,
    translate_left,
    translate_right,
    tv_distance,
    tv_to_right_translates,
)

DEFAULT_EPS_SHAPE = 1e-9
DEFAULT_MAX_DEPTH = 4096
DEFAULT_K_MIN = -8
DEFAULT_CONFIRM_SPAN = 25
DEFAULT_STABILIZER_TOL = 1e-6
PROJECTION_WINDOW = 256
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

    ``lambdas`` maps k in [k_min, 0] to the limit law at k. ``products`` is
    the chain nu_0 .. nu_M (index i holds depth -i), M = -deepest_depth, and
    ``anchor`` the gauge's alpha_M. Centerings align to nu_M delta_{alpha_M},
    which can differ from ``lambdas[0]`` in the last bits. ``case`` is 'A'
    iff the subgroup is everything, 'B' iff it is trivial, 'C' otherwise.
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
    products: tuple[Measure, ...] = field(repr=False)

    @property
    def lambda0(self) -> Measure:
        return self.lambdas[0]

    @cached_property
    def alphas(self) -> dict[int, int]:
        """alpha_l at every level l in [-deepest_depth, 0]; the kept chain needs no noise."""
        return extend_centerings(None, self, range(0, -self.deepest_depth - 1, -1))

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


def _deepen_products(
    noise: NoiseLaw,
    eps_shape: float,
    max_depth: int,
    confirm_span: int,
) -> tuple[list[Measure], int, list[tuple[int, float]]]:
    """Deepen nu_l until the shape holds still for confirm_span steps.

    Returns the products nu_0..nu_L (index i holds depth -i), the certified
    depth L (< 0) and the (l, shape distance) history.
    """
    nus = [noise.measure_at(0)]
    history: list[tuple[int, float]] = []
    streak = 0
    l = 0
    while True:
        l -= 1
        if -l > max_depth:
            raise NoConvergenceAtDepth(max_depth, history,
                                       *_projection(history, eps_shape, confirm_span))
        nxt = convolve(nus[-1], noise.measure_at(l))
        sd, _ = shape_distance(nxt, nus[-1])
        nus.append(nxt)
        history.append((l, sd))
        streak = streak + 1 if sd < eps_shape else 0
        if streak >= confirm_span:
            return nus, l, history


def _projection(history, eps_shape: float, confirm_span: int) -> tuple[float | None, int | None]:
    """Contraction per level and projected certifying depth, from the recent shape distances.

    A least-squares line through log(distance) against depth over the last PROJECTION_WINDOW
    positive distances; the depth is its eps_shape crossing plus confirm_span. (None, None)
    when the line does not decrease or fewer than two distances are positive.
    """
    points = [(-l, d) for l, d in history if d > 0][-PROJECTION_WINDOW:]
    if len(points) < 2:
        return None, None
    depths, dists = np.array(points).T
    slope, intercept = np.polyfit(depths, np.log(dists), 1)
    if not slope < 0:
        return None, None
    return float(np.exp(slope)), math.ceil((math.log(eps_shape) - intercept) / slope) + confirm_span


def _extend_products(noise: NoiseLaw, nus: list[Measure], depth: int) -> None:
    """Grow the nu_l list in place until it reaches the given (positive) depth."""
    while len(nus) - 1 < depth:
        l = -len(nus)
        nus.append(convolve(nus[-1], noise.measure_at(l)))


def compute_limit(
    noise: NoiseLaw,
    *,
    eps_shape: float = DEFAULT_EPS_SHAPE,
    max_depth: int = DEFAULT_MAX_DEPTH,
    confirm_span: int = DEFAULT_CONFIRM_SPAN,
    gauge: str = GAUGE_MAX_WEIGHT,
) -> LimitResult:
    """Compute the limit laws, centering sequence, subgroup and case for a noise law.

    Raises :class:`NoConvergenceAtDepth` when the shape sequence does not
    certify within max_depth; the error carries the oscillation diagnostics.
    """
    if eps_shape <= 0:
        raise InvalidSpec("eps_shape must be positive")
    _check_gauge(gauge)

    nus, l_cert, history = _deepen_products(noise, eps_shape, max_depth, confirm_span)
    depth_used = -l_cert

    # The reported quantities come from a deeper anchor depth M so that the
    # haar-check below can estimate lambda_{L-1} from a much deeper restart.
    deepest = max(2 * depth_used, depth_used + 2 * confirm_span, -DEFAULT_K_MIN + confirm_span)
    _extend_products(noise, nus, deepest)
    m_idx = -deepest  # anchor depth M as a (negative) noise index

    lambda0, alpha_m = _gauge_align(nus[deepest], gauge)

    # sigma_j = mu_{j,M}; lambdas over the window are its alpha_M-translates.
    sigma: dict[int, Measure] = {m_idx: noise.measure_at(m_idx)}
    for j in range(m_idx + 1, 1):
        sigma[j] = convolve(noise.measure_at(j), sigma[j - 1])
    lambdas = {k: translate_right(sigma[k], alpha_m) for k in range(DEFAULT_K_MIN, 1)}

    H = right_stabilizer(lambda0, DEFAULT_STABILIZER_TOL)
    case = _case_of(noise.group, H)

    conv_eq = max(tv_distance(lambdas[k], convolve(noise.measure_at(k),
                                                   translate_right(sigma[k - 1], alpha_m)))
                  for k in range(DEFAULT_K_MIN, 1))

    shape_stab = max(d for _, d in history[-confirm_span:])

    lam_deep_prev = translate_right(sigma[l_cert - 1], alpha_m)
    _, alpha_l = shape_distance(nus[depth_used], lambda0)
    haar_check = tv_distance(translate_left(int(noise.group.inv[alpha_l]), lam_deep_prev),
                             haar_subgroup(noise.group, H))

    return LimitResult(
        group=noise.group,
        lambdas=lambdas,
        subgroup=H,
        case=case,
        depth_used=depth_used,
        deepest_depth=deepest,
        k_min=DEFAULT_K_MIN,
        residuals={
            "shape_stabilization": float(shape_stab),
            "conv_eq": float(conv_eq),
            "haar_check": float(haar_check),
        },
        shape_history=tuple(history),
        anchor=alpha_m,
        products=tuple(nus),
    )


def _case_of(group: FiniteGroup, H: Subgroup) -> str:
    if H.order == group.order:
        return "A"
    if H.order == 1:
        return "B"
    return "C"


def strong_subgroup(group: FiniteGroup, H_mu: Subgroup) -> Subgroup:
    """Smallest normal subgroup containing H_mu."""
    return normal_closure(group, H_mu)


def extend_centerings(noise: NoiseLaw, result: LimitResult,
                      levels: Iterable[int]) -> dict[int, int]:
    """Centering elements alpha_l at the requested levels l <= 0, as {l: alpha_l}.

    alpha_l is the smallest g aligning nu_l delta_g best with nu_M delta_{alpha_M}
    (M = -deepest_depth; alpha_M is the gauge's own), a law that can differ
    from ``result.lambda0`` in the last bits. Levels past M continue
    ``result.products`` from nu_M, one convolution each; only they read ``noise``.
    """
    levels = sorted(set(levels), reverse=True)
    if levels and levels[0] > 0:
        raise BadRange(f"centering levels must be <= 0, got {levels[0]}")
    nus = list(result.products)
    _extend_products(noise, nus, -min(levels, default=0))
    target = translate_right(result.products[-1], result.anchor)
    return {l: result.anchor if l == -result.deepest_depth else shape_distance(nus[-l], target)[1]
            for l in levels}


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

    ``result`` is the max-weight anchor run of :func:`compute_limit` at the
    default confirmation span; the min-support anchor is run here with a
    longer span. Finds g with tv(lambda~_0, lambda_0 * delta_g) <= 10 eps_shape
    and g^{-1} H g = H~.
    """
    res2 = compute_limit(
        noise, eps_shape=eps_shape, max_depth=max_depth,
        gauge=GAUGE_MIN_SUPPORT, confirm_span=40,
    )
    gap, witness = shape_distance(result.lambda0, res2.lambda0)
    conj = conjugate_subgroup(result.subgroup, witness)
    match = conj.members == res2.subgroup.members
    ok = gap <= 10 * eps_shape and match
    return ConjugacyCheck(ok=ok, witness=witness, shape_gap=gap, subgroups_match=match)
