"""Fourier analysis of noise laws on the circle [0, 1).

Membership of a frequency p in the detected lattice is decided from the
infinite product of characteristic-function moduli. A noise law is a
prefix followed by a periodic tail or by the Gaussian formula
sd_k = c * r^|k|. Partial products give an upper bound; both tails admit
exact analytic tail bounds, computed in log space so nothing underflows.
The nonnegative generator of the detected lattice drives the same A/B/C
classification as the finite-group engine, and rational-atom noises can be
pushed onto a cyclic grid to cross-validate the two.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import GridMismatch, Indeterminate, InvalidSpec, NotRepresentable
from .groups import cyclic_group, is_number
from .limits import read_noise_spec
from .measures import Measure

DEFAULT_P_MAX = 64
DEFAULT_DEPTH = 256
DEFAULT_FLOOR = 1e-12

# An atoms tail factor this close to 1 is treated as exactly 1; one below
# ONE_MINUS_DECAY repeated forever is a certain zero, and so is any continuous
# one, whose |char| is below 1 at every p != 0. In between we refuse to guess.
ONE_MINUS_EXACT = 1e-12
ONE_MINUS_DECAY = 1e-9


@dataclass(frozen=True)
class AtomsSpec:
    points: tuple[tuple[float, float], ...]  # (position, weight)

    def __post_init__(self):
        pts = tuple((float(x), float(w)) for x, w in self.points)
        if not pts:
            raise InvalidSpec("atoms spec needs at least one point")
        for x, w in pts:
            if not 0.0 <= x < 1.0:
                raise InvalidSpec(f"atom position must lie in [0, 1), got {x}")
            if not w >= 0:
                raise InvalidSpec(f"atom weight must be nonnegative, got {w}")
        if abs(sum(w for _, w in pts) - 1.0) > 1e-12:
            raise InvalidSpec("atom weights must sum to 1")
        object.__setattr__(self, "points", pts)


def DiracSpec(x: float) -> AtomsSpec:
    """The point mass at x, which is the one-point atoms measure."""
    return AtomsSpec(((x, 1.0),))


@dataclass(frozen=True)
class UniformIntervalSpec:
    a: float
    b: float

    def __post_init__(self):
        if not 0.0 <= self.a < self.b <= 1.0:
            raise InvalidSpec(f"need 0 <= a < b <= 1, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class WrappedGaussianSpec:
    mean: float
    sd: float

    def __post_init__(self):
        if not 0.0 <= self.mean < 1.0:
            raise InvalidSpec(f"mean must lie in [0, 1), got {self.mean}")
        if not self.sd > 0:
            raise InvalidSpec(f"sd must be positive, got {self.sd}")


TorusMeasureSpec = Union[AtomsSpec, UniformIntervalSpec, WrappedGaussianSpec]


def char_fn(spec: TorusMeasureSpec, p: int) -> complex:
    """Characteristic function value: the integral of e^{2 pi i p x} under the measure."""
    if p == 0:
        return complex(1.0)
    two_pi_p = 2.0 * math.pi * p
    if isinstance(spec, AtomsSpec):
        z = 0.0 + 0.0j
        for x, w in spec.points:
            z += w * complex(math.cos(two_pi_p * x), math.sin(two_pi_p * x))
        return z
    if isinstance(spec, UniformIntervalSpec):
        za = complex(math.cos(two_pi_p * spec.a), math.sin(two_pi_p * spec.a))
        zb = complex(math.cos(two_pi_p * spec.b), math.sin(two_pi_p * spec.b))
        return (zb - za) / (1j * two_pi_p * (spec.b - spec.a))
    if isinstance(spec, WrappedGaussianSpec):
        mod = math.exp(-2.0 * math.pi**2 * p**2 * spec.sd**2)
        return mod * complex(math.cos(two_pi_p * spec.mean), math.sin(two_pi_p * spec.mean))
    raise InvalidSpec(f"unknown torus measure spec {type(spec).__name__}")


@dataclass(frozen=True)
class PeriodicTail:
    mus: tuple[TorusMeasureSpec, ...]

    def __post_init__(self):
        if not self.mus:
            raise InvalidSpec("periodic tail needs at least one measure")


@dataclass(frozen=True)
class GaussianSchedule:
    """Zero-mean wrapped Gaussians with sd_k = coeff * ratio^{|k|} past the prefix."""

    coeff: float = 0.1
    ratio: float = 1.0

    def __post_init__(self):
        if not self.coeff > 0:
            raise InvalidSpec(f"coeff must be positive, got {self.coeff}")
        if not 0.0 < self.ratio <= 1.0:
            raise InvalidSpec(f"ratio must lie in (0, 1], got {self.ratio}")


TorusTail = Union[PeriodicTail, GaussianSchedule]


@dataclass(frozen=True)
class TorusNoiseLaw:
    """A torus noise sequence: prefix measures, then a periodic tail or the Gaussian formula."""

    prefix: tuple[TorusMeasureSpec, ...] = ()
    tail: TorusTail = field(default_factory=lambda: PeriodicTail((DiracSpec(0.0),)))

    def spec_at(self, k: int) -> TorusMeasureSpec:
        if k > 0:
            raise InvalidSpec(f"noise index must be <= 0, got {k}")
        i = -k
        m = len(self.prefix)
        if i < m:
            return self.prefix[i]
        if isinstance(self.tail, PeriodicTail):
            return self.tail.mus[(i - m) % len(self.tail.mus)]
        sd = self.tail.coeff * self.tail.ratio ** i
        return WrappedGaussianSpec(0.0, sd) if sd > 0 else DiracSpec(0.0)  # sd underflowed


def _log_abs_char(spec: TorusMeasureSpec, p: int) -> float:
    """log |char_fn(spec, p)|, stable for Gaussian factors whose modulus underflows."""
    if isinstance(spec, WrappedGaussianSpec):
        return -2.0 * math.pi**2 * p**2 * spec.sd**2
    f = min(abs(char_fn(spec, p)), 1.0)
    return -math.inf if f == 0.0 else math.log(f)


@dataclass(frozen=True)
class PiBounds:
    """Bounds on the infinite product of |char| factors at one frequency.

    ``upper`` is the partial product over the computed window; ``lower``
    folds in an analytic tail bound when one exists (else 0). ``decision``
    is 'member', 'null' or 'undetermined'; membership is decided from the
    log-domain bound so small positive limits never underflow to a refusal.
    ``depth`` is the window, ``max(depth, len(prefix) + 1)``. ``curve``
    holds the partial products over the first 1, 2, ... levels up to its
    cut: the first level from which the value never changes again, or, for
    a frequency not decided 'member', the first level below the floor,
    whichever comes first. Past the cut, inside the window, the product is
    at most the last value when the frequency is not a member and that
    value is below the floor, and equals it otherwise.
    """

    p: int
    lower: float
    upper: float
    decision: str
    depth: int
    curve: tuple[float, ...]
    # log-domain bounds; a finite log_lower certifies a positive limit even
    # when the float lower underflows to 0
    log_lower: float = -math.inf
    log_upper: float = -math.inf


def _window(noise: TorusNoiseLaw, depth: int) -> tuple[list, np.ndarray, np.ndarray]:
    """Distinct explicit measures, each explicit level's index into them, and formula sd**2.

    A GaussianSchedule's levels past the prefix give sd**2; the others are
    explicit. The window covers the prefix and one level more, since the
    tail rules of :func:`pi_mu_bounds` describe what lies beyond it.
    """
    if depth < 1:
        raise InvalidSpec(f"depth must be >= 1, got {depth}")
    eff_depth = max(depth, len(noise.prefix) + 1)
    explicit = eff_depth if isinstance(noise.tail, PeriodicTail) else len(noise.prefix)
    index: dict[TorusMeasureSpec, int] = {}
    levels = [index.setdefault(noise.spec_at(-i), len(index)) for i in range(explicit)]
    # empty on a periodic tail, where every level is explicit
    sd2 = [(noise.tail.coeff * noise.tail.ratio ** i) ** 2 for i in range(explicit, eff_depth)]
    return list(index), np.array(levels, dtype=np.intp), np.array(sd2, dtype=float)


def pi_mu_bounds(
    noise: TorusNoiseLaw,
    p: int,
    depth: int = DEFAULT_DEPTH,
) -> PiBounds:
    """Lower/upper bounds on the product of |char| factors over all k <= 0.

    The partial products are nonincreasing in depth since every factor is
    at most 1. Deciding 'null' requires an exact zero factor, a repeating
    factor that decays, or an upper bound below the floor; deciding
    'member' requires a finite log-domain lower bound.
    """
    window = _window(noise, depth)
    if p == 0:
        _, levels, sd2 = window
        return PiBounds(p=0, lower=1.0, upper=1.0, decision="member",
                        depth=levels.size + sd2.size, curve=(1.0,), log_lower=0.0, log_upper=0.0)
    return _pi_bounds(noise, p, *window)


def _pi_bounds(noise: TorusNoiseLaw, p: int, measures: list[TorusMeasureSpec],
               levels: np.ndarray, sd2: np.ndarray) -> PiBounds:
    """:func:`pi_mu_bounds` at p != 0, with one |char| per distinct explicit measure."""
    explicit = np.array([_log_abs_char(m, p) for m in measures], dtype=float)[levels]
    # formula levels: _log_abs_char's Gaussian rule, same order of operations, one array product
    logs = np.concatenate((explicit, -2.0 * math.pi**2 * p**2 * sd2))
    eff_depth = logs.size
    zero = logs == -math.inf
    hit_zero = bool(zero.any())
    # the log partial products in level order from 0.0; a zero factor adds 0.0
    partial = np.cumsum(np.concatenate(([0.0], np.where(zero, 0.0, logs))))
    log_upper = float(partial[-1])
    n_positive = int(zero.argmax()) if hit_zero else eff_depth
    upper = 0.0 if hit_zero else math.exp(log_upper)

    decision = "undetermined"
    log_lower = -math.inf

    if isinstance(noise.tail, PeriodicTail):
        # a continuous factor decays, so it stands in as 0.0
        fs = [min(abs(char_fn(m, p)), 1.0) if isinstance(m, AtomsSpec) else 0.0
              for m in noise.tail.mus]
        if all(f >= 1.0 - ONE_MINUS_EXACT for f in fs):
            log_lower = -math.inf if hit_zero else log_upper
        elif any(f <= 1.0 - ONE_MINUS_DECAY for f in fs):
            decision = "null"
    elif noise.tail.ratio >= 1.0:
        # constant positive sd forever: the exponent sum diverges
        decision = "null"
    else:
        # remaining factors from |k| = eff_depth on follow the formula;
        # sum of sd^2 is geometric, so the log tail bound is exact
        r2 = noise.tail.ratio ** 2
        rem = noise.tail.coeff**2 * r2**eff_depth / (1.0 - r2)
        penalty = 2.0 * math.pi**2 * p**2 * rem
        log_lower = -math.inf if hit_zero else (log_upper - penalty)

    if decision == "undetermined":
        if math.isfinite(log_lower):
            decision = "member"
        elif upper < DEFAULT_FLOOR:
            decision = "null"

    def value(level: int) -> float:
        """The partial product over the first ``level`` levels, the curve's point there."""
        return math.exp(partial[level]) if level <= n_positive else 0.0

    # the curve does not increase, so each cut is the first level of a run of
    # True that lasts to the window's end, found by bisection
    levels = range(1, eff_depth + 1)
    cut = bisect.bisect_left(levels, True, key=lambda level: value(level) == upper)
    if decision != "member":
        cut = min(cut, bisect.bisect_left(levels, True,
                                          key=lambda level: value(level) < DEFAULT_FLOOR))
    lower = math.exp(log_lower) if math.isfinite(log_lower) else 0.0
    return PiBounds(
        p=p, lower=lower, upper=upper, decision=decision,
        depth=eff_depth, curve=tuple(value(level) for level in levels[:cut + 1]),
        log_lower=log_lower, log_upper=(-math.inf if hit_zero else log_upper),
    )


@dataclass(frozen=True)
class TorusClassification:
    """Detected frequency lattice generator and the resulting case."""

    p_mu: int
    case: str
    depth_used: int
    undetermined: tuple[int, ...]
    bounds: dict[int, PiBounds]

    def subgroup_points(self) -> Optional[tuple[float, ...]]:
        """The finite subgroup {0, 1/p, ..., (p-1)/p} described by the generator.

        None when the generator is 0: the invariance subgroup is then the
        whole circle, which has no finite point list.
        """
        if self.p_mu == 0:
            return None
        return tuple(j / self.p_mu for j in range(self.p_mu))

    def to_json_dict(self) -> dict:
        pts = self.subgroup_points()
        return {
            "p_mu": self.p_mu,
            "case": self.case,
            "subgroup_points": None if pts is None else list(pts),
            "depth_used": self.depth_used,
            "undetermined": list(self.undetermined),
            "pi": {
                str(p): {"lower": b.lower, "upper": b.upper, "decision": b.decision}
                for p, b in sorted(self.bounds.items())
            },
        }


def compute_p_mu(
    noise: TorusNoiseLaw,
    *,
    p_max: int = DEFAULT_P_MAX,
    depth: int = DEFAULT_DEPTH,
) -> TorusClassification:
    """Detect the lattice of frequencies with a positive product and its generator.

    Raises :class:`Indeterminate` when an undecided frequency could change
    the gcd of the detected members.
    """
    if p_max < 1:
        raise InvalidSpec(f"p_max must be >= 1, got {p_max}")
    window = _window(noise, depth)
    bounds = {p: _pi_bounds(noise, p, *window) for p in range(1, p_max + 1)}
    members = [p for p, b in bounds.items() if b.decision == "member"]
    undecided = tuple(p for p, b in bounds.items() if b.decision == "undetermined")

    g = 0
    for p in members:
        g = math.gcd(g, p)
    affecting = tuple(q for q in undecided if math.gcd(g, q) != g)
    if affecting:
        raise Indeterminate(affecting)

    case = "A" if g == 0 else ("B" if g == 1 else "C")
    return TorusClassification(
        p_mu=g,
        case=case,
        depth_used=max(b.depth for b in bounds.values()),
        undetermined=undecided,
        bounds=bounds,
    )


def discretize_to_cyclic(spec: TorusMeasureSpec, n: int) -> Measure:
    """Push a torus atoms measure onto the cyclic group Z_n (grid point j <-> j/n).

    Only atoms on the 1/n grid are representable, and they map exactly.
    """
    if n < 1:
        raise InvalidSpec(f"grid size must be positive, got {n}")
    refusal = f"is not representable on Z_{n}: only atoms on the 1/{n} grid are"
    if isinstance(spec, (UniformIntervalSpec, WrappedGaussianSpec)):
        raise NotRepresentable(f"a continuous law {refusal}")
    if not isinstance(spec, AtomsSpec):
        raise InvalidSpec(f"unknown torus measure spec {type(spec).__name__}")
    w = np.zeros(n)
    for x, weight in spec.points:
        nearest = round(x * n)
        if abs(x * n - nearest) > 1e-9:
            raise NotRepresentable(f"atom at {x} {refusal}")
        w[int(nearest) % n] += weight
    return Measure(cyclic_group(n), w)


def predicted_cyclic_subgroup(n: int, p_mu: int) -> tuple[int, ...]:
    """Grid indices of {0, 1/p, ..., (p-1)/p} inside Z_n; n must be divisible by p."""
    if p_mu == 0:
        return tuple(range(n))
    if n % p_mu != 0:
        raise GridMismatch(f"grid size {n} is not divisible by p = {p_mu}")
    step = n // p_mu
    return tuple(j * step for j in range(p_mu))


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------

def _number(value) -> float:
    """A JSON number as a float; strings, true and false are refused, never converted."""
    if not is_number(value):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def torus_measure_from_spec(obj: dict) -> TorusMeasureSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidSpec("torus measure spec must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "dirac":
            return DiracSpec(_number(obj["x"]))
        if kind == "atoms":
            pts = obj.get("points")
            if not isinstance(pts, list) or not pts:
                raise InvalidSpec("atoms spec 'points' must be a non-empty list of [x, w] pairs")
            return AtomsSpec(tuple((_number(x), _number(w)) for x, w in pts))
        if kind == "uniform":
            return UniformIntervalSpec(_number(obj["a"]), _number(obj["b"]))
        if kind == "gauss":
            return WrappedGaussianSpec(_number(obj["m"]), _number(obj["sd"]))
    except KeyError as exc:
        raise InvalidSpec(f"torus {kind} spec requires the field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed torus {kind} spec: {exc}") from None
    raise InvalidSpec(f"unknown torus measure kind {kind!r}")


def torus_noise_from_spec(obj: dict) -> TorusNoiseLaw:
    """Build a torus noise law from its JSON spec, read as the finite engine reads one.

    The tail may also be {"kind":"gauss_schedule","head":[...],"c":...,"r":...},
    whose head's sds are zero-mean Gaussians appended to the prefix.
    """
    prefix, t, mus = read_noise_spec(obj, tails=("gauss_schedule",))
    prefix = tuple(torus_measure_from_spec(m) for m in prefix)
    if mus is not None:
        return TorusNoiseLaw(prefix, PeriodicTail(tuple(torus_measure_from_spec(m) for m in mus)))
    head = t.get("head", [])
    if not isinstance(head, list):
        raise InvalidSpec(f"gauss_schedule tail 'head' must be a list of numbers, got {head!r}")
    try:
        sds = tuple(_number(s) for s in head)
        # only the keys the spec gives: GaussianSchedule holds the defaults
        tail = GaussianSchedule(**{field: _number(t[key])
                                   for key, field in (("c", "coeff"), ("r", "ratio")) if key in t})
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed torus gauss_schedule tail spec: {exc}") from None
    return TorusNoiseLaw(prefix + tuple(WrappedGaussianSpec(0.0, s) for s in sds), tail)
