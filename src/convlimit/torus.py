"""Fourier analysis of noise laws on the circle [0, 1).

Membership of a frequency p in the detected lattice is decided from the
infinite product of characteristic-function moduli. A noise law is a
prefix followed by a periodic tail (a constant tail has period 1) or by the
Gaussian formula sd_k = c * r^|k|. Partial products give an upper bound;
both tails admit exact analytic tail bounds, computed in log space so
nothing underflows. The nonnegative generator of the detected lattice
drives the same A/B/C classification as the finite-group engine, and
rational-atom noises can be pushed onto a cyclic grid to cross-validate
the two.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import GridMismatch, Indeterminate, InvalidSpec, NotRepresentable
from .groups import cyclic_group, is_number
from .measures import Measure

DEFAULT_P_MAX = 64
DEFAULT_DEPTH = 256
DEFAULT_FLOOR = 1e-12

# A constant-tail factor this close to 1 is treated as exactly 1; a factor
# below ONE_MINUS_DECAY repeated forever is a certain zero. In between we
# refuse to guess.
ONE_MINUS_EXACT = 1e-12
ONE_MINUS_DECAY = 1e-9

GAUSS_TRUNCATION_SIGMAS = 8.0


@dataclass(frozen=True)
class DiracSpec:
    x: float

    def __post_init__(self):
        if not 0.0 <= self.x < 1.0:
            raise InvalidSpec(f"Dirac position must lie in [0, 1), got {self.x}")


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


TorusMeasureSpec = Union[DiracSpec, AtomsSpec, UniformIntervalSpec, WrappedGaussianSpec]


def char_fn(spec: TorusMeasureSpec, p: int) -> complex:
    """Characteristic function value: the integral of e^{2 pi i p x} under the measure."""
    if p == 0:
        return complex(1.0)
    two_pi_p = 2.0 * math.pi * p
    if isinstance(spec, DiracSpec):
        return complex(math.cos(two_pi_p * spec.x), math.sin(two_pi_p * spec.x))
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
    floor: float = DEFAULT_FLOOR,
) -> PiBounds:
    """Lower/upper bounds on the product of |char| factors over all k <= 0.

    The partial products are nonincreasing in depth since every factor is
    at most 1. Deciding 'null' requires an exact zero factor, a repeating
    factor bounded away from 1, or an upper bound below the floor; deciding
    'member' requires a finite log-domain lower bound.
    """
    window = _window(noise, depth)
    if p == 0:
        _, levels, sd2 = window
        return PiBounds(p=0, lower=1.0, upper=1.0, decision="member",
                        depth=levels.size + sd2.size, curve=(1.0,), log_lower=0.0, log_upper=0.0)
    return _pi_bounds(noise, p, *window, floor)


def _pi_bounds(noise: TorusNoiseLaw, p: int, measures: list[TorusMeasureSpec],
               levels: np.ndarray, sd2: np.ndarray, floor: float) -> PiBounds:
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
        fs = [min(abs(char_fn(m, p)), 1.0) for m in noise.tail.mus]
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
        elif upper < floor:
            decision = "null"

    def value(level: int) -> float:
        """The partial product over the first ``level`` levels, the curve's point there."""
        return math.exp(partial[level]) if level <= n_positive else 0.0

    # the curve does not increase, so each cut is the first level of a run of
    # True that lasts to the window's end, found by bisection
    levels = range(1, eff_depth + 1)
    cut = bisect.bisect_left(levels, True, key=lambda level: value(level) == upper)
    if decision != "member":
        cut = min(cut, bisect.bisect_left(levels, True, key=lambda level: value(level) < floor))
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
    floor: float = DEFAULT_FLOOR,
) -> TorusClassification:
    """Detect the lattice of frequencies with a positive product and its generator.

    Raises :class:`Indeterminate` when an undecided frequency could change
    the gcd of the detected members.
    """
    if p_max < 1:
        raise InvalidSpec(f"p_max must be >= 1, got {p_max}")
    window = _window(noise, depth)
    bounds = {p: _pi_bounds(noise, p, *window, floor) for p in range(1, p_max + 1)}
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


def _wrapped_gaussian_bin_masses(mean: float, sd: float, n: int) -> np.ndarray:
    """Mass of each centered grid bin [j/n - 1/2n, j/n + 1/2n) under the wrapped normal.

    Wrap copies are truncated at GAUSS_TRUNCATION_SIGMAS standard deviations;
    the missed mass is at most 2*Phi(-8) ~ 1.2e-15, then renormalized away.
    The normal CDF is Phi(z) = erfc(-z / sqrt 2) / 2, which keeps full
    relative precision in the lower tail.
    """
    edges = (np.arange(n + 1) - 0.5) / n
    lo = math.floor(mean - GAUSS_TRUNCATION_SIGMAS * sd - 1.0)
    hi = math.ceil(mean + GAUSS_TRUNCATION_SIGMAS * sd + 1.0)
    masses = np.zeros(n)
    for m in range(lo, hi + 1):
        z = (edges + m - mean) / sd
        cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in z.tolist()])
        masses += np.diff(cdf)
    return masses / masses.sum()


def _uniform_interval_bin_masses(a: float, b: float, n: int) -> np.ndarray:
    """Exact masses of centered grid bins under the uniform law on [a, b)."""
    edges = (np.arange(n + 1) - 0.5) / n
    masses = np.zeros(n)
    for shift in (-1.0, 0.0, 1.0):
        lo = np.maximum(edges[:-1], a + shift)
        hi = np.minimum(edges[1:], b + shift)
        masses += np.maximum(hi - lo, 0.0)
    return masses / (b - a)


def _atom_index(x: float, n: int, approx: bool) -> int:
    scaled = x * n
    nearest = round(scaled)
    if abs(scaled - nearest) <= 1e-9:
        return int(nearest) % n
    if approx:
        return int(nearest) % n
    raise NotRepresentable(
        f"atom at {x} is not a multiple of 1/{n}; pass approx=True to bin it"
    )


def discretize_to_cyclic(spec: TorusMeasureSpec, n: int, *, approx: bool = False) -> Measure:
    """Push a torus measure onto the cyclic group Z_n (grid point j <-> j/n).

    Atoms on the grid map exactly. Continuous specs require ``approx=True``
    and are binned into centered cells [j/n - 1/2n, j/n + 1/2n).
    """
    if n < 1:
        raise InvalidSpec(f"grid size must be positive, got {n}")
    group = cyclic_group(n)
    w = np.zeros(n)
    if isinstance(spec, DiracSpec):
        w[_atom_index(spec.x, n, approx)] = 1.0
    elif isinstance(spec, AtomsSpec):
        for x, weight in spec.points:
            w[_atom_index(x, n, approx)] += weight
    elif isinstance(spec, UniformIntervalSpec):
        if not approx:
            raise NotRepresentable("a uniform interval needs approx=True to be binned")
        w = _uniform_interval_bin_masses(spec.a, spec.b, n)
    elif isinstance(spec, WrappedGaussianSpec):
        if not approx:
            raise NotRepresentable("a wrapped Gaussian needs approx=True to be binned")
        w = _wrapped_gaussian_bin_masses(spec.mean, spec.sd, n)
    else:
        raise InvalidSpec(f"unknown torus measure spec {type(spec).__name__}")
    return Measure(group, w)


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
            if not pts:
                raise InvalidSpec("atoms spec requires a non-empty 'points' list")
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
    """Build a torus noise law from its JSON spec.

    Tail kinds: {"kind":"constant","mu":...} | {"kind":"periodic","mus":[...]} |
    {"kind":"gauss_schedule","head":[...],"c":...,"r":...}. A constant tail is
    a periodic one of period 1; the head's sds are zero-mean Gaussians
    appended to the prefix.
    """
    if not isinstance(obj, dict) or "tail" not in obj:
        raise InvalidSpec("torus noise spec must be an object with a 'tail' field")
    prefix = obj.get("prefix", [])
    if not isinstance(prefix, list):
        raise InvalidSpec(f"torus noise prefix must be a list of measure specs, got {prefix!r}")
    prefix = tuple(torus_measure_from_spec(m) for m in prefix)
    t = obj["tail"]
    if not isinstance(t, dict) or "kind" not in t:
        raise InvalidSpec("torus tail spec must be an object with a 'kind' field")
    try:
        if t["kind"] in ("constant", "periodic"):
            # a constant tail is the periodic tail of period 1
            mus = [t["mu"]] if t["kind"] == "constant" else t.get("mus")
            if not mus:
                raise InvalidSpec("periodic tail spec requires a non-empty 'mus' list")
            tail: TorusTail = PeriodicTail(tuple(torus_measure_from_spec(m) for m in mus))
        elif t["kind"] == "gauss_schedule":
            head = tuple(_number(s) for s in t.get("head", []))
            tail = GaussianSchedule(coeff=_number(t.get("c", 0.1)), ratio=_number(t.get("r", 1.0)))
            prefix += tuple(WrappedGaussianSpec(0.0, s) for s in head)
        else:
            raise InvalidSpec(f"unknown torus tail kind {t['kind']!r}")
    except KeyError as exc:
        raise InvalidSpec(f"torus {t['kind']} tail spec requires the field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed torus {t['kind']} tail spec: {exc}") from None
    return TorusNoiseLaw(prefix=prefix, tail=tail)
