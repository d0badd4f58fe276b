"""Exception types raised across the library."""

from __future__ import annotations


class ConvLimitError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidSpec(ConvLimitError):
    """A JSON spec (group, measure, noise) is malformed."""


class NoIdentity(ConvLimitError):
    """The multiplication table has no two-sided identity."""


class NoInverse(ConvLimitError):
    """Some element has no right inverse; carries the element index."""

    def __init__(self, element: int, message: str | None = None):
        self.element = element
        super().__init__(message or f"element {element} has no inverse")


class NotAssociative(ConvLimitError):
    """Associativity fails; carries a witnessing triple (a, b, c)."""

    def __init__(self, triple: tuple[int, int, int], message: str | None = None):
        self.triple = triple
        a, b, c = triple
        super().__init__(message or f"(a*b)*c != a*(b*c) for (a, b, c) = ({a}, {b}, {c})")


class NotASubgroup(ConvLimitError):
    """A member set fails one of the subgroup axioms."""


class GroupMismatch(ConvLimitError):
    """Binary measure operation applied to measures on different groups."""


class NotClosedAtTolerance(ConvLimitError):
    """The near-stabilizer set is not closed; the tolerance straddles a near-symmetry.

    Carries the violating pair so the caller can tighten or loosen the tolerance.
    """

    def __init__(self, pair: tuple[int, int], product: int, tol: float):
        self.pair = pair
        self.product = product
        self.tol = tol
        super().__init__(
            f"stabilizer candidates at tol={tol:g} are not closed: "
            f"{pair[0]}*{pair[1]} = {product} is outside the set; "
            "tighten or loosen the tolerance"
        )


class BadRange(ConvLimitError):
    """Invalid (k, l) index range for a backward product."""


class NoConvergenceAtDepth(ConvLimitError):
    """Shape of the backward products did not certify within max_depth.

    ``projected_depth`` is the exact depth the law certifies at, and ``rate``
    the contraction per level between the last two rungs of the squaring
    ladder (0.0 when a rung is exact); both are None when the ladder stalls at
    the float floor. ``history`` holds the rungs as (-depth, shape distance).
    """

    def __init__(self, max_depth: int, history: list[tuple[int, float]],
                 rate: float | None, projected_depth: int | None):
        self.max_depth = max_depth
        self.history = history
        self.rate = rate
        self.projected_depth = projected_depth
        tail = ", ".join(f"l={l}: {d:.3e}" for l, d in history[-5:])
        projection = ("no contraction, no projected depth" if rate is None
                      else f"contraction {rate:.6f} per level, projected depth {projected_depth}")
        super().__init__(
            f"shape did not stabilize within depth {max_depth}; "
            f"recent shape distances: {tail}; {projection}"
        )


class NotRepresentable(ConvLimitError):
    """Torus measure is not supported on the requested cyclic grid."""


class Indeterminate(ConvLimitError):
    """Some torus frequencies could not be decided and the gcd depends on them."""

    def __init__(self, undecided: tuple[int, ...], message: str | None = None):
        self.undecided = undecided
        super().__init__(
            message
            or f"membership of p in {list(undecided)} is undecided and affects the gcd"
        )


class GridMismatch(ConvLimitError):
    """Cyclic grid size is incompatible with the requested torus subgroup."""


class CosetNotStabilized(ConvLimitError):
    """A path cannot be factored: it breaks the recursion or draws noise off its law's support."""


class OutOfSupport(ConvLimitError):
    """Samples fall outside the hypothesised support; itself a test failure signal."""


class EmptySample(ConvLimitError):
    """An empirical law was requested from zero samples."""


class InsufficientSamples(ConvLimitError):
    """Too few paths for the statistical battery at its calibrated thresholds."""
