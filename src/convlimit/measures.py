"""Probability measures on a finite group: convolution, Haar, stabilizers, sampling.

Measures are dense double-precision weight vectors. Convolution gathers one
row per support point of its left factor, O(|supp mu| n), and its sums equal,
bit for bit, those of the plain O(n^2) sum over every row. Right translates
are gathered only for the elements asked for, each as one contiguous column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import GroupMismatch, InvalidSpec, NotClosedAtTolerance
from .groups import FiniteGroup, Subgroup, closure_break, is_integer, is_number, same_group, subgroup

WEIGHT_SUM_TOL = 1e-12

# Post-convergence checks (stabilizer membership, idempotence) distinguish
# numerical noise from genuine asymmetry at this default.
STABILIZER_TOL = 1e-9

# The inverse-CDF guide table has at least this many buckets per element,
# so at most 1/64 of the draws fall back to a binary search.
GUIDE_BUCKETS_PER_ELEMENT = 64


@dataclass(frozen=True, eq=False)
class Measure:
    """A probability vector over the elements of a finite group."""

    group: FiniteGroup
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.group.order,):
            raise InvalidSpec(
                f"expected {self.group.order} weights, got shape {w.shape}"
            )
        if w.min() < -WEIGHT_SUM_TOL:
            raise InvalidSpec(f"negative weight {w.min():g}")
        w = np.maximum(w, 0.0)
        total = w.sum()
        # written so that a NaN total fails too: every comparison with NaN is false
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            if not np.isfinite(w).all():
                raise InvalidSpec(f"weights must be finite, got {w.tolist()}")
            raise InvalidSpec(f"weights sum to {total!r}, expected 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __repr__(self) -> str:
        return f"Measure({np.array2string(self.weights, precision=4)})"

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray]:
        """(cum, guide) for :func:`inverse_cdf`, built on the first draw and kept."""
        cum = np.cumsum(self.weights)
        cum[np.flatnonzero(self.weights)[-1]:] = 1.0
        m = 1 << (GUIDE_BUCKETS_PER_ELEMENT * self.group.order - 1).bit_length()
        edges = np.arange(m + 1) / m  # exact: m is a power of two
        lo = np.searchsorted(cum, edges[:-1], side="right")
        hi = np.searchsorted(cum, edges[1:], side="left")
        guide = np.where(lo == hi, lo, -1).astype(self.group.id_dtype)
        guide.setflags(write=False)
        return cum, guide


def _require_same_group(mu: Measure, nu: Measure) -> None:
    if not same_group(mu.group, nu.group):
        raise GroupMismatch("measures live on different groups")


def delta(group: FiniteGroup, g: int) -> Measure:
    """Point mass at g."""
    w = np.zeros(group.order)
    w[g] = 1.0
    return Measure(group, w)


def haar(group: FiniteGroup) -> Measure:
    """Normalized uniform measure on the whole group."""
    return Measure(group, np.full(group.order, 1.0 / group.order))


def haar_subgroup(group: FiniteGroup, H: Subgroup) -> Measure:
    """Normalized uniform measure on the subgroup H, zero elsewhere."""
    w = np.zeros(group.order)
    w[list(H.members)] = 1.0 / H.order
    return Measure(group, w)


def convolve(mu: Measure, nu: Measure) -> Measure:
    """Law of X*Y for independent X ~ mu, Y ~ nu: out(g) = sum_a mu(a) nu(a^-1 g).

    Row a of an n x n matrix holds nu(a^-1 x) for a in the support of mu and
    zeros elsewhere, and one matrix-vector product with mu's weights sums
    the rows: O(|supp mu| n) gathered. The sums are those over every row,
    bit for bit: a row where mu(a) = 0 adds +0 to each total whatever it
    holds, and the product sums the same n rows in the same order.

    Renormalizes when floating-point drift exceeds the weight-sum tolerance,
    so long chains stay on the simplex.
    """
    _require_same_group(mu, nu)
    g = mu.group
    support = mu.weights.nonzero()[0]
    rows = np.zeros((g.order, g.order))
    rows[support] = nu.weights.take(g.mul.take(g.inv.take(support), axis=0))
    out = mu.weights @ rows
    total = out.sum()
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        out = out / total
    return Measure(g, out)


def translate_right(mu: Measure, g: int) -> Measure:
    """mu * delta_g; a permutation of the weights."""
    grp = mu.group
    return Measure(grp, mu.weights[grp.mul[:, grp.inv[g]]])


def tv_distance(mu: Measure, nu: Measure) -> float:
    """Total variation distance, in [0, 1]."""
    _require_same_group(mu, nu)
    return 0.5 * float(np.abs(mu.weights - nu.weights).sum())


def all_right_translates(mu: Measure, at: Optional[np.ndarray] = None) -> np.ndarray:
    """Matrix whose column i is the weight vector of mu * delta_g for g = at[i], every g by default.

    The matrix is F-ordered: each translate is one contiguous column.
    """
    grp = mu.group
    at = np.arange(grp.order) if at is None else at
    # row inv[g] of mul.T maps x to x g^-1
    return mu.weights.take(grp.mul.T[grp.inv[at]]).T


def tv_to_right_translates(mu: Measure, nu: Measure, at: Optional[np.ndarray] = None) -> np.ndarray:
    """Vector whose entry i is tv(mu * delta_g, nu) for g = at[i], every g by default.

    Each translate's absolute differences are summed pairwise (numpy's sum
    along one contiguous column), so an entry's bits do not depend on which
    other g are asked for.
    """
    return 0.5 * np.abs(all_right_translates(mu, at) - nu.weights[:, None]).sum(axis=0)


def right_stabilizer(mu: Measure, tol: float = STABILIZER_TOL) -> Subgroup:
    """All h with tv(mu * delta_h, mu) <= tol, verified to form a subgroup.

    Raises :class:`NotClosedAtTolerance` when the near-invariant set is not
    closed under the group product, which signals that tol straddles a
    near-symmetry of mu.
    """
    grp = mu.group
    members = np.flatnonzero(tv_to_right_translates(mu, mu) <= tol)
    broken = closure_break(grp, members)
    if broken is not None:
        raise NotClosedAtTolerance(broken, int(grp.mul[broken]), tol)
    return subgroup(grp, members)


def inverse_cdf(mu: Measure, u: np.ndarray) -> np.ndarray:
    """The ids ``np.searchsorted(cum, u, side="right")`` of uniforms u in [0, 1), exactly.

    ``cum`` is the cumulative sum of the weights in element index order, set
    to 1 from the last positive weight on, so every id has positive weight,
    even where rounding left the sum below 1. The ids come in the group's
    ``id_dtype``, shaped like ``u``.

    Table-guided inversion (Chen & Asau 1974; Devroye 1986, III.2.4): [0, 1)
    is cut into m = 2^j >= 64 n buckets. As m is a power of two, u * m is
    exact and floor(u * m) is u's bucket b. Every u in bucket b has an id
    between lo = searchsorted(cum, b/m, "right") and
    hi = searchsorted(cum, (b+1)/m, "left"); the table holds lo where
    lo == hi and -1 where a step of the CDF falls inside the bucket. At most
    n buckets hold a step, and only draws in those go to the binary search.
    """
    cum, guide = mu._guide
    ids = guide.take((u * guide.size).astype(np.intp))
    ambiguous = ids < 0
    if ambiguous.any():
        ids[ambiguous] = np.searchsorted(cum, u[ambiguous], side="right")
    return ids


def sample(mu: Measure, rng: np.random.Generator, size: int) -> np.ndarray:
    """Inverse-CDF sampling over element index order; deterministic given rng state.

    Draws ``rng.random(size)`` and maps it through :func:`inverse_cdf`.
    """
    return inverse_cdf(mu, rng.random(size))


def measure_from_spec(group: FiniteGroup, obj: dict) -> Measure:
    """Build a measure from its JSON spec.

    Kinds: {"kind":"delta","at":g} | {"kind":"haar"} |
    {"kind":"haar_subgroup","members":[...]} | {"kind":"weights","w":[...]}.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidSpec("measure spec must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "delta":
        if "at" not in obj:
            raise InvalidSpec("delta measure spec requires an 'at' field")
        g = obj["at"]
        if not is_integer(g):
            raise InvalidSpec(f"delta location must be an integer, got {g!r}")
        if not 0 <= g < group.order:
            raise InvalidSpec(f"delta location {g} out of range [0, {group.order})")
        return delta(group, g)
    if kind == "haar":
        return haar(group)
    if kind == "haar_subgroup":
        if not isinstance(obj.get("members"), list):
            raise InvalidSpec("haar_subgroup measure spec requires a 'members' list")
        return haar_subgroup(group, subgroup(group, obj["members"]))
    if kind == "weights":
        if "w" not in obj:
            raise InvalidSpec("weights measure spec requires a 'w' field")
        w = obj["w"]
        bad = [x for x in w if not is_number(x)] if isinstance(w, list) else [w]
        if bad:
            raise InvalidSpec(f"weights must be a list of numbers, got {bad[0]!r}")
        return Measure(group, np.array(w, dtype=np.float64))
    raise InvalidSpec(f"unknown measure spec kind {kind!r}")
