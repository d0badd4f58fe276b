"""Probability measures on a finite group: convolution, Haar, stabilizers, sampling.

Measures are dense double-precision weight vectors. Convolution is the
plain O(n^2) sum, which doubles as its own brute-force oracle at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import GroupMismatch, InvalidSpec, NotASubgroup, NotClosedAtTolerance
from .groups import FiniteGroup, Subgroup, closure_break, is_integer, same_group, subgroup

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
        cum[-1] = max(cum[-1], 1.0)
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

    Renormalizes when floating-point drift exceeds the weight-sum tolerance,
    so long chains stay on the simplex.
    """
    _require_same_group(mu, nu)
    g = mu.group
    # rows[a, x] = nu(a^-1 x)
    rows = nu.weights[g.left_div]
    out = mu.weights @ rows
    total = out.sum()
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        out = out / total
    return Measure(g, out)


def translate_right(mu: Measure, g: int) -> Measure:
    """mu * delta_g; a permutation of the weights."""
    grp = mu.group
    return Measure(grp, mu.weights[grp.mul[:, grp.inv[g]]])


def translate_left(g: int, mu: Measure) -> Measure:
    """delta_g * mu; a permutation of the weights."""
    grp = mu.group
    return Measure(grp, mu.weights[grp.mul[grp.inv[g], :]])


def tv_distance(mu: Measure, nu: Measure) -> float:
    """Total variation distance, in [0, 1]."""
    _require_same_group(mu, nu)
    return 0.5 * float(np.abs(mu.weights - nu.weights).sum())


def all_right_translates(mu: Measure) -> np.ndarray:
    """Matrix whose column g is the weight vector of mu * delta_g."""
    grp = mu.group
    return mu.weights[grp.right_div]


def tv_to_right_translates(mu: Measure, nu: Measure) -> np.ndarray:
    """Vector whose entry g is tv(mu * delta_g, nu)."""
    return 0.5 * np.abs(all_right_translates(mu) - nu.weights[:, None]).sum(axis=0)


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


def is_haar_idempotent(mu: Measure, tol: float = STABILIZER_TOL) -> Optional[Subgroup]:
    """The subgroup H with mu = omega_H if mu is a Haar idempotent, else None."""
    grp = mu.group
    support = [g for g in range(grp.order) if mu.weights[g] > tol]
    try:
        H = subgroup(grp, support)
    except NotASubgroup:
        return None
    if tv_distance(mu, haar_subgroup(grp, H)) > tol:
        return None
    if tv_distance(convolve(mu, mu), mu) > tol:
        return None
    return H


def inverse_cdf(mu: Measure, u: np.ndarray) -> np.ndarray:
    """The ids ``np.searchsorted(cum, u, side="right")`` of uniforms u in [0, 1), exactly.

    ``cum`` is the cumulative sum of the weights in element index order,
    with its last entry raised to 1 if it drifted below, so every id lies in
    [0, n). The ids come in the group's ``id_dtype``, shaped like ``u``.

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


def sample(mu: Measure, rng: np.random.Generator, size: Optional[int] = None):
    """Inverse-CDF sampling over element index order; deterministic given rng state.

    Draws ``rng.random(size)`` and maps it through :func:`inverse_cdf`; with
    ``size=None`` one draw comes back as an ``int``.
    """
    if size is None:
        return int(inverse_cdf(mu, np.array([rng.random()]))[0])
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
        try:
            w = np.asarray(obj["w"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidSpec(f"weights must be a list of numbers: {exc}") from None
        return Measure(group, w)
    raise InvalidSpec(f"unknown measure spec kind {kind!r}")
