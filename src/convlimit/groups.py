"""Exact algebra for finite groups presented by multiplication tables.

Elements are dense indices ``0..n-1``. Built-in constructions (cyclic,
symmetric, dihedral, quaternion, direct products) put the identity at
index 0. Everything is immutable after construction.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidSpec,
    NoIdentity,
    NoInverse,
    NotASubgroup,
    NotAssociative,
)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its order-n multiplication table.

    ``mul[a, b]`` is the index of the product a*b, ``inv[a]`` the index of
    the inverse of a. Instances compare by identity; use :func:`same_group`
    for structural comparison.
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    identity: int
    element_labels: Optional[tuple[str, ...]] = None
    name: Optional[str] = None

    def elements(self) -> range:
        return range(self.order)

    def label(self, g: int) -> str:
        if self.element_labels is not None:
            return self.element_labels[g]
        return str(g)

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    @cached_property
    def left_div(self) -> np.ndarray:
        """``left_div[a, x]`` is the index of a^-1 x; built once per group, read-only."""
        table = self.mul[self.inv, :]
        table.setflags(write=False)
        return table

    @cached_property
    def id_dtype(self) -> np.dtype:
        """The dtype of element-id arrays of this group; see :func:`id_dtype`."""
        return id_dtype(self.order)

    @cached_property
    def flat_mul(self) -> np.ndarray:
        """``flat_mul[a * order + b]`` is the index of a*b, in :attr:`id_dtype`; read-only.

        A flat index can reach order^2 - 1, so its arithmetic needs
        ``id_dtype(order * order)``.
        """
        table = self.mul.ravel().astype(self.id_dtype)
        table.setflags(write=False)
        return table

    @cached_property
    def right_div(self) -> np.ndarray:
        """``right_div[x, g]`` is the index of x g^-1; built once per group, read-only."""
        table = self.mul[:, self.inv]
        table.setflags(write=False)
        return table

    def __repr__(self) -> str:
        tag = self.name or f"order-{self.order} group"
        return f"FiniteGroup({tag})"


def id_dtype(count: int) -> np.dtype:
    """The narrowest signed integer dtype that holds ``count`` (int8, int16, int32 or int64).

    Element ids of a group of order n are stored in ``id_dtype(n)``, so an
    ensemble of a group of order at most 127 takes one byte per id.
    """
    for dtype in (np.int8, np.int16, np.int32):
        if count <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def same_group(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    """True when both arguments denote the same group table."""
    if g1 is g2:
        return True
    return g1.order == g2.order and np.array_equal(g1.mul, g2.mul)


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A validated subgroup, stored as the sorted tuple of member indices."""

    group: FiniteGroup
    members: tuple[int, ...]

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __contains__(self, g: int) -> bool:
        return int(g) in self._member_set

    @property
    def order(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return same_group(self.group, other.group) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        labels = [self.group.label(g) for g in self.members]
        return f"Subgroup({{{', '.join(labels)}}})"


@dataclass(frozen=True, eq=False)
class CosetSpace:
    """Left cosets gH of a subgroup: a partition of the group."""

    group: FiniteGroup
    subgroup: Subgroup
    coset_of: np.ndarray  # element index -> coset id
    cosets: tuple[tuple[int, ...], ...]

    @property
    def n_cosets(self) -> int:
        return len(self.cosets)


@dataclass(frozen=True, eq=False)
class Section:
    """A choice of one representative element per left coset."""

    space: CosetSpace
    representative: tuple[int, ...]

    def of(self, g: int) -> int:
        """Representative of the coset containing g."""
        return self.representative[self.space.coset_of[g]]


def is_integer(value: object) -> bool:
    """True for a Python or NumPy integer, but not a bool: ``int`` would read 1.5 or true as 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _right_closure(mul: np.ndarray, reached: np.ndarray, generators: np.ndarray) -> np.ndarray:
    """Copy of the boolean mask ``reached``, grown until right multiplication by the generators
    keeps it: each round multiplies the elements found in the last round by every generator."""
    reached = reached.copy()
    frontier = np.flatnonzero(reached)
    while frontier.size:
        products = mul[np.ix_(frontier, generators)].ravel()
        frontier = np.unique(products[~reached[products]])
        reached[frontier] = True
    return reached


def _check_associativity(mul: np.ndarray, identity: int) -> None:
    """Light's test over a greedy generating set: exact, O(n^2 log n) on any table.

    The next generator g is the smallest element not yet reached from the
    identity e by right multiplication by the earlier ones; it must satisfy
    (x*g)*y = x*(g*y) for all x, y, else :class:`NotAssociative` gets (x, g, y).
    Exact: the passing elements are closed under products, as (x*(a*b))*y =
    ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y), and every element
    is a left-nested product of generators. Cheap: the caller has checked e
    and right inverses. While all pass, the reached set R is closed, and
    x -> x*a is injective for a passing a, as (x*a)*a' = x*(a*a') = x when
    a*a' = e; so R is a group. A new g outside R gives |R*g| = |R| and R*g
    disjoint from R (r*g = r' would put g = r^-1*r' in R), so R at least
    doubles: at most floor(log2 n) + 1 generators are tested.
    """
    reached = np.zeros(mul.shape[0], dtype=bool)
    reached[identity] = True
    generators: list[int] = []
    while not reached.all():
        g = int(np.argmin(reached))
        bad = mul[mul[:, g], :] != mul[:, mul[g, :]]
        if bad.any():
            x, y = map(int, np.argwhere(bad)[0])
            raise NotAssociative((x, g, y))
        generators.append(g)
        reached = _right_closure(mul, reached, np.array(generators))


def validate_group(
    table: Sequence[Sequence[int]] | np.ndarray,
    identity_hint: Optional[int] = None,
    *,
    element_labels: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> FiniteGroup:
    """Build a :class:`FiniteGroup` from a multiplication table, verifying all axioms.

    Raises :class:`NoIdentity`, :class:`NoInverse` or :class:`NotAssociative`
    with a witness when the table is not a group.
    """
    try:
        mul = np.array(table)
    except ValueError as exc:
        raise InvalidSpec(f"multiplication table is not a rectangular array: {exc}") from None
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or mul.shape[0] == 0:
        raise InvalidSpec(f"multiplication table must be square and non-empty, got shape {mul.shape}")
    if mul.dtype.kind not in "iu":
        raise InvalidSpec(f"multiplication table entries must be integers, got dtype {mul.dtype}")
    # np.array reads a list that mixes booleans with integers as integers
    if not isinstance(table, np.ndarray) and any(
        isinstance(x, (bool, np.bool_)) for row in table for x in row
    ):
        raise InvalidSpec("multiplication table entries must be integers, got a boolean")
    mul = mul.astype(np.int64, copy=False)
    n = int(mul.shape[0])
    if mul.min() < 0 or mul.max() >= n:
        raise InvalidSpec(f"table entries must lie in [0, {n})")
    if identity_hint is not None and not is_integer(identity_hint):
        raise InvalidSpec(f"identity hint must be an integer, got {identity_hint!r}")

    idx = np.arange(n)
    two_sided = (mul == idx).all(axis=1) & (mul == idx[:, None]).all(axis=0)
    if not two_sided.any():
        raise NoIdentity("no two-sided identity element in table")
    identity = int(np.argmax(two_sided))
    if identity_hint is not None and identity_hint != identity:
        raise NoIdentity(f"identity hint {identity_hint} disagrees with derived identity {identity}")

    hits = mul == identity
    has_inverse = hits.any(axis=1)
    if not has_inverse.all():
        raise NoInverse(int(np.argmin(has_inverse)))
    inv = hits.argmax(axis=1).astype(np.int64)

    _check_associativity(mul, identity)

    labels = tuple(str(s) for s in element_labels) if element_labels is not None else None
    if labels is not None and len(labels) != n:
        raise InvalidSpec(f"expected {n} element labels, got {len(labels)}")
    mul.setflags(write=False)
    inv.setflags(write=False)
    return FiniteGroup(order=n, mul=mul, inv=inv, identity=identity,
                       element_labels=labels, name=name)


def _member_mask(group: FiniteGroup, members) -> np.ndarray:
    inside = np.zeros(group.order, dtype=bool)
    inside[np.asarray(members, dtype=np.int64)] = True
    return inside


def closure_break(group: FiniteGroup, members) -> Optional[tuple[int, int]]:
    """First pair (a, b) of members, row-major over the sorted members, with a*b outside the
    set; None when it is closed. The caller picks the error to raise."""
    ms = np.unique(np.asarray(members, dtype=np.int64))
    bad = ~_member_mask(group, ms)[group.mul[np.ix_(ms, ms)]]
    if not bad.any():
        return None
    i, j = np.argwhere(bad)[0]
    return int(ms[i]), int(ms[j])


def subgroup(group: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Validate a member set and return it as a :class:`Subgroup`.

    Raises :class:`NotASubgroup` naming the first axiom violation.
    """
    ids = list(members)
    if not all(is_integer(g) for g in ids):
        raise InvalidSpec(f"subgroup members must be integers, got {ids!r}")
    ms = sorted({int(g) for g in ids})
    if not ms:
        raise NotASubgroup("empty member set")
    if ms[0] < 0 or ms[-1] >= group.order:
        raise NotASubgroup(f"member index out of range [0, {group.order})")
    inside = _member_mask(group, ms)
    if not inside[group.identity]:
        raise NotASubgroup("member set does not contain the identity")
    # the first fault of a scan by rows, where a row checks a's inverse first
    uninverted = [a for a in ms if not inside[group.inv[a]]]
    broken = closure_break(group, ms)
    if uninverted and (broken is None or uninverted[0] <= broken[0]):
        raise NotASubgroup(f"member set not closed under inversion at {uninverted[0]}")
    if broken is not None:
        raise NotASubgroup(f"member set not closed under product at {broken}")
    # Lagrange holds automatically for a closed set; keep as a sanity assert.
    assert group.order % len(ms) == 0
    return Subgroup(group=group, members=tuple(ms))


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group=group, members=(group.identity,))


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group=group, members=tuple(range(group.order)))


def generated_subgroup(group: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators: in a finite group, the closure of the
    identity under right multiplication by them, since g^-1 is a power of g."""
    gens = np.unique(np.fromiter(generators, dtype=np.int64))
    members = np.flatnonzero(_right_closure(group.mul, _member_mask(group, [group.identity]), gens))
    return Subgroup(group=group, members=tuple(members.tolist()))


def _require_subgroup_of(group: FiniteGroup, H: Subgroup) -> None:
    if not same_group(group, H.group):
        raise NotASubgroup("subgroup belongs to a different group")
    if group.identity not in H:
        raise NotASubgroup("member set does not contain the identity")
    broken = closure_break(group, H.members)
    if broken is not None:
        raise NotASubgroup(f"member set not closed under product at {broken}")


def left_cosets(group: FiniteGroup, H: Subgroup) -> CosetSpace:
    """Partition the group into left cosets gH."""
    _require_subgroup_of(group, H)
    members = np.array(H.members, dtype=np.int64)
    coset_of = np.full(group.order, -1, dtype=np.int64)
    cosets: list[tuple[int, ...]] = []
    for g in range(group.order):
        if coset_of[g] >= 0:
            continue
        coset = np.sort(group.mul[g, members])
        cid = len(cosets)
        coset_of[coset] = cid
        cosets.append(tuple(int(x) for x in coset))
    coset_of.setflags(write=False)
    return CosetSpace(group=group, subgroup=H, coset_of=coset_of, cosets=tuple(cosets))


def default_section(space: CosetSpace) -> Section:
    """The section choosing the minimal element index in each coset."""
    return Section(space=space, representative=tuple(c[0] for c in space.cosets))


def section_from_representatives(space: CosetSpace, reps: Sequence[int]) -> Section:
    """A custom section; each representative must lie in its coset."""
    if len(reps) != space.n_cosets:
        raise InvalidSpec(f"expected {space.n_cosets} representatives, got {len(reps)}")
    for cid, r in enumerate(reps):
        if int(space.coset_of[int(r)]) != cid:
            raise InvalidSpec(f"representative {r} does not lie in coset {cid}")
    return Section(space=space, representative=tuple(int(r) for r in reps))


def h_part(g: int, space: CosetSpace, section: Section) -> int:
    """Residual subgroup factor: the h with s(gH) * h = g; always lies in H."""
    s = section.of(g)
    group = space.group
    return int(group.mul[group.inv[s], g])


def _conjugates(group: FiniteGroup, members: Sequence[int], by) -> np.ndarray:
    """Array of shape (len(by), len(members)) whose row i holds g^-1 h g for g = by[i]."""
    g = np.asarray(by, dtype=np.int64)[:, None]
    return group.mul[group.mul[group.inv[g], np.asarray(members)], g]


def conjugate_subgroup(H: Subgroup, g: int) -> Subgroup:
    """The conjugate g^{-1} H g."""
    members = np.sort(_conjugates(H.group, H.members, [g])[0])
    return Subgroup(group=H.group, members=tuple(members.tolist()))


def are_conjugate(H1: Subgroup, H2: Subgroup) -> Optional[int]:
    """Smallest g with g^{-1} H1 g = H2, or None if not conjugate."""
    if not same_group(H1.group, H2.group):
        raise NotASubgroup("subgroups of different groups")
    if H1.order != H2.order:
        return None
    conj = np.sort(_conjugates(H1.group, H1.members, np.arange(H1.group.order)), axis=1)
    hits = np.flatnonzero((conj == np.array(H2.members)).all(axis=1))
    return int(hits[0]) if hits.size else None


def normal_closure(group: FiniteGroup, H: Subgroup) -> Subgroup:
    """Smallest normal subgroup containing H.

    Generated by all conjugates of the members of H; conjugation permutes
    that generating set, so a single closure suffices.
    """
    _require_subgroup_of(group, H)
    conj = _conjugates(group, H.members, np.arange(group.order))
    return generated_subgroup(group, np.unique(conj))


def is_normal(group: FiniteGroup, H: Subgroup) -> bool:
    conj = _conjugates(group, H.members, np.arange(group.order))
    return bool(_member_mask(group, H.members)[conj].all())


# ---------------------------------------------------------------------------
# Built-in groups
# ---------------------------------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidSpec(f"cyclic group order must be positive, got {n}")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    labels = tuple(str(i) for i in range(n))
    return validate_group(mul, element_labels=labels, name=f"Z{n}")


def _cycle_label(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        if len(cycle) > 1:
            parts.append("(" + "".join(str(p + 1) for p in cycle) + ")")
    return "".join(parts) if parts else "e"


def _matrix_group(mats: list[np.ndarray], labels: tuple[str, ...], name: str) -> FiniteGroup:
    """The group of the given distinct integer matrices, element i being ``mats[i]``."""
    index = {tuple(m.ravel().tolist()): i for i, m in enumerate(mats)}
    mul = np.array([[index[tuple((a @ b).ravel().tolist())] for b in mats] for a in mats],
                   dtype=np.int64)
    return validate_group(mul, element_labels=labels, name=name)


def symmetric_group(m: int) -> FiniteGroup:
    """S_m for small m; permutations in lexicographic order, identity first.

    Composition convention: (p * q)(x) = p(q(x)).
    """
    if m < 1 or m > 5:
        raise InvalidSpec(f"symmetric_group supports 1 <= m <= 5, got {m}")
    perms = list(itertools.permutations(range(m)))
    # the permutation matrix of p sends e_x to e_p(x), so matrix products compose
    mats = [np.eye(m, dtype=np.int64)[:, list(p)] for p in perms]
    return _matrix_group(mats, tuple(_cycle_label(p) for p in perms), f"S{m}")


def dihedral_group_4() -> FiniteGroup:
    """Symmetries of the square: r^i s^j with i in 0..3, j in 0..1, index i + 4j."""
    r = np.array([[0, -1], [1, 0]])
    s = np.array([[1, 0], [0, -1]])
    mats = [np.linalg.matrix_power(r, i) @ np.linalg.matrix_power(s, j)
            for j in range(2) for i in range(4)]
    return _matrix_group(mats, ("e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"), "D4")


def quaternion_group() -> FiniteGroup:
    """The quaternion units {1, i, j, k, -1, -i, -j, -k}, index axis + 4*(sign<0).

    Each unit acts by left multiplication on the coordinates (1, i, j, k).
    """
    i = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    j = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    one, k = np.eye(4, dtype=np.int64), i @ j
    mats = [one, i, j, k, -one, -i, -j, -k]
    return _matrix_group(mats, ("1", "i", "j", "k", "-1", "-i", "-j", "-k"), "Q8")


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (a, b) has index a * |G2| + b."""
    n1, n2 = g1.order, g2.order
    a = np.arange(n1 * n2)
    a1, b1 = np.divmod(a, n2)
    m1 = g1.mul[a1[:, None], a1[None, :]]
    m2 = g2.mul[b1[:, None], b1[None, :]]
    mul = m1 * n2 + m2
    labels = tuple(
        f"({g1.label(x)},{g2.label(y)})" for x in range(n1) for y in range(n2)
    )
    name = None
    if g1.name and g2.name:
        name = f"{g1.name}x{g2.name}"
    return validate_group(mul, element_labels=labels, name=name)


def builtin_group(name: str) -> FiniteGroup:
    """Construct a named group: Z4, S3, S4, D4, Q8, Zn:<n>, product:<a>x<b>."""
    s = name.strip()
    if s.startswith("product:"):
        body = s[len("product:"):]
        parts = body.split("x")
        if len(parts) != 2:
            raise InvalidSpec(f"product spec must name exactly two factors, got {name!r}")
        return direct_product(builtin_group(parts[0]), builtin_group(parts[1]))
    if s.startswith("Zn:"):
        try:
            n = int(s[len("Zn:"):])
        except ValueError:
            raise InvalidSpec(f"bad cyclic order in {name!r}") from None
        return cyclic_group(n)
    simple = {
        "Z4": lambda: cyclic_group(4),
        "S3": lambda: symmetric_group(3),
        "S4": lambda: symmetric_group(4),
        "D4": dihedral_group_4,
        "Q8": quaternion_group,
    }
    if s in simple:
        return simple[s]()
    raise InvalidSpec(f"unknown builtin group {name!r}")


def group_from_spec(obj: dict) -> FiniteGroup:
    """Build a group from its JSON spec: {"kind": "table" | "builtin", ...}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidSpec("group spec must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "table":
        if "mul" not in obj:
            raise InvalidSpec("table group spec requires a 'mul' field")
        return validate_group(obj["mul"], obj.get("identity"))
    if kind == "builtin":
        if not isinstance(obj.get("name"), str):
            raise InvalidSpec("builtin group spec requires a 'name' string")
        return builtin_group(obj["name"])
    raise InvalidSpec(f"unknown group spec kind {kind!r}")
