"""Exact algebra for finite groups presented by multiplication tables.

Elements are dense indices ``0..n-1``. Built-in constructions (cyclic,
symmetric, dihedral, quaternion, direct products) put the identity at
index 0. Everything is immutable after construction.
"""

from __future__ import annotations

import itertools
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

# Associativity is checked on all n^3 triples up to this order, sampled above.
ASSOCIATIVITY_EXHAUSTIVE_LIMIT = 256
ASSOCIATIVITY_SAMPLE_FACTOR = 10


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

    def __repr__(self) -> str:
        tag = self.name or f"order-{self.order} group"
        return f"FiniteGroup({tag})"


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


def _check_associativity(mul: np.ndarray, n: int) -> None:
    if n <= ASSOCIATIVITY_EXHAUSTIVE_LIMIT:
        for a in range(n):
            left = mul[mul[a], :]   # left[b, c] = (a*b)*c
            right = mul[a][mul]     # right[b, c] = a*(b*c)
            if not np.array_equal(left, right):
                b, c = map(int, np.argwhere(left != right)[0])
                raise NotAssociative((a, b, c))
    else:
        rng = np.random.default_rng(0)
        triples = rng.integers(0, n, size=(ASSOCIATIVITY_SAMPLE_FACTOR * n * n, 3))
        a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
        bad = mul[mul[a, b], c] != mul[a, mul[b, c]]
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise NotAssociative((int(a[i]), int(b[i]), int(c[i])))


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
    mul = mul.astype(np.int64, copy=False)
    n = int(mul.shape[0])
    if mul.min() < 0 or mul.max() >= n:
        raise InvalidSpec(f"table entries must lie in [0, {n})")

    idx = np.arange(n)
    candidates = [
        e for e in range(n)
        if np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx)
    ]
    if not candidates:
        raise NoIdentity("no two-sided identity element in table")
    identity = candidates[0]
    if identity_hint is not None and int(identity_hint) != identity:
        raise NoIdentity(f"identity hint {identity_hint} disagrees with derived identity {identity}")

    inv = np.empty(n, dtype=np.int64)
    for g in range(n):
        hits = np.flatnonzero(mul[g] == identity)
        if hits.size == 0:
            raise NoInverse(g)
        inv[g] = hits[0]

    _check_associativity(mul, n)

    labels = tuple(str(s) for s in element_labels) if element_labels is not None else None
    if labels is not None and len(labels) != n:
        raise InvalidSpec(f"expected {n} element labels, got {len(labels)}")
    mul.setflags(write=False)
    inv.setflags(write=False)
    return FiniteGroup(order=n, mul=mul, inv=inv, identity=identity,
                       element_labels=labels, name=name)


def subgroup(group: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Validate a member set and return it as a :class:`Subgroup`.

    Raises :class:`NotASubgroup` naming the first axiom violation.
    """
    ms = sorted({int(g) for g in members})
    if not ms:
        raise NotASubgroup("empty member set")
    if ms[0] < 0 or ms[-1] >= group.order:
        raise NotASubgroup(f"member index out of range [0, {group.order})")
    mset = set(ms)
    if group.identity not in mset:
        raise NotASubgroup("member set does not contain the identity")
    for a in ms:
        if int(group.inv[a]) not in mset:
            raise NotASubgroup(f"member set not closed under inversion at {a}")
        for b in ms:
            p = int(group.mul[a, b])
            if p not in mset:
                raise NotASubgroup(f"member set not closed under product at ({a}, {b})")
    # Lagrange holds automatically for a closed set; keep as a sanity assert.
    assert group.order % len(ms) == 0
    return Subgroup(group=group, members=tuple(ms))


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group=group, members=(group.identity,))


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group=group, members=tuple(range(group.order)))


def generated_subgroup(group: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators (orbit closure)."""
    members = {group.identity}
    queue = [int(g) for g in set(generators)]
    members.update(queue)
    while queue:
        a = queue.pop()
        for b in list(members):
            for p in (int(group.mul[a, b]), int(group.mul[b, a])):
                if p not in members:
                    members.add(p)
                    queue.append(p)
    return Subgroup(group=group, members=tuple(sorted(members)))


def _require_subgroup_of(group: FiniteGroup, H: Subgroup) -> None:
    if not same_group(group, H.group):
        raise NotASubgroup("subgroup belongs to a different group")
    mset = set(H.members)
    if group.identity not in mset:
        raise NotASubgroup("member set does not contain the identity")
    for a in H.members:
        for b in H.members:
            if int(group.mul[a, b]) not in mset:
                raise NotASubgroup(f"member set not closed under product at ({a}, {b})")


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


def conjugate_subgroup(H: Subgroup, g: int) -> Subgroup:
    """The conjugate g^{-1} H g."""
    group = H.group
    ginv = int(group.inv[g])
    members = sorted(int(group.mul[group.mul[ginv, h], g]) for h in H.members)
    return Subgroup(group=group, members=tuple(members))


def are_conjugate(H1: Subgroup, H2: Subgroup) -> Optional[int]:
    """Smallest g with g^{-1} H1 g = H2, or None if not conjugate."""
    if not same_group(H1.group, H2.group):
        raise NotASubgroup("subgroups of different groups")
    if H1.order != H2.order:
        return None
    for g in range(H1.group.order):
        if conjugate_subgroup(H1, g).members == H2.members:
            return g
    return None


def normal_closure(group: FiniteGroup, H: Subgroup) -> Subgroup:
    """Smallest normal subgroup containing H.

    Generated by all conjugates of the members of H; conjugation permutes
    that generating set, so a single closure suffices.
    """
    _require_subgroup_of(group, H)
    gens: set[int] = set()
    for g in range(group.order):
        ginv = int(group.inv[g])
        for h in H.members:
            gens.add(int(group.mul[group.mul[ginv, h], g]))
    return generated_subgroup(group, gens)


def is_normal(group: FiniteGroup, H: Subgroup) -> bool:
    mset = set(H.members)
    for g in range(group.order):
        ginv = int(group.inv[g])
        for h in H.members:
            if int(group.mul[group.mul[ginv, h], g]) not in mset:
                return False
    return True


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


def symmetric_group(m: int) -> FiniteGroup:
    """S_m for small m; permutations in lexicographic order, identity first.

    Composition convention: (p * q)(x) = p(q(x)).
    """
    if m < 1 or m > 5:
        raise InvalidSpec(f"symmetric_group supports 1 <= m <= 5, got {m}")
    perms = list(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    mul = np.empty((n, n), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mul[i, j] = index[tuple(p[q[x]] for x in range(m))]
    labels = tuple(_cycle_label(p) for p in perms)
    return validate_group(mul, element_labels=labels, name=f"S{m}")


def dihedral_group_4() -> FiniteGroup:
    """Symmetries of the square: r^i s^j with i in 0..3, j in 0..1, index i + 4j."""
    n = 8

    def enc(i: int, j: int) -> int:
        return (i % 4) + 4 * (j % 2)

    mul = np.empty((n, n), dtype=np.int64)
    for i1 in range(4):
        for j1 in range(2):
            for i2 in range(4):
                for j2 in range(2):
                    i = i1 + (i2 if j1 == 0 else -i2)
                    mul[enc(i1, j1), enc(i2, j2)] = enc(i, j1 ^ j2)
    labels = ("e", "r", "r2", "r3", "s", "rs", "r2s", "r3s")
    return validate_group(mul, element_labels=labels, name="D4")


_QUAT_AXIS_PRODUCT = {
    (1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
    (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1),
}


def quaternion_group() -> FiniteGroup:
    """The quaternion units {1, i, j, k, -1, -i, -j, -k}, index axis + 4*(sign<0)."""
    n = 8

    def unpack(x: int) -> tuple[int, int]:
        return x % 4, (1 if x < 4 else -1)

    def pack(axis: int, sign: int) -> int:
        return axis + (0 if sign > 0 else 4)

    mul = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        ax, sx = unpack(x)
        for y in range(n):
            ay, sy = unpack(y)
            if ax == 0:
                az, sz = ay, 1
            elif ay == 0:
                az, sz = ax, 1
            elif ax == ay:
                az, sz = 0, -1
            else:
                az, sz = _QUAT_AXIS_PRODUCT[(ax, ay)]
            mul[x, y] = pack(az, sx * sy * sz)
    labels = ("1", "i", "j", "k", "-1", "-i", "-j", "-k")
    return validate_group(mul, element_labels=labels, name="Q8")


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
        if "name" not in obj:
            raise InvalidSpec("builtin group spec requires a 'name' field")
        return builtin_group(obj["name"])
    raise InvalidSpec(f"unknown group spec kind {kind!r}")
