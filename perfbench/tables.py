"""Reference multiplication tables for the benchmark's generators and checks.

The benchmark builds these itself, with numpy and without any axiom
checks, so that group construction stays out of set-up time and the output
checks do not lean on the library's own tables. Element indexing follows
the library's builtin groups (identity at index 0); ``test_smoke.py`` pins
that agreement on the small groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Table:
    mul: np.ndarray
    inv: np.ndarray

    @property
    def order(self) -> int:
        return int(self.mul.shape[0])


def cyclic(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def symmetric(m: int) -> np.ndarray:
    """Permutations in lexicographic order, (p * q)(x) = p(q(x))."""
    perms = list(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[x] for x in q)] for q in perms] for p in perms])


def dihedral4() -> np.ndarray:
    """r^i s^j at index i + 4j."""
    mul = np.empty((8, 8), dtype=np.int64)
    for i1, j1, i2, j2 in itertools.product(range(4), range(2), range(4), range(2)):
        i = i1 + (i2 if j1 == 0 else -i2)
        mul[i1 + 4 * j1, i2 + 4 * j2] = i % 4 + 4 * (j1 ^ j2)
    return mul


def quaternion() -> np.ndarray:
    """{1, i, j, k, -1, -i, -j, -k}: axis + 4 * (sign < 0)."""
    axis_product = {(1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
                    (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1)}
    mul = np.empty((8, 8), dtype=np.int64)
    for x, y in itertools.product(range(8), range(8)):
        ax, sx = x % 4, (1 if x < 4 else -1)
        ay, sy = y % 4, (1 if y < 4 else -1)
        if ax == 0 or ay == 0:
            az, sz = ax + ay, 1
        elif ax == ay:
            az, sz = 0, -1
        else:
            az, sz = axis_product[(ax, ay)]
        mul[x, y] = az + (0 if sx * sy * sz > 0 else 4)
    return mul


def _mul_of(name: str) -> np.ndarray:
    if name.startswith("product:"):
        a, b = name[len("product:"):].split("x")
        m1, m2 = _mul_of(a), _mul_of(b)
        n2 = m2.shape[0]
        i1, i2 = np.divmod(np.arange(m1.shape[0] * n2), n2)
        return m1[i1[:, None], i1[None, :]] * n2 + m2[i2[:, None], i2[None, :]]
    if name.startswith("Zn:"):
        return cyclic(int(name[len("Zn:"):]))
    small = {"Z4": lambda: cyclic(4), "S3": lambda: symmetric(3),
             "S4": lambda: symmetric(4), "D4": dihedral4, "Q8": quaternion}
    return small[name]()


def table(name: str) -> Table:
    """The table of a builtin group name such as ``"Zn:40"`` or ``"product:S4xZn:40"``."""
    mul = _mul_of(name)
    return Table(mul, np.argmax(mul == 0, axis=1))


def closure(t: Table, gens) -> list[int]:
    """Members of the subgroup generated by ``gens``, sorted."""
    members = np.zeros(t.order, dtype=bool)
    members[0] = True
    frontier = np.array([0])
    gens = np.asarray(sorted(set(int(g) for g in gens)), dtype=np.int64)
    while frontier.size:
        nxt = np.unique(t.mul[frontier[:, None], gens[None, :]])
        nxt = nxt[~members[nxt]]
        members[nxt] = True
        frontier = nxt
    return [int(g) for g in np.flatnonzero(members)]


def conjugate(t: Table, members, g: int) -> list[int]:
    """g^{-1} H g."""
    h = np.asarray(members, dtype=np.int64)
    return sorted(int(x) for x in t.mul[t.mul[t.inv[g], h], g])


def is_conjugate(t: Table, a, b) -> bool:
    if len(a) != len(b):
        return False
    target = sorted(int(x) for x in b)
    return any(conjugate(t, a, g) == target for g in range(t.order))

