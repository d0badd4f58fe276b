"""Sampling and decomposing solutions of the recursion eta_k = xi_k eta_{k-1}.

Three constructions: the uniform solution (Haar initial state pushed
forward), the extremal solution (noise-measurable coset part phi_k times an
independent uniform subgroup factor U_k), and mixtures eta_k = eta0_k V for
an independent V. All of them rest on one identity: with the centred product
full_k = xi_k ... xi_{-depth} alpha_{-depth}, every solution over the window
is eta_k = full_k Z for one group element Z. An extremal path takes Z in H,
and a decomposition reads Z off k = 0, so any path factors back into
(phi_k, U_k, V) exactly. Almost-sure coset limits are replaced by a
finite-depth stabilization check that compares the full window depth against
half depth and refuses rather than guessing.

Ensembles are generated in fixed-size chunks, each chunk on its own RNG
stream keyed by (seed, purpose, chunk), so results are identical for any
thread count; CONV_LIMIT_THREADS caps the worker pool. Every array is
level-major, from the draw through the walk to the stored
:class:`Ensemble`: one contiguous row of paths per level, in the group's
narrow id dtype. Only the record text of :meth:`Ensemble.to_records` lays a
path out as a row.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CosetNotStabilized, InvalidSpec
from .groups import (
    FiniteGroup,
    Section,
    default_section,
    id_dtype,
    left_cosets,
    same_group,
)
from .limits import LimitResult, NoiseLaw, extend_centerings
from .measures import Measure, haar, inverse_cdf, sample

CHUNK_SIZE = 4096

# Levels of uniforms drawn at once: a chunk holds LEVEL_BLOCK * CHUNK_SIZE
# float64 draws at a time, whatever the depth.
LEVEL_BLOCK = 64

_PURPOSE_XI = 0
_PURPOSE_INIT = 1
_PURPOSE_U0 = 2
_PURPOSE_V = 3


def _stream(seed: int, purpose: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), purpose, chunk]))


def _max_workers() -> int:
    raw = os.environ.get("CONV_LIMIT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _chunks(n_paths: int) -> list[tuple[int, int, int]]:
    """(chunk_index, start, size) triples; chunking is independent of threads."""
    out = []
    start = 0
    idx = 0
    while start < n_paths:
        size = min(CHUNK_SIZE, n_paths - start)
        out.append((idx, start, size))
        start += size
        idx += 1
    return out


def _run_chunks(n_paths: int, worker: Callable[[int, int, int], None]) -> None:
    chunks = _chunks(n_paths)
    workers = _max_workers()
    if workers == 1 or len(chunks) == 1:
        for idx, start, size in chunks:
            worker(idx, start, size)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, idx, start, size) for idx, start, size in chunks]
        for f in futures:
            f.result()


@dataclass(frozen=True)
class Ensemble:
    """Vectorized bundle of paths sharing one noise law and construction.

    This is the library's one path type; a single path is an ensemble with
    ``n_paths=1``. Every array holds one row per level and one column per
    path, in C order, so path i is ``eta[:, i]``. The builders store element
    ids in the group's ``id_dtype``, the narrowest signed integer dtype that
    holds its order.
    """

    group: FiniteGroup
    kind: str
    seed: int
    depth: int
    k_min: int
    xi: np.ndarray   # (depth + 1, n_paths), row i holds k = -depth + i
    eta: np.ndarray  # (-k_min + 1, n_paths), row i holds k = k_min + i
    phi: Optional[np.ndarray] = None  # rows as eta
    U: Optional[np.ndarray] = None    # rows as eta
    V: Optional[np.ndarray] = None    # (n_paths,)

    @property
    def n_paths(self) -> int:
        return self.xi.shape[1]

    def xi_col(self, k: int) -> np.ndarray:
        return self.xi[k + self.depth]

    def eta_col(self, k: int) -> np.ndarray:
        return self.eta[k - self.k_min]

    def u_col(self, k: int) -> np.ndarray:
        assert self.U is not None
        return self.U[k - self.k_min]

    def to_records(self, start: int = 0, stop: Optional[int] = None) -> str:
        """The JSON text of records ``start`` to ``stop`` of the ``"paths"`` array.

        Joined in path order, the texts of consecutive ranges that cover every
        path are what ``json.dumps(body, indent=2, sort_keys=True)`` writes for
        ``body["paths"]`` at the top level of a body, byte for byte; the whole
        range (the default) is that text alone. So a range that starts at path
        0 opens the array, any other opens with the separator after the record
        before it, and the range that ends at the last path closes the array.
        Each record holds ``U``, ``V``, ``eta``, ``k_min``, ``path_id``,
        ``phi``, ``xi`` and ``xi_k_min``, in that order; ``U`` and ``phi`` are
        left out when absent and ``V`` is null when absent. The text is
        rendered from the path columns: each id goes through one table of
        digit strings, and each path through one ``str.join``.
        """
        n = self.n_paths
        stop = n if stop is None else stop
        if not 0 <= start <= stop <= n:
            raise ValueError(f"record range [{start}, {stop}) outside [0, {n}]")
        if n == 0:
            return "[]"
        if start == stop:
            return ""
        digits = np.array([str(g) for g in range(self.group.order)], dtype=object)

        def rows(a: np.ndarray) -> list[str]:
            return ["[\n        " + ",\n        ".join(r) + "\n      ]"
                    for r in digits[a[:, start:stop].T].tolist()]

        eta, xi = rows(self.eta), rows(self.xi)
        phi = rows(self.phi) if self.phi is not None else None
        U = rows(self.U) if self.U is not None else None
        V = (digits[self.V[start:stop]].tolist() if self.V is not None
             else ["null"] * (stop - start))
        k_min, xi_k_min = f'"k_min": {self.k_min}', f'"xi_k_min": {-self.depth}'
        out = ["[\n    " if start == 0 else ",\n    "]
        for i in range(stop - start):
            head = f'"U": {U[i]},\n      ' if U is not None else ""
            mid = f'"phi": {phi[i]},\n      ' if phi is not None else ""
            out.append(
                f'{{\n      {head}"V": {V[i]},\n      "eta": {eta[i]},\n      {k_min},\n'
                f'      "path_id": {start + i},\n      {mid}"xi": {xi[i]},\n      {xi_k_min}\n    }}'
            )
            out.append(",\n    ")
        # the last separator closes the array, or is the next range's to write
        out[-1] = "\n  ]" if stop == n else ""
        return "".join(out)


def recursion_break(group: FiniteGroup, xi: np.ndarray, eta: np.ndarray,
                    depth: int, k_min: int) -> Optional[tuple[int, int]]:
    """First (path, k) with eta_k != xi_k eta_{k-1}, or None when every path holds.

    ``xi`` holds k = -depth..0 and ``eta`` holds k = k_min..0, one row per
    level, as in :class:`Ensemble`; the caller picks the error to raise.
    """
    mul = group.mul
    for k in range(k_min + 1, 1):
        bad = eta[k - k_min] != mul[xi[k + depth], eta[k - 1 - k_min]]
        if bad.any():
            return int(np.flatnonzero(bad)[0]), k
    return None


def _flat_index(group: FiniteGroup, a: np.ndarray) -> np.ndarray:
    """``a * order`` in C order and in the narrowest dtype that holds order^2.

    These are a's row offsets in ``flat_mul``; order^2 overflows int16 once
    the order exceeds 181.
    """
    n = group.order
    return np.multiply(a, n, dtype=id_dtype(n * n), order="C")


def _product(group: FiniteGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a*b (a and b broadcast, the result laid out like a), in the id dtype."""
    return group.flat_mul.take(_flat_index(group, a) + b)


def _walk(group: FiniteGroup, rows: np.ndarray, prod: np.ndarray,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """prod <- xi prod for each level row of ``rows`` (which holds ``n * xi``), in order.

    Row i of ``out``, when given, receives the product after row i. Returns
    the last product. Each level is one add and one take from ``flat_mul``.
    """
    flat = group.flat_mul
    for i in range(rows.shape[0]):
        prod = flat.take(rows[i] + prod)
        if out is not None:
            out[i] = prod
    return prod


def sample_noise(noise: NoiseLaw, depth: int, size: int, seed: int, chunk: int) -> np.ndarray:
    """Independent draws xi_k ~ mu_k; row i of the (depth + 1, size) array holds k = -depth + i.

    The draws come shallow-first (k = 0 down to -depth) from the RNG stream
    keyed by (seed, noise purpose, chunk), so a chunk's noise does not depend
    on which construction consumes it. They are drawn ``LEVEL_BLOCK`` levels
    at a time: ``rng.random((levels, size))`` yields the same doubles as
    that many ``rng.random(size)`` calls. In each block, the levels of one
    prefix position or one tail phase go through :func:`inverse_cdf` in one
    call. The array is C-contiguous and in the group's ``id_dtype``.
    """
    rng = _stream(seed, _PURPOSE_XI, chunk)
    levels = np.empty((depth + 1, size), dtype=noise.group.id_dtype)
    by_depth = levels[::-1]  # row j holds k = -j, the j-th level drawn
    n_prefix, period = len(noise.prefix), len(noise.tail)
    for top in range(0, depth + 1, LEVEL_BLOCK):
        stop = min(top + LEVEL_BLOCK, depth + 1)
        u = rng.random((stop - top, size))
        for j in range(top, min(stop, n_prefix)):
            by_depth[j] = inverse_cdf(noise.prefix[j], u[j - top])
        first = max(top, n_prefix)
        for j in range(first, min(first + period, stop)):
            mu = noise.tail[(j - n_prefix) % period]
            by_depth[j:stop:period] = inverse_cdf(mu, u[j - top::period])
    return levels


def _require_sizes(depth: int, n_paths: int, k_min: int) -> None:
    if depth < 0 or n_paths < 0 or k_min > 0:
        raise InvalidSpec(f"need depth >= 0, n_paths >= 0 and k_min <= 0, "
                          f"got depth={depth}, n_paths={n_paths}, k_min={k_min}")


def uniform_ensemble(noise: NoiseLaw, depth: int, n_paths: int, seed: int) -> Ensemble:
    """Paths started from an independent Haar state one step below the window."""
    _require_sizes(depth, n_paths, 0)
    group = noise.group
    omega = haar(group)
    xi = np.empty((depth + 1, n_paths), dtype=group.id_dtype)
    eta = np.empty((depth + 1, n_paths), dtype=group.id_dtype)

    def worker(idx: int, start: int, size: int) -> None:
        paths = slice(start, start + size)
        block_xi = xi[:, paths] = sample_noise(noise, depth, size, seed, idx)
        state = sample(omega, _stream(seed, _PURPOSE_INIT, idx), size=size)
        _walk(group, _flat_index(group, block_xi), state, out=eta[:, paths])

    _run_chunks(n_paths, worker)
    return Ensemble(group=group, kind="uniform", seed=seed, depth=depth,
                    k_min=-depth, xi=xi, eta=eta)


def centered_window(
    group: FiniteGroup,
    xi: np.ndarray,
    depth: int,
    k_min: int,
    alpha_full: int,
    alpha_half: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Centered backward products over the window, at full and at half depth.

    ``xi`` holds k = -depth..0 as in :class:`Ensemble`. Row k - k_min of the two
    returned (window, paths) arrays holds xi_{k,-depth} alpha_full and
    xi_{k,-half} alpha_half for k in [k_min, 0], where half = depth // 2 must
    lie below the window. The walk runs on the level rows of ``n * xi``, built
    once in C order, and both results are C-contiguous and in the id dtype.
    """
    half = depth // 2
    if half < -k_min + 1:
        raise InvalidSpec(
            f"depth {depth} too shallow for window k_min={k_min}; "
            "the half-depth check needs depth/2 below the window"
        )
    rows = _flat_index(group, xi)
    mark = _walk(group, rows[1:depth - half], xi[0])  # xi_{-half-1,-depth}
    prod = _walk(group, rows[depth - half:depth + k_min], mark)  # xi_{k_min-1,-depth}
    window = np.empty((-k_min + 1, xi.shape[1]), dtype=group.id_dtype)
    _walk(group, rows[depth + k_min:], prod, out=window)  # row k - k_min: xi_{k,-depth}
    flat, n = group.flat_mul, group.order
    full = flat[alpha_full::n].take(window)  # right multiplication by alpha_full
    # xi_{k,-half} = xi_{k,-depth} * (xi_{-half-1,-depth})^{-1}
    at_half = flat[alpha_half::n].take(_product(group, window, group.inv[mark]))
    return full, at_half


def _centered_phi(
    noise: NoiseLaw,
    limitres: LimitResult,
    section: Section,
    depth: int,
    k_min: int,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The kernel xi -> (full, phi) of one window; its two centerings are fetched once.

    ``full[k - k_min]`` is full_k = xi_k ... xi_{-depth} alpha_{-depth}, a
    (window, paths) row of :func:`centered_window`, and ``phi`` maps it to
    the section's representative of full_k H. Each coset is checked against
    the half-depth product's: one that differs means the finite depth has
    not reached the almost-sure limit, and raises :class:`CosetNotStabilized`.
    """
    group, half = noise.group, depth // 2
    alphas = extend_centerings(noise, limitres, (-depth, -half))
    reps, coset_of = np.array(section.representative, dtype=group.id_dtype), section.space.coset_of

    def kernel(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        full, at_half = centered_window(group, xi, depth, k_min, alphas[-depth], alphas[-half])
        cos_full, cos_half = coset_of[full], coset_of[at_half]
        disagree = cos_full != cos_half
        if disagree.any():
            bad_paths = np.flatnonzero(disagree.any(axis=0))
            i = int(bad_paths[0])
            j = int(np.flatnonzero(disagree[:, i])[0])
            raise CosetNotStabilized(
                f"coset of the centered product at k={k_min + j} differs between "
                f"depth {depth} (coset {int(cos_full[j, i])}) and depth {half} "
                f"(coset {int(cos_half[j, i])}) on path {i} "
                f"({int(bad_paths.size)} of {xi.shape[1]} paths affected); increase the depth"
            )
        return full, reps[cos_full]

    return kernel


def extremal_ensemble(
    noise: NoiseLaw,
    limitres: LimitResult,
    depth: int,
    n_paths: int,
    seed: int,
    *,
    k_min: Optional[int] = None,
    u0: Optional[int] = None,
) -> Ensemble:
    """Extremal paths eta0_k = phi_k U_k with U_0 uniform on H (or pinned).

    Every path is full_k h for one h in H (see :func:`_centered_phi`):
    h = full_0^{-1} phi_0 U_0 lies in H because full_0 lies in phi_0 H, so
    U_k = phi_k^{-1} full_k h lies in H, U_0 is the drawn u0, and
    eta_k = xi_k eta_{k-1} holds because full_k = xi_k full_{k-1}.
    """
    k_min = limitres.k_min if k_min is None else k_min
    _require_sizes(depth, n_paths, k_min)
    if not same_group(noise.group, limitres.group):
        raise InvalidSpec("limit result computed for a different group")
    if depth < 2 * limitres.depth_used:
        raise InvalidSpec(f"depth {depth} is below 2 * depth_used = {2 * limitres.depth_used}")
    group = noise.group
    H = limitres.subgroup
    if u0 is not None and u0 not in H:
        raise InvalidSpec(f"u0={u0} is not a member of H")
    centered_phi = _centered_phi(noise, limitres, default_section(left_cosets(group, H)),
                                 depth, k_min)
    dtype = group.id_dtype
    members = np.array(H.members, dtype=dtype)
    mul, inv = group.mul, group.inv

    w = -k_min + 1
    xi = np.empty((depth + 1, n_paths), dtype=dtype)
    eta = np.empty((w, n_paths), dtype=dtype)
    phi = np.empty((w, n_paths), dtype=dtype)
    U = np.empty((w, n_paths), dtype=dtype)

    def worker(idx: int, start: int, size: int) -> None:
        paths = slice(start, start + size)
        block_xi = xi[:, paths] = sample_noise(noise, depth, size, seed, idx)
        if u0 is None:
            rng_u0 = _stream(seed, _PURPOSE_U0, idx)
            block_u0 = members[rng_u0.integers(0, members.size, size=size)]
        else:
            block_u0 = np.full(size, int(u0), dtype=dtype)
        full, bp = centered_phi(block_xi)
        h = mul[mul[inv[full[-1]], bp[-1]], block_u0]
        be = eta[:, paths] = _product(group, full, h)
        phi[:, paths] = bp
        U[:, paths] = _product(group, inv[bp], be)

    _run_chunks(n_paths, worker)
    return Ensemble(group=group, kind="extremal", seed=seed, depth=depth, k_min=k_min,
                    xi=xi, eta=eta, phi=phi, U=U, V=None)


def general_ensemble(extremal: Ensemble, v_law: Measure, seed: int) -> Ensemble:
    """Mixture paths eta_k = eta0_k V with V ~ v_law independent per path."""
    if extremal.kind != "extremal":
        raise InvalidSpec("general_ensemble needs an extremal ensemble")
    if not same_group(extremal.group, v_law.group):
        raise InvalidSpec("V law lives on a different group")
    group = extremal.group
    n_paths = extremal.n_paths
    V = np.empty(n_paths, dtype=group.id_dtype)

    def worker(idx: int, start: int, size: int) -> None:
        V[start:start + size] = sample(v_law, _stream(seed, _PURPOSE_V, idx), size=size)

    _run_chunks(n_paths, worker)
    return Ensemble(group=group, kind="mixture", seed=seed, depth=extremal.depth,
                    k_min=extremal.k_min, xi=extremal.xi, eta=_product(group, extremal.eta, V),
                    phi=extremal.phi, U=extremal.U, V=V)


def decompose_ensemble(
    ens: Ensemble,
    limitres: LimitResult,
    noise: NoiseLaw,
    section: Optional[Section] = None,
    k_min: Optional[int] = None,
) -> tuple[Ensemble, dict]:
    """Factor every path of an ensemble; returns the annotated ensemble and an audit.

    ``k_min`` restricts the factorization to a shallower report window; the
    default uses the ensemble's full window, which for uniform-solution
    ensembles is too deep for the half-depth stabilization check.

    A path that breaks eta_k = xi_k eta_{k-1} on the report window is refused
    with :class:`CosetNotStabilized`, naming the path and k. On the others
    the factors follow from the recursion, with no further check. Because
    full_k = xi_k full_{k-1} too, Z = full_k^{-1} eta_k is the same element
    at every k, read at k = 0. Write full_k = phi_k h_k and
    rep(Z^{-1} H) = Z^{-1} h' with h_k, h' in H. Then V = rep(Z^{-1} H)^{-1}
    gives eta_k V^{-1} = full_k Z Z^{-1} h' = phi_k h_k h', so
    U_k = phi_k^{-1} eta_k V^{-1} = h_k h' lies in H and phi_k U_k V = eta_k
    exactly. The remote-past coset eta_l^{-1} phi_l H = Z^{-1} H is the same
    at every level l, so V does not depend on which level it is read at.
    """
    group = ens.group
    H = limitres.subgroup
    if section is None:
        section = default_section(left_cosets(group, H))
    elif section.space.subgroup.members != H.members:
        raise InvalidSpec("section built for a different subgroup")
    if k_min is None:
        k_min = ens.k_min
    if not ens.k_min <= k_min <= 0:
        raise InvalidSpec(f"report window k_min={k_min} must lie in the ensemble window "
                          f"[{ens.k_min}, 0]")
    eta = ens.eta[k_min - ens.k_min:]
    broken = recursion_break(group, ens.xi, eta, ens.depth, k_min)
    if broken is not None:
        raise CosetNotStabilized(
            f"path {broken[0]} breaks eta_k = xi_k eta_(k-1) at k={broken[1]}; "
            "only solutions of the recursion factor"
        )
    full, phi = _centered_phi(noise, limitres, section, ens.depth, k_min)(ens.xi)
    mul, inv = group.mul, group.inv
    reps = np.array(section.representative, dtype=np.int64)
    Z = mul[inv[full[-1]], eta[-1]]
    V = inv[reps[section.space.coset_of[inv[Z]]]].astype(group.id_dtype)
    U = _product(group, _product(group, inv[phi], eta), inv[V])
    out = Ensemble(group=group, kind=ens.kind, seed=ens.seed, depth=ens.depth,
                   k_min=k_min, xi=ens.xi, eta=eta, phi=phi, U=U, V=V)
    audit = {
        "n_paths": ens.n_paths,
        "exact_reconstruction": ens.n_paths,
        "u_in_subgroup": True,
        "window": [k_min, 0],
        "depth": ens.depth,
    }
    return out, audit
