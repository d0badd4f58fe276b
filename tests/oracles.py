"""Independent reference implementations that the tests compare the library against.

None of these is on the library's production path. They are written for
clarity over speed: exhaustive subset checks, generator closures and scalar
loops over one path at a time.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np

from convlimit.errors import (
    BadRange,
    CosetNotStabilized,
    GridMismatch,
    InsufficientSamples,
    InvalidSpec,
    NoConvergenceAtDepth,
    NotASubgroup,
    OutOfSupport,
)
from convlimit.groups import (
    Section,
    Subgroup,
    conjugate_subgroup,
    default_section,
    generated_subgroup,
    left_cosets,
    subgroup,
)
from convlimit.limits import (
    GAUGE_MAX_WEIGHT,
    GAUGE_MIN_SUPPORT,
    SUPPORT_TOL,
    _gauge_align,
    extend_centerings,
    shape_distance,
)
from convlimit.measures import (
    WEIGHT_SUM_TOL,
    Measure,
    all_right_translates,
    convolve,
    haar,
    haar_subgroup,
    right_stabilizer,
    sample,
    translate_right,
    tv_distance,
    tv_to_right_translates,
)
from convlimit.solutions import (
    _PURPOSE_INIT,
    _PURPOSE_U0,
    _PURPOSE_V,
    _PURPOSE_XI,
    CHUNK_SIZE,
    _product,
    _stream,
    centered_window,
    recursion_break,
    sample_noise,
    uniform_ensemble,
    window_cut,
)
from convlimit.stats import (
    HISO_TV_THRESHOLD,
    MARGINAL_TV_THRESHOLD,
    MIN_PATHS_FOR_BATTERY,
    DepthRecord,
    EnsembleReport,
    PerKChecks,
    chi_square_independence,
    chi_square_uniformity,
    empirical_law,
)
from convlimit.torus import (
    DEFAULT_DEPTH,
    DEFAULT_FLOOR,
    ONE_MINUS_DECAY,
    ONE_MINUS_EXACT,
    AtomsSpec,
    PeriodicTail,
    PiBounds,
    _log_abs_char,
    char_fn,
)


def associativity_witness(mul):
    """First triple (a, b, c) in lexicographic order with (a*b)*c != a*(b*c), or None.

    Checks all n^3 triples of the table, one first factor a at a time.
    """
    mul = np.asarray(mul)
    for a in range(len(mul)):
        left = mul[mul[a], :]   # left[b, c] = (a*b)*c
        right = mul[a][mul]     # right[b, c] = a*(b*c)
        if not np.array_equal(left, right):
            b, c = map(int, np.argwhere(left != right)[0])
            return a, b, c
    return None


def light_witness_by_frontiers(mul, identity):
    """The (x, g, y) that Light's test over a greedy generating set reports, or None.

    The reference form of the test on int64 gathers: the next generator g is
    the smallest element not yet reached from the identity, and the reached
    set grows by right multiplication by the generators, one frontier of
    newly reached elements at a time, until it stops growing.
    """
    mul = np.asarray(mul, dtype=np.int64)
    reached = np.zeros(len(mul), dtype=bool)
    reached[identity] = True
    generators = []
    while not reached.all():
        g = int(np.argmin(reached))
        bad = mul[mul[:, g], :] != mul[:, mul[g, :]]
        if bad.any():
            x, y = map(int, np.argwhere(bad)[0])
            return x, g, y
        generators.append(g)
        frontier = np.flatnonzero(reached)
        while frontier.size:
            products = mul[np.ix_(frontier, generators)].ravel()
            frontier = np.unique(products[~reached[products]])
            reached[frontier] = True
    return None


def cyclic_table(n):
    """The table (a + b) mod n of Z_n."""
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def direct_product_table(g1, g2):
    """The table of G1 x G2 with (a, b) at index a * |G2| + b, by 2-D gathers."""
    a1, b1 = np.divmod(np.arange(g1.order * g2.order), g2.order)
    return g1.mul[a1[:, None], a1[None, :]] * g2.order + g2.mul[b1[:, None], b1[None, :]]


def brute_force_subgroups(group):
    """Check every subset of the element set for the subgroup axioms."""
    n = group.order
    out = []
    for r in range(1, n + 1):
        for cand in itertools.combinations(range(n), r):
            s = set(cand)
            if group.identity not in s:
                continue
            if any(int(group.inv[a]) not in s for a in s):
                continue
            if any(int(group.mul[a, b]) not in s for a in s for b in s):
                continue
            out.append(tuple(sorted(s)))
    return sorted(out, key=lambda m: (len(m), m))


def trivial_subgroup(group):
    return Subgroup(group=group, members=(group.identity,))


def full_subgroup(group):
    return Subgroup(group=group, members=tuple(range(group.order)))


def enumerate_subgroups(group):
    """All subgroups of the group, sorted by (order, members).

    Closes every subset of at most two generators, then joins pairs of the
    subgroups found until a fixed point, which reaches subgroups that need
    more than two generators. Quadratic in the order; meant for groups of
    order up to a few dozen.
    """
    found = {}

    def add(h):
        if h.members in found:
            return False
        found[h.members] = h
        return True

    add(trivial_subgroup(group))
    add(full_subgroup(group))
    for g in range(group.order):
        add(generated_subgroup(group, (g,)))
    for g, h in itertools.combinations(range(group.order), 2):
        add(generated_subgroup(group, (g, h)))

    tried = set()
    changed = True
    while changed:
        changed = False
        current = list(found.values())
        for a, b in itertools.combinations(current, 2):
            key = (a.members, b.members)
            if key in tried:
                continue
            tried.add(key)
            if set(a.members) <= set(b.members) or set(b.members) <= set(a.members):
                continue
            joined = generated_subgroup(group, a.members + b.members)
            if add(joined):
                changed = True
    return sorted(found.values(), key=lambda h: (h.order, h.members))


def are_conjugate(H1, H2):
    """Smallest g with g^-1 H1 g = H2, or None: one conjugation per group element."""
    for g in range(H1.group.order):
        if conjugate_subgroup(H1, g).members == H2.members:
            return g
    return None


def is_normal(group, H):
    """Whether g^-1 H g = H for every group element g."""
    return all(conjugate_subgroup(H, g).members == H.members for g in range(group.order))


def section_from_representatives(space, reps):
    """A section of the coset space with the given representatives, one per coset in order."""
    if len(reps) != len(space.cosets):
        raise InvalidSpec(f"expected {len(space.cosets)} representatives, got {len(reps)}")
    for cid, r in enumerate(reps):
        if int(space.coset_of[int(r)]) != cid:
            raise InvalidSpec(f"representative {r} does not lie in coset {cid}")
    return Section(space=space, representative=tuple(int(r) for r in reps))


def h_part(g, space, section):
    """The h with s(gH) h = g, which lies in H."""
    group = space.group
    return int(group.mul[group.inv[section.of(g)], g])


def translate_left(g, mu):
    """delta_g * mu: the weight of x moves to g x."""
    grp = mu.group
    weights = np.zeros(grp.order)
    for x in range(grp.order):
        weights[grp.mul[g, x]] = mu.weights[x]
    return Measure(grp, weights)


def is_haar_idempotent(mu, tol=1e-9):
    """The subgroup H with mu = omega_H (up to tol) if mu is a Haar idempotent, else None."""
    grp = mu.group
    try:
        H = subgroup(grp, [g for g in range(grp.order) if mu.weights[g] > tol])
    except NotASubgroup:
        return None
    if tv_distance(mu, haar_subgroup(grp, H)) > tol or tv_distance(convolve(mu, mu), mu) > tol:
        return None
    return H


def recursion_holds(group, xi, eta, depth, k_min):
    """eta_k == xi_k eta_{k-1} on the window, for one path (one column) of an ensemble.

    ``xi`` holds k = -depth..0 and ``eta`` holds k = k_min..0.
    """
    return all(
        int(eta[k - k_min]) == int(group.mul[xi[k + depth], eta[k - 1 - k_min]])
        for k in range(k_min + 1, 1)
    )


def require_cyclic(group):
    n = group.order
    idx = np.arange(n)
    if not np.array_equal(group.mul, (idx[:, None] + idx[None, :]) % n):
        raise GridMismatch("torus decomposition needs the additive cyclic group Z_n")
    return n


def torus_decompose(group, xi, eta, p_mu, limitres, noise):
    """Factor one path on the cyclic grid by integer/fractional-part arithmetic.

    ``xi`` and ``eta`` are one path's column pair of an ensemble (k = -depth..0 and
    k = k_min..0). Uses the fractional-part section x -> (x mod n/p), which
    is exactly the minimal-index section of the cyclic subgroup of order p,
    and the same remote-past gauge as ``decompose_ensemble``, so both return
    identical factors path by path. Returns (phi, U, V) with phi and U over
    the window k = k_min..0.
    """
    n = require_cyclic(group)
    if p_mu < 0:
        raise GridMismatch(f"p must be nonnegative, got {p_mu}")
    h_order = n if p_mu == 0 else p_mu
    if n % h_order != 0:
        raise GridMismatch(f"grid size {n} is not divisible by p = {p_mu}")
    q = n // h_order  # coset modulus: the section is x -> x mod q

    depth = len(xi) - 1
    k_min = -(len(eta) - 1)
    half = depth // 2
    if half < -k_min + 1:
        raise InvalidSpec(
            f"depth {depth} too shallow for window k_min={k_min}; "
            "the half-depth check needs depth/2 below the window"
        )
    alphas = extend_centerings(limitres, (-depth, -half))
    eta_at = {k: int(eta[k - k_min]) for k in range(k_min, 1)}

    suffix = np.cumsum(np.asarray(xi, dtype=np.int64)) % n  # sum of xi_j, j in [-depth, -depth+i]
    a_full = int(alphas[-depth])
    a_half = int(alphas[-half])

    phi = {}
    for k in range(k_min, 1):
        s_full = int(suffix[k + depth])
        s_half = (s_full - int(suffix[-half - 1 + depth])) % n
        p_full = (s_full + a_full) % q
        p_half = (s_half + a_half) % q
        if p_full != p_half:
            raise CosetNotStabilized(
                f"fractional part at k={k} differs between depth {depth} "
                f"({p_full}) and depth {half} ({p_half}); increase the depth"
            )
        phi[k] = p_full

    w = -k_min + 1
    quarter = max(1, w // 4)
    v_candidates = {
        (-((phi[k] - eta_at[k]) % q)) % n for k in range(k_min, k_min + quarter)
    }
    if len(v_candidates) != 1:
        raise CosetNotStabilized(
            f"remote-past fractional part varies over the deepest quarter: "
            f"{sorted(v_candidates)}; increase the window depth"
        )
    V = v_candidates.pop()

    U = {k: ((eta_at[k] - V) % n) // q * q for k in range(k_min, 1)}
    for k in range(k_min, 1):
        if (phi[k] + U[k] + V) % n != eta_at[k]:
            raise CosetNotStabilized(f"grid reconstruction failed at k={k}")
    window = range(k_min, 1)
    return np.array([phi[k] for k in window]), np.array([U[k] for k in window]), V


def sample_noise_per_level(noise, depth, size, seed, chunk):
    """The noise array of ``sample_noise``, drawn one level at a time.

    Each level k = 0, -1, ..., -depth takes its own ``rng.random(size)`` from
    the chunk's noise stream and one binary search in the cumulative weights
    of mu_k, written into column k + depth of an int64 (size, depth + 1) array.
    """
    rng = _stream(seed, _PURPOSE_XI, chunk)
    xi = np.empty((size, depth + 1), dtype=np.int64)
    for k in range(0, -depth - 1, -1):
        cum = np.cumsum(noise.measure_at(k).weights)
        cum[-1] = max(cum[-1], 1.0)
        xi[:, k + depth] = np.searchsorted(cum, rng.random(size), side="right")
    return xi


def ensemble_records(ens):
    """The ensemble's paths as a list of JSON-ready dicts, built one path at a time."""
    out = []
    for i in range(ens.n_paths):
        rec = {
            "path_id": i,
            "k_min": ens.k_min,
            "xi_k_min": -ens.depth,
            "eta": [int(x) for x in ens.eta[:, i]],
            "xi": [int(x) for x in ens.xi[:, i]],
        }
        if ens.phi is not None:
            rec["phi"] = [int(x) for x in ens.phi[:, i]]
        if ens.U is not None:
            rec["U"] = [int(x) for x in ens.U[:, i]]
        rec["V"] = int(ens.V[i]) if ens.V is not None else None
        out.append(rec)
    return out


def partial_product(noise, k, l):
    """The backward product mu_k * mu_{k-1} * ... * mu_l."""
    if k > 0 or l > 0 or k < l:
        raise BadRange(f"need l <= k <= 0, got k={k}, l={l}")
    acc = noise.measure_at(k)
    for j in range(k - 1, l - 1, -1):
        acc = convolve(acc, noise.measure_at(j))
    return acc


def all_centerings(noise, result, depth):
    """Centering elements alpha_l for every l in [-depth, 0].

    The whole product chain is built from nu_0 down to depth, and every level
    is aligned by ``shape_distance`` to the result's lambda_0.
    """
    nu = noise.measure_at(0)
    out = {0: shape_distance(nu, result.lambda0)[1]}
    for l in range(-1, -depth - 1, -1):
        nu = convolve(nu, noise.measure_at(l))
        out[l] = shape_distance(nu, result.lambda0)[1]
    return out


def deepening_limit(noise, levels=(), *, eps_shape=1e-9, max_depth=20000, confirm_span=25,
                    gauge=GAUGE_MAX_WEIGHT):
    """Limit laws, H, case and centerings by deepening one convolution per level.

    The tail's own chain tau_l = mu_-p * ... * mu_l (p = len(prefix)) is
    deepened from level -p until its shape distance to the previous level
    stays below eps_shape for confirm_span levels in a row (the streak
    rule), then on to M = -max(2 L, L + 2 confirm_span, 8 + confirm_span)
    for the certified level L. The gauge aligns nu_M = mu_0 * ... * mu_M
    with anchor alpha_M; lambda_k = mu_k * ... * mu_M delta_alpha_M over the
    window [-8, 0]. H is the right stabilizer (at 1e-6) of lambda at the top
    tail level, tau_M delta_alpha_M, which a symmetric prefix cannot enlarge.
    ``alphas`` maps each of the given tail levels l to the smallest g
    aligning tau_l delta_g with that law. Returns a namespace.
    """
    p = len(noise.prefix)
    taus = [noise.measure_at(-p)]
    streak, depth = 0, p
    while streak < confirm_span:
        depth += 1
        if depth > max_depth:
            raise NoConvergenceAtDepth(max_depth, [], None, None)
        taus.append(convolve(taus[-1], noise.measure_at(-depth)))
        streak = streak + 1 if shape_distance(taus[-1], taus[-2])[0] < eps_shape else 0
    deepest = max(2 * depth, depth + 2 * confirm_span, 8 + confirm_span)
    levels = sorted(levels)
    while len(taus) < max(deepest, -min(levels, default=0)) - p + 1:
        taus.append(convolve(taus[-1], noise.measure_at(-p - len(taus))))
    sigma = {-deepest: noise.measure_at(-deepest)}
    for k in range(-deepest + 1, 1):
        sigma[k] = convolve(noise.measure_at(k), sigma[k - 1])
    _, anchor = _gauge_align(sigma[0], gauge)
    top = translate_right(taus[deepest - p], anchor)
    H = right_stabilizer(top, 1e-6)
    case = "A" if H.order == noise.group.order else "B" if H.order == 1 else "C"
    return SimpleNamespace(
        lambdas={k: translate_right(sigma[k], anchor) for k in range(-8, 1)},
        subgroup=H, case=case, depth_used=depth, deepest_depth=deepest,
        alphas={l: shape_distance(taus[-l - p], top)[1] for l in levels},
    )


def case_b_diagnostic(noise, limitres, depths, n_paths=1000, seed=0):
    """The depth-L against depth-2L disagreement records, one product loop per depth.

    Centerings come from the library's ``extend_centerings``: the element-level
    disagreement depends on which member of alpha_l H they pick. The depth-L
    product is accumulated from the truncated stream on its own instead of
    being divided out of the depth-2L one.
    """
    group = noise.group
    mul = group.mul
    space = left_cosets(group, limitres.subgroup)
    alphas = extend_centerings(limitres, [l for L in depths for l in (-L, -2 * L)])
    out = []
    for L in depths:
        xi = sample_noise(noise, 2 * L, n_paths, seed, chunk=L).T  # cols: k = -2L..0
        prod = xi[:, 0].copy()  # xi_{0,-2L} once fully accumulated
        for k in range(-2 * L + 1, 1):
            prod = mul[xi[:, k + 2 * L], prod]
        shallow = xi[:, L].copy()  # same stream truncated at depth L
        for k in range(-L + 1, 1):
            shallow = mul[xi[:, k + 2 * L], shallow]
        at_l = mul[shallow, int(alphas[-L])]
        at_2l = mul[prod, int(alphas[-2 * L])]
        out.append(DepthRecord(
            depth=L,
            element_disagreement=float((at_l != at_2l).mean()),
            coset_disagreement=float((space.coset_of[at_l] != space.coset_of[at_2l]).mean()),
        ))
    return out


def phi_cosets(group, space, alphas, xi, depth, k_min):
    """Coset ids of the full-depth centred window, required to match the half-depth ones."""
    half = depth // 2
    full = centered_window(group, xi.T, k_min, int(alphas[-depth]))
    at_half = centered_window(group, xi.T[depth - half:], k_min, int(alphas[-half]))
    cos_full = space.coset_of[full.T]
    if not np.array_equal(cos_full, space.coset_of[at_half.T]):
        raise CosetNotStabilized(f"coset differs between depth {depth} and depth {half}")
    return cos_full


def extremal_from_xi(group, space, section, alphas, xi, depth, k_min, u0):
    """(eta, phi, U) of the extremal construction, built backwards from U_0 = u0.

    U_k = phi_k^{-1} (xi_0 ... xi_{k+1})^{-1} phi_0 U_0, with the partial
    products accumulated one column at a time, then checked: every U_k must
    lie in H and every row must satisfy the recursion.
    """
    mul = group.mul
    inv = group.inv
    reps = np.array(section.representative, dtype=np.int64)
    phi = reps[phi_cosets(group, space, alphas, xi, depth, k_min)]

    w = -k_min + 1
    n_paths = xi.shape[0]
    q = np.full(n_paths, group.identity, dtype=np.int64)  # xi_{0,k+1}, empty at k=0
    qs = np.empty((n_paths, w), dtype=np.int64)
    qs[:, w - 1] = q
    for k in range(0, k_min, -1):
        q = mul[q, xi[:, k + depth]]
        qs[:, k - 1 - k_min] = q

    target = mul[phi[:, w - 1], u0]
    U = mul[inv[phi], mul[inv[qs], target[:, None]]]
    eta = mul[phi, U]

    id_coset = int(space.coset_of[group.identity])
    if not (space.coset_of[U] == id_coset).all():
        raise CosetNotStabilized("subgroup factor left H")
    if recursion_break(group, xi.T, eta.T) is not None:
        raise AssertionError("defining recursion violated")
    return eta, phi, U


def decompose_core(group, space, section, alphas, xi, depth, eta, k_min):
    """(phi, U, V) of paths by the remote-past scan, with exact reconstruction or an error.

    V comes from the coset eta_l^{-1} phi_l H, required constant over the
    deepest quarter of the window; U is read off eta V^{-1}, and phi U V must
    give eta back on every path with every U_k in H.
    """
    mul = group.mul
    inv = group.inv
    reps = np.array(section.representative, dtype=np.int64)
    phi = reps[phi_cosets(group, space, alphas, xi, depth, k_min)]

    quarter = max(1, (-k_min + 1) // 4)
    v_cosets = space.coset_of[mul[inv[eta[:, :quarter]], phi[:, :quarter]]]
    if not (v_cosets == v_cosets[:, :1]).all():
        raise CosetNotStabilized("remote-past coset varies over the deepest quarter")
    V = inv[reps[v_cosets[:, 0]]]

    x = mul[eta, inv[V][:, None]]
    U = mul[inv[reps[space.coset_of[x]]], x]

    if not np.array_equal(mul[phi, mul[U, V[:, None]]], eta):
        raise CosetNotStabilized("reconstruction failed")
    id_coset = int(space.coset_of[group.identity])
    if not (space.coset_of[U] == id_coset).all():
        raise CosetNotStabilized("recovered subgroup factor left H")
    return phi, U, V


def _chunk_sizes(n_paths):
    """(chunk index, size) of the library's chunks over n_paths, in path order."""
    return [(idx, min(CHUNK_SIZE, n_paths - start))
            for idx, start in enumerate(range(0, n_paths, CHUNK_SIZE))]


def _window_kernel(noise, limitres, k_min):
    """xi -> (full, phi) of one window: the centred products from the cut and their
    coset representatives, read through int64 ``reps[coset_of[full]]``."""
    group = noise.group
    space = left_cosets(group, limitres.subgroup)
    reps = np.array(default_section(space).representative, dtype=np.int64)
    cut = window_cut(noise, k_min)
    c = extend_centerings(limitres, (-cut,))[-cut]

    def kernel(xi):
        full = centered_window(group, xi[-(cut + 1):], k_min, c)
        return full, reps[space.coset_of[full]]

    return kernel


def extremal_by_fancy_index(noise, limitres, depth, n_paths, seed):
    """The arrays of ``extremal_ensemble``, from 2-D fancy indexes into the int64 ``mul``.

    Chunk by chunk on the library's streams: h = full_0^-1 phi_0 u0,
    eta_k = full_k h and U_k = phi_k^-1 eta_k, each product one ``mul[a, b]``.
    """
    group = noise.group
    mul, inv = group.mul, group.inv
    members = np.array(limitres.subgroup.members, dtype=np.int64)
    kernel = _window_kernel(noise, limitres, limitres.k_min)
    parts = []
    for idx, size in _chunk_sizes(n_paths):
        xi = sample_noise(noise, depth, size, seed, idx)
        u0 = members[_stream(seed, _PURPOSE_U0, idx).integers(0, members.size, size=size)]
        full, phi = kernel(xi)
        eta = mul[full, mul[mul[inv[full[-1]], phi[-1]], u0]]
        parts.append({"xi": xi, "eta": eta, "phi": phi, "U": mul[inv[phi], eta]})
    return {name: np.concatenate([p[name] for p in parts], axis=1) for name in parts[0]}


def mixture_by_fancy_index(group, extremal, v_law, seed):
    """The arrays of ``general_ensemble`` on an extremal ensemble's arrays: eta_k V by ``mul``."""
    n_paths = extremal["xi"].shape[1]
    V = np.concatenate([sample(v_law, _stream(seed, _PURPOSE_V, idx), size=size)
                        for idx, size in _chunk_sizes(n_paths)])
    return {**extremal, "eta": group.mul[extremal["eta"], V], "V": V}


def uniform_by_fancy_index(noise, depth, n_paths, seed):
    """The arrays of ``uniform_ensemble``: a Haar state walked up by ``mul[xi_k, state]``."""
    group = noise.group
    xis, etas = [], []
    for idx, size in _chunk_sizes(n_paths):
        xi = sample_noise(noise, depth, size, seed, idx)
        state = sample(haar(group), _stream(seed, _PURPOSE_INIT, idx), size=size)
        eta = np.empty(xi.shape, dtype=np.int64)
        for i, row in enumerate(xi):
            state = eta[i] = group.mul[row, state]
        xis.append(xi)
        etas.append(eta)
    return {"xi": np.concatenate(xis, axis=1), "eta": np.concatenate(etas, axis=1)}


def decompose_by_fancy_index(noise, limitres, xi, eta, k_min):
    """The arrays of ``decompose_ensemble`` over the window k_min..0, by fancy indexes.

    Z = full_0^-1 eta_0, V = rep(Z^-1 H)^-1 and U_k = phi_k^-1 eta_k V^-1.
    """
    group = noise.group
    mul, inv = group.mul, group.inv
    space = left_cosets(group, limitres.subgroup)
    reps = np.array(default_section(space).representative, dtype=np.int64)
    full, phi = _window_kernel(noise, limitres, k_min)(xi)
    window = eta[len(eta) - 1 + k_min:]
    Z = mul[inv[full[-1]], window[-1]]
    V = inv[reps[space.coset_of[inv[Z]]]]
    return {"xi": xi, "eta": window, "phi": phi, "U": mul[mul[inv[phi], window], inv[V]], "V": V}


def battery_per_call(noise, limitres, ensemble, significance=0.01):
    """The report of ``verify_theorems``, with one library call per test.

    Each marginal is one ``empirical_law`` call and each independence test
    one ``chi_square_independence`` call on its pairs stacked as (N, 2).
    phi and U must hold integer ids in [0, order).
    """
    if ensemble.n_paths < MIN_PATHS_FOR_BATTERY:
        raise InsufficientSamples(
            f"battery calibrated for >= {MIN_PATHS_FOR_BATTERY} paths, got {ensemble.n_paths}"
        )
    if ensemble.phi is None or ensemble.U is None:
        raise InsufficientSamples("battery needs an extremal or mixture ensemble")
    noise_js = [0, -1, -2]
    if ensemble.depth < -min(noise_js):
        raise InvalidSpec(f"battery needs xi_-2; the ensemble's xi stops at k={-ensemble.depth}")
    group = noise.group
    ks = list(range(ensemble.k_min, 1))
    n_tests = len(ks) * (1 + 1 + len(noise_js)) + 1
    threshold = significance / n_tests
    failures, per_k = [], []
    v_vals = (ensemble.V if ensemble.V is not None
              else np.full(ensemble.n_paths, group.identity, dtype=group.id_dtype))
    for name, ids in (("phi", ensemble.phi), ("U", ensemble.U)):
        if ids.dtype.kind not in "iu":
            raise InvalidSpec(f"samples must be integer element ids, got dtype {ids.dtype}")
        outside = ids[(ids < 0) | (ids >= group.order)]
        if outside.size:
            raise InvalidSpec(f"{name} holds {outside[0]}, which is not an element id of {group!r}")
    eta0 = _product(group, ensemble.phi, ensemble.U)
    for k in ks:
        lam = limitres.lambdas.get(k)
        tv_k = math.nan
        if lam is not None:
            tv_k = tv_distance(empirical_law(group, eta0[k - ensemble.k_min]), lam)
            if tv_k >= MARGINAL_TV_THRESHOLD:
                failures.append(f"marginal at k={k} is {tv_k:.3f} from the limit law")
        u_k = ensemble.u_col(k)
        out_of_support = False
        try:
            p_unif = chi_square_uniformity(u_k, limitres.subgroup).p_value
        except OutOfSupport:
            out_of_support, p_unif = True, 0.0
        if out_of_support or p_unif < threshold:
            failures.append(f"uniformity of U at k={k} fails (p={p_unif:.2e})")
        p_v = chi_square_independence(np.stack([u_k, v_vals], axis=1)).p_value
        if p_v < threshold:
            failures.append(f"independence of (U_{k}, V) fails (p={p_v:.2e})")
        p_noise = {}
        for j in noise_js:
            p_noise[j] = chi_square_independence(np.stack([u_k, ensemble.xi_col(j)], axis=1)).p_value
            if p_noise[j] < threshold:
                failures.append(f"independence of (U_{k}, xi_{j}) fails (p={p_noise[j]:.2e})")
        per_k.append(PerKChecks(k=k, tv_to_lambda=tv_k, p_uniformity=p_unif, p_independence_v=p_v,
                                p_independence_noise=p_noise,
                                uniformity_out_of_support=out_of_support))

    emp = empirical_law(group, eta0[-ensemble.k_min])
    tvs = tv_to_right_translates(emp, emp)
    detected = tuple(h for h in range(group.order) if tvs[h] < HISO_TV_THRESHOLD)
    expected = right_stabilizer(limitres.lambda0).members
    if detected != expected:
        failures.append(
            f"H-invariance discrimination found {list(detected)}, expected {list(expected)}"
        )

    uni = uniform_ensemble(noise, depth=max(8, -ensemble.k_min), n_paths=ensemble.n_paths,
                           seed=ensemble.seed + 1)
    tv_uni = tv_distance(empirical_law(group, uni.eta_col(0)), haar(group))
    p_uni = chi_square_independence(np.stack([uni.eta_col(0), uni.xi_col(0)], axis=1)).p_value
    if tv_uni >= MARGINAL_TV_THRESHOLD:
        failures.append(f"uniform-solution marginal is {tv_uni:.3f} from Haar")
    if p_uni < threshold:
        failures.append(f"uniform-solution independence fails (p={p_uni:.2e})")

    strong_det = None
    if limitres.case == "B":
        # one path at a time: the first path with its noise from the cut up sets eta0
        cut = window_cut(noise, ensemble.k_min)
        eta0_of, strong_det = {}, True
        for i in range(ensemble.n_paths):
            key, path = tuple(ensemble.xi[-(cut + 1):, i].tolist()), eta0[:, i].tolist()
            strong_det &= eta0_of.setdefault(key, path) == path
        if not strong_det:
            failures.append("strong-solution determinism check failed")

    return EnsembleReport(
        n_paths=ensemble.n_paths, significance=significance, bonferroni_tests=n_tests,
        per_k=tuple(per_k), hiso_tv={h: float(tvs[h]) for h in range(group.order)},
        hiso_detected=detected,
        case_checks={"detected_case": limitres.case, "uniform_marginal_tv": tv_uni,
                     "uniform_marginal_ok": tv_uni < MARGINAL_TV_THRESHOLD,
                     "uniform_independence_p": p_uni, "strong_determinism": strong_det},
        passed=not failures, failures=tuple(failures),
    )


def convolve_dense(mu, nu):
    """``measures.convolve`` summed over every a, zero weights included: row a of the
    n x n matrix ``nu.weights[mul[inv, :]]`` holds nu(a^-1 x), and one matrix-vector
    product with mu's weights sums the rows."""
    group = mu.group
    out = mu.weights @ nu.weights[group.mul[group.inv, :]]
    total = out.sum()
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        out = out / total
    return Measure(group, out)


def shape_distance_all_translates(mu, nu):
    """``limits.shape_distance`` with every translate summed: column g of the F-ordered
    matrix ``mu.weights[mul[:, inv]]`` holds mu delta_g, and each column is summed
    pairwise. The first minimum wins."""
    group = mu.group
    dists = 0.5 * np.abs(mu.weights[group.mul[:, group.inv]] - nu.weights[:, None]).sum(axis=0)
    g = int(np.argmin(dists))
    return float(dists[g]), g


def normal_closure_all_members(group, H):
    """``groups.normal_closure`` from the conjugates of every member of H by every element."""
    g = np.arange(group.order)[:, None]
    conj = group.mul[group.mul[group.inv[g], np.array(H.members)], g]
    return generated_subgroup(group, np.unique(conj))


def gauge_align_per_translate(nu, gauge):
    """(aligned law, g) of ``limits._gauge_align``, with one Python tuple key per translate g.

    The key is (primary, weight vector of nu delta_g, g) and the smallest wins.
    """
    translates = all_right_translates(nu)
    best_key = None
    best_g = 0
    for g in range(nu.group.order):
        w = translates[:, g]
        if gauge == GAUGE_MAX_WEIGHT:
            primary = int(np.argmax(w))
        elif gauge == GAUGE_MIN_SUPPORT:
            primary = 0 if w[0] > SUPPORT_TOL else 1
        else:
            raise InvalidSpec(f"unknown gauge {gauge!r}")
        key = (primary, tuple(w), g)
        if best_key is None or key < best_key:
            best_key = key
            best_g = g
    return translate_right(nu, best_g), best_g


def _products_per_level(noise, p, eff_depth):
    """The log partial product over the window, whether some factor is zero, and the whole
    curve: the log partial product is accumulated one level at a time in a Python float,
    each curve point is its ``math.exp``, and from the first zero factor on every point is 0.0.
    """
    log_upper = 0.0
    hit_zero = False
    curve = []
    for i in range(eff_depth):
        lf = _log_abs_char(noise.spec_at(-i), p)
        if lf == -math.inf:
            hit_zero = True
        else:
            log_upper += lf
        curve.append(0.0 if hit_zero else math.exp(log_upper))
    return log_upper, hit_zero, curve


def pi_curve_per_level(noise, p, depth=DEFAULT_DEPTH):
    """The partial products over the first 1, 2, ... levels of the whole window, uncut."""
    if depth < 1:
        raise InvalidSpec(f"depth must be >= 1, got {depth}")
    eff_depth = max(depth, len(noise.prefix) + 1)
    return [1.0] * eff_depth if p == 0 else _products_per_level(noise, p, eff_depth)[2]


def pi_mu_bounds_per_level(noise, p, depth=DEFAULT_DEPTH):
    """``torus.pi_mu_bounds`` with one scalar |char| evaluation per level of the window.

    The whole curve is cut by a linear scan: it ends at the first level from
    which its value never changes, or, for a frequency not decided 'member',
    at its first level below the floor, whichever comes first.
    """
    if depth < 1:
        raise InvalidSpec(f"depth must be >= 1, got {depth}")
    eff_depth = max(depth, len(noise.prefix) + 1)
    if p == 0:
        return PiBounds(p=0, lower=1.0, upper=1.0, decision="member", depth=eff_depth,
                        curve=(1.0,), log_lower=0.0, log_upper=0.0)

    log_upper, hit_zero, curve = _products_per_level(noise, p, eff_depth)
    upper = 0.0 if hit_zero else math.exp(log_upper)

    decision = "undetermined"
    log_lower = -math.inf

    if isinstance(noise.tail, PeriodicTail):
        atoms = [m for m in noise.tail.mus if isinstance(m, AtomsSpec)]
        fs = [min(abs(char_fn(m, p)), 1.0) for m in atoms]
        if len(atoms) < len(noise.tail.mus):
            # a wrapped Gaussian or a uniform interval repeats with |char| < 1
            decision = "null"
        elif all(f >= 1.0 - ONE_MINUS_EXACT for f in fs):
            log_lower = -math.inf if hit_zero else log_upper
        elif any(f <= 1.0 - ONE_MINUS_DECAY for f in fs):
            decision = "null"
    else:
        sched = noise.tail
        if sched.ratio >= 1.0:
            decision = "null"
        else:
            r2 = sched.ratio ** 2
            rem = sched.coeff**2 * r2**eff_depth / (1.0 - r2)
            penalty = 2.0 * math.pi**2 * p**2 * rem
            log_lower = -math.inf if hit_zero else (log_upper - penalty)

    if decision == "undetermined":
        if math.isfinite(log_lower):
            decision = "member"
        elif upper < DEFAULT_FLOOR:
            decision = "null"

    keep = len(curve)
    while keep > 1 and curve[keep - 2] == curve[-1]:
        keep -= 1
    if decision != "member":
        keep = min(keep, next((i + 1 for i, v in enumerate(curve) if v < DEFAULT_FLOOR), keep))

    lower = math.exp(log_lower) if math.isfinite(log_lower) else 0.0
    return PiBounds(
        p=p, lower=lower, upper=upper, decision=decision,
        depth=eff_depth, curve=tuple(curve[:keep]),
        log_lower=log_lower, log_upper=(-math.inf if hit_zero else log_upper),
    )
