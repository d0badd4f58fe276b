"""Independent reference implementations that the tests compare the library against.

None of these is on the library's production path. They are written for
clarity over speed: exhaustive subset checks, generator closures and scalar
loops over one path at a time.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np

from convlimit.errors import CosetNotStabilized, GridMismatch, InvalidSpec, NoConvergenceAtDepth
from convlimit.groups import full_subgroup, generated_subgroup, left_cosets, trivial_subgroup
from convlimit.limits import (
    GAUGE_MAX_WEIGHT,
    GAUGE_MIN_SUPPORT,
    SUPPORT_TOL,
    _gauge_align,
    extend_centerings,
    shape_distance,
)
from convlimit.measures import all_right_translates, convolve, right_stabilizer, translate_right
from convlimit.solutions import _PURPOSE_XI, _stream, centered_window, recursion_break, sample_noise
from convlimit.stats import DepthRecord
from convlimit.torus import (
    DEFAULT_DEPTH,
    DEFAULT_FLOOR,
    ONE_MINUS_DECAY,
    ONE_MINUS_EXACT,
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
    alphas = extend_centerings(noise, limitres, (-depth, -half))
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
    alphas = extend_centerings(noise, limitres, [l for L in depths for l in (-L, -2 * L)])
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
    full, at_half = (a.T for a in centered_window(
        group, xi.T, depth, k_min, int(alphas[-depth]), int(alphas[-half])
    ))
    cos_full = space.coset_of[full]
    if not np.array_equal(cos_full, space.coset_of[at_half]):
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
    if recursion_break(group, xi.T, eta.T, depth, k_min) is not None:
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


def pi_mu_bounds_per_level(noise, p, depth=DEFAULT_DEPTH, floor=DEFAULT_FLOOR):
    """``torus.pi_mu_bounds`` with one scalar |char| evaluation per level of the window.

    The log partial product is accumulated one level at a time in a Python
    float, and each curve point is its ``math.exp``.
    """
    if depth < 1:
        raise InvalidSpec(f"depth must be >= 1, got {depth}")
    if p == 0:
        curve = (1.0,) * depth
        return PiBounds(p=0, lower=1.0, upper=1.0, decision="member", depth=depth,
                        curve=curve, log_lower=0.0, log_upper=0.0)

    eff_depth = max(depth, len(noise.prefix) + 1)

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
    upper = 0.0 if hit_zero else math.exp(log_upper)

    decision = "undetermined"
    log_lower = -math.inf

    if isinstance(noise.tail, PeriodicTail):
        fs = [min(abs(char_fn(m, p)), 1.0) for m in noise.tail.mus]
        if all(f >= 1.0 - ONE_MINUS_EXACT for f in fs):
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
        elif upper < floor:
            decision = "null"

    lower = math.exp(log_lower) if math.isfinite(log_lower) else 0.0
    return PiBounds(
        p=p, lower=lower, upper=upper, decision=decision,
        depth=eff_depth, curve=tuple(curve),
        log_lower=log_lower, log_upper=(-math.inf if hit_zero else log_upper),
    )
