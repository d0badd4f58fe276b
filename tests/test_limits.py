import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import partial_product

from convlimit.errors import BadRange, InvalidSpec, NoConvergenceAtDepth
from convlimit.groups import (
    builtin_group,
    conjugate_subgroup,
    cyclic_group,
    generated_subgroup,
    left_cosets,
    quaternion_group,
    subgroup,
    symmetric_group,
)
from convlimit.limits import (
    GAUGE_MAX_WEIGHT,
    GAUGE_MIN_SUPPORT,
    ConjugacyCheck,
    LimitResult,
    NoiseLaw,
    compute_limit,
    constant_noise,
    extend_centerings,
    noise_from_spec,
    shape_distance,
    strong_subgroup,
    _gauge_align,
    verify_conjugacy_uniqueness,
)
from convlimit.measures import (
    Measure,
    convolve,
    delta,
    haar,
    haar_subgroup,
    right_stabilizer,
    translate_right,
    tv_distance,
)

Z4 = cyclic_group(4)
S3 = symmetric_group(3)
Q8 = quaternion_group()


def z4_noise_case_a():
    return constant_noise(haar(Z4))


def z4_noise_case_b():
    return constant_noise(delta(Z4, 1))


def z4_noise_case_c():
    return constant_noise(Measure(Z4, [0.5, 0.0, 0.5, 0.0]))


def s3_noise_case_c():
    lab = {name: i for i, name in enumerate(S3.element_labels)}
    w = np.zeros(6)
    w[0] = 0.5
    w[lab["(12)"]] = 0.5
    return constant_noise(Measure(S3, w))


CORPUS = [z4_noise_case_a, z4_noise_case_b, z4_noise_case_c, s3_noise_case_c]


class TestNoiseLaw:
    def test_index_mapping(self):
        p0, p1 = delta(Z4, 0), delta(Z4, 1)
        t0, t1, t2 = delta(Z4, 2), delta(Z4, 3), haar(Z4)
        noise = NoiseLaw(Z4, prefix=(p0, p1), tail=(t0, t1, t2))
        assert noise.measure_at(0) is p0
        assert noise.measure_at(-1) is p1
        # tail position k maps to tail[(-k - m) % period] with m = 2
        assert noise.measure_at(-2) is t0
        assert noise.measure_at(-3) is t1
        assert noise.measure_at(-4) is t2
        assert noise.measure_at(-5) is t0

    def test_positive_index_rejected(self):
        with pytest.raises(BadRange):
            z4_noise_case_a().measure_at(1)
        with pytest.raises(BadRange):
            next(z4_noise_case_a().law_runs(-1, 3))

    def test_empty_tail_rejected(self):
        with pytest.raises(InvalidSpec):
            NoiseLaw(Z4, prefix=(), tail=())

    def test_wrong_group_rejected(self):
        with pytest.raises(InvalidSpec):
            NoiseLaw(Z4, prefix=(), tail=(haar(S3),))

    def test_from_spec(self):
        noise = noise_from_spec(
            {
                "group": {"kind": "builtin", "name": "Z4"},
                "prefix": [{"kind": "delta", "at": 2}],
                "tail": {"kind": "constant", "mu": {"kind": "delta", "at": 1}},
            }
        )
        assert noise.group.order == 4
        assert np.array_equal(noise.measure_at(0).weights, [0, 0, 1, 0])
        assert np.array_equal(noise.measure_at(-5).weights, [0, 1, 0, 0])

    def test_from_spec_periodic(self):
        noise = noise_from_spec(
            {
                "group": {"kind": "builtin", "name": "Z4"},
                "tail": {
                    "kind": "periodic",
                    "mus": [{"kind": "delta", "at": 1}, {"kind": "delta", "at": 2}],
                },
            }
        )
        assert len(noise.tail) == 2
        assert np.array_equal(noise.measure_at(-1).weights, [0, 0, 1, 0])

    def test_bad_specs(self):
        with pytest.raises(InvalidSpec):
            noise_from_spec({"group": {"kind": "builtin", "name": "Z4"}})
        with pytest.raises(InvalidSpec):
            noise_from_spec(
                {"group": {"kind": "builtin", "name": "Z4"}, "tail": {"kind": "weird"}}
            )


class TestPartialProduct:
    def test_single_factor(self):
        noise = z4_noise_case_c()
        got = partial_product(noise, -3, -3)
        assert np.array_equal(got.weights, noise.measure_at(-3).weights)

    def test_point_mass_chain(self):
        # four delta_1 factors on Z4 compose to delta_0
        got = partial_product(z4_noise_case_b(), 0, -3)
        assert np.array_equal(got.weights, [1, 0, 0, 0])

    def test_haar_absorbing(self):
        got = partial_product(z4_noise_case_a(), 0, -7)
        assert tv_distance(got, haar(Z4)) < 1e-12

    def test_bad_range(self):
        noise = z4_noise_case_a()
        with pytest.raises(BadRange):
            partial_product(noise, -3, 0)
        with pytest.raises(BadRange):
            partial_product(noise, 1, 0)

    def test_splitting_identity(self):
        rng = np.random.default_rng(0)
        w1 = rng.random(4) + 0.01
        w2 = rng.random(4) + 0.01
        noise = NoiseLaw(
            Z4,
            prefix=(Measure(Z4, w1 / w1.sum()),),
            tail=(Measure(Z4, w2 / w2.sum()),),
        )
        for k, j, l in [(0, -2, -5), (0, -1, -3), (-1, -2, -6)]:
            whole = partial_product(noise, k, l)
            split = convolve(partial_product(noise, k, j + 1), partial_product(noise, j, l))
            assert tv_distance(whole, split) < 1e-12


class TestShapeDistance:
    def test_translate_of_self(self):
        mu = Measure(Z4, [0.25, 0.5, 0.25, 0.0])
        d, g = shape_distance(mu, translate_right(mu, 3))
        assert d == pytest.approx(0.0, abs=1e-15)
        assert g == 3

    def test_point_masses(self):
        d, g = shape_distance(delta(Z4, 1), delta(Z4, 3))
        assert d == 0.0
        assert g == 2  # a^{-1} b = -1 + 3

    def test_half_supports(self):
        d, g = shape_distance(Measure(Z4, [0.5, 0.5, 0, 0]), Measure(Z4, [0, 0, 0.5, 0.5]))
        assert d == 0.0
        assert g == 2

    def test_smallest_witness_under_stabilizer(self):
        # omega_H is fixed by both 0 and 2; the witness must be the smaller
        mu = Measure(Z4, [0.5, 0.0, 0.5, 0.0])
        d, g = shape_distance(mu, mu)
        assert d == 0.0 and g == 0


class TestComputeLimit:
    def test_case_a_haar_tail(self):
        res = compute_limit(z4_noise_case_a())
        assert res.case == "A"
        assert res.subgroup.members == (0, 1, 2, 3)
        for k, lam in res.lambdas.items():
            assert tv_distance(lam, haar(Z4)) < 1e-12
        assert res.residuals["conv_eq"] <= 1e-9
        assert res.residuals["haar_check"] <= 1e-9
        assert res.residuals["shape_stabilization"] <= 1e-9

    def test_case_b_point_mass_chain(self):
        res = compute_limit(z4_noise_case_b())
        assert res.case == "B"
        assert res.subgroup.members == (0,)
        # exact point-mass algebra: the gauge puts lambda_0 at the identity
        # and the convolution equation forces lambda_k = delta_{k mod 4}
        for k in range(res.k_min, 1):
            expected = delta(Z4, k % 4)
            assert tv_distance(res.lambdas[k], expected) < 1e-12
        assert res.residuals["conv_eq"] <= 1e-9
        assert res.residuals["haar_check"] <= 1e-9

    def test_case_c_idempotent_tail(self):
        res = compute_limit(z4_noise_case_c())
        assert res.case == "C"
        assert res.subgroup.members == (0, 2)
        for lam in res.lambdas.values():
            assert tv_distance(lam, Measure(Z4, [0.5, 0, 0.5, 0])) < 1e-12
        assert res.residuals["conv_eq"] <= 1e-9
        assert res.residuals["haar_check"] <= 1e-9

    def test_s3_idempotent_tail(self):
        res = compute_limit(s3_noise_case_c())
        assert res.case == "C"
        lab = {name: i for i, name in enumerate(S3.element_labels)}
        assert res.subgroup.members == (0, lab["(12)"])

    def test_prefix_shifts_window_laws(self):
        noise = NoiseLaw(
            Z4, prefix=(delta(Z4, 2),), tail=(delta(Z4, 1),)
        )
        res = compute_limit(noise)
        assert res.case == "B"
        assert tv_distance(res.lambdas[0], delta(Z4, 0)) < 1e-12
        assert tv_distance(res.lambdas[-1], delta(Z4, 2)) < 1e-12

    def test_periodic_point_mass_tail(self):
        noise = NoiseLaw(
            Z4,
            prefix=(),
            tail=(delta(Z4, 1), delta(Z4, 2)),
        )
        res = compute_limit(noise)
        assert res.case == "B"
        assert res.residuals["conv_eq"] <= 1e-12

    def test_slow_geometric_convergence(self):
        noise = constant_noise(Measure(Z4, [0.7, 0.3, 0.0, 0.0]))
        res = compute_limit(noise)
        assert res.case == "A"
        assert tv_distance(res.lambda0, haar(Z4)) < 1e-8
        assert res.depth_used > 25

    def test_no_convergence_at_tiny_depth(self):
        # Haar noise certifies at depth 10: the window, then two tail periods;
        # the limit is exact at any budget, and reading its certificate raises
        res = compute_limit(z4_noise_case_a(), max_depth=9)
        with pytest.raises(NoConvergenceAtDepth) as exc:
            res.depth_used
        assert exc.value.max_depth == 9
        assert (exc.value.rate, exc.value.projected_depth) == (0.0, 10)
        assert exc.value.history == compute_limit(z4_noise_case_a()).shape_history

    def test_no_convergence_projects_the_depth_it_needs(self):
        # the lazy walk on Z30 certifies at depth_used 3700; the ladder does
        # not depend on max_depth, so exit 3 states that depth exactly
        z30 = cyclic_group(30)
        noise = constant_noise(Measure(z30, [0.5, 0.5] + [0.0] * 28))
        needed = compute_limit(noise).depth_used
        with pytest.raises(NoConvergenceAtDepth) as exc:
            compute_limit(noise, max_depth=1024).depth_used
        assert 0 < exc.value.rate < 1
        assert exc.value.projected_depth == needed
        assert str(exc.value).startswith("shape did not stabilize within depth 1024; ")
        assert f"projected depth {exc.value.projected_depth}" in str(exc.value)

    def test_no_projection_without_a_decreasing_tail(self):
        # a squaring that fails to shrink the distance before it falls below
        # eps_shape: the ladder stalled at the float floor, at any max_depth
        noise = constant_noise(Measure(Z4, [0.7, 0.3, 0.0, 0.0]))
        with pytest.raises(NoConvergenceAtDepth) as exc:
            compute_limit(noise, eps_shape=1e-300, max_depth=10**9).depth_used
        assert exc.value.rate is None and exc.value.projected_depth is None
        assert "no contraction, no projected depth" in str(exc.value)
        (_, before), (_, after) = exc.value.history[-2:]
        assert 0 < before <= after < 1e-12

    def test_h_stabilizes_every_window_law(self):
        for make in CORPUS:
            res = compute_limit(make())
            for lam in res.lambdas.values():
                stab = right_stabilizer(lam, 1e-6)
                assert set(res.subgroup.members) <= set(stab.members)
                assert stab.members == res.subgroup.members

    def test_convolution_equation_across_window(self):
        for make in CORPUS:
            noise = make()
            res = compute_limit(noise)
            for k in range(res.k_min + 1, 1):
                resid = tv_distance(
                    res.lambdas[k], convolve(noise.measure_at(k), res.lambdas[k - 1])
                )
                assert resid <= 1e-8

    def test_alphas_align_deep_products(self):
        for make in CORPUS:
            noise = make()
            res = compute_limit(noise)
            levels = (-res.depth_used, -res.depth_used - 1)
            alphas = extend_centerings(res, levels)
            for l in levels:
                prod = partial_product(noise, 0, l)
                aligned = translate_right(prod, alphas[l])
                assert tv_distance(aligned, res.lambda0) <= 10 * 1e-9

    def test_one_step_fixed_point_for_idempotent_tail(self):
        from oracles import is_haar_idempotent

        noise = z4_noise_case_c()
        h_tail = is_haar_idempotent(noise.tail[0])
        res = compute_limit(noise)
        assert h_tail is not None
        assert set(h_tail.members) <= set(res.subgroup.members)
        assert res.subgroup.members == h_tail.members

    def test_one_shape_distance_per_ladder_rung(self, monkeypatch):
        from convlimit import limits

        calls = []
        monkeypatch.setattr(limits, "shape_distance",
                            lambda *a: calls.append(1) or shape_distance(*a))
        for make in [*CORPUS, lazy_walk_z12]:
            calls.clear()
            history = compute_limit(make()).shape_history
            assert len(calls) == len(history)

    def test_convolutions_grow_with_log_depth(self, monkeypatch):
        # the lazy walk on Z100 certifies at depth 41081 with 2^16 as its top rung
        from convlimit import limits

        noise = constant_noise(Measure(cyclic_group(100), [0.5, 0.5] + [0.0] * 98))
        calls = []
        monkeypatch.setattr(limits, "convolve", lambda *a: calls.append(1) or convolve(*a))
        res = compute_limit(noise, max_depth=10**6)
        m = (res.depth_used - 8) // len(noise.tail) - 1
        bound = (2 * (len(noise.prefix) + len(noise.tail) - res.k_min)
                 + 3 * math.ceil(math.log2(m)) + 8)
        assert (res.depth_used, bound) == (41081, 74)
        assert len(calls) <= bound

    def test_determinism(self):
        a = compute_limit(z4_noise_case_c())
        b = compute_limit(z4_noise_case_c())
        assert a.alphas == b.alphas
        for k in a.lambdas:
            assert np.array_equal(a.lambdas[k].weights, b.lambdas[k].weights)


class TestClassifyAndStrongSubgroup:
    def test_classify_matches_case(self):
        for make, case in zip(CORPUS, ["A", "B", "C", "C"]):
            res = compute_limit(make())
            assert res.case == case

    def test_strong_subgroup_abelian(self):
        res = compute_limit(z4_noise_case_c())
        assert strong_subgroup(Z4, res.subgroup) == res.subgroup

    def test_strong_subgroup_s3(self):
        res = compute_limit(s3_noise_case_c())
        assert strong_subgroup(S3, res.subgroup).order == 6

    def test_strong_subgroup_trivial(self):
        res = compute_limit(z4_noise_case_b())
        assert strong_subgroup(Z4, res.subgroup).order == 1


def test_symmetric_prefix_does_not_hide_the_tail():
    # eta_k = k + 1 for k <= -1 and eta_0 = xi_0 is a function of the noise that
    # solves the recursion, and so is every constant shift of it: case B.
    noise = NoiseLaw(Z4, prefix=(haar(Z4),), tail=(delta(Z4, 1),))
    res = compute_limit(noise)
    assert res.case == "B"
    assert res.subgroup.order == 1


def test_periodic_prefix_does_not_enlarge_h():
    # zn130: the ramp prefix repeats with period 5, so lambda_0 is invariant
    # under the 26 multiples of 5; the tail, uniform on a coset of the multiples
    # of 10, fixes only those 13
    from test_golden_records import SPECS

    res = compute_limit(noise_from_spec(SPECS["zn130"]))
    assert (res.case, res.subgroup.members) == ("C", tuple(range(0, 130, 10)))
    assert right_stabilizer(res.lambda0, 1e-6).order == 26


class TestConjugacyUniqueness:
    @pytest.mark.parametrize("make", CORPUS)
    def test_corpus(self, make):
        noise = make()
        res1 = compute_limit(noise)
        check = verify_conjugacy_uniqueness(noise, res1)
        assert check.ok
        # witness validity by the exact identities
        res2 = compute_limit(noise, gauge="min-support")
        moved = translate_right(res1.lambda0, check.witness)
        assert tv_distance(moved, res2.lambda0) <= 10 * 1e-9
        from convlimit.groups import conjugate_subgroup

        assert conjugate_subgroup(res1.subgroup, check.witness) == res2.subgroup


def _fuzz_corpus():
    """A wider corpus: random full-support tails, idempotent subgroup tails,
    coset-supported tails with deterministic quotient motion, prefixes and
    periodic tails, across abelian and non-abelian groups."""
    from convlimit.groups import cyclic_group, dihedral_group_4, quaternion_group
    from oracles import enumerate_subgroups
    from convlimit.measures import haar_subgroup

    rng = np.random.default_rng(2024)
    groups = [cyclic_group(6), S3, dihedral_group_4(), quaternion_group()]
    corpus = []
    for g in groups:
        w = rng.random(g.order) + 0.05
        full = Measure(g, w / w.sum())
        corpus.append(constant_noise(full))
        for h in enumerate_subgroups(g):
            corpus.append(constant_noise(haar_subgroup(g, h)))
        corpus.append(
            NoiseLaw(g, prefix=(delta(g, 1), full), tail=(full,))
        )
        w2 = rng.random(g.order) + 0.05
        corpus.append(
            NoiseLaw(
                g,
                prefix=(),
                tail=(full, Measure(g, w2 / w2.sum())),
            )
        )
    # coset-supported tail: uniform on the reflections, the nontrivial coset
    # of the rotation subgroup (indices 0..3) in D4
    d4 = groups[2]
    refl = [g for g in range(8) if g >= 4]
    wr = np.zeros(8)
    wr[refl] = 0.25
    corpus.append(constant_noise(Measure(d4, wr)))
    return corpus


class TestFuzzCorpus:
    @pytest.mark.parametrize("idx", range(len(_fuzz_corpus())))
    def test_invariant_battery(self, idx):
        noise = _fuzz_corpus()[idx]
        res = compute_limit(noise)
        # the case label matches the subgroup extremes exactly
        assert (res.case == "A") == (res.subgroup.order == noise.group.order)
        assert (res.case == "B") == (res.subgroup.order == 1)
        # H stabilizes every reported law
        for lam in res.lambdas.values():
            assert right_stabilizer(lam, 1e-6).members == res.subgroup.members
        # the convolution equation holds across the window
        assert res.residuals["conv_eq"] <= 1e-8
        assert res.residuals["haar_check"] <= 1e-6
        # the two-gauge run agrees up to conjugacy
        check = verify_conjugacy_uniqueness(noise, res)
        assert check.ok, (idx, check)

    def test_randomness_bounded_exactly_in_case_b(self):
        # a tail of point masses is what makes H trivial, so only case B
        # draws no uniforms below its prefix
        cases = [(noise.random_levels() is not None, compute_limit(noise).case)
                 for noise in _fuzz_corpus()]
        assert all(bounded == (case == "B") for bounded, case in cases), cases
        assert {case for _, case in cases} == {"A", "B", "C"}


def lazy_walk_z12():
    g = cyclic_group(12)
    w = np.zeros(12)
    w[[0, 1, 11]] = [0.5, 0.25, 0.25]
    return constant_noise(Measure(g, w))


def _cosets(res, alphas):
    """{l: alpha_l H}, each coset as a frozenset."""
    members = list(res.subgroup.members)
    return {l: frozenset(res.group.mul[a, members].tolist()) for l, a in alphas.items()}


class TestExtendCenterings:
    """Centerings are compared with the oracle modulo H, as the cosets alpha_l H.

    That is all the record files read of them. Put alpha'_l = alpha_l h with
    h in H. The centred product becomes full'_k = full_k h, and it lies in
    the same coset full_k H, so phi_k, the section's representative of that
    coset, is unchanged. An extremal path is
    eta_k = full'_k h' with h' = full'_0^-1 phi_0 U_0 = h^-1 full_0^-1 phi_0 U_0,
    so eta_k = full_k h h^-1 full_0^-1 phi_0 U_0 is unchanged, and so is
    U_k = phi_k^-1 eta_k. A decomposition reads Z' = full'_0^-1 eta_0 = h^-1 Z
    and V = rep(Z'^-1 H)^-1 = rep(Z^-1 h H)^-1 = rep(Z^-1 H)^-1, unchanged,
    and then U_k = phi_k^-1 eta_k V^-1 as before. ``test_golden_records``
    pins these bytes at fixed depths.
    """

    def test_agrees_with_result_alphas(self):
        noise = z4_noise_case_c()
        res = compute_limit(noise)
        levels = range(0, -res.deepest_depth - 41, -1)
        ext = extend_centerings(res, levels)
        for l, a in res.alphas.items():
            assert ext[l] == a
        assert set(res.alphas) == {-res.depth_used, -res.deepest_depth}
        assert set(ext) == set(levels)

    def test_shallow_request_subsets(self):
        noise = z4_noise_case_c()
        res = compute_limit(noise)
        ext = extend_centerings(res, range(0, -6, -1))
        assert set(ext) == {0, -1, -2, -3, -4, -5}
        assert extend_centerings(res, [-5, -2, -5]) == {-5: ext[-5], -2: ext[-2]}

    @pytest.mark.parametrize("make", [*CORPUS, lazy_walk_z12])
    def test_matches_all_levels_oracle(self, make):
        from oracles import all_centerings

        noise = make()
        res = compute_limit(noise)
        depth = 2 * res.deepest_depth + 41
        levels = range(-res.depth_used, -depth - 1, -1)
        ref = all_centerings(noise, res, depth)
        every = extend_centerings(res, levels)
        assert _cosets(res, every) == _cosets(res, {l: ref[l] for l in levels})
        # a level and its half, asked for together, at depths on both sides
        # of the deepest_depth
        for d in (2 * res.depth_used, res.deepest_depth + 1, res.deepest_depth + 40, depth):
            pair = extend_centerings(res, (-d, -(d // 2)))
            assert pair == {l: every[l] for l in (-d, -(d // 2))}

    def test_positive_level_rejected(self):
        noise = z4_noise_case_c()
        with pytest.raises(BadRange):
            extend_centerings(compute_limit(noise), [0, 1])

    def test_no_convolution_at_any_depth(self, monkeypatch):
        from convlimit import limits

        noise = lazy_walk_z12()
        res = compute_limit(noise)
        depths = (res.deepest_depth + 40, 10**9)  # the certificate's ladder runs here, uncounted
        calls = []
        monkeypatch.setattr(limits, "convolve", lambda *a: calls.append(1) or convolve(*a))
        for depth in depths:
            extend_centerings(res, (-depth, -(depth // 2)))
        assert calls == []

    def test_past_deepest_matches_oracle_on_q8(self):
        # case C with ties inside each coset of H, and a prefix
        from oracles import all_centerings
        from test_golden_records import SPECS

        noise = noise_from_spec(SPECS["q8-case-c"])
        res = compute_limit(noise)
        assert (res.case, res.deepest_depth) == ("C", 134)
        depth = res.deepest_depth + 40
        levels = range(-res.depth_used, -depth - 1, -1)
        ref = all_centerings(noise, res, depth)
        assert (_cosets(res, extend_centerings(res, levels))
                == _cosets(res, {l: ref[l] for l in levels}))


def _sparse_law(group, rng):
    """Random positive weights on one to three random elements."""
    support = rng.choice(group.order, size=rng.integers(1, 4), replace=False)
    w = np.zeros(group.order)
    w[support] = rng.random(support.size) + 0.1
    return Measure(group, w / w.sum())


def test_one_coset_at_every_depth_from_the_last_prefix_level():
    """The centred products xi_k ... xi_{-d} alpha_{-d} of one path lie in one
    coset of H at every depth d >= len(prefix) - 1, which is what lets a
    decomposition read phi at the path's own depth, whatever it is.

    For d' > d the product at d' is the one at d times
    xi_{-d-1} ... xi_{-d'} alpha_{-d'}, so the claim is that the support
    product S_{-d-1} ... S_{-d'} times alpha_{-d'} lies in alpha_{-d} H. It is
    checked on the support sets, exhaustively, with nothing sampled, on random
    sparse laws: prefixes of 0 to 3 levels, tail periods 1 to 3. One level
    shallower, at d = len(prefix) - 2, some law disagrees, so the check can fail.
    """
    rng = np.random.default_rng(2024)
    groups = [builtin_group(name) for name in ("S3", "D4", "Q8", "S4", "Zn:12", "product:S3xZn:2")]
    pairs = shallow_disagreements = 0
    for i in range(240):
        group = groups[i % len(groups)]
        prefix = tuple(_sparse_law(group, rng) for _ in range(rng.integers(0, 4)))
        tail = tuple(_sparse_law(group, rng) for _ in range(rng.integers(1, 4)))
        noise = NoiseLaw(group, prefix, tail)
        res = compute_limit(noise, max_depth=10**9)
        bottom = len(prefix) + 3 * len(tail) + 12
        alphas = extend_centerings(res, range(0, -bottom - 1, -1))
        coset_of = left_cosets(group, res.subgroup).coset_of
        supports = [np.flatnonzero(noise.measure_at(-j).weights) for j in range(bottom + 1)]
        for d in range(max(len(prefix) - 2, 0), bottom):
            prod = np.array([group.identity])  # S_{-d-1} ... S_{-d'}
            for d2 in range(d + 1, bottom + 1):
                prod = np.unique(group.mul[np.ix_(prod, supports[d2])])
                one = set(coset_of[group.mul[prod, alphas[-d2]]].tolist()) == {coset_of[alphas[-d]]}
                if d >= len(prefix) - 1:
                    pairs += 1
                    assert one, (i, d, d2)
                else:
                    shallow_disagreements += not one
    assert pairs > 40_000 and shallow_disagreements > 0


def _gauge_corpus():
    """Laws to align: each golden spec's noise measures, limit laws and a few products,
    Haar measures (every translate ties) and Haar on subgroups, and on the three wide
    groups, coset-uniform laws and sparse and dense random ones."""
    from test_golden_records import SPECS
    from test_support_kernels import WIDE, random_laws

    laws = []
    for spec in SPECS.values():
        noise = noise_from_spec(spec)
        res = compute_limit(noise)
        laws += [*noise.prefix, *noise.tail, *res.lambdas.values(),
                 *(partial_product(noise, 0, -i)
                   for i in (0, 1, res.depth_used, res.deepest_depth))]
    for name in ("Z4", "S3", "D4", "Q8", "S4", *WIDE):
        group = builtin_group(name)
        laws += [haar(group), haar_subgroup(group, generated_subgroup(group, (1,)))]
    for seed, name in enumerate(WIDE):
        laws += random_laws(builtin_group(name), seed)
    return laws


class TestGaugeAlign:
    @pytest.mark.parametrize("gauge", [GAUGE_MAX_WEIGHT, GAUGE_MIN_SUPPORT])
    def test_matches_per_translate_oracle(self, gauge):
        from oracles import gauge_align_per_translate

        for nu in _gauge_corpus():
            law, g = _gauge_align(nu, gauge)
            want_law, want_g = gauge_align_per_translate(nu, gauge)
            assert g == want_g
            assert np.array_equal(law.weights, want_law.weights)

    def test_unknown_gauge_refused_before_any_work(self, monkeypatch):
        from convlimit import limits

        def no_work(nu):
            raise AssertionError("translates computed for an unknown gauge")

        monkeypatch.setattr(limits, "all_right_translates", no_work)
        with pytest.raises(InvalidSpec, match="unknown gauge"):
            _gauge_align(haar(Z4), "bogus")

    def test_compute_limit_refuses_unknown_gauge_before_deepening(self, monkeypatch):
        from convlimit import limits

        calls = []

        def counted(mu, nu):
            calls.append(1)
            return convolve(mu, nu)

        monkeypatch.setattr(limits, "convolve", counted)
        with pytest.raises(InvalidSpec, match="unknown gauge"):
            compute_limit(z4_noise_case_c(), gauge="bogus")
        assert calls == []


def _property_groups():
    from convlimit.groups import dihedral_group_4

    return [*(cyclic_group(n) for n in range(2, 13)), S3, dihedral_group_4(), Q8,
            symmetric_group(4)]


@st.composite
def sparse_noise_laws(draw):
    """A prefix of 0-3 measures and a tail of period 1-3, each on 1-3 points with weights 1-4."""
    group = draw(st.sampled_from(_property_groups()))

    def measure():
        support = draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=3,
                                unique=True))
        w = np.zeros(group.order)
        for g in support:
            w[g] = draw(st.integers(1, 4))
        return Measure(group, w / w.sum())

    prefix = tuple(measure() for _ in range(draw(st.integers(0, 3))))
    tail = tuple(measure() for _ in range(draw(st.integers(1, 3))))
    return NoiseLaw(group, prefix, tail)


@given(n_prefix=st.integers(0, 5), period=st.integers(1, 4), top=st.integers(0, 12),
       span=st.integers(-2, 20))
def test_law_runs_cover_each_level_once_with_its_law(n_prefix, period, top, span):
    # distinct laws, so that `is` tells them apart; top lies inside the prefix,
    # at its end or below it, and span <= 0 gives an empty range
    laws = [delta(cyclic_group(n_prefix + period), g) for g in range(n_prefix + period)]
    noise = NoiseLaw(laws[0].group, tuple(laws[:n_prefix]), tuple(laws[n_prefix:]))
    stop = top + span
    seen = []
    for mu, levels in noise.law_runs(top, stop):
        if levels.start < n_prefix:
            assert levels == slice(levels.start, levels.start + 1, 1)
        else:
            assert (levels.stop, levels.step) == (stop, period)
        for j in range(levels.start, levels.stop, levels.step):
            assert mu is noise.measure_at(-j)
            assert mu is (laws[j] if j < n_prefix else laws[n_prefix + (j - n_prefix) % period])
            seen.append(j)
    assert sorted(seen) == list(range(top, stop))


@given(sparse_noise_laws())
@example(NoiseLaw(Z4, prefix=(Measure(Z4, [0.5, 0.0, 0.5, 0.0]),), tail=(delta(Z4, 1),)))
@example(NoiseLaw(Q8, prefix=(delta(Q8, 2), delta(Q8, 0)), tail=(delta(Q8, 1),)))  # -k, -i
@settings(max_examples=60, deadline=None)
def test_exact_limit_matches_the_deepening_oracle(noise):
    # The gauge picks one translate among those that tie, so when lambda_0 has
    # more symmetry than the window the two engines may pick different ones:
    # the oracle's laws are the library's moved by one g that fixes lambda_0,
    # and H and the centerings move with it.
    from oracles import deepening_limit

    res = compute_limit(noise, max_depth=10**6)
    d = res.depth_used
    levels = (-d, -d - 1, -d - len(noise.tail), -2 * d, -2 * d - 1)
    ref = deepening_limit(noise, levels)
    group = noise.group
    g = next(g for g in range(group.order)
             if all(tv_distance(translate_right(res.lambdas[k], g), ref.lambdas[k]) <= 1e-9
                    for k in ref.lambdas))
    assert res.case == ref.case
    assert conjugate_subgroup(res.subgroup, g) == ref.subgroup
    alphas = extend_centerings(res, levels)
    members = list(ref.subgroup.members)
    for l in levels:
        moved = int(group.mul[alphas[l], g])
        assert set(group.mul[moved, members]) == set(group.mul[ref.alphas[l], members]), l
