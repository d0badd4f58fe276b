import dataclasses
import math

import numpy as np
import pytest
from oracles import battery_per_call, trivial_subgroup
from scipy.integrate import quad
from scipy.special import gamma, gammaincc

from convlimit.errors import BadRange, EmptySample, InsufficientSamples, InvalidSpec, OutOfSupport
from convlimit.groups import cyclic_group, subgroup
from convlimit.limits import compute_limit, constant_noise, noise_from_spec
from convlimit.measures import Measure, delta, haar, tv_distance
from convlimit.solutions import (
    CHUNK_SIZE,
    decompose_ensemble,
    extremal_ensemble,
    general_ensemble,
    window_cut,
)
from convlimit.stats import (
    case_b_convergence_diagnostic,
    chi2_sf,
    chi_square_independence,
    chi_square_uniformity,
    empirical_law,
    verify_theorems,
)

Z4 = cyclic_group(4)


@pytest.fixture(scope="module")
def case_b():
    noise = constant_noise(delta(Z4, 1))
    return noise, compute_limit(noise)


@pytest.fixture(scope="module")
def case_c():
    noise = constant_noise(Measure(Z4, [0.5, 0.0, 0.5, 0.0]))
    return noise, compute_limit(noise)


@pytest.fixture(scope="module")
def case_a():
    noise = constant_noise(haar(Z4))
    return noise, compute_limit(noise)


class TestEmpiricalLaw:
    def test_constant_samples(self):
        mu = empirical_law(Z4, [2] * 10)
        assert np.array_equal(mu.weights, [0, 0, 1, 0])

    def test_haar_draws(self):
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 4, size=100_000)
        assert tv_distance(empirical_law(Z4, xs), haar(Z4)) < 0.02

    def test_empty(self):
        with pytest.raises(EmptySample):
            empirical_law(Z4, [])

    def test_non_integer_samples_are_refused_naming_the_dtype(self):
        with pytest.raises(InvalidSpec, match="got dtype float64"):
            empirical_law(Z4, [1.7, 2.2, 0.9])

    @pytest.mark.parametrize("samples, bad", [([-1], -1), ([0, 3, 7, 1], 7), ([2, 4, -1], 4)])
    def test_ids_outside_the_group_are_refused_naming_the_id(self, samples, bad):
        with pytest.raises(InvalidSpec, match=f"sample {bad} is not an element id"):
            empirical_law(Z4, samples)


class TestChiSquareTail:
    def test_against_quadrature_oracle(self):
        for df in (1, 2, 5, 10, 32, 64):
            norm = 1.0 / (2 ** (df / 2) * gamma(df / 2))
            pdf = lambda t: norm * t ** (df / 2 - 1) * math.exp(-t / 2)
            for stat in (0.5, float(df), 2.0 * df):
                want = quad(pdf, stat, np.inf, limit=400)[0]
                assert abs(chi2_sf(stat, df) - want) < 1e-8

    def test_zero_statistic(self):
        assert chi2_sf(0.0, 3) == 1.0

    @pytest.mark.parametrize("dfs", [range(1, 151), range(151, 301), range(301, 451),
                                     range(451, 601), (1000, 4999)])
    def test_against_gammaincc(self, dfs):
        # the regularized upper incomplete gamma function is the oracle:
        # P(chi2_df > x) = Q(df / 2, x / 2)
        for df in dfs:
            sd = math.sqrt(2.0 * df)
            stats = [1e-300, 1e-12, 1e-3, 0.5, 1.0, df / 4, df / 2, 2.0 * df, 4.0 * df,
                     10.0 * df + 100, 1500.0, 3000.0]
            stats += [df + z * sd for z in np.linspace(-6, 40, 24) if df + z * sd > 0]
            for stat in stats:
                want = float(gammaincc(df / 2.0, stat / 2.0))
                got = chi2_sf(stat, df)
                assert 0.0 <= got <= 1.0
                if want >= 1e-300:
                    assert abs(got - want) <= 1e-9 * want, (df, stat, got, want)

    @pytest.mark.parametrize("df", [0, 1, 2, 3, 600, 4999])
    def test_edges(self, df):
        assert chi2_sf(0.0, df) == 1.0
        assert chi2_sf(7.0, 0) == 1.0
        huge = chi2_sf(1e6, df)  # warnings are errors: no overflow may be raised
        assert math.isfinite(huge) and 0.0 <= huge <= 1.0
        if df > 0:
            assert chi2_sf(math.inf, df) == 0.0
            assert math.isnan(chi2_sf(math.nan, df))


class TestUniformity:
    def test_balanced_counts_give_p_one(self):
        h = subgroup(Z4, [0, 2])
        samples = [0] * 500 + [2] * 500
        r = chi_square_uniformity(samples, h)
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_all_one_cell_is_decisive(self):
        h = subgroup(Z4, [0, 2])
        r = chi_square_uniformity([0] * 10_000, h)
        assert r.statistic == pytest.approx(10_000)
        assert r.p_value < 1e-10

    def test_out_of_support(self):
        h = subgroup(Z4, [0, 2])
        with pytest.raises(OutOfSupport):
            chi_square_uniformity([0, 1, 2], h)

    @pytest.mark.parametrize("members, samples, bad", [
        ([0, 1, 2, 3], [-1, -2, -3, -4] * 25, -1),
        ([0, 1, 2, 3], [0, 2, 7, 2], 7),
        ([0, 2], [0, 2, 1, 7], 1),  # the first sample outside the support is named
        ([0, 2], [0, 2, 7, 1], 7),
    ])
    def test_ids_outside_the_group_are_out_of_support(self, members, samples, bad):
        with pytest.raises(OutOfSupport, match=f"sample value {bad} lies outside"):
            chi_square_uniformity(samples, subgroup(Z4, members))

    def test_non_integer_samples_are_refused(self):
        with pytest.raises(InvalidSpec, match="got dtype float64"):
            chi_square_uniformity([0.0, 2.0] * 50, subgroup(Z4, [0, 2]))

    def test_trivial_support_degenerate(self):
        r = chi_square_uniformity([0] * 100, trivial_subgroup(Z4))
        assert r.degenerate and r.p_value == 1.0

    def test_calibration_under_null(self):
        # two-cell uniform draws: p > 0.001 in at least 99% of seeds
        h = subgroup(Z4, [0, 2])
        n, reps = 10_000, 200
        ok = 0
        for s in range(reps):
            rng = np.random.default_rng(1000 + s)
            samples = rng.choice([0, 2], size=n)
            if chi_square_uniformity(samples, h).p_value > 0.001:
                ok += 1
        assert ok >= int(0.99 * reps)

    def test_power_against_planted_effect(self):
        # effect size 0.1 in TV on two cells: detected at 0.01 in every rep
        h = subgroup(Z4, [0, 2])
        n, reps = 10_000, 50
        for s in range(reps):
            rng = np.random.default_rng(2000 + s)
            samples = rng.choice([0, 2], size=n, p=[0.6, 0.4])
            assert chi_square_uniformity(samples, h).p_value < 0.01


class TestIndependence:
    def test_fully_dependent_pairs(self):
        rng = np.random.default_rng(1)
        x = rng.choice([0, 2], size=10_000)
        r = chi_square_independence(np.stack([x, x], axis=1))
        assert r.p_value < 1e-10

    def test_constant_coordinate_degenerate(self):
        pairs = [(0, 5), (2, 5), (0, 5)]
        r = chi_square_independence(pairs)
        assert r.degenerate and r.p_value == 1.0

    def test_empty(self):
        with pytest.raises(EmptySample):
            chi_square_independence([])

    def test_calibration_under_null(self):
        n, reps = 10_000, 200
        ok = 0
        for s in range(reps):
            rng = np.random.default_rng(3000 + s)
            x = rng.integers(0, 4, size=n)
            y = rng.integers(0, 3, size=n)
            if chi_square_independence(np.stack([x, y], axis=1)).p_value > 0.001:
                ok += 1
        assert ok >= int(0.99 * reps)

    def test_power_against_planted_dependence(self):
        n, reps = 10_000, 50
        for s in range(reps):
            rng = np.random.default_rng(4000 + s)
            x = rng.integers(0, 2, size=n)
            copy_mask = rng.random(n) < 0.2
            y = np.where(copy_mask, x, rng.integers(0, 2, size=n))
            assert chi_square_independence(np.stack([x, y], axis=1)).p_value < 0.01

    def test_non_integer_samples_are_refused(self):
        with pytest.raises(InvalidSpec, match="got dtype float64"):
            chi_square_independence([(0.5, 1), (1, 2)])

    def test_pooling_deterministic(self):
        # a rare category forces pooling; two identical runs agree exactly
        rng = np.random.default_rng(5)
        x = rng.integers(0, 3, size=500)
        y = np.where(rng.random(500) < 0.004, 9, rng.integers(0, 2, size=500))
        r1 = chi_square_independence(np.stack([x, y], axis=1))
        r2 = chi_square_independence(np.stack([x, y], axis=1))
        assert r1 == r2
        assert r1.pooled_cells >= 1
        # the categories are the values seen: shifting x and closing the gap
        # below y = 9 changes nothing, pooling included
        r3 = chi_square_independence(np.stack([x - 7, np.where(y == 9, 2, y)], axis=1))
        assert r3 == r1


def _as_dtypes(a):
    """The same samples as int8, int16 and int64 arrays and as nested Python lists."""
    a = np.asarray(a)
    return [a.astype(np.int8), a.astype(np.int16), a.astype(np.int64), a.tolist()]


def _pooling_pairs():
    """The plain, shifted and pooled pair arrays of test_pooling_deterministic."""
    rng = np.random.default_rng(5)
    x = rng.integers(0, 3, size=500)
    y = np.where(rng.random(500) < 0.004, 9, rng.integers(0, 2, size=500))
    return [np.stack([x, y], axis=1), np.stack([x - 7, np.where(y == 9, 2, y)], axis=1)]


class TestIdDtypes:
    """The battery counts ids in the dtype they come in; every dtype gives the same result."""

    @pytest.mark.parametrize("pairs", [*_pooling_pairs(),
                                       np.stack([np.arange(400) % 4, np.arange(400) % 3], 1)])
    def test_independence(self, pairs):
        results = [chi_square_independence(p) for p in _as_dtypes(pairs)]
        assert all(r == results[0] for r in results)

    def test_independence_of_pooled_pairs_pools(self):
        assert chi_square_independence(_pooling_pairs()[0].astype(np.int8)).pooled_cells >= 1

    @pytest.mark.parametrize("members", [[0, 2], [0, 1, 2, 3], [0]])
    def test_uniformity(self, members):
        h = subgroup(Z4, members)
        samples = np.random.default_rng(3).choice(members, size=600)
        results = [chi_square_uniformity(s, h) for s in _as_dtypes(samples)]
        assert all(r == results[0] for r in results)

    def test_empirical_law(self):
        samples = np.random.default_rng(4).integers(0, 4, size=600)
        laws = [empirical_law(Z4, s).weights for s in _as_dtypes(samples)]
        assert all(np.array_equal(w, laws[0]) for w in laws)

    @pytest.mark.parametrize("mixture", [False, True])
    def test_verify_theorems(self, case_c, mixture):
        from convlimit.solutions import decompose_ensemble

        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 2000, seed=20)
        if mixture:
            ens, _ = decompose_ensemble(general_ensemble(ens, haar(Z4), seed=21), res, noise=noise)
        assert ens.phi.dtype == np.int8
        wide = dataclasses.replace(
            ens, **{f: getattr(ens, f).astype(np.int64) for f in ("xi", "eta", "phi", "U", "V")
                    if getattr(ens, f) is not None})
        assert wide.phi.dtype == np.int64
        assert verify_theorems(noise, res, wide).to_json_dict() == \
            verify_theorems(noise, res, ens).to_json_dict()


@pytest.fixture(scope="module")
def pooling():
    """Case A on Z16: at 1000 paths the 16 x 16 tables of U_k against xi_j pool."""
    noise = constant_noise(haar(cyclic_group(16)))
    return noise, compute_limit(noise)


def _battery_ensemble(case, n_paths, request):
    noise, res = request.getfixturevalue("case_c" if case == "mixture" else case)
    ens = extremal_ensemble(noise, res, 2 * res.depth_used, n_paths, seed=51)
    if case == "mixture":
        ens, _ = decompose_ensemble(general_ensemble(ens, haar(noise.group), seed=52), res, noise)
    return noise, res, ens


def _battery_outcome(battery, noise, res, ens):
    """The report as a JSON dict, or the type and message of the exception raised."""
    try:
        return battery(noise, res, ens).to_json_dict()
    except Exception as exc:  # the refusals are compared, not raised
        return type(exc), str(exc)


class TestBatteryOracle:
    """verify_theorems counts each level's tables at once; one library call per test is the oracle."""

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
    @pytest.mark.parametrize("n_paths", [1000, CHUNK_SIZE + 3])
    @pytest.mark.parametrize("case", ["case_a", "case_b", "case_c", "mixture", "pooling"])
    def test_report_equals_the_per_call_battery(self, case, n_paths, dtype, request):
        noise, res, ens = _battery_ensemble(case, n_paths, request)
        assert ens.phi.dtype == np.int8
        ens = dataclasses.replace(ens, **{f: getattr(ens, f).astype(dtype)
                                          for f in ("xi", "eta", "phi", "U", "V")
                                          if getattr(ens, f) is not None})
        assert verify_theorems(noise, res, ens).to_json_dict() == \
            battery_per_call(noise, res, ens).to_json_dict()

    @pytest.mark.parametrize("bad, message", [
        (-1, "phi holds -1, which is not an element id of FiniteGroup(Z4)"),
        (4, "phi holds 4, which is not an element id of FiniteGroup(Z4)"),
        (2.0, "samples must be integer element ids, got dtype float64"),
    ])
    def test_phi_without_element_ids_is_refused(self, bad, message, request):
        noise, res, ens = _battery_ensemble("mixture", 1000, request)
        phi = ens.phi.astype(type(bad))
        phi[2, 7] = bad
        mutated = dataclasses.replace(ens, phi=phi)
        outcome = _battery_outcome(verify_theorems, noise, res, mutated)
        assert outcome == (InvalidSpec, message)
        assert outcome == _battery_outcome(battery_per_call, noise, res, mutated)

    @pytest.mark.parametrize("translate", [0, 4])
    def test_case_b_determinism_matches_the_per_call_battery(self, translate):
        noise = noise_from_spec(CASE_B_SPECS["q8-periodic-delta"])
        res = compute_limit(noise)
        ens = extremal_ensemble(noise, res, 200, 1000, seed=53)
        phi = ens.phi.copy()
        phi[:, 7] = noise.group.mul[phi[:, 7], translate]
        mutated = dataclasses.replace(ens, phi=phi)
        report = verify_theorems(noise, res, mutated).to_json_dict()
        assert report == battery_per_call(noise, res, mutated).to_json_dict()
        assert report["case_checks"]["strong_determinism"] is (translate == 0)

    def test_the_pooling_case_pools(self, request):
        _, _, ens = _battery_ensemble("pooling", 1000, request)
        assert chi_square_independence(np.stack([ens.u_col(0), ens.xi_col(0)], 1)).pooled_cells > 0

    @pytest.mark.parametrize("mutation, refusal", [
        ("U outside H", None),
        ("U below 0", InvalidSpec),
        ("U past the table", InvalidSpec),
        ("xi outside the group", None),
        ("float U", InvalidSpec),
        ("float xi", InvalidSpec),
        ("float V", InvalidSpec),
    ])
    def test_mutated_ensembles_match_the_per_call_battery(self, mutation, refusal, request):
        noise, res, ens = _battery_ensemble("mixture", 1000, request)
        U, xi = ens.U.copy(), ens.xi.copy()
        if mutation == "U outside H":
            U[3, 5] = 1  # H = {0, 2}
        elif mutation == "U below 0":
            U[0, 0] = -1
        elif mutation == "U past the table":
            U[0, 0] = 100
        elif mutation == "xi outside the group":
            xi[-1, 0] = 9
        mutated = {
            "float U": dataclasses.replace(ens, U=ens.U.astype(float)),
            "float xi": dataclasses.replace(ens, xi=ens.xi.astype(float)),
            "float V": dataclasses.replace(ens, V=ens.V.astype(float)),
        }.get(mutation, dataclasses.replace(ens, U=U, xi=xi))
        outcome = _battery_outcome(verify_theorems, noise, res, mutated)
        assert outcome == _battery_outcome(battery_per_call, noise, res, mutated)
        if refusal is None:
            assert isinstance(outcome, dict)
        else:
            assert issubclass(outcome[0], refusal), outcome
        if mutation == "U outside H":
            assert outcome["per_k"][3]["uniformity_out_of_support"]
        if mutation.startswith("float"):
            assert outcome[1] == "samples must be integer element ids, got dtype float64"
        elif refusal is InvalidSpec:
            assert outcome[1] == f"U holds {U[0, 0]}, which is not an element id of {noise.group!r}"


class TestCaseBDiagnostic:
    def test_point_mass_chain_never_disagrees(self, case_b):
        noise, res = case_b
        recs = case_b_convergence_diagnostic(noise, res, [10, 20, 40], seed=1)
        for r in recs:
            assert r.element_disagreement == 0.0
            assert r.coset_disagreement == 0.0

    def test_case_a_element_disagreement_persists(self, case_a):
        noise, res = case_a
        recs = case_b_convergence_diagnostic(noise, res, [10, 20], n_paths=4000, seed=2)
        for r in recs:
            assert abs(r.element_disagreement - 0.75) < 0.05  # 1 - 1/|G|
            assert r.coset_disagreement == 0.0  # single coset when H = G

    def test_case_c_coset_converges_element_does_not(self, case_c):
        noise, res = case_c
        recs = case_b_convergence_diagnostic(noise, res, [20, 40], n_paths=4000, seed=3)
        for r in recs:
            assert r.element_disagreement > 0.3
            assert r.coset_disagreement == 0.0


    @pytest.mark.parametrize("case", ["case_a", "case_b", "case_c"])
    @pytest.mark.parametrize("depths", [[10, 20, 40], [20, 30, 40], "deepest"])
    def test_matches_oracle_loops(self, case, depths, request):
        from oracles import case_b_diagnostic

        noise, res = request.getfixturevalue(case)
        if depths == "deepest":
            depths = [3 * res.deepest_depth // 4, res.deepest_depth]
        assert (case_b_convergence_diagnostic(noise, res, depths, n_paths=500, seed=4)
                == case_b_diagnostic(noise, res, depths, n_paths=500, seed=4))

    @pytest.mark.parametrize("depths", [[0], [10, -1]])
    def test_nonpositive_depth_rejected(self, case_b, depths):
        noise, res = case_b
        with pytest.raises(InvalidSpec, match="positive"):
            case_b_convergence_diagnostic(noise, res, depths)


class TestVerifyTheorems:
    def test_case_c_battery_green(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 10_000, seed=11)
        report = verify_theorems(noise, res, ens)
        assert report.passed, report.failures
        assert report.hiso_detected == res.subgroup.members
        assert report.case_checks["detected_case"] == "C"
        for c in report.per_k:
            assert c.tv_to_lambda < 0.05

    def test_case_b_battery_green_with_determinism(self, case_b):
        noise, res = case_b
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 2000, seed=12)
        report = verify_theorems(noise, res, ens)
        assert report.passed, report.failures
        assert report.case_checks["strong_determinism"] is True

    def test_case_a_all_elements_invariant(self, case_a):
        noise, res = case_a
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 10_000, seed=13)
        report = verify_theorems(noise, res, ens)
        assert report.passed, report.failures
        assert report.hiso_detected == tuple(range(4))

    def test_mixture_battery_green(self, case_c):
        from convlimit.solutions import decompose_ensemble

        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 10_000, seed=14)
        mixed = general_ensemble(ens, haar(Z4), seed=15)
        dec, _ = decompose_ensemble(mixed, res, noise=noise)
        report = verify_theorems(noise, res, dec)
        assert report.passed, report.failures

    def test_misspecified_subgroup_fails(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 2000, seed=16)
        doctored = dataclasses.replace(res, subgroup=trivial_subgroup(Z4), case="B")
        report = verify_theorems(noise, doctored, ens)
        assert not report.passed
        assert any("uniformity" in f or "discrimination" in f for f in report.failures)
        assert any(c.uniformity_out_of_support for c in report.per_k)

    def test_insufficient_samples(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 100, seed=17)
        with pytest.raises(InsufficientSamples):
            verify_theorems(noise, res, ens)

    def test_ensemble_without_xi_minus_2_refused(self, case_c):
        # at depth 1 the battery's xi_-2 column would wrap round to xi_0
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 1, 2000, seed=19, k_min=0)
        with pytest.raises(BadRange, match="xi holds k = -1..0, got k=-2"):
            ens.xi_col(-2)
        with pytest.raises(InvalidSpec, match="needs xi_-2; the ensemble's xi stops at k=-1"):
            verify_theorems(noise, res, ens)

    def test_determinism(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 2000, seed=18)
        r1 = verify_theorems(noise, res, ens)
        r2 = verify_theorems(noise, res, ens)
        assert r1.to_json_dict() == r2.to_json_dict()


# Case-B specs: the S3 and Q8 inputs of the benchmark's verify battery (the
# Q8 prefix fixed here) and the point-mass tails of the test corpus.
_Z4 = {"kind": "builtin", "name": "Z4"}
CASE_B_SPECS = {
    "q8-periodic-delta": {
        "group": {"kind": "builtin", "name": "Q8"},
        "prefix": [{"kind": "weights", "w": [0.3, 0.05, 0.2, 0.1, 0.15, 0.05, 0.1, 0.05]}],
        "tail": {"kind": "periodic", "mus": [{"kind": "delta", "at": 3}, {"kind": "delta", "at": 6}]},
    },
    "s3-near-symmetry": {
        "group": {"kind": "builtin", "name": "S3"},
        "prefix": [
            {"kind": "weights", "w": [0.4, 0.3, 0.2, 0.1, 0.0, 0.0]},
            {"kind": "weights", "w": [0.5, 0.0, 0.0, 0.0, 0.3, 0.2]},
        ],
        "tail": {"kind": "constant", "mu": {"kind": "delta", "at": 1}},
    },
    "z4-dirac": {"group": _Z4, "prefix": [],
                 "tail": {"kind": "constant", "mu": {"kind": "delta", "at": 1}}},
    "z4-dirac-prefix": {"group": _Z4, "prefix": [{"kind": "delta", "at": 2}],
                        "tail": {"kind": "constant", "mu": {"kind": "delta", "at": 1}}},
    "z4-periodic-dirac": {"group": _Z4, "prefix": [],
                          "tail": {"kind": "periodic", "mus": [{"kind": "delta", "at": 1},
                                                               {"kind": "delta", "at": 2}]}},
    "z4-haar-prefix": {"group": _Z4, "prefix": [{"kind": "haar"}],
                       "tail": {"kind": "constant", "mu": {"kind": "delta", "at": 1}}},
    "q8-haar-prefix": {"group": {"kind": "builtin", "name": "Q8"}, "prefix": [{"kind": "haar"}],
                       "tail": {"kind": "constant", "mu": {"kind": "delta", "at": 4}}},
}


@pytest.fixture(scope="module", params=sorted(CASE_B_SPECS))
def case_b_spec(request):
    noise = noise_from_spec(CASE_B_SPECS[request.param])
    res = compute_limit(noise)
    assert res.case == "B"
    return noise, res


class TestStrongDeterminism:
    """verify groups a case-B ensemble's paths by their noise from the cut up: each group
    must share one eta0."""

    @pytest.mark.parametrize("depth", ["cut", "2*depth_used", 200, 400])
    def test_paths_do_not_depend_on_the_noise_below_the_cut(self, case_b_spec, depth):
        noise, res = case_b_spec
        depth = {"cut": window_cut(noise, res.k_min),
                 "2*depth_used": 2 * res.depth_used}.get(depth, depth)
        ens = extremal_ensemble(noise, res, depth, 1000, seed=31)
        report = verify_theorems(noise, res, ens)
        assert report.case_checks["strong_determinism"] is True
        assert "strong-solution determinism check failed" not in report.failures

    @pytest.mark.parametrize("mutation", ["translated path", "one phi entry",
                                          "row below the cut", "independent translates"])
    def test_a_path_that_is_not_the_strong_solution_fails(self, mutation):
        noise = noise_from_spec(CASE_B_SPECS["q8-periodic-delta"])
        res = compute_limit(noise)
        ens = extremal_ensemble(noise, res, 400, 1000, seed=32)
        group = noise.group
        phi, eta, xi = ens.phi.copy(), ens.eta.copy(), ens.xi.copy()
        rng = np.random.default_rng(33)
        if mutation == "translated path":
            # eta_k g still solves eta_k = xi_k eta_(k-1), but is not a function of the noise
            phi[:, 7] = eta[:, 7] = group.mul[eta[:, 7], 4]
        elif mutation == "one phi entry":
            phi[-1, 7] = group.mul[phi[-1, 7], 4]
        else:
            if mutation == "row below the cut":
                # in case B every level below the cut is a point mass, so this sampler
                # also draws level -(cut + 1) at random, and then reads it into eta
                row = ens.depth - window_cut(noise, ens.k_min) - 1
                xi[row] = rng.integers(group.order, size=ens.n_paths)
                g = xi[row]
            else:
                g = rng.integers(group.order, size=ens.n_paths)
            phi = eta = group.mul[eta, g]
        report = verify_theorems(noise, res, dataclasses.replace(ens, xi=xi, phi=phi, eta=eta))
        assert report.case_checks["strong_determinism"] is False
        assert report.passed is False
        assert "strong-solution determinism check failed" in report.failures
