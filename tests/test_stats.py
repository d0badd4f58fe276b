import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from convlimit.errors import EmptySample, InsufficientSamples, InvalidSpec, OutOfSupport
from convlimit.groups import cyclic_group, subgroup, trivial_subgroup
from convlimit.limits import compute_limit, constant_noise
from convlimit.measures import Measure, delta, haar, tv_distance
from convlimit.solutions import extremal_ensemble, general_ensemble
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

    def test_determinism(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 2000, seed=18)
        r1 = verify_theorems(noise, res, ens)
        r2 = verify_theorems(noise, res, ens)
        assert r1.to_json_dict() == r2.to_json_dict()
