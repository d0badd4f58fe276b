"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole battery is seeded and deterministic.
"""

import json
import math
import re

import numpy as np
import pytest

from convlimit.groups import (
    conjugate_subgroup,
    cyclic_group,
    default_section,
    left_cosets,
    normal_closure,
    symmetric_group,
)
from convlimit.limits import (
    compute_limit,
    constant_noise,
    strong_subgroup,
    verify_conjugacy_uniqueness,
)
from convlimit.measures import (
    Measure,
    convolve,
    delta,
    haar,
    translate_right,
    tv_distance,
)
from convlimit.solutions import (
    decompose_ensemble,
    extremal_ensemble,
    general_ensemble,
    uniform_ensemble,
)
from convlimit.stats import (
    case_b_convergence_diagnostic,
    chi_square_independence,
    chi_square_uniformity,
    empirical_law,
)
from convlimit.torus import (
    AtomsSpec,
    DiracSpec,
    GaussianSchedule,
    PeriodicTail,
    TorusNoiseLaw,
    WrappedGaussianSpec,
    compute_p_mu,
    discretize_to_cyclic,
    predicted_cyclic_subgroup,
)

Z4 = cyclic_group(4)
S3 = symmetric_group(3)
N_PATHS = 10_000


def _ok(n, label):
    print(f"ACCEPTANCE {n} {label}: PASS")


@pytest.fixture(scope="module")
def corpus():
    lab = {name: i for i, name in enumerate(S3.element_labels)}
    w_s3 = np.zeros(6)
    w_s3[0] = 0.5
    w_s3[lab["(12)"]] = 0.5
    noises = {
        "z4_haar": constant_noise(haar(Z4)),
        "z4_dirac": constant_noise(delta(Z4, 1)),
        "z4_half": constant_noise(Measure(Z4, [0.5, 0.0, 0.5, 0.0])),
        "s3_half": constant_noise(Measure(S3, w_s3)),
    }
    results = {k: compute_limit(v) for k, v in noises.items()}
    return noises, results


@pytest.fixture(scope="module")
def case_c_ensemble(corpus):
    noises, results = corpus
    res = results["z4_half"]
    return extremal_ensemble(noises["z4_half"], res, 2 * res.depth_used, N_PATHS, seed=101)


def test_criterion_01_trichotomy_corpus(corpus):
    noises, results = corpus
    assert results["z4_haar"].case == "A"
    assert results["z4_haar"].subgroup.members == (0, 1, 2, 3)
    assert results["z4_dirac"].case == "B"
    assert results["z4_dirac"].subgroup.members == (0,)
    assert results["z4_half"].case == "C"
    assert results["z4_half"].subgroup.members == (0, 2)
    lab = {name: i for i, name in enumerate(S3.element_labels)}
    assert results["s3_half"].case == "C"
    assert results["s3_half"].subgroup.members == (0, lab["(12)"])
    assert strong_subgroup(S3, results["s3_half"].subgroup).members == tuple(range(6))
    for res in results.values():
        for name, value in res.residuals.items():
            assert value <= 1e-9, f"{name} residual {value}"
    _ok(1, "trichotomy corpus")


def test_criterion_02_convolution_equation_residual(corpus):
    noises, results = corpus
    for key, noise in noises.items():
        res = results[key]
        # the recorded residual spans the full window [-8, 0], including the
        # k = -8 step whose k-1 law lies below the reporting window
        assert res.residuals["conv_eq"] <= 1e-8, key
        worst = 0.0
        for k in range(-8 + 1, 1):
            worst = max(
                worst,
                tv_distance(res.lambdas[k], convolve(noise.measure_at(k), res.lambdas[k - 1])),
            )
        assert worst <= 1e-8, f"{key}: residual {worst}"
    _ok(2, "convolution-equation residual <= 1e-8 on [-8, 0]")


def test_criterion_03_conjugacy_uniqueness(corpus):
    noises, results = corpus
    for key, noise in noises.items():
        res1 = results[key]
        check = verify_conjugacy_uniqueness(noise, res1)
        assert check.ok, key
        res2 = compute_limit(noise, gauge="min-support")
        moved = translate_right(res1.lambda0, check.witness)
        assert tv_distance(moved, res2.lambda0) <= 10 * 1e-9
        assert conjugate_subgroup(res1.subgroup, check.witness).members == res2.subgroup.members
    _ok(3, "conjugacy uniqueness with exact witnesses on the full corpus")


def test_criterion_04_torus_fourier_criterion():
    dirac = compute_p_mu(TorusNoiseLaw(tail=PeriodicTail((DiracSpec(0.3),))))
    assert dirac.p_mu == 1 and dirac.case == "B" and dirac.undetermined == ()
    atoms = compute_p_mu(
        TorusNoiseLaw(tail=PeriodicTail((AtomsSpec(((0.0, 0.5), (0.5, 0.5))),)))
    )
    assert atoms.p_mu == 2 and atoms.case == "C" and atoms.undetermined == ()
    gauss = compute_p_mu(TorusNoiseLaw(tail=PeriodicTail((WrappedGaussianSpec(0.0, 0.1),))))
    assert gauss.p_mu == 0 and gauss.case == "A" and gauss.undetermined == ()
    sched = compute_p_mu(TorusNoiseLaw(tail=GaussianSchedule(coeff=0.1, ratio=0.5)))
    assert sched.p_mu == 1 and sched.case == "B"
    # the closed-form tail sum certifies a positive product at every p
    assert all(math.isfinite(b.log_lower) for b in sched.bounds.values())
    assert all(b.decision == "member" for b in sched.bounds.values())
    _ok(4, "torus criterion: p_mu = {1, 2, 0} and summable schedule -> 1")


def test_criterion_05_cross_engine_bridge():
    torus_noise = TorusNoiseLaw(tail=PeriodicTail((AtomsSpec(((0.0, 0.5), (0.5, 0.5))),)))
    cls = compute_p_mu(torus_noise)
    mu4 = discretize_to_cyclic(AtomsSpec(((0.0, 0.5), (0.5, 0.5))), 4)
    res = compute_limit(constant_noise(mu4))
    assert res.subgroup.members == predicted_cyclic_subgroup(4, cls.p_mu) == (0, 2)
    _ok(5, "cross-engine bridge: H from the grid equals the lattice prediction")


def test_criterion_06_extremal_construction(corpus, case_c_ensemble):
    _, results = corpus
    res = results["z4_half"]
    ens = case_c_ensemble
    # (a) exact reconstruction on every path
    assert np.array_equal(Z4.mul[ens.phi, ens.U], ens.eta)
    # (b)+(c): Bonferroni across the four tested pairs at significance 0.01
    threshold = 0.01 / 4
    u0 = ens.u_col(0)
    r_unif = chi_square_uniformity(u0, res.subgroup)
    assert r_unif.p_value >= threshold, f"uniformity p={r_unif.p_value}"
    for j in (0, -1, -2):
        r = chi_square_independence(np.stack([u0, ens.xi_col(j)], axis=1))
        assert r.p_value >= threshold, f"(U_0, xi_{j}) p={r.p_value}"
    # (d) marginal against the computed limit law
    tv = tv_distance(empirical_law(Z4, ens.eta_col(0)), res.lambda0)
    assert tv < 0.05, f"tv={tv}"
    _ok(6, "extremal construction: exact reconstruction + U_0 law checks")


def test_criterion_07_decomposition_round_trip(corpus, case_c_ensemble):
    noises, results = corpus
    noise, res = noises["z4_half"], results["z4_half"]
    space = left_cosets(Z4, res.subgroup)
    section = default_section(space)
    v_laws = {
        "point": delta(Z4, 3),
        "haar": haar(Z4),
        "half": Measure(Z4, [0.5, 0.0, 0.5, 0.0]),
    }
    threshold = 0.01 / 4
    for name, v_law in v_laws.items():
        mixed = general_ensemble(case_c_ensemble, v_law, seed=211)
        dec, audit = decompose_ensemble(mixed, res, noise=noise)
        assert audit["exact_reconstruction"] == N_PATHS
        recon = Z4.mul[dec.phi, Z4.mul[dec.U, dec.V]]
        assert np.array_equal(recon, mixed.eta), name
        # V recovered under the gauge V = s(V^-1)^-1
        for v in np.unique(dec.V):
            assert int(Z4.inv[section.of(int(Z4.inv[v]))]) == v
        # and the recovered V differs from the drawn one only inside H
        shift = Z4.mul[Z4.inv[mixed.V], dec.V]
        assert set(np.unique(shift)) <= set(res.subgroup.members)
        # independence battery on the recovered factors
        u0 = dec.u_col(0)
        r_unif = chi_square_uniformity(u0, res.subgroup)
        assert r_unif.p_value >= threshold, name
        r_v = chi_square_independence(np.stack([u0, dec.V], axis=1))
        assert r_v.degenerate or r_v.p_value >= threshold, name
        for j in (0, -1):
            r = chi_square_independence(np.stack([u0, dec.xi_col(j)], axis=1))
            assert r.p_value >= threshold, name
    _ok(7, "decomposition round trip on three V laws, 100% of paths")


def test_criterion_08_case_b_determinism(corpus):
    noises, results = corpus
    noise, res = noises["z4_dirac"], results["z4_dirac"]
    depth = 2 * res.depth_used
    a = extremal_ensemble(noise, res, depth, 1000, seed=301)
    b = extremal_ensemble(noise, res, depth, 1000, seed=301, u0=0)
    assert np.array_equal(a.eta, b.eta)  # same noise -> same path, U plays no role
    recs = case_b_convergence_diagnostic(noise, res, [10, 20, 40], n_paths=1000, seed=302)
    for r in recs:
        assert r.element_disagreement == 0.0
        assert r.coset_disagreement == 0.0
    _ok(8, "strong-solution determinism and zero disagreement diagnostic")


def test_criterion_09_coset_convergence(corpus):
    noises, results = corpus
    noise, res = noises["z4_half"], results["z4_half"]
    recs = case_b_convergence_diagnostic(noise, res, [20, 30, 40], n_paths=1000, seed=303)
    for r in recs:
        assert r.element_disagreement > 0.3, f"L={r.depth}"
        assert r.coset_disagreement == 0.0, f"L={r.depth}"
    _ok(9, "element-level disagreement persists while the H-coset agrees")


def test_criterion_10_hiso_discrimination(corpus, case_c_ensemble):
    _, results = corpus
    res = results["z4_half"]
    emp = empirical_law(Z4, case_c_ensemble.eta_col(0))
    for h in range(4):
        tv = tv_distance(translate_right(emp, h), emp)
        if h in res.subgroup:
            assert tv < 0.1, f"h={h}: tv={tv}"
        else:
            assert tv > 0.3, f"h={h}: tv={tv}"
    _ok(10, "H-invariance discrimination at the 0.1 / 0.3 margins")


def test_criterion_11_uniform_solution(corpus):
    noises, _ = corpus
    ens = uniform_ensemble(noises["z4_half"], depth=12, n_paths=N_PATHS, seed=401)
    tv = tv_distance(empirical_law(Z4, ens.eta_col(0)), haar(Z4))
    assert tv < 0.05
    r = chi_square_independence(np.stack([ens.eta_col(0), ens.xi_col(0)], axis=1))
    assert r.p_value >= 0.01
    _ok(11, "uniform solution: Haar marginal and noise independence")


def test_criterion_12_determinism(tmp_path):
    from convlimit.cli import main

    spec_path = tmp_path / "noise.json"
    spec_path.write_text(
        json.dumps(
            {
                "group": {"kind": "builtin", "name": "Z4"},
                "tail": {
                    "kind": "constant",
                    "mu": {"kind": "weights", "w": [0.5, 0.0, 0.5, 0.0]},
                },
            }
        )
    )

    def strip_ts(text):
        return re.sub(r'^\s*"generated_at": ".*",?$', "", text, flags=re.M)

    pairs = []
    for out_name in ("a", "b"):
        out = tmp_path / out_name
        rc = main(["verify", "--input", str(spec_path), "--out", str(out),
                   "--seed", "512", "--paths", "2000"])
        assert rc == 0
        pairs.append(
            (
                strip_ts((out / "report.json").read_text()),
                (out / "report_curves.csv").read_text(),
            )
        )
    assert pairs[0] == pairs[1]
    _ok(12, "seeded runs byte-identical modulo the timestamp field")
