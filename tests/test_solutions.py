import dataclasses
import json
import re
import threading

import numpy as np
import pytest
from oracles import (
    decompose_by_fancy_index,
    decompose_core,
    ensemble_records,
    extremal_by_fancy_index,
    extremal_from_xi,
    mixture_by_fancy_index,
    recursion_holds,
    sample_noise_per_level,
    section_from_representatives,
    torus_decompose,
    uniform_by_fancy_index,
)
from test_golden_records import SPECS as GOLDEN_SPECS

from convlimit import cli
from convlimit.errors import BadRange, CosetNotStabilized, GridMismatch, InvalidSpec
from convlimit.groups import (
    builtin_group,
    cyclic_group,
    default_section,
    id_dtype,
    left_cosets,
    subgroup,
    symmetric_group,
)
from convlimit.limits import NoiseLaw, compute_limit, constant_noise, extend_centerings, noise_from_spec
from convlimit.measures import (
    Measure,
    delta,
    haar,
    haar_subgroup,
    inverse_cdf,
    translate_right,
    tv_distance,
)
from convlimit import solutions
from convlimit.solutions import (
    _PURPOSE_U0,
    CHUNK_SIZE,
    LEVEL_BLOCK,
    _stream,
    decompose_ensemble,
    extremal_ensemble,
    general_ensemble,
    sample_noise,
    uniform_ensemble,
)

Z4 = cyclic_group(4)
Z5 = cyclic_group(5)
S3 = symmetric_group(3)
Q8 = builtin_group("Q8")

# Case B behind one random prefix level, then a period-2 tail of point masses
Q8_CASE_B_PREFIX_SPEC = {
    "group": {"kind": "builtin", "name": "Q8"},
    "prefix": [{"kind": "weights", "w": [0.05, 0.3, 0.01, 0.14, 0.25, 0.02, 0.2, 0.03]}],
    "tail": {"kind": "periodic", "mus": [{"kind": "delta", "at": 3}, {"kind": "delta", "at": 6}]},
}

# Case B behind two random prefix levels, then the point mass at element 1
S3_NEAR_SYMMETRY_SPEC = {
    "group": {"kind": "builtin", "name": "S3"},
    "prefix": [
        {"kind": "weights", "w": [0.4, 0.3, 0.2, 0.1, 0.0, 0.0]},
        {"kind": "weights", "w": [0.5, 0.0, 0.0, 0.0, 0.3, 0.2]},
    ],
    "tail": {"kind": "constant", "mu": {"kind": "delta", "at": 1}},
}


def _full(group, seed):
    """A law whose support is the whole group."""
    w = np.random.default_rng(seed).random(group.order) + 0.05
    return Measure(group, w / w.sum())


# Laws whose levels below the random prefix are all point masses
POINT_MASSES_BELOW = {
    "prefix-then-period-2-points": NoiseLaw(Q8, (_full(Q8, 1),), (delta(Q8, 3), delta(Q8, 6))),
    "70-random-prefix-levels": NoiseLaw(S3, tuple(_full(S3, i) for i in range(70)),
                                        (delta(S3, 1),)),
    "random-then-point-prefix": NoiseLaw(S3, (_full(S3, 2), delta(S3, 2), delta(S3, 4)),
                                         (delta(S3, 1), delta(S3, 5))),
    "all-point-masses": NoiseLaw(Q8, (delta(Q8, 2),), (delta(Q8, 1), delta(Q8, 4), delta(Q8, 7))),
}

# One law per case for the cut max(len(prefix) - 1, 1 - k_min): a lazy walk
# behind a short prefix (case A, cut by the window), 12 random prefix levels
# before period-2 point masses (case B) and 11 before a two-point tail (case C)
CUT_LAWS = {
    "A": NoiseLaw(Z5, (_full(Z5, 3), _full(Z5, 4)), (Measure(Z5, [0.5, 0.5, 0, 0, 0]),)),
    "B": NoiseLaw(S3, tuple(_full(S3, i) for i in range(12)), (delta(S3, 1), delta(S3, 4))),
    "C": NoiseLaw(S3, tuple(_full(S3, 10 + i) for i in range(11)),
                  (Measure(S3, [0.5, 0.5, 0, 0, 0, 0]),)),
}

# Laws with a random tail phase: every level is random
RANDOM_TAIL_PHASE = {
    "point-then-random-phase": NoiseLaw(Q8, (_full(Q8, 1),), (delta(Q8, 3), _full(Q8, 4))),
    "s3-mixed-phases": NoiseLaw(S3, (delta(S3, 2), Measure(S3, [0.5, 0, 0, 0.5, 0, 0])),
                                (haar(S3), delta(S3, 1), Measure(S3, [0, 0.25, 0.25, 0.5, 0, 0]))),
    "golden-z4-case-c-prefix": noise_from_spec(GOLDEN_SPECS["z4-case-c-prefix"]),
}


def _uniforms_requested(monkeypatch, noise, depth, size):
    """How many uniforms sample_noise asks of its stream, counted by a wrapped generator."""
    requested = []
    stream = solutions._stream

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def random(self, shape):
            requested.append(int(np.prod(shape)))
            return self.rng.random(shape)

    monkeypatch.setattr(solutions, "_stream", lambda *key: Counting(stream(*key)))
    sample_noise(noise, depth, size, seed=1, chunk=0)
    return sum(requested)


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


def empirical(group, samples):
    return Measure(group, np.bincount(samples, minlength=group.order) / len(samples))


def row_recursion_holds(ens, i):
    return recursion_holds(ens.group, ens.xi[:, i], ens.eta[:, i], ens.depth, ens.k_min)


def single_path(noise, res, seed, **kw):
    return extremal_ensemble(noise, res, 2 * res.depth_used, 1, seed=seed, **kw)


class TestSampleNoise:
    def test_dirac_noise_deterministic(self, case_b):
        noise, _ = case_b
        xi = sample_noise(noise, 10, size=3, seed=0, chunk=0)
        assert xi.shape == (11, 3)  # rows k = -10..0
        assert (xi == 1).all()

    def test_equal_seeds_identical(self, case_c):
        noise, _ = case_c
        a = sample_noise(noise, 20, size=50, seed=42, chunk=3)
        b = sample_noise(noise, 20, size=50, seed=42, chunk=3)
        assert np.array_equal(a, b)
        # the chunk index keys its own stream
        assert not np.array_equal(a, sample_noise(noise, 20, size=50, seed=42, chunk=4))

    @pytest.mark.parametrize("spec, depth, size", [
        ("z4-case-c-prefix", 10, 5),           # a prefix and a constant tail
        ("z4-case-c-prefix", 1, 4),            # depth below the prefix length
        ("d4-periodic", 2 * LEVEL_BLOCK + 5, 7),  # tail phases across level blocks
        ("zn500", LEVEL_BLOCK + 1, 3),         # ids and table indices past int16
        ("s3", 3, CHUNK_SIZE + 3),
    ])
    def test_matches_per_level_reference(self, spec, depth, size):
        noise = noise_from_spec(GOLDEN_SPECS[spec])
        got = sample_noise(noise, depth, size, seed=11, chunk=2)
        assert got.dtype == noise.group.id_dtype
        assert np.array_equal(got, sample_noise_per_level(noise, depth, size, seed=11, chunk=2).T)

    def test_one_inversion_per_measure_and_level_block(self, monkeypatch):
        prefix = [delta(S3, 2), Measure(S3, [0.5, 0, 0, 0.5, 0, 0])]
        tail = [haar(S3), delta(S3, 1), Measure(S3, [0, 0.25, 0.25, 0.5, 0, 0])]
        noise = NoiseLaw(group=S3, prefix=tuple(prefix), tail=tuple(tail))
        depth = 4 * LEVEL_BLOCK + 9
        blocks = []

        def counting(mu, u):
            block = u.base if u.base is not None else u
            # the uniforms held at once cover at most LEVEL_BLOCK levels
            assert block.shape[0] <= LEVEL_BLOCK
            if not blocks or blocks[-1][0] is not block:
                blocks.append([block, 0])
            blocks[-1][1] += 1
            return inverse_cdf(mu, u)

        monkeypatch.setattr(solutions, "inverse_cdf", counting)
        got = sample_noise(noise, depth, 6, seed=3, chunk=0)
        assert len(blocks) == -(-(depth + 1) // LEVEL_BLOCK)
        assert all(calls <= len(prefix) + len(tail) for _, calls in blocks)
        assert np.array_equal(got, sample_noise_per_level(noise, depth, 6, seed=3, chunk=0).T)

    @pytest.mark.parametrize("name, depth", [
        ("prefix-then-period-2-points", 2 * LEVEL_BLOCK + 5),
        ("70-random-prefix-levels", 2 * LEVEL_BLOCK + 5),  # random levels past one block
        ("random-then-point-prefix", 2 * LEVEL_BLOCK + 5),
        ("all-point-masses", LEVEL_BLOCK + 3),
        ("70-random-prefix-levels", 10),                   # depth below the prefix length
        ("random-then-point-prefix", 1),
    ])
    def test_point_mass_levels_match_per_level_reference(self, name, depth):
        noise = POINT_MASSES_BELOW[name]
        got = sample_noise(noise, depth, 7, seed=11, chunk=2)
        assert np.array_equal(got, sample_noise_per_level(noise, depth, 7, seed=11, chunk=2).T)

    @pytest.mark.parametrize("name, random_levels", [
        ("prefix-then-period-2-points", 1), ("70-random-prefix-levels", 70),
        ("random-then-point-prefix", 1), ("all-point-masses", 0),
    ])
    def test_uniforms_stop_at_the_last_random_level(self, monkeypatch, name, random_levels):
        noise = POINT_MASSES_BELOW[name]
        assert noise.random_levels() == random_levels
        assert _uniforms_requested(monkeypatch, noise, 10_000, 5) == random_levels * 5

    @pytest.mark.parametrize("name", sorted(RANDOM_TAIL_PHASE))
    def test_uniforms_at_every_level_behind_a_random_tail_phase(self, monkeypatch, name):
        noise = RANDOM_TAIL_PHASE[name]
        assert noise.random_levels() is None
        assert _uniforms_requested(monkeypatch, noise, 10_000, 5) == 10_001 * 5

    def test_marginal_law(self, case_a):
        noise, _ = case_a
        ens = uniform_ensemble(noise, depth=3, n_paths=100_000, seed=1)
        emp = empirical(Z4, ens.xi_col(0))
        assert tv_distance(emp, haar(Z4)) < 0.02


class TestUniformSolution:
    def test_single_path_recursion(self, case_c):
        noise, _ = case_c
        path = uniform_ensemble(noise, 12, n_paths=1, seed=3)
        assert row_recursion_holds(path, 0)
        assert path.kind == "uniform"

    def test_marginal_is_haar(self, case_c):
        noise, _ = case_c
        ens = uniform_ensemble(noise, depth=10, n_paths=10_000, seed=5)
        emp = empirical(Z4, ens.eta_col(0))
        assert tv_distance(emp, haar(Z4)) < 0.05

    def test_eta0_independent_of_xi0(self, case_c):
        from convlimit.stats import chi_square_independence

        noise, _ = case_c
        ens = uniform_ensemble(noise, depth=10, n_paths=10_000, seed=6)
        res = chi_square_independence(list(zip(ens.eta_col(0), ens.xi_col(0))))
        assert res.p_value > 0.01

    def test_ensemble_matches_chunked_determinism(self, case_c):
        noise, _ = case_c
        a = uniform_ensemble(noise, depth=5, n_paths=5000, seed=9)
        b = uniform_ensemble(noise, depth=5, n_paths=5000, seed=9)
        assert np.array_equal(a.eta, b.eta)
        assert np.array_equal(a.xi, b.xi)

    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    def test_thread_variable_is_ignored(self, case_c, monkeypatch, value):
        noise, _ = case_c
        monkeypatch.delenv("CONV_LIMIT_THREADS", raising=False)
        unset = uniform_ensemble(noise, depth=5, n_paths=10, seed=11)
        monkeypatch.setenv("CONV_LIMIT_THREADS", value)
        ens = uniform_ensemble(noise, depth=5, n_paths=10, seed=11)
        assert np.array_equal(ens.eta, unset.eta) and np.array_equal(ens.xi, unset.xi)


class TestExtremalSolution:
    def test_case_b_deterministic_and_trivial_u(self, case_b):
        noise, res = case_b
        depth = 2 * res.depth_used
        path = extremal_ensemble(noise, res, depth, 1, seed=0)
        assert row_recursion_holds(path, 0)
        assert (path.U == 0).all()
        assert np.array_equal(Z4.mul[path.phi, path.U], path.eta)
        # strong solution: eta is a function of the noise alone
        path2 = extremal_ensemble(noise, res, depth, 1, seed=99)
        assert np.array_equal(path.eta, path2.eta)

    def test_case_b_matches_limit_law_exactly(self, case_b):
        noise, res = case_b
        path = single_path(noise, res, seed=1)
        for k in range(path.k_min, 1):
            lam = res.lambdas[k]
            assert lam.weights[path.eta_col(k)[0]] == 1.0

    def test_case_c_u0_uniform_on_h(self, case_c):
        from convlimit.stats import chi_square_uniformity

        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 10_000, seed=7)
        u0 = ens.u_col(0)
        r = chi_square_uniformity(u0, res.subgroup)
        assert r.p_value > 0.01

    def test_case_c_marginal_matches_lambda0(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 10_000, seed=8)
        emp = empirical(Z4, ens.eta_col(0))
        assert tv_distance(emp, res.lambda0) < 0.05

    def test_reconstruction_exact_every_path(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 2000, seed=9)
        recon = Z4.mul[ens.phi, ens.U]
        assert np.array_equal(recon, ens.eta)

    def test_u_members_stay_in_h(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 2000, seed=10)
        assert set(np.unique(ens.U)) <= set(res.subgroup.members)

    def test_pinned_u0(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 100, seed=11, u0=2)
        assert (ens.u_col(0) == 2).all()

    def test_centerings_fetched_once_for_every_chunk(self, case_c, monkeypatch):
        noise, res = case_c
        calls = []

        def counted(result, levels):
            calls.append(tuple(levels))
            return extend_centerings(result, levels)

        monkeypatch.setattr(solutions, "extend_centerings", counted)
        extremal_ensemble(noise, res, 2 * res.depth_used, CHUNK_SIZE + 1, seed=3)
        assert calls == [(-solutions.window_cut(noise, res.k_min),)]

    def test_depth_validation(self, case_c):
        noise, res = case_c
        cut = solutions.window_cut(noise, res.k_min)
        with pytest.raises(InvalidSpec, match=rf"it needs depth >= {cut}$"):
            extremal_ensemble(noise, res, cut - 1, 10, seed=0)
        assert extremal_ensemble(noise, res, cut, 10, seed=0).xi.shape == (cut + 1, 10)

    def test_bad_u0_rejected(self, case_c):
        noise, res = case_c
        with pytest.raises(InvalidSpec, match="not a member of H"):
            single_path(noise, res, seed=0, u0=1)


class TestGeneralSolution:
    def test_identity_v_law_reproduces_extremal(self, case_c):
        noise, res = case_c
        path = single_path(noise, res, seed=2)
        mixed = general_ensemble(path, delta(Z4, 0), seed=3)
        assert np.array_equal(mixed.eta, path.eta)
        assert mixed.V.tolist() == [0]

    def test_haar_v_law_gives_haar_marginals(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 10_000, seed=12)
        mixed = general_ensemble(ens, haar(Z4), seed=13)
        emp = empirical(Z4, mixed.eta_col(0))
        assert tv_distance(emp, haar(Z4)) < 0.05

    def test_point_v_law_translates_marginals(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 10_000, seed=14)
        mixed = general_ensemble(ens, delta(Z4, 3), seed=15)
        emp = empirical(Z4, mixed.eta_col(0))
        assert tv_distance(emp, translate_right(res.lambda0, 3)) < 0.05

    def test_recursion_preserved(self, case_c):
        noise, res = case_c
        path = single_path(noise, res, seed=4)
        mixed = general_ensemble(path, haar(Z4), seed=5)
        assert row_recursion_holds(mixed, 0)


class TestDecompose:
    def test_round_trip_recovers_v_gauge(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 3000, seed=16)
        mixed = general_ensemble(ens, haar(Z4), seed=17)
        dec, audit = decompose_ensemble(mixed, res, noise=noise)
        assert audit["exact_reconstruction"] == 3000
        # exact reconstruction per path
        recon = Z4.mul[dec.phi, Z4.mul[dec.U, dec.V]]
        assert np.array_equal(recon, mixed.eta)
        # gauge: V = s(V^{-1} coset)^{-1}
        space = left_cosets(Z4, res.subgroup)
        sec = default_section(space)
        for v in np.unique(dec.V):
            vinv = int(Z4.inv[v])
            assert int(Z4.inv[sec.of(vinv)]) == v
        # recovered V sits in the drawn V's H-coset
        vdiff = Z4.mul[Z4.inv[mixed.V], dec.V]
        assert set(np.unique(vdiff)) <= set(res.subgroup.members)

    def test_single_path_round_trip(self, case_c):
        noise, res = case_c
        path = single_path(noise, res, seed=6)
        mixed = general_ensemble(path, delta(Z4, 3), seed=7)
        dec, _ = decompose_ensemble(mixed, res, noise=noise)
        assert np.array_equal(Z4.mul[dec.phi, Z4.mul[dec.U, dec.V]], mixed.eta)
        assert all(u in res.subgroup for u in dec.U[:, 0])

    def test_case_b_noise_measurable(self, case_b):
        noise, res = case_b
        path = single_path(noise, res, seed=8)
        mixed = general_ensemble(path, delta(Z4, 2), seed=9)
        dec, _ = decompose_ensemble(mixed, res, noise=noise)
        # H trivial: U identically the identity and eta = phi * V
        assert (dec.U == 0).all()
        assert np.array_equal(Z4.mul[dec.phi, dec.V], mixed.eta)

    def test_case_a_degenerate_run(self, case_a):
        noise, res = case_a
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 500, seed=18)
        dec, _ = decompose_ensemble(ens, res, noise=noise)
        recon = Z4.mul[dec.phi, Z4.mul[dec.U, dec.V]]
        assert np.array_equal(recon, ens.eta)
        # H = G: the coset part is constant and V is pinned to the identity gauge
        assert set(np.unique(dec.phi)) == {0}

    def test_uniform_solution_on_case_a_decomposes(self, case_a):
        # H = G degenerate run on the uniform solution: phi pinned to the
        # section representative, V to the identity gauge, U = eta exactly
        noise, res = case_a
        ens = uniform_ensemble(noise, depth=2 * res.depth_used, n_paths=300, seed=19)
        dec, audit = decompose_ensemble(ens, res, noise=noise, k_min=-8)
        assert audit["window"] == [-8, 0]
        assert set(np.unique(dec.phi)) == {0}
        assert set(np.unique(dec.V)) == {0}
        assert np.array_equal(dec.U, ens.eta[ens.eta.shape[0] - 9:])
        recon = Z4.mul[dec.phi, Z4.mul[dec.U, dec.V]]
        assert np.array_equal(recon, dec.eta)

    def test_report_window_cannot_exceed_path_window(self, case_c):
        noise, res = case_c
        path = single_path(noise, res, seed=20)
        with pytest.raises(InvalidSpec):
            decompose_ensemble(path, res, noise=noise, k_min=path.k_min - 5)

    def test_gauge_invariance_across_sections(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 1000, seed=19)
        mixed = general_ensemble(ens, haar(Z4), seed=20)
        space = left_cosets(Z4, res.subgroup)
        alt = section_from_representatives(space, [2, 3])
        d1, _ = decompose_ensemble(mixed, res, noise=noise)
        d2, _ = decompose_ensemble(mixed, res, section=alt, noise=noise)
        r1 = Z4.mul[d1.phi, Z4.mul[d1.U, d1.V]]
        r2 = Z4.mul[d2.phi, Z4.mul[d2.U, d2.V]]
        assert np.array_equal(r1, mixed.eta)
        assert np.array_equal(r2, mixed.eta)
        assert not np.array_equal(d1.phi, d2.phi)

    def test_corrupted_path_raises(self, case_c):
        noise, res = case_c
        path = single_path(noise, res, seed=10)
        mixed = general_ensemble(path, haar(Z4), seed=11)
        eta = mixed.eta.copy()
        eta[0, 0] = (eta[0, 0] + 1) % 4  # break the remote past at k_min
        broken = dataclasses.replace(mixed, eta=eta)
        with pytest.raises(CosetNotStabilized):
            decompose_ensemble(broken, res, noise=noise)

    @pytest.mark.parametrize("level, path", [("deepest", 3), ("deepest", 10), ("top", 3)])
    def test_off_support_noise_names_its_path_and_level(self, case_c, level, path):
        # the tail law sits on {0, 2}; xi_k = 1 on one path, at the deepest or
        # the top level; path 10 lies past the window's 9 rows
        noise, res = case_c
        depth = 2 * res.depth_used
        xi = np.zeros((depth + 1, 12), dtype=Z4.id_dtype)
        row, k = (0, -depth) if level == "deepest" else (depth, 0)
        xi[row, path] = 1
        eta = np.zeros((-res.k_min + 1, 12), dtype=Z4.id_dtype)
        eta[-1] = xi[-1]  # eta_0 = xi_0 eta_(-1), and every other level stays at 0
        ens = solutions.Ensemble(group=Z4, kind="mixture", seed=0, xi=xi, eta=eta)
        with pytest.raises(CosetNotStabilized, match=rf"path {path} has xi_k = 1 at k={k}, "
                           "outside the support of mu_k"):
            decompose_ensemble(ens, res, noise)

    def test_altered_point_mass_row_is_refused(self, tmp_path, capsys):
        # the kernel walks only from the cut and never reads the point-mass
        # rows below it; the support check still does
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(Q8_CASE_B_PREFIX_SPEC))
        common = ["--input", str(spec), "--seed", "3"]
        assert cli.main(["simulate", "--out", str(tmp_path / "sim"), *common, "--paths", "12",
                         "--kind", "mixture"]) == 0
        payload = json.loads((tmp_path / "sim" / "ensemble.json").read_text())
        depth, x = payload["depth"], payload["paths"][10]["xi"][1]
        payload["paths"][10]["xi"][1] = int(Q8.mul[x, 4])  # k = 1 - depth, tail phase point 6
        (tmp_path / "altered.json").write_text(json.dumps(payload))
        message = rf"path 10 has xi_k = {int(Q8.mul[x, 4])} at k={1 - depth}, outside the support"

        noise = noise_from_spec(Q8_CASE_B_PREFIX_SPEC)
        ens = cli._ensemble_from_file(str(tmp_path / "altered.json"), Q8)
        with pytest.raises(CosetNotStabilized, match=message):
            decompose_ensemble(ens, compute_limit(noise), noise)
        capsys.readouterr()
        assert cli.main(["decompose", "--out", str(tmp_path / "dec"), *common,
                         "--ensemble", str(tmp_path / "altered.json")]) == 5
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("depth", [1, 20])
    def test_support_break_names_each_off_support_level(self, depth):
        # a prefix and a period-3 tail, whose laws are gathered a level group at
        # a time; depth 1 stops inside the prefix
        prefix = (delta(S3, 2), Measure(S3, [0.5, 0, 0, 0.5, 0, 0]))
        tail = (haar(S3), delta(S3, 1), Measure(S3, [0, 0.25, 0.25, 0.5, 0, 0]))
        noise = NoiseLaw(group=S3, prefix=prefix, tail=tail)
        xi = sample_noise(noise, depth, 4, seed=5, chunk=0)
        assert solutions.support_break(noise, xi) is None
        for k in range(-depth, 1):
            for x in np.flatnonzero(noise.measure_at(k).weights == 0):
                bad = xi.copy()
                bad[k + depth, 2] = x
                assert solutions.support_break(noise, bad) == (2, k, x)
        if depth >= 6:
            # two off-support draws: tail phase 2 at k=-4 and the deeper phase 1
            # at k=-6 (phase 0 is Haar). Phases are gathered in phase order, so
            # the deeper draw of the earlier phase is the witness.
            bad = xi.copy()
            bad[-4 + depth, 0] = 0
            bad[-6 + depth, 3] = 5
            assert solutions.support_break(noise, bad) == (3, -6, 5)


@pytest.fixture(scope="module", params=sorted(CUT_LAWS))
def cut_law(request):
    noise = CUT_LAWS[request.param]
    res = compute_limit(noise)
    cut = solutions.window_cut(noise, res.k_min)
    assert (res.case, cut) == (request.param, 9 if res.case == "A" else len(noise.prefix) - 1)
    return noise, res, cut


def _mixture(noise, res, depth, seed):
    return general_ensemble(extremal_ensemble(noise, res, depth, 300, seed=seed),
                            haar(noise.group), seed=seed + 1)


class TestOneCut:
    """Every path reads its noise from the cut up; the rows below only pass the support check."""

    def test_same_paths_at_the_cut_and_at_depth_200(self, cut_law):
        noise, res, cut = cut_law
        at_cut = extremal_ensemble(noise, res, cut, 300, seed=4)
        deep = extremal_ensemble(noise, res, 200, 300, seed=4)
        assert np.array_equal(at_cut.xi, deep.xi[200 - cut:])
        for name in ("eta", "phi", "U"):
            assert np.array_equal(getattr(at_cut, name), getattr(deep, name)), name

    def test_redrawn_rows_below_the_cut_leave_the_factors(self, cut_law):
        noise, res, cut = cut_law
        ens = _mixture(noise, res, 200, seed=5)
        xi, rng = ens.xi.copy(), np.random.default_rng(6)
        for k in range(-200, -cut):
            xi[k + 200] = rng.choice(np.flatnonzero(noise.measure_at(k).weights), ens.n_paths)
        # below the cut, only cases A and C have a law with two support points
        assert np.array_equal(xi, ens.xi) == (res.case == "B")
        dec, _ = decompose_ensemble(ens, res, noise)
        redrawn, _ = decompose_ensemble(dataclasses.replace(ens, xi=xi), res, noise)
        for name in ("phi", "U", "V"):
            assert np.array_equal(getattr(dec, name), getattr(redrawn, name)), name

    @pytest.mark.parametrize("k", [-200, "below the cut"])
    def test_off_support_row_below_the_cut_is_refused(self, cut_law, k):
        noise, res, cut = cut_law
        k = -cut - 1 if k == "below the cut" else k
        ens = _mixture(noise, res, 200, seed=7)
        xi = ens.xi.copy()
        x = int(np.flatnonzero(noise.measure_at(k).weights == 0)[0])
        xi[k + 200, 17] = x
        with pytest.raises(CosetNotStabilized,
                           match=rf"path 17 has xi_k = {x} at k={k}, outside the support"):
            decompose_ensemble(dataclasses.replace(ens, xi=xi), res, noise)

    def test_replaced_xi_carries_its_extent(self, cut_law):
        noise, res, cut = cut_law
        ens = _mixture(noise, res, 200, seed=8)
        at_cut = dataclasses.replace(ens, xi=ens.xi[-(cut + 1):])
        assert at_cut.depth == cut
        assert np.array_equal(at_cut.xi_col(0), ens.xi[-1])
        dec, _ = decompose_ensemble(ens, res, noise)
        dec_at_cut, _ = decompose_ensemble(at_cut, res, noise)
        for name in ("phi", "U", "V"):
            assert np.array_equal(getattr(dec, name), getattr(dec_at_cut, name)), name


class TestTorusDecompose:
    def test_p1_trivial_u(self, case_b):
        noise, res = case_b
        path = single_path(noise, res, seed=12)
        mixed = general_ensemble(path, delta(Z4, 1), seed=13)
        phi, U, V = torus_decompose(Z4, mixed.xi[:, 0], mixed.eta[:, 0], 1, res, noise)
        assert (U == 0).all()
        assert np.array_equal((phi + V) % 4, mixed.eta[:, 0])
        dec, _ = decompose_ensemble(mixed, res, noise=noise)
        assert np.array_equal(dec.phi[:, 0], phi)
        assert np.array_equal(dec.U[:, 0], U)
        assert int(dec.V[0]) == V

    def test_matches_group_engine_per_path(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 200, seed=22)
        mixed = general_ensemble(ens, haar(Z4), seed=23)
        dec, _ = decompose_ensemble(mixed, res, noise=noise)
        for i in range(0, 200, 17):
            phi, U, V = torus_decompose(Z4, mixed.xi[:, i], mixed.eta[:, i], 2, res, noise)
            assert np.array_equal(dec.phi[:, i], phi)
            assert np.array_equal(dec.U[:, i], U)
            assert int(dec.V[i]) == V

    def test_u_uniform_on_h(self, case_c):
        from convlimit.stats import chi_square_uniformity

        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 10_000, seed=24)
        mixed = general_ensemble(ens, haar(Z4), seed=25)
        u0 = []
        for i in range(500):
            _, U, _ = torus_decompose(Z4, mixed.xi[:, i], mixed.eta[:, i], 2, res, noise)
            u0.append(U[-1])  # the window ends at k = 0
        r = chi_square_uniformity(np.array(u0), res.subgroup)
        assert r.p_value > 0.01

    def test_grid_mismatch(self, case_c):
        noise, res = case_c
        path = single_path(noise, res, seed=14)
        with pytest.raises(GridMismatch):
            torus_decompose(Z4, path.xi[:, 0], path.eta[:, 0], 3, res, noise)

    def test_non_cyclic_group_rejected(self):
        noise = constant_noise(haar(S3))
        res = compute_limit(noise)
        path = single_path(noise, res, seed=15)
        with pytest.raises(GridMismatch):
            torus_decompose(S3, path.xi[:, 0], path.eta[:, 0], 2, res, noise)


@pytest.fixture(scope="module")
def s3_case():
    lab = {name: i for i, name in enumerate(S3.element_labels)}
    w = np.zeros(6)
    for t in ("(12)", "(13)", "(23)"):
        w[lab[t]] = 1 / 3
    noise = constant_noise(Measure(S3, w))
    return noise, compute_limit(noise)


class TestNonAbelianPipeline:
    """S3 with a uniform-transposition tail: H = A3 and the noise-limit
    coset flips every step, exercising the order-sensitive algebra."""

    def test_classification(self, s3_case):
        _, res = s3_case
        assert res.case == "C"
        assert [S3.element_labels[g] for g in res.subgroup.members] == ["e", "(123)", "(132)"]

    def test_extremal_reconstruction_with_moving_cosets(self, s3_case):
        noise, res = s3_case
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 4000, seed=31)
        assert np.array_equal(S3.mul[ens.phi, ens.U], ens.eta)
        # the coset part genuinely moves: phi alternates between the A3
        # representative and a transposition, path-independently in parity
        assert set(np.unique(ens.phi)) == {0, 1}
        assert set(np.unique(ens.U)) <= set(res.subgroup.members)

    def test_u0_uniform_and_marginal(self, s3_case):
        from convlimit.stats import chi_square_uniformity

        noise, res = s3_case
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 10_000, seed=32)
        r = chi_square_uniformity(ens.u_col(0), res.subgroup)
        assert r.p_value > 0.01
        emp = empirical(S3, ens.eta_col(0))
        assert tv_distance(emp, res.lambda0) < 0.05

    def test_mixture_round_trip_exact(self, s3_case):
        noise, res = s3_case
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 4000, seed=33)
        mixed = general_ensemble(ens, haar(S3), seed=34)
        dec, audit = decompose_ensemble(mixed, res, noise=noise)
        assert audit["exact_reconstruction"] == 4000
        recon = S3.mul[dec.phi, S3.mul[dec.U, dec.V]]
        assert np.array_equal(recon, mixed.eta)
        # gauge identity for the recovered V
        space = left_cosets(S3, res.subgroup)
        sec = default_section(space)
        for v in np.unique(dec.V):
            assert int(S3.inv[sec.of(int(S3.inv[v]))]) == v
        # recovered and drawn V agree up to a right H-factor: V_rec = h^-1 V
        shift = S3.mul[dec.V, S3.inv[mixed.V]]
        assert set(np.unique(shift)) <= set(res.subgroup.members)

    def test_verify_battery_green(self, s3_case):
        from convlimit.stats import verify_theorems

        noise, res = s3_case
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 10_000, seed=35)
        report = verify_theorems(noise, res, ens)
        assert report.passed, report.failures
        assert report.hiso_detected == res.subgroup.members


class TestEnsemblePlumbing:
    def test_records_schema(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 3, seed=26)
        recs = json.loads(ens.to_records())
        assert len(recs) == 3
        assert recs[0]["path_id"] == 0
        assert len(recs[0]["eta"]) == -ens.k_min + 1
        assert len(recs[0]["xi"]) == ens.depth + 1
        assert recs[0]["V"] is None

    def test_path_extraction_consistent(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 2 * res.depth_used, 5, seed=27)
        assert row_recursion_holds(ens, 2)
        # column accessors address the window by k
        assert ens.eta_col(0)[2] == ens.eta[-1, 2]
        assert ens.eta_col(ens.k_min)[2] == ens.eta[0, 2]
        assert ens.xi_col(0)[2] == ens.xi[-1, 2]
        assert ens.xi_col(-ens.depth)[2] == ens.xi[0, 2]

    def test_column_accessors_refuse_levels_outside_their_rows(self, case_c):
        noise, res = case_c
        ens = extremal_ensemble(noise, res, 1, 5, seed=27, k_min=0)
        for name, bottom in (("xi_col", -1), ("eta_col", 0), ("u_col", 0)):
            for k in (bottom - 1, 1):
                with pytest.raises(BadRange, match=rf"holds k = {bottom}..0, got k={k}"):
                    getattr(ens, name)(k)


@pytest.mark.parametrize("build", [
    lambda noise, res: uniform_ensemble(noise, -1, 5, seed=1),
    lambda noise, res: uniform_ensemble(noise, 5, -1, seed=1),
    lambda noise, res: extremal_ensemble(noise, res, 2 * res.depth_used, -1, seed=1),
    lambda noise, res: extremal_ensemble(noise, res, 2 * res.depth_used, 5, seed=1, k_min=1),
    lambda noise, res: decompose_ensemble(single_path(noise, res, seed=1), res, noise, k_min=1),
], ids=["uniform-depth", "uniform-paths", "extremal-paths", "extremal-k-min", "decompose-k-min"])
def test_sizes_and_windows_refused(case_c, build):
    with pytest.raises(InvalidSpec):
        build(*case_c)


@pytest.mark.parametrize("name", ["S4", "Zn:500"])
def test_every_array_is_level_major(name, tmp_path):
    """One row per level and one column per path, C-contiguous, in the id dtype;
    an ensemble read back from its record file too."""
    ensembles = _ensembles_of_every_kind(name, 5)
    cli._write_json(tmp_path / "mixture.json", {"kind": "mixture", "depth": ensembles["mixture"].depth,
                                                "k_min": ensembles["mixture"].k_min,
                                                "paths": ensembles["mixture"]})
    ensembles["file"] = cli._ensemble_from_file(str(tmp_path / "mixture.json"), builtin_group(name))
    for kind, ens in ensembles.items():
        window = (-ens.k_min + 1, 5)
        shapes = {"xi": (ens.depth + 1, 5), "eta": window, "phi": window, "U": window, "V": (5,)}
        for field, shape in shapes.items():
            a = getattr(ens, field)
            if a is None:
                continue
            assert a.shape == shape, (kind, field)
            assert a.flags.c_contiguous, (kind, field)
            assert a.dtype == ens.group.id_dtype, (kind, field)
    assert {f.name for f in dataclasses.fields(solutions.Ensemble)}.isdisjoint({"subgroup", "section"})


def _case_c_on(name):
    """(noise, limit) of a case C constant tail on {e, g}, g the middle element of a builtin group."""
    group = builtin_group(name)
    w = np.zeros(group.order)
    w[[0, group.order // 2]] = 0.5
    noise = constant_noise(Measure(group, w))
    return noise, compute_limit(noise)


def _ensembles_of_every_kind(name, n_paths):
    """Uniform, extremal, mixture, decomposed and shallower-decomposed ensembles on a
    builtin group, with the case C tail of :func:`_case_c_on`."""
    noise, res = _case_c_on(name)
    group = noise.group
    depth = 2 * res.depth_used
    ext = extremal_ensemble(noise, res, depth, n_paths, seed=31)
    mix = general_ensemble(ext, haar(group), seed=32)
    dec, _ = decompose_ensemble(mix, res, noise=noise)
    shallow, _ = decompose_ensemble(mix, res, noise=noise, k_min=res.k_min // 2)
    return {"uniform": uniform_ensemble(noise, depth, n_paths, seed=33), "extremal": ext,
            "mixture": mix, "decomposed": dec, "decomposed-shallow": shallow}


@pytest.mark.parametrize("n_paths", [1, CHUNK_SIZE, CHUNK_SIZE + 3])
@pytest.mark.parametrize("name, ids, flat", [("D4", np.int8, np.int8),
                                             ("product:D4xZn:64", np.int16, np.int32)])
def test_kernels_match_the_fancy_index_products(name, ids, flat, n_paths):
    """Every array of every kind equals the one built by 2-D fancy indexes into the
    int64 mul, in the id dtype, one chunk, a full chunk and a chunk and a bit."""
    noise, res = _case_c_on(name)
    group, depth = noise.group, 2 * res.depth_used
    assert (group.id_dtype, id_dtype(group.order ** 2)) == (ids, flat)
    ext = extremal_by_fancy_index(noise, res, depth, n_paths, seed=31)
    mix = mixture_by_fancy_index(group, ext, haar(group), seed=32)
    expected = {
        "uniform": uniform_by_fancy_index(noise, depth, n_paths, seed=33),
        "extremal": ext,
        "mixture": mix,
        "decomposed": decompose_by_fancy_index(noise, res, mix["xi"], mix["eta"], res.k_min),
        "decomposed-shallow": decompose_by_fancy_index(noise, res, mix["xi"], mix["eta"],
                                                       res.k_min // 2),
    }
    for kind, ens in _ensembles_of_every_kind(name, n_paths).items():
        fields = {f for f in ("xi", "eta", "phi", "U", "V") if getattr(ens, f) is not None}
        assert fields == set(expected[kind]), kind
        for field in fields:
            got = getattr(ens, field)
            assert got.dtype == ids and np.array_equal(got, expected[kind][field]), (kind, field)


@pytest.mark.parametrize("kind", ["uniform", "extremal", "mixture", "decomposed",
                                  "decomposed-shallow"])
def test_builders_run_every_chunk_on_the_calling_thread(kind, monkeypatch):
    """With CONV_LIMIT_THREADS=3 set, no builder starts a thread over three chunks, and
    every array of the kind is the one a run with the variable unset returns."""
    monkeypatch.delenv("CONV_LIMIT_THREADS", raising=False)
    unset = _ensembles_of_every_kind("Z4", 2 * CHUNK_SIZE + 3)[kind]
    monkeypatch.setenv("CONV_LIMIT_THREADS", "3")
    before, seen = threading.active_count(), []

    def counted(fn):
        def wrapper(*args, **kwargs):
            seen.append(threading.active_count())
            return fn(*args, **kwargs)
        return wrapper

    # every chunk draws from _stream, and the extremal and decomposing kernels walk
    # centered_window: each call sees the thread count the builder was called with
    for name in ("_stream", "centered_window"):
        monkeypatch.setattr(solutions, name, counted(getattr(solutions, name)))
    ens = _ensembles_of_every_kind("Z4", 2 * CHUNK_SIZE + 3)[kind]
    assert seen and set(seen) == {before} and threading.active_count() == before
    for field in ("xi", "eta", "phi", "U", "V"):
        a, b = getattr(unset, field), getattr(ens, field)
        assert (a is None) == (b is None) and (a is None or np.array_equal(a, b)), field


@pytest.mark.parametrize("name, n_paths", [
    ("Z4", 1), ("Z4", CHUNK_SIZE + 3), ("S4", 1), ("S4", 40), ("Zn:500", 1), ("Zn:500", 40),
    ("Z4", 0),
])
def test_records_text_is_byte_identical_to_json_dumps(name, n_paths, tmp_path, monkeypatch):
    """The spliced file equals json.dumps of the oracle's per-path dicts, byte for byte,
    for 1-, 2- and 3-digit ids, one chunk and several."""
    monkeypatch.setattr(cli, "_timestamp", lambda: "fixed")
    for kind, ens in _ensembles_of_every_kind(name, n_paths).items():
        payload = {"kind": ens.kind, "n_paths": ens.n_paths}
        cli._write_json(tmp_path / "out.json", {**payload, "paths": ens})
        body = {"schema_version": cli.SCHEMA_VERSION, "generated_at": "fixed", **payload,
                "paths": ensemble_records(ens)}
        expected = json.dumps(body, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == expected, kind


ORACLE_SPECS = {
    **GOLDEN_SPECS,
    "z4-case-a": {"group": {"kind": "builtin", "name": "Z4"}, "prefix": [],
                  "tail": {"kind": "constant", "mu": {"kind": "haar"}}},
    # the kernels walk from the cut, the oracles every level from the depth
    "q8-case-b-prefix": Q8_CASE_B_PREFIX_SPEC,
    "s3-near-symmetry": S3_NEAR_SYMMETRY_SPEC,
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_kernels_match_reference_oracles(name):
    """Extremal, mixture and decomposed ensembles equal the reference kernels on every row.

    The decompositions run on a mixture at its full window and at a shallower
    one, and on a uniform solution at the limit's window.
    """
    noise = noise_from_spec(ORACLE_SPECS[name])
    res = compute_limit(noise)
    group, depth, n_paths, seed = noise.group, 2 * res.depth_used, 60, 41
    space = left_cosets(group, res.subgroup)
    section = default_section(space)
    alphas = extend_centerings(res, (-depth, -(depth // 2)))
    members = np.array(res.subgroup.members)
    u0 = members[_stream(seed, _PURPOSE_U0, 0).integers(0, members.size, size=n_paths)]

    ext = extremal_ensemble(noise, res, depth, n_paths, seed=seed)
    eta, phi, U = (a.T for a in extremal_from_xi(group, space, section, alphas, ext.xi.T, depth,
                                                   ext.k_min, u0))
    assert np.array_equal(ext.eta, eta)
    assert np.array_equal(ext.phi, phi)
    assert np.array_equal(ext.U, U)

    mix = general_ensemble(ext, haar(group), seed=seed + 1)
    assert np.array_equal(mix.eta, group.mul[eta, mix.V])
    uni = uniform_ensemble(noise, depth, n_paths, seed=seed + 2)
    for ens in (ext, mix, uni):
        assert all(row_recursion_holds(ens, i) for i in range(n_paths)), ens.kind

    for ens, k_min in ((mix, ext.k_min), (mix, ext.k_min // 2), (uni, ext.k_min)):
        dec, _ = decompose_ensemble(ens, res, noise, k_min=k_min)
        window = ens.eta[k_min - ens.k_min:]
        phi, U, V = decompose_core(group, space, section, alphas, ens.xi.T, depth, window.T, k_min)
        assert np.array_equal(dec.eta, window)
        assert np.array_equal(dec.phi, phi.T)
        assert np.array_equal(dec.U, U.T)
        assert np.array_equal(dec.V, V)
