import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlimit.cli import main

Z4_CASE_C_SPEC = {
    "group": {"kind": "builtin", "name": "Z4"},
    "prefix": [],
    "tail": {"kind": "constant", "mu": {"kind": "weights", "w": [0.5, 0.0, 0.5, 0.0]}},
}

TORUS_HALF_ATOMS_SPEC = {
    "prefix": [],
    "tail": {"kind": "constant", "mu": {"kind": "atoms", "points": [[0.0, 0.5], [0.5, 0.5]]}},
}


def write_spec(tmp_path, spec, name="noise.json"):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return p


def strip_timestamp(text: str) -> str:
    return re.sub(r'^\s*"generated_at": ".*",?$', "", text, flags=re.M)


class TestClassify:
    def test_finite_case_c(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        out = tmp_path / "out"
        assert main(["classify", "--input", str(spec), "--out", str(out)]) == 0
        payload = json.loads((out / "classification.json").read_text())
        assert payload["case"] == "C"
        assert payload["subgroup"]["members"] == [0, 2]
        assert payload["strong_subgroup"]["members"] == [0, 2]
        assert payload["schema_version"] == 1

    def test_torus_case_c(self, tmp_path):
        spec = write_spec(tmp_path, TORUS_HALF_ATOMS_SPEC)
        out = tmp_path / "out"
        rc = main(["classify", "--input", str(spec), "--out", str(out), "--torus"])
        assert rc == 0
        payload = json.loads((out / "classification.json").read_text())
        assert payload["p_mu"] == 2
        assert payload["case"] == "C"
        assert (out / "pi_table.csv").exists()
        assert (out / "pi_curves.csv").exists()

    def test_case_a(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "group": {"kind": "builtin", "name": "Z4"},
                "tail": {"kind": "constant", "mu": {"kind": "haar"}},
            },
        )
        out = tmp_path / "out"
        assert main(["classify", "--input", str(spec), "--out", str(out)]) == 0
        payload = json.loads((out / "classification.json").read_text())
        assert payload["case"] == "A"

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", "--input", str(bad), "--out", str(tmp_path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["classify", "--input", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_no_convergence_exit_3(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        rc = main(["classify", "--input", str(spec), "--out", str(tmp_path),
                   "--max-depth", "5"])
        assert rc == 3

    def test_indeterminate_exit_4(self, tmp_path):
        a = 1e-10
        spec = write_spec(
            tmp_path,
            {
                "prefix": [],
                "tail": {
                    "kind": "constant",
                    "mu": {"kind": "atoms", "points": [[0.0, 1.0 - a], [0.5, a]]},
                },
            },
        )
        rc = main(["classify", "--input", str(spec), "--out", str(tmp_path), "--torus"])
        assert rc == 4

    def test_malformed_spec_writes_nothing(self, tmp_path):
        spec = write_spec(tmp_path, {"group": {"kind": "builtin", "name": "Z4"}})
        out = tmp_path / "fresh"
        assert main(["classify", "--input", str(spec), "--out", str(out)]) == 2
        assert not (out / "classification.json").exists()


class TestLimit:
    def test_outputs(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        out = tmp_path / "out"
        assert main(["limit", "--input", str(spec), "--out", str(out)]) == 0
        payload = json.loads((out / "limit.json").read_text())
        assert payload["case"] == "C"
        assert payload["conjugacy_uniqueness"]["ok"] is True
        shape = (out / "shape_curve.csv").read_text().splitlines()
        assert shape[0] == "depth,shape_distance"
        assert len(shape) >= 2
        assert float(shape[-1].split(",")[1]) < 1e-9
        resid = (out / "conv_residuals.csv").read_text().splitlines()
        assert resid[0] == "k,conv_eq_residual"
        assert all(float(line.split(",")[1]) <= 1e-8 for line in resid[1:])

    def test_one_limit_run_per_gauge(self, tmp_path, monkeypatch):
        from convlimit import cli, limits

        gauges = []
        original = limits.compute_limit

        def counted(*args, **kwargs):
            gauges.append(kwargs.get("gauge", limits.GAUGE_MAX_WEIGHT))
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "compute_limit", counted)
        monkeypatch.setattr(limits, "compute_limit", counted)
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        assert main(["limit", "--input", str(spec), "--out", str(tmp_path / "out")]) == 0
        assert gauges == [limits.GAUGE_MAX_WEIGHT, limits.GAUGE_MIN_SUPPORT]


class TestSimulate:
    def test_extremal(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        out = tmp_path / "out"
        rc = main(["simulate", "--input", str(spec), "--out", str(out),
                   "--seed", "7", "--paths", "50"])
        assert rc == 0
        payload = json.loads((out / "ensemble.json").read_text())
        assert payload["kind"] == "extremal"
        assert len(payload["paths"]) == 50
        rec = payload["paths"][0]
        assert set(rec) >= {"path_id", "eta", "xi", "phi", "U", "V", "k_min"}

    def test_mixture_with_v_law(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        out = tmp_path / "out"
        rc = main(["simulate", "--input", str(spec), "--out", str(out),
                   "--seed", "7", "--paths", "40", "--kind", "mixture",
                   "--v-law", '{"kind": "delta", "at": 3}'])
        assert rc == 0
        payload = json.loads((out / "ensemble.json").read_text())
        assert payload["kind"] == "mixture"
        assert all(rec["V"] == 3 for rec in payload["paths"])

    def test_uniform(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        out = tmp_path / "out"
        rc = main(["simulate", "--input", str(spec), "--out", str(out),
                   "--seed", "9", "--paths", "30", "--kind", "uniform",
                   "--depth", "16"])
        assert rc == 0
        payload = json.loads((out / "ensemble.json").read_text())
        assert payload["kind"] == "uniform"
        assert payload["depth"] == 16

    def test_seed_required(self, tmp_path, capsys):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--input", str(spec), "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestDecompose:
    def test_audit_full_reconstruction(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        out = tmp_path / "out"
        rc = main(["decompose", "--input", str(spec), "--out", str(out),
                   "--seed", "3", "--paths", "60"])
        assert rc == 0
        payload = json.loads((out / "decomposition.json").read_text())
        assert payload["audit"]["exact_reconstruction"] == 60
        assert payload["audit"]["n_paths"] == 60
        rec = payload["paths"][0]
        assert rec["V"] is not None

    def test_decompose_ensemble_file(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        sim_out = tmp_path / "sim"
        rc = main(["simulate", "--input", str(spec), "--out", str(sim_out),
                   "--seed", "5", "--paths", "40", "--kind", "mixture"])
        assert rc == 0
        dec_out = tmp_path / "dec"
        rc = main(["decompose", "--input", str(spec), "--out", str(dec_out),
                   "--seed", "5", "--ensemble", str(sim_out / "ensemble.json")])
        assert rc == 0
        payload = json.loads((dec_out / "decomposition.json").read_text())
        assert payload["audit"]["exact_reconstruction"] == 40

    def test_decompose_uniform_ensemble_file(self, tmp_path):
        # a uniform file's window is its whole depth, too deep for the
        # half-depth check; it is factored on the limit's window instead
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--input", str(spec), "--out", str(sim_out),
                     "--seed", "5", "--paths", "200", "--kind", "uniform"]) == 0
        simulated = json.loads((sim_out / "ensemble.json").read_text())
        dec_out = tmp_path / "dec"
        assert main(["decompose", "--input", str(spec), "--out", str(dec_out),
                     "--seed", "5", "--ensemble", str(sim_out / "ensemble.json")]) == 0
        payload = json.loads((dec_out / "decomposition.json").read_text())
        assert payload["audit"]["exact_reconstruction"] == 200
        k_min, top = payload["audit"]["window"]
        assert simulated["k_min"] < k_min and top == 0
        for sim, dec in zip(simulated["paths"], payload["paths"]):
            assert dec["xi"] == sim["xi"]
            assert dec["eta"] == sim["eta"][k_min - sim["k_min"]:]

    def test_kind_uniform_decomposes_uniform_paths(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        common = ["--input", str(spec), "--seed", "5", "--paths", "50", "--kind", "uniform"]
        assert main(["simulate", "--out", str(tmp_path / "sim"), *common]) == 0
        assert main(["decompose", "--out", str(tmp_path / "dec"), *common]) == 0
        simulated = json.loads((tmp_path / "sim" / "ensemble.json").read_text())
        payload = json.loads((tmp_path / "dec" / "decomposition.json").read_text())
        assert payload["kind"] == "uniform"
        assert payload["audit"]["exact_reconstruction"] == payload["n_paths"] == 50
        k_min = payload["audit"]["window"][0]
        for sim, dec in zip(simulated["paths"], payload["paths"], strict=True):
            assert dec["xi"] == sim["xi"]
            assert dec["eta"] == sim["eta"][k_min - sim["k_min"]:]

    def test_missing_ensemble_file(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        rc = main(["decompose", "--input", str(spec), "--out", str(tmp_path),
                   "--seed", "5", "--ensemble", str(tmp_path / "nope.json")])
        assert rc == 2


class TestVerify:
    def test_green_run(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        out = tmp_path / "out"
        rc = main(["verify", "--input", str(spec), "--out", str(out),
                   "--seed", "21", "--paths", "4000"])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["passed"] is True
        curves = (out / "report_curves.csv").read_text().splitlines()
        assert curves[0] == "k,tv_to_lambda,chisq_p_uniformity,chisq_p_independence"

    def test_red_run_exit_1(self, tmp_path):
        # significance pushed to the edge: thresholds ~ 1/46, and with this
        # seed several true-null p-values fall below it
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        out = tmp_path / "out"
        rc = main(["verify", "--input", str(spec), "--out", str(out),
                   "--seed", "24", "--paths", "4000", "--significance", "0.999"])
        assert rc == 1
        payload = json.loads((out / "report.json").read_text())
        assert payload["passed"] is False


    def test_symmetric_prefix_checks_the_symmetries_of_lambda_0(self, tmp_path):
        # H is trivial (the tail is deterministic), but the Haar prefix makes
        # every translate fix lambda_0, and the sample sees all of them
        spec = write_spec(tmp_path, {
            "group": {"kind": "builtin", "name": "Z4"},
            "prefix": [{"kind": "haar"}],
            "tail": {"kind": "constant", "mu": {"kind": "delta", "at": 1}},
        })
        rc = main(["verify", "--input", str(spec), "--out", str(tmp_path / "out"),
                   "--seed", "1", "--paths", "5000"])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert (payload["case"], payload["hiso_detected"]) == ("B", [0, 1, 2, 3])


class TestDeterminism:
    def test_byte_identical_modulo_timestamp(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["simulate", "--input", str(spec), "--out", str(out),
                       "--seed", "123", "--paths", "25"])
            assert rc == 0
        t1 = (out1 / "ensemble.json").read_text()
        t2 = (out2 / "ensemble.json").read_text()
        assert strip_timestamp(t1) == strip_timestamp(t2)

    def test_different_seeds_differ(self, tmp_path):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--input", str(spec), "--out", str(out1),
              "--seed", "1", "--paths", "25"])
        main(["simulate", "--input", str(spec), "--out", str(out2),
              "--seed", "2", "--paths", "25"])
        t1 = strip_timestamp((out1 / "ensemble.json").read_text())
        t2 = strip_timestamp((out2 / "ensemble.json").read_text())
        assert t1 != t2

    def test_record_files_match_json_dumps(self, tmp_path):
        """simulate and decompose (fresh and from a file) write what json.dumps writes."""
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        runs = {
            "sim": ["simulate", "--kind", "mixture"],
            "sim-uniform": ["simulate", "--kind", "uniform", "--depth", "12"],
            "dec": ["decompose"],
            "dec-file": ["decompose", "--ensemble", str(tmp_path / "sim" / "ensemble.json")],
        }
        for out, (command, *extra) in runs.items():
            assert main([command, "--input", str(spec), "--out", str(tmp_path / out),
                         "--seed", "4", "--paths", "30", *extra]) == 0
        for out in runs:
            name = "ensemble.json" if out.startswith("sim") else "decomposition.json"
            text = (tmp_path / out / name).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", out


def _as_period_one(spec):
    """The spec with its constant tail written as a periodic tail of one measure."""
    return {**spec, "tail": {"kind": "periodic", "mus": [spec["tail"]["mu"]]}}


class TestOneNoiseModel:
    """A constant tail is a periodic tail of period 1, and a schedule head is prefix Gaussians."""

    @staticmethod
    def _run(tmp_path, capsys, spec, argv):
        """Exit code, stdout/stderr and every output file (timestamps removed) of one run."""
        path = write_spec(tmp_path, spec)
        out = tmp_path / "out"
        rc = main([*argv, "--input", str(path), "--out", str(out)])
        files = {f.name: strip_timestamp(f.read_text()) for f in sorted(out.iterdir())}
        return rc, capsys.readouterr(), files

    @pytest.mark.parametrize("argv", [
        ["classify"],
        ["limit"],
        ["simulate", "--kind", "mixture", "--seed", "3", "--paths", "40"],
        ["verify", "--seed", "21", "--paths", "2000"],
    ], ids=lambda argv: argv[0])
    def test_finite_constant_tail_is_period_one(self, tmp_path, capsys, argv):
        want = self._run(tmp_path, capsys, Z4_CASE_C_SPEC, argv)
        assert want[0] == 0
        assert self._run(tmp_path, capsys, _as_period_one(Z4_CASE_C_SPEC), argv) == want

    def test_torus_constant_tail_is_period_one(self, tmp_path, capsys):
        want = self._run(tmp_path, capsys, TORUS_HALF_ATOMS_SPEC, ["classify", "--torus"])
        assert want[0] == 0
        got = self._run(tmp_path, capsys, _as_period_one(TORUS_HALF_ATOMS_SPEC), ["classify", "--torus"])
        assert got == want

    def test_schedule_head_is_prefix_gaussians(self, tmp_path, capsys):
        dirac = {"kind": "dirac", "x": 0.3}
        head = {"prefix": [dirac],
                "tail": {"kind": "gauss_schedule", "head": [0.5, 0.3], "c": 0.1, "r": 0.5}}
        prefix = {"prefix": [dirac, {"kind": "gauss", "m": 0.0, "sd": 0.5},
                             {"kind": "gauss", "m": 0.0, "sd": 0.3}],
                  "tail": {"kind": "gauss_schedule", "c": 0.1, "r": 0.5}}
        want = self._run(tmp_path, capsys, prefix, ["classify", "--torus"])
        assert want[0] == 0
        assert self._run(tmp_path, capsys, head, ["classify", "--torus"]) == want


Z4_TABLE = [[(a + b) % 4 for b in range(4)] for a in range(4)]


def _table_group_spec(mul, **extra):
    return {"group": {"kind": "table", "mul": mul, **extra},
            "tail": {"kind": "constant", "mu": {"kind": "haar"}}}


def _z4_tail_spec(mu):
    return {"group": {"kind": "builtin", "name": "Z4"}, "tail": {"kind": "constant", "mu": mu}}


def _torus_spec(mu):
    return {"prefix": [], "tail": {"kind": "constant", "mu": mu}}


def _command(tmp_path, command, spec, *extra):
    return [command, "--input", str(write_spec(tmp_path, spec)),
            "--out", str(tmp_path / "out"), *extra]


def _decompose_file(tmp_path, payload):
    ens = tmp_path / "ensemble.json"
    ens.write_text(json.dumps(payload))
    return _command(tmp_path, "decompose", Z4_CASE_C_SPEC, "--seed", "5",
                    "--ensemble", str(ens))


def _drop(payload, key, *, per_record=False):
    for obj in payload["paths"] if per_record else [payload]:
        del obj[key]
    return payload


def _set(payload, field, path, col, value):
    payload["paths"][path][field][col] = value
    return payload


def _truncate_xi(payload):
    payload["paths"][1]["xi"].pop()
    return payload


def _halve_up(payload, field):
    """Add 0.5 to one id, which truncation would silently undo."""
    return _set(payload, field, 0, 0, payload["paths"][0][field][0] + 0.5)


# id -> (argv builder taking tmp_path and a valid ensemble payload, stderr fragment)
MALFORMED_INPUTS = {
    "paths-negative": (lambda t, p: _command(t, "simulate", Z4_CASE_C_SPEC, "--seed", "1",
                                             "--paths", "-5"), "--paths"),
    "depth-negative": (lambda t, p: _command(t, "simulate", Z4_CASE_C_SPEC, "--seed", "1",
                                             "--kind", "uniform", "--depth", "-3"), "--depth"),
    "nan-weights": (lambda t, p: _command(
        t, "limit", {"group": {"kind": "builtin", "name": "Z4"},
                     "tail": {"kind": "constant",
                              "mu": {"kind": "weights", "w": [float("nan"), 0.5, 0.5, 0.0]}}}),
        "finite"),
    "weights-not-numbers": (lambda t, p: _command(
        t, "classify", {"group": {"kind": "builtin", "name": "Z4"},
                        "tail": {"kind": "constant",
                                 "mu": {"kind": "weights", "w": ["a", 0, 0, 1]}}}),
        "list of numbers"),
    "ragged-mul": (lambda t, p: _command(t, "classify", _table_group_spec([[0, 1], [1]])),
                   "rectangular"),
    "non-integer-mul": (lambda t, p: _command(t, "classify",
                                              _table_group_spec([[0, 1], [1, 0.5]])),
                        "integers"),
    "delta-at-string": (lambda t, p: _command(
        t, "classify", {"group": {"kind": "builtin", "name": "Z4"},
                        "tail": {"kind": "constant", "mu": {"kind": "delta", "at": "x"}}}),
        "delta location"),
    "v-law-not-json": (lambda t, p: _command(t, "simulate", Z4_CASE_C_SPEC, "--seed", "1",
                                             "--paths", "5", "--kind", "mixture",
                                             "--v-law", "{oops"), "--v-law"),
    "torus-dirac-without-x": (lambda t, p: _command(t, "classify", _torus_spec({"kind": "dirac"}),
                                                    "--torus"), "'x'"),
    "torus-atom-without-weight": (lambda t, p: _command(
        t, "classify", _torus_spec({"kind": "atoms", "points": [[0.5]]}), "--torus"),
        "atoms"),
    "torus-atom-nan-weight": (lambda t, p: _command(
        t, "classify", _torus_spec({"kind": "atoms", "points": [[0.0, float("nan")], [0.5, 1.0]]}),
        "--torus"), "atom weight"),
    "torus-constant-tail-without-mu": (lambda t, p: _command(
        t, "classify", {"prefix": [], "tail": {"kind": "constant"}}, "--torus"), "'mu'"),
    "ensemble-without-eta": (lambda t, p: _decompose_file(t, _drop(p, "eta", per_record=True)),
                             "'eta'"),
    "ensemble-without-xi": (lambda t, p: _decompose_file(t, _drop(p, "xi", per_record=True)),
                            "'xi'"),
    "ensemble-without-k_min": (lambda t, p: _decompose_file(t, _drop(p, "k_min")), "'k_min'"),
    "ensemble-without-depth": (lambda t, p: _decompose_file(t, _drop(p, "depth")), "'depth'"),
    "ensemble-ragged-rows": (lambda t, p: _decompose_file(t, _truncate_xi(p)), "malformed"),
    "ensemble-id-out-of-range": (lambda t, p: _decompose_file(t, _set(p, "xi", 0, 0, 4)),
                                 "outside [0, 4)"),
    "ensemble-broken-recursion": (lambda t, p: _decompose_file(
        t, _set(p, "eta", 0, -1, (p["paths"][0]["eta"][-1] + 1) % 4)), "breaks eta_k"),
    "identity-hint-string": (lambda t, p: _command(
        t, "classify", _table_group_spec(Z4_TABLE, identity="x")), "identity hint"),
    "identity-hint-bool": (lambda t, p: _command(
        t, "classify", _table_group_spec(Z4_TABLE, identity=True)), "identity hint"),
    "delta-at-float": (lambda t, p: _command(
        t, "classify", _z4_tail_spec({"kind": "delta", "at": 1.5})), "delta location"),
    "haar-subgroup-float-member": (lambda t, p: _command(
        t, "classify", _z4_tail_spec({"kind": "haar_subgroup", "members": [0, 2.5]})),
        "members must be integers"),
    "ensemble-float-xi": (lambda t, p: _decompose_file(t, _halve_up(p, "xi")),
                          "ids must be integers"),
    "ensemble-float-eta": (lambda t, p: _decompose_file(t, _halve_up(p, "eta")),
                           "ids must be integers"),
    "bool-in-mul": (lambda t, p: _command(t, "classify",
                                          _table_group_spec([[0, True], [True, 0]])), "boolean"),
    "ensemble-float-depth": (lambda t, p: _decompose_file(t, {**p, "depth": p["depth"] + 0.7}),
                             "'depth' must be an integer"),
    "ensemble-float-k_min": (lambda t, p: _decompose_file(t, {**p, "k_min": p["k_min"] - 0.2}),
                             "'k_min' must be an integer"),
    "ensemble-kind-not-a-kind": (lambda t, p: _decompose_file(t, {**p, "kind": "bogus"}),
                                 "ensemble file kind"),
    "ensemble-float-seed": (lambda t, p: _decompose_file(t, {**p, "seed": p["seed"] + 0.9}),
                            "'seed' must be an integer"),
    "ensemble-n_paths-disagrees": (lambda t, p: _decompose_file(t, {**p, "n_paths": 4}),
                                   "'n_paths' is 4, but the file holds 3 paths"),
    "ensemble-n_paths-string": (lambda t, p: _decompose_file(t, {**p, "n_paths": "3"}),
                                "'n_paths' is '3'"),
    "ensemble-n_paths-huge": (lambda t, p: _decompose_file(t, {**p, "n_paths": 10**12}),
                              "'n_paths' is 1000000000000"),
    "ensemble-schema-version-2": (lambda t, p: _decompose_file(t, {**p, "schema_version": 2}),
                                  "schema_version 2"),
    "eps-nan": (lambda t, p: _command(t, "classify", Z4_CASE_C_SPEC, "--eps", "nan"), "--eps"),
    "eps-inf": (lambda t, p: _command(t, "classify", Z4_CASE_C_SPEC, "--eps", "inf"), "--eps"),
    "max-depth-zero": (lambda t, p: _command(t, "classify", Z4_CASE_C_SPEC, "--max-depth", "0"),
                       "--max-depth"),
    "max-depth-negative": (lambda t, p: _command(t, "limit", Z4_CASE_C_SPEC,
                                                 "--max-depth", "-5"), "--max-depth"),
    "significance-nan": (lambda t, p: _command(t, "verify", Z4_CASE_C_SPEC, "--seed", "1",
                                               "--significance", "nan"), "--significance"),
    "significance-zero": (lambda t, p: _command(t, "verify", Z4_CASE_C_SPEC, "--seed", "1",
                                                "--significance", "0"), "--significance"),
    "significance-above-one": (lambda t, p: _command(t, "verify", Z4_CASE_C_SPEC, "--seed", "1",
                                                     "--significance", "1.5"), "--significance"),
    "seed-negative": (lambda t, p: _command(t, "simulate", Z4_CASE_C_SPEC, "--seed", "-1",
                                            "--paths", "5"), "--seed"),
    "torus-prefix-number": (lambda t, p: _command(t, "classify", {**TORUS_HALF_ATOMS_SPEC,
                                                                  "prefix": 5}, "--torus"),
                            "prefix must be a list"),
    "torus-prefix-null": (lambda t, p: _command(t, "classify", {**TORUS_HALF_ATOMS_SPEC,
                                                                "prefix": None}, "--torus"),
                          "prefix must be a list"),
    "torus-dirac-x-bool": (lambda t, p: _command(
        t, "classify", _torus_spec({"kind": "dirac", "x": False}), "--torus"), "got False"),
    "torus-schedule-c-bool": (lambda t, p: _command(
        t, "classify", {"tail": {"kind": "gauss_schedule", "c": True}}, "--torus"), "got True"),
    "torus-dirac-x-string": (lambda t, p: _command(
        t, "classify", _torus_spec({"kind": "dirac", "x": "0.25"}), "--torus"), "got '0.25'"),
    "torus-schedule-c-string": (lambda t, p: _command(
        t, "classify", {"tail": {"kind": "gauss_schedule", "c": "0.1"}}, "--torus"),
        "got '0.1'"),
}


@pytest.fixture(scope="module")
def ensemble_payload(tmp_path_factory):
    spec = write_spec(tmp_path_factory.mktemp("spec"), Z4_CASE_C_SPEC)
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--input", str(spec), "--out", str(out),
                 "--seed", "5", "--paths", "3", "--kind", "mixture"]) == 0
    return (out / "ensemble.json").read_text()


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2_with_named_error(case, tmp_path, capsys, ensemble_payload):
    build, fragment = MALFORMED_INPUTS[case]
    argv = build(tmp_path, json.loads(ensemble_payload))
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects bad flag values itself
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "error:" in err and fragment in err, err
    assert "Traceback" not in err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("case", sorted(c for c in MALFORMED_INPUTS if c.startswith("ensemble-")))
def test_malformed_ensemble_file_refused_alike_when_indented(case, tmp_path, capsys,
                                                             ensemble_payload):
    """The ensemble-file cases above again, with the file laid out as ``simulate`` writes
    it, so the streamed reader sees it first: each is refused with the same error."""
    build, fragment = MALFORMED_INPUTS[case]
    argv = build(tmp_path, json.loads(ensemble_payload))
    ens = tmp_path / "ensemble.json"
    ens.write_text(json.dumps(json.loads(ens.read_text()), indent=2, sort_keys=True) + "\n")
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2 and "error:" in err and fragment in err, err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


# Spec-grammar fuzzer: valid specs on small groups with one or two fields
# deleted or replaced by a value of the wrong type.
_FUZZ_SEEDS = (
    Z4_CASE_C_SPEC,
    {"group": {"kind": "builtin", "name": "S3"}, "prefix": [{"kind": "delta", "at": 1}],
     "tail": {"kind": "periodic", "mus": [{"kind": "haar_subgroup", "members": [0, 1]},
                                          {"kind": "delta", "at": 2}]}},
    {"group": {"kind": "table", "mul": Z4_TABLE, "identity": 0},
     "tail": {"kind": "constant", "mu": {"kind": "haar_subgroup", "members": [0, 2]}}},
    {"group": {"kind": "builtin", "name": "D4"},
     "tail": {"kind": "constant", "mu": {"kind": "weights", "w": [0.5, 0, 0, 0, 0.5, 0, 0, 0]}}},
    {"group": {"kind": "builtin", "name": "Q8"}, "prefix": [{"kind": "haar"}],
     "tail": {"kind": "constant", "mu": {"kind": "delta", "at": 4}}},
)
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4,
)


def _slots(node):
    """Every (container, key or index) pair inside a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def _mutated_specs(draw, seeds):
    spec = json.loads(json.dumps(draw(st.sampled_from(seeds))))
    for _ in range(draw(st.integers(1, 2))):
        parent, key = draw(st.sampled_from(list(_slots(spec))))
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_JUNK)
    return spec


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _classify_exit_code(spec, fuzz_dir, *extra):
    path = fuzz_dir / "noise.json"
    path.write_text(json.dumps(spec))
    return main(["classify", "--input", str(path), "--out", str(fuzz_dir / "out"), *extra])


@given(spec=_mutated_specs(_FUZZ_SEEDS))
@settings(max_examples=150)
def test_fuzzed_spec_exits_with_documented_code(spec, fuzz_dir):
    assert _classify_exit_code(spec, fuzz_dir, "--max-depth", "32") in {0, 2, 3, 4, 5}


_TORUS_FUZZ_SEEDS = (
    TORUS_HALF_ATOMS_SPEC,
    {"prefix": [{"kind": "dirac", "x": 0.25}, {"kind": "uniform", "a": 0.0, "b": 0.5}],
     "tail": {"kind": "periodic", "mus": [{"kind": "gauss", "m": 0.0, "sd": 0.1},
                                          {"kind": "dirac", "x": 0.5}]}},
    {"prefix": [], "tail": {"kind": "gauss_schedule", "head": [0.2, 0.1], "c": 0.1, "r": 0.5}},
)


@given(spec=_mutated_specs(_TORUS_FUZZ_SEEDS))
@settings(max_examples=150)
def test_fuzzed_torus_spec_exits_with_documented_code(spec, fuzz_dir):
    assert _classify_exit_code(spec, fuzz_dir, "--torus", "--p-max", "8") in {0, 2, 3, 4, 5}
