import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_records import _digest, write_simulated
from test_solutions import Q8_CASE_B_PREFIX_SPEC, S3_NEAR_SYMMETRY_SPEC

from convlimit import cli, limits, stats
from convlimit.cli import main
from convlimit.groups import builtin_group
from convlimit.limits import compute_limit, noise_from_spec
from convlimit.solutions import extremal_ensemble, window_cut
from convlimit.stats import verify_theorems
from convlimit.torus import DEFAULT_P_MAX

Z4_CASE_C_SPEC = {
    "group": {"kind": "builtin", "name": "Z4"},
    "prefix": [],
    "tail": {"kind": "constant", "mu": {"kind": "weights", "w": [0.5, 0.0, 0.5, 0.0]}},
}

# tail 1/2 e + 1/2 (23) behind 30 levels of Haar noise: alpha_l is exact
# modulo H = {e, (23)} from the last prefix level, depth 29, down
S3_LONG_PREFIX_SPEC = {
    "group": {"kind": "builtin", "name": "S3"},
    "prefix": [{"kind": "haar"}] * 30,
    "tail": {"kind": "constant", "mu": {"kind": "weights", "w": [0.5, 0.5, 0, 0, 0, 0]}},
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
        # --p-max left out examines the library's default frequencies
        assert len((out / "pi_table.csv").read_text().splitlines()) == 1 + DEFAULT_P_MAX
        # every curve ends at level 1: an even p's factors are all 1, and an odd p's first
        # factor is already below the floor, which decides it null
        rows = [r.split(",") for r in (out / "pi_curves.csv").read_text().splitlines()[1:]]
        assert [(int(p), int(depth)) for p, depth, _ in rows] == [
            (p, 1) for p in range(1, DEFAULT_P_MAX + 1)]
        assert all(float(v) == 1.0 if int(p) % 2 == 0 else float(v) < 1e-12 for p, _, v in rows)

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
                   "--seed", "9", "--paths", "30", "--kind", "uniform"])
        assert rc == 0
        payload = json.loads((out / "ensemble.json").read_text())
        assert payload["kind"] == "uniform"
        # the window's cut: a uniform file's window is its whole depth, [-9, 0]
        assert payload["depth"] == -payload["k_min"] == 9

    def test_file_stops_at_the_cut_however_deep_the_certified_depth(self, tmp_path):
        # the lazy walk on Z100 certifies at depth 41 081; no row below the
        # cut 9 is drawn, though 2 x 41 081 rows were written before
        spec = write_spec(tmp_path, _lazy_walk(100))
        common = ["--input", str(spec), "--seed", "1"]
        assert main(["simulate", *common, "--out", str(tmp_path / "sim"), "--paths", "100"]) == 0
        payload = json.loads((tmp_path / "sim" / "ensemble.json").read_text())
        assert (payload["depth"], payload["k_min"]) == (9, -8)
        assert {len(rec["xi"]) for rec in payload["paths"]} == {10}
        assert main(["decompose", *common, "--out", str(tmp_path / "dec"),
                     "--ensemble", str(tmp_path / "sim" / "ensemble.json")]) == 0

    def test_seed_required(self, tmp_path, capsys):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--input", str(spec), "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, text", [
        (["simulate", "--input", "x.json", "--out", "o"], "the following arguments are required: --seed"),
        (["simulate", "--input", "x.json", "--seed", "-1"], "argument --seed: expected"),
        (["classify", "--input", "x.json", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_errors_are_the_fresh_parsers(self, capsys, argv, text):
        """main reads one parser per process; its usage errors are those of a fresh one."""
        with pytest.raises(SystemExit) as fresh:
            cli.build_parser().parse_args(argv)
        want = capsys.readouterr()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == fresh.value.code == 2
            assert capsys.readouterr() == want
        assert text in want.err
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    def test_thread_variable_is_not_read(self, tmp_path, monkeypatch, value):
        """CONV_LIMIT_THREADS is no setting: any value leaves the output bytes as they are."""
        monkeypatch.setattr(cli, "_timestamp", lambda: "fixed")
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)

        def simulate(out):
            assert main(["simulate", "--input", str(spec), "--out", str(out),
                         "--seed", "7", "--paths", "50"]) == 0
            return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

        monkeypatch.delenv("CONV_LIMIT_THREADS", raising=False)
        unset = simulate(tmp_path / "unset")
        monkeypatch.setenv("CONV_LIMIT_THREADS", value)
        assert simulate(tmp_path / "set") == unset


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
        # a uniform file's window is its whole depth, with no level below it
        # to centre at; it is factored on the limit's window instead
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

    @pytest.mark.parametrize("depth", [29, 40])
    def test_uniform_file_behind_a_long_prefix_factors_as_deeper_paths(self, tmp_path, depth):
        # half of either depth lies inside the prefix, yet the cosets at the
        # file's own depth are those of the same paths carried on to depth 80
        spec = write_spec(tmp_path, S3_LONG_PREFIX_SPEC)
        common = ["--input", str(spec), "--seed", "5"]
        write_simulated(tmp_path / "sim" / "ensemble.json", S3_LONG_PREFIX_SPEC, "uniform",
                        depth, 40, 5)
        simulated = json.loads((tmp_path / "sim" / "ensemble.json").read_text())
        # below the file, xi_k in the tail's support {e, (23)}
        deep = np.random.default_rng(0).integers(0, 2, size=(40, 80 - depth)).tolist()
        s3 = builtin_group("S3")
        for rec, extra in zip(simulated["paths"], deep):
            eta = rec["eta"]
            for x in rec["xi"][:1] + extra[:0:-1]:  # eta_(k-1) = xi_k^-1 eta_k, k = -depth..-79
                eta = [int(s3.mul[s3.inv[x], eta[0]])] + eta
            rec.update(xi=extra + rec["xi"], eta=eta, k_min=-80, xi_k_min=-80)
        simulated.update(depth=80, k_min=-80)
        write_spec(tmp_path, simulated, "deep.json")
        decomposed = {}
        for name, path in (("file", tmp_path / "sim" / "ensemble.json"), ("deep", tmp_path / "deep.json")):
            assert main(["decompose", "--out", str(tmp_path / name), *common,
                         "--ensemble", str(path)]) == 0
            payload = json.loads((tmp_path / name / "decomposition.json").read_text())
            decomposed[name] = [(r["phi"], r["U"], r["V"]) for r in payload["paths"]]
        assert decomposed["file"] == decomposed["deep"]

    def test_uniform_file_that_stops_in_the_prefix_is_refused(self, tmp_path, capsys):
        spec = write_spec(tmp_path, S3_LONG_PREFIX_SPEC)
        common = ["--input", str(spec), "--seed", "5"]
        write_simulated(tmp_path / "sim" / "ensemble.json", S3_LONG_PREFIX_SPEC, "uniform",
                        28, 40, 5)
        assert main(["decompose", "--out", str(tmp_path / "dec"), *common,
                     "--ensemble", str(tmp_path / "sim" / "ensemble.json")]) == 2
        assert "needs depth >= 29" in capsys.readouterr().err

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


def _lazy_walk(n):
    """The spec of 1/2 delta_0 + 1/2 delta_1 on Z_n, case A."""
    mu = {"kind": "weights", "w": [0.5, 0.5] + [0] * (n - 2)}
    return {"group": {"kind": "builtin", "name": f"Zn:{n}"}, "tail": {"kind": "constant", "mu": mu}}


def _refuse_ladder(*args):
    raise AssertionError("the squaring ladder ran")


# SHA-256 of each file that the sampling commands of the test below write on the Z4
# case-C spec, generated_at removed, as written when every command still ran the ladder
Z4_SAMPLING_GOLDEN = {
    "simulate-extremal/ensemble.json":
        "0c0e225d2cb6e6f1fc639819b0aaf6d7c97a7c90ac10021a971b1f4b473537f9",
    "simulate-mixture/ensemble.json":
        "45ffe56465916a99e025352a0b768e2ff862d5915ebb4560b659a7648c371150",
    "simulate-uniform/ensemble.json":
        "c235a46f3e3603abe66646e064ed782c6a3d903bdc08941622552033f6e5b3da",
    "decompose-fresh/decomposition.json":
        "20f75263df0f3b4ab32fea1698976407a909580687e13feaa73c612ce2163888",
    "decompose-file/decomposition.json":
        "20f75263df0f3b4ab32fea1698976407a909580687e13feaa73c612ce2163888",
    "verify/report.json": "c46c3dc46ac4057afcdb89f79ccb526e1e62c3788960d33713ee3fbacc0d9bd9",
    "verify/report_curves.csv": "5c0bdf4019e011498981265803d20231c72a421a7ab7415d8ad1cb27377ead26",
}


class TestNoDepthWithoutACertificate:
    """Only classify and limit read the certified depth, so only they run the squaring ladder."""

    def test_sampling_commands_run_no_ladder(self, tmp_path, monkeypatch):
        monkeypatch.setattr(limits, "_ladder", _refuse_ladder)
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        seeded = ["--seed", "7", "--paths", "200"]
        runs = {**{f"simulate-{kind}": ["simulate", *seeded, "--kind", kind]
                   for kind in cli.ENSEMBLE_KINDS},
                "decompose-fresh": ["decompose", *seeded],
                "decompose-file": ["decompose", "--seed", "7", "--ensemble",
                                   str(tmp_path / "simulate-mixture" / "ensemble.json")],
                "verify": ["verify", "--seed", "21", "--paths", "2000"]}
        digests = {}
        for name, (command, *rest) in runs.items():
            out = tmp_path / name
            assert main([command, "--input", str(spec), "--out", str(out), *rest]) == 0
            digests.update({f"{name}/{f.name}": _digest(f) for f in out.iterdir()})
        assert digests == Z4_SAMPLING_GOLDEN

    def test_limit_runs_one_ladder(self, tmp_path, monkeypatch):
        calls = []
        ladder = limits._ladder
        monkeypatch.setattr(limits, "_ladder", lambda *a: calls.append(1) or ladder(*a))
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        assert main(["limit", "--input", str(spec), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["classify", "limit"])
    def test_exit_3_writes_nothing(self, tmp_path, command):
        spec = write_spec(tmp_path, Z4_CASE_C_SPEC)
        out = tmp_path / "out"
        assert main([command, "--input", str(spec), "--out", str(out), "--max-depth", "5"]) == 3
        assert list(out.iterdir()) == []

    def test_z500_lazy_walk_samples_at_the_default_flags(self, tmp_path):
        # certified only at depth 1 026 979, past the default --max-depth 4096, which
        # once refused these commands; the files are those written at --max-depth 2 000 000
        spec = write_spec(tmp_path, _lazy_walk(500))
        common = ["--input", str(spec), "--seed", "3", "--paths", "200"]
        assert main(["simulate", *common, "--out", str(tmp_path / "sim")]) == 0
        assert main(["decompose", *common, "--out", str(tmp_path / "dec")]) == 0
        assert _digest(tmp_path / "sim" / "ensemble.json") == (
            "cd61e7ce6ada3c1ce4503b760142660d74d28296e57f4c5eca2a27312a1cd3c5")
        assert _digest(tmp_path / "dec" / "decomposition.json") == (
            "2bf610389e1a8074da30ff559fac4c71f8355532baafffb581180a16d2d3917d")

    def test_z100_lazy_walk_verifies_at_the_default_flags(self, tmp_path):
        # certified at depth 41 081; the report is the one written at --max-depth 100 000
        spec = write_spec(tmp_path, _lazy_walk(100))
        out = tmp_path / "out"
        assert main(["verify", "--input", str(spec), "--out", str(out),
                     "--seed", "1", "--paths", "10000"]) == 0
        assert {f: _digest(out / f) for f in ("report.json", "report_curves.csv")} == {
            "report.json": "8933dfa2d8fc43c28dc714c726f72507525ea8e5e3ba2de5879287430db51406",
            "report_curves.csv": "cbc9ba9dd268d251dfcba3cdddaa5ad7c48e35161bc1c49f2af6ac9d180727cc",
        }


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

    @pytest.mark.parametrize("spec", [Q8_CASE_B_PREFIX_SPEC, S3_NEAR_SYMMETRY_SPEC],
                             ids=["q8-case-b-prefix", "s3-near-symmetry"])
    def test_case_b_report_does_not_depend_on_the_depth(self, tmp_path, spec):
        # the strong solution is a function of the noise alone, wherever the
        # product starts
        depth_used = compute_limit(noise_from_spec(spec)).depth_used
        path = write_spec(tmp_path, spec)
        outputs = set()
        for depth in (2 * depth_used, 200, 2000):
            out = tmp_path / str(depth)
            rc = main(["verify", "--input", str(path), "--out", str(out), "--seed", "7",
                       "--paths", "3000", "--depth", str(depth)])
            outputs.add((rc, *(strip_timestamp((out / name).read_text())
                               for name in ("report.json", "report_curves.csv"))))
        assert len(outputs) == 1


def _weights(n, *nonzero):
    w = [0.0] * n
    for i, x in nonzero:
        w[i] = x
    return {"kind": "weights", "w": w}


# One law per case whose cut is set by the window (A), by 12 random prefix
# levels before period-2 point masses (B) and by 30 Haar levels (C)
CUT_SPECS = {
    "A": {"group": {"kind": "builtin", "name": "Zn:5"},
          "prefix": [_weights(5, (0, .1), (1, .2), (2, .3), (3, .4)), {"kind": "haar"}],
          "tail": {"kind": "constant", "mu": _weights(5, (0, .5), (1, .5))}},
    "B": {"group": {"kind": "builtin", "name": "S3"},
          "prefix": [_weights(6, (i % 6, .5), ((i + 1) % 6, .3), ((i + 3) % 6, .2))
                     for i in range(12)],
          "tail": {"kind": "periodic", "mus": [{"kind": "delta", "at": 1},
                                               {"kind": "delta", "at": 4}]}},
    "C": S3_LONG_PREFIX_SPEC,
}


def _verify_outputs(tmp_path, spec_path, capsys, *extra):
    out = tmp_path / "-".join(["out", *extra])
    rc = main(["verify", "--input", str(spec_path), "--out", str(out), "--seed", "3",
               "--paths", "1000", *extra])
    std = capsys.readouterr()
    files = tuple(strip_timestamp(p.read_text()) for p in sorted(out.iterdir()))
    return rc, std.out, std.err, files


@pytest.fixture(params=sorted(CUT_SPECS))
def cut_spec(request, tmp_path):
    spec = CUT_SPECS[request.param]
    noise = noise_from_spec(spec)
    result = compute_limit(noise)
    cut = window_cut(noise, result.k_min)
    assert result.case == request.param
    assert cut == (9 if result.case == "A" else len(spec["prefix"]) - 1)
    return write_spec(tmp_path, spec), cut, len(spec["prefix"])


class TestVerifyDepth:
    """verify draws noise only down to the battery's depth: --depth sets only the refusal."""

    def test_report_is_the_same_at_every_depth_from_the_cut(self, cut_spec, tmp_path,
                                                            capsys, monkeypatch):
        spec_path, cut, _ = cut_spec
        built, extremal_ensemble = [], stats.extremal_ensemble

        def spy(noise, result, depth, *args, **kwargs):
            built.append(depth)
            return extremal_ensemble(noise, result, depth, *args, **kwargs)

        monkeypatch.setattr(stats, "extremal_ensemble", spy)
        runs = [_verify_outputs(tmp_path, spec_path, capsys, *extra)
                for extra in (["--depth", str(cut)], ["--depth", "200"], [])]
        assert runs[0][0] in (0, 1) and runs[0][3]
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert built == [cut] * 3

    @pytest.mark.parametrize("depth", ["cut - 1", 1])
    def test_depth_below_the_cut_is_refused(self, cut_spec, tmp_path, capsys, depth):
        spec_path, cut, prefix = cut_spec
        depth = cut - 1 if depth == "cut - 1" else depth
        rc = main(["verify", "--input", str(spec_path), "--out", str(tmp_path / "out"),
                   "--seed", "3", "--paths", "1000", "--depth", str(depth)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: depth {depth} too shallow for the window k_min=-8 behind a {prefix}-level "
            f"prefix; it needs depth >= {cut}\n")
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("depth", [None, "200"])
    def test_case_b_determinism_builds_the_paths_once(self, depth, tmp_path, capsys,
                                                     monkeypatch):
        """strong_determinism groups the paths by their noise from the cut up, so verify
        builds one ensemble, at the cut, whatever --depth asks."""
        spec_path = write_spec(tmp_path, CUT_SPECS["B"])
        cut = len(CUT_SPECS["B"]["prefix"]) - 1
        built = []
        for module in (cli, stats):
            def spy(noise, result, d, *args, _build=module.extremal_ensemble,
                    _name=module.__name__, **kwargs):
                built.append((_name, d))
                return _build(noise, result, d, *args, **kwargs)
            monkeypatch.setattr(module, "extremal_ensemble", spy)
        extra = ["--depth", depth] if depth else []
        rc = _verify_outputs(tmp_path, spec_path, capsys, *extra)[0]
        report = json.loads((tmp_path / "-".join(["out", *extra]) / "report.json").read_text())
        assert rc in (0, 1) and report["case_checks"]["strong_determinism"] is True
        assert built == [("convlimit.stats", cut)]

    def test_case_b_determinism_of_a_deep_ensemble_builds_nothing(self, monkeypatch):
        noise = noise_from_spec(CUT_SPECS["B"])
        result = compute_limit(noise)
        ens = extremal_ensemble(noise, result, 200, 1000, 3)
        built, build = [], stats.extremal_ensemble
        monkeypatch.setattr(stats, "extremal_ensemble",
                            lambda noise, result, d, *a, **k: built.append(d) or
                            build(noise, result, d, *a, **k))
        report = verify_theorems(noise, result, ens)
        assert report.case_checks["strong_determinism"] is True
        assert built == []

    def test_memory_does_not_grow_with_the_depth(self, tmp_path, capsys):
        """At --depth 20000, 1000 paths of a random tail would hold 20 MB of int8 noise."""
        spec_path = write_spec(tmp_path, Z4_CASE_C_SPEC)
        peaks = {}
        for depth in ("200", "200", "20000"):  # the first run warms every cache
            tracemalloc.start()
            try:
                _verify_outputs(tmp_path, spec_path, capsys, "--depth", depth)
                peaks[depth] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks["20000"] - peaks["200"]) < 0.05 * peaks["200"], peaks


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
            "sim-uniform": ["simulate", "--kind", "uniform"],
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

    @pytest.mark.parametrize("spec", [
        {"tail": {"kind": "constant"}},
        {"tail": {"kind": "periodic", "mus": {"kind": "dirac", "x": 0.5}}},
        {"tail": {"kind": "periodic", "mus": []}},
        {"tail": [{"kind": "constant"}]},
        {"prefix": 5, "tail": {"kind": "constant", "mu": {"kind": "dirac", "x": 0.5}}},
    ], ids=["no-mu", "mus-object", "mus-empty", "tail-not-object", "prefix-not-list"])
    def test_both_engines_refuse_a_spec_fault_alike(self, tmp_path, capsys, spec):
        """The prefix and the constant or periodic tail are read once, for both engines."""
        finite = {"group": {"kind": "builtin", "name": "Z4"}, **spec}
        assert main(_command(tmp_path, "classify", finite)) == 2
        want = capsys.readouterr()
        assert want.err.startswith("error: ")
        assert main(_command(tmp_path, "classify", spec, "--torus")) == 2
        assert capsys.readouterr() == want

    @pytest.mark.parametrize("mu", [
        {"kind": "gauss", "m": 0.0, "sd": 1e-7},
        {"kind": "gauss", "m": 0.0, "sd": 1e-6},
        {"kind": "uniform", "a": 0.0, "b": 1e-7},
    ], ids=["gauss-sd-1e-7", "gauss-sd-1e-6", "uniform-width-1e-7"])
    def test_a_repeating_continuous_factor_is_null_at_every_frequency(self, tmp_path, mu):
        """However close to 1 its |char| rounds, a continuous tail factor drives the product to 0."""
        out = tmp_path / "out"
        spec = write_spec(tmp_path, _torus_spec(mu))
        assert main(["classify", "--torus", "--input", str(spec), "--out", str(out)]) == 0
        payload = json.loads((out / "classification.json").read_text())
        assert (payload["case"], payload["p_mu"], payload["undetermined"]) == ("A", 0, [])
        assert {b["decision"] for b in payload["pi"].values()} == {"null"}


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


def _decompose_ensemble_at(tmp_path, path):
    return _command(tmp_path, "decompose", Z4_CASE_C_SPEC, "--seed", "5", "--ensemble", path)


def _decompose_file(tmp_path, payload):
    ens = tmp_path / "ensemble.json"
    ens.write_text(json.dumps(payload))
    return _decompose_ensemble_at(tmp_path, str(ens))


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


def _not_utf8(tmp_path, payload):
    """A file holding the payload's JSON behind a byte that UTF-8 cannot decode."""
    path = tmp_path / "not-utf8.json"
    path.write_bytes(b"\xff" + json.dumps(payload).encode())
    return str(path)


# id -> (argv builder taking tmp_path and a valid ensemble payload, stderr fragment)
MALFORMED_INPUTS = {
    "paths-negative": (lambda t, p: _command(t, "simulate", Z4_CASE_C_SPEC, "--seed", "1",
                                             "--paths", "-5"), "--paths"),
    "depth-negative": (lambda t, p: _command(t, "verify", Z4_CASE_C_SPEC, "--seed", "1",
                                             "--depth", "-3"), "--depth"),
    # only verify takes --depth, to refuse a depth below the cut
    "simulate-depth": (lambda t, p: _command(t, "simulate", Z4_CASE_C_SPEC, "--seed", "1",
                                             "--paths", "5", "--depth", "200"),
                       "unrecognized arguments: --depth"),
    "decompose-depth": (lambda t, p: _command(t, "decompose", Z4_CASE_C_SPEC, "--seed", "1",
                                              "--paths", "5", "--depth", "200"),
                        "unrecognized arguments: --depth"),
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
    "weights-bool": (lambda t, p: _command(
        t, "classify", _z4_tail_spec({"kind": "weights", "w": [True, False, False, False]})),
        "list of numbers, got True"),
    "weights-numeric-string": (lambda t, p: _command(
        t, "classify", _z4_tail_spec({"kind": "weights", "w": ["0.5", "0", "0.5", "0"]})),
        "list of numbers, got '0.5'"),
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
    "v-law-weights-bool": (lambda t, p: _command(
        t, "simulate", Z4_CASE_C_SPEC, "--seed", "1", "--paths", "5", "--kind", "mixture",
        "--v-law", json.dumps({"kind": "weights", "w": [True, False, False, False]})),
        "list of numbers, got True"),
    # no V law is read where no mixture is built fresh, so a --v-law there is refused
    **{f"v-law-{command}-{kind}": (
        lambda t, p, command=command, kind=kind: _command(
            t, command, Z4_CASE_C_SPEC, "--seed", "1", "--paths", "5", "--kind", kind,
            "--v-law", '{"kind": "haar"}'),
        f"--v-law sets a fresh mixture's V law; --kind {kind} takes none")
       for command in ("simulate", "decompose") for kind in ("extremal", "uniform")},
    "v-law-not-json-extremal": (lambda t, p: _command(t, "simulate", Z4_CASE_C_SPEC, "--seed",
                                                      "1", "--paths", "5", "--kind", "extremal",
                                                      "--v-law", "{bad"), "--v-law"),
    "v-law-decompose-ensemble-file": (lambda t, p: [
        *_decompose_file(t, p), "--v-law", '{"kind": "haar"}'],
        "--v-law sets a fresh mixture's V law; an --ensemble file takes none"),
    "kind-decompose-ensemble-file": (lambda t, p: [*_decompose_file(t, p), "--kind", "mixture"],
                                     "--kind sets a fresh ensemble's kind; "
                                     "an --ensemble file names its own"),
    # only classify and limit read the certified depth, so only they take its flags
    **{f"{flag[2:]}-{command}": (
        lambda t, p, command=command, flag=flag: _command(
            t, command, Z4_CASE_C_SPEC, "--seed", "1", "--paths", "5", flag, "3"),
        f"unrecognized arguments: {flag}")
       for command in ("simulate", "decompose", "verify") for flag in ("--eps", "--max-depth")},
    # each classify engine refuses a flag that only the other one reads
    "torus-classify-eps": (lambda t, p: _command(t, "classify", TORUS_HALF_ATOMS_SPEC, "--torus",
                                                 "--eps", "0.5"),
                           "--eps is read only by classify without --torus"),
    "torus-classify-max-depth": (lambda t, p: _command(t, "classify", TORUS_HALF_ATOMS_SPEC,
                                                       "--torus", "--max-depth", "3"),
                                 "--max-depth is read only by classify without --torus"),
    "finite-classify-p-max": (lambda t, p: _command(t, "classify", Z4_CASE_C_SPEC, "--p-max", "64"),
                              "--p-max is read only by classify with --torus"),
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
    # mus, points and head must be JSON lists, and each refusal names its field
    "torus-periodic-mus-object": (lambda t, p: _command(
        t, "classify", {"tail": {"kind": "periodic", "mus": {"kind": "dirac", "x": 0.5}}},
        "--torus"), "periodic tail spec requires a non-empty 'mus' list"),
    "torus-atoms-points-object": (lambda t, p: _command(
        t, "classify", _torus_spec({"kind": "atoms", "points": {"a": 1}}), "--torus"),
        "atoms spec 'points' must be a non-empty list of [x, w] pairs"),
    "torus-schedule-head-number": (lambda t, p: _command(
        t, "classify", {"tail": {"kind": "gauss_schedule", "head": 0.3}}, "--torus"),
        "gauss_schedule tail 'head' must be a list of numbers, got 0.3"),
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
    "input-directory": (lambda t, p: ["classify", "--input", str(t), "--out", str(t / "out")],
                        "cannot be used: Is a directory"),
    "input-not-utf8": (lambda t, p: ["limit", "--input", _not_utf8(t, Z4_CASE_C_SPEC),
                                     "--out", str(t / "out")], "cannot be used: not UTF-8 text"),
    "decompose-ensemble-directory": (lambda t, p: _decompose_ensemble_at(t, str(t)),
                                     "cannot be used: Is a directory"),
    "decompose-ensemble-not-utf8": (lambda t, p: _decompose_ensemble_at(t, _not_utf8(t, p)),
                                    "cannot be used: not UTF-8 text"),
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


@pytest.mark.parametrize("torus", [False, True], ids=["finite", "torus"])
@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
def test_unusable_out_exits_2_naming_it(torus, under, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker / "out" if under else blocker
    spec = write_spec(tmp_path, TORUS_HALF_ATOMS_SPEC if torus else Z4_CASE_C_SPEC)
    rc = main(["classify", "--input", str(spec), "--out", str(out), *["--torus"] * torus])
    err = capsys.readouterr().err
    assert rc == 2 and f"error: output directory {out} cannot be used" in err, err
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("command, torus, name", [
    ("classify", False, "classification.json"),
    ("classify", True, "pi_table.csv"),
    ("classify", True, "pi_curves.csv"),
    ("verify", False, "report.json"),
], ids=["finite-classify", "torus-pi-table", "torus-pi-curves", "verify-report"])
def test_output_file_taken_by_a_directory_exits_2_naming_it(command, torus, name,
                                                            tmp_path, capsys):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    spec = write_spec(tmp_path, TORUS_HALF_ATOMS_SPEC if torus else Z4_CASE_C_SPEC)
    seeded = ["--seed", "1", "--paths", "1000"] if command == "verify" else []
    rc = main([command, "--input", str(spec), "--out", str(out), *["--torus"] * torus, *seeded])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err == f"error: output file {out / name} cannot be used: Is a directory\n"


def test_an_allocation_that_does_not_fit_exits_5_naming_the_command(tmp_path):
    # Zn:1000000's 10^12-cell table fits in no address space; the 2 GB cap
    # keeps the child from reaching far if it tried. The child prints the
    # seconds from its first import to its exit.
    spec = write_spec(tmp_path, {"group": {"kind": "builtin", "name": "Zn:1000000"},
                                 "tail": {"kind": "constant", "mu": {"kind": "haar"}}})
    argv = ["classify", "--input", str(spec), "--out", str(tmp_path / "out")]
    code = ("import sys, time\nstart = time.perf_counter()\n"
            f"from convlimit.cli import main\nrc = main({argv!r})\n"
            "print(time.perf_counter() - start)\nsys.exit(rc)\n")
    cap = 2 << 30
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert done.returncode == 5, done.stderr
    assert done.stderr == "error: classify ran out of memory\n"
    assert float(done.stdout) < 1.0


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
