"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root with ``python -m pytest perfbench/test_smoke.py``.
It is outside the tier-1 suite (``testpaths`` is ``tests``) and times nothing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tables  # noqa: E402
import workloads  # noqa: E402
from convlimit.groups import builtin_group  # noqa: E402
from convlimit.limits import compute_limit, noise_from_spec  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", ["Z4", "S3", "S4", "D4", "Q8", "Zn:7", "product:S3xZn:4",
                                  "product:D4xZn:2"])
def test_reference_tables_match_builtin_groups(name):
    assert np.array_equal(tables.table(name).mul, builtin_group(name).mul)


def test_differences_rule_matches_compute_limit():
    """On abelian constant tails H is generated by the differences of the support."""
    rng = np.random.default_rng(0)
    for i in range(16):
        name = "product:Zn:4xZn:6" if i % 4 == 0 else f"Zn:{int(rng.integers(3, 13))}"
        t = tables.table(name)
        support = rng.choice(t.order, size=int(rng.integers(1, 4)), replace=False)
        w = rng.uniform(0.5, 1.5, support.size)
        mu = workloads._weights(t.order, zip(support.tolist(), w))
        diffs = {int(t.mul[a, t.inv[b]]) for a in support for b in support}
        res = compute_limit(noise_from_spec(workloads._noise(name, [], workloads._constant(mu))))
        assert list(res.subgroup.members) == tables.closure(t, diffs)


def test_generator_is_seeded():
    for w in workloads.WORKLOADS:
        a = [(c.id, c.spec, c.args) for c in workloads.commands(w, 7, "smoke")]
        b = [(c.id, c.spec, c.args) for c in workloads.commands(w, 7, "smoke")]
        assert a == b


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_checks_outputs_and_reports_end_to_end(workload):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", "0", "--scale", "smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    out = _run(ROOT, "--workload", "path-io", "--seed", "3", "--seconds", "1",
               "--trace", "1", "--scale", "smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert result["metrics"]["solutions.exact_ratio"]["value"] == 1.0
    assert result["metrics"]["cli.to_records_s"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = _run(tmp_path, "--workload", "certify-verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
