"""The runtime needs numpy alone: no command loads scipy.

Each case runs in a fresh interpreter, so modules the test process has
already imported (scipy among them, as the tests' oracle) cannot hide an
import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convlimit.cli import main

ROOT = Path(__file__).resolve().parent.parent

Z4_CASE_C_SPEC = {
    "group": {"kind": "builtin", "name": "Z4"},
    "prefix": [{"kind": "weights", "w": [0.1, 0.2, 0.3, 0.4]}],
    "tail": {"kind": "constant", "mu": {"kind": "weights", "w": [0.5, 0.0, 0.5, 0.0]}},
}

TORUS_GAUSS_SPEC = {
    "prefix": [{"kind": "gauss", "m": 0.3, "sd": 0.05}],
    "tail": {"kind": "periodic", "mus": [{"kind": "gauss", "m": 0.0, "sd": 0.1},
                                         {"kind": "atoms", "points": [[0.0, 0.5], [0.5, 0.5]]}]},
}


def _run_fresh(body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a new interpreter, then fail if any scipy module was loaded."""
    code = (f"import sys\n{body}\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("runtime")
    (d / "finite.json").write_text(json.dumps(Z4_CASE_C_SPEC))
    (d / "torus.json").write_text(json.dumps(TORUS_GAUSS_SPEC))
    assert main(["simulate", "--input", str(d / "finite.json"), "--out", str(d / "sim"),
                 "--seed", "3", "--paths", "50", "--kind", "mixture"]) == 0
    return d


COMMANDS = {
    "classify": ["classify", "--input", "{d}/finite.json"],
    "classify-torus": ["classify", "--torus", "--p-max", "16", "--input", "{d}/torus.json"],
    "limit": ["limit", "--input", "{d}/finite.json"],
    "simulate": ["simulate", "--input", "{d}/finite.json", "--seed", "1", "--paths", "50",
                 "--kind", "mixture"],
    "decompose-ensemble": ["decompose", "--input", "{d}/finite.json", "--seed", "3",
                           "--ensemble", "{d}/sim/ensemble.json"],
    "verify": ["verify", "--input", "{d}/finite.json", "--seed", "2", "--paths", "1000"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_loads_no_scipy(name, workdir):
    argv = [a.format(d=workdir) for a in COMMANDS[name]] + ["--out", str(workdir / name)]
    done = _run_fresh(f"from convlimit.cli import main\nassert main({argv!r}) == 0")
    assert done.returncode == 0, done.stderr
    assert any((workdir / name).iterdir())


def test_wrapped_gaussian_discretization_loads_no_scipy():
    done = _run_fresh("from convlimit.errors import NotRepresentable\n"
                      "from convlimit.torus import (WrappedGaussianSpec, char_fn,\n"
                      "                             discretize_to_cyclic)\n"
                      "spec = WrappedGaussianSpec(0.25, 0.05)\n"
                      "assert abs(char_fn(spec, 3)) < 1\n"
                      "try:\n"
                      "    discretize_to_cyclic(spec, 64)\n"
                      "except NotRepresentable:\n"
                      "    pass\n"
                      "else:\n"
                      "    raise AssertionError('a wrapped Gaussian went onto the grid')")
    assert done.returncode == 0, done.stderr


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0].split("=")[0].strip() for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
