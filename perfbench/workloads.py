"""Seeded inputs, the command list of one pass, and the output checks.

Every workload is a fixed list of CLI commands; the seed chooses the
details of each input (generators, cosets, weights, prefixes) but never its
size, so a pass costs about the same for every seed. Each input carries the
answer it must produce, known by construction:

* constant tails on abelian groups: H is the subgroup generated by the
  differences of the support points;
* lazy tails (identity in the support) behind a random prefix: H is a
  conjugate of the subgroup the support generates;
* tails uniform on a coset gK of a normal K behind a random prefix: H is K
  and the certified depth is the prefix length plus the confirmation span;
* circle atoms on a 1/q grid: p_mu = q / gcd(q, gcd of the numerator
  differences); summable Gaussian schedules: p_mu = 1.

Outputs without a closed-form answer get structural checks: the case
agrees with |H|, lambda_0 is H-invariant, the convolution-equation residual
is below tolerance and the two gauges agree up to conjugacy.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tables

WORKLOADS = ("certify-verify", "path-io")

# Sizes per scale. "full" is the benchmark; "smoke" keeps the same commands
# and checks at sizes that run in a second, for the harness smoke test.
SIZES = {
    "full": {
        "lazy": ((30, "limit", 1), (40, "classify", 1), (60, "classify", 2)),
        "p_max": 256,
        "s4_cyclic": 20, "zn": 500, "zn_step": 50, "d4_cyclic": 64, "d4_step": 16,
        "io_paths": 10000,
        "verify_paths": 50000, "verify_depth": 200,
    },
    "smoke": {
        "lazy": ((8, "limit", 1), (10, "classify", 1), (12, "classify", 2)),
        "p_max": 16,
        "s4_cyclic": 4, "zn": 60, "zn_step": 6, "d4_cyclic": 8, "d4_step": 2,
        "io_paths": 1000,
        "verify_paths": 1000, "verify_depth": 60,
    },
}

# Tolerances of the structural checks.
INVARIANCE_TOL = 1e-6
RESIDUAL_TOL = 1e-6

# Case B on S3 whose lambda_0 is 0.08 in total variation from its translate
# by element 2, under the battery's 0.1 H-invariance threshold: verify
# reports passed=false for every seed and path count. Kept on purpose.
S3_NEAR_SYMMETRY = {
    "group": {"kind": "builtin", "name": "S3"},
    "prefix": [
        {"kind": "weights", "w": [0.4, 0.3, 0.2, 0.1, 0.0, 0.0]},
        {"kind": "weights", "w": [0.5, 0.0, 0.0, 0.0, 0.3, 0.2]},
    ],
    "tail": {"kind": "constant", "mu": {"kind": "delta", "at": 1}},
}

_TIMESTAMP = re.compile(rb'"generated_at": "[^"]*"')

_S4_TRANSPOSITIONS = [i for i, p in enumerate(itertools.permutations(range(4)))
                      if sum(x != y for x, y in enumerate(p)) == 2]


@dataclass
class Command:
    """One CLI call: ``<command> --input <spec> --out <dir> <args>``.

    ``args`` may name another command's output directory as ``{out:<id>}``.
    ``expect`` holds the known answer the check compares against; ``part``
    names the part of a ``certify-verify`` pass the command belongs to.
    """

    id: str
    command: str
    spec: dict
    args: list[str] = field(default_factory=list)
    expect: dict = field(default_factory=dict)
    part: str = ""

    def argv(self, spec_path: Path, out_dirs: dict[str, Path]) -> list[str]:
        args = [re.sub(r"\{out:([\w-]+)\}", lambda m: str(out_dirs[m.group(1)]), a)
                for a in self.args]
        return [self.command, "--input", str(spec_path), "--out", str(out_dirs[self.id]), *args]

    @property
    def paths(self) -> int:
        """Paths this command samples or decomposes (0 for the limit commands)."""
        return int(self.args[self.args.index("--paths") + 1]) if "--paths" in self.args else 0


# ---------------------------------------------------------------------------
# Spec helpers
# ---------------------------------------------------------------------------

def _builtin(name: str) -> dict:
    return {"kind": "builtin", "name": name}


def _weights(n: int, points) -> dict:
    w = np.zeros(n)
    for g, x in points:
        w[g] += x
    return {"kind": "weights", "w": (w / w.sum()).tolist()}


def _random_full(rng, n: int, alpha: float = 1.0) -> dict:
    return {"kind": "weights", "w": rng.dirichlet(np.full(n, alpha)).tolist()}


def _uniform_on(n: int, members) -> dict:
    return _weights(n, [(g, 1.0) for g in members])


def _noise(group: str, prefix: list, tail: dict) -> dict:
    return {"group": _builtin(group), "prefix": prefix, "tail": tail}


def _constant(mu: dict) -> dict:
    return {"kind": "constant", "mu": mu}


def _unit(rng, n: int) -> int:
    return int(rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1]))


def _support(mu: dict) -> list[int]:
    return [g for g, x in enumerate(mu["w"]) if x > 0]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _deep_chain(rng, size) -> list[Command]:
    cmds = []
    for n, command, step in size["lazy"]:
        # lazy walk on {0, s, n - s}, s = step * unit: the automorphism
        # x -> unit * x fixes the certified depth (about 1.35 (n/step)^2,
        # under the default budget of 4096), the seed only relabels
        s = step * _unit(rng, n) % n
        mu = _weights(n, [(0, 0.5), (s, 0.25), (n - s, 0.25)])
        d = math.gcd(step, n)
        cmds.append(Command(f"lazy-z{n}", command, _noise(f"Zn:{n}", [], _constant(mu)),
                            expect={"group": f"Zn:{n}", "H": list(range(0, n, d))}))

    d4 = tables.table("D4")
    mus = [_weights(8, [(0, 0.6), (int(rng.choice([1, 3])), 0.4)]),
           _weights(8, [(0, 0.6), (int(rng.integers(4, 8)), 0.4)])]
    gens = sorted({g for mu in mus for g in _support(mu)})
    cmds.append(Command("d4-periodic", "limit",
                        _noise("D4", [_random_full(rng, 8)], {"kind": "periodic", "mus": mus}),
                        expect={"group": "D4", "H_conj": tables.closure(d4, gens)}))

    x = int(rng.choice([1, 2, 3, 5, 6, 7]))  # a coset x{1, -1} of the centre
    cmds.append(Command("q8-prefixed", "limit",
                        _noise("Q8", [_random_full(rng, 8)], _constant(_uniform_on(8, [x, (x + 4) % 8]))),
                        expect={"group": "Q8", "H": [0, 4]}))

    s4 = tables.table("S4")
    t, c = rng.choice(range(1, 24), size=2, replace=False)
    mu = _weights(24, [(0, 0.5), (int(t), 0.25), (int(c), 0.25)])
    cmds.append(Command("s4-prefixed", "limit",
                        _noise("S4", [_random_full(rng, 24), _random_full(rng, 24)], _constant(mu)),
                        expect={"group": "S4", "H_conj": tables.closure(s4, _support(mu))}))

    p_max = str(size["p_max"])
    gauss = {
        "prefix": [{"kind": "dirac", "x": float(rng.uniform(0, 1))},
                   {"kind": "gauss", "m": float(rng.uniform(0, 1)), "sd": float(rng.uniform(0.02, 0.1))}],
        "tail": {"kind": "gauss_schedule", "head": [float(rng.uniform(0.01, 0.05))],
                 "c": float(rng.uniform(0.05, 0.15)), "r": float(rng.uniform(0.3, 0.8))},
    }
    cmds.append(Command("torus-gauss", "classify", gauss, ["--torus", "--p-max", p_max],
                        expect={"p_mu": 1}))
    q = int(rng.choice([6, 8, 10, 12]))
    nums = sorted(int(a) for a in rng.choice(q, size=3, replace=False))
    w = rng.dirichlet(np.full(3, 4.0))
    atoms = {
        "prefix": [{"kind": "gauss", "m": float(rng.uniform(0, 1)), "sd": float(rng.uniform(0.02, 0.1))}],
        "tail": _constant({"kind": "atoms", "points": [[a / q, float(x)] for a, x in zip(nums, w)]}),
    }
    d = math.gcd(q, math.gcd(nums[1] - nums[0], nums[2] - nums[0]))
    cmds.append(Command("torus-atoms", "classify", atoms, ["--torus", "--p-max", p_max],
                        expect={"p_mu": q // d}))
    return cmds


def _wide_group(rng, size) -> list[Command]:
    cmds = []
    m = size["s4_cyclic"]
    name = f"product:S4xZn:{m}"
    t = tables.table(name)
    # (transposition, unit): |H| = lcm(2, m) and the normal closure has
    # index 2 for every choice, so the seed does not move the cost
    sigma = int(rng.choice(_S4_TRANSPOSITIONS))
    gen = sigma * m + _unit(rng, m)
    members = tables.closure(t, [gen])
    cmds.append(Command("s4xz-haar", "classify",
                        _noise(name, [], _constant({"kind": "haar_subgroup", "members": members})),
                        expect={"group": name, "H": members}))

    n, step = size["zn"], size["zn_step"]
    g = int(rng.integers(0, n))
    coset = [(g + j) % n for j in range(0, n, step)]
    mu = _weights(n, zip(coset, rng.uniform(0.7, 1.3, len(coset))))
    cmds.append(Command(f"z{n}-coset", "classify", _noise(f"Zn:{n}", [], _constant(mu)),
                        expect={"group": f"Zn:{n}", "H": list(range(0, n, step))}))

    m, step = size["d4_cyclic"], size["d4_step"]
    name = f"product:D4xZn:{m}"
    t = tables.table(name)
    k = tables.closure(t, [2 * m, step])  # <r^2> x <step>, central
    g = int(rng.integers(0, t.order))
    coset = sorted(int(x) for x in t.mul[g, k])
    cmds.append(Command("d4xz-coset", "classify", _noise(name, [], _constant(_uniform_on(t.order, coset))),
                        expect={"group": name, "H": k}))
    return cmds


# Proper nontrivial normal subgroups of D4 (r = 1, s = 4).
_D4_NORMAL = ([0, 2], [0, 1, 2, 3], [0, 2, 4, 6], [0, 2, 5, 7])


def _coset_tail(rng, group: str) -> tuple[dict, list[int]]:
    """A tail uniform on a coset gK of a normal K, and K."""
    t = tables.table(group)
    k = [0, 2] if group == "Z4" else _D4_NORMAL[int(rng.integers(len(_D4_NORMAL)))]
    g = int(rng.integers(0, t.order))
    return _constant(_uniform_on(t.order, t.mul[g, k])), list(k)


def _path_io(rng, size) -> list[Command]:
    group = str(rng.choice(["Z4", "D4"]))
    tail, k = _coset_tail(rng, group)
    n = tables.table(group).order
    spec = _noise(group, [_random_full(rng, n), _random_full(rng, n)], tail)
    common = ["--seed", str(int(rng.integers(1 << 30))), "--paths", str(size["io_paths"])]
    expect = {"group": group, "case": "C", "H_order": len(k)}
    return [
        Command("simulate", "simulate", spec, ["--kind", "mixture", *common], expect),
        Command("decompose-file", "decompose", spec,
                ["--ensemble", "{out:simulate}/ensemble.json", *common], expect),
        Command("decompose-fresh", "decompose", spec, ["--kind", "mixture", *common], expect),
    ]


def _verify_battery(rng, size) -> list[Command]:
    common = ["--seed", str(int(rng.integers(1 << 30))),
              "--paths", str(size["verify_paths"]), "--depth", str(size["verify_depth"])]
    # One spiky prefix measure: a smoother lambda_0 sits closer to its
    # translates and trips the battery's fixed 0.1 TV threshold more often
    # (see S3_NEAR_SYMMETRY); such inputs are kept and counted as rejections.
    tail, _ = _coset_tail(rng, "D4")
    case_c = _noise("D4", [_random_full(rng, 8, 0.5)], tail)
    a, b = (int(x) for x in rng.integers(0, 8, size=2))
    case_b = _noise("Q8", [_random_full(rng, 8, 0.5)],
                    {"kind": "periodic", "mus": [{"kind": "delta", "at": a}, {"kind": "delta", "at": b}]})
    return [
        Command("verify-c", "verify", case_c, common, {"case": "C"}),
        Command("verify-b", "verify", case_b, common, {"case": "B"}),
        Command("verify-s3-near-symmetry", "verify", S3_NEAR_SYMMETRY, common, {"case": "B"}),
    ]


def _certify_verify(rng, size) -> list[Command]:
    """Three parts, all in memory: slowly mixing noise on small groups,
    fast-certifying noise on wide groups, and the verify battery."""
    cmds = []
    for part, build in (("deep_chain", _deep_chain), ("wide_group", _wide_group),
                        ("verify_battery", _verify_battery)):
        for c in build(rng, size):
            c.part = part
            cmds.append(c)
    return cmds


_BUILDERS = {
    "certify-verify": _certify_verify,
    "path-io": _path_io,
}


def commands(workload: str, seed: int, scale: str = "full") -> list[Command]:
    """The commands of one pass; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, SIZES[scale])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def strip_timestamp(data: bytes) -> bytes:
    return _TIMESTAMP.sub(b'"generated_at": ""', data, count=1)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _case_of(order: int, h_order: int) -> str:
    return "A" if h_order == order else ("B" if h_order == 1 else "C")


def _check_subgroup(cmd: Command, members: list[int], t: tables.Table) -> list[str]:
    errs = []
    if "H" in cmd.expect and members != cmd.expect["H"]:
        errs.append(f"H = {members[:12]}..., expected {cmd.expect['H'][:12]}...")
    if "H_conj" in cmd.expect and not tables.is_conjugate(t, cmd.expect["H_conj"], members):
        errs.append(f"H = {members} is not conjugate to {cmd.expect['H_conj']}")
    return errs


def _check_limit(cmd: Command, out: Path) -> list[str]:
    t = tables.table(cmd.expect["group"])
    res = _read_json(out / "limit.json")
    members = res["subgroup"]["members"]
    errs = _check_subgroup(cmd, members, t)
    if res["case"] != _case_of(t.order, len(members)):
        errs.append(f"case {res['case']} disagrees with |H| = {len(members)}")
    if not res["conjugacy_uniqueness"]["ok"]:
        errs.append("the two gauges do not agree up to conjugacy")
    lam = np.array(res["lambdas"]["0"])
    for h in members:
        if np.abs(lam[t.mul[:, t.inv[h]]] - lam).max() > INVARIANCE_TOL:
            errs.append(f"lambda_0 is not invariant under h = {h}")
            break
    with (out / "conv_residuals.csv").open(newline="") as f:
        resid = [float(r["conv_eq_residual"]) for r in csv.DictReader(f)]
    if max(resid + [res["residuals"]["conv_eq"]]) > RESIDUAL_TOL:
        errs.append(f"conv_eq residual {max(resid + [res['residuals']['conv_eq']]):.2e} above tolerance")
    return errs


def _check_classify(cmd: Command, out: Path) -> list[str]:
    res = _read_json(out / "classification.json")
    if "p_mu" in cmd.expect:
        errs = []
        p_mu = cmd.expect["p_mu"]
        if res["p_mu"] != p_mu:
            errs.append(f"p_mu = {res['p_mu']}, expected {p_mu}")
        if res["case"] != ("A" if p_mu == 0 else "B" if p_mu == 1 else "C"):
            errs.append(f"case {res['case']} disagrees with p_mu = {res['p_mu']}")
        with (out / "pi_table.csv").open(newline="") as f:
            if sum(1 for _ in csv.DictReader(f)) != int(cmd.args[cmd.args.index("--p-max") + 1]):
                errs.append("pi_table.csv does not hold one row per frequency")
        return errs
    t = tables.table(cmd.expect["group"])
    members = res["subgroup"]["members"]
    strong = res["strong_subgroup"]["members"]
    errs = _check_subgroup(cmd, members, t)
    if res["case"] != _case_of(t.order, len(members)):
        errs.append(f"case {res['case']} disagrees with |H| = {len(members)}")
    conj = {int(x) for g in range(t.order) for x in tables.conjugate(t, members, g)}
    if strong != tables.closure(t, conj):
        errs.append("strong subgroup is not the normal closure of H")
    return errs


def _check_ensemble(cmd: Command, out: Path) -> list[str]:
    res = _read_json(out / "ensemble.json")
    errs = []
    if res["case"] != cmd.expect["case"] or res["n_paths"] != cmd.paths:
        errs.append(f"case {res['case']} / {res['n_paths']} paths, "
                    f"expected {cmd.expect['case']} / {cmd.paths}")
    mul = tables.table(cmd.expect["group"]).mul
    depth, k_min = res["depth"], res["k_min"]
    xi = np.array([r["xi"] for r in res["paths"]])
    eta = np.array([r["eta"] for r in res["paths"]])
    if xi.shape != (cmd.paths, depth + 1) or eta.shape != (cmd.paths, -k_min + 1):
        return errs + ["ensemble arrays do not match depth and k_min"]
    # eta_k = xi_k eta_{k-1} on the window
    lhs = eta[:, 1:]
    rhs = mul[xi[:, depth + k_min + 1:], eta[:, :-1]]
    if not np.array_equal(lhs, rhs):
        errs.append(f"recursion eta_k = xi_k eta_(k-1) fails on {int((lhs != rhs).any(axis=1).sum())} paths")
    return errs


def _check_decomposition(cmd: Command, out: Path) -> list[str]:
    res = _read_json(out / "decomposition.json")
    audit = res["audit"]
    errs = []
    if not audit["n_paths"] == audit["exact_reconstruction"] == cmd.paths:
        errs.append(f"exact reconstruction on {audit['exact_reconstruction']} of {audit['n_paths']} paths")
    t = tables.table(cmd.expect["group"])
    eta = np.array([r["eta"] for r in res["paths"]])
    phi = np.array([r["phi"] for r in res["paths"]])
    u = np.array([r["U"] for r in res["paths"]])
    v = np.array([r["V"] for r in res["paths"]])
    if not np.array_equal(t.mul[phi, t.mul[u, v[:, None]]], eta):
        errs.append("eta_k != phi_k U_k V on some path")
    if len(np.unique(u)) != cmd.expect["H_order"]:
        errs.append(f"U takes {len(np.unique(u))} values, expected |H| = {cmd.expect['H_order']}")
    return errs


def _check_report(cmd: Command, out: Path, exit_code: int) -> list[str]:
    res = _read_json(out / "report.json")
    errs = []
    if exit_code != (0 if res["passed"] else 1):
        errs.append(f"exit code {exit_code} disagrees with passed = {res['passed']}")
    if res["case"] != cmd.expect["case"] or res["case_checks"]["detected_case"] != cmd.expect["case"]:
        errs.append(f"case {res['case']}, expected {cmd.expect['case']}")
    if res["n_paths"] != cmd.paths or len(res["per_k"]) != 9 or res["bonferroni_tests"] != 9 * 5 + 1:
        errs.append("report does not cover the requested paths and window")
    if cmd.expect["case"] == "B" and res["case_checks"]["strong_determinism"] is not True:
        errs.append("case B paths are not rebuilt exactly from their noise")
    return errs


def check(cmd: Command, out: Path, exit_code: int, others: dict[str, Path]) -> list[str]:
    """Errors found in one command's outputs; an empty list means correct."""
    # exit 1 is verify's documented "verification failed"; any other code,
    # documented or not, means the command did not do its job
    allowed = (0, 1) if cmd.command == "verify" else (0,)
    if exit_code not in allowed:
        return [f"exit code {exit_code}"]
    if cmd.command == "limit":
        return _check_limit(cmd, out)
    if cmd.command == "classify":
        return _check_classify(cmd, out)
    if cmd.command == "simulate":
        return _check_ensemble(cmd, out)
    if cmd.command == "verify":
        return _check_report(cmd, out, exit_code)
    errs = _check_decomposition(cmd, out)
    if cmd.id == "decompose-file":
        fresh = others["decompose-fresh"] / "decomposition.json"
        if strip_timestamp((out / "decomposition.json").read_bytes()) != strip_timestamp(fresh.read_bytes()):
            errs.append("decomposition of the ensemble file differs from the fresh one")
    return errs


def rejected(out: Path) -> bool:
    """True when a verify report says passed = false."""
    return not _read_json(out / "report.json")["passed"]
