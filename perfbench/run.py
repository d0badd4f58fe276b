"""End-to-end and per-layer benchmark of convlimit.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify-verify --seed 1 --seconds 58 --trace 0

Workloads (see ``workloads.py`` and ``NOTES.md`` for why each exists):
``certify-verify`` and ``path-io``.

With ``--trace 0`` a run starts ``SETUP_PROBES`` set-up-only workers, then
one worker that repeats the workload's pass for about ``--seconds`` seconds
(at least three passes), one fresh process at a time. The first pass is a
warm-up: it is checked but not timed. The run prints every end-to-end
metric with its unit, median, tail percentile and sample count, and ends
with one JSON line holding the metrics listed in BENCHMARK.json. With
``--trace 1`` one worker alternates untraced and traced passes and the JSON
line holds the per-layer metrics. Either way the first pass's outputs are
checked against the answers the generator knows, and every later pass must
reproduce them byte for byte apart from ``generated_at``.

The library runs at its default ``CONV_LIMIT_THREADS``; any value in the
environment is removed for the workers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

SETUP_PROBES = 4
DEADLINE_S = 170.0

# The end-to-end metrics of the JSON line: present on every workload.
E2E = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# Printed where the workload runs the command; not in the JSON line. So is
# the time of each named part of a pass (``<part>_s``).
COMMAND_METRICS = ("classify_s", "limit_s", "torus_classify_s", "simulate_s",
                   "decompose_s", "verify_s")


def _percentile_summary(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    qs = statistics.quantiles(values, n=100, method="inclusive") if len(values) > 1 else values * 99
    tail = next((p for p in (99, 95, 90, 75, 50) if len(values) * (100 - p) / 100 >= 10), None)
    tail_txt = f"p{tail}={qs[tail - 1]:.4f}" if tail else "p-tail n/a (<20 samples)"
    return f"median={statistics.median(values):.4f}  {tail_txt}  n={len(values)}"


def _spawn(args, work: Path, result: Path, deadline: float, extra: list[str]) -> tuple[dict, float]:
    env = {k: v for k, v in os.environ.items() if k != "CONV_LIMIT_THREADS"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work", str(work), "--result", str(result), *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: worker exceeded the {DEADLINE_S:.0f} s deadline")
    if rc != 0:
        raise SystemExit(f"error: worker exited with code {rc}")
    return json.loads(result.read_text(encoding="utf-8")), spawned


def _check(cmds, pass0: Path, worker: dict) -> tuple[int, int, int, int, list[str]]:
    """attempted, failed, verify runs, rejected verify runs, and error messages."""
    out_dirs = {c.id: pass0 / c.id for c in cmds}
    errors = {}
    for c, r in zip(cmds, worker["passes"][0]["commands"]):
        if r["error"]:
            errors[c.id] = [r["error"]]
            continue
        try:
            errors[c.id] = workloads.check(c, out_dirs[c.id], r["exit"], out_dirs)
        except (OSError, LookupError, ValueError, TypeError) as exc:  # missing or malformed output
            errors[c.id] = [f"unreadable output: {exc!r}"]
    attempted = failed = verifies = rejects = 0
    messages = [f"{cid}: {e}" for cid, errs in errors.items() for e in errs]
    first = worker["passes"][0]["commands"]
    for i, p in enumerate(worker["passes"]):
        for c, r, r0 in zip(cmds, p["commands"], first):
            attempted += 1
            repeated = r["exit"] == r0["exit"] and r["same_as_first"]
            if not repeated:
                messages.append(f"{c.id}: pass {i} differs from pass 0 (exit {r['exit']}, {r['error']})")
            failed += bool(errors[c.id]) or not repeated
            if c.command == "verify":
                verifies += 1
                rejects += not errors[c.id] and workloads.rejected(out_dirs[c.id])
    return attempted, failed, verifies, rejects, messages


def _command_metrics(untraced: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for name in COMMAND_METRICS:
        series = []
        for p in untraced:
            secs = [r["seconds"] for r in p["commands"]
                    if f"{'torus_' if r['torus'] else ''}{r['command']}_s" == name]
            if secs:
                series.append(sum(secs))
        if series:
            out[name] = series
    for part in dict.fromkeys(r["part"] for r in untraced[0]["commands"] if r["part"]):
        out[f"{part}_s"] = [sum(r["seconds"] for r in p["commands"] if r["part"] == part)
                            for p in untraced]
    rates = []
    for p in untraced:
        sampled = [r for r in p["commands"] if r["paths"]]
        if sampled:
            rates.append(sum(r["paths"] for r in sampled) / sum(r["seconds"] for r in sampled))
    if rates:
        out["paths_per_s"] = rates
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                    help="'smoke' runs the same commands at tiny sizes")
    args = ap.parse_args()

    if not (ROOT / "src" / "convlimit" / "cli.py").is_file():
        print(f"error: no convlimit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = HERE / ".work" / "spans" / f"{args.workload}.json.gz"
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_PROBES):
                probe, spawned = _spawn(args, work / f"probe{k}", work / f"probe{k}.json",
                                        deadline, ["--setup-only"])
                setups.append(probe["setup_end"] - spawned)
        worker, spawned = _spawn(args, work / "main", work / "main.json", deadline,
                                 ["--spans", str(spans)] if args.trace else [])
        setups.append(worker["setup_end"] - spawned)
        cmds = workloads.commands(args.workload, args.seed, args.scale)
        attempted, failed, verifies, rejects, messages = _check(cmds, work / "main" / "pass0", worker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # pass 0 is the warm-up (checked, not timed); it is untraced
    untraced = [p for p in worker["passes"][1:] if not p["traced"]]
    walls = [p["wall"] for p in untraced]
    m = worker["machine"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(worker['passes'])}  commands/pass {len(cmds)}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in m.items()))
    for msg in messages:
        print(f"CHECK FAILED {msg}")
    print(f"{'error_rate':20s} ratio  {failed / attempted:.4f}  ({failed} of {attempted} commands failed)")

    if args.trace:
        layer = {name: statistics.median(p[name] for p in worker["layer"])
                 for name, _ in LAYER_METRICS if name != "trace.overhead_s"}
        traced_walls = [p["wall"] for p in worker["passes"] if p["traced"]]
        layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics = {}
        for name, unit in LAYER_METRICS:
            print(f"{name:30s} {unit:6s} {layer[name]:.6g}  (median of {len(worker['layer'])} traced passes)")
            metrics[name] = {"value": layer[name], "unit": unit}
    else:
        series = {"setup_s": setups, "wall_s": walls}
        for name in ("setup_s", "wall_s"):
            print(f"{name:20s} s      {_percentile_summary(series[name])}")
        print(f"{'peak_rss_mb':20s} MB     {worker['peak_rss_mb']:.1f}  (getrusage, pass worker)")
        for name, values in _command_metrics(untraced).items():
            unit = "1/s" if name == "paths_per_s" else "s"
            print(f"{name:20s} {unit:6s} {_percentile_summary(values)}")
        if verifies:
            print(f"{'reject_rate':20s} ratio  {rejects / verifies:.4f}  "
                  f"({rejects} of {verifies} verify runs)")
        values = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
