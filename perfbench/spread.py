"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads path-io --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out summary.json

For every workload and end-to-end metric it prints the median of the
per-seed values and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json. A spread under a third of the bound
is marked ``steady``. With ``--trace`` it makes traced runs instead and
reports the median of every per-layer metric. Runs go one at a time.
``--out`` merges the results into a JSON file, one entry per workload.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


_PRINTED = re.compile(r"^(\w+)\s+(\S+)\s+(?:median=)?([\d.]+)")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = next(line for line in lines if line.startswith("machine "))
    result["machine"] = dict(kv.split("=") for kv in machine.split()[1:])
    # the command-level metrics that run.py prints but keeps out of the JSON line
    result["printed"] = {m[1]: (float(m[3]), m[2]) for m in map(_PRINTED.match, lines) if m}
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="make traced runs, for the per-layer metrics")
    ap.add_argument("--out", type=Path, help="write every value and summary as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = json.loads(args.out.read_text(encoding="utf-8")) if args.out and args.out.exists() else {}
    for workload in args.workloads:
        runs = [_run(workload, s, args.seconds, int(args.trace)) for s in args.seeds]
        entry = summary.setdefault(workload, {})
        key = "traced" if args.trace else "untraced"
        entry[key] = {"seeds": args.seeds, "seconds": args.seconds, "machine": runs[0]["machine"],
                      "failed": sum(r["failed"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs)}
        print(f"{workload} ({key}): {entry[key]['failed']} of {entry[key]['attempted']} commands failed")
        if args.trace:
            entry["per_layer"] = {
                name: {"median": statistics.median(r["metrics"][name]["value"] for r in runs),
                       "unit": m["unit"]}
                for name, m in runs[0]["metrics"].items()
            }
            for name, v in entry["per_layer"].items():
                print(f"  {name:30s} {v['unit']:6s} {v['median']:.6g}")
            continue
        entry["end_to_end"] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bound / 3 else ("within bound" if spread < bound else "TOO WIDE")
            print(f"  {name:12s} median {med:10.4f}  IQR/median {spread:.4f}  bound {bound}  {verdict}")
            entry["end_to_end"][name] = {"values": values, "median": statistics.median(values),
                                         "iqr_over_median": spread,
                                         "unit": runs[0]["metrics"][name]["unit"]}
        entry["printed"] = {
            name: {"median": statistics.median(r["printed"][name][0] for r in runs), "unit": unit}
            for name, (_, unit) in runs[0]["printed"].items() if name not in bounds
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
