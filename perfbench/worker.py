"""One fresh worker process: set up, run passes of one workload, report.

Started by ``run.py``; not meant to be run by hand. Set-up is everything
from process start to the first call of the first pass: interpreter start,
imports and writing the generated spec files. Each pass runs the workload's
commands in order through ``convlimit.cli.main(argv)``, in-process, and is
timed as a whole and per command; the parent treats the first pass as a
warm-up and leaves its times out. Output checks are left to the parent,
which reads the first pass's files after this process exits, so checking
never adds to this process's peak RSS. Later passes are only hashed (timestamps
stripped) and compared with the first, which is the determinism check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from convlimit import cli, groups, limits, solutions, stats  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _digest(out: Path) -> str:
    """Hash of every file under a command's output directory, timestamps stripped.

    Streams each file so that hashing adds little to peak RSS. Until the
    timestamp is found, the last ``hold`` bytes of a chunk wait for the next
    one, so a timestamp split across two chunks is still stripped.
    """
    hold = 128
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        pending, stripped = b"", False
        with path.open("rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                buf = pending + chunk
                if not stripped:
                    new = workloads.strip_timestamp(buf)
                    stripped, buf = new != buf, new
                h.update(buf if stripped else buf[:-hold])
                pending = b"" if stripped else buf[-hold:]
        h.update(pending)
    return h.hexdigest()


def _dir_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir()) if out.exists() else 0


def _run_pass(cmds, spec_paths, pass_dir: Path, main) -> list[dict]:
    out_dirs = {c.id: pass_dir / c.id for c in cmds}
    records = []
    sink = io.StringIO()
    for c in cmds:
        argv = c.argv(spec_paths[c.id], out_dirs)
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = main(argv)
        except Exception:  # an exception is a failed operation, not a crash of the run
            rc, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        sink.seek(0)
        sink.truncate()
        reads = [argv[i + 1] for i, a in enumerate(argv) if a in ("--input", "--ensemble")]
        records.append({"id": c.id, "command": c.command, "part": c.part, "torus": "--torus" in c.args,
                        "paths": c.paths, "seconds": seconds, "exit": rc, "error": error,
                        "bytes_read": sum(Path(f).stat().st_size for f in reads if Path(f).exists())})
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--work", required=True, help="scratch directory of this worker")
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    ap.add_argument("--spans", help="where to write the spans of traced passes")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the first timed call would start")
    args = ap.parse_args()

    work = Path(args.work)
    cmds = workloads.commands(args.workload, args.seed, args.scale)
    spec_dir = work / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    spec_paths = {}
    for c in cmds:
        spec_paths[c.id] = spec_dir / f"{c.id}.json"
        spec_paths[c.id].write_text(json.dumps(c.spec), encoding="utf-8")
    result = {"setup_end": time.monotonic()}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = Tracer({"cli": cli, "limits": limits, "groups": groups,
                     "solutions": solutions, "stats": stats})
    passes = []
    layer = []
    first_digest: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        i = len(passes)
        traced = bool(args.trace) and i % 2 == 1
        pass_dir = work / ("pass0" if i == 0 else "pass")
        if traced:
            tracer.install()
            run_main = tracer.wrap(cli.main, "cli.main")
        else:
            run_main = cli.main
        t0 = time.perf_counter()
        records = _run_pass(cmds, spec_paths, pass_dir, run_main)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()

        # everything below is outside the timed region
        for c, r in zip(cmds, records):
            out = pass_dir / c.id
            r["bytes_written"] = _dir_bytes(out)
            digest = _digest(out) if out.exists() else ""
            first_digest.setdefault(c.id, digest)
            r["same_as_first"] = digest == first_digest[c.id]
        if traced:
            layer.append(tracer.pass_metrics(len(tracer.passes) - 1, {
                "cli.bytes_read": sum(r["bytes_read"] for r in records),
                "cli.bytes_written": sum(r["bytes_written"] for r in records),
            }))
        if i > 0:
            shutil.rmtree(pass_dir)
        passes.append({"wall": wall, "traced": traced, "commands": records})

        elapsed = time.perf_counter() - start
        # the warm-up pass, then at least two timed ones (one traced, one not,
        # with --trace 1)
        if len(passes) >= 3 and elapsed + wall > args.seconds:
            break

    result.update({
        "passes": passes,
        "layer": layer,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "CONV_LIMIT_THREADS": solutions._max_workers(),
        },
    })
    if args.trace and args.spans:
        tracer.dump(Path(args.spans))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
