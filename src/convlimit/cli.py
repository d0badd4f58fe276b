"""Command-line entry point: classify, limit, simulate, decompose, verify.

Structured results are JSON, curves are CSV; both are written only after a
command finishes, so malformed input never leaves partial output. Exit
codes: 0 success, 1 verification failure, 2 spec/parse error, 3 no
convergence within the depth budget, 4 indeterminate torus classification,
5 other domain errors.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    ConvLimitError,
    Indeterminate,
    InvalidSpec,
    NoConvergenceAtDepth,
)
from .groups import is_integer
from .limits import (
    DEFAULT_EPS_SHAPE,
    DEFAULT_MAX_DEPTH,
    LimitResult,
    compute_limit,
    noise_from_spec,
    strong_subgroup,
    verify_conjugacy_uniqueness,
)
from .measures import convolve, haar, measure_from_spec, tv_distance
from .solutions import (
    Ensemble,
    decompose_ensemble,
    extremal_ensemble,
    general_ensemble,
    recursion_break,
    uniform_ensemble,
)
from .stats import verify_theorems
from .torus import compute_p_mu, torus_noise_from_spec

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INDETERMINATE = 4
EXIT_DOMAIN = 5

SCHEMA_VERSION = 1
ENSEMBLE_KINDS = ("uniform", "extremal", "mixture")


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# Stands in for the "paths" text while the rest of the body is dumped.
_PATHS_MARK = "\x00paths"

# Paths rendered by one Ensemble.to_records call, when a record file is
# written and when one read back is checked.
RENDER_CHUNK = 1024

# Bytes read at a time from a record file.
READ_BLOCK = 1 << 20


def _json_parts(body: dict) -> tuple[str, str]:
    """The text of ``json.dumps(body, indent=2, sort_keys=True) + "\\n"`` before and after
    the value of ``body["paths"]``."""
    text = json.dumps({**body, "paths": _PATHS_MARK}, indent=2, sort_keys=True) + "\n"
    head, _, tail = text.partition(json.dumps(_PATHS_MARK))
    return head, tail


def _write_json(path: Path, payload: dict) -> None:
    """Write the payload as indented, key-sorted JSON.

    A ``"paths"`` value is an :class:`Ensemble`. Its records are written
    where ``json.dumps`` would have written them, ``RENDER_CHUNK`` paths per
    :meth:`Ensemble.to_records` call, so the file's text is never held whole.
    """
    body = {"schema_version": SCHEMA_VERSION, "generated_at": _timestamp(), **payload}
    ens = body.get("paths")
    with path.open("w", encoding="utf-8") as f:
        if ens is None:
            f.write(json.dumps(body, indent=2, sort_keys=True) + "\n")
            return
        head, tail = _json_parts(body)
        f.write(head)
        # one call even for no paths, which writes "[]"
        for start in range(0, max(ens.n_paths, 1), RENDER_CHUNK):
            f.write(ens.to_records(start, min(start + RENDER_CHUNK, ens.n_paths)))
        f.write(tail)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _load_input(args) -> dict:
    try:
        return json.loads(Path(args.input).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidSpec(f"input file not found: {args.input}") from None
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"input is not valid JSON: {exc}") from None


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _limit_from_args(args, noise) -> LimitResult:
    return compute_limit(
        noise,
        eps_shape=args.eps,
        max_depth=args.max_depth,
    )


def _subgroup_payload(result: LimitResult, members) -> dict:
    return {
        "members": [int(g) for g in members],
        "labels": [result.group.label(g) for g in members],
    }


def cmd_classify(args) -> int:
    spec = _load_input(args)
    out = _out_dir(args)
    if args.torus:
        noise = torus_noise_from_spec(spec)
        cls = compute_p_mu(noise, p_max=args.p_max)
        payload = {"command": "classify", "engine": "torus", **cls.to_json_dict()}
        table = [
            [p, b.upper, b.lower, b.decision]
            for p, b in sorted(cls.bounds.items())
        ]
        _write_json(out / "classification.json", payload)
        _write_csv(out / "pi_table.csv", ["p", "upper", "lower", "decision"], table)
        # the bytes csv.writer writes for these rows (it writes a float's repr),
        # one string per frequency in place of one list per row
        with (out / "pi_curves.csv").open("w", newline="", encoding="utf-8") as f:
            f.write("p,depth,partial_product\r\n")
            for p, b in sorted(cls.bounds.items()):
                f.write("".join(f"{p},{i},{v!r}\r\n" for i, v in enumerate(b.curve, 1)))
        print(f"case {cls.case}  p_mu = {cls.p_mu}")
        return EXIT_OK
    noise = noise_from_spec(spec)
    result = _limit_from_args(args, noise)
    strong = strong_subgroup(noise.group, result.subgroup)
    payload = {
        "command": "classify",
        "engine": "finite",
        "case": result.case,
        "group_order": noise.group.order,
        "subgroup": _subgroup_payload(result, result.subgroup.members),
        "strong_subgroup": _subgroup_payload(result, strong.members),
        "depth_used": result.depth_used,
        "residuals": dict(result.residuals),
    }
    _write_json(out / "classification.json", payload)
    print(f"case {result.case}  H = {list(result.subgroup.members)}")
    return EXIT_OK


def cmd_limit(args) -> int:
    spec = _load_input(args)
    out = _out_dir(args)
    noise = noise_from_spec(spec)
    result = _limit_from_args(args, noise)
    check = verify_conjugacy_uniqueness(noise, result, eps_shape=args.eps,
                                        max_depth=args.max_depth)
    payload = {
        "command": "limit",
        **result.to_json_dict(),
        "conjugacy_uniqueness": {
            "ok": check.ok,
            "witness": check.witness,
            "shape_gap": check.shape_gap,
        },
    }
    _write_json(out / "limit.json", payload)
    _write_csv(
        out / "shape_curve.csv",
        ["depth", "shape_distance"],
        [[-l, d] for l, d in result.shape_history],
    )
    rows = []
    for k in range(result.k_min + 1, 1):
        resid = tv_distance(
            result.lambdas[k], convolve(noise.measure_at(k), result.lambdas[k - 1])
        )
        rows.append([k, resid])
    _write_csv(out / "conv_residuals.csv", ["k", "conv_eq_residual"], rows)
    print(f"case {result.case}  depth_used = {result.depth_used}")
    return EXIT_OK


def _build_ensemble_for(args, noise, result, kind):
    depth = args.depth if args.depth is not None else 2 * result.depth_used
    if kind == "uniform":
        return uniform_ensemble(noise, depth, args.paths, args.seed)
    ens = extremal_ensemble(noise, result, depth, args.paths, args.seed)
    if kind == "extremal":
        return ens
    v_law = haar(noise.group)
    if args.v_law is not None:
        try:
            v_spec = json.loads(args.v_law)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"--v-law is not valid JSON: {exc}") from None
        v_law = measure_from_spec(noise.group, v_spec)
    return general_ensemble(ens, v_law, args.seed + 1)


def cmd_simulate(args) -> int:
    spec = _load_input(args)
    out = _out_dir(args)
    noise = noise_from_spec(spec)
    result = _limit_from_args(args, noise)
    ens = _build_ensemble_for(args, noise, result, args.kind)
    payload = {
        "command": "simulate",
        "kind": ens.kind,
        "seed": ens.seed,
        "n_paths": ens.n_paths,
        "depth": ens.depth,
        "k_min": ens.k_min,
        "case": result.case,
        "paths": ens,
    }
    _write_json(out / "ensemble.json", payload)
    print(f"simulated {ens.n_paths} {ens.kind} paths at depth {ens.depth}")
    return EXIT_OK


def _checked_header(payload: dict) -> tuple[str, int, int, int]:
    """The kind, seed, depth and k_min of an ensemble file, refused if malformed.

    A ``schema_version`` other than this program's is refused first, so that
    a file of another layout is never read as this one.
    """
    version = payload.get("schema_version", SCHEMA_VERSION)
    if not is_integer(version) or version != SCHEMA_VERSION:
        raise InvalidSpec(f"ensemble file has schema_version {version!r}; "
                          f"this program reads version {SCHEMA_VERSION}")
    try:
        k_min, depth = payload["k_min"], payload["depth"]
    except KeyError as exc:
        raise InvalidSpec(f"ensemble file lacks the field {exc}") from None
    seed = payload.get("seed", 0)
    kind = payload.get("kind", "mixture")
    if kind not in ENSEMBLE_KINDS:
        raise InvalidSpec(f"ensemble file kind must be one of {list(ENSEMBLE_KINDS)}, got {kind!r}")
    for name, value in (("k_min", k_min), ("depth", depth), ("seed", seed)):
        if not is_integer(value):
            raise InvalidSpec(f"ensemble file field {name!r} must be an integer, got {value!r}")
    if not 0 <= -k_min <= depth:
        raise InvalidSpec(f"ensemble window k_min={k_min} does not fit in depth {depth}")
    return kind, seed, depth, k_min


def _read_json_records(path: str, group):
    """Header fields and level-major xi and eta of an ensemble file in any JSON layout."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"ensemble file is not valid JSON: {exc}") from None
    records = payload.get("paths") if isinstance(payload, dict) else None
    if not records:
        raise InvalidSpec("ensemble file holds no paths")
    header = _checked_header(payload)
    _, _, depth, k_min = header
    try:
        xi = np.array([r["xi"] for r in records])
        eta = np.array([r["eta"] for r in records])
    except KeyError as exc:
        raise InvalidSpec(f"ensemble file lacks the field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"ensemble file arrays are malformed: {exc}") from None
    if xi.dtype.kind not in "iu" or eta.dtype.kind not in "iu":
        raise InvalidSpec(f"ensemble file element ids must be integers, "
                          f"got {xi.dtype} and {eta.dtype}")
    if xi.shape != (len(records), depth + 1) or eta.shape != (len(records), -k_min + 1):
        raise InvalidSpec("ensemble file arrays do not match its window fields")
    n_paths = payload.get("n_paths", len(records))
    if not is_integer(n_paths) or n_paths != len(records):
        raise InvalidSpec(f"ensemble file field 'n_paths' is {n_paths!r}, "
                          f"but the file holds {len(records)} paths")
    if min(xi.min(), eta.min()) < 0 or max(xi.max(), eta.max()) >= group.order:
        raise InvalidSpec(f"ensemble file holds element ids outside [0, {group.order})")
    # one row per level from here on, as in every Ensemble
    return header, *(a.T.astype(group.id_dtype, order="C") for a in (xi, eta))


# Where the records of a file that _write_json wrote begin: after this, "[".
_RECORDS_KEY = b'\n  "paths": '
# Maps each byte but a digit to a space, which np.fromstring reads as a separator.
_DIGITS_ONLY = bytes(c if 0x30 <= c <= 0x39 else 0x20 for c in range(256))
# Each id of a record takes at least this many bytes: a newline, eight
# spaces and a digit.
_MIN_ID_BYTES = 10


def _records_end(buf: bytes, count: int) -> int:
    """The offset just past the first ``count`` records of ``buf``, or -1 if it holds fewer.

    A record is the only thing in the records text that ends with a "}".
    """
    closes = np.flatnonzero(np.frombuffer(buf, np.uint8) == ord("}"))
    return int(closes[count - 1]) + 1 if closes.size >= count else -1


def _empty_ensemble(first: bytes, group, n: int, header) -> Ensemble:
    """An ensemble of n paths to parse ids into, holding U, phi and V where ``first``, the
    text of the first record, does."""
    kind, seed, depth, k_min = header
    dtype, width = group.id_dtype, -k_min + 1
    factored = first.startswith(b'[\n    {\n      "U": ')
    return Ensemble(
        group=group, kind=kind, seed=seed, depth=depth, k_min=k_min,
        xi=np.empty((depth + 1, n), dtype), eta=np.empty((width, n), dtype),
        phi=np.empty((width, n), dtype) if factored else None,
        U=np.empty((width, n), dtype) if factored else None,
        V=None if b'"V": null' in first else np.empty(n, dtype))


def _read_canonical(f, group):
    """Header fields and level-major xi and eta of a file laid out as _write_json writes it.

    Reads ``READ_BLOCK`` bytes at a time and parses the ids of each
    ``RENDER_CHUNK`` records with numpy into arrays of the group's id dtype,
    U, phi and V included. The parse counts only if :meth:`Ensemble.to_records` renders
    the chunk back to exactly the bytes read, and if the text around the
    records is what ``json.dumps`` writes for what ``json.loads`` reads from
    it. So a file read here gives what the ``json.loads`` reader gives. Any
    other file, valid JSON or not, gives None.
    """
    buf = f.read(READ_BLOCK)
    cut = buf.find(_RECORDS_KEY) + len(_RECORDS_KEY)
    if cut < len(_RECORDS_KEY) or buf[cut:cut + 1] != b"[":
        return None
    head, buf = buf[:cut], buf[cut:]
    try:
        head = head.decode("utf-8")
        fields = json.loads(head + "null}")
        n = fields["n_paths"]
        header = _checked_header(fields)
    except (ValueError, KeyError, TypeError, InvalidSpec):
        return None
    _, _, depth, k_min = header
    width = -k_min + 1
    # too short to hold the records its header promises
    if not (is_integer(n) and n >= 1) or (
            os.fstat(f.fileno()).st_size < _MIN_ID_BYTES * n * (depth + 1 + width)):
        return None

    def block_read() -> bool:
        nonlocal buf
        more = f.read(READ_BLOCK)
        buf += more
        return bool(more)

    ens = None
    for start in range(0, n, RENDER_CHUNK):
        stop = min(start + RENDER_CHUNK, n)
        while (end := _records_end(buf, stop - start)) < 0:
            if not block_read():
                return None
        if ens is None:
            ens = _empty_ensemble(buf[:_records_end(buf, 1)], group, n, header)
            # (array, numbers per record) in record order; a name stands for
            # numbers that are only checked by the re-rendering
            layout = [(a, c) for a, c in ((ens.U, width), (ens.V, 1), (ens.eta, width),
                                          ("k_min, path_id", 2), (ens.phi, width),
                                          (ens.xi, depth + 1), ("xi_k_min", 1))
                      if a is not None]
        ids = np.fromstring(buf[:end].translate(_DIGITS_ONLY), dtype=np.int32, sep=" ")
        if ids.size != (stop - start) * sum(c for _, c in layout):
            return None
        ids = ids.reshape(stop - start, -1)
        col = 0
        for a, c in layout:
            part = ids[:, col:col + c]
            col += c
            if isinstance(a, str):
                continue
            if part.min() < 0 or part.max() >= group.order:
                return None
            if a.ndim == 1:
                a[start:stop] = part[:, 0]
            else:
                a[:, start:stop] = part.T
        text = ens.to_records(start, stop).encode("ascii")
        while len(buf) < len(text):
            if not block_read():
                return None
        if not buf.startswith(text):
            return None
        buf = buf[len(text):]
    try:
        tail = (buf + f.read()).decode("utf-8")
        payload = json.loads(head + "null" + tail)
        if _json_parts(payload) != (head, tail):
            return None
        header = _checked_header(payload)
    except (ValueError, TypeError, InvalidSpec):
        return None
    return header, ens.xi, ens.eta


def _ensemble_from_file(path: str, group) -> Ensemble:
    """Read an ensemble file back: streamed when laid out as written, else via json.loads.

    The streamed reader refuses nothing. It declines every file it cannot
    show it reads as json.loads would, and the json.loads reader then reads
    or refuses that file.
    """
    try:
        with open(path, "rb") as f:
            read = _read_canonical(f, group)
    except FileNotFoundError:
        raise InvalidSpec(f"ensemble file not found: {path}") from None
    (kind, seed, depth, k_min), xi, eta = read or _read_json_records(path, group)
    broken = recursion_break(group, xi, eta, depth, k_min)
    if broken is not None:
        raise InvalidSpec(
            f"path {broken[0]} of the ensemble file breaks eta_k = xi_k eta_(k-1) at k={broken[1]}"
        )
    return Ensemble(group=group, kind=kind, seed=seed, depth=depth, k_min=k_min,
                    xi=xi, eta=eta)


def cmd_decompose(args) -> int:
    spec = _load_input(args)
    out = _out_dir(args)
    noise = noise_from_spec(spec)
    result = _limit_from_args(args, noise)
    if args.ensemble is not None:
        ens = _ensemble_from_file(args.ensemble, noise.group)
    else:
        ens = _build_ensemble_for(args, noise, result, args.kind)
    # a uniform ensemble's window is its whole depth; factor it on the limit's window
    dec, audit = decompose_ensemble(ens, result, noise=noise, k_min=max(ens.k_min, result.k_min))
    payload = {
        "command": "decompose",
        "kind": ens.kind,
        "seed": ens.seed,
        "n_paths": ens.n_paths,
        "audit": audit,
        "paths": dec,
    }
    _write_json(out / "decomposition.json", payload)
    print(
        f"decomposed {audit['n_paths']} paths; exact reconstruction on "
        f"{audit['exact_reconstruction']}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_input(args)
    out = _out_dir(args)
    noise = noise_from_spec(spec)
    result = _limit_from_args(args, noise)
    ens = _build_ensemble_for(args, noise, result, "extremal")
    report = verify_theorems(noise, result, ens, significance=args.significance)
    payload = {"command": "verify", "case": result.case, **report.to_json_dict()}
    _write_json(out / "report.json", payload)
    rows = [
        [c.k, c.tv_to_lambda, c.p_uniformity, c.p_independence_v]
        for c in report.per_k
    ]
    _write_csv(
        out / "report_curves.csv",
        ["k", "tv_to_lambda", "chisq_p_uniformity", "chisq_p_independence"],
        rows,
    )
    if report.passed:
        print("verification passed")
        return EXIT_OK
    print("verification FAILED:")
    for f in report.failures:
        print(f"  - {f}")
    return EXIT_VERIFY_FAILED


def _checked(convert, ok, what: str):
    """An argparse type: convert the text and require ok(value); NaN fails every bound."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a finite positive number")
_open_unit = _checked(float, lambda v: 0 < v < 1, "a number in (0, 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conv-limit",
        description="Limit laws, trichotomy classification and path decompositions "
        "for group-valued stochastic recursions indexed by negative integers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seeded: bool):
        p.add_argument("--input", required=True, help="path to the noise spec JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--eps", type=_positive_float, default=DEFAULT_EPS_SHAPE,
                       help="shape stabilization tolerance")
        p.add_argument("--max-depth", type=_positive_int, default=DEFAULT_MAX_DEPTH,
                       help="certification depth budget")
        if seeded:
            p.add_argument("--seed", type=_nonnegative_int, required=True,
                           help="RNG seed (required for reproducibility)")
            p.add_argument("--depth", type=_positive_int, default=None,
                           help="path window depth (default 2x certified depth)")
            p.add_argument("--paths", type=_positive_int, default=10_000,
                           help="number of sample paths")

    p = sub.add_parser("classify", help="trichotomy case and subgroup / lattice generator")
    common(p, seeded=False)
    p.add_argument("--torus", action="store_true", help="treat input as a torus noise spec")
    p.add_argument("--p-max", type=int, default=64, help="largest frequency examined")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("limit", help="limit laws, centerings and residual curves")
    common(p, seeded=False)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("simulate", help="sample an ensemble of solution paths")
    common(p, seeded=True)
    p.add_argument("--kind", choices=ENSEMBLE_KINDS, default="extremal")
    p.add_argument("--v-law", default=None,
                   help="measure spec JSON for the mixture V law (default Haar)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", help="factor paths into (phi, U, V) with an audit")
    common(p, seeded=True)
    p.add_argument("--kind", choices=["extremal", "mixture", "uniform"],
                   default="mixture")
    p.add_argument("--v-law", default=None,
                   help="measure spec JSON for the mixture V law (default Haar)")
    p.add_argument("--ensemble", default=None,
                   help="decompose a previously simulated ensemble.json instead "
                        "of running fresh paths")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run the statistical verification battery")
    common(p, seeded=True)
    p.add_argument("--significance", type=_open_unit, default=0.01)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NoConvergenceAtDepth as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except Indeterminate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except ConvLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
