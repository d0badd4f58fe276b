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


def _write_json(path: Path, payload: dict) -> None:
    """Write the payload as indented, key-sorted JSON.

    A ``"paths"`` value is the JSON text rendered by :meth:`Ensemble.to_records`;
    it is spliced in where ``json.dumps`` would have written the records.
    """
    body = {"schema_version": SCHEMA_VERSION, "generated_at": _timestamp(), **payload}
    paths = body.get("paths")
    if paths is not None:
        body["paths"] = _PATHS_MARK
    text = json.dumps(body, indent=2, sort_keys=True)
    head, _, tail = text.partition(json.dumps(_PATHS_MARK))
    with path.open("w", encoding="utf-8") as f:
        # three writes, so the paths text is not copied into one string
        for part in (head, paths or "", tail, "\n"):
            f.write(part)


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
        curves = [
            [p, i + 1, v]
            for p, b in sorted(cls.bounds.items())
            for i, v in enumerate(b.curve)
        ]
        _write_json(out / "classification.json", payload)
        _write_csv(out / "pi_table.csv", ["p", "upper", "lower", "decision"], table)
        _write_csv(out / "pi_curves.csv", ["p", "depth", "partial_product"], curves)
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
        "paths": ens.to_records(),
    }
    _write_json(out / "ensemble.json", payload)
    print(f"simulated {ens.n_paths} {ens.kind} paths at depth {ens.depth}")
    return EXIT_OK


def _ensemble_from_file(path: str, group) -> Ensemble:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidSpec(f"ensemble file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"ensemble file is not valid JSON: {exc}") from None
    records = payload.get("paths") if isinstance(payload, dict) else None
    if not records:
        raise InvalidSpec("ensemble file holds no paths")
    try:
        k_min, depth = payload["k_min"], payload["depth"]
        seed = payload.get("seed", 0)
        xi = np.array([r["xi"] for r in records])
        eta = np.array([r["eta"] for r in records])
    except KeyError as exc:
        raise InvalidSpec(f"ensemble file lacks the field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"ensemble file arrays are malformed: {exc}") from None
    kind = payload.get("kind", "mixture")
    if kind not in ENSEMBLE_KINDS:
        raise InvalidSpec(f"ensemble file kind must be one of {list(ENSEMBLE_KINDS)}, got {kind!r}")
    for name, value in (("k_min", k_min), ("depth", depth), ("seed", seed)):
        if not is_integer(value):
            raise InvalidSpec(f"ensemble file field {name!r} must be an integer, got {value!r}")
    if xi.dtype.kind not in "iu" or eta.dtype.kind not in "iu":
        raise InvalidSpec(f"ensemble file element ids must be integers, "
                          f"got {xi.dtype} and {eta.dtype}")
    if not 0 <= -k_min <= depth:
        raise InvalidSpec(f"ensemble window k_min={k_min} does not fit in depth {depth}")
    if xi.shape != (len(records), depth + 1) or eta.shape != (len(records), -k_min + 1):
        raise InvalidSpec("ensemble file arrays do not match its window fields")
    if min(xi.min(), eta.min()) < 0 or max(xi.max(), eta.max()) >= group.order:
        raise InvalidSpec(f"ensemble file holds element ids outside [0, {group.order})")
    # one row per level from here on, as in every Ensemble
    xi, eta = (a.T.astype(group.id_dtype, order="C") for a in (xi, eta))
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
        "paths": dec.to_records(),
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
