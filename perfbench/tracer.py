"""Spans around the calls into each convlimit layer, recorded from outside.

:meth:`Tracer.install` rebinds the public names that ``convlimit.cli``
imported, plus the names ``limits``, ``solutions``, ``stats`` and ``groups``
call across layer boundaries, to wrappers that append a span (name, start,
end, parent) to an in-memory list and bump the counters named in
``_COUNTERS``. :meth:`Tracer.uninstall` restores the originals, so an
untraced pass runs the library's own functions. Nothing under ``src/`` is
touched. Spans assume one thread; the worker runs the library at its
default ``CONV_LIMIT_THREADS`` of 1.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path

# (module, attribute, span name). A function imported into several modules
# is wrapped once per binding, all under one span name.
_TARGETS = (
    ("cli", "compute_limit", "limits.compute_limit"),
    ("cli", "noise_from_spec", "limits.noise_from_spec"),
    ("cli", "strong_subgroup", "limits.strong_subgroup"),
    ("cli", "verify_conjugacy_uniqueness", "limits.conjugacy_check"),
    ("cli", "convolve", "measures.convolve"),
    ("cli", "haar", "measures.haar"),
    ("cli", "measure_from_spec", "measures.measure_from_spec"),
    ("cli", "tv_distance", "measures.tv_distance"),
    ("cli", "decompose_ensemble", "solutions.decompose"),
    ("cli", "extremal_ensemble", "solutions.extremal"),
    ("cli", "general_ensemble", "solutions.general"),
    ("cli", "uniform_ensemble", "solutions.uniform"),
    ("cli", "verify_theorems", "stats.verify"),
    ("cli", "compute_p_mu", "torus.compute_p_mu"),
    ("cli", "torus_noise_from_spec", "torus.noise_from_spec"),
    ("limits", "compute_limit", "limits.compute_limit"),
    ("limits", "convolve", "measures.convolve"),
    ("limits", "shape_distance", "limits.shape_distance"),
    ("limits", "normal_closure", "groups.normal_closure"),
    ("groups", "validate_group", "groups.validate"),
    ("solutions", "sample", "measures.sample"),
    ("solutions", "extend_centerings", "limits.extend_centerings"),
    ("stats", "chi_square_uniformity", "stats.chi2"),
    ("stats", "chi_square_independence", "stats.chi2"),
    ("stats", "uniform_ensemble", "solutions.uniform"),
    ("stats", "extremal_ensemble", "solutions.extremal"),
    ("stats", "extend_centerings", "limits.extend_centerings"),
)


def _convolve_counts(c, out):
    c["measures.convolve_ops"] += out.group.order ** 2


def _validate_counts(c, out):
    c["groups.table_cells"] += out.order ** 2


def _limit_counts(c, res):
    c["limits.depth_used"] += res.depth_used
    c["limits.deepest_depth"] += res.deepest_depth


def _centering_counts(c, alphas):
    c["limits.centering_levels"] += len(alphas)


def _ensemble_counts(c, ens):
    c["solutions.paths"] += ens.n_paths
    c["solutions.path_steps"] += ens.n_paths * (ens.depth + 1)
    c["solutions.xi_mb"] += ens.xi.nbytes / 1e6


def _decompose_counts(c, out):
    ens, audit = out
    c["solutions.paths"] += audit["n_paths"]
    c["solutions.path_steps"] += audit["n_paths"] * (ens.depth + 1)
    c["solutions.decomposed"] += audit["n_paths"]
    c["solutions.exact"] += audit["exact_reconstruction"]


def _verify_counts(c, report):
    c["stats.tests"] += report.bonferroni_tests
    c["stats.rejections"] += not report.passed


def _torus_counts(c, cls):
    c["torus.frequencies"] += len(cls.bounds)
    c["torus.factor_evals"] += sum(b.depth for b in cls.bounds.values())


# Counters recorded at the span boundary, from the call's result.
_COUNTERS = {
    "measures.convolve": _convolve_counts,
    "groups.validate": _validate_counts,
    "limits.compute_limit": _limit_counts,
    "limits.extend_centerings": _centering_counts,
    "solutions.extremal": _ensemble_counts,
    "solutions.uniform": _ensemble_counts,
    "solutions.decompose": _decompose_counts,
    "stats.verify": _verify_counts,
    "torus.compute_p_mu": _torus_counts,
}

# Per-layer metrics: (name, unit). Times are per pass.
LAYER_METRICS = (
    ("groups.validate_s", "s"), ("groups.validate_calls", "count"),
    ("groups.table_cells", "count"), ("groups.normal_closure_s", "s"),
    ("measures.convolve_calls", "count"), ("measures.convolve_s", "s"),
    ("measures.convolve_ops", "count"), ("measures.sample_calls", "count"),
    ("measures.sample_s", "s"),
    ("limits.compute_limit_calls", "count"), ("limits.compute_limit_s", "s"),
    ("limits.self_s", "s"), ("limits.depth_used", "count"),
    ("limits.deepest_depth", "count"), ("limits.shape_distance_calls", "count"),
    ("limits.shape_distance_s", "s"), ("limits.conjugacy_check_s", "s"),
    ("limits.extend_centerings_s", "s"), ("limits.centering_levels", "count"),
    ("solutions.extremal_s", "s"), ("solutions.general_s", "s"),
    ("solutions.uniform_s", "s"), ("solutions.decompose_s", "s"),
    ("solutions.paths", "count"), ("solutions.path_steps", "count"),
    ("solutions.xi_mb", "MB"), ("solutions.exact_ratio", "ratio"),
    ("stats.verify_s", "s"), ("stats.self_s", "s"), ("stats.chi2_calls", "count"),
    ("stats.chi2_s", "s"), ("stats.tests", "count"), ("stats.rejections", "count"),
    ("torus.compute_p_mu_s", "s"), ("torus.frequencies", "count"),
    ("torus.factor_evals", "count"),
    ("cli.main_s", "s"), ("cli.self_s", "s"), ("cli.to_records_s", "s"),
    ("cli.bytes_written", "bytes"), ("cli.bytes_read", "bytes"),
    ("trace.overhead_s", "s"),
)

# Span names whose self time makes up a layer's self_s. Spec parsing counts
# as cli work; the group validation it triggers stays with groups.
_SELF = {
    "limits.self_s": ("limits.compute_limit", "limits.conjugacy_check", "limits.extend_centerings",
                      "limits.strong_subgroup"),
    "stats.self_s": ("stats.verify",),
    "cli.self_s": ("cli.main", "limits.noise_from_spec", "torus.noise_from_spec",
                   "measures.measure_from_spec"),
}


class Tracer:
    """In-memory span recorder; one instance per worker process."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent index)
        self._stack: list[int] = []
        self.passes: list[tuple[int, int]] = []
        self.counts: list[dict] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        counter = _COUNTERS.get(name)
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if counter is not None:
                counter(self.counts[-1], out)
            return out

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def install(self) -> None:
        """Start a traced pass: wrap every target and open a new span range."""
        for module, attr, name in _TARGETS:
            self._patch(self._modules[module], attr, name)
        self._patch(self._modules["solutions"].Ensemble, "to_records", "cli.to_records")
        self.counts.append(defaultdict(float))
        self.passes.append((len(self.spans), len(self.spans)))

    def uninstall(self) -> None:
        """End the traced pass and restore every original binding."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.passes[-1] = (self.passes[-1][0], len(self.spans))

    def pass_metrics(self, i: int, extra: dict) -> dict:
        """Per-layer metrics of traced pass i; ``extra`` adds the byte counts."""
        lo, hi = self.passes[i]
        spans = self.spans[lo:hi]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for nid, start, end, parent in spans:
            calls[self.names[nid]] += 1
            total[self.names[nid]] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for j, (nid, start, end, _) in enumerate(spans):
            own[self.names[nid]] += end - start - child[lo + j]
        c = self.counts[i]
        m = {
            "groups.validate_s": total["groups.validate"],
            "groups.validate_calls": calls["groups.validate"],
            "groups.normal_closure_s": total["groups.normal_closure"],
            "measures.convolve_calls": calls["measures.convolve"],
            "measures.convolve_s": total["measures.convolve"],
            "measures.sample_calls": calls["measures.sample"],
            "measures.sample_s": total["measures.sample"],
            "limits.compute_limit_calls": calls["limits.compute_limit"],
            "limits.compute_limit_s": total["limits.compute_limit"],
            "limits.shape_distance_calls": calls["limits.shape_distance"],
            "limits.shape_distance_s": total["limits.shape_distance"],
            "limits.conjugacy_check_s": total["limits.conjugacy_check"],
            "limits.extend_centerings_s": total["limits.extend_centerings"],
            "solutions.extremal_s": total["solutions.extremal"],
            "solutions.general_s": total["solutions.general"],
            "solutions.uniform_s": total["solutions.uniform"],
            "solutions.decompose_s": total["solutions.decompose"],
            "solutions.exact_ratio": c["solutions.exact"] / c["solutions.decomposed"]
            if c["solutions.decomposed"] else 0.0,
            "stats.verify_s": total["stats.verify"],
            "stats.chi2_calls": calls["stats.chi2"],
            "stats.chi2_s": total["stats.chi2"],
            "torus.compute_p_mu_s": total["torus.compute_p_mu"],
            "cli.main_s": total["cli.main"],
            "cli.to_records_s": total["cli.to_records"],
        }
        for metric, names in _SELF.items():
            m[metric] = sum(own[n] for n in names)
        for metric, _ in LAYER_METRICS:
            if metric not in m and metric in c:
                m[metric] = c[metric]
        m.update(extra)
        return {metric: float(m.get(metric, 0.0)) for metric, _ in LAYER_METRICS
                if metric != "trace.overhead_s"}

    def dump(self, path: Path) -> None:
        """Write every span, with the traced-pass ranges, as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump({"names": self.names, "passes": self.passes,
                       "fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)
