"""Statistical verification: empirical laws, chi-square tests, diagnostics, reports.

Chi-square tail probabilities use the closed form of the upper tail for an
integer number of degrees of freedom (Abramowitz & Stegun 26.4.4-26.4.5):
a Poisson sum for even df, and erfc plus a half-integer sum for odd df,
evaluated in log space so that no term overflows. Contingency cells with
expected counts below 5 are pooled by a deterministic rule before testing.
The consolidated battery applies a Bonferroni correction across all
p-valued checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EmptySample, InsufficientSamples, InvalidSpec, OutOfSupport
from .groups import FiniteGroup, Subgroup, left_cosets
from .limits import LimitResult, NoiseLaw, extend_centerings
from .measures import Measure, haar, right_stabilizer, tv_distance, tv_to_right_translates
from .solutions import (Ensemble, _product, centered_window, extremal_ensemble, sample_noise,
                        uniform_ensemble, window_cut)

MIN_EXPECTED_CELL = 5.0
MIN_PATHS_FOR_BATTERY = 1000

# H-membership discrimination threshold on empirical TV at ~1e4 paths.
HISO_TV_THRESHOLD = 0.1

# Empirical-marginal agreement threshold at ~1e4 paths.
MARGINAL_TV_THRESHOLD = 0.05


def chi2_sf(statistic: float, df: int) -> float:
    """Upper tail of the chi-square distribution with df degrees of freedom.

    With y = statistic / 2, s = (df mod 2) / 2 and m = df // 2 terms,

        P(chi2_df > statistic) = [s > 0] erfc(sqrt y) + sum_{k<m} e^-y y^(k+s) / Gamma(k+s+1),

    the Poisson sum for even df and the half-integer sum for odd df. The
    largest term is evaluated in log space and the others as products of
    the term ratios (k+s)/y below it and y/(k+s+1) above it, each at most 1,
    so nothing overflows and all terms are positive.
    """
    if df <= 0 or statistic <= 0:
        return 1.0
    if not math.isfinite(statistic):
        return 0.0 if statistic > 0 else math.nan
    y = statistic / 2.0
    s, m = 0.5 * (df % 2), df // 2
    head = math.erfc(math.sqrt(y)) if s else 0.0
    if m == 0:
        return head
    top = min(m - 1, max(0, math.floor(y - s)))  # the largest term
    below = np.cumprod((np.arange(top, 0, -1) + s) / y)
    above = np.cumprod(y / (np.arange(top + 1, m) + s))
    log_top = (top + s) * math.log(y) - math.lgamma(top + s + 1) - y
    tail = math.exp(log_top + math.log(1.0 + below.sum() + above.sum()))
    return min(1.0, head + tail)


def _count_dtype(dtype: np.dtype) -> np.dtype:
    """The dtype ids of ``dtype`` are counted in: itself, or intp for uint64.

    A dtype that is not an integer dtype is refused with :class:`InvalidSpec`.
    """
    if dtype.kind not in "iu":
        raise InvalidSpec(f"samples must be integer element ids, got dtype {dtype}")
    return dtype if np.can_cast(dtype, np.intp) else np.dtype(np.intp)


def _integer_samples(samples) -> np.ndarray:
    """The samples as an array in their own dtype, so that narrow ids stay narrow.

    An empty array comes back as it is; any other that is not of an integer
    dtype is refused with :class:`InvalidSpec`. Only uint64, which numpy
    will not index or count with, comes back as intp.
    """
    xs = np.asarray(samples)
    return xs.astype(_count_dtype(xs.dtype), copy=False) if xs.size else xs


def _first_outside(xs: np.ndarray, inside: np.ndarray) -> int:
    """The first sample that is not the index of a True cell of the mask ``inside``."""
    ok = (xs >= 0) & (xs < inside.size)
    ok[ok] = inside[xs[ok]]
    return int(xs[~ok][0])


def _require_element_ids(group: FiniteGroup, name: str, ids: np.ndarray) -> None:
    """Refuse, with :class:`InvalidSpec`, an id array that is not integer or holds an id
    outside [0, order); the message names the array and its first such id."""
    _count_dtype(ids.dtype)
    if ids.size and (ids.min() < 0 or ids.max() >= group.order):
        bad = _first_outside(ids.ravel(), np.ones(group.order, dtype=bool))
        raise InvalidSpec(f"{name} holds {bad}, which is not an element id of {group!r}")


def empirical_law(group: FiniteGroup, samples: Sequence[int] | np.ndarray) -> Measure:
    """Normalized counts of the samples as a measure on the group.

    Samples must be integer element ids; any other dtype, and any id outside
    [0, order), is refused with :class:`InvalidSpec`.
    """
    xs = _integer_samples(samples)
    if xs.size == 0:
        raise EmptySample("cannot build an empirical law from zero samples")
    if xs.min() < 0 or xs.max() >= group.order:
        bad = _first_outside(xs, np.ones(group.order, dtype=bool))
        raise InvalidSpec(f"sample {bad} is not an element id of {group!r}")
    return Measure(group, np.bincount(xs, minlength=group.order) / xs.size)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float
    degenerate: bool = False
    pooled_cells: int = 0


# The result of a test with no variation to test: a constant coordinate, or one support cell.
_DEGENERATE = ChiSquareResult(statistic=0.0, df=0, p_value=1.0, degenerate=True)


def chi_square_uniformity(samples: Sequence[int] | np.ndarray, support: Subgroup) -> ChiSquareResult:
    """Pearson test of uniformity over the support's cells.

    Raises :class:`OutOfSupport` when a sample lies outside the support, an
    id outside [0, order) included, which is itself a failure signal for the
    hypothesis being checked; samples that are not integers are refused with
    :class:`InvalidSpec`.
    """
    xs = _integer_samples(samples)
    if xs.size == 0:
        raise EmptySample("no samples")
    group = support.group
    members = np.array(support.members)
    inside = np.zeros(group.order, dtype=bool)
    inside[members] = True
    in_range = xs.min() >= 0 and xs.max() < group.order
    counts = np.bincount(xs, minlength=group.order) if in_range else None
    if counts is None or counts[~inside].any():
        bad = _first_outside(xs, inside)
        raise OutOfSupport(f"sample value {bad} lies outside the hypothesised support")
    if members.size == 1:
        return _DEGENERATE
    counts = counts[members].astype(float)
    expected = xs.size / members.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    df = members.size - 1
    return ChiSquareResult(statistic=stat, df=df, p_value=chi2_sf(stat, df))


def _pool_axis(table: np.ndarray, axis: int) -> tuple[np.ndarray, int]:
    """Merge the smallest-total line along axis into the next smallest.

    Deterministic: totals tie-break on the lower index.
    """
    totals = table.sum(axis=1 - axis)
    order = np.lexsort((np.arange(totals.size), totals))
    a, b = int(order[0]), int(order[1])
    keep = [i for i in range(totals.size) if i != a]
    merged = table.take(keep, axis=axis).copy()
    pos = keep.index(b)
    if axis == 0:
        merged[pos] += table[a]
    else:
        merged[:, pos] += table[:, a]
    return merged, 1


def _pool_small_cells(table: np.ndarray) -> tuple[np.ndarray, int]:
    """Pool lines until every expected cell is at least MIN_EXPECTED_CELL.

    Columns pool first, then rows; pooling stops at a 2x2 table.
    """
    pooled = 0
    t = table.astype(float)
    while True:
        n = t.sum()
        expected = np.outer(t.sum(axis=1), t.sum(axis=0)) / n
        if (expected >= MIN_EXPECTED_CELL).all():
            break
        if t.shape[1] > 2:
            t, k = _pool_axis(t, axis=1)
        elif t.shape[0] > 2:
            t, k = _pool_axis(t, axis=0)
        else:
            break
        pooled += k
    return t, pooled


def _contingency_result(counts: np.ndarray) -> ChiSquareResult:
    """Pearson's independence test on one table of counts.

    Empty lines are dropped and small cells pooled first; a table left with
    a single row or column is degenerate.
    """
    table = counts[counts.any(axis=1)][:, counts.any(axis=0)]
    if min(table.shape) < 2:
        return _DEGENERATE
    table, pooled = _pool_small_cells(table)
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    stat = float(((table - expected) ** 2 / expected).sum())
    df = (table.shape[0] - 1) * (table.shape[1] - 1)
    return ChiSquareResult(statistic=stat, df=df, p_value=chi2_sf(stat, df),
                           pooled_cells=pooled)


def _independence_tests(xs: np.ndarray, ys: np.ndarray) -> list[ChiSquareResult]:
    """Independence of the integer samples ``xs`` from each row of ``ys``, paired by position.

    The categories of each coordinate are the values seen, in increasing
    order. A constant coordinate gives the degenerate result without being
    counted; the table would have one line. The tables of the other rows sit
    side by side in one (x span, sum of y spans) table, counted with one
    ``bincount`` over the codes (x - x0) * width + offset_r + (y_r - y0_r).
    So the spans should stay small, as they do for element ids.
    """
    out = [_DEGENERATE] * len(ys)
    x0, x1 = int(xs.min()), int(xs.max())
    if x0 == x1:
        return out
    spans = [(r, int(lo), int(hi)) for r, (lo, hi) in enumerate(zip(ys.min(axis=1), ys.max(axis=1)))
             if lo < hi]
    if not spans:
        return out
    offsets = np.cumsum([0] + [hi - lo + 1 for _, lo, hi in spans]).tolist()
    width = offsets[-1]
    x_code = np.multiply(xs, width, dtype=np.intp)
    x_code -= x0 * width
    codes = np.empty((len(spans), xs.size), dtype=np.intp)
    for code, (r, lo, _), offset in zip(codes, spans, offsets):
        np.add(x_code, ys[r], out=code)
        code += offset - lo
    counts = np.bincount(codes.ravel(), minlength=(x1 - x0 + 1) * width).reshape(-1, width)
    for (r, _, _), start, stop in zip(spans, offsets, offsets[1:]):
        out[r] = _contingency_result(counts[:, start:stop])
    return out


def chi_square_independence(pairs: Iterable[tuple[int, int]]) -> ChiSquareResult:
    """Contingency-table independence test for paired categorical samples.

    The categories are the integer values seen, in increasing order; the
    counts come from one ``bincount`` over the span of each coordinate, so
    that span should stay small, as it does for element ids. Samples that
    are not integers are refused with :class:`InvalidSpec`. A table with a
    constant coordinate is degenerate: there is no variation to test and the
    result carries p = 1 with the degenerate flag.
    """
    arr = _integer_samples(list(pairs) if not isinstance(pairs, np.ndarray) else pairs)
    if arr.size == 0:
        raise EmptySample("no sample pairs")
    xs, ys = arr.T.copy()  # contiguous columns, each reduced on its own
    return _independence_tests(xs, ys[None])[0]


@dataclass(frozen=True)
class DepthRecord:
    depth: int
    element_disagreement: float
    coset_disagreement: float


def case_b_convergence_diagnostic(
    noise: NoiseLaw,
    limitres: LimitResult,
    depths: Sequence[int],
    *,
    n_paths: int = 1000,
    seed: int = 0,
) -> list[DepthRecord]:
    """Disagreement between depth-L and depth-2L centered products.

    For each L >= 1 the same noise stream is extended from depth L to 2L; in
    the strong-solution case the element-level disagreement vanishes,
    otherwise it persists while the H-coset value still agrees.
    """
    if any(L < 1 for L in depths):
        raise InvalidSpec(f"diagnostic depths must be positive integers, got {list(depths)}")
    space = left_cosets(noise.group, limitres.subgroup)
    alphas = extend_centerings(limitres, [l for L in depths for l in (-L, -2 * L)])
    out = []
    for L in depths:
        xi = sample_noise(noise, 2 * L, n_paths, seed, chunk=L)  # rows: k = -2L..0
        at_2l = centered_window(noise.group, xi, 0, alphas[-2 * L])
        at_l = centered_window(noise.group, xi[L:], 0, alphas[-L])  # the stream cut at -L
        elem = float((at_l != at_2l).mean())
        coset = float((space.coset_of[at_l] != space.coset_of[at_2l]).mean())
        out.append(DepthRecord(depth=L, element_disagreement=elem, coset_disagreement=coset))
    return out


@dataclass(frozen=True)
class PerKChecks:
    k: int
    tv_to_lambda: float
    p_uniformity: float
    p_independence_v: float
    p_independence_noise: dict[int, float]
    uniformity_out_of_support: bool = False


@dataclass(frozen=True)
class EnsembleReport:
    """Consolidated verification of the construction against its limit result."""

    n_paths: int
    significance: float
    bonferroni_tests: int
    per_k: tuple[PerKChecks, ...]
    hiso_tv: dict[int, float]
    hiso_detected: tuple[int, ...]
    case_checks: dict
    passed: bool
    failures: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "significance": self.significance,
            "bonferroni_tests": self.bonferroni_tests,
            "per_k": [
                {
                    "k": c.k,
                    "tv_to_lambda": None if math.isnan(c.tv_to_lambda) else c.tv_to_lambda,
                    "p_uniformity": c.p_uniformity,
                    "p_independence_v": c.p_independence_v,
                    "p_independence_noise": {str(j): p for j, p in sorted(c.p_independence_noise.items())},
                    "uniformity_out_of_support": c.uniformity_out_of_support,
                }
                for c in self.per_k
            ],
            "hiso_tv": {str(h): v for h, v in sorted(self.hiso_tv.items())},
            "hiso_detected": list(self.hiso_detected),
            "case_checks": dict(self.case_checks),
            "passed": self.passed,
            "failures": list(self.failures),
        }


def battery_ensemble(noise: NoiseLaw, limitres: LimitResult, depth: Optional[int], n_paths: int,
                     seed: int) -> Ensemble:
    """The extremal ensemble that :func:`verify_theorems` checks, built at the window's cut.

    The battery reads no noise row below the cut, so a deeper ``depth`` (or
    none) builds at the cut; a shallower one meets the builder's refusal.
    """
    cut = window_cut(noise, limitres.k_min)
    return extremal_ensemble(noise, limitres, min(depth or cut, cut), n_paths, seed)


def verify_theorems(
    noise: NoiseLaw,
    limitres: LimitResult,
    ensemble: Ensemble,
    significance: float = 0.01,
) -> EnsembleReport:
    """Run the full verification battery on an extremal (or mixture) ensemble.

    Checks, per window k: empirical marginal against the limit law, U_k
    uniform on H, U_k independent of V and of the recent noise. Globally:
    the invariance discrimination of the marginal law against the symmetries
    of lambda_0 (a prefix can make them more than H), the uniform solution's
    marginal and independence, and strong-solution determinism in the
    trivial-subgroup case: paths with equal noise from the cut up must have
    equal eta0. All p-valued checks share a Bonferroni budget at
    the given significance.

    Of the ensemble it reads phi, U and V on the window and, of ``xi``, the
    rows xi_0, xi_-1 and xi_-2 and, in case B, the rows from the window's cut
    up, which are the same in any deeper build.
    """
    if ensemble.n_paths < MIN_PATHS_FOR_BATTERY:
        raise InsufficientSamples(
            f"battery calibrated for >= {MIN_PATHS_FOR_BATTERY} paths, got {ensemble.n_paths}"
        )
    if ensemble.phi is None or ensemble.U is None:
        raise InsufficientSamples("battery needs an extremal or mixture ensemble")
    noise_js = [0, -1, -2]
    if ensemble.depth < -min(noise_js):
        raise InvalidSpec(f"battery needs xi_-2; the ensemble's xi stops at k={-ensemble.depth}")
    group = noise.group
    H = limitres.subgroup
    ks = list(range(ensemble.k_min, 1))

    # count p-valued tests for the Bonferroni budget
    n_tests = len(ks) * (1 + 1 + len(noise_js)) + 1
    threshold = significance / n_tests

    failures: list[str] = []
    per_k: list[PerKChecks] = []
    v_vals = (ensemble.V if ensemble.V is not None
              else np.full(ensemble.n_paths, group.identity, dtype=group.id_dtype))

    # the marginal and invariance claims concern the extremal factor
    # phi_k U_k, which for a mixture path is eta_k with V stripped off; its
    # ids are products read from flat_mul, so each level counts as it is,
    # and phi and U must hold element ids for the product to read the table
    for name, ids in (("phi", ensemble.phi), ("U", ensemble.U)):
        _require_element_ids(group, name, ids)
    eta0 = _product(group, ensemble.phi, ensemble.U)
    marginals = [Measure(group, np.bincount(row, minlength=group.order) / ensemble.n_paths)
                 for row in eta0]

    # U_k's partners, one row each: V, then xi_j for j in noise_js; each
    # pair (U_k, partner) must hold integer ids, as chi_square_independence
    # requires of its pairs
    partners = [v_vals] + [ensemble.xi_col(j) for j in noise_js]
    for row in partners:
        _count_dtype(np.result_type(ensemble.U, row))
    partners = _integer_samples(np.stack(partners))

    for k, emp in zip(ks, marginals):
        lam = limitres.lambdas.get(k)
        tv_k = math.nan
        if lam is not None:
            tv_k = tv_distance(emp, lam)
            if tv_k >= MARGINAL_TV_THRESHOLD:
                failures.append(f"marginal at k={k} is {tv_k:.3f} from the limit law")
        u_k = ensemble.u_col(k)
        out_of_support = False
        try:
            unif = chi_square_uniformity(u_k, H)
            p_unif = unif.p_value
        except OutOfSupport:
            out_of_support = True
            p_unif = 0.0
        if out_of_support or p_unif < threshold:
            failures.append(f"uniformity of U at k={k} fails (p={p_unif:.2e})")
        indep_v, *indep_noise = _independence_tests(u_k, partners)
        if indep_v.p_value < threshold:
            failures.append(f"independence of (U_{k}, V) fails (p={indep_v.p_value:.2e})")
        p_noise: dict[int, float] = {}
        for j, r in zip(noise_js, indep_noise):
            p_noise[j] = r.p_value
            if r.p_value < threshold:
                failures.append(f"independence of (U_{k}, xi_{j}) fails (p={r.p_value:.2e})")
        per_k.append(PerKChecks(k=k, tv_to_lambda=tv_k, p_uniformity=p_unif,
                                p_independence_v=indep_v.p_value,
                                p_independence_noise=p_noise,
                                uniformity_out_of_support=out_of_support))

    # invariance discrimination on the time-0 extremal marginal: lambda_0's symmetries
    emp = marginals[-1]
    tvs = tv_to_right_translates(emp, emp)
    hiso = {h: float(tvs[h]) for h in range(group.order)}
    detected = tuple(h for h in range(group.order) if tvs[h] < HISO_TV_THRESHOLD)
    expected = right_stabilizer(limitres.lambda0).members
    if detected != expected:
        failures.append(
            f"H-invariance discrimination found {list(detected)}, expected {list(expected)}"
        )

    # uniform solution: Haar marginal, independent of the time-0 noise
    uni = uniform_ensemble(noise, depth=max(8, -ensemble.k_min), n_paths=ensemble.n_paths,
                           seed=ensemble.seed + 1)
    tv_uni = tv_distance(empirical_law(group, uni.eta_col(0)), haar(group))
    uniform_ok = tv_uni < MARGINAL_TV_THRESHOLD
    p_uni_indep = chi_square_independence(
        np.stack([uni.eta_col(0), uni.xi_col(0)], axis=1)
    ).p_value
    if not uniform_ok:
        failures.append(f"uniform-solution marginal is {tv_uni:.3f} from Haar")
    if p_uni_indep < threshold:
        failures.append(f"uniform-solution independence fails (p={p_uni_indep:.2e})")

    # strong-solution determinism in the trivial-subgroup case: paths whose noise
    # agrees from the window's cut up must agree on eta0 (= phi, as H is trivial);
    # a row that holds one value on every path splits none and leaves the key
    strong_det: Optional[bool] = None
    if limitres.case == "B":
        key = ensemble.xi[-(window_cut(noise, ensemble.k_min) + 1):]
        key = key[(key != key[:, :1]).any(axis=1)]
        paths = np.lexsort(key) if len(key) else slice(None)
        key, sorted_eta0 = key[:, paths], eta0[:, paths]
        same = (key[:, 1:] == key[:, :-1]).all(axis=0)  # neighbours in one group
        strong_det = bool(np.array_equal(sorted_eta0[:, 1:][:, same], sorted_eta0[:, :-1][:, same]))
        if not strong_det:
            failures.append("strong-solution determinism check failed")

    detected_case = limitres.case
    case_checks = {
        "detected_case": detected_case,
        "uniform_marginal_tv": tv_uni,
        "uniform_marginal_ok": uniform_ok,
        "uniform_independence_p": p_uni_indep,
        "strong_determinism": strong_det,
    }

    return EnsembleReport(
        n_paths=ensemble.n_paths,
        significance=significance,
        bonferroni_tests=n_tests,
        per_k=tuple(per_k),
        hiso_tv=hiso,
        hiso_detected=detected,
        case_checks=case_checks,
        passed=not failures,
        failures=tuple(failures),
    )
