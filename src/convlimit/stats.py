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
from .solutions import (Ensemble, centered_window, extremal_ensemble, sample_noise,
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


def empirical_law(group: FiniteGroup, samples: Sequence[int] | np.ndarray) -> Measure:
    """Normalized counts of the samples as a measure on the group."""
    xs = np.asarray(samples, dtype=np.int64)
    if xs.size == 0:
        raise EmptySample("cannot build an empirical law from zero samples")
    counts = np.bincount(xs, minlength=group.order)
    return Measure(group, counts / xs.size)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float
    degenerate: bool = False
    pooled_cells: int = 0


def chi_square_uniformity(samples: Sequence[int] | np.ndarray, support: Subgroup) -> ChiSquareResult:
    """Pearson test of uniformity over the support's cells.

    Raises :class:`OutOfSupport` when a sample lies outside the support,
    which is itself a failure signal for the hypothesis being checked.
    """
    xs = np.asarray(samples, dtype=np.int64)
    if xs.size == 0:
        raise EmptySample("no samples")
    members = np.array(support.members, dtype=np.int64)
    lookup = -np.ones(support.group.order, dtype=np.int64)
    lookup[members] = np.arange(members.size)
    cells = lookup[xs]
    if (cells < 0).any():
        bad = int(xs[cells < 0][0])
        raise OutOfSupport(f"sample value {bad} lies outside the hypothesised support")
    if members.size == 1:
        return ChiSquareResult(statistic=0.0, df=0, p_value=1.0, degenerate=True)
    counts = np.bincount(cells, minlength=members.size).astype(float)
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


def chi_square_independence(pairs: Iterable[tuple[int, int]]) -> ChiSquareResult:
    """Contingency-table independence test for paired categorical samples.

    The categories are the integer values seen, in increasing order; the
    counts come from one ``bincount`` over the span of each coordinate, so
    that span should stay small, as it does for element ids. A table with a
    constant coordinate is degenerate: there is no variation to test and the
    result carries p = 1 with the degenerate flag.
    """
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.int64)
    if arr.size == 0:
        raise EmptySample("no sample pairs")
    xs, ys = arr[:, 0] - arr[:, 0].min(), arr[:, 1] - arr[:, 1].min()
    n_y = int(ys.max()) + 1
    counts = np.bincount(xs * n_y + ys, minlength=(int(xs.max()) + 1) * n_y).reshape(-1, n_y)
    table = counts[counts.any(axis=1)][:, counts.any(axis=0)]
    if min(table.shape) < 2:
        return ChiSquareResult(statistic=0.0, df=0, p_value=1.0, degenerate=True)
    table, pooled = _pool_small_cells(table)
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    stat = float(((table - expected) ** 2 / expected).sum())
    df = (table.shape[0] - 1) * (table.shape[1] - 1)
    return ChiSquareResult(statistic=stat, df=df, p_value=chi2_sf(stat, df),
                           pooled_cells=pooled)


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
    trivial-subgroup case. All p-valued checks share a Bonferroni budget at
    the given significance.
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
    v_vals = ensemble.V if ensemble.V is not None else np.full(ensemble.n_paths, group.identity)

    # the marginal and invariance claims concern the extremal factor
    # phi_k U_k, which for a mixture path is eta_k with V stripped off
    eta0 = group.mul[ensemble.phi, ensemble.U]

    for k in ks:
        lam = limitres.lambdas.get(k)
        tv_k = math.nan
        if lam is not None:
            tv_k = tv_distance(empirical_law(group, eta0[k - ensemble.k_min]), lam)
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
        indep_v = chi_square_independence(np.stack([u_k, v_vals], axis=1))
        if indep_v.p_value < threshold:
            failures.append(f"independence of (U_{k}, V) fails (p={indep_v.p_value:.2e})")
        p_noise: dict[int, float] = {}
        for j in noise_js:
            r = chi_square_independence(np.stack([u_k, ensemble.xi_col(j)], axis=1))
            p_noise[j] = r.p_value
            if r.p_value < threshold:
                failures.append(f"independence of (U_{k}, xi_{j}) fails (p={r.p_value:.2e})")
        per_k.append(PerKChecks(k=k, tv_to_lambda=tv_k, p_uniformity=p_unif,
                                p_independence_v=indep_v.p_value,
                                p_independence_noise=p_noise,
                                uniformity_out_of_support=out_of_support))

    # invariance discrimination on the time-0 extremal marginal: lambda_0's symmetries
    emp = empirical_law(group, eta0[-ensemble.k_min])
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

    # strong-solution determinism in the trivial-subgroup case: the path is a
    # function of the noise above the window's cut alone, so a rebuild that
    # draws the same stream only down to the cut must give the same paths
    strong_det: Optional[bool] = None
    if limitres.case == "B":
        cut = window_cut(noise, ensemble.k_min)
        rebuilt = extremal_ensemble(noise, limitres, cut, ensemble.n_paths, ensemble.seed,
                                    k_min=ensemble.k_min, u0=group.identity)
        strong_det = bool(np.array_equal(rebuilt.eta, ensemble.phi))  # H trivial: eta0 = phi
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
