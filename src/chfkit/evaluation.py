"""Prediction-quality metrics for CHF models.

Six-metric error suite over signed relative errors
e_i = (pred_i - truth_i) / truth_i * 100:

* mean |e| and the population standard deviation of signed e,
* max |e|,
* rRMSE = sqrt(mean(e^2)),
* the fractions of |e| above 10% and above 25%.

Outlier handling follows the reporting conventions of CHF benchmark
studies: absolute errors above the 99.5th percentile (nearest-rank
rule) are omitted from the mean, standard deviation and rRMSE but kept
for the maximum and both threshold fractions; measurements with zero
truth are excluded entirely (and counted); zero-valued predictions
score exactly -100% and participate only in the max and threshold
fractions.

Also here: the parity series (truth, prediction, signed %) for scatter
export, and a Gaussian kernel density estimate of the signed errors
with the Silverman rule-of-thumb bandwidth
h = 0.9 * min(sigma, IQR/1.34) * n^(-1/5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import write_columns

__all__ = [
    "EvalReport",
    "KdeSeries",
    "relative_errors",
    "compute_report",
    "kde",
    "parity_series",
    "write_report_csv",
    "write_report_text",
    "write_parity_csv",
    "write_kde_csv",
    "TRIMMED_METRICS",
]

# metrics computed on the outlier-trimmed subset
TRIMMED_METRICS = ("mean_rel_error", "std_rel_error", "rrmse")


@dataclass(frozen=True)
class EvalReport:
    """Six error metrics, all in percent.

    ``n_total`` counts the evaluated rows (nonzero truth); the input
    length is ``n_total + n_zero_truth``.  ``n_trimmed`` counts rows
    removed by the outlier quantile, on top of the ``n_zero_pred`` rows
    that never enter the trimmed metrics.
    """

    mean_rel_error: float
    max_rel_error: float
    std_rel_error: float
    rrmse: float
    frac_gt_10: float
    frac_gt_25: float
    n_total: int
    n_trimmed: int
    n_zero_pred: int
    n_zero_truth: int


@dataclass(frozen=True)
class KdeSeries:
    grid: np.ndarray       # percent
    density: np.ndarray    # 1/percent
    bandwidth: float


def relative_errors(
    pred: Sequence[float], truth: Sequence[float]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Signed percent errors, excluding (and reporting) zero-truth rows.

    Returns (errors, zero_truth_indices); errors keeps the input order
    of the surviving rows.  Negative = underprediction.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"pred and truth must be equal-length 1-D, got {p.shape}, {t.shape}")
    zero = t == 0.0
    e = (p[~zero] - t[~zero]) / t[~zero] * 100.0
    return e, tuple(int(i) for i in np.flatnonzero(zero))


def _nearest_rank_keep_mask(abs_e: np.ndarray, quantile: float) -> np.ndarray:
    """True for entries at or below the nearest-rank |e| quantile.

    Rank = ceil(quantile * n), 1-indexed in the sorted order, so 2,458
    points at 0.995 keep 2,446 and drop the largest 12.
    """
    n = abs_e.size
    k = max(1, math.ceil(quantile * n))
    threshold = np.sort(abs_e)[k - 1]
    return abs_e <= threshold


@np.errstate(over="ignore", invalid="ignore")
def compute_report(
    pred: Sequence[float], truth: Sequence[float], trim_quantile: float = 0.995
) -> EvalReport:
    """Six-metric report with outlier trimming.

    Only the mean, standard deviation and rRMSE are trimmed; the max
    and both threshold fractions always use every evaluated row.  A
    metric that overflows float64 (relative errors near 1e154 % and
    beyond) raises a ValueError naming it.
    """
    if not 0.0 < trim_quantile <= 1.0:
        raise ValueError(f"trim_quantile must be in (0, 1], got {trim_quantile}")
    e, zero_truth = relative_errors(pred, truth)
    if e.size == 0:
        raise ValueError("no rows with nonzero truth to evaluate")
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    pred_nonzero = p[t != 0.0] != 0.0

    abs_e = np.abs(e)
    max_rel = float(abs_e.max())
    frac10 = float(np.mean(abs_e > 10.0) * 100.0)
    frac25 = float(np.mean(abs_e > 25.0) * 100.0)

    elig = e[pred_nonzero]
    n_zero_pred = int(e.size - elig.size)
    if elig.size == 0:
        mean_rel = std_rel = rrmse = math.nan
        n_trimmed = 0
    else:
        keep = _nearest_rank_keep_mask(np.abs(elig), trim_quantile)
        kept = elig[keep]
        n_trimmed = int(elig.size - kept.size)
        mean_rel = float(np.mean(np.abs(kept)))
        std_rel = float(np.std(kept))  # population convention
        rrmse = float(np.sqrt(np.mean(kept**2)))
    # overflow gives inf; nan stays the "no eligible row" value
    overflowed = [name for name, value in (("mean_rel_error", mean_rel),
                                           ("max_rel_error", max_rel),
                                           ("std_rel_error", std_rel), ("rrmse", rrmse))
                  if math.isinf(value)]
    if overflowed:
        raise ValueError(f"{', '.join(overflowed)} overflow float64 "
                         f"(largest relative error {max_rel:.6g} %)")

    return EvalReport(
        mean_rel_error=mean_rel,
        max_rel_error=max_rel,
        std_rel_error=std_rel,
        rrmse=rrmse,
        frac_gt_10=frac10,
        frac_gt_25=frac25,
        n_total=int(e.size),
        n_trimmed=n_trimmed,
        n_zero_pred=n_zero_pred,
        n_zero_truth=len(zero_truth),
    )


def kde(
    errors: Sequence[float], window: tuple[float, float] | None = None
) -> KdeSeries:
    """Gaussian KDE of signed percent errors on a 512-point grid.

    Bandwidth is the Silverman rule of thumb
    h = 0.9 * min(sigma, IQR/1.34) * n^(-1/5) with the population
    standard deviation, or sigma alone when the IQR is 0 (as statsmodels
    does).  Without a window the grid spans the data plus three
    bandwidths each side; density can therefore extend past the data
    extremes (kernel smoothing).  A window must be finite, with lo < hi.
    """
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 1 or e.size < 2:
        raise ValueError(f"need at least 2 error values, got shape {e.shape}")
    sigma = float(np.std(e))
    if sigma == 0.0:
        raise ValueError("zero-variance sample has no meaningful density estimate")
    q25, q75 = np.percentile(e, [25.0, 75.0])
    spread = min(sigma, (q75 - q25) / 1.34) if q75 > q25 else sigma
    h = 0.9 * spread * e.size ** (-1.0 / 5.0)
    if window is None:
        lo, hi = float(e.min() - 3.0 * h), float(e.max() + 3.0 * h)
    else:
        lo, hi = float(window[0]), float(window[1])
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"window must be finite with lo < hi, got {window}")
    grid = np.linspace(lo, hi, 512)
    density = np.empty_like(grid)
    for g0 in range(0, grid.size, 32):  # row blocks: small temporaries, same sums
        z = (grid[g0 : g0 + 32, None] - e[None, :]) / h
        density[g0 : g0 + 32] = np.exp(-0.5 * z**2).sum(axis=1)
    density /= e.size * h * math.sqrt(2.0 * math.pi)
    return KdeSeries(grid=grid, density=density, bandwidth=float(h))


def parity_series(
    pred: Sequence[float], truth: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truth, prediction and signed percent error as float64 columns, input
    order; zero truth gives NaN error."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"pred and truth must be equal-length 1-D, got {p.shape}, {t.shape}")
    e, zero_idx = relative_errors(p, t)
    errs = np.full(p.size, math.nan)
    errs[np.setdiff1d(np.arange(p.size), np.array(zero_idx, dtype=int))] = e
    return t, p, errs


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

_METRIC_ORDER = (
    ("mean_rel_error", "Mean relative error [%]"),
    ("std_rel_error", "Std of relative error [%]"),
    ("max_rel_error", "Max relative error [%]"),
    ("rrmse", "rRMSE [%]"),
    ("frac_gt_10", "Fraction |e| > 10% [%]"),
    ("frac_gt_25", "Fraction |e| > 25% [%]"),
)


def write_report_csv(report: EvalReport, path: str) -> None:
    names = [name for name, _ in _METRIC_ORDER]
    names += ["n_total", "n_trimmed", "n_zero_pred", "n_zero_truth"]
    write_columns(path, ",".join(names), [[repr(getattr(report, n))] for n in names])


def write_report_text(report: EvalReport, path: str) -> None:
    width = max(len(label) for _, label in _METRIC_ORDER)
    with open(path, "w", encoding="utf-8") as fh:
        for name, label in _METRIC_ORDER:
            trimmed = "  (trimmed)" if name in TRIMMED_METRICS and report.n_trimmed > 0 else ""
            fh.write(f"{label:<{width}}  {getattr(report, name):10.4f}{trimmed}\n")
        fh.write(f"{'Evaluated rows':<{width}}  {report.n_total:10d}\n")
        fh.write(f"{'Trimmed rows':<{width}}  {report.n_trimmed:10d}\n")
        fh.write(f"{'Zero predictions':<{width}}  {report.n_zero_pred:10d}\n")
        fh.write(f"{'Zero-truth rows excluded':<{width}}  {report.n_zero_truth:10d}\n")


def write_parity_csv(series: tuple[np.ndarray, np.ndarray, np.ndarray], path: str) -> None:
    """Parity export of ``parity_series``; truth/pred are W/m^2 in, kW/m^2 in the file."""
    write_columns(path, "truth_kW_m2,pred_kW_m2,rel_err_pct",
                  [series[0] / 1e3, series[1] / 1e3, series[2]], nan="")


def write_kde_csv(series: KdeSeries, path: str) -> None:
    write_columns(path, "x_pct,density", [series.grid, series.density])
