"""Tests for the error-metric suite, trimming rules, KDE and parity
export."""

import math

import numpy as np
import pytest

from chfkit.evaluation import (
    EvalReport,
    compute_report,
    kde,
    parity_series,
    relative_errors,
    write_kde_csv,
    write_parity_csv,
    write_report_csv,
    write_report_text,
)

# sqrt((10^2 + 20^2)/2), frozen
RRMSE_10_20 = 15.811388300841896
# 0.9 * min(1, 2/1.34) * 100^(-1/5), frozen
H_UNIT_SIGMA_N100 = 0.35829645349814747


# ---------------------------------------------------------------------------
# relative_errors
# ---------------------------------------------------------------------------

def test_relative_errors_identity():
    e, zero = relative_errors([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert np.array_equal(e, np.zeros(3))
    assert zero == ()


def test_relative_errors_ten_percent():
    y = np.array([100.0, 2.0e6, 5.5e5])
    e, _ = relative_errors(1.1 * y, y)
    assert e == pytest.approx([10.0, 10.0, 10.0], rel=1e-12)


def test_relative_errors_signed():
    e, _ = relative_errors([90.0], [100.0])
    assert e[0] == pytest.approx(-10.0, rel=1e-15)


def test_relative_errors_zero_truth_excluded_with_count():
    e, zero = relative_errors([1.0, 2.0, 3.0], [0.0, 4.0, 0.0])
    assert zero == (0, 2)
    assert e == pytest.approx([-50.0], rel=1e-15)


def test_relative_errors_shape_mismatch():
    with pytest.raises(ValueError, match="equal-length"):
        relative_errors([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# compute_report
# ---------------------------------------------------------------------------

def test_report_two_point_hand_values():
    r = compute_report([110.0, 120.0], [100.0, 100.0])
    assert r.mean_rel_error == pytest.approx(15.0, rel=1e-12)
    assert r.std_rel_error == pytest.approx(5.0, rel=1e-12)  # population
    assert r.max_rel_error == pytest.approx(20.0, rel=1e-12)
    assert r.rrmse == pytest.approx(RRMSE_10_20, rel=1e-12)
    assert r.frac_gt_10 == 50.0
    assert r.frac_gt_25 == 0.0
    assert r.n_total == 2 and r.n_trimmed == 0


def test_report_single_point_thirty_percent():
    r = compute_report([130.0], [100.0])
    assert r.mean_rel_error == pytest.approx(30.0, rel=1e-12)
    assert r.max_rel_error == pytest.approx(30.0, rel=1e-12)
    assert r.rrmse == pytest.approx(30.0, rel=1e-12)
    assert r.std_rel_error == 0.0
    assert r.frac_gt_10 == 100.0
    assert r.frac_gt_25 == 100.0
    assert r.n_total == 1 and r.n_trimmed == 0


def test_report_zero_prediction_policy():
    # zero predictions score -100%: kept for max and fractions, dropped
    # from mean/std/rRMSE
    r = compute_report([0.0, 110.0], [100.0, 100.0])
    assert r.n_zero_pred == 1
    assert r.max_rel_error == 100.0
    assert r.frac_gt_10 == 50.0  # the -100 row only
    assert r.frac_gt_25 == 50.0
    assert r.mean_rel_error == pytest.approx(10.0, rel=1e-12)
    assert r.std_rel_error == 0.0
    assert r.rrmse == pytest.approx(10.0, rel=1e-12)


def test_report_zero_truth_rows_excluded():
    r = compute_report([110.0, 5.0], [100.0, 0.0])
    assert r.n_total == 1
    assert r.n_zero_truth == 1
    assert r.mean_rel_error == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ValueError, match="nonzero truth"):
        compute_report([1.0], [0.0])


def test_report_trims_largest_twelve_of_2458():
    # distinct magnitudes 0.1% .. 245.8%; nearest-rank 99.5th percentile
    # keeps 2,446 and drops exactly 12
    n = 2458
    e_pct = np.arange(1, n + 1) / 10.0
    truth = np.full(n, 100.0)
    pred = truth * (1.0 + e_pct / 100.0)
    r = compute_report(pred, truth)
    assert r.n_total == n
    assert r.n_trimmed == 12
    kept = e_pct[:-12]
    assert r.mean_rel_error == pytest.approx(np.mean(kept), rel=1e-12)
    assert r.std_rel_error == pytest.approx(np.std(kept), rel=1e-12)
    assert r.rrmse == pytest.approx(np.sqrt(np.mean(kept**2)), rel=1e-12)
    # max and the fractions see every row (recompute errors from the
    # actual pred/truth pair; the 1 + e/100 construction is not exact)
    e_actual = (pred - truth) / truth * 100.0
    assert r.max_rel_error == pytest.approx(245.8, rel=1e-12)
    assert r.frac_gt_10 == pytest.approx(np.mean(e_actual > 10.0) * 100.0, rel=1e-12)


def test_report_trimming_never_raises_rrmse():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(5, 400))
        truth = rng.uniform(100.0, 1000.0, n)
        pred = truth * (1.0 + rng.normal(0.0, 0.3, n))
        trimmed = compute_report(pred, truth, trim_quantile=0.995)
        full = compute_report(pred, truth, trim_quantile=1.0)
        assert full.n_trimmed == 0
        assert trimmed.rrmse <= full.rrmse + 1e-12


def test_report_scale_invariance():
    rng = np.random.default_rng(32)
    truth = rng.uniform(1.0e5, 1.0e7, 200)
    pred = truth * (1.0 + rng.normal(0.0, 0.2, 200))
    a = compute_report(pred, truth)
    b = compute_report(7.3 * pred, 7.3 * truth)
    for name in ("mean_rel_error", "std_rel_error", "max_rel_error",
                 "rrmse", "frac_gt_10", "frac_gt_25"):
        assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-12), name


def test_report_fraction_consistency_with_direct_count():
    rng = np.random.default_rng(33)
    truth = rng.uniform(100.0, 200.0, 500)
    pred = truth * (1.0 + rng.normal(0.0, 0.25, 500))
    r = compute_report(pred, truth)
    e = (pred - truth) / truth * 100.0
    assert r.frac_gt_10 == pytest.approx(np.sum(np.abs(e) > 10.0) / 500 * 100.0, rel=1e-12)
    assert r.frac_gt_25 == pytest.approx(np.sum(np.abs(e) > 25.0) / 500 * 100.0, rel=1e-12)
    assert r.frac_gt_25 <= r.frac_gt_10 <= 100.0


def test_report_bias_and_overprediction_share_hand_case():
    # e = +10, -10, +30, 0, -50 %; a sixth row has zero truth and is excluded
    pred, truth = [110.0, 90.0, 130.0, 100.0, 50.0, 70.0], [100.0] * 5 + [0.0]
    r = compute_report(pred, truth, trim_quantile=0.8)
    # nearest rank ceil(0.8 * 5) = 4 keeps |e| <= 30: the -50 leaves the bias
    assert r.n_trimmed == 1 and r.n_zero_truth == 1
    assert r.bias_rel_error == (10.0 - 10.0 + 30.0 + 0.0) / 4 == 7.5
    # 110 and 130 over; 100 equals its truth; every evaluated row counts
    assert r.frac_overpredicted == 2 / 5 * 100.0 == 40.0
    full = compute_report(pred, truth, trim_quantile=1.0)
    assert full.bias_rel_error == -20.0 / 5 == -4.0
    assert full.frac_overpredicted == 40.0


def test_report_bias_leaves_out_zero_predictions_and_share_keeps_them():
    r = compute_report([0.0, 120.0, 120.0], [100.0, 100.0, 100.0], trim_quantile=1.0)
    assert r.n_zero_pred == 1
    assert r.bias_rel_error == pytest.approx(20.0, rel=1e-12)
    assert r.frac_overpredicted == pytest.approx(200.0 / 3, rel=1e-12)


def test_report_all_zero_predictions():
    r = compute_report([0.0, 0.0], [100.0, 200.0])
    assert math.isnan(r.mean_rel_error)
    assert math.isnan(r.rrmse)
    assert r.max_rel_error == 100.0
    assert r.frac_gt_25 == 100.0
    assert r.n_zero_pred == 2


def test_report_quantile_validation():
    with pytest.raises(ValueError, match="trim_quantile"):
        compute_report([1.0], [1.0], trim_quantile=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_report_overflow_names_the_metric():
    with pytest.raises(ValueError, match=r"^std_rel_error, rrmse overflow"):
        compute_report([1e300, 2.0, 3.0], [1.0, 1.0, 1.0])
    # relative errors that are themselves infinite
    with pytest.raises(ValueError, match=r"^mean_rel_error, max_rel_error, "):
        compute_report([1.7e308, -1.7e308], [-1e-3, 1e-3])


# ---------------------------------------------------------------------------
# KDE
# ---------------------------------------------------------------------------

def test_kde_bandwidth_frozen_unit_sigma():
    # 50 pairs of +-1: population sigma exactly 1, IQR = 2, so the
    # sigma branch of the Silverman rule is active
    e = np.array([-1.0, 1.0] * 50)
    s = kde(e)
    assert s.bandwidth == pytest.approx(H_UNIT_SIGMA_N100, rel=1e-12)


def test_kde_bandwidth_matches_closed_form():
    rng = np.random.default_rng(41)
    e = rng.normal(5.0, 12.0, 321)
    s = kde(e)
    sigma = float(np.std(e))
    q25, q75 = np.percentile(e, [25.0, 75.0])
    want = 0.9 * min(sigma, (q75 - q25) / 1.34) * 321 ** (-0.2)
    assert s.bandwidth == pytest.approx(want, rel=1e-12)


def test_kde_integrates_to_one():
    rng = np.random.default_rng(42)
    e = rng.normal(0.0, 20.0, 400)
    s = kde(e)  # default window: data +- 3h
    area = np.trapezoid(s.density, s.grid)
    assert area == pytest.approx(1.0, abs=1e-3)
    # and with the generous +-5h window of the stated invariant
    h = s.bandwidth
    wide = kde(e, window=(float(e.min() - 5 * h), float(e.max() + 5 * h)))
    assert np.trapezoid(wide.density, wide.grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_symmetric_data_symmetric_density():
    e = np.array([-30.0, -10.0, -5.0, 5.0, 10.0, 30.0])
    s = kde(e)
    assert np.max(np.abs(s.density - s.density[::-1])) < 1e-9


def test_kde_grid_and_window():
    e = np.array([-1.0, 0.0, 2.0, 5.0])
    s = kde(e, window=(-50.0, 50.0))
    assert len(s.grid) == 512 and len(s.density) == 512
    assert s.grid[0] == -50.0 and s.grid[-1] == 50.0
    assert np.all(np.diff(s.grid) > 0)
    assert np.all(s.density >= 0.0)
    # reversed, NaN, infinite, or so wide that the grid step overflows
    for window in ((5.0, -5.0), (math.nan, 5.0), (-5.0, math.nan), (-math.inf, math.inf),
                   (-math.inf, 5.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match=r"^window must be finite with lo < hi"):
            kde(e, window=window)


def test_kde_density_extends_past_data():
    e = np.array([-80.0, -40.0, 0.0, 40.0, 95.0, 100.0])
    s = kde(e)
    assert s.grid[-1] > 100.0
    assert s.density[-1] > 0.0


def test_kde_degenerate_inputs():
    with pytest.raises(ValueError, match="zero-variance"):
        kde([3.0, 3.0, 3.0])
    with pytest.raises(ValueError, match="at least 2"):
        kde([1.0])


# ---------------------------------------------------------------------------
# Parity series
# ---------------------------------------------------------------------------

def test_parity_identity_on_diagonal():
    truth = [1.0e6, 2.0e6, 3.0e6]
    t, p, e = parity_series(truth, truth)
    for column in (t, p, e):
        assert column.dtype == np.float64 and column.shape == (3,)
    assert t.tolist() == truth and p.tolist() == truth and e.tolist() == [0.0] * 3


def test_parity_preserves_order_and_matches_relative_errors():
    truth = np.array([1.0e6, 8.0e5, 2.5e6, 4.0e5])
    pred = np.array([1.1e6, 7.0e5, 2.5e6, 6.0e5])
    t, p, errs = parity_series(pred, truth)
    e, _ = relative_errors(pred, truth)
    assert t.tolist() == truth.tolist()
    assert p.tolist() == pred.tolist()
    assert errs.tolist() == e.tolist()


def test_parity_zero_truth_row_kept_with_nan():
    t, p, e = parity_series([5.0, 6.0], [0.0, 3.0])
    assert t.tolist() == [0.0, 3.0] and p.tolist() == [5.0, 6.0]
    assert math.isnan(e[0])
    assert e[1] == pytest.approx(100.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def test_write_report_csv_roundtrip(tmp_path):
    r = compute_report([110.0, 120.0], [100.0, 100.0])
    p = tmp_path / "report.csv"
    write_report_csv(r, str(p))
    header, values = p.read_text().strip().split("\n")
    cols = dict(zip(header.split(","), values.split(",")))
    assert float(cols["rrmse"]) == r.rrmse
    assert float(cols["mean_rel_error"]) == r.mean_rel_error
    assert float(cols["bias_rel_error"]) == r.bias_rel_error == 15.0
    assert float(cols["frac_overpredicted"]) == r.frac_overpredicted == 100.0
    assert int(cols["n_total"]) == 2


def test_write_report_text_contains_all_metrics(tmp_path):
    r = compute_report([110.0, 120.0], [100.0, 100.0])
    p = tmp_path / "report.txt"
    write_report_text(r, str(p))
    text = p.read_text()
    for label in ("Mean relative error", "Std of relative error", "Max relative",
                  "rRMSE", "> 10%", "> 25%", "Mean signed error", "pred > truth",
                  "Evaluated rows"):
        assert label in text


def test_write_parity_csv_kilowatt_units(tmp_path):
    series = parity_series([1.5e6, 3.0e6], [1.0e6, 0.0])
    p = tmp_path / "parity.csv"
    write_parity_csv(series, str(p))
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "truth_kW_m2,pred_kW_m2,rel_err_pct"
    t, pr, e = lines[1].split(",")
    assert float(t) == 1000.0 and float(pr) == 1500.0
    assert float(e) == pytest.approx(50.0, rel=1e-12)
    assert lines[2].endswith(",")  # NaN error serialized as empty


def test_write_kde_csv(tmp_path):
    s = kde([-10.0, -2.0, 3.0, 9.0, 20.0])
    p = tmp_path / "kde.csv"
    write_kde_csv(s, str(p))
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "x_pct,density"
    assert len(lines) == 513
    x0, d0 = lines[1].split(",")
    assert float(x0) == s.grid[0]
    assert float(d0) == s.density[0]


def test_kde_zero_iqr_falls_back_to_sigma():
    e = np.array([100.0 * 7 / 3] * 5 + [-100.0 * 4 / 3])
    s = kde(e)
    assert s.bandwidth == pytest.approx(0.9 * float(np.std(e)) * 6 ** (-0.2), rel=1e-12)
    assert np.all(np.isfinite(s.density)) and np.all(s.density > 0.0)


@pytest.mark.parametrize("n", [2, 7, 300, 2458])
def test_kde_blocks_give_unblocked_bits(n):
    # the grid is evaluated a block of rows at a time; each row's sum
    # over the errors must be the bits of the whole-grid evaluation
    e = np.random.default_rng(n).normal(3.0, 15.0, n)
    s = kde(e)
    h = s.bandwidth
    z = (s.grid[:, None] - e[None, :]) / h
    whole = np.exp(-0.5 * z**2).sum(axis=1) / (e.size * h * math.sqrt(2.0 * math.pi))
    assert np.array_equal(s.density, whole)
