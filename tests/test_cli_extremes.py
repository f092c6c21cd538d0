"""Property tests: ``prepare``, ``predict``, ``simulate`` and ``evaluate``
on extreme cells.

Every draw puts cells such as 0, -0, subnormals, +-1e300, 1.7e308 and
blanks into a small table or case file, and runs it through
``chfkit.cli.main`` (``predict`` and ``simulate`` with every predictor
kind, plus a residual model whose CHF turns negative along a long tube).
Whatever the input, a run ends one of two ways: exit 0, or exit 1 with
one ``error:`` line; it never raises.  And no ``ok`` row carries a value
that is not finite, or a CHF that is not positive: a ``predictions.csv``
row, an unflagged ``profiles.csv`` node, a ``critical_power.csv`` row, a
row of ``prepare``'s split tables, or an ``evaluate`` metric, parity row
or KDE point.  numpy's RuntimeWarnings are not failures here, except
where a test turns them into errors.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chfkit import cli
from chfkit.data import CSV_HEADER
from chfkit.hybrid import PREDICTOR_KINDS

from test_predict_bytes import _model_args
from test_simulate_bytes import _falling_residual_args

KINDS = [*PREDICTOR_KINDS, "falling"]
EXTREMES = ["0", "-0", "5e-324", "1e-320", "1e300", "-1e300", "1.7e308", ""]

# a Bennett-like row of each file, cell by cell
TABLE_ROW = ["12.62", "5.56", "6895", "1000", "", "100", "", "1500"]
CASE_ROW = ["12.62", "5.56", "6895", "1000", "100", "500", "40"]


@pytest.fixture(scope="module")
def kind_args(tmp_path_factory):
    """The ``kind=`` and ``model=`` arguments of each drawn kind."""
    tmp = tmp_path_factory.mktemp("models")
    return {kind: ["kind=hybrid_bowring", *_falling_residual_args(tmp)] if kind == "falling"
            else [f"kind={kind}", *_model_args(kind, tmp)] for kind in KINDS}


def _cell(typical):
    """The typical cell two draws in three, else an extreme one."""
    return st.integers(0, 2).flatmap(
        lambda k: st.just(typical) if k else st.sampled_from(EXTREMES))


def _rows(row, last=None, max_size=5):
    cells = [_cell(c) for c in row]
    if last is not None:
        cells[-1] = last
    return st.lists(st.tuples(*cells).map(",".join), min_size=1, max_size=max_size)


# n_axial stays at most 200, so that no draw allocates much
_N_AXIAL = st.one_of(st.integers(2, 200).map(str),
                     st.sampled_from(["", "0", "-0", "5e-324", "1e-320", "2.5"]))
_TABLES = _rows(TABLE_ROW)
_CASES = _rows(CASE_ROW, last=_N_AXIAL)
_BRACKETS = st.sampled_from([("100", "4000"), ("1e-300", "1e300")])


def _run(argv: list[str]) -> int:
    """Exit code of one in-process run; any exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1)
    lines = err.getvalue().splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code


def _table(path: Path, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


def _csv(path: Path) -> list[dict[str, str]]:
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _positive_finite(cell: str) -> bool:
    return 0.0 < float(cell) < math.inf


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40)
@given(rows=_TABLES)
# the falling residual drives this row's CHF below zero
@example(rows=["12.62,5.56,6895,1000,,100,,1500"])
def test_predict_writes_no_nonpositive_ok_row(kind_args, kind, rows):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _table(tmp / "table.csv", CSV_HEADER, rows)
        code = _run(["predict", f"data={tmp / 'table.csv'}", *kind_args[kind],
                     f"outdir={tmp / 'out'}"])
        if code == 0:
            for row in _csv(tmp / "out" / "predictions.csv"):
                if row["status"] == "ok":
                    assert _positive_finite(row["chf_pred_kW_m2"]), row


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40)
@given(rows=_CASES, bracket=_BRACKETS)
# at zero wall flux the falling residual's long nodes have CHF below zero
@example(rows=["12.62,5.56,6895,1000,100,0,6"], bracket=("100", "4000"))
def test_simulate_writes_no_nonpositive_ok_node(kind_args, kind, rows, bracket):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _table(tmp / "cases.csv", cli.CASE_HEADER, rows)
        out = tmp / "out"
        code = _run(["simulate", f"cases={tmp / 'cases.csv'}", *kind_args[kind],
                     "critical_power=true", f"bracket_lo_kW_m2={bracket[0]}",
                     f"bracket_hi_kW_m2={bracket[1]}", f"outdir={out}"])
        if code == 1:
            return
        for node in _csv(out / "profiles.csv"):
            if node["flagged"] == "0":
                assert float(node["chf_kW_m2"]) > 0.0, node
        for row in _csv(out / "critical_power.csv"):
            if row["status"] == "ok":
                assert _positive_finite(row["critical_flux_kW_m2"]), row


# ---------------------------------------------------------------------------
# A huge or tiny D and G overflow inside the correlation, without a warning
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["base_biasi", "base_bowring"])
@pytest.mark.parametrize("row", [
    "1e300,5.56,6895,1e300,,100,,1500",     # G D overflows
    "1e-297,5.56,6895,1e-300,0.1,100,,1500",  # Biasi's high-quality branch overflows
])
def test_an_overflowing_row_fails_without_a_warning(tmp_path, kind, row):
    _table(tmp_path / "table.csv", CSV_HEADER, [row, ",".join(TABLE_ROW)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["predict", f"data={tmp_path / 'table.csv'}", f"kind={kind}",
                     f"outdir={tmp_path / 'out'}"]) == 0
    failed, ok = _csv(tmp_path / "out" / "predictions.csv")
    assert failed["status"].startswith("failed: ")
    assert ok["status"] == "ok" and _positive_finite(ok["chf_pred_kW_m2"])


# ---------------------------------------------------------------------------
# prepare and evaluate
# ---------------------------------------------------------------------------

# prepare needs 10 usable rows: ten typical ones inside the default
# envelope (strict), then one or two drawn
PREPARE_ROW = ["10", "2", "7000", "1500", "", "150", "", "1500"]
_PREPARE_TABLES = _rows(PREPARE_ROW, max_size=2).map(
    lambda drawn: [",".join(PREPARE_ROW)] * 10 + drawn)


def _finite(cell: str) -> bool:
    return math.isfinite(float(cell))


@pytest.mark.parametrize("base", ["none", "biasi", "bowring"])
@pytest.mark.parametrize("strict", ["true", "false"])
@settings(max_examples=25)
@given(rows=_PREPARE_TABLES)
def test_prepare_writes_no_nonfinite_row(base, strict, rows):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _table(tmp / "table.csv", CSV_HEADER, rows)
        out = tmp / "out"
        if _run(["prepare", f"data={tmp / 'table.csv'}", f"base={base}",
                 f"strict={strict}", f"outdir={out}"]) == 1:
            return
        for name in ("train", "val", "test"):
            for row in _csv(out / f"{name}.csv"):
                t_in = row.pop("T_in_C")
                assert t_in == "" or _finite(t_in), (name, t_in)  # blank: no inlet temperature
                assert all(map(_finite, row.values())), (name, row)
                assert all(_positive_finite(row[c]) for c in ("D_mm", "L_m", "P_kPa",
                                                               "G_kg_m2s")), (name, row)
                if strict == "true":  # inside the envelope
                    assert _positive_finite(row["chf_kW_m2"]), (name, row)


_EVAL_CELL = st.one_of(st.sampled_from(["1500", "1400", "2200"]), st.sampled_from(EXTREMES))


@settings(max_examples=60)
@given(rows=st.lists(st.tuples(_EVAL_CELL, _EVAL_CELL).map(",".join),
                     min_size=1, max_size=12))
def test_evaluate_writes_no_nonfinite_metric(rows):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _table(tmp / "pred.csv", "chf_pred_kW_m2,measured_chf_kW_m2", rows)
        out = tmp / "out"
        if _run(["evaluate", f"pred_csv={tmp / 'pred.csv'}", f"outdir={out}"]) == 1:
            return
        (report,) = _csv(out / "report.csv")
        # the trimmed metrics read nan, their documented value, when every
        # evaluated row has a zero prediction
        no_eligible = report["n_zero_pred"] == report["n_total"]
        assert all(_finite(v) or (no_eligible and v == "nan") for v in report.values()), report
        for row in _csv(out / "parity.csv"):  # no relative error against a zero truth
            assert _finite(row["truth_kW_m2"]) and _finite(row["pred_kW_m2"]), row
            assert _finite(row["rel_err_pct"]) if float(row["truth_kW_m2"]) else \
                row["rel_err_pct"] == "", row
        if (out / "kde.csv").exists():
            for point in _csv(out / "kde.csv"):
                assert _finite(point["x_pct"]) and float(point["density"]) >= 0.0, point
