"""Property tests: ``predict`` and ``simulate`` on extreme cells.

Every draw puts cells such as 0, -0, subnormals, +-1e300, 1.7e308 and
blanks into a small table or case file, and runs it through
``chfkit.cli.main`` with every predictor kind, plus a residual model
whose CHF turns negative along a long tube.  Whatever the input, a run
ends one of two ways: exit 0, or exit 1 with one ``error:`` line; it
never raises.  And no ``ok`` row carries a CHF that is not positive and
finite: a ``predictions.csv`` row, an unflagged profile node or a
``critical_power.csv`` row.
"""

import contextlib
import io
import math
import tempfile
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


def _rows(row, last=None):
    cells = [_cell(c) for c in row]
    if last is not None:
        cells[-1] = last
    return st.lists(st.tuples(*cells).map(",".join), min_size=1, max_size=5)


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
        for path in out.glob("profile_*.csv"):
            for node in _csv(path):
                if node["flagged"] == "0":
                    assert float(node["chf_kW_m2"]) > 0.0, (path.name, node)
        for row in _csv(out / "critical_power.csv"):
            if row["status"] == "ok":
                assert _positive_finite(row["critical_flux_kW_m2"]), row
