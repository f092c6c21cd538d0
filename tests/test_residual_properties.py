"""Property tests: the residual table built on a feature matrix against
the per-record build it replaced.

The oracle below is the earlier ``build_residual_dataset``: it makes one
``InletConditions`` and one residual record per row, each with its own
heat-balance solve, and checks the residual identity exactly.  The
matrix build must give the same rows to the bit (compared by ``repr``),
the same failures in the same order, and, for a batch with a row that
InletConditions rejects, an error of the same type with the same
message.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit import fluid
from chfkit.correlations import InletConditions, NoCriticalConditionError, solve_hbm
from chfkit.data import TABLE1_ENVELOPE
from chfkit.hybrid import build_residual_dataset

# ---------------------------------------------------------------------------
# Oracle: one record and one solve per row
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ResidualRecord:
    features: tuple[float, float, float, float, float]
    base_chf: float
    measured_chf: float
    residual: float

    def __post_init__(self) -> None:
        if self.residual != self.measured_chf - self.base_chf:
            raise ValueError("residual must equal measured_chf - base_chf exactly")


def _ref_build(rows, measured, base):
    """(records, failures) of the per-record build; raises as it did."""
    if base not in ("biasi", "bowring"):
        raise ValueError(f"base must be 'biasi' or 'bowring', got {base!r}")
    conds = [InletConditions(*f) for f in rows]
    out, failures = [], []
    for i, (f, c, m) in enumerate(zip(rows, conds, measured)):
        try:
            chf = solve_hbm(base, c).chf
        except NoCriticalConditionError as e:
            failures.append((i, str(e)))
            continue
        out.append(_ResidualRecord(features=f, base_chf=chf, measured_chf=m,
                                   residual=m - chf))
    return out, failures


def _outcome(build):
    """Table rows and failures by repr, or the error's type and message."""
    try:
        table, failures = build()
    except Exception as e:  # noqa: BLE001 - the outcome records any error
        return f"{type(e).__name__}: {e}"
    return [repr(tuple(r)) for r in table], repr(failures)


def _fast(rows, measured, base):
    table, report = build_residual_dataset(np.array(rows).reshape(-1, 5), measured, base)
    assert report.n_records == len(rows) and report.n_failed == len(report.failures)
    return table.tolist(), list(report.failures)


def _ref(rows, measured, base):
    records, failures = _ref_build(rows, measured, base)
    return [(*r.features, r.base_chf, r.measured_chf, r.residual) for r in records], failures


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def _envelope(name: str):
    return st.floats(*TABLE1_ENVELOPE[name])


# 1 bar with a two-phase inlet leaves Biasi without a critical condition,
# 200 bar leaves Bowring so; low mass flux and small tubes reach Biasi's
# low-flow branch
_ROW = st.tuples(
    st.one_of(_envelope("diameter"), st.just(0.01)),
    _envelope("heated_length"),
    st.one_of(st.sampled_from([1.0e5, 7.0e6, 1.9e7, 2.0e7]),
              st.floats(fluid.P_SAT_MIN, fluid.P_CRITICAL)),
    st.one_of(_envelope("mass_flux"), st.floats(8.0, 300.0)),
    st.floats(-2.0e6, 1.0e6),
)

_BAD = st.sampled_from([0.0, -1.0, float("nan"), float("inf"), -float("inf"), 3.0e7])


@st.composite
def _batches(draw):
    """Rows with their measured CHF; now and then one or two rows have a
    field that InletConditions may reject."""
    rows = draw(st.lists(_ROW, max_size=32))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 4))
        rows[i] = rows[i][:j] + (draw(_BAD),) + rows[i][j + 1:]
    measured = draw(st.lists(st.floats(1.0e4, 2.0e7), min_size=len(rows),
                             max_size=len(rows)))
    return rows, measured


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", ["biasi", "bowring"])
@settings(max_examples=150)
@given(batch=_batches())
def test_residual_table_matches_per_record_build(base, batch):
    rows, measured = batch
    assert (_outcome(lambda: _fast(rows, measured, base))
            == _outcome(lambda: _ref(rows, measured, base)))


def test_strategy_reaches_failures_and_rejections():
    # the property above is only as good as its draws: over the same
    # derandomized examples, both kinds of outcome must occur
    seen = {"failed": 0, "raised": 0}

    @settings(max_examples=150)
    @given(batch=_batches())
    def survey(batch):
        try:
            _, failures = _ref_build(*batch, "biasi")
        except ValueError:
            seen["raised"] += 1
            return
        seen["failed"] += bool(failures)

    survey()
    assert seen["failed"] >= 10 and seen["raised"] >= 10
