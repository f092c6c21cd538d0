"""Property: ``load_columns`` reads every table as a per-cell reader does.

The reader parses a table in one call of numpy's C text reader when it
can, and falls back to a per-cell pass (split a chunk of rows at once,
``float`` over each column, a blank-aware pass where that fails).  Either
way each table must read as the reference below reads it, one cell at a
time: the same values bit for bit, NaN where a cell is blank, the same
file line numbers, or the same ``IngestError`` message.
"""

import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit import data
from chfkit.data import IngestError, load_columns

_NAMES = "abcd"

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBERS = st.one_of(
    _FINITE.map(repr),
    _FINITE.map(lambda v: "%g" % v),
    _FINITE.map(lambda v: "%.3e" % v),
    _FINITE.filter(lambda v: v >= 0).map(lambda v: "+" + repr(v)),
    st.integers(0, 10**6).map(lambda k: f".{k}"),
    st.integers(0, 10**6).map(lambda k: f"-.{k}"),
)
# whitespace that both float() and numpy strip around a number
_PADDING = st.sampled_from(["", " ", "\t", "\xa0", "  \t"])
_CLEAN = st.tuples(_PADDING, _NUMBERS, _PADDING).map("".join)
_ODD = st.sampled_from([
    "", " ", "\t", "\xa0", "1_0", "١٢", "nan", "-inf", "inf", "NaN", "1e400",
    "-1e400", "#", "# 1", '"1"', "'1'", "0x10", "1\r2", "1\r", "\r", "\x1c1", "1\x1f",
    "\x1c", "1 2", "1,",
])
# numpy strips these ASCII separators around a number; float() does not
_SEPARATED = st.tuples(st.sampled_from("\x1c\x1d\x1e\x1f"), _CLEAN).map("".join)


@st.composite
def _table(draw):
    """A table's text, the columns to read and the chunk size."""
    width = draw(st.integers(1, 4))
    # only numbers (the one-call path can take it), one odd cell among
    # numbers (that cell alone decides the path), or odd cells anywhere
    mode = draw(st.sampled_from(["clean", "one odd", "mixed"]))
    cells = st.one_of(_CLEAN, _ODD) if mode == "mixed" else _CLEAN
    lines = [",".join(_NAMES[:width])]
    rows = []
    for _ in range(draw(st.integers(0, 60))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        else:
            rows.append(draw(st.lists(cells, min_size=width, max_size=width)))
            lines.append(rows[-1])
    if mode == "one odd" and rows:
        odd = draw(st.one_of(_ODD, _SEPARATED))
        draw(st.sampled_from(rows))[draw(st.integers(0, width - 1))] = odd
    lines = [line if isinstance(line, str) else ",".join(line) for line in lines]
    if draw(st.booleans()):
        lines.insert(0, "")
    columns = draw(st.lists(st.sampled_from(_NAMES[:width]), min_size=1, max_size=4))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + text, columns, draw(st.integers(1, 7))


def _reference(path, text, columns):
    """The table as read one cell at a time: (values, line numbers)."""
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    numbered = [i for i, line in enumerate(lines) if line.strip()]
    if not numbered:
        raise IngestError(f"{path}: empty file")
    header = [h.strip() for h in lines[numbered[0]].split(",")]
    missing = [c for c in columns if c not in header]
    if missing:
        raise IngestError(f"{path}: missing column(s) {missing}")
    values = []
    for i in numbered[1:]:
        cells = lines[i].split(",")
        if len(cells) != len(header):
            raise IngestError(f"{path} line {i + 1}: expected {len(header)} fields, "
                              f"got {len(cells)}")
        row = []
        for c in columns:
            cell = cells[header.index(c)]
            try:
                v = float(cell) if cell.strip() else math.nan
            except ValueError:
                v = None
            if v is None or (cell.strip() and not math.isfinite(v)):
                raise IngestError(f"{path} line {i + 1}: unparseable numeric "
                                  f"{cell.strip()!r} in column {c!r}")
            row.append(v)
        values.append(row)
    return (np.array(values, dtype=np.float64).reshape(-1, len(columns)).T,
            np.array(numbered[1:], dtype=np.int64) + 1)


def _read(path, text, columns):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        return load_columns(path, columns)
    except IngestError as e:
        return str(e)


@settings(max_examples=400)
@given(_table())
def test_reader_matches_per_cell_reference(case):
    text, columns, chunk_rows = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
        path = os.path.join(tmp, "t.csv")
        got = _read(path, text, columns)
        try:
            want = _reference(path, text, columns)
        except IngestError as e:
            assert got == str(e)
            return
    assert not isinstance(got, str), got
    (values, lines), (ref, ref_lines) = got, want
    assert values.dtype == np.float64 and values.shape == ref.shape
    assert lines.dtype == np.int64 and lines.tolist() == ref_lines.tolist()
    blank = np.isnan(ref)
    assert np.array_equal(np.isnan(values), blank)
    assert values[~blank].view(np.int64).tolist() == ref[~blank].view(np.int64).tolist()


def test_blank_free_table_takes_the_one_call_path(tmp_path, monkeypatch):
    # the per-cell pass would call _parse_cells; a table without a blank
    # cell must load without it, blank lines and padding included
    def per_cell(cells):
        raise AssertionError("per-cell pass used")

    monkeypatch.setattr(data, "_parse_cells", per_cell)
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1, 2.5e3 ,-.5\n\n \t\n+4,\t5\xa0,6\n")
    values, lines = load_columns(str(path), ("c", "a"))
    assert values.tolist() == [[-0.5, 6.0], [1.0, 4.0]] and lines.tolist() == [2, 5]
    assert values.flags.c_contiguous
    path.write_text("a,b\n1,\n")
    with pytest.raises(AssertionError, match="per-cell pass used"):
        load_columns(str(path), ("a", "b"))


def test_header_only_table_loads_without_warning(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, lines = load_columns(str(path), ("b",))
    assert values.shape == (1, 0) and lines.shape == (0,)
