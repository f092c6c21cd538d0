"""Property: ``write_columns`` writes the bytes of a per-row writer.

The column writer formats each column once per chunk of rows.  Whatever
the chunk size, the file must read as if each row were printed alone, a
list column's cells as given and a float column's values as their repr
(``nan`` for NaN).
"""

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit import data
from chfkit.data import write_columns

_CELLS = st.text(st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",)),
                 max_size=4)


@st.composite
def _case(draw):
    n = draw(st.integers(0, 50))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append(draw(st.lists(_CELLS, min_size=n, max_size=n)))
        else:
            columns.append(np.array(draw(st.lists(st.floats(width=64), min_size=n, max_size=n)),
                                    dtype=np.float64))
    return columns, draw(st.sampled_from(["", "nan"])), draw(st.integers(1, 7))


def _row_text(columns, header, rows, nan):
    """The file as a per-row writer prints it."""
    def cell(c, i):
        if isinstance(c, list):
            return c[i]
        return nan if np.isnan(c[i]) else repr(c[i].item())
    return header + "\n" + "".join(",".join(cell(c, i) for c in columns) + "\n" for i in rows)


@settings(max_examples=300)
@given(_case())
def test_column_writer_prints_each_row_as_the_per_row_writer(case):
    columns, nan, chunk_rows = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
        path = write_columns(os.path.join(tmp, "t.csv"), "h", columns, nan)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written.decode() == _row_text(columns, "h", range(len(columns[0])), nan)
