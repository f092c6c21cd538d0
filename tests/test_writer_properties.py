"""Property: one ``write_csvs`` call writes the bytes of one
``write_columns`` call per file.

The multi-file writer formats each column once per chunk of rows and
prints it into every file that names it, keeping a file's rows where its
mask is true.  Each file must read as if written alone from its own
columns, cut to its kept rows, whatever the chunk size; and
``write_columns`` must print each row as the repr of its values.
"""

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit import data
from chfkit.data import write_columns, write_csvs

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
    files = []
    for k in range(draw(st.integers(1, 4))):
        # few columns, many files: most columns are shared
        cols = draw(st.lists(st.integers(0, len(columns) - 1), min_size=1, max_size=5))
        keep = draw(st.sampled_from(["all", "none", "every", "some"]))
        if keep == "all":
            mask = None
        elif keep == "some":
            mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        else:
            mask = np.full(n, keep == "every")
        files.append((f"f{k}.csv", f"h{k}", cols, mask))
    return columns, files, draw(st.sampled_from(["", "nan"])), draw(st.integers(1, 7))


def _row_text(columns, header, rows, nan):
    """The file as a per-row writer prints it."""
    def cell(c, i):
        if isinstance(c, list):
            return c[i]
        return nan if np.isnan(c[i]) else repr(c[i].item())
    return header + "\n" + "".join(",".join(cell(c, i) for c in columns) + "\n" for i in rows)


@settings(max_examples=300)
@given(_case())
def test_multi_file_writer_equals_one_write_columns_per_file(case):
    columns, files, nan, chunk_rows = case
    n = len(columns[0])
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
        write_csvs(columns, [(os.path.join(tmp, path), header, cols, mask)
                             for path, header, cols, mask in files], nan)
        for path, header, cols, mask in files:
            rows = np.flatnonzero(mask) if mask is not None else np.arange(n)
            own = [[c[i] for i in rows.tolist()] if isinstance(c, list) else c[rows]
                   for c in (columns[j] for j in cols)]
            alone = os.path.join(tmp, "alone_" + path)
            write_columns(alone, header, own, nan)
            with open(os.path.join(tmp, path), "rb") as got, open(alone, "rb") as want:
                written = got.read()
                assert written == want.read()
            assert written.decode() == _row_text([columns[j] for j in cols], header,
                                                 rows.tolist(), nan)
