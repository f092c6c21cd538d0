"""``train`` and ``tune`` read a split table the way ``predict`` does.

A table whose header names every file-schema column (``prepare``'s
``train.csv``/``val.csv``) is ingested, turned into the model-feature
matrix and, with mode=residual, solved against the base correlation;
any other header is the derived schema (SI features and a target column).
Both readers must train the same model to the bit from the same
matrices: the derived files here are written from the in-memory
``ingest`` -> ``feature_matrix`` -> ``build_residual_dataset`` matrices
with ``repr``, which round-trips every float.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from chfkit import cli
from chfkit.data import CSV_HEADER, feature_matrix, ingest
from chfkit.hybrid import build_residual_dataset

from test_cli import _solvable_rows, write_dataset

_FEATURES = "diameter_m,heated_length_m,pressure_Pa,mass_flux_kg_m2s,inlet_subcooling_J_kg"
# inlet quality above 1 at 200 bar: Bowring finds no critical condition
_NO_CRITICAL_ROW = "8.0,2.0,20000,2000,,-1200,,3000"
_TRAIN = ("hidden=4", "epochs=3", "batch_size=4", "seed=5")


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _derived_twin(split_path, path, mode, base):
    """The derived-schema file of the split table's in-memory matrices."""
    table, _ = ingest(str(split_path), strict=False)
    x = feature_matrix(table)
    if mode == "direct":
        rows, header = np.column_stack([x, table.measured_chf]), f"{_FEATURES},target_W_m2"
    else:
        rows, _ = build_residual_dataset(x, table.measured_chf, base)
        header = f"{_FEATURES},base_chf_W_m2,measured_chf_W_m2,residual_W_m2"
    path.write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n"
                                            for row in rows.tolist()))
    return path


def _mode_args(mode, base):
    return ("mode=direct",) if mode == "direct" else ("mode=residual", f"base={base}")


def _train_both(tmp_path, train_split, val_split, mode, base):
    """(split-table run, derived-table run) output directories of one train."""
    outs = []
    for reader in ("split", "derived"):
        if reader == "split":
            train_csv, val_csv = train_split, val_split
        else:
            train_csv = _derived_twin(train_split, tmp_path / f"d_train_{mode}.csv", mode, base)
            val_csv = _derived_twin(val_split, tmp_path / f"d_val_{mode}.csv", mode, base)
        out = tmp_path / f"{reader}_{mode}"
        code, err = _run(["train", *_mode_args(mode, base), f"train_csv={train_csv}",
                          f"val_csv={val_csv}", *_TRAIN, f"outdir={out}"])
        assert code == 0, err
        outs.append(out)
    return outs


def _assert_same_fit(split_out, derived_out):
    for name in ("model.chfmlp", "loss_trace.csv"):
        assert (split_out / name).read_bytes() == (derived_out / name).read_bytes(), name
    split_counts, derived_counts = (json.loads((out / "manifest.json").read_text())["counts"]
                                    for out in (split_out, derived_out))
    for key in ("final_loss", "initial_loss", "val_mse_W2_m4", "constant_columns"):
        assert split_counts[key] == derived_counts[key], key


def test_split_and_derived_tables_train_the_same_model(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data, n=40, seed=13)
    prep = tmp_path / "prep"
    assert cli.main(["prepare", f"data={data}", "seed=3", f"outdir={prep}"]) == 0
    for mode in ("direct", "residual"):
        _assert_same_fit(*_train_both(tmp_path, prep / "train.csv", prep / "val.csv",
                                      mode, "bowring"))


def test_split_and_derived_tables_tune_the_same_winner(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data, n=30, seed=17)
    prep = tmp_path / "prep"
    assert cli.main(["prepare", f"data={data}", f"outdir={prep}"]) == 0
    derived = _derived_twin(prep / "train.csv", tmp_path / "d.csv", "residual", "biasi")
    winners = []
    for train_csv in (prep / "train.csv", derived):
        out = tmp_path / train_csv.stem
        code, err = _run(["tune", "mode=residual", "base=biasi", f"train_csv={train_csv}",
                          "budget_epochs=4", "n_configs=2", "rung0_epochs=1", "depths=1",
                          "width_min=2", "width_max=4", "batch_sizes=4", f"outdir={out}"])
        assert code == 0, err
        winners.append((out / "tune_winner.json").read_bytes())
    assert winners[0] == winners[1]


_ROW = st.tuples(st.floats(2.0, 16.0), st.floats(0.1, 6.0), st.floats(100.0, 20000.0),
                 st.floats(8.0, 7900.0), st.floats(-300.0, 1500.0), st.floats(60.0, 9000.0))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(_ROW, min_size=3, max_size=14), n_failing=st.integers(0, 3),
       mode=st.sampled_from(["direct", "residual"]), base=st.sampled_from(["biasi", "bowring"]),
       data=st.data())
def test_drawn_tables_train_the_same_model_through_either_reader(tmp_path, rows, n_failing,
                                                                 mode, base, data):
    lines = [",".join((repr(d), repr(length), repr(p), repr(g), "", repr(dh), "", repr(chf)))
             for d, length, p, g, dh, chf in rows]
    for _ in range(n_failing):  # rows the base HBM cannot solve, anywhere in the file
        lines.insert(data.draw(st.integers(0, len(lines))), _NO_CRITICAL_ROW)
    case = tmp_path / f"case{len(list(tmp_path.iterdir()))}"
    case.mkdir()
    split = case / "table.csv"
    split.write_text(CSV_HEADER + "\n" + "\n".join(lines) + "\n")
    table, _ = ingest(str(split), strict=False)
    assume(len(table) >= 2)
    _, rep = build_residual_dataset(feature_matrix(table), table.measured_chf, base)
    assume(mode == "direct" or len(table) - rep.n_failed >= 2)
    split_out, derived_out = _train_both(case, split, split, mode, base)
    _assert_same_fit(split_out, derived_out)
    if mode == "residual":  # the dropped rows by file line, train and val alike
        want = [(name, str(table.lines[i]))
                for name in ("train", "val") for i, _ in rep.failures]
        got = [tuple(line.split(",")[:2]) for line in
               (split_out / "hbm_failures.csv").read_text().splitlines()[1:]]
        assert got == want
        counts = json.loads((split_out / "manifest.json").read_text())["counts"]
        assert counts["hbm_failures"] == 2 * rep.n_failed


def test_residual_train_drops_and_reports_the_rows_the_base_cannot_solve(tmp_path):
    rows = _solvable_rows(12, seed=5)
    rows.insert(4, _NO_CRITICAL_ROW)
    train_csv = tmp_path / "train.csv"
    train_csv.write_text(CSV_HEADER + "\n\n" + "\n".join(rows) + "\n")  # a blank line 2
    clean = tmp_path / "clean.csv"
    clean.write_text(CSV_HEADER + "\n" + "\n".join(r for r in rows if r != _NO_CRITICAL_ROW)
                     + "\n")
    outs = []
    for path in (train_csv, clean):
        out = tmp_path / f"fit_{path.stem}"
        code, err = _run(["train", "mode=residual", "base=bowring", f"train_csv={path}",
                          *_TRAIN, f"outdir={out}"])
        assert (code, err) == (0, "")
        outs.append(out)
    fails = (outs[0] / "hbm_failures.csv").read_text().splitlines()
    assert fails[0] == "split,row,reason" and len(fails) == 2
    split, line, reason = fails[1].split(",")
    assert (split, line) == ("train", "7")  # header, blank line, then rows 0-3
    assert train_csv.read_text().splitlines()[6] == _NO_CRITICAL_ROW
    assert reason.startswith("correlation does not cross the heat-balance line")
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert manifest["counts"]["hbm_failures"] == 1
    assert manifest["counts"]["train"]["rows_read"] == 13
    assert sorted(manifest["outputs"]) == ["hbm_failures.csv", "loss_trace.csv",
                                           "model.chfmlp"]
    # the dropped row leaves the fit as training on the other rows alone
    assert (outs[0] / "model.chfmlp").read_bytes() == (outs[1] / "model.chfmlp").read_bytes()


def test_a_byte_order_mark_still_reads_as_a_split_table(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data, n=6, seed=2)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    for path in (data, bom):
        code, err = _run(["train", f"train_csv={path}", *_TRAIN,
                          f"outdir={tmp_path / path.stem}"])
        assert code == 0, err
    assert (tmp_path / "data" / "model.chfmlp").read_bytes() == \
        (tmp_path / "bom" / "model.chfmlp").read_bytes()
    assert "train" in json.loads((tmp_path / "bom" / "manifest.json").read_text())["counts"]


def test_too_few_rows_left_after_the_base_solve_is_an_error(tmp_path):
    train_csv = tmp_path / "train.csv"
    train_csv.write_text("\n".join([CSV_HEADER, _solvable_rows(1, seed=3)[0],
                                    _NO_CRITICAL_ROW]) + "\n")
    out = tmp_path / "fit"
    code, err = _run(["train", "mode=residual", "base=bowring", f"train_csv={train_csv}",
                      *_TRAIN, f"outdir={out}"])
    assert code == 1
    assert err == f"error: {train_csv}: need at least 2 training rows\n"
    assert not out.exists()
