"""Byte identity of ``predict`` against a per-row formatter.

The oracle keeps the earlier path: one heat-balance solve and one
single-row network call per record, each outcome formatted into its
``predictions.csv`` line with ``repr``.  ``predict`` formats the columns
of one batch instead; for every predictor kind, on a table where some
heat-balance solves fail, every file it writes, the manifest included,
must keep its bytes.
"""

import json
import math
import os

import numpy as np
import pytest

from chfkit import cli, data
from chfkit.correlations import InletConditions, NoCriticalConditionError, solve_hbm
from chfkit.data import MODEL_FEATURES, TABLE1_ENVELOPE, feature_matrix, ingest
from chfkit.hybrid import PREDICTOR_KINDS
from chfkit.mlp import Scaler, forward, init_mlp, save_model

from test_prepare_bytes import _write_table

# ---------------------------------------------------------------------------
# Oracle: one outcome per row, formatted as it comes
# ---------------------------------------------------------------------------


def _per_row_cells(kind, model, features):
    """The predictions.csv cells of one row but its line and measured CHF."""
    if kind == "pure_ml":
        value = forward(model, features)
        cells = ("", "", "")
    else:
        try:
            sol = solve_hbm("biasi" if kind.endswith("biasi") else "bowring",
                            InletConditions(*features))
        except NoCriticalConditionError as e:
            return "", "", "", "", f"failed: {cli._csv_safe(e)}"
        r = 0.0 if kind.startswith("base_") else forward(model, features)
        value = sol.chf + r
        cells = (repr(sol.chf / 1e3), repr(r / 1e3), str(int(sol.quality_excursion)))
    if not 0.0 < value < math.inf:  # a CHF that is not positive and finite fails the row
        message = f"CHF prediction {value!r} W/m2 is not positive and finite"
        return "", "", "", "", f"failed: {cli._csv_safe(message)}"
    return (repr(value / 1e3), *cells, "ok")


def _per_row_predict(cfg):
    """``predict`` with the per-row formatter; the config keys are resolved
    in the same order, so the manifest echoes the same config."""
    outdir = cfg.outdir()
    data_path = cfg.path_in("data")
    strict = cfg.bool_("strict", "false")
    predictor = cli._load_predictor(cfg)
    model_paths = [] if predictor.model is None else [cfg.resolved["model"]]
    table, report = ingest(data_path, envelope=cfg.envelope(), strict=strict)
    path = os.path.join(outdir, "predictions.csv")
    statuses, excursions = [], []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,chf_pred_kW_m2,base_chf_kW_m2,ml_residual_kW_m2,"
                 "measured_chf_kW_m2,quality_excursion,status\n")
        for line, features, measured in zip(table.lines.tolist(),
                                            feature_matrix(table).tolist(),
                                            table.measured_chf.tolist()):
            pred, base, resid, excursion, status = _per_row_cells(
                predictor.kind, predictor.model, features)
            fh.write(f"{line},{pred},{base},{resid},{measured / 1e3!r},{excursion},{status}\n")
            statuses.append(status)
            excursions.append(excursion)
    cli._write_manifest(outdir, "predict", cfg.resolved, [data_path, *model_paths], [path],
                        {**cli._ingest_counts(report), "predicted": statuses.count("ok"),
                         "failed": len(statuses) - statuses.count("ok"),
                         "quality_excursions": excursions.count("1")})


# ---------------------------------------------------------------------------
# Models whose output varies from row to row
# ---------------------------------------------------------------------------

_ENVELOPE_SCALER = Scaler(
    mean=np.array([np.mean(TABLE1_ENVELOPE[k]) for k in MODEL_FEATURES]),
    std=np.array([np.ptp(TABLE1_ENVELOPE[k]) for k in MODEL_FEATURES]),
)


def _model_args(kind, tmp_path):
    if kind.startswith("base_"):
        return []
    if kind == "pure_ml":
        mode, base, out = "direct", "none", Scaler(np.array([3.0e6]), np.array([2.0e6]))
    else:
        mode, base, out = "residual", kind.split("_")[1], Scaler(np.array([0.0]),
                                                                 np.array([5.0e5]))
    path = tmp_path / f"{kind}.chfmlp"
    save_model(init_mlp(5, (6, 4), "tanh", seed=9, input_scaler=_ENVELOPE_SCALER,
                        output_scaler=out, mode=mode, base_model=base,
                        feature_names=MODEL_FEATURES), str(path))
    return [f"model={path}"]


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
def test_predict_writes_the_bytes_of_the_per_row_formatter(tmp_path, monkeypatch, kind):
    # seven-row chunks put many chunk boundaries in the file written
    monkeypatch.setattr(data, "_CHUNK_ROWS", 7)
    table_path = tmp_path / "table.csv"
    _write_table(table_path, 3)
    out = tmp_path / "pred"
    argv = [f"data={table_path}", f"kind={kind}", *_model_args(kind, tmp_path),
            f"outdir={out}"]
    _per_row_predict(cli._Config(dict(a.split("=", 1) for a in argv)))
    want = tmp_path / "want"
    out.rename(want)
    assert cli.main(["predict", *argv]) == 0

    # the table exercises failed rows and quality excursions alike
    counts = json.loads((want / "manifest.json").read_text())["counts"]
    if kind != "pure_ml":
        assert counts["failed"] > 0 and counts["quality_excursions"] > 0
    assert counts["predicted"] > 0

    names = sorted(os.listdir(want))
    assert names == sorted(os.listdir(out)) == ["manifest.json", "predictions.csv"]
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
