"""End-to-end tests for the command-line surface.

Every test drives ``chfkit.cli.main`` in-process with a throwaway
working directory, the way an operator would call the console script.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import chfkit
from chfkit import data as chfdata
from chfkit.cli import HULL_FEATURES_DEFAULT, ConfigError, main, parse_config_text
from chfkit.correlations import InletConditions, bowring_inlet, heat_balance_quality
from chfkit.data import ingest
from chfkit.hybrid import build_residual_dataset


def _solvable_rows(n, seed):
    """Rows (file units) whose derived exit quality stays in envelope."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n:
        d = rng.uniform(8.0, 13.0)
        length = rng.uniform(2.0, 6.0)
        p = rng.uniform(3000.0, 12000.0)
        g = rng.uniform(500.0, 3000.0)
        dh = rng.uniform(50.0, 400.0)
        c = InletConditions(diameter=d * 1e-3, heated_length=length,
                            pressure=p * 1e3, mass_flux=g,
                            inlet_subcooling=dh * 1e3)
        chf = 1.1 * bowring_inlet(c)
        if not 50e3 <= chf <= 16339e3:
            continue
        if not -0.5 < heat_balance_quality(chf, c) <= 0.98:
            continue
        rows.append(f"{d:.3f},{length:.3f},{p:.2f},{g:.2f},,{dh:.2f},,{chf / 1e3:.3f}")
    return rows


def write_dataset(path, n=14, seed=9):
    path.write_text(
        "D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C,chf_kW_m2\n"
        + "\n".join(_solvable_rows(n, seed)) + "\n"
    )


def _manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_parse_config_text():
    cfg = parse_config_text(
        "# a comment\n"
        "data = input.csv\n"
        "\n"
        "hidden=4,8    # trailing comment\n"
        "lr0=1e-3\n"
    )
    assert cfg == {"data": "input.csv", "hidden": "4,8", "lr0": "1e-3"}


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        parse_config_text("seed=1\nseed=2\n")


def test_unknown_config_key_fails(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_dataset(data, n=12, seed=3)
    out = tmp_path / "out"
    assert main(["prepare", f"data={data}", f"outdir={out}", "bogus_key=1"]) == 1
    assert capsys.readouterr().err == \
        "error: config key(s) not read by this prepare run: bogus_key\n"
    assert not out.exists()


def test_inline_override_beats_config_file(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data, n=12, seed=3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data={data}\nseed=1\noutdir={tmp_path / 'out'}\n")
    assert main(["prepare", "--config", str(cfg), "seed=4"]) == 0
    assert _manifest(tmp_path / "out")["config"]["seed"] == "4"


def test_bad_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def test_prepare_splits_ten_rows(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data, n=10, seed=11)
    out = tmp_path / "out"
    assert main(["prepare", f"data={data}", f"outdir={out}", "seed=0"]) == 0
    sizes = _manifest(out)["counts"]["split_sizes"]
    assert sizes == {"train": 8, "val": 1, "test": 1}
    assert "scaler.csv" not in _manifest(out)["outputs"]
    for name, n in (("train", 8), ("val", 1), ("test", 1)):
        _, rows = _read_csv(out / f"{name}.csv")
        assert len(rows) == n


def test_prepare_residual_columns_exact(tmp_path):
    # the residual table train builds from a prepared split table
    data = tmp_path / "data.csv"
    write_dataset(data, n=12, seed=5)
    out = tmp_path / "out"
    assert main(["prepare", f"data={data}", f"outdir={out}", "base=bowring"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "hbm_failures.csv", "manifest.json", "test.csv", "train.csv", "val.csv"]
    table, _ = ingest(str(out / "train.csv"), strict=False)
    rows, _ = build_residual_dataset(chfdata.feature_matrix(table), table.measured_chf,
                                     "bowring")
    assert len(rows), "residual table should not be empty"
    for base, meas, res in rows[:, 5:].tolist():
        assert res == meas - base  # exact float identity


def test_prepare_rerun_is_byte_identical(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data, n=12, seed=7)
    out = tmp_path / "out"
    args = ["prepare", f"data={data}", f"outdir={out}", "base=biasi", "seed=2"]
    assert main(args) == 0
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == 0
    for p in out.iterdir():
        assert p.read_bytes() == snapshot[p.name], p.name


@pytest.mark.parametrize("base", ["bowring", "none"])
def test_prepare_formats_each_distinct_column_once_per_chunk(tmp_path, monkeypatch, base):
    # a split writes one table of eight columns, with or without a base
    per_chunk = 8
    data = tmp_path / "data.csv"
    write_dataset(data, n=40, seed=3)
    monkeypatch.setattr(chfdata, "_CHUNK_ROWS", 3)
    formatted = []
    real = chfdata._repr_column
    monkeypatch.setattr(chfdata, "_repr_column",
                        lambda values, nan: formatted.append(len(values)) or real(values, nan))
    out = tmp_path / "out"
    assert main(["prepare", f"data={data}", f"outdir={out}", f"base={base}"]) == 0
    sizes = _manifest(out)["counts"]["split_sizes"].values()
    assert len(formatted) == per_chunk * sum(-(-n // 3) for n in sizes)
    assert sum(formatted) == per_chunk * sum(sizes)


def test_manifests_count_derived_fields(tmp_path):
    data = tmp_path / "data.csv"
    # 12 rows that derive T_in and x_e from dh_sub, one that derives dh_sub
    # from T_in, one rejected row
    data.write_text("\n".join([_HEADER, *_solvable_rows(12, seed=5),
                               "10.0,2.0,7000,1500,0.1,,250.0,1200",
                               "10.0,2.0,7000,1500,,,,1200"]) + "\n")
    want = {"exit_quality": 12, "inlet_subcooling": 1, "inlet_temperature": 12}
    prep, pred = tmp_path / "prep", tmp_path / "pred"
    assert main(["prepare", f"data={data}", f"outdir={prep}"]) == 0
    assert main(["predict", f"data={data}", "kind=base_bowring", f"outdir={pred}"]) == 0
    for out in (prep, pred):
        assert _manifest(out)["counts"]["derived"] == want
        assert "np.float64(" not in (out / "manifest.json").read_text()


def test_prepare_strict_flag_controls_envelope(tmp_path):
    data = tmp_path / "data.csv"
    rows = _solvable_rows(11, seed=13)
    # diameter below the 2 mm envelope floor
    rows.append("1.0,3.0,7000,1500,,150,,1000")
    data.write_text(
        "D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C,chf_kW_m2\n"
        + "\n".join(rows) + "\n"
    )
    out1 = tmp_path / "strict"
    assert main(["prepare", f"data={data}", f"outdir={out1}"]) == 0
    m1 = _manifest(out1)["counts"]
    assert m1["rows_rejected"] == 1 and m1["rows_flagged"] == 0

    out2 = tmp_path / "lax"
    assert main(["prepare", f"data={data}", f"outdir={out2}", "strict=false"]) == 0
    m2 = _manifest(out2)["counts"]
    assert m2["rows_rejected"] == 0 and m2["rows_flagged"] == 1


def test_prepare_envelope_override(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data, n=12, seed=5)
    out = tmp_path / "out"
    # a pressure window no row satisfies rejects everything
    assert main(["prepare", f"data={data}", f"outdir={out}",
                 "envelope_P_kPa=19000,20000"]) == 1


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _prepared(tmp_path, n=14, seed=9, base="bowring"):
    data = tmp_path / "data.csv"
    write_dataset(data, n=n, seed=seed)
    out = tmp_path / "prep"
    assert main(["prepare", f"data={data}", f"outdir={out}", f"base={base}"]) == 0
    return out


def test_train_reduces_loss_and_saves_model(tmp_path):
    prep = _prepared(tmp_path)
    out = tmp_path / "train"
    assert main(["train", f"train_csv={prep / 'train.csv'}",
                 f"outdir={out}", "hidden=6", "epochs=40", "batch_size=4",
                 "lr0=0.01", "seed=1"]) == 0
    counts = _manifest(out)["counts"]
    assert float(counts["final_loss"]) < float(counts["initial_loss"])
    from chfkit.mlp import load_model
    model = load_model(str(out / "model.chfmlp"))
    assert model.mode == "direct" and model.n_inputs == 5
    header, rows = _read_csv(out / "loss_trace.csv")
    assert header == ["epoch", "loss"] and len(rows) == 40


def test_train_residual_base_none_is_config_error(tmp_path, capsys):
    prep = _prepared(tmp_path)
    assert main(["train", f"train_csv={prep / 'train.csv'}",
                 f"outdir={tmp_path / 'x'}", "mode=residual"]) == 1
    assert "mode=residual requires base" in capsys.readouterr().err


def test_train_same_seed_same_model_bytes(tmp_path):
    prep = _prepared(tmp_path)
    args = lambda out: ["train", f"train_csv={prep / 'train.csv'}",
                        "mode=residual", "base=bowring", f"outdir={out}",
                        "hidden=5", "epochs=15", "batch_size=4", "seed=3"]
    assert main(args(tmp_path / "t1")) == 0
    assert main(args(tmp_path / "t2")) == 0
    b1 = (tmp_path / "t1" / "model.chfmlp").read_bytes()
    b2 = (tmp_path / "t2" / "model.chfmlp").read_bytes()
    assert b1 == b2


def test_train_divergence_exits_nonzero(tmp_path, capsys):
    prep = _prepared(tmp_path)
    with np.errstate(all="ignore"):
        code = main(["train", f"train_csv={prep / 'train.csv'}",
                     f"outdir={tmp_path / 'x'}", "hidden=1,1,1",
                     "activation=identity", "epochs=3", "batch_size=2",
                     "lr0=1e40"])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err


def test_train_reports_validation_mse(tmp_path):
    prep = _prepared(tmp_path)
    out = tmp_path / "train"
    assert main(["train", f"train_csv={prep / 'train.csv'}",
                 f"val_csv={prep / 'val.csv'}", f"outdir={out}",
                 "hidden=4", "epochs=10", "batch_size=4"]) == 0
    assert float(_manifest(out)["counts"]["val_mse_W2_m4"]) >= 0.0


@pytest.mark.parametrize("val_text,message", [
    (None, "config key 'val_csv': no such file"),
    ("diameter_m,heated_length_m\n0.01,1.0\n", "target_W_m2"),
], ids=["missing", "no_target_column"])
def test_train_bad_validation_table_is_error_before_training(tmp_path, capsys, val_text,
                                                             message):
    prep = _prepared(tmp_path)
    val = tmp_path / "val.csv"
    if val_text is not None:
        val.write_text(val_text)
    out = tmp_path / "train"
    assert main(["train", f"train_csv={prep / 'train.csv'}", f"val_csv={val}",
                 f"outdir={out}", "hidden=4", "epochs=3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (out / "model.chfmlp").exists() and not (out / "loss_trace.csv").exists()


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_base_kind_without_model(tmp_path):
    prep = _prepared(tmp_path)
    out = tmp_path / "pred"
    assert main(["predict", f"data={prep / 'test.csv'}", "kind=base_bowring",
                 f"outdir={out}"]) == 0
    header, rows = _read_csv(out / "predictions.csv")
    assert header == ["row", "chf_pred_kW_m2", "base_chf_kW_m2",
                      "ml_residual_kW_m2", "measured_chf_kW_m2",
                      "quality_excursion", "status"]
    for row in rows:
        assert row[-1] == "ok"
        assert row[-2] == "0"
        assert float(row[1]) == float(row[2])  # base kind: pred == base
        assert float(row[3]) == 0.0


def _save_const_residual_model(path, residual_w_m2, mode="residual", base_model="bowring"):
    from chfkit.mlp import DenseLayer, Mlp, Scaler, save_model
    net = Mlp(
        layers=[DenseLayer(np.zeros((1, 5)), np.array([residual_w_m2]), "identity")],
        input_scaler=Scaler.identity(5), output_scaler=Scaler.identity(1),
        mode=mode, base_model=base_model,
        feature_names=("diameter", "heated_length", "pressure", "mass_flux",
                       "inlet_subcooling"),
    )
    save_model(net, str(path))


def test_predict_hybrid_decomposition_sums(tmp_path):
    prep = _prepared(tmp_path)
    model = tmp_path / "const.chfmlp"
    _save_const_residual_model(model, 50_000.0)
    out = tmp_path / "pred"
    assert main(["predict", f"data={prep / 'train.csv'}", "kind=hybrid_bowring",
                 f"model={model}", f"outdir={out}"]) == 0
    _, rows = _read_csv(out / "predictions.csv")
    assert rows
    for row in rows:
        pred, base, resid = float(row[1]), float(row[2]), float(row[3])
        assert resid == pytest.approx(50.0, rel=1e-12)
        assert pred == pytest.approx(base + resid, rel=1e-12)


def test_predict_with_non_finite_model_is_error(tmp_path, capsys):
    # one NaN weight would make every prediction NaN with status ok
    prep = _prepared(tmp_path)
    model = tmp_path / "const.chfmlp"
    _save_const_residual_model(model, 1.0)
    blob = model.read_bytes()
    model.write_bytes(blob[:-8] + np.array([np.nan], dtype="<f8").tobytes())  # the bias
    out = tmp_path / "pred"
    assert main(["predict", f"data={prep / 'test.csv'}", "kind=hybrid_bowring",
                 f"model={model}", f"outdir={out}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err
    assert not (out / "predictions.csv").exists()


def test_predict_overflowing_model_rows_are_failed(tmp_path):
    # finite parameters whose forward pass overflows on the rows above the
    # median pressure: relu(1e308 * (p - p_mid)) is inf there, 0 elsewhere
    from chfkit.data import feature_matrix
    from chfkit.mlp import DenseLayer, Mlp, Scaler, save_model

    data = tmp_path / "data.csv"
    write_dataset(data, n=6, seed=13)
    pressure = feature_matrix(ingest(str(data))[0])[:, 2]
    p_mid = float(np.median(pressure))
    model = tmp_path / "overflow.chfmlp"
    save_model(Mlp(layers=[DenseLayer(np.array([[0.0, 0.0, 1e308, 0.0, 0.0]]), np.zeros(1),
                                      "relu"),
                           DenseLayer(np.ones((1, 1)), np.array([1000.0]), "identity")],
                   input_scaler=Scaler(np.array([0.0, 0.0, p_mid, 0.0, 0.0]), np.ones(5)),
                   output_scaler=Scaler.identity(1), mode="direct", base_model="none"),
               str(model))
    out = tmp_path / "pred"
    assert main(["predict", f"data={data}", "kind=pure_ml", f"model={model}",
                 f"outdir={out}"]) == 0
    _, rows = _read_csv(out / "predictions.csv")
    over = (pressure > p_mid).tolist()
    assert 0 < sum(over) < len(over)
    assert [r[1] for r in rows] == ["" if o else "1.0" for o in over]
    assert [r[-1] for r in rows] == ["failed: non-finite network output (inf)" if o else "ok"
                                     for o in over]
    counts = _manifest(out)["counts"]
    assert (counts["predicted"], counts["failed"]) == (len(over) - sum(over), sum(over))


def test_predict_kind_model_mismatch(tmp_path, capsys):
    prep = _prepared(tmp_path)
    model = tmp_path / "const.chfmlp"
    _save_const_residual_model(model, 1.0)
    assert main(["predict", f"data={prep / 'test.csv'}", "kind=pure_ml",
                 f"model={model}", f"outdir={tmp_path / 'x'}"]) == 1
    assert "mismatch" in capsys.readouterr().err


def test_predict_rows_carry_file_line_numbers(tmp_path):
    data = tmp_path / "data.csv"
    rows = _solvable_rows(4, seed=21)
    # line 4 is underdetermined (no quality, no subcooling, no temperature)
    rows.insert(2, "10.0,3.0,7000,1500,0.2,,,1000")
    data.write_text(
        "D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C,chf_kW_m2\n"
        + "\n".join(rows) + "\n"
    )
    out = tmp_path / "pred"
    assert main(["predict", f"data={data}", "kind=base_biasi",
                 f"outdir={out}"]) == 0
    _, out_rows = _read_csv(out / "predictions.csv")
    assert [r[0] for r in out_rows] == ["2", "3", "5", "6"]


def test_predict_rows_count_blank_lines(tmp_path):
    rows = _solvable_rows(3, seed=21)
    data = tmp_path / "data.csv"
    # line 3 blank, line 5 underdetermined, good rows on lines 2, 4 and 6
    data.write_text("\n".join([
        "D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C,chf_kW_m2",
        rows[0], "", rows[1], "10.0,3.0,7000,1500,0.2,,,1000", rows[2],
    ]) + "\n")
    out = tmp_path / "pred"
    assert main(["predict", f"data={data}", "kind=base_biasi",
                 f"outdir={out}"]) == 0
    _, out_rows = _read_csv(out / "predictions.csv")
    assert [r[0] for r in out_rows] == ["2", "4", "6"]
    assert _manifest(out)["counts"]["rows_rejected"] == 1


_HEADER = "D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C,chf_kW_m2"


def _clean_and_mixed(tmp_path, rows, bad_row):
    """Two tables of ``rows``, the second with ``bad_row`` appended."""
    clean, mixed = tmp_path / "clean.csv", tmp_path / "mixed.csv"
    clean.write_text("\n".join([_HEADER, *rows]) + "\n")
    mixed.write_text("\n".join([_HEADER, *rows, bad_row]) + "\n")
    return clean, mixed


# Bowring's C factor raises G / 1356 to a power that overflows a float here
_HUGE_G_ROW = "10.0,2.0,7000,1e300,,150,,1500"


def test_predict_overflowing_mass_flux_fails_its_row_alone(tmp_path, capsys):
    for path in _clean_and_mixed(tmp_path, _solvable_rows(60, seed=4), _HUGE_G_ROW):
        assert main(["predict", f"data={path}", "kind=base_bowring",
                     f"outdir={tmp_path / path.stem}"]) == 0
    assert capsys.readouterr().err == ""
    want = (tmp_path / "clean" / "predictions.csv").read_text().splitlines()
    got = (tmp_path / "mixed" / "predictions.csv").read_text().splitlines()
    assert got[:-1] == want
    assert got[-1].split(",")[-1].startswith("failed: non-finite residual;")
    assert _manifest(tmp_path / "mixed")["counts"]["failed"] == 1


def test_prepare_overflowing_mass_flux_fails_its_row_alone(tmp_path, capsys):
    for path in _clean_and_mixed(tmp_path, _solvable_rows(60, seed=4), _HUGE_G_ROW):
        assert main(["prepare", f"data={path}", "base=bowring", "strict=false",
                     f"outdir={tmp_path / path.stem}"]) == 0
    assert capsys.readouterr().err == ""

    def split_rows(out):  # the split differs with the row count; the rows do not
        return sorted(line for name in ("train", "val", "test")
                      for line in (out / f"{name}.csv").read_text().splitlines()[1:])

    # the failed row stays in its split table (train drops it), the rest keep their bytes
    mixed, clean = split_rows(tmp_path / "mixed"), split_rows(tmp_path / "clean")
    huge = [line for line in mixed if line not in clean]
    assert len(huge) == 1 and sorted([*clean, *huge]) == mixed
    _, failures = _read_csv(tmp_path / "mixed" / "hbm_failures.csv")
    assert len(failures) == 1 and failures[0][2].startswith("non-finite residual;")
    split_name, line = failures[0][:2]
    assert (tmp_path / "mixed" / f"{split_name}.csv").read_text().splitlines()[
        int(line) - 1] == huge[0]
    assert _read_csv(tmp_path / "clean" / "hbm_failures.csv")[1] == []


def test_predict_reports_quality_excursion(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("\n".join([
        _HEADER,
        _solvable_rows(1, seed=21)[0],
        # two-phase inlet at 190 bar: Biasi meets the heat balance at x_cr 1.395
        "10.0,3.0,19000,3000,,-900,,3000",
        # two-phase inlet at 1 bar: Biasi never meets the heat balance
        "10.0,3.0,100,1000,,-1000,,3000",
    ]) + "\n")
    out = tmp_path / "pred"
    assert main(["predict", f"data={data}", "kind=base_biasi", f"outdir={out}"]) == 0
    header, rows = _read_csv(out / "predictions.csv")
    col = header.index("quality_excursion")
    assert [r[col] for r in rows] == ["0", "1", ""]
    assert [r[-1][:7] for r in rows] == ["ok", "ok", "failed:"]
    assert _manifest(out)["counts"]["quality_excursions"] == 1

    model = tmp_path / "direct.chfmlp"
    _save_const_residual_model(model, 2.0e6, mode="direct", base_model="none")
    out = tmp_path / "pure"
    assert main(["predict", f"data={data}", "kind=pure_ml", f"model={model}",
                 f"outdir={out}"]) == 0
    header, rows = _read_csv(out / "predictions.csv")
    assert [r[header.index("quality_excursion")] for r in rows] == ["", "", ""]
    assert _manifest(out)["counts"]["quality_excursions"] == 0


def test_predict_constructs_no_inlet_conditions(tmp_path, monkeypatch):
    # the accepted rows go to the predictor as one feature matrix
    data = tmp_path / "data.csv"
    write_dataset(data, n=300, seed=41)
    built = []
    post_init = InletConditions.__post_init__
    monkeypatch.setattr(InletConditions, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    assert main(["predict", f"data={data}", "kind=base_bowring",
                 f"outdir={tmp_path / 'pred'}"]) == 0
    assert _manifest(tmp_path / "pred")["counts"]["predicted"] == 300
    assert built == []


def test_predict_rejects_invalid_inlet_conditions(tmp_path):
    data = tmp_path / "data.csv"
    # x_e is given, so no derivation needs the pressure; ingest still checks it
    data.write_text("\n".join([
        _HEADER, "10.0,3.0,25000,3000,0.5,-900,,3000", _solvable_rows(1, seed=21)[0],
    ]) + "\n")
    out = tmp_path / "pred"
    assert main(["predict", f"data={data}", "kind=base_bowring", f"outdir={out}"]) == 0
    _, rows = _read_csv(out / "predictions.csv")
    assert [(r[0], r[-1]) for r in rows] == [("3", "ok")]
    counts = _manifest(out)["counts"]
    assert counts["rows_rejected"] == 1 and counts["failed"] == 0


@pytest.mark.parametrize("bad_row,reason", [
    ("10.0,3.0,25000,3000,0.5,-900,,3000", "pressure 25000000.0 Pa outside saturation range"),
    ("0.0,3.0,7000,3000,0.5,-900,,3000", "diameter must be positive, got 0.0"),
    ("10.0,-3.0,7000,3000,0.5,-900,,3000", "heated_length must be positive, got -3.0"),
    ("10.0,3.0,7000,0,0.5,-900,,3000", "mass_flux must be positive, got 0.0"),
])
def test_prepare_rejects_invalid_inlet_conditions_with_x_e_given(tmp_path, bad_row, reason):
    data = tmp_path / "data.csv"
    data.write_text("\n".join([_HEADER, *_solvable_rows(12, seed=5), bad_row]) + "\n")
    out = tmp_path / "prep"
    assert main(["prepare", f"data={data}", f"outdir={out}", "base=bowring",
                 "strict=false"]) == 0
    assert _manifest(out)["counts"]["rows_rejected"] == 1
    _, report = ingest(str(data), strict=False)
    ((line_no, why),) = report.rejected
    assert line_no == 14 and why.startswith(reason)


def test_hbm_failure_row_is_line_of_split_file(tmp_path):
    data = tmp_path / "data.csv"
    rows = _solvable_rows(12, seed=5)
    # inlet quality above 1 at 200 bar: Bowring finds no critical condition
    rows.insert(5, "8.0,2.0,20000,2000,,-1200,,3000")
    data.write_text(_HEADER + "\n" + "\n".join(rows) + "\n")
    out = tmp_path / "prep"
    assert main(["prepare", f"data={data}", f"outdir={out}", "base=bowring",
                 "strict=false"]) == 0
    _, fails = _read_csv(out / "hbm_failures.csv")
    ((split, line_no, _reason),) = fails
    lines = (out / f"{split}.csv").read_text().split("\n")
    assert lines[int(line_no) - 1].split(",")[:4] == ["8.0", "2.0", "20000.0", "2000.0"]


@pytest.mark.parametrize("command,overrides,key", [
    ("prepare", (), "data"),
    ("train", ("epochs=0",), "epochs"),
    ("train", ("batch_size=0",), "batch_size"),
    ("train", ("lr0=-1",), "lr0"),
    ("train", ("decay=2",), "decay"),
    ("train", ("hidden=0",), "hidden"),
    ("simulate", ("bracket_lo_kW_m2=0", "bracket_hi_kW_m2=100"), "bracket_lo_kW_m2"),
    ("simulate", ("bracket_lo_kW_m2=5000", "bracket_hi_kW_m2=100"), "bracket_hi_kW_m2"),
    ("tune", ("width_min=0", "width_max=0", "depths=2"), "width_min"),
    ("tune", ("width_min=5", "width_max=3"), "width_max"),
    ("tune", ("lr_min=0",), "lr_min"),
    ("tune", ("rung0_epochs=0",), "rung0_epochs"),
    ("tune", ("batch_sizes=0",), "batch_sizes"),
    ("tune", ("depths=-1",), "depths"),
    ("tune", ("n_configs=0",), "n_configs"),
    ("tune", ("decay=2",), "decay"),
    ("tune", ("rung0_epochs=100001", "budget_epochs=100001"), "rung0_epochs"),
])
def test_config_mistake_is_error_naming_key(tmp_path, capsys, command, overrides, key):
    if command == "prepare":
        data = tmp_path / "data.csv"
        write_dataset(data, n=3)
        argv = ["prepare", f"data={data}"]
    elif command == "train":
        argv = ["train", f"train_csv={_prepared(tmp_path) / 'train.csv'}",
                "hidden=4", "epochs=2"]  # a later override wins
    elif command == "tune":
        argv = ["tune", f"train_csv={_prepared(tmp_path) / 'train.csv'}",
                "budget_epochs=4", "n_configs=1", "rung0_epochs=2", "depths=1",
                "width_min=2", "width_max=3", "batch_sizes=4"]
    else:
        cases = _case_file(tmp_path, ["12.62,5.56,6895,1000,100,500,20"])
        argv = ["simulate", f"cases={cases}", "kind=base_bowring", "critical_power=true"]
    assert main([*argv, *overrides, f"outdir={tmp_path / 'out'}"]) == 1
    assert f"error: config key {key!r}: must be" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _case_file(tmp_path, lines):
    path = tmp_path / "cases.csv"
    path.write_text(
        "D_mm,L_m,P_kPa,G_kg_m2s,dh_sub_kJ_kg,q_wall_kW_m2,n_axial\n"
        + "\n".join(lines) + "\n"
    )
    return path


def test_simulate_profiles_and_default_nodes(tmp_path):
    cases = _case_file(tmp_path, [
        "12.62,5.56,6895,1000,100,500,60",
        "10.0,3.0,7000,1500,150,800,",  # blank -> 60 nodes
    ])
    out = tmp_path / "sim"
    assert main(["simulate", f"cases={cases}", "kind=base_bowring",
                 f"outdir={out}"]) == 0
    header, all_rows = _read_csv(out / "profiles.csv")
    assert header == ["case", "z_m", "enthalpy_J_kg", "quality", "dnbr",
                      "chf_kW_m2", "flagged"]
    assert [r[0] for r in all_rows] == ["0"] * 60 + ["1"] * 60
    for i in range(2):
        rows = [r[1:] for r in all_rows if r[0] == str(i)]
        assert len(rows) == 60
        assert float(rows[-1][0]) == pytest.approx(
            5.56 if i == 0 else 3.0, rel=1e-12)
    _, srows = _read_csv(out / "summary.csv")
    assert [r[-1] for r in srows] == ["ok", "ok"]
    assert all(float(r[1]) > 0.0 for r in srows)


def test_simulate_bad_case_logged_exit_zero(tmp_path):
    cases = _case_file(tmp_path, [
        "12.62,5.56,6895,1000,100,500,60",
        "-1.0,3.0,7000,1500,150,800,40",
    ])
    out = tmp_path / "sim"
    assert main(["simulate", f"cases={cases}", "kind=base_bowring",
                 f"outdir={out}"]) == 0
    _, srows = _read_csv(out / "summary.csv")
    assert srows[0][-1] == "ok"
    assert srows[1][-1].startswith("failed:")
    assert _manifest(out)["counts"]["failed"] == 1
    assert {r[0] for r in _read_csv(out / "profiles.csv")[1]} == {"0"}


def test_simulate_fractional_n_axial_is_failed_row(tmp_path):
    cases = _case_file(tmp_path, [
        "12.62,5.56,6895,1000,100,500,60.9",
        "12.62,5.56,6895,1000,100,500,40.0",
    ])
    out = tmp_path / "sim"
    assert main(["simulate", f"cases={cases}", "kind=base_bowring",
                 f"outdir={out}"]) == 0
    _, srows = _read_csv(out / "summary.csv")
    assert srows[0][-1].startswith("failed:") and "n_axial" in srows[0][-1]
    assert srows[1][-1] == "ok"
    assert [r[0] for r in _read_csv(out / "profiles.csv")[1]] == ["1"] * 40


def test_simulate_overflowing_flux_is_failed_row(tmp_path, capsys):
    cases = _case_file(tmp_path, [
        "12.62,5.56,6895,1000,100,1e306,20",  # inf W/m2 after the x1e3
        "1.0,5.0,6895,1,100,1e304,20",        # finite, but 4 q L / (G D) overflows
        "12.62,5.56,6895,1000,100,500,20",
        "12.62,5.56,6895,1000,100,1e-320,20", # subnormal: node CHF / q overflows
    ])
    out = tmp_path / "sim"
    assert main(["simulate", f"cases={cases}", "kind=base_bowring",
                 f"outdir={out}"]) == 0
    _, srows = _read_csv(out / "summary.csv")
    assert [r[-1] for r in srows] == [
        "failed: wall_heat_flux must be >= 0 and finite; got inf",
        "failed: enthalpy march overflows: exit quality inf", "ok",
        f"failed: DNBR overflows: node CHF / wall flux {1e-320 * 1e3!r} W/m2"]
    assert _manifest(out)["counts"] == {"failed": 3}
    assert {r[0] for r in _read_csv(out / "profiles.csv")[1]} == {"2"}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("cell", ["inf", "nan"])
def test_simulate_nonfinite_cell_is_error_naming_line(tmp_path, capsys, cell):
    cases = _case_file(tmp_path, ["12.62,5.56,6895,1000,100,500,60",
                                  f"12.62,5.56,6895,1000,100,500,{cell}"])
    assert main(["simulate", f"cases={cases}", "kind=base_bowring",
                 f"outdir={tmp_path / 'sim'}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3" in err and "n_axial" in err


def test_simulate_field_count_error_names_real_line(tmp_path, capsys):
    cases = _case_file(tmp_path, ["12.62,5.56,6895,1000,100,500,60", "",
                                  "12.62,5.56,6895"])
    assert main(["simulate", f"cases={cases}", "kind=base_bowring",
                 f"outdir={tmp_path / 'sim'}"]) == 1
    assert "line 4: expected 7 fields" in capsys.readouterr().err


def test_simulate_critical_power_constant_predictor(tmp_path):
    from chfkit.mlp import DenseLayer, Mlp, Scaler, save_model
    const = 3.0e6  # W/m2 everywhere -> critical wall flux is exactly this
    model = tmp_path / "const_direct.chfmlp"
    net = Mlp(
        layers=[DenseLayer(np.zeros((1, 5)), np.array([const]), "identity")],
        input_scaler=Scaler.identity(5), output_scaler=Scaler.identity(1),
        mode="direct", base_model="none",
        feature_names=("diameter", "heated_length", "pressure", "mass_flux",
                       "inlet_subcooling"),
    )
    save_model(net, str(model))
    cases = _case_file(tmp_path, ["12.62,5.56,6895,1000,100,500,40"])
    out = tmp_path / "sim"
    assert main(["simulate", f"cases={cases}", "kind=pure_ml",
                 f"model={model}", f"outdir={out}", "critical_power=true",
                 "bracket_lo_kW_m2=100", "bracket_hi_kW_m2=10000"]) == 0
    header, rows = _read_csv(out / "critical_power.csv")
    assert header == ["case", "critical_flux_kW_m2", "limiting_node", "min_dnbr", "status"]
    assert rows == [["0", "3000.0", "0", "1.0", "ok"]]
    assert _manifest(out)["counts"] == {"failed": 0}


def test_simulate_unbracketed_critical_power_logged(tmp_path):
    cases = _case_file(tmp_path, ["12.62,5.56,6895,1000,100,500,40"])
    out = tmp_path / "sim"
    assert main(["simulate", f"cases={cases}", "kind=base_bowring",
                 f"outdir={out}", "critical_power=true",
                 "bracket_lo_kW_m2=1", "bracket_hi_kW_m2=2"]) == 0
    _, rows = _read_csv(out / "critical_power.csv")
    assert rows[0][:4] == ["0", "", "", ""]
    assert rows[0][-1].startswith("failed: bracket does not straddle")
    assert _manifest(out)["counts"]["failed"] == 1


@pytest.mark.parametrize("kind", ["base_biasi", "hybrid_bowring"])
def test_simulate_critical_power_rerun_is_byte_identical(tmp_path, kind):
    from chfkit.mlp import Scaler, init_mlp, save_model

    extra = []
    if kind == "hybrid_bowring":
        model = tmp_path / "model.chfmlp"
        net = init_mlp(5, (6,), "tanh", seed=3,
                       input_scaler=Scaler(np.array([0.01, 3.0, 7.0e6, 1500.0, 1.5e5]),
                                           np.array([0.003, 2.0, 3.0e6, 1000.0, 1.0e5])),
                       output_scaler=Scaler(np.array([0.0]), np.array([2.0e5])),
                       mode="residual", base_model="bowring")
        save_model(net, str(model))
        extra = [f"model={model}"]
    cases = _case_file(tmp_path, ["12.62,5.56,6895,1000,100,500,40",
                                  "10.0,3.0,7000,1500,150,800,",
                                  "8.0,0.5,3000,5000,400,900,25",  # above the bracket
                                  "12.62,5.56,6895,1000,100,500,2.5"])
    out = tmp_path / "sim"
    argv = ["simulate", f"cases={cases}", f"kind={kind}", *extra, f"outdir={out}",
            "critical_power=true", "bracket_lo_kW_m2=100", "bracket_hi_kW_m2=4000"]
    assert main(argv) == 0
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    _, rows = _read_csv(out / "critical_power.csv")
    assert [r[-1].split(":")[0] for r in rows] == ["ok", "ok", "failed", "failed"]
    assert _manifest(out)["counts"] == {"failed": 3}
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == snapshot


def test_critical_power_scores_against_the_measured_chf_of_the_cases(tmp_path):
    # a Bennett-style chain: the cases carry their measured CHF, and a case
    # that fails before the march leaves a blank row, which evaluate skips
    cases = tmp_path / "cases.csv"
    cases.write_text("\n".join([
        "D_mm,L_m,P_kPa,G_kg_m2s,dh_sub_kJ_kg,q_wall_kW_m2,n_axial,measured_chf_kW_m2",
        "12.62,5.56,6895,1000,100,500,40,800",
        "10.0,3.0,7000,1500,150,800,,1500",
        "-1.0,3.0,7000,1500,150,800,40,1200",  # rejected by ChannelCase
        "9.0,4.0,10000,2500,250,1200,30,1700",
    ]) + "\n")
    sim, ev = tmp_path / "sim", tmp_path / "eval"
    assert main(["simulate", f"cases={cases}", "kind=base_bowring", f"outdir={sim}",
                 "critical_power=true", "bracket_lo_kW_m2=100",
                 "bracket_hi_kW_m2=4000"]) == 0
    _, rows = _read_csv(sim / "critical_power.csv")
    assert [r[-1].split(":")[0] for r in rows] == ["ok", "ok", "failed", "ok"]
    assert _manifest(sim)["counts"] == {"failed": 2}  # the march and the search
    assert main(["evaluate", f"pred_csv={sim / 'critical_power.csv'}",
                 "pred_col=critical_flux_kW_m2", f"truth_csv={cases}", f"outdir={ev}"]) == 0
    counts = _manifest(ev)["counts"]
    assert counts["rows"] == 4 and counts["rows_missing_values"] == 1


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_hand_metrics(tmp_path):
    pred = tmp_path / "p.csv"
    pred.write_text(
        "chf_pred_kW_m2,measured_chf_kW_m2\n"
        "110.0,100.0\n120.0,100.0\n130.0,100.0\n"
    )
    out = tmp_path / "eval"
    assert main(["evaluate", f"pred_csv={pred}", f"outdir={out}"]) == 0
    header, rows = _read_csv(out / "report.csv")
    cols = dict(zip(header, rows[0]))
    assert float(cols["mean_rel_error"]) == pytest.approx(20.0, rel=1e-12)
    assert float(cols["max_rel_error"]) == pytest.approx(30.0, rel=1e-12)
    assert float(cols["bias_rel_error"]) == pytest.approx(20.0, rel=1e-12)
    assert float(cols["frac_overpredicted"]) == 100.0
    assert int(cols["n_total"]) == 3
    # parity stays in kW and reproduces the inputs
    pheader, prows = _read_csv(out / "parity.csv")
    assert pheader == ["truth_kW_m2", "pred_kW_m2", "rel_err_pct"]
    assert [float(r[1]) for r in prows] == pytest.approx([110.0, 120.0, 130.0])
    kheader, krows = _read_csv(out / "kde.csv")
    assert kheader == ["x_pct", "density"] and len(krows) == 512


def test_evaluate_reads_shared_file_once(tmp_path, monkeypatch):
    from chfkit import cli

    passes = []
    real = cli.load_columns

    def counting(path, columns):
        passes.append(tuple(columns))
        return real(path, columns)

    monkeypatch.setattr(cli, "load_columns", counting)
    pred = tmp_path / "p.csv"
    pred.write_text("chf_pred_kW_m2,measured_chf_kW_m2\n110.0,100.0\n120.0,100.0\n")
    assert main(["evaluate", f"pred_csv={pred}", f"outdir={tmp_path / 'eval'}"]) == 0
    assert passes == [("chf_pred_kW_m2", "measured_chf_kW_m2")]


def test_evaluate_length_mismatch_is_error(tmp_path, capsys):
    pred = tmp_path / "p.csv"
    pred.write_text("chf_pred_kW_m2\n110.0\n120.0\n")
    truth = tmp_path / "t.csv"
    truth.write_text("measured_chf_kW_m2\n100.0\n")
    assert main(["evaluate", f"pred_csv={pred}", f"truth_csv={truth}",
                 f"outdir={tmp_path / 'x'}"]) == 1
    assert "disagree on length" in capsys.readouterr().err


def test_evaluate_nonfinite_prediction_is_error_naming_line(tmp_path, capsys):
    pred = tmp_path / "p.csv"
    pred.write_text(
        "chf_pred_kW_m2,measured_chf_kW_m2\n110.0,100.0\nnan,100.0\n"
    )
    out = tmp_path / "eval"
    assert main(["evaluate", f"pred_csv={pred}", f"outdir={out}"]) == 1
    assert "line 3" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_evaluate_field_count_error_names_real_line(tmp_path, capsys):
    pred = tmp_path / "p.csv"
    pred.write_text(
        "chf_pred_kW_m2,measured_chf_kW_m2\n110.0,100.0\n\n120.0\n"
    )
    assert main(["evaluate", f"pred_csv={pred}",
                 f"outdir={tmp_path / 'eval'}"]) == 1
    assert "line 4: expected 2 fields" in capsys.readouterr().err


@pytest.mark.parametrize("command, header, row", [
    ("evaluate", "chf_pred_kW_m2,measured_chf_kW_m2,measured_chf_kW_m2", "110.0,100.0,900.0"),
    ("prepare", "D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C,chf_kW_m2,D_mm",
     "12.62,5.56,6895.0,1000.0,,250.0,,1500.0,8.0"),
], ids=["evaluate", "prepare"])
def test_requested_column_named_twice_is_error(tmp_path, capsys, command, header, row):
    data = _one_row_twice(tmp_path / "t.csv", header, row)
    key = "pred_csv" if command == "evaluate" else "data"
    out = tmp_path / "out"
    assert main([command, f"{key}={data}", f"outdir={out}"]) == 1
    doubled = header.rsplit(",", 1)[1]
    assert capsys.readouterr().err == (
        f"error: {data}: column(s) [{doubled!r}] named more than once in the header\n")
    assert not out.exists()


def test_evaluate_degenerate_kde_noted_not_fatal(tmp_path):
    pred = tmp_path / "p.csv"
    pred.write_text(
        "chf_pred_kW_m2,measured_chf_kW_m2\n110.0,100.0\n220.0,200.0\n"
    )
    out = tmp_path / "eval"
    assert main(["evaluate", f"pred_csv={pred}", f"outdir={out}"]) == 0
    counts = _manifest(out)["counts"]
    assert counts["kde"].startswith("skipped")
    assert not (out / "kde.csv").exists()


def test_evaluate_blank_rows_dropped_and_counted(tmp_path):
    pred = tmp_path / "p.csv"
    pred.write_text(
        "chf_pred_kW_m2,measured_chf_kW_m2\n110.0,100.0\n,200.0\n90.0,100.0\n"
    )
    out = tmp_path / "eval"
    assert main(["evaluate", f"pred_csv={pred}", f"outdir={out}"]) == 0
    counts = _manifest(out)["counts"]
    assert counts["rows"] == 3 and counts["rows_missing_values"] == 1


def test_evaluate_zero_iqr_kde_is_finite(tmp_path, capsys, recwarn):
    # five errors of +233.3% and one of -133.3%: the IQR is 0, so the
    # bandwidth falls back to sigma instead of 0
    pred = tmp_path / "p.csv"
    pred.write_text("D_mm,L_m\n" + "10.0,3.0\n" * 5 + "-1.0,3.0\n")
    out = tmp_path / "eval"
    assert main(["evaluate", f"pred_csv={pred}", "pred_col=D_mm", "truth_col=L_m",
                 f"outdir={out}"]) == 0
    assert float(_manifest(out)["counts"]["kde_bandwidth_pct"]) > 0.0
    _, krows = _read_csv(out / "kde.csv")
    assert len(krows) == 512 and all(math.isfinite(float(r[1])) for r in krows)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert "Warning" not in capsys.readouterr().err


def test_overflowing_cell_gives_no_runtime_warning(tmp_path, capsys, recwarn):
    data = tmp_path / "d.csv"
    write_dataset(data)
    row = data.read_text().splitlines()[1].split(",")
    with data.open("a") as fh:
        for j in (0, 2, 7):  # D_mm, P_kPa, chf_kW_m2
            fh.write(",".join(row[:j] + ["1e306"] + row[j + 1:]) + "\n")
    prep = tmp_path / "prep"
    assert main(["prepare", f"data={data}", f"outdir={prep}"]) == 0
    assert _manifest(prep)["counts"]["rows_rejected"] == 3
    assert main(["evaluate", f"pred_csv={data}", "pred_col=chf_kW_m2", "truth_col=G_kg_m2s",
                 f"outdir={tmp_path / 'eval'}"]) == 1
    assert "line 18: chf_kW_m2 1e+306 kW/m2 overflows in W/m2" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_evaluate_overflowing_metric_is_error(tmp_path, capsys, recwarn):
    # finite errors whose squares overflow: std and rRMSE cannot be formed
    data = tmp_path / "p.csv"
    data.write_text("p,t\n1e300,1\n2,1\n3,1\n")
    out = tmp_path / "eval"
    assert main(["evaluate", f"pred_csv={data}", "pred_col=p", "truth_col=t",
                 f"outdir={out}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: std_rel_error, rrmse overflow float64"), err
    assert not (out / "report.csv").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# hullcheck
# ---------------------------------------------------------------------------

def test_hullcheck_training_rows_inside(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data, n=12, seed=17)
    out = tmp_path / "hull"
    assert main(["hullcheck", f"train_csv={data}", f"query_csv={data}",
                 f"outdir={out}"]) == 0
    counts = _manifest(out)["counts"]
    assert counts["n_inside"] == 12 and counts["n_outside"] == 0
    assert 0 < counts["simplex_pivots_max"] <= counts["simplex_pivots_total"]
    assert 0 <= counts["simplex_bland_pivots"] <= counts["simplex_pivots_total"]
    _, vrows = _read_csv(out / "verdicts.csv")
    assert all(r[1] == "1" for r in vrows)
    _, prows = _read_csv(out / "projection.csv")
    assert len(prows) == 24  # train + query
    assert {r[2] for r in prows} == {"train", "query"}


def test_hullcheck_feature_subset(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data, n=12, seed=19)
    out = tmp_path / "hull"
    assert main(["hullcheck", f"train_csv={data}", f"query_csv={data}",
                 f"outdir={out}",
                 "hull_features=diameter,pressure,mass_flux"]) == 0
    assert _manifest(out)["counts"]["n_inside"] == 12


def test_hullcheck_rerun_manifest_byte_identical(tmp_path):
    train = tmp_path / "train.csv"
    query = tmp_path / "query.csv"
    write_dataset(train, n=30, seed=29)
    write_dataset(query, n=8, seed=31)
    texts = []
    for _ in range(2):
        assert main(["hullcheck", f"train_csv={train}", f"query_csv={query}",
                     f"outdir={tmp_path / 'out'}",
                     "hull_features=diameter,pressure,mass_flux"]) == 0
        texts.append((tmp_path / "out" / "manifest.json").read_bytes())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["counts"]["simplex_pivots_total"] > 0


def test_hullcheck_fits_one_scaler(tmp_path, monkeypatch):
    # the simplex and the projection standardize with the same fit
    from chfkit.mlp import Scaler

    fits = []
    real = Scaler.fit.__func__

    def counting(cls, x):
        fits.append(np.shape(x))
        return real(cls, x)

    monkeypatch.setattr(Scaler, "fit", classmethod(counting))
    train, query = tmp_path / "train.csv", tmp_path / "query.csv"
    write_dataset(train, n=12, seed=17)
    write_dataset(query, n=3, seed=5)
    assert main(["hullcheck", f"train_csv={train}", f"query_csv={query}",
                 f"outdir={tmp_path / 'out'}"]) == 0
    assert fits == [(12, 7)]


def test_hullcheck_pivot_cap_is_error_exit(tmp_path, capsys, monkeypatch):
    from chfkit import validity

    monkeypatch.setattr(validity, "_MAX_PIVOTS", 1)
    data = tmp_path / "data.csv"
    write_dataset(data, n=12, seed=17)
    assert main(["hullcheck", f"train_csv={data}", f"query_csv={data}",
                 f"outdir={tmp_path / 'x'}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: hull query row 0: ")
    assert "(1 pivots taken)" in err and "Traceback" not in err


def test_hullcheck_counts_dropped_rows(tmp_path):
    train = tmp_path / "train.csv"
    write_dataset(train, n=12, seed=17)
    query = tmp_path / "query.csv"
    rows = [row.split(",") for row in _solvable_rows(3, seed=5)]
    rows[1][2] = ""  # blank P_kPa on line 3: the row is rejected
    query.write_text("D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C,chf_kW_m2\n"
                     + "\n".join(",".join(row) for row in rows) + "\n")
    out = tmp_path / "hull"
    assert main(["hullcheck", f"train_csv={train}", f"query_csv={query}",
                 f"outdir={out}", "hull_features=diameter,pressure,mass_flux"]) == 0
    counts = _manifest(out)["counts"]
    derived = {"exit_quality": 12, "inlet_subcooling": 0, "inlet_temperature": 12}
    assert counts["train"] == {"rows_read": 12, "rows_rejected": 0, "rows_flagged": 0,
                               "derived": derived}
    derived = {"exit_quality": 2, "inlet_subcooling": 0, "inlet_temperature": 2}
    assert counts["query"] == {"rows_read": 3, "rows_rejected": 1, "rows_flagged": 0,
                               "derived": derived}
    _, vrows = _read_csv(out / "verdicts.csv")
    assert len(vrows) == 2


@pytest.mark.parametrize("override,rows,key", [
    ("hull_features=pressure", 12, "hull_features"),
    ("hull_features=diameter,pressure", 1, "train_csv"),
])
def test_hullcheck_too_few_features_or_rows_is_error_naming_key(tmp_path, capsys,
                                                                override, rows, key):
    train = tmp_path / "train.csv"
    write_dataset(train, n=rows, seed=17)
    query = tmp_path / "query.csv"
    write_dataset(query, n=4, seed=19)
    assert main(["hullcheck", f"train_csv={train}", f"query_csv={query}",
                 f"outdir={tmp_path / 'x'}", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r}: must be") and "Traceback" not in err


def test_hullcheck_unknown_feature_rejected(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_dataset(data, n=12, seed=19)
    assert main(["hullcheck", f"train_csv={data}", f"query_csv={data}",
                 f"outdir={tmp_path / 'x'}", "hull_features=swirl"]) == 1
    assert "unknown field 'swirl'" in capsys.readouterr().err


def test_hullcheck_missing_inlet_temperature_guidance(tmp_path, capsys):
    data = tmp_path / "data.csv"
    rows = _solvable_rows(10, seed=23)
    # two-phase inlet: negative subcooling has no inlet temperature
    rows.append("10.0,3.0,7000,1500,0.2,-20.0,,1000")
    data.write_text(
        "D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C,chf_kW_m2\n"
        + "\n".join(rows) + "\n"
    )
    assert main(["hullcheck", f"train_csv={data}", f"query_csv={data}",
                 f"outdir={tmp_path / 'x'}"]) == 1
    assert "hull_features" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify-model
# ---------------------------------------------------------------------------

def test_verify_model_reports_architecture(tmp_path, capsys):
    model = tmp_path / "m.chfmlp"
    _save_const_residual_model(model, 10.0)
    assert main(["verify-model", f"model={model}",
                 f"outdir={tmp_path / 'v'}"]) == 0
    text = capsys.readouterr().out
    assert "format: OK" in text
    assert "5 -> 1" in text


def test_verify_model_rejects_corrupt_file(tmp_path, capsys):
    model = tmp_path / "m.chfmlp"
    _save_const_residual_model(model, 10.0)
    raw = model.read_bytes()
    model.write_bytes(raw[: len(raw) - 4])  # truncate the weights
    assert main(["verify-model", f"model={model}",
                 f"outdir={tmp_path / 'v'}"]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def test_tune_writes_winner(tmp_path):
    prep = _prepared(tmp_path, n=16, seed=31)
    out = tmp_path / "tune"
    assert main(["tune", f"train_csv={prep / 'train.csv'}",
                 f"outdir={out}", "budget_epochs=30", "n_configs=2",
                 "rung0_epochs=5", "depths=1", "width_min=4", "width_max=6",
                 "tune_activations=tanh", "batch_sizes=4", "seed=2"]) == 0
    winner = json.loads((out / "tune_winner.json").read_text())
    assert winner["activation"] == "tanh"
    assert 4 <= int(winner["hidden"]) <= 6
    assert math.isfinite(float(winner["val_mse_std"]))
    assert winner["epochs_trained"] <= 30
    assert _manifest(out)["counts"]["n_rungs"] >= 1


def test_tune_budget_too_small_is_config_error(tmp_path, capsys):
    prep = _prepared(tmp_path, n=16, seed=31)
    assert main(["tune", f"train_csv={prep / 'train.csv'}",
                 f"outdir={tmp_path / 'x'}", "budget_epochs=3",
                 "n_configs=2", "rung0_epochs=5"]) == 1
    err = capsys.readouterr().err
    assert "config key 'budget_epochs'" in err
    assert ">= n_configs * rung0_epochs (10), got '3'" in err


# ---------------------------------------------------------------------------
# constant training features
# ---------------------------------------------------------------------------

def _one_row_twice(path, header, row):
    path.write_text(header + "\n" + row + "\n" + row + "\n")
    return path


@pytest.mark.parametrize("command, extra", [
    ("train", ["hidden=3", "epochs=2", "batch_size=2"]),
    ("tune", ["budget_epochs=2", "n_configs=1", "rung0_epochs=2", "depths=1",
              "width_min=2", "width_max=3", "batch_sizes=1"]),
])
def test_constant_training_columns_are_one_warning_line(tmp_path, capsys, recwarn,
                                                        command, extra):
    header = ("diameter_m,heated_length_m,pressure_Pa,mass_flux_kg_m2s,"
              "inlet_subcooling_J_kg,target_W_m2")
    data = _one_row_twice(tmp_path / "pure_train.csv", header,
                          "0.01,3.0,7000000.0,1500.0,100000.0,2500000.0")
    out = tmp_path / "out"
    assert main([command, f"train_csv={data}", f"outdir={out}", *extra]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: constant feature column(s) {header.split(',')} in {data}: "
        "std set to 1"]
    assert not [w for w in recwarn if "constant" in str(w.message)]
    assert _manifest(out)["counts"]["constant_columns"] == 6


def test_hullcheck_constant_training_columns_are_one_warning_line(tmp_path, capsys,
                                                                   recwarn):
    data = _one_row_twice(tmp_path / "data.csv",
                          "D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C,chf_kW_m2",
                          _solvable_rows(1, 41)[0])
    out = tmp_path / "hull"
    assert main(["hullcheck", f"train_csv={data}", f"query_csv={data}",
                 f"outdir={out}"]) == 0
    features = HULL_FEATURES_DEFAULT.split(",")
    assert capsys.readouterr().err.splitlines() == [
        f"warning: constant feature column(s) {features} in {data}: std set to 1"]
    assert not [w for w in recwarn if "constant" in str(w.message)]
    counts = _manifest(out)["counts"]
    assert counts["constant_columns"] == 7 and counts["n_inside"] == 2


def test_varied_training_columns_print_no_warning(tmp_path, capsys):
    prep = _prepared(tmp_path)
    out = tmp_path / "train"
    assert main(["train", f"train_csv={prep / 'train.csv'}", f"outdir={out}",
                 "hidden=3", "epochs=1"]) == 0
    assert capsys.readouterr().err == ""
    assert _manifest(out)["counts"]["constant_columns"] == 0


# ---------------------------------------------------------------------------
# BLAS thread count
# ---------------------------------------------------------------------------

def test_train_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    # with batch 64, the 200 x 200 layer's two backward products run on
    # both threads (process CPU time near twice the wall time with
    # OpenBLAS 0.3.31); at width 70 they still ran on one
    rng = np.random.default_rng(5)
    x = rng.uniform([8e-3, 2.0, 3e6, 500.0, 5e4], [13e-3, 6.0, 12e6, 3000.0, 4e5],
                    size=(500, 5))
    y = 2e6 + 1e-1 * x[:, 2] - 4e2 * x[:, 3] + rng.normal(0.0, 5e4, 500)
    data = tmp_path / "pure_train.csv"
    data.write_text(
        "diameter_m,heated_length_m,pressure_Pa,mass_flux_kg_m2s,"
        "inlet_subcooling_J_kg,target_W_m2\n"
        + "".join(",".join(map(repr, row)) + "\n"
                  for row in np.column_stack([x, y]).tolist()))
    src = os.path.dirname(os.path.dirname(chfkit.__file__))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        runs.append((out, subprocess.Popen(
            [sys.executable, "-m", "chfkit.cli", "train", f"train_csv={data}",
             f"outdir={out}", "hidden=200,200", "batch_size=64", "epochs=1", "seed=4"],
            env=env, stderr=subprocess.PIPE)))
    for out, proc in runs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    one, two = ((out / "model.chfmlp").read_bytes() for out, _ in runs)
    assert one == two


# ---------------------------------------------------------------------------
# the run record: what every command reads and writes
# ---------------------------------------------------------------------------

def _run_record_case(tmp_path, case):
    """(argv without outdir, files the command reads) of one case."""
    if case.startswith("prepare"):
        data = tmp_path / "data.csv"
        write_dataset(data)
        return ["prepare", f"data={data}", f"base={case.split('-')[1]}"], [data]
    if case in ("predict", "simulate", "verify-model"):
        model = tmp_path / "m.chfmlp"
        _save_const_residual_model(model, 10.0)
        if case == "verify-model":
            return [case, f"model={model}"], [model]
        if case == "simulate":
            cases = _case_file(tmp_path, ["12.62,5.56,6895,1000,100,500,20",
                                          "-1.0,3.0,7000,1500,150,800,40"])
            return ["simulate", f"cases={cases}", "kind=hybrid_bowring", f"model={model}",
                    "critical_power=true", "bracket_lo_kW_m2=100",
                    "bracket_hi_kW_m2=4000"], [cases, model]
        test = _prepared(tmp_path) / "test.csv"
        return ["predict", f"data={test}", "kind=hybrid_bowring", f"model={model}"], [test, model]
    if case.startswith("evaluate"):
        pred = tmp_path / "p.csv"
        if case == "evaluate-kde":
            truth = tmp_path / "t.csv"
            pred.write_text("chf_pred_kW_m2\n110.0\n120.0\n95.0\n")
            truth.write_text("measured_chf_kW_m2\n100.0\n100.0\n100.0\n")
            return ["evaluate", f"pred_csv={pred}", f"truth_csv={truth}"], [pred, truth]
        pred.write_text("chf_pred_kW_m2,measured_chf_kW_m2\n110.0,100.0\n220.0,200.0\n")
        return ["evaluate", f"pred_csv={pred}"], [pred]  # zero variance: no KDE
    prep = _prepared(tmp_path, n=16, seed=31)
    if case == "hullcheck":
        return (["hullcheck", f"train_csv={prep / 'train.csv'}",
                 f"query_csv={prep / 'test.csv'}"], [prep / "train.csv", prep / "test.csv"])
    if case == "train":
        return (["train", f"train_csv={prep / 'train.csv'}",
                 f"val_csv={prep / 'val.csv'}", "hidden=4", "epochs=2", "batch_size=4"],
                [prep / "train.csv", prep / "val.csv"])
    return (["tune", f"train_csv={prep / 'train.csv'}", "budget_epochs=4",
             "n_configs=1", "rung0_epochs=2", "depths=1", "width_min=2", "width_max=3",
             "batch_sizes=4"], [prep / "train.csv"])


@pytest.mark.parametrize("case", ["prepare-none", "prepare-bowring", "train", "tune", "predict",
                                  "simulate", "evaluate-kde", "evaluate-no-kde", "hullcheck",
                                  "verify-model"])
def test_manifest_records_exactly_what_the_command_reads_and_writes(tmp_path, monkeypatch,
                                                                    case):
    import builtins

    argv, reads = _run_record_case(tmp_path, case)
    out = tmp_path / "out"
    opened = []
    real_open = builtins.open

    def spying_open(file, mode="r", *args, **kwargs):
        if not set(mode) & set("wax+"):
            opened.append(os.path.realpath(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spying_open)
    assert main([*argv, f"outdir={out}"]) == 0
    monkeypatch.undo()
    manifest = _manifest(out)
    assert sorted(manifest["outputs"]) == sorted(set(os.listdir(out)) - {"manifest.json"})
    assert sorted(manifest["inputs"]) == sorted(map(str, reads))
    # every file opened for reading outside outdir is a recorded input
    # (main also opens each input to hash it)
    outside = {p for p in opened if os.path.dirname(p) != os.path.realpath(out)}
    assert outside == {os.path.realpath(p) for p in reads}
    assert manifest["config"]["outdir"] == str(out)
    if case.startswith("evaluate"):
        assert ("kde.csv" in manifest["outputs"]) == (case == "evaluate-kde")


def test_evaluate_missing_truth_file_is_error_naming_key(tmp_path, capsys):
    pred = tmp_path / "p.csv"
    pred.write_text("chf_pred_kW_m2\n110.0\n")
    out = tmp_path / "eval"
    assert main(["evaluate", f"pred_csv={pred}", f"truth_csv={tmp_path / 'nope.csv'}",
                 f"outdir={out}"]) == 1
    assert capsys.readouterr().err == (
        f"error: config key 'truth_csv': no such file: {tmp_path / 'nope.csv'}\n")
    assert not out.exists()  # outdir is made with the first output


@pytest.mark.parametrize("lo,hi,key", [
    ("5", "1", "kde_hi_pct"), ("1", "1", "kde_hi_pct"), ("nan", "5", "kde_lo_pct"),
    ("-5", "nan", "kde_hi_pct"), ("-inf", "inf", "kde_lo_pct"), ("-5", "inf", "kde_hi_pct"),
    ("-1e308", "1e308", "kde_hi_pct"),
])
def test_evaluate_bad_kde_window_is_error_naming_key(tmp_path, capsys, lo, hi, key):
    pred = tmp_path / "p.csv"
    pred.write_text("chf_pred_kW_m2,measured_chf_kW_m2\n110.0,100.0\n120.0,100.0\n"
                    "95.0,100.0\n")
    out = tmp_path / "eval"
    assert main(["evaluate", f"pred_csv={pred}", f"kde_lo_pct={lo}", f"kde_hi_pct={hi}",
                 f"outdir={out}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r}: must be") and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("trim", ["nan", "2", "0", "inf"])
def test_evaluate_bad_trim_quantile_is_error_naming_key(tmp_path, capsys, trim):
    # checked before any file is read: this prediction file does not parse
    pred = tmp_path / "p.csv"
    pred.write_text("chf_pred_kW_m2,measured_chf_kW_m2\nx,y\n")
    out = tmp_path / "eval"
    assert main(["evaluate", f"pred_csv={pred}", f"trim_quantile={trim}",
                 f"outdir={out}"]) == 1
    assert capsys.readouterr().err == (f"error: config key 'trim_quantile': must be "
                                       f"in (0, 1], got {trim!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("bounds", ["20000,100", "nan,20000", "100,nan", "inf,inf",
                                    "-inf,-inf"])
@pytest.mark.parametrize("command", ["prepare", "predict", "hullcheck"])
def test_bad_envelope_bounds_are_error_naming_key(tmp_path, capsys, command, bounds):
    data = tmp_path / "data.csv"
    write_dataset(data)
    argv = {"prepare": ["prepare", f"data={data}"],
            "predict": ["predict", f"data={data}", "kind=base_bowring"],
            "hullcheck": ["hullcheck", f"train_csv={data}", f"query_csv={data}"]}[command]
    assert main([*argv, f"envelope_P_kPa={bounds}", f"outdir={tmp_path / 'out'}"]) == 1
    assert capsys.readouterr().err.startswith("error: config key 'envelope_P_kPa': must be")


def test_infinite_envelope_bound_means_no_limit(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data)
    out = tmp_path / "prep"
    assert main(["prepare", f"data={data}", "envelope_P_kPa=-inf,inf",
                 "envelope_G_kg_m2s=0,inf", f"outdir={out}"]) == 0
    counts = _manifest(out)["counts"]
    assert counts["rows_read"] == 14 and counts["rows_rejected"] == 0
