"""Byte identity of ``prepare`` against the per-row CSV writers.

The oracle keeps the writers that the column writer replaced:
``write_records`` formatted one record per line, and
``_write_feature_csv`` one row of a feature matrix per line, both with
``repr``.  The column writer formats a column at a time, a chunk of rows
at a time; every file ``prepare`` writes, the manifest included, must
keep its bytes.
"""

import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from chfkit import cli, data
from chfkit.data import CSV_HEADER, FIELDS, MODEL_FEATURES, ingest, split
from chfkit.hybrid import build_residual_dataset

# ---------------------------------------------------------------------------
# Oracle: the per-row writers and the prepare command that called them
# ---------------------------------------------------------------------------


def _per_row_write_records(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            t_in = "" if r.inlet_temperature is None else repr(r.inlet_temperature - 273.15)
            fh.write(",".join([
                repr(r.diameter * 1e3),
                repr(r.heated_length),
                repr(r.pressure / 1e3),
                repr(r.mass_flux),
                repr(r.exit_quality),
                repr(r.inlet_subcooling / 1e3),
                t_in,
                repr(r.measured_chf / 1e3),
            ]) + "\n")


def _per_row_write_feature_csv(path, extra_header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{cli._FEATURE_HEADER},{extra_header}\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())
    return path


def _records(table):
    """The table's rows as records of Python floats, None for NaN."""
    return [SimpleNamespace(**dict(zip(FIELDS, [None if math.isnan(v) else v for v in row])))
            for row in zip(*(getattr(table, name).tolist() for name in FIELDS))]


def _per_row_prepare(cfg):
    """``prepare`` with the per-row writers; the config keys are resolved
    in the same order, so the manifest echoes the same config."""
    data_path = cfg.path_in("data")
    outdir = cfg.outdir()
    seed = cfg.int_("seed", "0")
    strict = cfg.bool_("strict", "true")
    base = cfg.choice("base", ("none", "biasi", "bowring"), "none")
    table, report = ingest(data_path, envelope=cfg.envelope(), strict=strict)
    parts = split(table, seed)
    splits = (("train", parts.train), ("val", parts.validation), ("test", parts.test))
    counts = {**cli._ingest_counts(report),
              "split_sizes": {name: len(part) for name, part in splits}}
    outputs, failures = [], []
    for name, part in splits:
        records = _records(part)
        path = os.path.join(outdir, f"{name}.csv")
        _per_row_write_records(records, path)
        x = np.array([[getattr(r, f) for f in MODEL_FEATURES + ("measured_chf",)]
                      for r in records])
        outputs += [path, _per_row_write_feature_csv(os.path.join(outdir, f"pure_{name}.csv"),
                                                     "target_W_m2", x)]
        if base != "none":
            resid, rep = build_residual_dataset(x[:, :5], x[:, 5], base)
            failures.extend((name, i + 2, msg) for i, msg in rep.failures)
            outputs.append(_per_row_write_feature_csv(
                os.path.join(outdir, f"residual_{name}.csv"),
                "base_chf_W_m2,measured_chf_W_m2,residual_W_m2", resid))
    if base != "none":
        fail_path = os.path.join(outdir, "hbm_failures.csv")
        with open(fail_path, "w", encoding="utf-8") as fh:
            fh.write("split,row,reason\n")
            for name, line_no, msg in failures:
                fh.write(f"{name},{line_no},{cli._csv_safe(msg)}\n")
        outputs.append(fail_path)
        counts["hbm_failures"] = len(failures)
    cli._write_manifest(outdir, "prepare", cfg.resolved, [data_path], outputs, counts)


# ---------------------------------------------------------------------------
# The seeded table
# ---------------------------------------------------------------------------


def _write_table(path, seed, n=400):
    """``n`` random rows over 1-200 bar and mass fluxes down to 8 kg/m2s,
    in every inlet form: subcooling only (the inlet temperature is
    derived), inlet temperature only (the subcooling is derived), both,
    and with or without the exit quality (derived from the heat balance
    when blank).  About a sixth of the subcoolings are negative
    (two-phase inlets), and blank lines are spread through the file."""
    rng = np.random.default_rng(seed)
    lines = [CSV_HEADER]
    for _ in range(n):
        if rng.random() < 0.03:
            lines.append("")
            continue
        p_kpa = rng.uniform(100.0, 20000.0)
        t_sat_c = 100.0 + (p_kpa - 100.0) / 19900.0 * 265.0  # rough, kept below saturation
        cells = [repr(float(v)) for v in (
            rng.uniform(2.0, 16.0), rng.uniform(0.1, 6.0), p_kpa, rng.uniform(8.0, 7900.0),
            rng.uniform(-0.4, 0.95), rng.uniform(-300.0, 1500.0),
            rng.uniform(0.05, 0.95) * t_sat_c, rng.uniform(60.0, 9000.0))]
        form = rng.integers(0, 4)
        if form == 0:
            cells[6] = ""   # subcooling only
        elif form == 1:
            cells[5] = ""   # inlet temperature only
        if rng.random() < 0.5:
            cells[4] = ""   # exit quality from the heat balance
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("base,strict,seed,chunk_rows", [
    ("bowring", "false", 3, 7), ("biasi", "true", 4, data._CHUNK_ROWS)])
def test_prepare_writes_the_bytes_of_the_per_row_writers(tmp_path, monkeypatch, base, strict,
                                                         seed, chunk_rows):
    # seven-row chunks put many chunk boundaries in every file read and written
    monkeypatch.setattr(data, "_CHUNK_ROWS", chunk_rows)
    table_path = tmp_path / "table.csv"
    _write_table(table_path, seed)
    out = tmp_path / "prep"
    config = {"data": str(table_path), "base": base, "strict": strict, "seed": "11",
              "outdir": str(out)}
    _per_row_prepare(cli._Config(dict(config)))
    want = tmp_path / "want"
    out.rename(want)
    assert cli.main(["prepare", *(f"{k}={v}" for k, v in config.items())]) == 0

    # the table exercises every path of the writers
    counts = json.loads((want / "manifest.json").read_text())["counts"]
    assert min(counts["derived"].values()) > 0 and counts["hbm_failures"] > 0
    table, _ = ingest(str(table_path), strict=strict == "true")
    assert np.isnan(table.inlet_temperature).any() and (table.inlet_subcooling < 0).any()

    names = sorted(os.listdir(want))
    assert names == sorted(os.listdir(out))
    assert len(names) == 11
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
