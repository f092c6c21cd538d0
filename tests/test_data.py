"""Tests for table ingestion, unit canonicalization, derivation of
missing fields, envelope screening, shuffling, splitting and scaler
fitting."""

import math

import numpy as np
import pytest

from chfkit import fluid
from chfkit.correlations import InletConditions, heat_balance_quality
from chfkit.data import (
    CSV_HEADER,
    ChfRecord,
    IngestError,
    MODEL_FEATURES,
    TABLE1_ENVELOPE,
    envelope_violations,
    feature_matrix,
    ingest,
    read_columns,
    shuffle,
    split,
    write_records,
)
from chfkit.mlp import Scaler

# Reference row: 12.62 mm tube, 5.56 m, 6.895 MPa, 1000 kg/m2s,
# x_e = 0.3, 100 kJ/kg subcooling, inlet temperature left blank,
# CHF 1500 kW/m2.
EXAMPLE_ROW = "12.62,5.56,6895,1000,0.3,100,,1500"

# inlet_temp_from_subcooling(6.895 MPa, 100 kJ/kg), frozen
T_IN_EXAMPLE_K = 538.6750256632552


def _write(tmp_path, rows, header=CSV_HEADER, name="data.csv"):
    p = tmp_path / name
    p.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return str(p)


def _rec(i: int, **overrides) -> ChfRecord:
    base = dict(
        diameter=0.004 + 0.0005 * (i % 20),
        heated_length=0.5 + 0.1 * (i % 30),
        pressure=1.0e6 + 5.0e5 * (i % 25),
        mass_flux=500.0 + 50.0 * (i % 40),
        exit_quality=-0.2 + 0.02 * (i % 50),
        inlet_subcooling=1.0e4 + 1.0e4 * (i % 15),
        measured_chf=8.0e5 + 1.0e5 * (i % 35),
    )
    base.update(overrides)
    return ChfRecord(**base)


# ---------------------------------------------------------------------------
# Ingestion and unit conversion
# ---------------------------------------------------------------------------

def test_ingest_example_row_unit_conversion(tmp_path):
    records, report = ingest(_write(tmp_path, [EXAMPLE_ROW]))
    assert report.n_rows == 1 and not report.rejected and not report.flagged
    (r,) = records
    assert r.diameter == pytest.approx(0.01262, rel=1e-15)
    assert r.heated_length == pytest.approx(5.56, rel=1e-15)
    assert r.pressure == pytest.approx(6.895e6, rel=1e-15)
    assert r.mass_flux == pytest.approx(1000.0, rel=1e-15)
    assert r.exit_quality == pytest.approx(0.3, rel=1e-15)
    assert r.inlet_subcooling == pytest.approx(1.0e5, rel=1e-15)
    assert r.measured_chf == pytest.approx(1.5e6, rel=1e-15)


def test_ingest_derives_inlet_temperature(tmp_path):
    records, _ = ingest(_write(tmp_path, [EXAMPLE_ROW]))
    (r,) = records
    assert r.inlet_temperature == fluid.inlet_temp_from_subcooling(6.895e6, 1.0e5)
    assert r.inlet_temperature == pytest.approx(T_IN_EXAMPLE_K, rel=1e-9)


def test_ingest_derives_subcooling_from_temperature(tmp_path):
    t_in_c = T_IN_EXAMPLE_K - 273.15
    row = f"12.62,5.56,6895,1000,0.3,,{t_in_c!r},1500"
    records, report = ingest(_write(tmp_path, [row]))
    assert not report.rejected
    (r,) = records
    assert r.inlet_subcooling == pytest.approx(1.0e5, rel=1e-9)


def test_ingest_derives_exit_quality_from_heat_balance(tmp_path):
    row = "12.62,1.0,6895,2000,,100,,1000"
    records, report = ingest(_write(tmp_path, [row]))
    assert not report.rejected
    (r,) = records
    c = InletConditions(diameter=0.01262, heated_length=1.0, pressure=6.895e6,
                        mass_flux=2000.0, inlet_subcooling=1.0e5)
    assert r.exit_quality == heat_balance_quality(1.0e6, c)
    assert -0.5 < r.exit_quality < 0.99


def test_ingest_rejects_underdetermined_row(tmp_path):
    row = "12.62,5.56,6895,1000,0.3,,,1500"  # no dh_sub, no T_in
    records, report = ingest(_write(tmp_path, [row]))
    assert records == []
    assert len(report.rejected) == 1
    line_no, reason = report.rejected[0]
    assert line_no == 2
    assert "dh_sub" in reason and "T_in" in reason


def test_ingest_rejects_blank_required_column(tmp_path):
    row = "12.62,5.56,6895,,0.3,100,,1500"  # no mass flux
    records, report = ingest(_write(tmp_path, [row]))
    assert records == []
    assert "G_kg_m2s" in report.rejected[0][1]


def test_ingest_two_phase_inlet_has_no_temperature(tmp_path):
    row = "10.0,2.0,7000,1500,0.1,-50,,1200"
    records, report = ingest(_write(tmp_path, [row]))
    assert not report.rejected
    (r,) = records
    assert r.inlet_subcooling == pytest.approx(-5.0e4, rel=1e-15)
    assert r.inlet_temperature is None


def test_ingest_envelope_strict_rejects(tmp_path):
    bad = "50.0,5.56,6895,1000,0.3,100,,1500"  # 50 mm tube
    path = _write(tmp_path, [EXAMPLE_ROW, bad])
    records, report = ingest(path, strict=True)
    assert len(records) == 1
    assert len(report.rejected) == 1
    line_no, reason = report.rejected[0]
    assert line_no == 3
    assert "diameter" in reason


def test_ingest_envelope_nonstrict_flags(tmp_path):
    bad = "50.0,5.56,6895,1000,0.3,100,,1500"
    path = _write(tmp_path, [EXAMPLE_ROW, bad])
    records, report = ingest(path, strict=False)
    assert len(records) == 2
    assert report.rejected == ()
    assert len(report.flagged) == 1
    assert report.flagged[0][0] == 3


def test_ingest_custom_envelope(tmp_path):
    bad = "50.0,5.56,6895,1000,0.3,100,,1500"
    env = dict(TABLE1_ENVELOPE, diameter=(0.002, 0.060))
    records, report = ingest(_write(tmp_path, [bad]), envelope=env)
    assert len(records) == 1 and not report.rejected


def test_ingest_missing_column(tmp_path):
    header = CSV_HEADER.replace("G_kg_m2s,", "")
    with pytest.raises(IngestError, match="G_kg_m2s"):
        ingest(_write(tmp_path, ["1,2,3,4,5,6,7"], header=header))


def test_ingest_unparseable_numeric(tmp_path):
    row = "12.62,5.56,six,1000,0.3,100,,1500"
    with pytest.raises(IngestError, match="line 2.*P_kPa"):
        ingest(_write(tmp_path, [row]))


def test_ingest_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(IngestError, match="empty"):
        ingest(str(p))
    p2 = tmp_path / "header_only.csv"
    p2.write_text(CSV_HEADER + "\n")
    with pytest.raises(IngestError, match="no data rows"):
        ingest(str(p2))


def test_ingest_wrong_field_count(tmp_path):
    with pytest.raises(IngestError, match="expected 8 fields"):
        ingest(_write(tmp_path, ["1,2,3"]))


def test_ingest_reordered_columns(tmp_path):
    # header names, not positions, bind the columns
    header = "chf_kW_m2,D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C"
    row = "1500,12.62,5.56,6895,1000,0.3,100,"
    records, report = ingest(_write(tmp_path, [row], header=header))
    assert not report.rejected
    assert records[0].diameter == pytest.approx(0.01262, rel=1e-15)
    assert records[0].measured_chf == pytest.approx(1.5e6, rel=1e-15)


def test_ingest_line_numbers_count_blank_lines(tmp_path):
    # line 3 is blank; line 5 is underdetermined (no quality, no
    # subcooling, no temperature)
    path = tmp_path / "data.csv"
    path.write_text("\n".join([
        CSV_HEADER, EXAMPLE_ROW, "", EXAMPLE_ROW,
        "10.0,3.0,7000,1500,,,,1000", EXAMPLE_ROW,
    ]) + "\n")
    records, report = ingest(str(path))
    assert len(records) == 3
    assert [line for line, _ in report.rejected] == [5]
    assert report.lines == (2, 4, 6)
    assert report.n_rows == 4


def test_ingest_lines_skip_rejected_and_keep_flagged(tmp_path):
    bad = "50.0,5.56,6895,1000,0.3,100,,1500"  # diameter outside envelope
    path = _write(tmp_path, [EXAMPLE_ROW, bad, EXAMPLE_ROW])
    assert ingest(path, strict=True)[1].lines == (2, 4)
    assert ingest(path, strict=False)[1].lines == (2, 3, 4)


def test_ingest_field_count_error_names_real_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(CSV_HEADER + "\n" + EXAMPLE_ROW + "\n\n\n1,2,3\n")
    with pytest.raises(IngestError, match="line 5: expected 8 fields"):
        ingest(str(path))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_ingest_nonfinite_cell_is_unparseable(tmp_path, cell):
    path = _write(tmp_path, [EXAMPLE_ROW, f"12.62,5.56,6895,{cell},0.3,100,,1500"])
    with pytest.raises(IngestError, match=f"line 3: unparseable.*{cell!r}.*G_kg_m2s"):
        ingest(path)


def test_read_columns_streams_named_cells_with_line_numbers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2,3\n\n  \n4,,6\n")
    rows = read_columns(str(path), ("c", "b"))
    assert next(rows) == (2, [3.0, 2.0])
    assert list(rows) == [(5, [6.0, None])]


def test_read_columns_header_only_yields_nothing(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\na,b\n\n")
    assert list(read_columns(str(path), ("a",))) == []


def test_read_columns_missing_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(IngestError, match=r"missing column\(s\) \['z'\]"):
        list(read_columns(str(path), ("a", "z")))


def test_record_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        _rec(0, pressure=math.inf)
    with pytest.raises(ValueError, match="finite"):
        _rec(0, exit_quality=math.nan)


def test_envelope_violations_lists_all():
    r = _rec(0, diameter=0.05, mass_flux=1.0)
    reasons = envelope_violations(r)
    assert len(reasons) == 2
    assert any("diameter" in s for s in reasons)
    assert any("mass_flux" in s for s in reasons)


# ---------------------------------------------------------------------------
# Export round trip
# ---------------------------------------------------------------------------

def test_write_then_ingest_roundtrip(tmp_path):
    rows = [EXAMPLE_ROW, "10.0,2.0,7000,1500,0.1,-50,,1200",
            "4.57,1.0,13790,2500,-0.05,400,,3000"]
    first, _ = ingest(_write(tmp_path, rows))
    out = tmp_path / "export.csv"
    write_records(first, str(out))
    second, report = ingest(str(out))
    assert not report.rejected
    assert len(second) == len(first)
    for a, b in zip(first, second):
        for name in ("diameter", "heated_length", "pressure", "mass_flux",
                     "exit_quality", "inlet_subcooling", "measured_chf"):
            va, vb = getattr(a, name), getattr(b, name)
            assert vb == pytest.approx(va, rel=1e-12), name
        if a.inlet_temperature is None:
            assert b.inlet_temperature is None
        else:
            assert b.inlet_temperature == pytest.approx(a.inlet_temperature, rel=1e-12)


# ---------------------------------------------------------------------------
# Shuffle and split
# ---------------------------------------------------------------------------

def test_shuffle_frozen_permutations():
    records = [_rec(i) for i in range(10)]
    seed1 = shuffle(records, 1)
    seed2 = shuffle(records, 2)
    assert [records.index(r) for r in seed1] == [8, 4, 7, 0, 1, 2, 5, 9, 6, 3]
    assert [records.index(r) for r in seed2] == [2, 0, 7, 6, 9, 5, 3, 4, 8, 1]
    assert shuffle(records, 1) == seed1
    assert sorted(map(id, seed1)) == sorted(map(id, records))


def test_split_matches_historical_test_count():
    records = [_rec(i) for i in range(24_579)]
    s = split(records, seed=0)
    assert len(s.test) == 2_458
    assert len(s.validation) == 2_458
    assert len(s.train) == 19_663


@pytest.mark.parametrize("n,expect", [(10, (8, 1, 1)), (11, (9, 1, 1)), (15, (11, 2, 2))])
def test_split_small_counts(n, expect):
    s = split([_rec(i) for i in range(n)], seed=3)
    assert (len(s.train), len(s.validation), len(s.test)) == expect
    assert s.ratios == (0.8, 0.1, 0.1)


def test_split_disjoint_union():
    records = [_rec(i) for i in range(37)]
    s = split(records, seed=5)
    ids = [*map(id, s.train), *map(id, s.validation), *map(id, s.test)]
    assert len(ids) == len(set(ids)) == 37
    assert sorted(ids) == sorted(map(id, records))


def test_split_deterministic():
    records = [_rec(i) for i in range(53)]
    assert split(records, seed=9) == split(records, seed=9)
    assert split(records, seed=9) != split(records, seed=10)


def test_split_needs_ten_records():
    with pytest.raises(ValueError, match="at least 10"):
        split([_rec(i) for i in range(9)], seed=0)


# ---------------------------------------------------------------------------
# Features and scaler
# ---------------------------------------------------------------------------

def test_feature_matrix_order():
    records = [_rec(i) for i in range(4)]
    m = feature_matrix(records, ("pressure", "diameter"))
    assert m.shape == (4, 2)
    assert m[2, 0] == records[2].pressure
    assert m[2, 1] == records[2].diameter
    with pytest.raises(ValueError, match="unknown feature"):
        feature_matrix(records, ("bogus",))


def test_feature_matrix_rejects_missing_temperature():
    r = _rec(0)  # inlet_temperature defaults to None
    with pytest.raises(ValueError, match="inlet_temperature"):
        feature_matrix([r], ("inlet_temperature",))


def test_fit_scaler_two_point_feature():
    records = [_rec(0, exit_quality=0.0), _rec(1, exit_quality=2.0)]
    sc = Scaler.fit(feature_matrix(records, ("exit_quality",)))
    assert sc.mean[0] == pytest.approx(1.0, rel=1e-15)
    assert sc.std[0] == pytest.approx(1.0, rel=1e-15)


def test_fit_scaler_standardizes_training_features():
    records = [_rec(i) for i in range(200)]
    sc = Scaler.fit(feature_matrix(records))
    z = sc.transform(feature_matrix(records))
    assert np.abs(z.mean(axis=0)).max() < 1e-12
    assert np.abs(z.std(axis=0) - 1.0).max() < 1e-12
    assert sc.n_features == len(MODEL_FEATURES)


def test_fit_scaler_constant_feature_warns():
    records = [_rec(i, inlet_subcooling=5.0e4) for i in range(5)]
    with pytest.warns(UserWarning, match="constant"):
        sc = Scaler.fit(feature_matrix(records))
    assert sc.std[MODEL_FEATURES.index("inlet_subcooling")] == 1.0


def test_scaler_ignores_validation_and_test_rows():
    # perturbing rows that land outside the train partition must not
    # change the fitted statistics at all
    records = [_rec(i) for i in range(50)]
    s = split(records, seed=4)
    baseline = Scaler.fit(feature_matrix(s.train))

    train_ids = set(map(id, s.train))
    mutated = [
        r if id(r) in train_ids else _rec(999, measured_chf=9.9e6, exit_quality=0.9)
        for r in records
    ]
    s2 = split(mutated, seed=4)
    assert [id(r) for r in s2.train] == [id(r) for r in s.train]
    again = Scaler.fit(feature_matrix(s2.train))
    assert np.array_equal(baseline.mean, again.mean)
    assert np.array_equal(baseline.std, again.std)
