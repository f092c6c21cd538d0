"""Tests for table ingestion, unit canonicalization, derivation of
missing fields, envelope screening, shuffling, splitting and scaler
fitting."""

import dataclasses

import numpy as np
import pytest

from chfkit import data, fluid
from chfkit.correlations import InletConditions, heat_balance_quality
from chfkit.data import (
    CSV_HEADER,
    FIELDS,
    ChfTable,
    IngestError,
    MODEL_FEATURES,
    TABLE1_ENVELOPE,
    envelope_violations,
    feature_matrix,
    ingest,
    load_columns,
    split,
    write_columns,
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


def _table(n: int, **overrides) -> ChfTable:
    """``n`` synthetic rows with no inlet temperature, read from lines
    2..n+1; an override sets a whole column (one value or one per row)."""
    i = np.arange(n)
    cols = dict(
        diameter=0.004 + 0.0005 * (i % 20),
        heated_length=0.5 + 0.1 * (i % 30),
        pressure=1.0e6 + 5.0e5 * (i % 25),
        mass_flux=500.0 + 50.0 * (i % 40),
        exit_quality=-0.2 + 0.02 * (i % 50),
        inlet_subcooling=1.0e4 + 1.0e4 * (i % 15),
        measured_chf=8.0e5 + 1.0e5 * (i % 35),
        inlet_temperature=np.full(n, np.nan),
    )
    for name, v in overrides.items():
        cols[name] = np.broadcast_to(np.asarray(v, dtype=np.float64), (n,)).copy()
    return ChfTable(**cols, lines=i + 2)


# ---------------------------------------------------------------------------
# Ingestion and unit conversion
# ---------------------------------------------------------------------------

def test_ingest_example_row_unit_conversion(tmp_path):
    table, report = ingest(_write(tmp_path, [EXAMPLE_ROW]))
    assert report.n_rows == 1 and not report.rejected and not report.flagged
    assert len(table) == 1 and table.lines.tolist() == [2]
    for name in FIELDS:
        col = getattr(table, name)
        assert col.dtype == np.float64 and col.shape == (1,), name
    assert table.diameter[0] == pytest.approx(0.01262, rel=1e-15)
    assert table.heated_length[0] == pytest.approx(5.56, rel=1e-15)
    assert table.pressure[0] == pytest.approx(6.895e6, rel=1e-15)
    assert table.mass_flux[0] == pytest.approx(1000.0, rel=1e-15)
    assert table.exit_quality[0] == pytest.approx(0.3, rel=1e-15)
    assert table.inlet_subcooling[0] == pytest.approx(1.0e5, rel=1e-15)
    assert table.measured_chf[0] == pytest.approx(1.5e6, rel=1e-15)


def test_ingest_derives_inlet_temperature(tmp_path):
    table, _ = ingest(_write(tmp_path, [EXAMPLE_ROW]))
    (t_in,) = table.inlet_temperature.tolist()
    assert t_in == fluid.inlet_temp_from_subcooling(6.895e6, 1.0e5)
    assert t_in == pytest.approx(T_IN_EXAMPLE_K, rel=1e-9)


def test_ingest_derives_subcooling_from_temperature(tmp_path):
    t_in_c = T_IN_EXAMPLE_K - 273.15
    row = f"12.62,5.56,6895,1000,0.3,,{t_in_c!r},1500"
    table, report = ingest(_write(tmp_path, [row]))
    assert not report.rejected
    assert table.inlet_subcooling.tolist() == [pytest.approx(1.0e5, rel=1e-9)]


def test_ingest_derives_exit_quality_from_heat_balance(tmp_path):
    row = "12.62,1.0,6895,2000,,100,,1000"
    table, report = ingest(_write(tmp_path, [row]))
    assert not report.rejected
    (x_e,) = table.exit_quality.tolist()
    c = InletConditions(diameter=0.01262, heated_length=1.0, pressure=6.895e6,
                        mass_flux=2000.0, inlet_subcooling=1.0e5)
    assert x_e == heat_balance_quality(1.0e6, c)
    assert -0.5 < x_e < 0.99


def test_ingest_rejects_underdetermined_row(tmp_path):
    row = "12.62,5.56,6895,1000,0.3,,,1500"  # no dh_sub, no T_in
    table, report = ingest(_write(tmp_path, [row]))
    assert len(table) == 0
    assert len(report.rejected) == 1
    line_no, reason = report.rejected[0]
    assert line_no == 2
    assert "dh_sub" in reason and "T_in" in reason


def test_ingest_rejects_blank_required_column(tmp_path):
    row = "12.62,5.56,6895,,0.3,100,,1500"  # no mass flux
    table, report = ingest(_write(tmp_path, [row]))
    assert len(table) == 0
    assert "G_kg_m2s" in report.rejected[0][1]


def test_ingest_two_phase_inlet_has_no_temperature(tmp_path):
    row = "10.0,2.0,7000,1500,0.1,-50,,1200"
    table, report = ingest(_write(tmp_path, [row]))
    assert not report.rejected
    assert table.inlet_subcooling.tolist() == [pytest.approx(-5.0e4, rel=1e-15)]
    assert np.isnan(table.inlet_temperature).tolist() == [True]


def test_ingest_envelope_strict_rejects(tmp_path):
    bad = "50.0,5.56,6895,1000,0.3,100,,1500"  # 50 mm tube
    path = _write(tmp_path, [EXAMPLE_ROW, bad])
    table, report = ingest(path, strict=True)
    assert len(table) == 1
    assert len(report.rejected) == 1
    line_no, reason = report.rejected[0]
    assert line_no == 3
    assert "diameter" in reason


def test_ingest_envelope_nonstrict_flags(tmp_path):
    bad = "50.0,5.56,6895,1000,0.3,100,,1500"
    path = _write(tmp_path, [EXAMPLE_ROW, bad])
    table, report = ingest(path, strict=False)
    assert len(table) == 2
    assert report.rejected == ()
    assert len(report.flagged) == 1
    assert report.flagged[0][0] == 3


def test_ingest_custom_envelope(tmp_path):
    bad = "50.0,5.56,6895,1000,0.3,100,,1500"
    env = dict(TABLE1_ENVELOPE, diameter=(0.002, 0.060))
    table, report = ingest(_write(tmp_path, [bad]), envelope=env)
    assert len(table) == 1 and not report.rejected


# one row of each inlet form: x_e derived from dh_sub, T_in derived from
# dh_sub, dh_sub derived from T_in (x_e given), a two-phase inlet
MIXED_ROWS = [
    "10.0,2.0,7000,1500,,100,,1200",
    "12.62,5.56,6895,1000,0.3,100,,1500",
    f"12.62,5.56,6895,1000,0.3,,{T_IN_EXAMPLE_K - 273.15!r},1500",
    "10.0,2.0,7000,1500,0.1,-50,,1200",
]


def test_ingest_counts_derived_fields(tmp_path):
    rejected = "10.0,2.0,7000,1500,,,,1200"  # no dh_sub, no T_in: derives nothing
    _, report = ingest(_write(tmp_path, MIXED_ROWS + [rejected]))
    assert len(report.rejected) == 1
    assert report.derived == {"inlet_temperature": 2, "inlet_subcooling": 1,
                              "exit_quality": 1}


def test_ingest_if97_work_does_not_grow_with_rows(tmp_path, monkeypatch):
    calls = {}
    for name in ("_t_sat", "_h1", "_h2"):
        def counted(*args, _fn=getattr(fluid, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(fluid, name, counted)
    counts = []
    for n in (30, 300):
        calls.clear()
        table, _ = ingest(_write(tmp_path, MIXED_ROWS * (n // 4) + MIXED_ROWS[:n % 4]))
        assert len(table) == n
        counts.append(dict(calls))
    assert counts[0] == counts[1]


def test_ingest_rejects_rows_whose_newton_steps_run_out(tmp_path, monkeypatch):
    # with one step, only a zero subcooling (the root is t_sat) converges
    monkeypatch.setattr(fluid, "_NEWTON_MAX_STEPS", 1)
    rows = ["12.62,5.56,6895,1000,0.3,0,,1500", EXAMPLE_ROW, MIXED_ROWS[2]]
    table, report = ingest(_write(tmp_path, rows))
    ((line_no, reason),) = report.rejected
    assert line_no == 3 and reason.endswith("did not converge in 1 Newton steps")
    assert table.lines.tolist() == [2, 4]
    assert table.inlet_temperature[0] == fluid.saturation_state(6.895e6).temperature


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
    table, report = ingest(_write(tmp_path, [row], header=header))
    assert not report.rejected
    assert table.diameter[0] == pytest.approx(0.01262, rel=1e-15)
    assert table.measured_chf[0] == pytest.approx(1.5e6, rel=1e-15)


def test_ingest_line_numbers_count_blank_lines(tmp_path):
    # line 3 is blank; line 5 is underdetermined (no quality, no
    # subcooling, no temperature)
    path = tmp_path / "data.csv"
    path.write_text("\n".join([
        CSV_HEADER, EXAMPLE_ROW, "", EXAMPLE_ROW,
        "10.0,3.0,7000,1500,,,,1000", EXAMPLE_ROW,
    ]) + "\n")
    table, report = ingest(str(path))
    assert len(table) == 3
    assert [line for line, _ in report.rejected] == [5]
    assert table.lines.tolist() == [2, 4, 6]
    assert report.n_rows == 4


def test_ingest_lines_skip_rejected_and_keep_flagged(tmp_path):
    bad = "50.0,5.56,6895,1000,0.3,100,,1500"  # diameter outside envelope
    path = _write(tmp_path, [EXAMPLE_ROW, bad, EXAMPLE_ROW])
    assert ingest(path, strict=True)[0].lines.tolist() == [2, 4]
    assert ingest(path, strict=False)[0].lines.tolist() == [2, 3, 4]


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
    path.write_text("a,b,c\n1,2,3\n\n  \n4, ,6\n")
    values, lines = load_columns(str(path), ("c", "b"))
    assert lines.tolist() == [2, 5]
    assert np.array_equal(values, [[3.0, 6.0], [2.0, np.nan]], equal_nan=True)


def test_read_columns_header_only_yields_nothing(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\na,b\n\n")
    values, lines = load_columns(str(path), ("a",))
    assert values.shape == (1, 0) and lines.shape == (0,)


def test_read_columns_accepts_byte_order_mark_and_crlf(tmp_path):
    # Excel's "CSV UTF-8" export starts with a BOM and ends lines with CRLF
    path = tmp_path / "t.csv"
    path.write_bytes(("\ufeff" + CSV_HEADER + "\r\n" + EXAMPLE_ROW + "\r\n\r\n"
                      + EXAMPLE_ROW + "\r\n").encode("utf-8"))
    table, report = ingest(str(path))
    assert not report.rejected and table.lines.tolist() == [2, 4]
    assert table.diameter.tolist() == [0.01262, 0.01262]
    path.write_bytes("\ufeffa,b\r\n1,\r\n".encode("utf-8"))
    values, lines = load_columns(str(path), ("a", "b"))
    assert np.array_equal(values, [[1.0], [np.nan]], equal_nan=True) and lines.tolist() == [2]


def test_read_columns_missing_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(IngestError, match=r"missing column\(s\) \['z'\]"):
        load_columns(str(path), ("a", "z"))


def test_read_columns_requested_column_named_twice(tmp_path):
    # an unrequested doubled name is accepted; a requested one is ambiguous
    path = tmp_path / "t.csv"
    path.write_text("a,b,b,c,c\n1,2,3,4,5\n")
    values, lines = load_columns(str(path), ("a",))
    assert values.tolist() == [[1.0]] and lines.tolist() == [2]
    with pytest.raises(IngestError, match=r"column\(s\) \['c', 'b'\] named more than once"):
        load_columns(str(path), ("a", "c", "b", "c"))


def test_read_columns_first_bad_line_wins_across_columns_and_chunks(tmp_path, monkeypatch):
    # column b goes bad on line 4 and column a on line 6, both past the
    # first chunk of two rows; a wrong field count on line 7 comes later
    monkeypatch.setattr(data, "_CHUNK_ROWS", 2)
    path = tmp_path / "t.csv"
    rows = "a,b\n1,2\n3,4\n5,x\n\n1e400,6\n"
    for text in (rows, rows + "1,2,3\n"):
        path.write_text(text)
        with pytest.raises(IngestError, match=r"line 4: unparseable numeric 'x' in column 'b'"):
            load_columns(str(path), ("a", "b"))
        with pytest.raises(IngestError, match=r"line 6: unparseable numeric '1e400' in col"):
            load_columns(str(path), ("a",))
    with pytest.raises(IngestError, match=r"line 7: expected 2 fields, got 3"):
        path.write_text("a,b\n1,2\n3,4\n5,6\n\n7,8\n1,2,3\n")
        load_columns(str(path), ("a",))


def test_record_rejects_nonfinite(tmp_path):
    # a value that overflows in SI rejects its row: the measured CHF
    # directly, the exit quality through its heat-balance derivation
    rows = [EXAMPLE_ROW, "12.62,5.56,6895,1000,0.3,100,,1e306",
            "12.62,5.56,6895,1000,,100,,1e305"]
    table, report = ingest(_write(tmp_path, rows))
    assert table.lines.tolist() == [2]
    assert report.rejected == ((3, "measured_chf must be finite, got inf"),
                               (4, "exit_quality must be finite, got inf"))


def test_envelope_violations_lists_all():
    violations = envelope_violations(_table(2, diameter=[0.01, 0.05], mass_flux=[1000.0, 1.0]))
    assert list(violations) == [1]
    reasons = violations[1]
    assert len(reasons) == 2
    assert any("diameter" in s for s in reasons)
    assert any("mass_flux" in s for s in reasons)
    # a missing inlet temperature is not a violation
    env = {"inlet_temperature": (300.0, 400.0)}
    assert envelope_violations(_table(3, inlet_temperature=[np.nan, 350.0, 500.0]), env) == {
        2: ["inlet_temperature=500 outside [300, 400]"]}


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
    assert np.isnan(first.inlet_temperature).tolist() == [False, True, False]
    for name in FIELDS:  # NaN (no inlet temperature) must stay NaN
        np.testing.assert_allclose(getattr(second, name), getattr(first, name),
                                   rtol=1e-12, err_msg=name)


def test_writer_rejects_columns_of_different_lengths(tmp_path):
    # zip would cut every column to the shortest and drop rows unnoticed
    path = str(tmp_path / "t.csv")
    with pytest.raises(ValueError, match=r"t\.csv: columns differ in length: \[2, 3\]"):
        write_columns(path, "a,b", [np.array([1.0, 2.0, 3.0]), ["x", "y"]])


# ---------------------------------------------------------------------------
# Shuffle and split
# ---------------------------------------------------------------------------

def _shuffled_rows(s) -> list[int]:
    """Row indices of a split of ``_table``, train then validation then test."""
    return [line - 2 for part in (s.train, s.validation, s.test) for line in part.lines.tolist()]


def test_shuffle_frozen_permutations():
    table = _table(10)
    assert _shuffled_rows(split(table, 1)) == [8, 4, 7, 0, 1, 2, 5, 9, 6, 3]
    assert _shuffled_rows(split(table, 2)) == [2, 0, 7, 6, 9, 5, 3, 4, 8, 1]
    # every column moves with its row
    train = split(table, 1).train
    for name in FIELDS:
        assert np.array_equal(getattr(train, name), getattr(table, name)[train.lines - 2],
                              equal_nan=True), name


def test_split_matches_historical_test_count():
    s = split(_table(24_579), seed=0)
    assert len(s.test) == 2_458
    assert len(s.validation) == 2_458
    assert len(s.train) == 19_663


@pytest.mark.parametrize("n,expect", [(10, (8, 1, 1)), (11, (9, 1, 1)), (15, (11, 2, 2))])
def test_split_small_counts(n, expect):
    s = split(_table(n), seed=3)
    assert (len(s.train), len(s.validation), len(s.test)) == expect


def test_split_disjoint_union():
    assert sorted(_shuffled_rows(split(_table(37), seed=5))) == list(range(37))


def test_split_deterministic():
    table = _table(53)
    assert _shuffled_rows(split(table, seed=9)) == _shuffled_rows(split(table, seed=9))
    assert _shuffled_rows(split(table, seed=9)) != _shuffled_rows(split(table, seed=10))


def test_split_needs_ten_records():
    with pytest.raises(ValueError, match="at least 10"):
        split(_table(9), seed=0)


# ---------------------------------------------------------------------------
# Features and scaler
# ---------------------------------------------------------------------------

def test_feature_matrix_order():
    table = _table(4)
    m = feature_matrix(table, ("pressure", "diameter"))
    assert m.shape == (4, 2) and m.flags.c_contiguous
    assert m[2, 0] == table.pressure[2]
    assert m[2, 1] == table.diameter[2]
    with pytest.raises(ValueError, match="unknown feature"):
        feature_matrix(table, ("bogus",))


def test_feature_matrix_rejects_missing_temperature():
    table = _table(3, inlet_temperature=[300.0, np.nan, 310.0])
    with pytest.raises(ValueError, match="row 1 has no value for feature 'inlet_temperature'"):
        feature_matrix(table, ("inlet_temperature",))


def test_fit_scaler_two_point_feature():
    table = _table(2, exit_quality=[0.0, 2.0])
    sc = Scaler.fit(feature_matrix(table, ("exit_quality",)))
    assert sc.mean[0] == pytest.approx(1.0, rel=1e-15)
    assert sc.std[0] == pytest.approx(1.0, rel=1e-15)


def test_fit_scaler_standardizes_training_features():
    table = _table(200)
    sc = Scaler.fit(feature_matrix(table))
    z = sc.transform(feature_matrix(table))
    assert np.abs(z.mean(axis=0)).max() < 1e-12
    assert np.abs(z.std(axis=0) - 1.0).max() < 1e-12
    assert sc.n_features == len(MODEL_FEATURES)


def test_fit_scaler_constant_feature_warns():
    table = _table(5, inlet_subcooling=5.0e4)
    with pytest.warns(UserWarning, match="constant"):
        sc = Scaler.fit(feature_matrix(table))
    assert sc.std[MODEL_FEATURES.index("inlet_subcooling")] == 1.0


def test_scaler_ignores_validation_and_test_rows():
    # perturbing rows that land outside the train partition must not
    # change the fitted statistics at all
    table = _table(50)
    s = split(table, seed=4)
    baseline = Scaler.fit(feature_matrix(s.train))

    outside = np.ones(50, dtype=bool)
    outside[s.train.lines - 2] = False
    mutated = dataclasses.replace(table, **{
        name: np.where(outside, 3.0 * getattr(table, name) + 1.0, getattr(table, name))
        for name in FIELDS})
    s2 = split(mutated, seed=4)
    assert np.array_equal(s2.train.lines, s.train.lines)
    again = Scaler.fit(feature_matrix(s2.train))
    assert np.array_equal(baseline.mean, again.mean)
    assert np.array_equal(baseline.std, again.std)
