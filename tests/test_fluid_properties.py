"""Property tests: the array IF97 core and the columnar ingest against
the scalar code they replaced.

The oracle below is the earlier pure-Python implementation: per-call
IF97 sums in table order, the inlet temperature by bisection, and ingest
one row at a time (its cell parser, row reader and record type are
copies of the per-row ingest that the column table replaced).  The
array code takes powers with numpy's SIMD ``pow``, which differs from
the C library's in the last bit of about 5% of values, and inverts the
enthalpy by Newton steps, so equality is to named tolerances:

* temperatures within 1e-12 relative, inlet temperatures within 2e-9 K
  (the bisection stops at a 1e-9 K bracket);
* enthalpies within 1e-12 relative to the larger of their magnitude and
  1 MJ/kg (h_f passes through zero at the triple point, and a small
  subcooling is the difference of two large enthalpies);
* errors of the same type on the same inputs, with messages equal up to
  the numbers they quote, which agree within the same tolerances.

A one-element call must give the bits of the same row in a batch.
"""

import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit import fluid
from chfkit.correlations import InletConditions
from chfkit.data import CSV_HEADER, FIELDS, TABLE1_ENVELOPE, IngestError, ingest
from chfkit.fluid import (
    _R1_I, _R1_J, _R1_N, _R2_I, _R2_J, _R2_J0, _R2_N, _R2_N0, _R4_N, R_WATER,
    FluidRangeError, P_CRITICAL, P_SAT_MIN, T_SAT_MIN,
)

import if97_oracle
from one_row import enthalpy_region2, saturation_temperature

# ---------------------------------------------------------------------------
# Oracle: the scalar IF97 code, bisection and per-row ingest
# ---------------------------------------------------------------------------


def _ref_check_pt(p, t):
    if not 0.0 < p <= 100e6:
        raise FluidRangeError(f"pressure {p} Pa outside (0, 100e6] Pa")
    if not T_SAT_MIN <= t <= 1073.15:
        raise FluidRangeError(f"temperature {t} K outside [{T_SAT_MIN}, 1073.15] K")


def ref_saturation_temperature(p):
    if not P_SAT_MIN <= p <= P_CRITICAL:
        raise FluidRangeError(
            f"saturation pressure {p} Pa outside [{P_SAT_MIN}, {P_CRITICAL}] Pa"
        )
    n = _R4_N
    beta = (p / 1e6) ** 0.25
    e = beta * beta + n[2] * beta + n[5]
    f = n[0] * beta * beta + n[3] * beta + n[6]
    g = n[1] * beta * beta + n[4] * beta + n[7]
    d = 2.0 * g / (-f - math.sqrt(f * f - 4.0 * e * g))
    return 0.5 * (n[9] + d - math.sqrt((n[9] + d) ** 2 - 4.0 * (n[8] + n[9] * d)))


def ref_enthalpy_region1(p, t):
    _ref_check_pt(p, t)
    pi = p / 16.53e6
    tau = 1386.0 / t
    a = 7.1 - pi
    b = tau - 1.222
    gamma_tau = 0.0
    for i, j, c in zip(_R1_I, _R1_J, _R1_N):
        gamma_tau += c * a**i * j * b ** (j - 1)
    return R_WATER * t * tau * gamma_tau


def ref_enthalpy_region2(p, t):
    _ref_check_pt(p, t)
    pi = p / 1e6
    tau = 540.0 / t
    gamma0_tau = 0.0
    for j0, c in zip(_R2_J0, _R2_N0):
        gamma0_tau += c * j0 * tau ** (j0 - 1)
    b = tau - 0.5
    gammar_tau = 0.0
    for i, j, c in zip(_R2_I, _R2_J, _R2_N):
        gammar_tau += c * pi**i * j * b ** (j - 1)
    return R_WATER * t * tau * (gamma0_tau + gammar_tau)


def ref_saturation_state(p):
    t_sat = ref_saturation_temperature(p)
    h_f = ref_enthalpy_region1(p, t_sat)
    h_g = ref_enthalpy_region2(p, t_sat)
    return fluid.SaturationState(pressure=p, temperature=t_sat, h_f=h_f, h_g=h_g,
                                 h_fg=h_g - h_f)


def ref_subcooling_from_inlet_temp(p, t_in):
    t_sat = ref_saturation_temperature(p)
    if t_in > t_sat:
        raise FluidRangeError(
            f"inlet temperature {t_in} K exceeds saturation temperature "
            f"{t_sat} K at {p} Pa"
        )
    sat = ref_saturation_state(p)
    return sat.h_f - ref_enthalpy_region1(p, t_in)


def ref_inlet_temp_from_subcooling(p, dh_sub):
    if dh_sub < 0.0:
        raise FluidRangeError(f"subcooling {dh_sub} J/kg is negative (superheated inlet)")
    sat = ref_saturation_state(p)
    target = sat.h_f - dh_sub
    lo, hi = T_SAT_MIN, sat.temperature
    if ref_enthalpy_region1(p, lo) > target:
        raise FluidRangeError(
            f"subcooling {dh_sub} J/kg exceeds the maximum representable "
            f"{sat.h_f - ref_enthalpy_region1(p, lo)} J/kg at {p} Pa"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ref_enthalpy_region1(p, mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break
    return 0.5 * (lo + hi)


_COLUMNS = CSV_HEADER.split(",")


@dataclass(frozen=True)
class ChfRecord:
    """One CHF experiment in SI units; inlet_temperature None when unknown."""

    diameter: float
    heated_length: float
    pressure: float
    mass_flux: float
    exit_quality: float
    inlet_subcooling: float
    measured_chf: float
    inlet_temperature: float | None = None

    def __post_init__(self) -> None:
        for name in ("diameter", "heated_length", "pressure", "mass_flux",
                     "exit_quality", "inlet_subcooling", "measured_chf"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.inlet_temperature is not None and not math.isfinite(self.inlet_temperature):
            raise ValueError(f"inlet_temperature must be finite, got {self.inlet_temperature!r}")


def ref_envelope_violations(r: ChfRecord) -> list[str]:
    out = []
    for name, (lo, hi) in TABLE1_ENVELOPE.items():
        v = getattr(r, name)
        if v is None:
            continue
        if not lo <= v <= hi:
            out.append(f"{name}={v:g} outside [{lo:g}, {hi:g}]")
    return out


def _parse_cell(text: str, column: str, path: str, line_no: int) -> float | None:
    text = text.strip()
    if not text:
        return None
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise IngestError(f"{path} line {line_no}: unparseable numeric {text!r} in column {column!r}")


def read_columns(path: str, columns: Sequence[str]) -> Iterator[tuple[int, list[float | None]]]:
    """(file line number, cells) per data row, blank cells as None."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = ((n, ln.rstrip("\n").split(",")) for n, ln in enumerate(fh, start=1) if ln.strip())
        _, header = next(rows, (0, None))
        if header is None:
            raise IngestError(f"{path}: empty file")
        header = [h.strip() for h in header]
        missing = [c for c in columns if c not in header]
        if missing:
            raise IngestError(f"{path}: missing column(s) {missing}")
        col_pos = [header.index(c) for c in columns]
        for line_no, cells in rows:
            if len(cells) != len(header):
                raise IngestError(f"{path} line {line_no}: expected {len(header)} fields, "
                                  f"got {len(cells)}")
            yield line_no, [_parse_cell(cells[j], c, path, line_no)
                            for c, j in zip(columns, col_pos)]


def _ref_build_record(values):
    """The per-row ingest, with every row's InletConditions checked (the
    earlier code skipped that check when x_e was given)."""
    for col in ("D_mm", "L_m", "P_kPa", "G_kg_m2s", "chf_kW_m2"):
        if values[col] is None:
            raise ValueError(f"column {col!r} is blank and not derivable")
    d = values["D_mm"] * 1e-3
    length = values["L_m"]
    p = values["P_kPa"] * 1e3
    g = values["G_kg_m2s"]
    chf = values["chf_kW_m2"] * 1e3
    x_e = values["x_e"]
    dh = None if values["dh_sub_kJ_kg"] is None else values["dh_sub_kJ_kg"] * 1e3
    t_in = None if values["T_in_C"] is None else values["T_in_C"] + 273.15
    if dh is None and t_in is None:
        raise ValueError("both dh_sub_kJ_kg and T_in_C are blank; need one")
    if dh is None:
        dh = ref_subcooling_from_inlet_temp(p, t_in)
    elif t_in is None:
        t_in = ref_inlet_temp_from_subcooling(p, dh) if dh >= 0.0 else None
    InletConditions(diameter=d, heated_length=length, pressure=p, mass_flux=g,
                    inlet_subcooling=dh)
    if x_e is None:
        h_fg = ref_saturation_state(p).h_fg
        x_e = 4.0 * chf * length / (g * d * h_fg) - dh / h_fg
    return ChfRecord(
        diameter=d, heated_length=length, pressure=p, mass_flux=g,
        exit_quality=x_e, inlet_subcooling=dh, measured_chf=chf,
        inlet_temperature=t_in,
    )


def ref_ingest(path, strict):
    records, lines, rejected, flagged = [], [], [], []
    for line_no, cells in read_columns(path, _COLUMNS):
        try:
            rec = _ref_build_record(dict(zip(_COLUMNS, cells)))
        except (ValueError, FluidRangeError) as e:
            rejected.append((line_no, str(e)))
            continue
        problems = ref_envelope_violations(rec)
        if problems:
            if strict:
                rejected.append((line_no, "; ".join(problems)))
                continue
            flagged.append((line_no, "; ".join(problems)))
        records.append(rec)
        lines.append(line_no)
    return records, lines, rejected, flagged


# ---------------------------------------------------------------------------
# Tolerances
# ---------------------------------------------------------------------------

H_FLOOR = 1.0e6  # J/kg


def _close_t(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


def _close_h(got, want):
    return abs(got - want) <= 1e-12 * max(abs(want), H_FLOOR)


def _close_t_in(got, want):
    return abs(got - want) <= 2e-9


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?")


def _same_message(got: str, want: str) -> bool:
    """Equal text, with the quoted numbers equal within the enthalpy
    tolerance."""
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return False
    return all(_close_h(float(a), float(b))
               for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)))


def _ref(fn, *args):
    """The value of a call, or the FluidRangeError it raised."""
    try:
        return fn(*args)
    except FluidRangeError as e:
        return e


def _agree(got, want, close) -> bool:
    if isinstance(want, FluidRangeError) or isinstance(got, FluidRangeError):
        return (isinstance(got, FluidRangeError) and isinstance(want, FluidRangeError)
                and _same_message(str(got), str(want)))
    return close(got, want)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# the whole saturation line, with extra weight above 16.53 MPa where the
# basic equations are extrapolated
PRESSURES = st.one_of(st.floats(P_SAT_MIN, P_CRITICAL), st.floats(16.53e6, P_CRITICAL))
# fractions of an interval, kept off its ends: at the ends the oracle and
# the array code may round a range check differently
FRACTIONS = st.floats(1e-9, 1.0 - 1e-9)


def _batches(row):
    return st.lists(row, min_size=1, max_size=64)


# ---------------------------------------------------------------------------
# Properties of the IF97 core
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(ps=_batches(PRESSURES))
def test_saturation_state_matches_scalar_oracle(ps):
    batch = fluid.saturation_state(np.array(ps))
    for i, p in enumerate(ps):
        one = fluid.saturation_state(p)
        want = ref_saturation_state(p)
        assert type(one.h_fg) is float and one.pressure == p
        for name in ("temperature", "h_f", "h_g", "h_fg"):
            got = getattr(one, name)
            assert got == getattr(batch, name)[i], name  # bit for bit
            close = _close_t if name == "temperature" else _close_h
            assert close(got, getattr(want, name)), (name, p, got, getattr(want, name))


def test_saturation_state_near_the_critical_point():
    # Eq. (31) magnifies an ulp of its fourth root some 500 times in t_sat
    # here, and h_f and h_g are steep in t: the tolerance holds on this
    # grid with the C library's pow, not with numpy's SIMD pow
    grid = np.linspace(20e6, P_CRITICAL, 4001)
    batch = fluid.saturation_state(grid)
    for i, p in enumerate(grid.tolist()):
        want = ref_saturation_state(p)
        for name in ("h_f", "h_g", "h_fg"):
            assert _close_h(getattr(batch, name)[i], getattr(want, name)), (name, p)


@settings(max_examples=60)
@given(rows=_batches(st.tuples(PRESSURES, FRACTIONS)))
def test_region_enthalpies_match_scalar_oracle(rows):
    ps = np.array([p for p, _ in rows])
    t_sat = [ref_saturation_temperature(p) for p, _ in rows]
    # liquid below the saturation line, vapour above it
    t1 = np.array([T_SAT_MIN + f * (ts - T_SAT_MIN) for (_, f), ts in zip(rows, t_sat)])
    t2 = np.array([ts + f * (1073.15 - ts) for (_, f), ts in zip(rows, t_sat)])
    for fn, ref, ts in ((fluid.enthalpy_region1, ref_enthalpy_region1, t1),
                        (enthalpy_region2, ref_enthalpy_region2, t2)):
        batch = fn(ps, ts)
        for i, (p, t) in enumerate(zip(ps.tolist(), ts.tolist())):
            one = fn(p, t)
            assert type(one) is float and one == batch[i]
            assert _close_h(one, ref(p, t)), (fn.__name__, p, t)


# batch sizes at the chunk edges of the IF97 sums, among them one row and
# a last chunk of one row: numpy adds a one-column matrix pairwise
CHUNK_EDGES = [1, 2, 511, 512, 513, 1024, 1025]


@pytest.mark.parametrize("n", CHUNK_EDGES)
@settings(max_examples=10)
@given(rows=st.lists(st.tuples(PRESSURES, FRACTIONS, FRACTIONS), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_term_major_sums_match_row_major_oracle_at_chunk_edges(n, rows, seed):
    # seeded rows first, the drawn rows last, in the last chunk
    rng = np.random.default_rng(seed)
    table = np.column_stack((rng.uniform(P_SAT_MIN, P_CRITICAL, n), rng.random((n, 2))))
    drawn = rows[-n:]
    table[n - len(drawn):] = drawn
    p, f1, f2 = (np.ascontiguousarray(c) for c in table.T)
    got, want = fluid.saturation_state(p), if97_oracle.saturation_state(p)
    for name in ("temperature", "h_f", "h_g", "h_fg"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    # liquid below the saturation line, vapour above it
    t1 = T_SAT_MIN + f1 * (want.temperature - T_SAT_MIN)
    t2 = want.temperature + f2 * (1073.15 - want.temperature)
    for g, w in zip(fluid._h1(p, t1, slope=True), if97_oracle.h1(p, t1, slope=True)):
        assert g.tobytes() == w.tobytes()
    assert fluid._h2(p, t2).tobytes() == if97_oracle.h2(p, t2).tobytes()


# inputs in range and out of it: pressures beyond both ends of the
# saturation line, temperatures below 273.15 K and above saturation
WIDE_PRESSURES = st.one_of(PRESSURES, st.floats(0.0, P_SAT_MIN * 0.999),
                           st.floats(P_CRITICAL * 1.001, 40e6))


@settings(max_examples=80)
@given(rows=_batches(st.tuples(WIDE_PRESSURES, st.floats(-0.05, 1.2))))
def test_subcooling_matches_scalar_oracle(rows):
    ps, t_in = [], []
    for p, f in rows:
        t_top = ref_saturation_temperature(min(max(p, P_SAT_MIN), P_CRITICAL))
        if abs(f - 1.0) < 1e-9:  # at t_sat the two codes may round the check apart
            f = 0.5
        ps.append(p)
        t_in.append(T_SAT_MIN + f * (t_top - T_SAT_MIN))
    errors = {}
    batch = fluid.subcooling_from_inlet_temp(np.array(ps), np.array(t_in), errors=errors)
    for i, (p, t) in enumerate(zip(ps, t_in)):
        one = _ref(fluid.subcooling_from_inlet_temp, p, t)
        if isinstance(one, FluidRangeError):
            assert str(errors[i]) == str(one) and math.isnan(batch[i])
        else:
            assert i not in errors and type(one) is float and one == batch[i]
        assert _agree(one, _ref(ref_subcooling_from_inlet_temp, p, t), _close_h), (p, t)
    if errors:
        with pytest.raises(FluidRangeError) as first:
            fluid.subcooling_from_inlet_temp(np.array(ps), np.array(t_in))
        assert str(first.value) == str(errors[min(errors)])


@settings(max_examples=80)
@given(rows=_batches(st.tuples(WIDE_PRESSURES, st.one_of(
    FRACTIONS, st.floats(-0.2, -1e-9), st.floats(1.0 + 1e-9, 1.2), st.just(0.0)))))
def test_inlet_temperature_matches_bisection(rows):
    ps, dh = [], []
    for p, f in rows:
        pc = min(max(p, P_SAT_MIN), P_CRITICAL)
        top = ref_saturation_state(pc).h_f - ref_enthalpy_region1(pc, T_SAT_MIN)
        ps.append(p)
        dh.append(f * top)
    errors = {}
    batch = fluid.inlet_temp_from_subcooling(np.array(ps), np.array(dh), errors=errors)
    for i, (p, d) in enumerate(zip(ps, dh)):
        one = _ref(fluid.inlet_temp_from_subcooling, p, d)
        if isinstance(one, FluidRangeError):
            assert str(errors[i]) == str(one) and math.isnan(batch[i])
        else:
            assert i not in errors and type(one) is float and one == batch[i]
        assert _agree(one, _ref(ref_inlet_temp_from_subcooling, p, d), _close_t_in), (p, d)


def test_newton_cap_rejects_only_the_rows_that_reach_it(monkeypatch):
    # a zero subcooling converges on the first step (t_sat is the root)
    monkeypatch.setattr(fluid, "_NEWTON_MAX_STEPS", 1)
    ps, dh = np.array([7.0e6, 7.0e6, 1.0e5]), np.array([0.0, 1.0e5, 0.0])
    errors = {}
    t = fluid.inlet_temp_from_subcooling(ps, dh, errors=errors)
    assert list(errors) == [1]
    assert "did not converge in 1 Newton steps" in str(errors[1])
    assert t[0] == saturation_temperature(7.0e6) and math.isnan(t[1])
    assert t[2] == saturation_temperature(1.0e5)
    with pytest.raises(FluidRangeError, match="1 Newton steps"):
        fluid.inlet_temp_from_subcooling(7.0e6, 1.0e5)


# ---------------------------------------------------------------------------
# Property of the columnar ingest
# ---------------------------------------------------------------------------

def _table_lines(seed: int, n: int) -> list[str]:
    """``n`` seeded table lines in every inlet form (and a few blank
    lines).  About one cell in ten is out of range: a zero or negative
    size, a pressure off the saturation line, an inlet temperature above
    saturation or below freezing, a subcooling beyond the largest
    representable; negative subcoolings are two-phase inlets.  Some cells
    are padded with whitespace, blank ones included.

    In about a third of the tables one or two rows are broken (a cell
    that is not a finite number, or a wrong field count), each after a
    run of blank lines, so that reading the table raises IngestError."""
    rng = np.random.default_rng(seed)

    def pick(good: float, *bad: float) -> float:
        return float(rng.choice(bad)) if rng.random() < 0.1 else good

    lines = []
    for _ in range(n):
        if rng.random() < 0.1:
            lines.append("")
            continue
        p_kpa = pick(rng.uniform(100.0, 20000.0), 25000.0, 22064.0, 0.6, 0.62,
                     rng.uniform(16530.0, 22064.0))
        t_top = ref_saturation_temperature(min(max(p_kpa * 1e3, P_SAT_MIN), P_CRITICAL))
        cells = [
            pick(rng.uniform(2.0, 16.0), 0.0, -1.0, 20.0),
            pick(rng.uniform(0.1, 6.0), 0.0, 25.0),
            p_kpa,
            pick(rng.uniform(100.0, 5000.0), 0.0, 9000.0),
            rng.uniform(-0.6, 1.0),
            pick(rng.uniform(-900.0, 1600.0), 0.0, 2500.0),
            pick(rng.uniform(0.0, 1.0) * (t_top - 273.15), -1.0, t_top - 273.0),
            pick(rng.uniform(100.0, 9000.0), 40.0),
        ]
        cells = [repr(v) for v in cells]
        blanks = [4] if rng.random() < 0.5 else []
        blanks += ([5], [6], [], [5, 6])[rng.choice(4, p=[0.3, 0.3, 0.25, 0.15])]
        if rng.random() < 0.05:
            blanks.append(int(rng.choice([0, 1, 2, 3, 7])))
        for k in blanks:
            cells[k] = ""
        for k in np.flatnonzero(rng.random(8) < 0.05).tolist():
            cells[k] = f" {cells[k]}\t"
        lines.append(",".join(cells))
    if rng.random() < 0.35:
        for _ in range(int(rng.integers(1, 3))):
            row = "12.0,2.0,7000.0,2000.0,,100.0,,3000.0".split(",")
            if rng.random() < 0.3:
                row = row[:-1] if rng.random() < 0.5 else row + ["1.0"]
            else:
                row[int(rng.integers(0, 8))] = str(rng.choice(
                    ["abc", "1.2.3", "nan", "NaN", "inf", "-inf", " inf ", "1e400", "-1e999",
                     "0x10", "1;5"]))
            at = int(rng.integers(0, len(lines) + 1))
            run = [str(rng.choice(["", "  ", "\t"])) for _ in range(int(rng.integers(1, 4)))]
            lines[at:at] = run + [",".join(row)]
    return lines


def _same_record(got: ChfRecord, want: ChfRecord) -> bool:
    for name in ("diameter", "heated_length", "pressure", "mass_flux", "measured_chf"):
        if getattr(got, name) != getattr(want, name):
            return False
    if (got.inlet_temperature is None) != (want.inlet_temperature is None):
        return False
    return (_close_h(got.inlet_subcooling, want.inlet_subcooling)
            and abs(got.exit_quality - want.exit_quality)
            <= 1e-12 * max(abs(want.exit_quality), 1.0)
            and (got.inlet_temperature is None
                 or _close_t_in(got.inlet_temperature, want.inlet_temperature)))


def _records(table) -> list[ChfRecord]:
    """The rows of a column table as oracle records (NaN inlet
    temperature as None); the record type checks every value is finite."""
    rows = zip(*(getattr(table, name).tolist() for name in FIELDS))
    return [ChfRecord(*row[:7], inlet_temperature=None if math.isnan(row[7]) else row[7])
            for row in rows]


@pytest.mark.parametrize("strict", [True, False])
@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
def test_columnar_ingest_matches_per_row_ingest(tmp_path_factory, strict, seed, n):
    lines = _table_lines(seed, n)
    path = tmp_path_factory.mktemp("ingest") / "table.csv"
    lines.append("12.0,2.0,7000.0,2000.0,,100.0,,3000.0")
    path.write_text(CSV_HEADER + "\n" + "\n".join(lines) + "\n")
    try:
        want_records, want_lines, want_rejected, want_flagged = ref_ingest(str(path), strict)
    except IngestError as e:
        # the same text: the same file line, column and cell
        with pytest.raises(IngestError) as got:
            ingest(str(path), strict=strict)
        assert str(got.value) == str(e)
        return
    table, report = ingest(str(path), strict=strict)
    assert table.lines.tolist() == want_lines
    assert [line for line, _ in report.rejected] == [line for line, _ in want_rejected]
    assert all(_same_message(got, want)
               for (_, got), (_, want) in zip(report.rejected, want_rejected))
    assert [line for line, _ in report.flagged] == [line for line, _ in want_flagged]
    assert all(_same_message(got, want)
               for (_, got), (_, want) in zip(report.flagged, want_flagged))
    records = _records(table)
    assert len(records) == len(want_records)
    assert all(_same_record(g, w) for g, w in zip(records, want_records))
    assert all(getattr(table, name).dtype == np.float64 for name in FIELDS)
