"""CHF experiment table ingestion and dataset preparation.

Reads delimited text tables of critical-heat-flux measurements (one row
per experiment), canonicalizes units to SI, derives missing fields where
physics allows, screens rows against a configurable parameter envelope,
and provides the seeded shuffle, the 80-10-10 split and the feature
matrices for model training.

The file schema is a comma-delimited header
``D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C,chf_kW_m2`` with ``.``
decimals and blank cells for missing values.  Internally everything is
SI: m, Pa, kg/(m^2 s), J/kg, K, W/m^2.

Derivations for blank cells:

* inlet temperature from pressure and subcooling (saturation tables),
* subcooling from pressure and inlet temperature,
* exit quality from the heat balance using the measured CHF.

A row whose blanks cannot be derived, or whose inlet conditions
``InletConditions`` rejects, is rejected.  Envelope violations reject the
row in strict mode and merely flag it otherwise; either way the report
carries the file line number and a reason.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import fluid
from .correlations import InletConditions, _valid_inlet_rows

__all__ = [
    "ChfRecord",
    "DatasetSplit",
    "IngestError",
    "IngestReport",
    "TABLE1_ENVELOPE",
    "MODEL_FEATURES",
    "CSV_HEADER",
    "ingest",
    "read_columns",
    "write_records",
    "shuffle",
    "split",
    "feature_matrix",
    "envelope_violations",
]

CSV_HEADER = "D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C,chf_kW_m2"
_COLUMNS = CSV_HEADER.split(",")

# Training-data parameter ranges (SI), after Table 1 of the NRC CHF
# database study this pipeline is built around.
TABLE1_ENVELOPE: dict[str, tuple[float, float]] = {
    "diameter": (2.0e-3, 16.0e-3),
    "heated_length": (0.05, 20.0),
    "pressure": (100.0e3, 20_000.0e3),
    "mass_flux": (8.0, 7964.0),
    "exit_quality": (-0.5, 0.99),
    "inlet_subcooling": (-1211.0e3, 1644.0e3),
    "measured_chf": (50.0e3, 16_339.0e3),
}

# Inputs of the CHF regression models, in order.
MODEL_FEATURES = (
    "diameter", "heated_length", "pressure", "mass_flux", "inlet_subcooling",
)


class IngestError(ValueError):
    """Table cannot be read at all (structure, not per-row content)."""


@dataclass(frozen=True)
class ChfRecord:
    """One CHF experiment in SI units.

    ``inlet_temperature`` may be None when neither measured nor
    derivable; every other field is mandatory.  Envelope screening is a
    pipeline concern (see envelope_violations), not a type invariant,
    so records outside the training ranges can still be represented.
    """

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


@dataclass(frozen=True)
class IngestReport:
    """Per-row outcomes of an ingest pass.

    Row numbers are file line numbers (the header is line 1, so the
    first data row is line 2; blank lines count).  ``lines`` holds the
    line number of each accepted record, in record order; ``derived``
    counts the accepted records whose ``inlet_temperature``,
    ``inlet_subcooling`` or ``exit_quality`` was derived.
    """

    n_rows: int
    rejected: tuple[tuple[int, str], ...] = ()
    flagged: tuple[tuple[int, str], ...] = ()
    lines: tuple[int, ...] = ()
    derived: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[ChfRecord, ...]
    validation: tuple[ChfRecord, ...]
    test: tuple[ChfRecord, ...]
    seed: int
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)


def envelope_violations(
    r: ChfRecord, envelope: dict[str, tuple[float, float]] | None = None
) -> list[str]:
    """Names of fields outside the envelope, with the offending values."""
    env = TABLE1_ENVELOPE if envelope is None else envelope
    out = []
    for name, (lo, hi) in env.items():
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
    """Stream the named numeric columns of a comma-delimited table.

    Yields ``(file line number, cells)`` per data row, blank cells as
    None.  Blank lines are skipped but counted.  A missing column, a wrong
    field count or a cell that is not a finite number raises IngestError.
    """
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


def _reject(reasons: dict[int, str], ok: np.ndarray, bad: np.ndarray, reason: str) -> None:
    """Reject each row still ``ok`` where ``bad``, for ``reason``."""
    bad &= ok
    for i in np.flatnonzero(bad).tolist():
        reasons[i] = reason
    ok &= ~bad


def ingest(
    path: str,
    envelope: dict[str, tuple[float, float]] | None = None,
    strict: bool = True,
) -> tuple[list[ChfRecord], IngestReport]:
    """Read a CHF table; returns accepted records and a per-row report.

    Structural problems (missing columns, unparseable numbers, empty
    file) raise IngestError.  Rows that cannot be completed (blank
    underivable fields, failed derivations, inlet conditions that
    ``InletConditions`` rejects) are always rejected.  Rows violating
    the envelope are rejected when ``strict`` and flagged (kept)
    otherwise.

    Works column-wise: the table is parsed into columns, each missing
    field is derived by one array call over the rows that need it, and
    then the records are built.  A row that fails a derivation is
    rejected alone; each row's reason is the first check it fails, in
    the order below.
    """
    # 1. parse: blank cells become NaN (read_columns admits finite numbers only)
    parsed = list(read_columns(path, _COLUMNS))
    if not parsed:
        raise IngestError(f"{path}: no data rows")
    line_nos = [line_no for line_no, _ in parsed]
    cols = dict(zip(_COLUMNS, np.array([cells for _, cells in parsed], dtype=np.float64).T))
    n = len(line_nos)
    d, length, p = cols["D_mm"] * 1e-3, cols["L_m"], cols["P_kPa"] * 1e3
    g, chf, x_e = cols["G_kg_m2s"], cols["chf_kW_m2"] * 1e3, cols["x_e"].copy()
    dh, t_in = cols["dh_sub_kJ_kg"] * 1e3, cols["T_in_C"] + 273.15

    # 2. derive the blank fields, one array call per derivation
    reasons: dict[int, str] = {}
    ok = np.ones(n, dtype=bool)
    for col in ("D_mm", "L_m", "P_kPa", "G_kg_m2s", "chf_kW_m2"):
        _reject(reasons, ok, np.isnan(cols[col]), f"column {col!r} is blank and not derivable")
    _reject(reasons, ok, np.isnan(dh) & np.isnan(t_in),
            "both dh_sub_kJ_kg and T_in_C are blank; need one")
    derive_dh = ok & np.isnan(dh)
    # negative subcooling (two-phase inlet) has no single temperature
    derive_t_in = ok & np.isnan(t_in) & (dh >= 0.0)
    for derive, out, fn, arg in ((derive_dh, dh, fluid.subcooling_from_inlet_temp, t_in),
                                 (derive_t_in, t_in, fluid.inlet_temp_from_subcooling, dh)):
        rows = np.flatnonzero(derive)
        errors: dict[int, fluid.FluidRangeError] = {}
        out[rows] = fn(p[rows], arg[rows], errors=errors)
        for k, e in errors.items():
            reasons[rows[k].item()] = str(e)
            ok[rows[k]] = False
    for i in np.flatnonzero(ok & ~_valid_inlet_rows(d, length, p, g, dh)).tolist():
        try:
            InletConditions(d[i].item(), length[i].item(), p[i].item(), g[i].item(),
                            dh[i].item())
        except ValueError as e:
            reasons[i] = str(e)
            ok[i] = False
    derive_x = ok & np.isnan(x_e)
    rows = np.flatnonzero(derive_x)
    h_fg = fluid.saturation_state(p[rows]).h_fg
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the heat_balance_quality expression at the full heated length
        x_e[rows] = (4.0 * chf[rows] * length[rows] / (g[rows] * d[rows] * h_fg)
                     - dh[rows] / h_fg)

    # 3. build the records (Python floats, NaN inlet temperature as None);
    # envelope_violations words the problems of the rows a column mask finds
    by_field = dict(zip(ChfRecord.__dataclass_fields__, (d, length, p, g, x_e, dh, chf, t_in)))
    suspect = np.zeros(n, dtype=bool)
    for name, (lo, hi) in (TABLE1_ENVELOPE if envelope is None else envelope).items():
        v = by_field.get(name, np.nan)  # an unknown field fails in envelope_violations
        suspect |= ~((lo <= v) & (v <= hi))
    records: list[ChfRecord] = []
    kept_lines: list[int] = []
    flagged: list[tuple[int, str]] = []
    derived = dict.fromkeys(("inlet_temperature", "inlet_subcooling", "exit_quality"), 0)
    fields = zip(d.tolist(), length.tolist(), p.tolist(), g.tolist(), x_e.tolist(),
                 dh.tolist(), chf.tolist(), t_in.tolist())
    for i, (row_ok, values) in enumerate(zip(ok.tolist(), fields)):
        if not row_ok:
            continue
        t = values[7]
        try:
            rec = ChfRecord(*values[:7], inlet_temperature=None if math.isnan(t) else t)
        except ValueError as e:
            reasons[i] = str(e)
            continue
        problems = envelope_violations(rec, envelope) if suspect[i] else None
        if problems:
            if strict:
                reasons[i] = "; ".join(problems)
                continue
            flagged.append((line_nos[i], "; ".join(problems)))
        records.append(rec)
        kept_lines.append(line_nos[i])
        derived["inlet_temperature"] += bool(derive_t_in[i])
        derived["inlet_subcooling"] += bool(derive_dh[i])
        derived["exit_quality"] += bool(derive_x[i])
    return records, IngestReport(
        n_rows=n, rejected=tuple((line_nos[i], reasons[i]) for i in sorted(reasons)),
        flagged=tuple(flagged), lines=tuple(kept_lines), derived=derived,
    )


def write_records(records: Sequence[ChfRecord], path: str) -> None:
    """Export to the file schema; re-ingesting reproduces the SI values
    to better than 1e-12 relative (shortest round-trip decimals)."""
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


def shuffle(records: Sequence[ChfRecord], seed: int) -> list[ChfRecord]:
    """Seeded uniform permutation; deterministic for a given seed."""
    order = np.random.default_rng(seed).permutation(len(records))
    return [records[i] for i in order]


def split(records: Sequence[ChfRecord], seed: int) -> DatasetSplit:
    """Shuffle and partition 80/10/10.

    Validation and test sizes are the nearest integer to 10% of the
    input (so the historical 24,579-row database yields 2,458 test
    rows); all remainder rows go to train.  Partitions are contiguous
    slices of the shuffled order: train, then validation, then test.
    """
    n = len(records)
    if n < 10:
        raise ValueError(f"need at least 10 records to split, got {n}")
    mixed = shuffle(records, seed)
    n_val = int(n * 0.1 + 0.5)
    n_test = n_val
    n_train = n - n_val - n_test
    return DatasetSplit(
        train=tuple(mixed[:n_train]),
        validation=tuple(mixed[n_train:n_train + n_val]),
        test=tuple(mixed[n_train + n_val:]),
        seed=seed,
    )


def feature_matrix(
    records: Sequence[ChfRecord], features: Sequence[str] = MODEL_FEATURES
) -> np.ndarray:
    """(n, d) array of the named ChfRecord fields, in order."""
    for f in features:
        if f not in ChfRecord.__dataclass_fields__:
            raise ValueError(f"unknown feature {f!r}")
    get = operator.attrgetter(*features)
    rows = [get(r) for r in records] if len(features) > 1 else [(get(r),) for r in records]
    # None becomes NaN, which no ChfRecord field holds otherwise
    out = np.array(rows, dtype=np.float64).reshape(len(records), len(features))
    for i, j in np.argwhere(np.isnan(out)).tolist():
        if rows[i][j] is None:
            raise ValueError(f"record {i} has no value for feature {features[j]!r}")
    return out

