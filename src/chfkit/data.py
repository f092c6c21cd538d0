"""CHF experiment table ingestion and dataset preparation.

Reads delimited text tables of critical-heat-flux measurements (one row
per experiment) into one column table, ``ChfTable``: eight float64 SI
columns and each row's file line number.  Ingestion derives missing
fields where physics allows and screens rows against a configurable
parameter envelope; the seeded 80-10-10 split, the feature matrices and
the CSV export work on whole columns.

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

``load_columns`` reads every numeric CSV input: numpy's C reader parses a
table of finite numbers in one call, and any other table (a blank cell,
say) takes a per-cell pass that splits a chunk of rows at once.
``write_csvs`` writes the CSV outputs, several files in lockstep, each
column formatted once a chunk.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import NoReturn, Sequence

import numpy as np

from . import fluid
from .correlations import InletConditions, _valid_inlet_rows

__all__ = [
    "ChfTable",
    "DatasetSplit",
    "IngestError",
    "IngestReport",
    "TABLE1_ENVELOPE",
    "FIELDS",
    "MODEL_FEATURES",
    "CSV_HEADER",
    "ingest",
    "load_columns",
    "write_columns",
    "write_csvs",
    "record_columns",
    "write_records",
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

# rows whose cells are held as strings at once while reading or writing
_CHUNK_ROWS = 2048


class IngestError(ValueError):
    """Table cannot be read at all (structure, not per-row content)."""


@dataclass(frozen=True, eq=False)
class ChfTable:
    """CHF experiments in SI units, one float64 column per field; row i
    was read from file line ``lines[i]``.  ``inlet_temperature`` is NaN
    where neither measured nor derivable (a two-phase inlet); ingestion
    keeps the other columns finite.  Rows outside the envelope can be held."""

    diameter: np.ndarray
    heated_length: np.ndarray
    pressure: np.ndarray
    mass_flux: np.ndarray
    exit_quality: np.ndarray
    inlet_subcooling: np.ndarray
    measured_chf: np.ndarray
    inlet_temperature: np.ndarray
    lines: np.ndarray

    def __len__(self) -> int:
        return len(self.lines)

    def take(self, rows) -> ChfTable:
        """The table of the rows at the given indices, in that order."""
        return ChfTable(*(getattr(self, f.name)[rows] for f in fields(self)))


# the eight SI columns of a ChfTable, in order
FIELDS = tuple(f.name for f in fields(ChfTable))[:-1]


@dataclass(frozen=True)
class IngestReport:
    """Per-row outcomes of an ingest pass.

    Row numbers are file line numbers (the header is line 1, so the
    first data row is line 2; blank lines count).  ``derived`` counts the
    accepted rows whose ``inlet_temperature``, ``inlet_subcooling`` or
    ``exit_quality`` was derived.
    """

    n_rows: int
    rejected: tuple[tuple[int, str], ...] = ()
    flagged: tuple[tuple[int, str], ...] = ()
    derived: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class DatasetSplit:
    train: ChfTable
    validation: ChfTable
    test: ChfTable
    seed: int


def envelope_violations(
    table: ChfTable, envelope: dict[str, tuple[float, float]] | None = None
) -> dict[int, list[str]]:
    """Row index -> the fields of that row outside the envelope, with the
    offending values; rows inside it, and NaN (missing) values, are left
    out."""
    env = TABLE1_ENVELOPE if envelope is None else envelope
    out: dict[int, list[str]] = {}
    for name, (lo, hi) in env.items():
        v = getattr(table, name)
        outside = ~((lo <= v) & (v <= hi)) & ~np.isnan(v)
        for i in np.flatnonzero(outside).tolist():
            out.setdefault(i, []).append(f"{name}={v[i].item():g} outside [{lo:g}, {hi:g}]")
    return dict(sorted(out.items()))


def _parse_cells(cells: list[str]) -> np.ndarray | None:
    """The cells as float64, NaN for a blank one; None if a cell is
    neither blank nor a finite number.  A plain ``float`` pass comes
    first, the blank-aware one only where it fails."""
    with contextlib.suppress(ValueError):
        values = np.array(list(map(float, cells)), dtype=np.float64)
        if np.isfinite(values).all():
            return values
    try:
        values = np.array([float(c) if c.strip() else math.nan for c in cells],
                          dtype=np.float64)
    except ValueError:
        return None
    if any(cells[i].strip() for i in np.flatnonzero(~np.isfinite(values)).tolist()):
        return None
    return values


def _raise_first_error(path: str, n_fields: int, columns: Sequence[str],
                       pos: list[int], rows: list[str], line_nos: list[int]) -> NoReturn:
    """Raise the IngestError of the first wrong field count or bad cell, in
    file order (and column order within a row)."""
    for line_no, row in zip(line_nos, rows):
        cells = row.split(",")
        if len(cells) != n_fields:
            raise IngestError(f"{path} line {line_no}: expected {n_fields} fields, "
                              f"got {len(cells)}")
        for c, j in zip(columns, pos):
            if _parse_cells([cells[j]]) is None:
                raise IngestError(f"{path} line {line_no}: unparseable numeric "
                                  f"{cells[j].strip()!r} in column {c!r}")
    raise AssertionError(f"{path}: no bad cell found")


def load_columns(path: str, columns: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The named numeric columns of a comma-delimited table.

    Returns a (len(columns), n) float64 array, NaN for blank cells, and
    the file line number of each of the n data rows (blank lines are
    skipped but counted).  A leading UTF-8 byte-order mark is dropped.  A
    requested column that is missing or named twice, a wrong field count
    or a cell that is not a finite number raises IngestError.

    Numpy's C reader then parses every row in one call, kept if it gives
    one row per line and only finite values: it converts a cell to
    ``float``'s bits but accepts less (no blank, ``_`` or non-ASCII
    digit), save that it strips the separators 0x1c-0x1f, so a file with
    one skips it.  Else a per-cell pass runs, a chunk of rows at a time,
    one ``float`` pass per column, the first bad line searched for only
    once one is known to exist.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    fast = not any(sep in text for sep in "\x1c\x1d\x1e\x1f")
    lines = text.split("\n")
    del text
    numbered = [i for i, line in enumerate(lines) if line.strip()]
    if not numbered:
        raise IngestError(f"{path}: empty file")
    header = [h.strip() for h in lines[numbered[0]].split(",")]
    missing = [c for c in columns if c not in header]
    if missing:
        raise IngestError(f"{path}: missing column(s) {missing}")
    doubled = list(dict.fromkeys(c for c in columns if header.count(c) > 1))
    if doubled:
        raise IngestError(f"{path}: column(s) {doubled} named more than once in the header")
    pos = [header.index(c) for c in columns]
    width = len(header)
    rows = [lines[i] for i in numbered[1:]]
    del lines
    line_nos = np.array(numbered[1:], dtype=np.int64) + 1
    if any(row.count(",") != width - 1 for row in rows):
        _raise_first_error(path, width, columns, pos, rows, line_nos.tolist())
    if fast and rows:  # loadtxt warns on no input
        with contextlib.suppress(ValueError):
            out = np.loadtxt(rows, delimiter=",", usecols=pos, comments=None, ndmin=2,
                             dtype=np.float64)
            if len(out) == len(rows) and np.isfinite(out).all():
                return np.ascontiguousarray(out.T), line_nos
    out = np.empty((len(columns), len(rows)))
    for start in range(0, len(rows), _CHUNK_ROWS):
        # every row has ``width`` fields, so column j of the chunk is cells[j::width]
        cells = ",".join(rows[start:start + _CHUNK_ROWS]).split(",")
        for k, j in enumerate(pos):
            values = _parse_cells(cells[j::width])
            if values is None:
                _raise_first_error(path, width, columns, pos, rows, line_nos.tolist())
            out[k, start:start + len(values)] = values
    return out, line_nos


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
) -> tuple[ChfTable, IngestReport]:
    """Read a CHF table; returns the accepted rows and a per-row report.

    Structural problems (missing columns, unparseable numbers, empty
    file) raise IngestError.  Rows that cannot be completed (blank
    underivable fields, failed derivations, inlet conditions that
    ``InletConditions`` rejects, a value that overflows) are always
    rejected.  Rows violating the envelope are rejected when ``strict``
    and flagged (kept) otherwise.

    Each missing field is derived by one array call over the rows that
    need it.  A row that fails a derivation is rejected alone; each row's
    reason is the first check it fails, in the order below.
    """
    # 1. parse: blank cells become NaN
    values, lines = load_columns(path, _COLUMNS)
    n = len(lines)
    if not n:
        raise IngestError(f"{path}: no data rows")
    cols = dict(zip(_COLUMNS, values))
    with np.errstate(over="ignore"):  # an overflowed cell fails the screen in step 3
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

    # 3. screen: overflow from a conversion or derivation, then the envelope
    table = ChfTable(d, length, p, g, x_e, dh, chf, t_in, lines)
    for name in FIELDS[:-1]:
        v = getattr(table, name)
        for i in np.flatnonzero(ok & ~np.isfinite(v)).tolist():
            reasons[i] = f"{name} must be finite, got {v[i].item()!r}"
            ok[i] = False
    line_nos = lines.tolist()
    violations = {i: "; ".join(problems)
                  for i, problems in envelope_violations(table, envelope).items() if ok[i]}
    if strict:
        reasons.update(violations)
        ok[list(violations)] = False
    flagged = [] if strict else [(line_nos[i], reason) for i, reason in violations.items()]
    derived = {name: int(np.count_nonzero(derive & ok)) for name, derive in
               (("inlet_temperature", derive_t_in), ("inlet_subcooling", derive_dh),
                ("exit_quality", derive_x))}
    return table.take(np.flatnonzero(ok)), IngestReport(
        n_rows=n, rejected=tuple((line_nos[i], reasons[i]) for i in sorted(reasons)),
        flagged=tuple(flagged), derived=derived,
    )


def _repr_column(values: np.ndarray, nan: str) -> list[str]:
    """The shortest round-trip decimal of each value, ``nan`` for NaN."""
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = nan
    return cells


def write_csvs(columns: Sequence[np.ndarray | list[str]],
               files: Sequence[tuple[str, str, Sequence[int], np.ndarray | None]],
               nan: str) -> None:
    """Write each file ``(path, header, column indices, kept-row mask or None
    for all rows)`` from one list of columns, each a list of cells or a float64
    array (its values' repr, ``nan`` for NaN).  Each column is formatted once
    per chunk of rows, however many files print it; a file whose columns differ
    in length (its mask included) raises ValueError."""
    for path, _, cols, keep in files:
        lengths = sorted({len(c) for c in [*(columns[j] for j in cols), keep] if c is not None})
        if len(lengths) > 1:
            raise ValueError(f"{path}: columns differ in length: {lengths}")
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                   for path, *_ in files]
        for fh, (_, header, *_) in zip(handles, files):
            fh.write(header + "\n")
        for start in range(0, max(map(len, columns), default=0), _CHUNK_ROWS):
            cells = [c[start:start + _CHUNK_ROWS] if isinstance(c, list)
                     else _repr_column(c[start:start + _CHUNK_ROWS], nan) for c in columns]
            for fh, (*_, cols, keep) in zip(handles, files):
                rows = zip(*(cells[j] for j in cols))
                if keep is not None:
                    rows = itertools.compress(rows, keep[start:start + _CHUNK_ROWS].tolist())
                fh.write("\n".join([*map(",".join, rows), ""]))


def write_columns(path: str, header: str, columns: Sequence[np.ndarray | list[str]],
                  nan: str = "nan") -> str:
    """``write_csvs`` of one file, every column and row; returns ``path``."""
    write_csvs(columns, [(path, header, range(len(columns)), None)], nan)
    return path


def record_columns(table: ChfTable) -> list[np.ndarray]:
    """The table's columns in the file schema, ``CSV_HEADER``."""
    return [table.diameter * 1e3, table.heated_length, table.pressure / 1e3, table.mass_flux,
            table.exit_quality, table.inlet_subcooling / 1e3, table.inlet_temperature - 273.15,
            table.measured_chf / 1e3]


def write_records(table: ChfTable, path: str) -> None:
    """Export to the file schema; re-ingesting reproduces the SI values
    to better than 1e-12 relative (shortest round-trip decimals)."""
    write_columns(path, CSV_HEADER, record_columns(table), nan="")  # no inlet temperature


def split(table: ChfTable, seed: int) -> DatasetSplit:
    """Seeded shuffle and 80/10/10 partition.

    The shuffle is ``default_rng(seed).permutation`` of the row indices.
    Validation and test sizes are the nearest integer to 10% of the
    input (so the historical 24,579-row database yields 2,458 test
    rows); all remainder rows go to train.  Partitions are contiguous
    slices of the shuffled order: train, then validation, then test.
    """
    n = len(table)
    if n < 10:
        raise ValueError(f"need at least 10 records to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_val = int(n * 0.1 + 0.5)
    n_train = n - 2 * n_val
    return DatasetSplit(
        train=table.take(order[:n_train]),
        validation=table.take(order[n_train:n_train + n_val]),
        test=table.take(order[n_train + n_val:]),
        seed=seed,
    )


def feature_matrix(table: ChfTable, features: Sequence[str] = MODEL_FEATURES) -> np.ndarray:
    """(n, d) array of the named table columns, in order."""
    for f in features:
        if f not in FIELDS:
            raise ValueError(f"unknown feature {f!r}")
    out = np.column_stack([getattr(table, f) for f in features])
    missing = np.argwhere(np.isnan(out))  # NaN marks a missing inlet temperature
    if len(missing):
        i, j = missing[0].tolist()
        raise ValueError(f"row {i} has no value for feature {features[j]!r}")
    return out
