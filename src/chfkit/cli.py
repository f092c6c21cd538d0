"""Command-line surface tying the pipeline together.

Subcommands cover the full workflow: ``prepare`` (ingest, split into
tables in the file schema, which ``train``/``tune`` and ``predict`` read
back), ``simulate`` (channel DNBR: every marched case's axial profile in one
``profiles.csv``, keyed by case), ``evaluate`` (error metrics and plots
data), ``hullcheck`` (interpolation-domain verdicts) and ``verify-model``.

Runs are driven by a plain-text ``key=value`` config file; command-line
``key=value`` arguments override it.  ``_Config`` records the run: the
config it resolves, the files it reads (``path_in``) and writes (``out``);
a command accepts exactly the keys it resolves, so the first ``out``
refuses a given key the run has not read.  Each ``cmd_*`` returns its
counts, and ``main`` writes them to ``manifest.json`` in the output
directory with the resolved config and SHA-256 hashes of every file
read and written, and nothing time-dependent, so a rerun with the same
inputs is byte-identical.

Exit status is nonzero only for configuration, format, and I/O
problems (including a diverged training run).  Per-record scientific
failures - an unsolvable heat balance, a channel case with no critical
condition - are recorded in the outputs as data, and the run continues.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, channel
from .channel import BracketError, ChannelCase, find_critical_power, rate_nodes, solve_channel
from .data import (
    CSV_HEADER,
    FIELDS,
    MODEL_FEATURES,
    TABLE1_ENVELOPE,
    IngestError,
    feature_matrix,
    ingest,
    load_columns,
    split,
    write_columns,
    write_records,
    write_rows,
)
from .evaluation import (
    compute_report,
    kde,
    parity_series,
    write_kde_csv,
    write_parity_csv,
    write_report_csv,
    write_report_text,
)
from .hybrid import (
    PREDICTOR_KINDS,
    ChfPredictor,
    build_residual_dataset,
    predict_batch,
)
from .validity import (SimplexError, classify_batch, fit_pca, write_projection_csv,
                       write_verdicts_csv)
from .mlp import (
    ACTIVATIONS,
    ModelFormatError,
    ModelValidationError,
    Scaler,
    SearchSpace,
    TrainConfig,
    TrainingDivergedError,
    forward_batch,
    init_mlp,
    load_model,
    save_model,
    train,
    tune,
)

__all__ = ["ConfigError", "main", "parse_config_text"]

CASE_HEADER = "D_mm,L_m,P_kPa,G_kg_m2s,dh_sub_kJ_kg,q_wall_kW_m2,n_axial"

# Paper-table reference architecture used when none is configured.
DEFAULT_HIDDEN = "44,64,41,26,67,10,17"

HULL_FEATURES_DEFAULT = (
    "diameter,heated_length,pressure,mass_flux,exit_quality,"
    "inlet_subcooling,inlet_temperature"
)


class ConfigError(ValueError):
    """Bad or missing configuration; reported with nonzero exit status."""


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

# config envelope keys carry the file-column units; conversion factors
# mirror ingestion
_ENVELOPE_KEYS = {
    "envelope_D_mm": ("diameter", 1e-3),
    "envelope_L_m": ("heated_length", 1.0),
    "envelope_P_kPa": ("pressure", 1e3),
    "envelope_G_kg_m2s": ("mass_flux", 1.0),
    "envelope_x_e": ("exit_quality", 1.0),
    "envelope_dh_sub_kJ_kg": ("inlet_subcooling", 1e3),
    "envelope_chf_kW_m2": ("measured_chf", 1e3),
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key=value` lines; '#' starts a comment, blanks are skipped.

    Duplicate keys are an error: a config that quietly shadows itself is
    not auditable.
    """
    out: dict[str, str] = {}
    for i, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {i}: expected key=value, got {raw_line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"config line {i}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = parse_config_text(fh.read())
        except OSError as e:
            raise ConfigError(f"cannot read config file {path!r}: {e}") from None
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


_REQUIRED = object()


class _Config:
    """Typed access to raw config strings; records what was resolved, read and written."""

    def __init__(self, raw: dict[str, str], command: str = "chfkit"):
        self._raw = raw
        self.command = command
        self.resolved: dict[str, str] = {}
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self._outdir: str | None = None

    def _text(self, key: str, default) -> str:
        if key in self._raw:
            text = self._raw[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            text = default
        self.resolved[key] = text
        return text

    def has(self, key: str) -> bool:
        return key in self._raw

    def check(self, key: str, ok: bool, want: str) -> None:
        """Raise ConfigError naming ``key`` unless ``ok``; ``want`` says what
        its value must be."""
        if not ok:
            raise ConfigError(f"config key {key!r}: must be {want}, got {self.resolved[key]!r}")

    def str_(self, key: str, default=_REQUIRED) -> str:
        return self._text(key, default)

    def choice(self, key: str, choices, default=_REQUIRED) -> str:
        v = self._text(key, default)
        if v not in choices:
            raise ConfigError(f"config key {key!r}: expected one of {sorted(choices)}, got {v!r}")
        return v

    def int_(self, key: str, default=_REQUIRED) -> int:
        v = self._text(key, default)
        try:
            return int(v)
        except ValueError:
            raise ConfigError(f"config key {key!r}: not an integer: {v!r}") from None

    def float_(self, key: str, default=_REQUIRED) -> float:
        v = self._text(key, default)
        try:
            return float(v)
        except ValueError:
            raise ConfigError(f"config key {key!r}: not a number: {v!r}") from None

    def bool_(self, key: str, default=_REQUIRED) -> bool:
        v = self._text(key, default).lower()
        if v in ("true", "1", "yes"):
            return True
        if v in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key!r}: not a boolean: {v!r}")

    def ints(self, key: str, default=_REQUIRED) -> tuple[int, ...]:
        v = self._text(key, default)
        try:
            return tuple(int(p) for p in v.split(","))
        except ValueError:
            raise ConfigError(f"config key {key!r}: not a comma list of integers: {v!r}") from None

    def names(self, key: str, default=_REQUIRED) -> tuple[str, ...]:
        return tuple(p.strip() for p in self._text(key, default).split(","))

    def path_in(self, key: str, default=_REQUIRED) -> str:
        v = self._text(key, default)
        if not os.path.isfile(v):
            raise ConfigError(f"config key {key!r}: no such file: {v}")
        self.inputs.append(v)
        return v

    def outdir(self) -> str:
        """The output directory, created on the first call."""
        if self._outdir is None:
            self._outdir = self._text("outdir", ".")
            os.makedirs(self._outdir, exist_ok=True)
        return self._outdir

    def refuse_unread(self) -> None:
        """Raise ConfigError naming the given keys the run has not read."""
        unread = sorted(set(self._raw) - set(self.resolved) - {"outdir"})
        if unread:
            raise ConfigError(f"config key(s) not read by this {self.command} run: "
                              + ", ".join(unread))

    def out(self, name: str) -> str:
        """Path of the output file ``name``, recorded as an output; the
        first call refuses unread keys before the directory is created."""
        if not self.outputs:
            self.refuse_unread()
        path = os.path.join(self.outdir(), name)
        self.outputs.append(path)
        return path

    def envelope(self) -> dict[str, tuple[float, float]]:
        env = dict(TABLE1_ENVELOPE)
        for key, (field, factor) in _ENVELOPE_KEYS.items():
            if key not in self._raw:
                continue  # keep the default range
            parts = self._text(key, _REQUIRED).split(",")
            if len(parts) != 2:
                raise ConfigError(f"config key {key!r}: expected 'lo,hi'")
            try:
                lo, hi = (float(p) * factor for p in parts)
            except ValueError:
                raise ConfigError(f"config key {key!r}: not numeric: {parts}") from None
            self.check(key, lo <= hi and lo < math.inf and hi > -math.inf,
                       "'lo,hi' with lo <= hi (-inf or inf for no limit on a side)")
            env[field] = (lo, hi)
        return env


# ---------------------------------------------------------------------------
# Manifest plumbing
# ---------------------------------------------------------------------------

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir: str, command: str, resolved: dict[str, str],
                    inputs: list[str], outputs: list[str],
                    counts: dict) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": dict(sorted(resolved.items())),
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
        "counts": counts,
    }
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

# the derived training schema, read until the benchmark trains on split tables
_FEATURE_HEADER = ("diameter_m,heated_length_m,pressure_Pa,"
                   "mass_flux_kg_m2s,inlet_subcooling_J_kg")
_TARGET_COLUMN = {"direct": "target_W_m2", "residual": "residual_W_m2"}


def _ingest_counts(report) -> dict:
    return {"rows_read": report.n_rows, "rows_rejected": len(report.rejected),
            "rows_flagged": len(report.flagged), "derived": report.derived}


def _csv_safe(message: str) -> str:
    # failure text goes into one CSV cell; keep the delimiter out of it
    return str(message).replace(",", ";").replace("\n", " ")


def _write_hbm_failures(cfg: _Config, failures: list[tuple[str, str, str]],
                        counts: dict) -> None:
    """``hbm_failures.csv`` of the records the base HBM cannot solve, and their count."""
    write_columns(cfg.out("hbm_failures.csv"), "split,row,reason",
                  [list(c) for c in zip(*failures)] or [[]] * 3)
    counts["hbm_failures"] = len(failures)


def _training_matrices(path: str, mode: str,
                       min_rows: int = 2) -> tuple[np.ndarray, np.ndarray]:
    values, _ = load_columns(path, (*_FEATURE_HEADER.split(","), _TARGET_COLUMN[mode]))
    if np.isnan(values).any():
        raise ConfigError(f"{path}: blank cells are not allowed in training data")
    if values.shape[1] < min_rows:
        raise ConfigError(f"{path}: need at least {min_rows} training rows")
    # row-major, so that Scaler.fit sums each column row by row
    arr = np.ascontiguousarray(values.T)
    return arr[:, :-1], arr[:, -1]


def _training_set(path: str, name: str, mode: str, base: str, counts: dict,
                  failures: list[tuple[str, str, str]],
                  min_rows: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """SI features and targets of a split table, read as ``predict`` reads one
    (mode=residual drops the rows the ``base`` HBM cannot solve, by file line
    in ``failures``), or else of a derived table (``_training_matrices``)."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        header = next((line for line in fh if line.strip()), "")
    if not set(CSV_HEADER.split(",")) <= {h.strip() for h in header.split(",")}:
        return _training_matrices(path, mode, min_rows)
    table, report = ingest(path, strict=False)
    counts[name] = _ingest_counts(report)
    x, y = feature_matrix(table), table.measured_chf
    if mode == "residual":
        resid, rep = build_residual_dataset(x, y, base)
        failures.extend((name, str(table.lines[i]), _csv_safe(msg)) for i, msg in rep.failures)
        counts["hbm_failures"] = len(failures)
        x, y = resid[:, :5], resid[:, 7]
    if len(y) < min_rows:
        raise ConfigError(f"{path}: need at least {min_rows} training rows")
    arr = np.column_stack([x, y])  # row-major, as _training_matrices gives it
    return arr[:, :-1], arr[:, -1]


@contextlib.contextmanager
def _constant_columns_reported(x: np.ndarray, names: tuple[str, ...], path: str,
                               counts: dict):
    """Name the constant columns of ``x``, read from ``path``, in one
    ``warning:`` line and count them in ``counts``; inside the block,
    ``Scaler.fit`` (which gives them std 1) stays quiet about them."""
    flat = [name for name, is_flat in zip(names, Scaler.constant_columns(x)) if is_flat]
    counts["constant_columns"] = len(flat)
    if flat:
        print(f"warning: constant feature column(s) {flat} in {path}: std set to 1",
              file=sys.stderr)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "constant feature column", UserWarning)
        yield


def _standardized_training_set(path: str, mode: str, base: str, counts: dict,
                               failures: list[tuple[str, str, str]]
                               ) -> tuple[np.ndarray, np.ndarray, Scaler, Scaler]:
    """A training table's (``_training_set``) standardized features and
    targets with their scalers; constant columns are reported."""
    x, y = _training_set(path, "train", mode, base, counts, failures)
    y = y.reshape(-1, 1)
    names = (*_FEATURE_HEADER.split(","), _TARGET_COLUMN[mode])
    with _constant_columns_reported(np.column_stack([x, y]), names, path, counts):
        in_scaler, out_scaler = Scaler.fit(x), Scaler.fit(y)
    return in_scaler.transform(x), out_scaler.transform(y)[:, 0], in_scaler, out_scaler


def _load_predictor(cfg: _Config) -> ChfPredictor:
    kind = cfg.choice("kind", PREDICTOR_KINDS)
    model = (load_model(cfg.path_in("model"))
             if kind in ("pure_ml", "hybrid_biasi", "hybrid_bowring") else None)
    try:
        return ChfPredictor(kind=kind, model=model)
    except ValueError as e:
        raise ConfigError(f"predictor/model mismatch: {e}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_prepare(cfg: _Config) -> dict:
    data_path = cfg.path_in("data")
    seed = cfg.int_("seed", "0")
    strict = cfg.bool_("strict", "true")
    base = cfg.choice("base", ("none", "biasi", "bowring"), "none")

    table, report = ingest(data_path, envelope=cfg.envelope(), strict=strict)
    cfg.check("data", len(table) >= 10,
              f"a table with at least 10 usable rows ({len(table)} after ingestion)")
    parts = split(table, seed)
    splits = (("train", parts.train), ("val", parts.validation), ("test", parts.test))

    counts: dict = {**_ingest_counts(report),
                    "split_sizes": {name: len(part) for name, part in splits}}
    failures: list[tuple[str, str, str]] = []
    for name, part in splits:
        write_records(part, cfg.out(f"{name}.csv"))
        if base != "none":
            _, rep = build_residual_dataset(feature_matrix(part), part.measured_chf, base)
            # the record's line in {name}.csv: one header line, no blank lines
            failures.extend((name, str(i + 2), _csv_safe(msg)) for i, msg in rep.failures)
    if base != "none":
        _write_hbm_failures(cfg, failures, counts)
    return counts


def _mode_and_base(cfg: _Config) -> tuple[str, str]:
    mode = cfg.choice("mode", ("direct", "residual"), "direct")
    base = cfg.choice("base", ("none", "biasi", "bowring"), "none")
    if mode == "residual" and base == "none":
        raise ConfigError("mode=residual requires base=biasi or base=bowring")
    if mode == "direct" and base != "none":
        raise ConfigError("mode=direct requires base=none")
    return mode, base


def cmd_train(cfg: _Config) -> dict:
    mode, base = _mode_and_base(cfg)
    train_path = cfg.path_in("train_csv")
    val_path = cfg.path_in("val_csv") if cfg.has("val_csv") else None
    seed = cfg.int_("seed", "0")
    hidden = cfg.ints("hidden", DEFAULT_HIDDEN)
    cfg.check("hidden", min(hidden) >= 1, "a comma list of widths >= 1")
    activation = cfg.choice("activation", tuple(ACTIVATIONS), "tanh")
    epochs, batch_size = cfg.int_("epochs", "500"), cfg.int_("batch_size", "32")
    lr0, decay = cfg.float_("lr0", "0.001"), cfg.float_("decay", "0.99")
    cfg.check("epochs", 1 <= epochs <= 100_000, "in [1, 100000]")
    cfg.check("batch_size", batch_size >= 1, ">= 1")
    cfg.check("lr0", lr0 > 0.0, "positive")
    cfg.check("decay", 0.0 < decay <= 1.0, "in (0, 1]")
    schedule = TrainConfig(epochs=epochs, batch_size=batch_size, lr0=lr0,
                           decay_rate=decay, seed=seed)
    cfg.refuse_unread()  # every key is read: refuse a typo before the data and the fit

    counts: dict = {}
    failures: list[tuple[str, str, str]] = []
    x_std, y_std, in_scaler, out_scaler = _standardized_training_set(train_path, mode, base,
                                                                     counts, failures)
    val = (_training_set(val_path, "val", mode, base, counts, failures, min_rows=1)
           if val_path else None)
    net = init_mlp(x_std.shape[1], hidden, activation, seed=seed,
                   input_scaler=in_scaler, output_scaler=out_scaler,
                   mode=mode, base_model=base, feature_names=MODEL_FEATURES)
    fitted, trace = train(net, x_std, y_std, schedule)

    save_model(fitted, cfg.out("model.chfmlp"))
    write_columns(cfg.out("loss_trace.csv"), "epoch,loss",
                  [list(map(str, range(len(trace)))), np.array(trace)])
    if "hbm_failures" in counts:  # a split table was read in residual mode
        _write_hbm_failures(cfg, failures, counts)

    counts.update(epochs=schedule.epochs, final_loss=repr(trace[-1]),
                  initial_loss=repr(trace[0]))
    if val is not None:
        xv, yv = val
        counts["val_mse_W2_m4"] = repr(float(np.mean((forward_batch(fitted, xv) - yv) ** 2)))
    return counts


def cmd_tune(cfg: _Config) -> dict:
    mode, base = _mode_and_base(cfg)
    train_path = cfg.path_in("train_csv")
    seed = cfg.int_("seed", "0")
    budget = cfg.int_("budget_epochs")
    space = SearchSpace(
        depths=cfg.ints("depths", "4,5,6,7,8"),
        width_range=(cfg.int_("width_min", "10"), cfg.int_("width_max", "70")),
        batch_sizes=cfg.ints("batch_sizes", "8,16,32,64"),
        lr_range=(cfg.float_("lr_min", "0.0001"), cfg.float_("lr_max", "0.01")),
        activations=cfg.names("tune_activations",
                              "elu,relu,softplus,sigmoid,tanh"),
    )
    (w_min, w_max), (lr_min, lr_max) = space.width_range, space.lr_range
    cfg.check("depths", min(space.depths) >= 0, "a comma list of depths >= 0")
    cfg.check("width_min", w_min >= 1, ">= 1")
    cfg.check("width_max", w_max >= w_min, f">= width_min ({w_min})")
    cfg.check("batch_sizes", min(space.batch_sizes) >= 1, "a comma list of sizes >= 1")
    cfg.check("lr_min", lr_min > 0.0, "positive")
    cfg.check("lr_max", lr_max >= lr_min, f">= lr_min ({cfg.resolved['lr_min']})")
    n_configs, rung0_epochs = cfg.int_("n_configs", "16"), cfg.int_("rung0_epochs", "10")
    decay = cfg.float_("decay", "0.99")
    cfg.check("n_configs", n_configs >= 1, ">= 1")
    cfg.check("rung0_epochs", 1 <= rung0_epochs <= 100_000, "in [1, 100000]")
    cfg.check("budget_epochs", budget >= n_configs * rung0_epochs,
              f">= n_configs * rung0_epochs ({n_configs * rung0_epochs})")
    cfg.check("decay", 0.0 < decay <= 1.0, "in (0, 1]")
    for act in space.activations:
        if act not in ACTIVATIONS:
            raise ConfigError(f"config key 'tune_activations': unknown activation {act!r}")
    cfg.refuse_unread()  # every key is read: refuse a typo before the data and the search
    counts: dict = {}
    failures: list[tuple[str, str, str]] = []
    x_std, y_std, _, _ = _standardized_training_set(train_path, mode, base, counts, failures)
    try:
        result = tune(space, x_std, y_std, budget, n_configs=n_configs,
                      rung0_epochs=rung0_epochs, decay_rate=decay, seed=seed)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    with open(cfg.out("tune_winner.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "hidden": ",".join(str(w) for w in result.candidate.hidden_widths),
            "activation": result.candidate.activation,
            "batch_size": result.candidate.batch_size,
            "lr0": repr(result.candidate.lr0),
            "val_mse_std": repr(result.score),
            "epochs_trained": result.epochs_trained,
            "rungs": [{"epochs": ep, "scores": [repr(s) for s in scores]}
                      for ep, scores in result.rungs],
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if "hbm_failures" in counts:  # a split table was read in residual mode
        _write_hbm_failures(cfg, failures, counts)
    counts.update(epochs_trained=result.epochs_trained, n_rungs=len(result.rungs))
    return counts


def cmd_predict(cfg: _Config) -> dict:
    data_path = cfg.path_in("data")
    strict = cfg.bool_("strict", "false")
    predictor = _load_predictor(cfg)
    table, report = ingest(data_path, envelope=cfg.envelope(), strict=strict)

    preds = predict_batch(predictor, feature_matrix(table))
    failed = preds.failed
    status = [f"failed: {_csv_safe(preds.error(i))}" if f else "ok"
              for i, f in enumerate(failed.tolist())]
    if preds.base is None:  # pure_ml has no decomposition
        base = resid = excursion = [""] * len(preds)
    else:
        base = np.where(failed, math.nan, preds.base.chf) / 1e3
        resid = np.where(failed, math.nan, preds.ml_residual) / 1e3
        flags = preds.base.quality_excursion.astype(int).astype(str)
        excursion = np.where(failed, "", flags).tolist()
    write_columns(cfg.out("predictions.csv"),
                  "row,chf_pred_kW_m2,base_chf_kW_m2,ml_residual_kW_m2,"
                  "measured_chf_kW_m2,quality_excursion,status",
                  [list(map(str, table.lines.tolist())), preds.value / 1e3, base,
                   resid, table.measured_chf / 1e3, excursion, status], nan="")
    return {**_ingest_counts(report), "predicted": status.count("ok"),
            "failed": len(status) - status.count("ok"),
            "quality_excursions": excursion.count("1")}


def _parse_cases(path: str) -> list[tuple[int, ChannelCase | str]]:
    """Channel cases from the batch file; bad rows come back as messages."""
    values, _ = load_columns(path, CASE_HEADER.split(","))
    out: list[tuple[int, ChannelCase | str]] = []
    for i, (d, length, p_kpa, g, dh, q, n_axial) in enumerate(values.T.tolist()):
        if any(math.isnan(v) for v in (d, length, p_kpa, g, dh, q)):
            out.append((i, "blank cell in required column"))
            continue
        if not math.isnan(n_axial) and not n_axial.is_integer():
            out.append((i, f"n_axial must be a whole number, got {n_axial!r}"))
            continue
        n = 60 if math.isnan(n_axial) else int(n_axial)
        try:
            out.append((i, ChannelCase(
                diameter=d * 1e-3, heated_length=length, pressure=p_kpa * 1e3,
                mass_flux=g, inlet_subcooling=dh * 1e3,
                wall_heat_flux=q * 1e3, n_axial=n,
            )))
        except ValueError as e:
            # past 2**53 the int prints digits the cell never held: show it as read
            out.append((i, str(e).replace(str(n), repr(n_axial)) if abs(n) > 2**53 else str(e)))
    return out


def _write_profiles(fh, held: list) -> None:
    """Write the ``profiles.csv`` rows of the held (case index, profile)
    pairs, each column formatted once across the cases."""
    if held:
        *cols, flagged = (np.concatenate(c) for c in zip(*(
            (p.heights, p.enthalpies, p.qualities, p.dnbr, p.chf_local / 1e3,
             np.bincount(p.flagged_nodes, minlength=len(p.heights)) > 0) for _, p in held)))
        write_rows(fh, [[s for i, p in held for s in [str(i)] * len(p.heights)], *cols,
                        np.where(flagged, "1", "0").tolist()])


def cmd_simulate(cfg: _Config) -> dict:
    cases_path = cfg.path_in("cases")
    predictor = _load_predictor(cfg)
    critical = cfg.bool_("critical_power", "false")
    if critical:
        bracket = (cfg.float_("bracket_lo_kW_m2") * 1e3,
                   cfg.float_("bracket_hi_kW_m2") * 1e3)
        cfg.check("bracket_lo_kW_m2", bracket[0] > 0.0, "positive")
        cfg.check("bracket_hi_kW_m2", bracket[1] > bracket[0],
                  f"above bracket_lo_kW_m2 ({cfg.resolved['bracket_lo_kW_m2']})")

    summary, cp_rows, held, n_held = [], [], [], 0
    parsed = _parse_cases(cases_path)
    ratings = rate_nodes([c for _, c in parsed if not isinstance(c, str)], predictor)
    with open(cfg.out("profiles.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("case,z_m,enthalpy_J_kg,quality,dnbr,chf_kW_m2,flagged\n")
        for i, case in parsed:
            if not isinstance(case, str):
                try:
                    rating = next(ratings)
                    if np.isnan(rating[3]).all():
                        raise FloatingPointError("no node has a positive finite CHF")
                    profile = solve_channel(case, predictor, rating)
                except FloatingPointError as e:
                    case = str(e)
            if isinstance(case, str):  # failed before or in the march: blank rows
                summary.append((str(i), "", "", "", f"failed: {_csv_safe(case)}"))
                if critical:
                    cp_rows.append(summary[-1])
                continue
            held.append((i, profile))
            n_held += case.n_axial
            if n_held >= channel.NODE_BATCH:  # memory stays bounded, as in rate_nodes
                _write_profiles(fh, held)
                held, n_held = [], 0
            summary.append((str(i), repr(profile.min_dnbr), str(profile.min_dnbr_node),
                            str(len(profile.flagged_nodes)), "ok"))
            if critical:
                try:
                    r = find_critical_power(profile, bracket)
                except BracketError as e:
                    cp_rows.append((str(i), "", "", "", f"failed: {_csv_safe(e)}"))
                    continue
                cp_rows.append((str(i), repr(r.wall_heat_flux / 1e3), str(r.limiting_node),
                                repr(r.min_dnbr), "ok"))
        _write_profiles(fh, held)
    write_columns(cfg.out("summary.csv"), "case,min_dnbr,limiting_node,n_flagged,status",
                  [list(c) for c in zip(*summary)] or [[]] * 5)
    if critical:
        write_columns(cfg.out("critical_power.csv"),
                      "case,critical_flux_kW_m2,limiting_node,min_dnbr,status",
                      [list(c) for c in zip(*cp_rows)] or [[]] * 5)
    return {"failed": sum(row[-1] != "ok" for row in summary + cp_rows)}


def cmd_evaluate(cfg: _Config) -> dict:
    pred_path = cfg.path_in("pred_csv")
    pred_col = cfg.str_("pred_col", "chf_pred_kW_m2")
    truth_path = cfg.path_in("truth_csv", pred_path)
    truth_col = cfg.str_("truth_col", "measured_chf_kW_m2")
    trim = cfg.float_("trim_quantile", "0.995")
    cfg.check("trim_quantile", 0.0 < trim <= 1.0, "in (0, 1]")
    window = None
    if cfg.has("kde_lo_pct") or cfg.has("kde_hi_pct"):
        lo, hi = window = (cfg.float_("kde_lo_pct"), cfg.float_("kde_hi_pct"))
        cfg.check("kde_lo_pct", math.isfinite(lo), "finite")
        cfg.check("kde_hi_pct", lo < hi and math.isfinite(hi - lo),
                  f"finite and above kde_lo_pct ({cfg.resolved['kde_lo_pct']})")

    if truth_path == pred_path:
        (preds, truths), pred_lines = load_columns(pred_path, (pred_col, truth_col))
        truth_lines = pred_lines
    else:
        (preds,), pred_lines = load_columns(pred_path, (pred_col,))
        (truths,), truth_lines = load_columns(truth_path, (truth_col,))
    if len(preds) != len(truths):
        raise ConfigError(
            f"prediction and truth files disagree on length: "
            f"{len(preds)} vs {len(truths)} rows"
        )
    both = ~np.isnan(preds) & ~np.isnan(truths)
    n_missing = len(preds) - int(np.count_nonzero(both))
    if not both.any():
        raise ConfigError("no rows with both a prediction and a truth value")
    # columns carry kW/m2; metrics are scale-free, parity export is not
    with np.errstate(over="ignore"):
        pred, truth = preds[both] * 1e3, truths[both] * 1e3
    for path, col, lines, raw, si in ((pred_path, pred_col, pred_lines, preds[both], pred),
                                      (truth_path, truth_col, truth_lines, truths[both], truth)):
        bad = np.flatnonzero(~np.isfinite(si))
        if bad.size:
            raise ConfigError(f"{path} line {lines[both][bad[0]]}: {col} "
                              f"{raw[bad[0]].item()!r} kW/m2 overflows in W/m2")

    try:
        report = compute_report(pred, truth, trim_quantile=trim)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    write_report_csv(report, cfg.out("report.csv"))
    write_report_text(report, cfg.out("report.txt"))
    parity = parity_series(pred, truth)
    write_parity_csv(parity, cfg.out("parity.csv"))

    counts: dict = {"rows": len(preds), "rows_missing_values": n_missing}
    try:
        series = kde(parity[2][truth != 0.0], window=window)
    except ValueError as e:
        counts["kde"] = f"skipped: {e}"
    else:
        write_kde_csv(series, cfg.out("kde.csv"))
        counts["kde_bandwidth_pct"] = repr(series.bandwidth)
    return counts


def cmd_hullcheck(cfg: _Config) -> dict:
    train_path = cfg.path_in("train_csv")
    query_path = cfg.path_in("query_csv")
    strict = cfg.bool_("strict", "false")
    features = cfg.names("hull_features", HULL_FEATURES_DEFAULT)
    for f in features:
        if f not in FIELDS:
            raise ConfigError(f"config key 'hull_features': unknown field {f!r}")
    cfg.check("hull_features", len(features) >= 2, "at least two features")

    envelope = cfg.envelope()
    train, train_report = ingest(train_path, envelope=envelope, strict=strict)
    query, query_report = ingest(query_path, envelope=envelope, strict=strict)
    cfg.check("train_csv", len(train) >= 2,
              f"a table with at least 2 usable rows ({len(train)} after ingestion)")
    cfg.check("query_csv", len(query) >= 1, "a table with at least 1 usable row")
    try:
        x_train, x_query = feature_matrix(train, features), feature_matrix(query, features)
    except ValueError:  # the features are known, so a row lacks its inlet temperature
        raise ConfigError("some rows have no inlet temperature (two-phase inlet); "
                          "set hull_features without inlet_temperature") from None

    counts: dict = {"train": _ingest_counts(train_report),
                    "query": _ingest_counts(query_report)}
    with _constant_columns_reported(x_train, features, train_path, counts):
        scaler = Scaler.fit(x_train)
    verdicts, summary = classify_batch(x_train, x_query, scaler=scaler)
    write_verdicts_csv(verdicts, cfg.out("verdicts.csv"))

    # projection of standardized features onto the two leading components
    stacked = scaler.transform(np.vstack([x_train, x_query]))
    pca = fit_pca(stacked[:len(train)])
    labels = ["train"] * len(train) + ["query"] * len(query)
    write_projection_csv(pca, stacked, labels, cfg.out("projection.csv"))

    counts.update(n_inside=summary.n_inside, n_outside=summary.n_outside,
                  simplex_pivots_total=int(verdicts.pivots.sum()),
                  simplex_pivots_max=int(verdicts.pivots.max()),
                  simplex_bland_pivots=int(verdicts.bland_pivots.sum()))
    return counts


def cmd_verify_model(cfg: _Config) -> dict:
    path = cfg.path_in("model")
    model = load_model(path)
    cfg.refuse_unread()  # before the report, since the run writes no file of its own
    arch = " -> ".join([str(model.n_inputs)] + [str(l.weights.shape[0]) for l in model.layers])
    acts = ",".join(l.activation for l in model.layers)
    n_params = sum(l.weights.size + l.bias.size for l in model.layers)
    print(f"model: {path}")
    print(f"mode: {model.mode}  base: {model.base_model}")
    print(f"architecture: {arch}  activations: {acts}")
    print(f"parameters: {n_params}")
    print("format: OK")
    return {"parameters": n_params, "architecture": arch}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "prepare": (cmd_prepare, "ingest a CHF table and split it"),
    "train": (cmd_train, "train an MLP on a split table"),
    "tune": (cmd_tune, "successive-halving hyperparameter search"),
    "predict": (cmd_predict, "predict CHF for a table of conditions"),
    "simulate": (cmd_simulate, "axial DNBR profiles for channel cases"),
    "evaluate": (cmd_evaluate, "error metrics, parity and KDE exports"),
    "hullcheck": (cmd_hullcheck, "interpolation-domain verdicts"),
    "verify-model": (cmd_verify_model, "validate a saved model file"),
}


_PARSER = argparse.ArgumentParser(
    prog="chfkit", description="critical heat flux prediction toolkit",
    formatter_class=argparse.RawDescriptionHelpFormatter,
    epilog="commands:\n" + "\n".join(f"  {name:<14}{text}"
                                      for name, (_, text) in _COMMANDS.items()))
_PARSER.add_argument("--version", action="version", version=__version__)
_PARSER.add_argument("command", choices=_COMMANDS, metavar="command")
_PARSER.add_argument("--config", help="key=value config file")
_PARSER.add_argument("overrides", nargs="*", default=[], metavar="key=value",
                     help="config overrides")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_intermixed_args(argv)
    try:
        cfg = _Config(load_config(args.config, args.overrides), args.command)
        counts = _COMMANDS[args.command][0](cfg)
        _write_manifest(cfg.outdir(), args.command, cfg.resolved, cfg.inputs, cfg.outputs,
                        counts)
    except (ConfigError, IngestError, ModelFormatError, ModelValidationError,
            SimplexError, TrainingDivergedError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
