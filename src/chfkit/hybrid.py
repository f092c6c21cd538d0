"""Base-correlation + residual-network CHF predictors.

A hybrid predictor corrects a physics correlation with a small network
trained on the correlation's residuals: during data preparation the
target is r = y_measured - y_base, and at prediction time the deployed
value is y = y_base + r_hat.  The network sees only the raw five-part
input vector (diameter, heated length, pressure, mass flux, inlet
subcooling) — never the base model's output — so the corrector stays
independent of the base model's scale.

The batch interface is the (n, 5) model-feature matrix: one row per
record, SI units, in the order of ``data.MODEL_FEATURES`` (the fields
of ``InletConditions``).  Two evaluation surfaces and the residual
dataset share one core on it: at most one saturation-state call over
its distinct pressures, one heat-balance solve on its columns
(``correlations._solve_columns``) and one network batch.

* ``predict_batch`` resolves the base correlation with the heat-balance
  solve (the critical length equals the heated length), one outcome per
  row; ``predict`` is its one-row call on an ``InletConditions``.  With
  nothing but inlet conditions there is no operating heat flux to
  define local conditions, so this surface is the same for both solve
  modes.
* ``node_chf`` rates every node of a channel march at once.  In "hbm"
  solve mode node z is the exit of a tube of length z; in "dsm" mode
  the base correlation is evaluated directly at the node's local
  quality, one branch evaluation over the nodes.
* ``build_residual_dataset`` takes the base CHF of every row from the
  same solve and returns the residual table as one (m, 8) array.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from . import fluid
from .correlations import (
    QUALITY_MAX,
    QUALITY_MIN,
    HbmSolution,
    InletConditions,
    _branches,
    _flux,
    _HbmColumns,
    _row,
    _solve_columns,
    _valid_inlet_rows,
)
from .mlp import Mlp, forward_batch

__all__ = [
    "PREDICTOR_KINDS",
    "SOLVE_MODES",
    "ChfPredictor",
    "Prediction",
    "ResidualBuildReport",
    "build_residual_dataset",
    "predict",
    "predict_batch",
    "node_chf",
]

PREDICTOR_KINDS = ("base_biasi", "base_bowring", "pure_ml", "hybrid_biasi", "hybrid_bowring")
SOLVE_MODES = ("hbm", "dsm")

_BASE_OF_KIND = {
    "base_biasi": "biasi",
    "base_bowring": "bowring",
    "hybrid_biasi": "biasi",
    "hybrid_bowring": "bowring",
}


@dataclass(frozen=True)
class ChfPredictor:
    """A CHF-solve option: plain correlation, pure network, or hybrid."""

    kind: str
    model: Mlp | None = None
    solve_mode: str = "hbm"

    def __post_init__(self) -> None:
        if self.kind not in PREDICTOR_KINDS:
            raise ValueError(f"kind must be one of {PREDICTOR_KINDS}, got {self.kind!r}")
        if self.solve_mode not in SOLVE_MODES:
            raise ValueError(f"solve_mode must be one of {SOLVE_MODES}, got {self.solve_mode!r}")
        if self.kind.startswith("base_"):
            if self.model is not None:
                raise ValueError(f"kind {self.kind!r} takes no model")
            return
        if self.model is None:
            raise ValueError(f"kind {self.kind!r} requires a model")
        if self.model.n_inputs != 5:
            raise ValueError(
                f"model takes {self.model.n_inputs} inputs; CHF predictors use the "
                "raw 5-vector (D, L, P, G, dh_sub)"
            )
        if self.kind == "pure_ml":
            if self.model.mode != "direct" or self.model.base_model != "none":
                raise ValueError(
                    f"pure_ml requires a direct model with no base, got mode="
                    f"{self.model.mode!r} base_model={self.model.base_model!r}"
                )
        else:
            want = _BASE_OF_KIND[self.kind]
            if self.model.mode != "residual" or self.model.base_model != want:
                raise ValueError(
                    f"{self.kind!r} requires a residual model with base_model="
                    f"{want!r}, got mode={self.model.mode!r} "
                    f"base_model={self.model.base_model!r}"
                )


@dataclass(frozen=True)
class Prediction:
    """A CHF value plus its decomposition.

    For hybrid kinds ``value = base_chf + ml_residual`` holds bit-exactly
    (the value is computed as that sum).  Base kinds report a zero
    residual; pure-ML predictions have no decomposition and carry None.
    ``base_solution`` holds the heat-balance solve diagnostics when one
    was performed.
    """

    value: float
    base_chf: float | None
    ml_residual: float | None
    base_solution: HbmSolution | None = None


@dataclass(frozen=True)
class ResidualBuildReport:
    n_records: int
    n_failed: int
    failures: tuple[tuple[int, str], ...] = ()  # (record index, reason)


def _inlet_matrix(x) -> np.ndarray:
    """x as an (n, 5) float64 model-feature matrix; raises the ValueError
    of the first row that InletConditions rejects."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 5:
        raise ValueError(f"expected an (n, 5) model-feature matrix, got shape {x.shape}")
    for i in np.flatnonzero(~_valid_inlet_rows(*x.T)).tolist():
        InletConditions(*x[i].tolist())
    return x


def build_residual_dataset(x, measured, base: str) -> tuple[np.ndarray, ResidualBuildReport]:
    """Residual targets r = measured - base for the rows of the model-feature
    matrix x with measured CHF ``measured``, W/m2.

    Returns an (m, 8) table, one row per solved record in order: the five
    features, base CHF, measured CHF and residual (the columns of the
    prepared residual CSV).  The base value comes from one heat-balance
    solve on columns.  Records where the solve finds no critical
    condition are excluded and counted in the report with their index and
    the failure reason; a row that InletConditions rejects raises its
    ValueError.
    """
    if base not in ("biasi", "bowring"):
        raise ValueError(f"base must be 'biasi' or 'bowring', got {base!r}")
    x = _inlet_matrix(x)
    sol = _solve_rows(base, x, {})
    ok = ~sol.failed
    chf, y = sol.chf[ok], np.asarray(measured, dtype=np.float64)[ok]
    failures = tuple((i, str(sol.error(i))) for i in np.flatnonzero(sol.failed).tolist())
    return np.column_stack([x[ok], chf, y, y - chf]), ResidualBuildReport(
        n_records=len(x), n_failed=len(failures), failures=failures)


def _network(p: ChfPredictor, x: np.ndarray) -> list[float]:
    """The network's output for each row of the feature matrix x, zeros
    for base kinds, as Python floats (whose repr the CSV writers print)."""
    if p.model is None or not len(x):
        return [0.0] * len(x)
    # one batch: the forward pass is bit-stable across batch sizes
    return forward_batch(p.model, x).tolist()


def _solve_rows(base: str, x: np.ndarray, h_fg: dict[float, float]) -> _HbmColumns:
    """Heat-balance solve of ``base`` on every row of the feature matrix x
    (valid rows); ``h_fg`` maps pressure to latent heat, J/kg, and gains
    the pressures it lacks from one saturation-state call."""
    d, length, p, g, dh = x.T
    pressures = p.tolist()
    missing = list(dict.fromkeys(v for v in pressures if v not in h_fg))
    if missing:
        h_fg.update(zip(missing, fluid.saturation_state(np.array(missing)).h_fg.tolist()))
    return _solve_columns(base, d, length, p, g, dh,
                          np.array([h_fg[v] for v in pressures], dtype=np.float64))


def predict_batch(p: ChfPredictor, x) -> list[Prediction | Exception]:
    """CHF from inlet conditions, given as the rows of an (n, 5) model-feature
    matrix (diameter, heated length, pressure, mass flux, inlet subcooling;
    SI): per row, in order, a Prediction or the NoCriticalConditionError
    its heat-balance solve raised.  One saturation-state call over the
    distinct pressures, one heat-balance solve on columns, one network
    batch."""
    x = _inlet_matrix(x)
    net = _network(p, x)
    if p.kind == "pure_ml":
        return [Prediction(value=r, base_chf=None, ml_residual=None) for r in net]
    # base kinds have r = 0.0, and chf + 0.0 is chf (chf > 0)
    return [s if isinstance(s, Exception) else
            Prediction(value=s.chf + r, base_chf=s.chf, ml_residual=r, base_solution=s)
            for s, r in zip(_solve_rows(_BASE_OF_KIND[p.kind], x, {}).outcomes(), net)]


def predict(p: ChfPredictor, c: InletConditions) -> Prediction:
    """``predict_batch`` on one row, raising the row's error."""
    (out,) = predict_batch(p, [astuple(c)])
    if isinstance(out, Exception):
        raise out
    return out


def node_chf(p: ChfPredictor, c: InletConditions, h_fg: float,
             heights: Sequence[float], qualities: Sequence[float]) -> list[float | None]:
    """Raw CHF, W/m2, at every node of a channel march.

    ``c`` holds the channel's inlet conditions and ``h_fg`` the latent
    heat at its pressure, J/kg.  In "hbm" mode node i is the exit of a
    tube of length ``heights[i]`` (the critical-length convention), so
    its value does not depend on the wall flux; it is that tube's
    ``predict_batch`` value, or None where the heat-balance solve finds
    no critical condition, and all nodes are solved in one call.  In
    "dsm" mode the base correlation is evaluated at ``qualities[i]``
    clipped to its validity window [-0.5, 1.0], in one call over the
    nodes; the network features are the inlet conditions, so the
    network runs on one row.  Each mode reads only its own node
    sequence.  Values may be nonpositive (callers clamp and flag); for
    hybrid kinds each is base + residual.
    """
    row = np.array([astuple(c)], dtype=np.float64)
    if p.solve_mode == "hbm":
        x = np.repeat(row, len(heights), axis=0)
        x[:, 1] = heights
        x = _inlet_matrix(x)
        net = _network(p, x)
        if p.kind == "pure_ml":
            return net
        sol = _solve_rows(_BASE_OF_KIND[p.kind], x, {c.pressure: h_fg})
        return [None if failed else chf + r
                for chf, failed, r in zip(sol.chf.tolist(), sol.failed.tolist(), net)]
    r = _network(p, row)[0]
    if p.kind == "pure_ml":
        return [r] * len(qualities)
    branches = _branches(_BASE_OF_KIND[p.kind], *_row(c.diameter, c.mass_flux, c.pressure, h_fg))
    x_clip = np.minimum(np.maximum(np.array(qualities, dtype=np.float64), QUALITY_MIN),
                        QUALITY_MAX)
    values = _flux(branches, x_clip).tolist()
    return values if p.model is None else [v + r for v in values]
