"""Base-correlation + residual-network CHF predictors.

A hybrid predictor corrects a physics correlation with a small network
trained on the correlation's residuals: during training the
target is r = y_measured - y_base, and at prediction time the deployed
value is y = y_base + r_hat.  The network sees only the raw five-part
input vector (diameter, heated length, pressure, mass flux, inlet
subcooling) — never the base model's output — so the corrector stays
independent of the base model's scale.

The batch interface is the (n, 5) model-feature matrix: one row per
record, SI units, in the order of ``data.MODEL_FEATURES`` (the fields
of ``InletConditions``).  Every CHF value comes from one core on it: at
most one saturation-state call over its distinct pressures, one
heat-balance solve on its columns (``correlations._solve_columns``) and
one network batch.

* ``predict_batch`` resolves the base correlation with the heat-balance
  solve (the critical length equals the heated length) and returns
  ``Predictions``, one column per field, NaN where no positive finite
  CHF came out; ``predict`` is its one-row call on an
  ``InletConditions``.  ``channel.rate_nodes`` rates channel nodes
  through it.
* ``build_residual_dataset`` takes the base CHF of every row from the
  same solve and returns the residual table as one (m, 8) array.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from . import fluid
from .correlations import (
    InletConditions,
    _HbmColumns,
    _solve_columns,
    _valid_inlet_rows,
)
from .mlp import Mlp, forward_batch

__all__ = [
    "PREDICTOR_KINDS",
    "ChfPredictor",
    "Predictions",
    "ResidualBuildReport",
    "build_residual_dataset",
    "predict",
    "predict_batch",
]

PREDICTOR_KINDS = ("base_biasi", "base_bowring", "pure_ml", "hybrid_biasi", "hybrid_bowring")

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

    def __post_init__(self) -> None:
        if self.kind not in PREDICTOR_KINDS:
            raise ValueError(f"kind must be one of {PREDICTOR_KINDS}, got {self.kind!r}")
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
class Predictions:
    """The CHF predictions of a batch of rows, one column per field, W/m2.

    ``value`` is base CHF + ``ml_residual`` for hybrid kinds (computed as
    that sum), the base CHF for base kinds (whose residual is 0) and the
    network output for pure_ml; it is NaN on the rows that failed: their
    heat-balance solve failed, the network output is not finite, or the
    value is not positive and finite; ``error(i)`` says which.  ``base``
    holds the columns of that solve, None for pure_ml.
    """

    value: np.ndarray
    ml_residual: np.ndarray
    base: _HbmColumns | None

    def __len__(self) -> int:
        return len(self.value)

    @property
    def failed(self) -> np.ndarray:
        return np.isnan(self.value)

    def error(self, i: int) -> Exception:
        """Why row i failed."""
        if self.base is not None and self.base.failed[i]:
            return self.base.error(i)
        r = self.ml_residual[i].item()
        if not np.isfinite(r):
            return FloatingPointError(f"non-finite network output ({r!r})")
        v = r if self.base is None else self.base.chf[i].item() + r
        return FloatingPointError(f"CHF prediction {v!r} W/m2 is not positive and finite")


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
    derived residual training schema).  The base value comes from one
    heat-balance solve on columns.  Records where the solve finds no
    critical condition are excluded and counted in the report with
    their index and the failure reason; a row that InletConditions
    rejects raises its ValueError.
    """
    if base not in ("biasi", "bowring"):
        raise ValueError(f"base must be 'biasi' or 'bowring', got {base!r}")
    x = _inlet_matrix(x)
    sol = _solve_rows(base, x)
    ok = ~sol.failed
    chf, y = sol.chf[ok], np.asarray(measured, dtype=np.float64)[ok]
    failures = tuple((i, str(sol.error(i))) for i in np.flatnonzero(sol.failed).tolist())
    return np.column_stack([x[ok], chf, y, y - chf]), ResidualBuildReport(
        n_records=len(x), n_failed=len(failures), failures=failures)


def _solve_rows(base: str, x: np.ndarray) -> _HbmColumns:
    """Heat-balance solve of ``base`` on every row of the feature matrix x
    (valid rows), with the latent heats of one saturation-state call over
    its distinct pressures (none for no rows)."""
    d, length, p, g, dh = x.T
    h_fg = np.empty(0)
    if len(p):
        pressures, at = np.unique(p, return_inverse=True)
        h_fg = fluid.saturation_state(pressures).h_fg[at]
    return _solve_columns(base, d, length, p, g, dh, h_fg)


def predict_batch(p: ChfPredictor, x) -> Predictions:
    """CHF from inlet conditions, given as the rows of an (n, 5) model-feature
    matrix (diameter, heated length, pressure, mass flux, inlet subcooling;
    SI): one saturation-state call, one heat-balance solve, one network batch.
    A value that is not positive and finite is NaN (a failed row)."""
    x = _inlet_matrix(x)
    # one batch: the forward pass is bit-stable across batch sizes
    net = forward_batch(p.model, x) if p.model is not None and len(x) else np.zeros(len(x))
    sol = None if p.kind == "pure_ml" else _solve_rows(_BASE_OF_KIND[p.kind], x)
    # base kinds have r = 0.0, and chf + 0.0 is chf (chf > 0)
    value = net if sol is None else np.where(sol.failed, np.nan, sol.chf + net)
    return Predictions(value=np.where((value > 0.0) & (value < np.inf), value, np.nan),
                       ml_residual=net, base=sol)


def predict(p: ChfPredictor, c: InletConditions) -> float:
    """``predict_batch`` on one row: its value, or its error raised."""
    out = predict_batch(p, [astuple(c)])
    if out.failed[0]:
        raise out.error(0)
    return out.value[0].item()
