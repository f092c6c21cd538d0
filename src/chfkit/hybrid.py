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
  solve (the critical length equals the heated length) and returns
  ``Predictions``, one column per field; ``predict`` is its one-row
  call on an ``InletConditions``.
* ``node_chf`` rates every node of many channel marches together (NaN
  on a failed node): node z is the exit of a tube of length z with its
  channel's inlet state, so its value does not depend on the wall flux.
* ``build_residual_dataset`` takes the base CHF of every row from the
  same solve and returns the residual table as one (m, 8) array.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

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
    "node_chf",
]

PREDICTOR_KINDS = ("base_biasi", "base_bowring", "pure_ml", "hybrid_biasi", "hybrid_bowring")
NODE_BATCH = 4096  # most node rows per heat-balance solve and network batch in node_chf

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
    heat-balance solve failed, or the sum or network output is not
    finite; ``error(i)`` says which.  ``base`` holds the columns of that
    solve, None for pure_ml.
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
        return FloatingPointError(f"non-finite network output ({self.ml_residual[i].item()!r})")


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


def _predictions(p: ChfPredictor, x, h_fg: dict[float, float]) -> Predictions:
    """``predict_batch`` with ``h_fg`` as in ``_solve_rows``."""
    x = _inlet_matrix(x)
    # one batch: the forward pass is bit-stable across batch sizes
    net = forward_batch(p.model, x) if p.model is not None and len(x) else np.zeros(len(x))
    sol = None if p.kind == "pure_ml" else _solve_rows(_BASE_OF_KIND[p.kind], x, h_fg)
    # base kinds have r = 0.0, and chf + 0.0 is chf (chf > 0)
    value = net if sol is None else np.where(sol.failed, np.nan, sol.chf + net)
    return Predictions(value=np.where(np.isfinite(value), value, np.nan), ml_residual=net,
                       base=sol)


def predict_batch(p: ChfPredictor, x) -> Predictions:
    """CHF from inlet conditions, given as the rows of an (n, 5) model-feature
    matrix (diameter, heated length, pressure, mass flux, inlet subcooling;
    SI): one saturation-state call, one heat-balance solve, one network batch."""
    return _predictions(p, x, {})


def predict(p: ChfPredictor, c: InletConditions) -> float:
    """``predict_batch`` on one row: its value, or its error raised."""
    out = predict_batch(p, [astuple(c)])
    if out.failed[0]:
        raise out.error(0)
    return out.value[0].item()


def node_chf(p: ChfPredictor, channels: Sequence[tuple[InletConditions, Sequence[float]]],
             h_fg: dict[float, float]) -> list[np.ndarray]:
    """Raw CHF, W/m2, at every node of each channel march, one float64 array per channel.

    A channel is its inlet conditions and node heights, m; ``h_fg`` is as
    in ``_solve_rows``.  Node i is the exit of a tube of length
    ``heights[i]`` (the critical-length convention), so its value does
    not depend on the wall flux; it is that tube's ``predict_batch``
    value, NaN where it failed (the heat-balance solve finds no critical
    condition, or the network output is not finite).  All nodes are
    rated together, ``NODE_BATCH`` rows per call: no row's bits depend on
    its batch.  Values may be nonpositive (callers clamp and flag); for
    hybrid kinds each is base + residual.
    """
    sizes = [len(z) for _, z in channels]
    x = np.repeat(np.array([astuple(c) for c, _ in channels], dtype=np.float64).reshape(-1, 5),
                  sizes, axis=0)
    x[:, 1] = np.concatenate([np.empty(0), *(z for _, z in channels)])
    chf = np.concatenate([np.empty(0), *(_predictions(p, x[k:k + NODE_BATCH], h_fg).value
                                         for k in range(0, len(x), NODE_BATCH))])
    return np.split(chf, np.cumsum(sizes)[:-1]) if sizes else []
