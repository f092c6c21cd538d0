"""Base-correlation + residual-network CHF predictors.

A hybrid predictor corrects a physics correlation with a small network
trained on the correlation's residuals: during data preparation the
target is r = y_measured - y_base, and at prediction time the deployed
value is y = y_base + r_hat.  The network sees only the raw five-part
input vector (diameter, heated length, pressure, mass flux, inlet
subcooling) — never the base model's output — so the corrector stays
independent of the base model's scale.

Two evaluation surfaces share one core:

* ``predict_batch`` works from inlet conditions and resolves the base
  correlation with the heat-balance solve (the critical length equals
  the heated length), one outcome per row.  With nothing but inlet
  conditions there is no operating heat flux to define local
  conditions, so this surface is the same for both solve modes.
* ``node_chf`` rates every node of a channel march at once.  In "hbm"
  solve mode node z is the exit of a tube of length z; in "dsm" mode
  the base correlation is evaluated directly at the node's local
  quality.  The network runs as one batch over the rows or nodes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import fluid
from .correlations import (
    QUALITY_MAX,
    QUALITY_MIN,
    HbmSolution,
    InletConditions,
    NoCriticalConditionError,
    _branches,
    _flux,
    _solve_hbm,
)
from .data import MODEL_FEATURES
from .mlp import Mlp, forward_batch

__all__ = [
    "PREDICTOR_KINDS",
    "SOLVE_MODES",
    "ChfPredictor",
    "Prediction",
    "ResidualRecord",
    "ResidualBuildReport",
    "build_residual_dataset",
    "residual_features",
    "residual_targets",
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
class ResidualRecord:
    """One residual-training row: raw features, base output, target."""

    features: tuple[float, float, float, float, float]  # D, L, P, G, dh_sub
    base_chf: float
    measured_chf: float
    residual: float  # measured_chf - base_chf

    def __post_init__(self) -> None:
        if self.residual != self.measured_chf - self.base_chf:
            raise ValueError("residual must equal measured_chf - base_chf exactly")


@dataclass(frozen=True)
class ResidualBuildReport:
    n_records: int
    n_failed: int
    failures: tuple[tuple[int, str], ...] = ()  # (record index, reason)


# model features of a ChfRecord or InletConditions (whose fields they are, in order)
_features_of = operator.attrgetter(*MODEL_FEATURES)


def build_residual_dataset(
    records, base: str
) -> tuple[list[ResidualRecord], ResidualBuildReport]:
    """Residual targets r = measured - base for a list of ChfRecord.

    The base value comes from the heat-balance solve.  Records where the
    solve finds no critical condition are excluded and counted in the
    report with their index and the failure reason; other errors raise.
    """
    if base not in ("biasi", "bowring"):
        raise ValueError(f"base must be 'biasi' or 'bowring', got {base!r}")
    conds = [InletConditions(*_features_of(rec)) for rec in records]
    outcomes = predict_batch(ChfPredictor(kind=f"base_{base}"), conds)
    out: list[ResidualRecord] = []
    failures: list[tuple[int, str]] = []
    for i, (rec, c, o) in enumerate(zip(records, conds, outcomes)):
        if isinstance(o, NoCriticalConditionError):
            failures.append((i, str(o)))
            continue
        if isinstance(o, Exception):
            raise o
        out.append(ResidualRecord(
            features=_features_of(c),
            base_chf=o.base_chf,
            measured_chf=rec.measured_chf,
            residual=rec.measured_chf - o.base_chf,
        ))
    return out, ResidualBuildReport(
        n_records=len(records), n_failed=len(failures), failures=tuple(failures)
    )


def residual_features(records: list[ResidualRecord]) -> np.ndarray:
    return np.array([r.features for r in records], dtype=np.float64)


def residual_targets(records: list[ResidualRecord]) -> np.ndarray:
    return np.array([r.residual for r in records], dtype=np.float64)


def _network(p: ChfPredictor, conds: Sequence[InletConditions]) -> list[float]:
    """The network's output for each row, zeros for base kinds, as Python
    floats (whose repr the CSV writers print)."""
    if p.model is None or not conds:
        return [0.0] * len(conds)
    # one batch: the forward pass is bit-stable across batch sizes
    x = np.array([_features_of(c) for c in conds], dtype=np.float64)
    return forward_batch(p.model, x).tolist()


def _solve_rows(p: ChfPredictor, conds: Sequence[InletConditions],
                h_fg: dict[float, float]) -> list[HbmSolution | Exception]:
    """Base heat-balance solve of each row, or the error it raised; ``h_fg``
    maps pressure to latent heat, J/kg, and gains the pressures it lacks
    from one saturation-state call."""
    base = _BASE_OF_KIND[p.kind]
    missing = list(dict.fromkeys(c.pressure for c in conds if c.pressure not in h_fg))
    if missing:
        h_fg.update(zip(missing, fluid.saturation_state(np.array(missing)).h_fg.tolist()))
    out: list[HbmSolution | Exception] = []
    for c in conds:
        try:
            out.append(_solve_hbm(base, c, h_fg[c.pressure]))
        except NoCriticalConditionError as e:
            out.append(e)
    return out


def predict_batch(p: ChfPredictor,
                  conds: Sequence[InletConditions]) -> list[Prediction | Exception]:
    """CHF from inlet conditions: per row, in order, a Prediction or the
    NoCriticalConditionError its heat-balance solve raised.  One
    saturation-state call over the distinct pressures, one network batch."""
    net = _network(p, conds)
    if p.kind == "pure_ml":
        return [Prediction(value=r, base_chf=None, ml_residual=None) for r in net]
    # base kinds have r = 0.0, and chf + 0.0 is chf (chf > 0)
    return [s if isinstance(s, Exception) else
            Prediction(value=s.chf + r, base_chf=s.chf, ml_residual=r, base_solution=s)
            for s, r in zip(_solve_rows(p, conds, {}), net)]


def predict(p: ChfPredictor, c: InletConditions) -> Prediction:
    """``predict_batch`` on one row, raising the row's error."""
    (out,) = predict_batch(p, [c])
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
    no critical condition.  In "dsm" mode the base correlation is
    evaluated at ``qualities[i]`` clipped to its validity window
    [-0.5, 1.0]; the network features are the inlet conditions, so the
    network runs on one row.  Each mode reads only its own node
    sequence.  Values may be nonpositive (callers clamp and flag); for
    hybrid kinds each is base + residual.
    """
    if p.solve_mode == "hbm":
        nodes = [replace(c, heated_length=z) for z in heights]
        net = _network(p, nodes)
        if p.kind == "pure_ml":
            return net
        return [None if isinstance(s, Exception) else s.chf + r
                for s, r in zip(_solve_rows(p, nodes, {c.pressure: h_fg}), net)]
    r = _network(p, [c])[0]
    if p.kind == "pure_ml":
        return [r] * len(qualities)
    branches = _branches(_BASE_OF_KIND[p.kind], c.diameter, c.mass_flux, c.pressure, h_fg)
    values = [_flux(branches, min(max(x, QUALITY_MIN), QUALITY_MAX)) for x in qualities]
    return values if p.model is None else [v + r for v in values]
