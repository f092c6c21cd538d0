"""Base-correlation + residual-network CHF predictors.

A hybrid predictor corrects a physics correlation with a small network
trained on the correlation's residuals: during data preparation the
target is r = y_measured - y_base, and at prediction time the deployed
value is y = y_base + r_hat.  The network sees only the raw five-part
input vector (diameter, heated length, pressure, mass flux, inlet
subcooling) — never the base model's output — so the corrector stays
independent of the base model's scale.

Two evaluation surfaces:

* ``predict`` works from inlet conditions and resolves the base
  correlation with the heat-balance solve (the critical length equals
  the heated length).  With nothing but inlet conditions there is no
  operating heat flux to define local conditions, so this surface is
  the same for both solve modes.
* ``node_chf`` rates every node of a channel march at once.  In "hbm"
  solve mode node z is the exit of a tube of length z; in "dsm" mode
  the base correlation is evaluated directly at the node's local
  quality.  The network runs as one batch over the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .correlations import (
    QUALITY_MAX,
    QUALITY_MIN,
    HbmSolution,
    InletConditions,
    NoCriticalConditionError,
    _branches,
    _flux,
    _solve_hbm,
    solve_hbm,
)
from .mlp import Mlp, forward, forward_batch

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


def _features_of(c: InletConditions) -> tuple[float, float, float, float, float]:
    return (c.diameter, c.heated_length, c.pressure, c.mass_flux, c.inlet_subcooling)


def build_residual_dataset(
    records, base: str
) -> tuple[list[ResidualRecord], ResidualBuildReport]:
    """Residual targets r = measured - base for a list of ChfRecord.

    The base value comes from the heat-balance solve.  Records where the
    solve finds no critical condition are excluded and counted in the
    report with their index and the failure reason.
    """
    if base not in ("biasi", "bowring"):
        raise ValueError(f"base must be 'biasi' or 'bowring', got {base!r}")
    out: list[ResidualRecord] = []
    failures: list[tuple[int, str]] = []
    for i, rec in enumerate(records):
        c = InletConditions(
            diameter=rec.diameter, heated_length=rec.heated_length,
            pressure=rec.pressure, mass_flux=rec.mass_flux,
            inlet_subcooling=rec.inlet_subcooling,
        )
        try:
            sol = solve_hbm(base, c)
        except NoCriticalConditionError as e:
            failures.append((i, str(e)))
            continue
        out.append(ResidualRecord(
            features=_features_of(c),
            base_chf=sol.chf,
            measured_chf=rec.measured_chf,
            residual=rec.measured_chf - sol.chf,
        ))
    return out, ResidualBuildReport(
        n_records=len(records), n_failed=len(failures), failures=tuple(failures)
    )


def residual_features(records: list[ResidualRecord]) -> np.ndarray:
    return np.array([r.features for r in records], dtype=np.float64)


def residual_targets(records: list[ResidualRecord]) -> np.ndarray:
    return np.array([r.residual for r in records], dtype=np.float64)


def predict(p: ChfPredictor, c: InletConditions) -> Prediction:
    """CHF from inlet conditions.

    Base and hybrid kinds solve the heat balance for the base value
    (propagating its no-critical-condition failure); pure-ML kinds
    evaluate the network alone and cannot fail that way.
    """
    feats = _features_of(c)
    if p.kind == "pure_ml":
        return Prediction(value=forward(p.model, feats), base_chf=None, ml_residual=None)
    sol = solve_hbm(_BASE_OF_KIND[p.kind], c)
    if p.kind.startswith("base_"):
        return Prediction(value=sol.chf, base_chf=sol.chf, ml_residual=0.0,
                          base_solution=sol)
    r = forward(p.model, feats)
    return Prediction(value=sol.chf + r, base_chf=sol.chf, ml_residual=r,
                      base_solution=sol)


def node_chf(p: ChfPredictor, c: InletConditions, h_fg: float,
             heights: Sequence[float], qualities: Sequence[float]) -> list[float | None]:
    """Raw CHF, W/m2, at every node of a channel march.

    ``c`` holds the channel's inlet conditions and ``h_fg`` the latent
    heat at its pressure, J/kg.  In "hbm" mode node i is the exit of a
    tube of length ``heights[i]`` (the critical-length convention), so
    its value does not depend on the wall flux; the heat-balance solve
    gives None where it finds no critical condition, and the network
    features carry the node's length.  In "dsm" mode the base
    correlation is evaluated at ``qualities[i]`` clipped to its validity
    window [-0.5, 1.0]; the network features are the inlet conditions,
    so the network runs on one row.  Each mode reads only its own node
    sequence.  Values may be nonpositive (callers clamp and flag); for
    hybrid kinds each is base + residual, as in ``predict``.
    """
    hbm = p.solve_mode == "hbm"
    nodes = [replace(c, heated_length=z) for z in heights] if hbm else [c]
    net = None
    if p.model is not None:
        # one batch (the forward pass is bit-stable across batch sizes);
        # tolist gives Python floats, whose repr the CSV writers print
        net = forward_batch(p.model, np.array([_features_of(n) for n in nodes])).tolist()
        if not hbm:
            net *= len(qualities)
        if p.kind == "pure_ml":
            return net
    base = _BASE_OF_KIND[p.kind]
    values: list[float | None] = []
    if hbm:
        for n in nodes:
            try:
                values.append(_solve_hbm(base, n, h_fg).chf)
            except NoCriticalConditionError:
                values.append(None)
    else:
        branches = _branches(base, c.diameter, c.mass_flux, c.pressure, h_fg)
        values = [_flux(branches, min(max(x, QUALITY_MIN), QUALITY_MAX)) for x in qualities]
    if net is None:
        return values
    return [None if v is None else v + r for v, r in zip(values, net)]
