"""Steady-state 1-D heated-channel model.

A uniformly heated vertical tube at constant pressure: the enthalpy
march h(z) = h_in + 4 q'' z / (G D) gives each axial node an equilibrium
quality, every node gets a CHF estimate from a ChfPredictor, and the
node-wise DNBR = CHF / q'' locates the limiting position.  Multiplying
DNBR back by the local heat flux recovers the CHF — the extraction rule
used when post-processing subchannel results.

Node convention: nodes sit at centers (i + 1/2) L / n, except the last
node, which sits exactly at the exit z = L.  Placing the final node on
the boundary makes the exit quality equal the heat-balance evaluation
at the full heated length and keeps the exit state independent of the
node count.

The critical-power search mirrors a power-escalation experiment: walk
the wall heat flux up until the minimum DNBR crosses 1 (here by
bisection on a user bracket).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from . import fluid
from .correlations import InletConditions, NoCriticalConditionError
from .hybrid import ChfPredictor, predict, predict_at_quality

__all__ = [
    "ChannelCase",
    "AxialProfile",
    "CriticalPowerResult",
    "BracketError",
    "solve_channel",
    "extract_chf",
    "find_critical_power",
]


@dataclass(frozen=True)
class ChannelCase:
    """Uniformly heated tube operating point."""

    diameter: float            # m
    heated_length: float       # m
    pressure: float            # Pa
    mass_flux: float           # kg/(m^2 s)
    inlet_subcooling: float    # J/kg
    wall_heat_flux: float      # W/m^2, uniform
    n_axial: int = 60

    def __post_init__(self) -> None:
        for name in ("diameter", "heated_length", "pressure", "mass_flux"):
            v = getattr(self, name)
            if not v > 0.0 or not math.isfinite(v):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if not math.isfinite(self.inlet_subcooling):
            raise ValueError(f"inlet_subcooling must be finite, got {self.inlet_subcooling!r}")
        if not self.wall_heat_flux >= 0.0:
            raise ValueError(f"wall_heat_flux must be >= 0, got {self.wall_heat_flux!r}")
        if not isinstance(self.n_axial, numbers.Integral):
            raise ValueError(f"n_axial must be an integer, got {self.n_axial!r}")
        if self.n_axial < 2:
            raise ValueError(f"n_axial must be >= 2, got {self.n_axial}")

    def inlet_conditions(self, heated_length: float | None = None) -> InletConditions:
        return InletConditions(
            diameter=self.diameter,
            heated_length=self.heated_length if heated_length is None else heated_length,
            pressure=self.pressure,
            mass_flux=self.mass_flux,
            inlet_subcooling=self.inlet_subcooling,
        )


@dataclass(frozen=True)
class AxialProfile:
    """Node-wise channel state.

    ``chf_local`` stores dnbr * wall flux (the extraction identity holds
    bit-exactly), except at zero wall flux, where dnbr is the +inf
    sentinel and chf_local keeps the predictor's raw value.  Nodes where
    the predictor produced no usable CHF (nonpositive, or no critical
    condition) carry dnbr = 0 and appear in ``flagged_nodes``.
    """

    case: ChannelCase
    heights: tuple[float, ...]        # m
    enthalpies: tuple[float, ...]     # J/kg
    qualities: tuple[float, ...]
    dnbr: tuple[float, ...]
    chf_local: tuple[float, ...]      # W/m^2
    flagged_nodes: tuple[int, ...]

    @property
    def min_dnbr(self) -> float:
        return min(self.dnbr)

    @property
    def min_dnbr_node(self) -> int:
        return min(range(len(self.dnbr)), key=lambda i: (self.dnbr[i], i))


@dataclass(frozen=True)
class CriticalPowerResult:
    wall_heat_flux: float     # W/m^2 at min-DNBR = 1
    limiting_node: int
    min_dnbr: float
    iterations: int


class BracketError(ValueError):
    """Critical-power bracket does not straddle min-DNBR = 1."""

    def __init__(self, message: str, dnbr_lo: float, dnbr_hi: float):
        super().__init__(f"{message} (min DNBR {dnbr_lo:.6g} at q_lo, {dnbr_hi:.6g} at q_hi)")
        self.dnbr_lo = dnbr_lo
        self.dnbr_hi = dnbr_hi


def _node_heights(length: float, n: int) -> tuple[float, ...]:
    # centers, but the last node is pinned to the exit
    return tuple(
        length if i == n - 1 else (i + 0.5) * length / n for i in range(n)
    )


def solve_channel(case: ChannelCase, pred: ChfPredictor) -> AxialProfile:
    """March the channel and rate every node against the predictor.

    DNBR is CHF / wall flux with nonpositive CHF clamped to zero (and
    the node flagged); at zero wall flux every node reports the +inf
    sentinel.  In "hbm" solve mode each node is treated as the exit of
    a tube of length z (the critical-length convention); in "dsm" mode
    the predictor is evaluated at the node's local equilibrium quality.
    """
    sat = fluid.saturation_state(case.pressure)
    h_in = sat.h_f - case.inlet_subcooling
    g, d, q = case.mass_flux, case.diameter, case.wall_heat_flux
    heights = _node_heights(case.heated_length, case.n_axial)

    enthalpies = tuple(h_in + 4.0 * q * z / (g * d) for z in heights)
    qualities = tuple((h - sat.h_f) / sat.h_fg for h in enthalpies)

    dnbr: list[float] = []
    chf_local: list[float] = []
    flagged: list[int] = []
    for i, z in enumerate(heights):
        try:
            if pred.solve_mode == "dsm":
                chf = predict_at_quality(pred, case.inlet_conditions(), qualities[i]).value
            else:
                chf = predict(pred, case.inlet_conditions(heated_length=z)).value
        except NoCriticalConditionError:
            flagged.append(i)
            dnbr.append(0.0)
            chf_local.append(0.0)
            continue
        if q == 0.0:
            dnbr.append(math.inf)
            chf_local.append(chf)
            continue
        if chf <= 0.0:
            flagged.append(i)
            dnbr.append(0.0)
            chf_local.append(0.0)
            continue
        ratio = chf / q
        dnbr.append(ratio)
        chf_local.append(ratio * q)  # extraction identity, bit-exact
    return AxialProfile(
        case=case, heights=heights, enthalpies=enthalpies, qualities=qualities,
        dnbr=tuple(dnbr), chf_local=tuple(chf_local), flagged_nodes=tuple(flagged),
    )


def extract_chf(profile: AxialProfile, node: int) -> float:
    """CHF at a node as DNBR x local heat flux (the §-style extraction).

    Equals the stored chf_local bit-exactly; clamped nodes give 0; at
    zero wall flux the stored predictor value is returned unchanged.
    """
    n = len(profile.dnbr)
    if not 0 <= node < n:
        raise IndexError(f"node {node} out of range for {n}-node profile")
    q = profile.case.wall_heat_flux
    if q == 0.0:
        return profile.chf_local[node]
    return profile.dnbr[node] * q


def find_critical_power(
    case: ChannelCase,
    pred: ChfPredictor,
    bracket: tuple[float, float],
    tol: float = 1e-6,
    max_iter: int = 100,
) -> CriticalPowerResult:
    """Wall heat flux at which the channel's minimum DNBR reaches 1.

    ``case.wall_heat_flux`` is ignored; the bracket (q_lo, q_hi) must
    satisfy min-DNBR(q_lo) > 1 > min-DNBR(q_hi).  Bisection to
    |min DNBR - 1| < tol, at most ``max_iter`` iterations.
    """
    q_lo, q_hi = bracket
    if not 0.0 < q_lo < q_hi:
        raise ValueError(f"bracket must satisfy 0 < q_lo < q_hi, got {bracket}")

    def min_dnbr_at(q: float) -> AxialProfile:
        return solve_channel(replace(case, wall_heat_flux=q), pred)

    lo_prof = min_dnbr_at(q_lo)
    hi_prof = min_dnbr_at(q_hi)
    if not (lo_prof.min_dnbr > 1.0 > hi_prof.min_dnbr):
        raise BracketError("bracket does not straddle the critical condition",
                           lo_prof.min_dnbr, hi_prof.min_dnbr)

    best = lo_prof
    q_mid = q_lo
    for it in range(1, max_iter + 1):
        q_mid = 0.5 * (q_lo + q_hi)
        prof = min_dnbr_at(q_mid)
        best = prof
        if abs(prof.min_dnbr - 1.0) < tol:
            return CriticalPowerResult(
                wall_heat_flux=q_mid, limiting_node=prof.min_dnbr_node,
                min_dnbr=prof.min_dnbr, iterations=it,
            )
        if prof.min_dnbr > 1.0:
            q_lo = q_mid
        else:
            q_hi = q_mid
    return CriticalPowerResult(
        wall_heat_flux=q_mid, limiting_node=best.min_dnbr_node,
        min_dnbr=best.min_dnbr, iterations=max_iter,
    )
