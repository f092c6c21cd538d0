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
bisection on a user bracket).  In "hbm" solve mode a node's CHF does
not depend on the wall flux (node z is rated as the exit of a tube of
length z with the case's inlet state), so the search computes the node
CHF vector once and each bisection step only rates it at the trial
flux.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

from . import fluid
from .correlations import InletConditions
from .hybrid import ChfPredictor, node_chf

__all__ = [
    "ChannelCase",
    "AxialProfile",
    "CriticalPowerResult",
    "BracketError",
    "solve_channel",
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

    @cached_property
    def saturation(self) -> fluid.SaturationState:
        """Saturation state at the case pressure, computed once per case
        (the channel march and the critical-power search both need it)."""
        return fluid.saturation_state(self.pressure)

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
    """Outcome of a critical-power search.

    ``converged`` is False when ``max_iter`` bisection steps ended with
    |min DNBR - 1| still at or above the tolerance; the other fields
    then describe the last step.  ``bracket`` is the final (q_lo, q_hi),
    W/m^2.
    """

    wall_heat_flux: float     # W/m^2 at min-DNBR = 1
    limiting_node: int
    min_dnbr: float
    iterations: int
    converged: bool
    bracket: tuple[float, float]


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


def _march(case: ChannelCase, sat: fluid.SaturationState, q: float
           ) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Node heights, enthalpies and equilibrium qualities at wall flux q."""
    h_in = sat.h_f - case.inlet_subcooling
    g, d = case.mass_flux, case.diameter
    heights = _node_heights(case.heated_length, case.n_axial)
    enthalpies = tuple(h_in + 4.0 * q * z / (g * d) for z in heights)
    qualities = tuple((h - sat.h_f) / sat.h_fg for h in enthalpies)
    return heights, enthalpies, qualities


def _rate(chf: list[float | None], q: float) -> tuple[list[float], list[float], list[int]]:
    """Node DNBR, chf_local and flagged nodes for raw node CHF at wall flux q."""
    dnbr: list[float] = []
    chf_local: list[float] = []
    flagged: list[int] = []
    for i, c in enumerate(chf):
        if c is None:
            flagged.append(i)
            dnbr.append(0.0)
            chf_local.append(0.0)
            continue
        if q == 0.0:
            dnbr.append(math.inf)
            chf_local.append(c)
            continue
        if c <= 0.0:
            flagged.append(i)
            dnbr.append(0.0)
            chf_local.append(0.0)
            continue
        ratio = c / q
        dnbr.append(ratio)
        chf_local.append(ratio * q)  # chf_local == dnbr * q, bit-exact
    return dnbr, chf_local, flagged


def solve_channel(case: ChannelCase, pred: ChfPredictor) -> AxialProfile:
    """March the channel and rate every node against the predictor.

    DNBR is CHF / wall flux with nonpositive CHF clamped to zero (and
    the node flagged); at zero wall flux every node reports the +inf
    sentinel.  In "hbm" solve mode each node is treated as the exit of
    a tube of length z (the critical-length convention); in "dsm" mode
    the predictor is evaluated at the node's local equilibrium quality.
    """
    sat = case.saturation
    q = case.wall_heat_flux
    heights, enthalpies, qualities = _march(case, sat, q)
    chf = node_chf(pred, case.inlet_conditions(), sat.h_fg, heights, qualities)
    dnbr, chf_local, flagged = _rate(chf, q)
    return AxialProfile(
        case=case, heights=heights, enthalpies=enthalpies, qualities=qualities,
        dnbr=tuple(dnbr), chf_local=tuple(chf_local), flagged_nodes=tuple(flagged),
    )


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
    |min DNBR - 1| < tol, at most ``max_iter`` iterations; a search that
    runs out of iterations returns ``converged=False``.
    """
    q_lo, q_hi = bracket
    if not 0.0 < q_lo < q_hi:
        raise ValueError(f"bracket must satisfy 0 < q_lo < q_hi, got {bracket}")

    sat = case.saturation
    inlet = case.inlet_conditions()
    if pred.solve_mode == "hbm":
        hbm_chf = node_chf(pred, inlet, sat.h_fg,
                           _node_heights(case.heated_length, case.n_axial), ())

    def min_dnbr_at(q: float) -> tuple[float, int]:
        if pred.solve_mode == "hbm":
            chf = hbm_chf
        else:
            heights, _, qualities = _march(case, sat, q)
            chf = node_chf(pred, inlet, sat.h_fg, heights, qualities)
        dnbr = _rate(chf, q)[0]
        low = min(dnbr)
        return low, dnbr.index(low)  # the first node at the minimum

    min_dnbr, node = min_dnbr_at(q_lo)
    min_dnbr_hi, _ = min_dnbr_at(q_hi)
    if not (min_dnbr > 1.0 > min_dnbr_hi):
        raise BracketError("bracket does not straddle the critical condition",
                           min_dnbr, min_dnbr_hi)

    q_mid = q_lo
    for it in range(1, max_iter + 1):
        q_mid = 0.5 * (q_lo + q_hi)
        min_dnbr, node = min_dnbr_at(q_mid)
        if abs(min_dnbr - 1.0) < tol:
            return CriticalPowerResult(
                wall_heat_flux=q_mid, limiting_node=node, min_dnbr=min_dnbr,
                iterations=it, converged=True, bracket=(q_lo, q_hi),
            )
        if min_dnbr > 1.0:
            q_lo = q_mid
        else:
            q_hi = q_mid
    return CriticalPowerResult(
        wall_heat_flux=q_mid, limiting_node=node, min_dnbr=min_dnbr,
        iterations=max_iter, converged=False, bracket=(q_lo, q_hi),
    )
