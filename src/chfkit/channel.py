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

Node z is rated as the exit of a tube of length z with the case's inlet
state (the heat-balance method), so a node's CHF does not depend on the
wall flux.  The minimum DNBR at wall flux q is then min(node CHF) / q,
and the critical power — the flux a power-escalation experiment walks
up to, where the minimum DNBR reaches 1 — is exactly the smallest node
CHF: ``find_critical_power`` reads it from a profile's node CHF vector
without re-rating the channel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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

    ``node_chf`` holds the predictor's raw value per node (None where
    the heat-balance solve finds no critical condition); it does not
    depend on the wall flux.  ``chf_local`` stores dnbr * wall flux (the
    extraction identity holds bit-exactly), except at zero wall flux,
    where dnbr is the +inf sentinel and chf_local keeps the predictor's
    raw value.  Nodes where the predictor produced no usable CHF
    (nonpositive, or no critical condition) carry dnbr = 0 and appear
    in ``flagged_nodes``.
    """

    case: ChannelCase
    heights: tuple[float, ...]        # m
    enthalpies: tuple[float, ...]     # J/kg
    qualities: tuple[float, ...]
    dnbr: tuple[float, ...]
    chf_local: tuple[float, ...]      # W/m^2
    flagged_nodes: tuple[int, ...]
    node_chf: tuple[float | None, ...]  # W/m^2

    @property
    def min_dnbr(self) -> float:
        return min(self.dnbr)

    @property
    def min_dnbr_node(self) -> int:
        return min(range(len(self.dnbr)), key=lambda i: (self.dnbr[i], i))


@dataclass(frozen=True)
class CriticalPowerResult:
    """Outcome of a critical-power search.

    ``min_dnbr`` is the profile's minimum DNBR rated at
    ``wall_heat_flux``, which is 1.0.  ``iterations`` is always 0: the
    critical flux is a closed form, not a search.
    """

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


def _rate(chf: tuple[float | None, ...], q: float) -> tuple[list[float], list[float], list[int]]:
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
    sentinel.  Each node is treated as the exit of a tube of length z
    (the critical-length convention).
    """
    sat = fluid.saturation_state(case.pressure)
    q, g, d = case.wall_heat_flux, case.mass_flux, case.diameter
    n, length = case.n_axial, case.heated_length
    # centers, but the last node is pinned to the exit
    heights = tuple(length if i == n - 1 else (i + 0.5) * length / n for i in range(n))
    h_in = sat.h_f - case.inlet_subcooling
    enthalpies = tuple(h_in + 4.0 * q * z / (g * d) for z in heights)
    qualities = tuple((h - sat.h_f) / sat.h_fg for h in enthalpies)
    chf = tuple(node_chf(pred, case.inlet_conditions(), sat.h_fg, heights))
    dnbr, chf_local, flagged = _rate(chf, q)
    return AxialProfile(
        case=case, heights=heights, enthalpies=enthalpies, qualities=qualities,
        dnbr=tuple(dnbr), chf_local=tuple(chf_local), flagged_nodes=tuple(flagged),
        node_chf=chf,
    )


def find_critical_power(profile: AxialProfile,
                        bracket: tuple[float, float]) -> CriticalPowerResult:
    """Wall heat flux at which the profile's channel reaches min DNBR = 1.

    The profile's wall flux does not matter: its node CHF is rated at
    both ends of the bracket (q_lo, q_hi), which must satisfy
    min-DNBR(q_lo) > 1 > min-DNBR(q_hi).  The critical flux is then the
    smallest node CHF and the limiting node the first node that has it.
    """
    q_lo, q_hi = bracket
    if not 0.0 < q_lo < q_hi:
        raise ValueError(f"bracket must satisfy 0 < q_lo < q_hi, got {bracket}")
    chf = profile.node_chf
    dnbr_lo = min(_rate(chf, q_lo)[0])
    dnbr_hi = min(_rate(chf, q_hi)[0])
    if not (dnbr_lo > 1.0 > dnbr_hi):
        raise BracketError("bracket does not straddle the critical condition",
                           dnbr_lo, dnbr_hi)
    # every node CHF is positive here, else dnbr_lo would be 0
    q = min(chf)
    return CriticalPowerResult(wall_heat_flux=q, limiting_node=chf.index(q),
                               min_dnbr=min(_rate(chf, q)[0]), iterations=0)
