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
(NaN where the predictor failed) without re-rating the channel.  Every
profile field is a float64 array.  ``rate_nodes`` rates the nodes of many
cases together through ``hybrid.predict_batch`` (``simulate`` passes it all
its cases and writes their profiles to one ``profiles.csv``, ``NODE_BATCH``
nodes at a time), and ``solve_channel`` marches one case from its rating.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Sequence

import numpy as np

from . import fluid
from .correlations import InletConditions
from .hybrid import ChfPredictor, predict_batch

__all__ = [
    "ChannelCase",
    "AxialProfile",
    "CriticalPowerResult",
    "BracketError",
    "rate_nodes",
    "solve_channel",
    "find_critical_power",
]

MAX_AXIAL_NODES = 10**6
NODE_BATCH = 4096  # most node rows per predict_batch call in rate_nodes


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
        if not 0.0 <= self.wall_heat_flux < math.inf:
            raise ValueError(f"wall_heat_flux must be >= 0 and finite, got {self.wall_heat_flux!r}")
        if not isinstance(self.n_axial, numbers.Integral):
            raise ValueError(f"n_axial must be an integer, got {self.n_axial!r}")
        if self.n_axial < 2:
            raise ValueError(f"n_axial must be >= 2, got {self.n_axial}")
        if self.n_axial > MAX_AXIAL_NODES:
            raise ValueError(f"n_axial must be <= {MAX_AXIAL_NODES}, got {self.n_axial}")
        fluid._checked(fluid._check_p_sat, np.array([self.pressure]))  # the saturation range
        if not (0.5 * self.heated_length / self.n_axial > 0.0  # node heights (i + 1/2) L / n
                and math.isfinite((self.n_axial - 1.5) * self.heated_length)):
            raise ValueError(f"heated_length {self.heated_length!r} puts a node at height 0 or inf")

    def inlet_conditions(self) -> InletConditions:
        return InletConditions(diameter=self.diameter, heated_length=self.heated_length,
                               pressure=self.pressure, mass_flux=self.mass_flux,
                               inlet_subcooling=self.inlet_subcooling)


@dataclass(frozen=True, eq=False)
class AxialProfile:
    """Node-wise channel state, one float64 array per field.

    ``node_chf`` holds the predictor's value per node, NaN where it gave
    no positive finite CHF; it does not depend on the wall flux.
    ``chf_local`` stores dnbr * wall flux (the extraction identity holds
    bit-exactly), except at zero wall flux, where dnbr is the +inf
    sentinel and chf_local keeps the predictor's value.  Nodes with NaN
    CHF carry dnbr = 0 and chf_local = 0 at every wall flux, and their
    indices appear in ``flagged_nodes``.
    """

    case: ChannelCase
    heights: np.ndarray        # m
    enthalpies: np.ndarray     # J/kg
    qualities: np.ndarray
    dnbr: np.ndarray
    chf_local: np.ndarray      # W/m^2
    flagged_nodes: np.ndarray  # int
    node_chf: np.ndarray       # W/m^2

    @property
    def min_dnbr(self) -> float:
        return self.dnbr.min().item()

    @property
    def min_dnbr_node(self) -> int:
        return int(self.dnbr.argmin())  # the first node at the minimum


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


def _rate(chf: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node DNBR, chf_local and flagged nodes for raw node CHF at wall flux q."""
    flagged = np.isnan(chf)  # node CHF is positive and finite or NaN
    if q == 0.0:
        dnbr, chf_local = math.inf, chf
    else:
        dnbr = chf / q
        chf_local = dnbr * q  # chf_local == dnbr * q, bit-exact
    return (np.where(flagged, 0.0, dnbr), np.where(flagged, 0.0, chf_local),
            np.flatnonzero(flagged))


def rate_nodes(cases: Sequence[ChannelCase], pred: ChfPredictor) -> Iterator[tuple]:
    """Each case's rating for ``solve_channel``, in turn: its node heights,
    h_f, h_fg and node CHF.

    Node z is rated as the exit of a tube of length z with the case's
    inlet state: its CHF is the ``predict_batch`` value of that tube's
    feature row, NaN where it failed.  The cases whose first node falls in
    one window of ``NODE_BATCH`` nodes share one saturation-state call and
    one node matrix, passed to ``predict_batch`` ``NODE_BATCH`` rows at a
    time (no row's bits depend on its batch), so the memory does not grow
    with the number of cases."""
    first_node = np.cumsum([0, *(c.n_axial for c in cases)])[:-1].tolist()
    for _, members in groupby(zip(first_node, cases), key=lambda m: m[0] // NODE_BATCH):
        group = [c for _, c in members]
        sat = fluid.saturation_state(np.array([c.pressure for c in group], dtype=np.float64))
        heights = [np.append((np.arange(c.n_axial - 1) + 0.5) * c.heated_length / c.n_axial,
                             c.heated_length) for c in group]
        sizes = [c.n_axial for c in group]
        x = np.repeat(np.array([(c.diameter, c.heated_length, c.pressure, c.mass_flux,
                                 c.inlet_subcooling) for c in group], dtype=np.float64),
                      sizes, axis=0)
        x[:, 1] = np.concatenate(heights)
        chf = np.concatenate([predict_batch(pred, x[k:k + NODE_BATCH]).value
                              for k in range(0, len(x), NODE_BATCH)])
        yield from zip(heights, sat.h_f.tolist(), sat.h_fg.tolist(),
                       np.split(chf, np.cumsum(sizes)[:-1]))


def solve_channel(case: ChannelCase, pred: ChfPredictor, rating=None) -> AxialProfile:
    """March the channel and rate every node against the predictor.

    DNBR is CHF / wall flux, zero on a node with no CHF (which is
    flagged); at zero wall flux every other node reports the +inf
    sentinel.  Each node is treated as the exit of a tube of length z
    (the critical-length convention), using the case's ``rate_nodes`` item
    ``rating`` if given.  A march whose exit state overflows, or a node
    whose CHF / wall flux overflows, raises FloatingPointError.
    """
    heights, h_f, h_fg, chf = rating or next(rate_nodes([case], pred))
    q, g, d = case.wall_heat_flux, case.mass_flux, case.diameter
    with np.errstate(all="ignore"):  # overflows give inf, as with Python floats
        enthalpies = h_f - case.inlet_subcooling + 4.0 * q * heights / (g * d)
        qualities = (enthalpies - h_f) / h_fg
        dnbr, chf_local, flagged = _rate(chf, q)
    if not math.isfinite(qualities[-1]):  # q >= 0: the exit has the largest quality
        raise FloatingPointError(f"enthalpy march overflows: exit quality {qualities[-1]}")
    if q > 0.0 and np.isinf(dnbr).any():  # node CHF is finite, so CHF / q overflowed
        raise FloatingPointError(f"DNBR overflows: node CHF / wall flux {q!r} W/m2")
    return AxialProfile(case=case, heights=heights, enthalpies=enthalpies,
                        qualities=qualities, dnbr=dnbr, chf_local=chf_local,
                        flagged_nodes=flagged, node_chf=chf)


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
    lowest = chf.min().item()  # NaN if a node failed
    # the min of _rate(chf, q)[0]: rounding keeps chf / q monotone in chf
    dnbr_lo, dnbr_hi = (lowest / q if lowest > 0.0 else 0.0 for q in bracket)
    if not (dnbr_lo > 1.0 > dnbr_hi):
        raise BracketError("bracket does not straddle the critical condition",
                           dnbr_lo, dnbr_hi)
    # every node CHF is positive here, else dnbr_lo would be 0; rated at
    # q = lowest, the min DNBR is lowest / lowest
    return CriticalPowerResult(wall_heat_flux=lowest, limiting_node=int(chf.argmin()),
                               min_dnbr=lowest / lowest, iterations=0)
