"""The per-node channel march: the oracle of ``solve_channel``.

``solve_channel`` rates every node of a case with array expressions over
one node-CHF vector, and ``find_critical_power`` reads the critical flux
from that vector in closed form.  This module keeps the loops they
replaced: every node is rated by its own heat-balance solve plus a
single-row network call, its DNBR by its own clamp and flag branches, and
the critical power by a bisection that re-solves the whole channel at
every step until |min DNBR - 1| < 1e-6.  The profile it builds is a
tuple per field, with None for a node that has no positive finite CHF;
``ChfPredictor`` and ``ChannelCase`` are the only package types it
takes.
"""

import math
from dataclasses import dataclass, replace

from chfkit import fluid
from chfkit.channel import BracketError, ChannelCase
from chfkit.correlations import InletConditions, NoCriticalConditionError, solve_hbm
from chfkit.hybrid import ChfPredictor
from chfkit.mlp import forward


@dataclass(frozen=True)
class Profile:
    """The fields of ``AxialProfile``, one tuple each."""

    case: ChannelCase
    heights: tuple
    enthalpies: tuple
    qualities: tuple
    dnbr: tuple
    chf_local: tuple
    flagged_nodes: tuple
    node_chf: tuple

    @property
    def min_dnbr(self) -> float:
        return min(self.dnbr)

    @property
    def min_dnbr_node(self) -> int:
        return min(range(len(self.dnbr)), key=lambda i: (self.dnbr[i], i))


def exit_chf(p: ChfPredictor, c: InletConditions) -> float:
    """CHF of a tube whose exit is the node: its own solve, its own network row."""
    feats = (c.diameter, c.heated_length, c.pressure, c.mass_flux, c.inlet_subcooling)
    if p.kind == "pure_ml":
        return forward(p.model, feats)
    chf = solve_hbm("biasi" if p.kind.endswith("biasi") else "bowring", c).chf
    if p.kind.startswith("base_"):
        return chf
    return chf + forward(p.model, feats)


def rate(chf: tuple, q: float) -> tuple[list, list, list]:
    """Node DNBR, chf_local and flagged nodes for raw node CHF at wall flux q."""
    dnbr, chf_local, flagged = [], [], []
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
        ratio = c / q
        dnbr.append(ratio)
        chf_local.append(ratio * q)
    return dnbr, chf_local, flagged


def solve_channel(case: ChannelCase, pred: ChfPredictor) -> Profile:
    sat = fluid.saturation_state(case.pressure)
    h_in = sat.h_f - case.inlet_subcooling
    g, d, q = case.mass_flux, case.diameter, case.wall_heat_flux
    n, length = case.n_axial, case.heated_length
    heights = tuple(length if i == n - 1 else (i + 0.5) * length / n for i in range(n))
    enthalpies = tuple(h_in + 4.0 * q * z / (g * d) for z in heights)
    qualities = tuple((h - sat.h_f) / sat.h_fg for h in enthalpies)

    raw = []
    for z in heights:
        try:
            chf = exit_chf(pred, replace(case.inlet_conditions(), heated_length=z))
        except NoCriticalConditionError:
            chf = None
        # a CHF that is not positive and finite is a failed node
        raw.append(chf if chf is not None and 0.0 < chf < math.inf else None)
    dnbr, chf_local, flagged = rate(raw, q)
    if q > 0.0 and math.inf in dnbr:
        raise FloatingPointError(f"DNBR overflows: node CHF / wall flux {q!r} W/m2")
    return Profile(
        case=case, heights=heights, enthalpies=enthalpies, qualities=qualities,
        dnbr=tuple(dnbr), chf_local=tuple(chf_local), flagged_nodes=tuple(flagged),
        node_chf=tuple(raw),
    )


def closed_form_critical_power(profile: Profile, bracket) -> tuple[float, int, float]:
    """(flux, limiting node, min DNBR at that flux) of the smallest node
    CHF, node by node; raises the ``BracketError`` of a bracket that does
    not straddle min DNBR = 1."""
    q_lo, q_hi = bracket
    chf = profile.node_chf
    dnbr_lo, dnbr_hi = min(rate(chf, q_lo)[0]), min(rate(chf, q_hi)[0])
    if not (dnbr_lo > 1.0 > dnbr_hi):
        raise BracketError("bracket does not straddle the critical condition",
                           dnbr_lo, dnbr_hi)
    q = min(chf)
    return q, chf.index(q), min(rate(chf, q)[0])


def bisect_critical_power(case, pred, bracket, tol=1e-6, max_iter=100):
    """(flux, nodes at the minimum DNBR) of the reference bisection, from
    the profile of its last step; the first of those nodes is its
    limiting node."""
    q_lo, q_hi = bracket

    def profile_at(q):
        return solve_channel(replace(case, wall_heat_flux=q), pred)

    lo_prof = profile_at(q_lo)
    hi_prof = profile_at(q_hi)
    if not (lo_prof.min_dnbr > 1.0 > hi_prof.min_dnbr):
        raise BracketError("bracket does not straddle the critical condition",
                           lo_prof.min_dnbr, hi_prof.min_dnbr)
    for _ in range(max_iter):
        q_mid = 0.5 * (q_lo + q_hi)
        best = profile_at(q_mid)
        if abs(best.min_dnbr - 1.0) < tol:
            break
        if best.min_dnbr > 1.0:
            q_lo = q_mid
        else:
            q_hi = q_mid
    else:
        raise AssertionError(f"reference bisection did not converge on {bracket}")
    return q_mid, tuple(i for i, d in enumerate(best.dnbr) if d == best.min_dnbr)
