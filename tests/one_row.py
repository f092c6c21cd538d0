"""References for the tests that chfkit's public API no longer offers:
a correlation at a known local quality (direct substitution), and the
IF97 saturation line and Region 2 enthalpy on their own.

chfkit runs both correlations only through the heat-balance solve on
columns, and Region 2 only inside ``fluid.saturation_state``.  These
call the same column cores, so the tests can check the correlations and
the IF97 equations value by value.  Nothing here validates its arguments
beyond what those cores do.
"""

import math

import numpy as np

from chfkit import correlations, fluid


def dsm(correlation: str, diameter: float, pressure: float, mass_flux: float,
        quality: float) -> float:
    """Direct substitution: the "biasi" or "bowring" correlation at a
    known local quality, W/m2, returned raw even when nonpositive."""
    h_fg = fluid.saturation_state(pressure).h_fg  # only Bowring reads it
    columns = (np.array([v]) for v in (diameter, mass_flux, pressure, h_fg))
    return correlations._flux(correlations._branches(correlation, *columns), quality).item()


def saturation_pressure(t: float) -> float:
    """Saturation pressure of water, Pa, from temperature, K.

    Implements IF97 Eq. (30), valid for 273.15 K <= t <= 647.096 K.
    """
    if not fluid.T_SAT_MIN <= t <= fluid.T_CRITICAL:
        raise fluid.FluidRangeError(
            f"saturation temperature {t} K outside [{fluid.T_SAT_MIN}, {fluid.T_CRITICAL}] K"
        )
    n = fluid._R4_N
    theta = t + n[8] / (t - n[9])
    a = theta * theta + n[0] * theta + n[1]
    b = n[2] * theta * theta + n[3] * theta + n[4]
    c = n[5] * theta * theta + n[6] * theta + n[7]
    p_mpa = (2.0 * c / (-b + math.sqrt(b * b - 4.0 * a * c))) ** 4
    return p_mpa * 1e6


def saturation_temperature(p: float) -> float:
    """Saturation temperature of water, K, from pressure, Pa: IF97
    Eq. (31), the exact algebraic inverse of Eq. (30)."""
    return fluid.saturation_state(p).temperature


def enthalpy_region2(p, t):
    """Region 2 (superheated steam) enthalpy, J/kg, at p, Pa, and t, K:
    floats give a float, 1-D arrays an array, as ``fluid.enthalpy_region1``."""
    return fluid._result(fluid._h2(*fluid._rows(p, t)), p, t)
