"""The row-major IF97 sums: the oracle of ``fluid._series``.

``fluid._series`` lays each IF97 sum out as a (terms x rows) matrix,
takes one ``pow`` per distinct exponent and adds each column down in
table order.  This module keeps the code it replaced: a (rows x terms)
matrix with one ``pow`` per term, whose rows ``cumsum`` adds in table
order, and the Region 1 and Region 2 enthalpies and the saturation
state over it.  Both must give every value to the bit.
"""

import numpy as np

from chfkit import fluid
from chfkit.fluid import _R1_I, _R1_J, _R1_N, _R2_I, _R2_J, _R2_J0, _R2_N, _R2_N0, R_WATER

# Term tables as flat arrays: exponents, and the coefficients of
# gamma_tau (n J) and of gamma_tautau times b (n J (J - 1)).
_R1_IE, _R1_JE = np.array(_R1_I, dtype=float), np.array(_R1_J, dtype=float) - 1.0
_R1_NJ = np.array(_R1_N) * np.array(_R1_J)
_R1_NJJ = _R1_NJ * _R1_JE
_R2_J0E = np.array(_R2_J0, dtype=float) - 1.0
_R2_N0J0 = np.array(_R2_N0) * np.array(_R2_J0)
_R2_IE, _R2_JE = np.array(_R2_I, dtype=float), np.array(_R2_J, dtype=float) - 1.0
_R2_NJ = np.array(_R2_N) * np.array(_R2_J)

# Rows per (rows x terms) matrix: 512 x 43 float64 is 176 kB.
_CHUNK = 512


def _series(x: np.ndarray, y: np.ndarray, x_exp, y_exp, *coefs) -> list[np.ndarray]:
    """Per row, sum_k c_k x^x_exp_k y^y_exp_k for each coefficient vector c."""
    if x.size > _CHUNK:
        out = [np.empty(x.size) for _ in coefs]
        for s in range(0, x.size, _CHUNK):
            part = _series(x[s:s + _CHUNK], y[s:s + _CHUNK], x_exp, y_exp, *coefs)
            for o, sums in zip(out, part):
                o[s:s + _CHUNK] = sums
        return out
    terms = x[:, None] ** x_exp * y[:, None] ** y_exp
    # cumsum adds each row's terms in table order, as a scalar loop would
    return [np.cumsum(terms * c, axis=1)[:, -1] for c in coefs]


def h1(p: np.ndarray, t: np.ndarray, slope: bool = False):
    """``fluid._h1`` over the row-major sums."""
    tau = 1386.0 / t
    b = tau - 1.222
    coefs = (_R1_NJ, _R1_NJJ) if slope else (_R1_NJ,)
    sums = _series(7.1 - p / 16.53e6, b, _R1_IE, _R1_JE, *coefs)
    h = R_WATER * t * tau * sums[0]
    if not slope:
        return h
    return h, -R_WATER * tau * tau * sums[1] / b


def h2(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``fluid._h2`` over the row-major sums."""
    tau = 540.0 / t
    (ideal,) = _series(tau, tau, 0.0, _R2_J0E, _R2_N0J0)
    (resid,) = _series(p / 1e6, tau - 0.5, _R2_IE, _R2_JE, _R2_NJ)
    return R_WATER * t * tau * (ideal + resid)


def saturation_state(p: np.ndarray) -> fluid.SaturationState:
    """``fluid.saturation_state`` of an array of pressures in range, over
    the row-major sums."""
    t_sat = fluid._t_sat(p)
    h_f, h_g = h1(p, t_sat), h2(p, t_sat)
    return fluid.SaturationState(pressure=p, temperature=t_sat, h_f=h_f, h_g=h_g,
                                 h_fg=h_g - h_f)
