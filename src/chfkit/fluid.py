"""Water/steam properties from the IAPWS Industrial Formulation 1997.

Implements the subset of IAPWS-IF97 needed for heat-balance work on
boiling channels: the Region 4 saturation temperature from pressure,
and specific enthalpy from the Region 1 (compressed liquid) and Region 2
(superheated steam) basic equations.  Saturated-liquid and saturated-
vapor enthalpies are obtained by evaluating the Region 1 and Region 2
equations on the saturation line, which keeps Regions 3 and 5 out of
scope.  Above ~16.53 MPa the saturation line lies outside the nominal
Region 1/2 rectangles and the basic equations are smooth extrapolations
there; this is adequate for heat-balance quality bookkeeping but should
not be mistaken for full IF97 fidelity near the critical point.

All public functions take SI units (Pa, K) and return SI units (J/kg).
They take floats or 1-D arrays and run one numpy core over the rows:
floats give a Python float, arrays an array.
The IF97 sums are (terms x rows) matrices, a bounded number of rows at a
time, each column added down in table order; no row depends on another,
so a one-element call gives the bits of the same row in a batch.
``inlet_temp_from_subcooling`` inverts the Region 1 enthalpy by Newton
steps with cp = -R tau^2 gamma_tautau.
A bad row raises its FluidRangeError (for arrays, the first bad row's);
the two inlet-state functions can instead collect the errors per row.

Reference
---------
IAPWS, Revised Release on the IAPWS Industrial Formulation 1997 for the
Thermodynamic Properties of Water and Steam, August 2007.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FluidRangeError",
    "SaturationState",
    "saturation_state",
    "enthalpy_region1",
    "subcooling_from_inlet_temp",
    "inlet_temp_from_subcooling",
    "P_CRITICAL",
    "T_CRITICAL",
    "P_SAT_MIN",
    "T_SAT_MIN",
]

# Specific gas constant for ordinary water, J/(kg K).
R_WATER = 461.526

T_CRITICAL = 647.096       # K
P_CRITICAL = 22.064e6      # Pa
T_SAT_MIN = 273.15         # K
P_SAT_MIN = 611.213        # Pa, saturation pressure at 273.15 K

# Region 1 basic equation, IAPWS-IF97 Table 2.  gamma(pi, tau) =
# sum n_i (7.1 - pi)^I_i (tau - 1.222)^J_i with pi = p/16.53 MPa,
# tau = 1386 K / T.
_R1_I = (
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2,
    2, 2, 3, 3, 3, 4, 4, 4, 5, 8, 8, 21, 23, 29, 30, 31, 32,
)
_R1_J = (
    -2, -1, 0, 1, 2, 3, 4, 5, -9, -7, -1, 0, 1, 3, -3, 0, 1,
    3, 17, -4, 0, 6, -5, -2, 10, -8, -11, -6, -29, -31, -38, -39, -40, -41,
)
_R1_N = (
    0.14632971213167,
    -0.84548187169114,
    -0.37563603672040e1,
    0.33855169168385e1,
    -0.95791963387872,
    0.15772038513228,
    -0.16616417199501e-1,
    0.81214629983568e-3,
    0.28319080123804e-3,
    -0.60706301565874e-3,
    -0.18990068218419e-1,
    -0.32529748770505e-1,
    -0.21841717175414e-1,
    -0.52838357969930e-4,
    -0.47184321073267e-3,
    -0.30001780793026e-3,
    0.47661393906987e-4,
    -0.44141845330846e-5,
    -0.72694996297594e-15,
    -0.31679644845054e-4,
    -0.28270797985312e-5,
    -0.85205128120103e-9,
    -0.22425281908000e-5,
    -0.65171222895601e-6,
    -0.14341729937924e-12,
    -0.40516996860117e-6,
    -0.12734301741682e-8,
    -0.17424871230634e-9,
    -0.68762131295531e-18,
    0.14478307828521e-19,
    0.26335781662795e-22,
    -0.11947622640071e-22,
    0.18228094581404e-23,
    -0.93537087292458e-25,
)

# Region 2 ideal-gas part, IAPWS-IF97 Table 10.
_R2_J0 = (0, 1, -5, -4, -3, -2, -1, 2, 3)
_R2_N0 = (
    -0.96927686500217e1,
    0.10086655968018e2,
    -0.56087911283020e-2,
    0.71452738081455e-1,
    -0.40710498223928,
    0.14240819171444e1,
    -0.43839511319450e1,
    -0.28408632460772,
    0.21268463753307e-1,
)

# Region 2 residual part, IAPWS-IF97 Table 11.
_R2_I = (
    1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 5, 6, 6, 6,
    7, 7, 7, 8, 8, 9, 10, 10, 10, 16, 16, 18, 20, 20, 20, 21, 22, 23,
    24, 24, 24,
)
_R2_J = (
    0, 1, 2, 3, 6, 1, 2, 4, 7, 36, 0, 1, 3, 6, 35, 1, 2, 3, 7, 3, 16,
    35, 0, 11, 25, 8, 36, 13, 4, 10, 14, 29, 50, 57, 20, 35, 48, 21,
    53, 39, 26, 40, 58,
)
_R2_N = (
    -0.17731742473213e-2,
    -0.17834862292358e-1,
    -0.45996013696365e-1,
    -0.57581259083432e-1,
    -0.50325278727930e-1,
    -0.33032641670203e-4,
    -0.18948987516315e-3,
    -0.39392777243355e-2,
    -0.43797295650573e-1,
    -0.26674547914087e-4,
    0.20481737692309e-7,
    0.43870667284435e-6,
    -0.32277677238570e-4,
    -0.15033924542148e-2,
    -0.40668253562649e-1,
    -0.78847309559367e-9,
    0.12790717852285e-7,
    0.48225372718507e-6,
    0.22922076337661e-5,
    -0.16714766451061e-10,
    -0.21171472321355e-2,
    -0.23895741934104e2,
    -0.59059564324270e-17,
    -0.12621808899101e-5,
    -0.38946842435739e-1,
    0.11256211360459e-10,
    -0.82311340897998e1,
    0.19809712802088e-7,
    0.10406965210174e-18,
    -0.10234747095929e-12,
    -0.10018179379511e-8,
    -0.80882908646985e-10,
    0.10693031879409,
    -0.33662250574171,
    0.89185845355421e-24,
    0.30629316876232e-12,
    -0.42002467698208e-5,
    -0.59056029685639e-25,
    0.37826947613457e-5,
    -0.12768608934681e-14,
    0.73087610595061e-28,
    0.55414715350778e-16,
    -0.94369707241210e-6,
)

# Region 4 saturation line, IAPWS-IF97 Table 34.
_R4_N = (
    0.11670521452767e4,
    -0.72421316703206e6,
    -0.17073846940092e2,
    0.12020824702470e5,
    -0.32325550322333e7,
    0.14915108613530e2,
    -0.48232657361591e4,
    0.40511340542057e6,
    -0.23855557567849,
    0.65017534844798e3,
)


class FluidRangeError(ValueError):
    """Input lies outside the validity range of the requested equation,
    or the inlet-temperature inversion did not converge."""


@dataclass(frozen=True)
class SaturationState:
    """Saturation properties at a given pressure.

    Each field is a float, or an array with one entry per pressure when
    ``saturation_state`` was given an array.

    Attributes
    ----------
    pressure : float
        Saturation pressure, Pa.
    temperature : float
        Saturation temperature, K.
    h_f : float
        Saturated-liquid specific enthalpy, J/kg.
    h_g : float
        Saturated-vapor specific enthalpy, J/kg.
    h_fg : float
        Latent heat of vaporization ``h_g - h_f``, J/kg.
    """

    pressure: float
    temperature: float
    h_f: float
    h_g: float
    h_fg: float


# A float, or a 1-D array with one value per row.
_Rows = float | np.ndarray


def _powers(exponents) -> tuple[np.ndarray, np.ndarray]:
    """The distinct exponents as a column, and each term's index into them."""
    distinct, index = np.unique(np.asarray(exponents, dtype=float), return_inverse=True)
    return distinct[:, None], index


# Term tables as arrays: exponents as ``_powers``, so that a sum takes one
# pow per distinct exponent (Region 1: 13 I and 25 J over 34 terms;
# Region 2: 17 I and 27 J over 43), and as columns the coefficients of
# gamma_tau (n J) and of gamma_tautau times b (n J (J - 1)).
_R1_JE = np.array(_R1_J, dtype=float) - 1.0
_R1_IP, _R1_JP = _powers(_R1_I), _powers(_R1_JE)
_R1_NJ = (np.array(_R1_N) * np.array(_R1_J))[:, None]
_R1_NJJ = _R1_NJ * _R1_JE[:, None]
_R2_J0P = _powers(np.array(_R2_J0, dtype=float) - 1.0)
_R2_N0J0 = (np.array(_R2_N0) * np.array(_R2_J0))[:, None]
_R2_IP, _R2_JP = _powers(_R2_I), _powers(np.array(_R2_J, dtype=float) - 1.0)
_R2_NJ = (np.array(_R2_N) * np.array(_R2_J))[:, None]

# Rows per (terms x rows) matrix: 43 x 512 float64 is 176 kB.  numpy adds
# a one-column matrix down its column pairwise, which is another order
# than the table's and changes bits, so a single row runs as two columns.
_CHUNK = 512

# Newton steps allowed per inlet-temperature inversion; the IF97 range
# needs at most 6 (from T_sat, h is increasing and close to convex in T).
_NEWTON_MAX_STEPS = 20


def _rows(*values) -> list[np.ndarray]:
    """The arguments as 1-D float64 arrays of one length (floats repeat)."""
    arrays = [np.asarray(v, dtype=np.float64).reshape(-1) for v in values]
    n = max(a.size for a in arrays)
    return [a if a.size == n else np.broadcast_to(a, (n,)) for a in arrays]


def _result(rows: np.ndarray, *inputs):
    """A Python float when every input was a float, else the array."""
    if all(np.ndim(v) == 0 for v in inputs):
        return float(rows[0])
    return rows


def _series(x: np.ndarray, y: np.ndarray | None, x_pow, y_pow, *coefs) -> list[np.ndarray]:
    """Per row, sum_k c_k x^a_k y^b_k for each coefficient column c; x_pow
    and y_pow are ``_powers`` of a and b, and a None y drops its factor."""
    n = x.size
    if n > _CHUNK:
        out = np.empty((len(coefs), n))
        for s in range(0, n, _CHUNK):
            e = s + _CHUNK
            out[:, s:e] = _series(x[s:e], y if y is None else y[s:e], x_pow, y_pow, *coefs)
        return list(out)
    # a one-row call or last chunk as two columns, see _CHUNK; y broadcasts
    terms = ((x.repeat(2) if n == 1 else x) ** x_pow[0]).take(x_pow[1], axis=0)
    if y is not None:
        terms *= (y ** y_pow[0]).take(y_pow[1], axis=0)
    # with two or more columns, reduce adds each column in table order
    return [np.add.reduce(terms * c, axis=0)[:n] for c in coefs]


def _t_sat(p: np.ndarray) -> np.ndarray:
    """IF97 Eq. (31) on rows of pressure, Pa; no range check."""
    n = _R4_N
    # Eq. (31) magnifies an ulp of beta some 500 times in t_sat near the
    # critical point; the C library's pow rounds closer than numpy's
    # SIMD pow, which differs from it in about 5% of values
    beta = np.array([v ** 0.25 for v in (p / 1e6).tolist()])
    e = beta * beta + n[2] * beta + n[5]
    f = n[0] * beta * beta + n[3] * beta + n[6]
    g = n[1] * beta * beta + n[4] * beta + n[7]
    d = 2.0 * g / (-f - np.sqrt(f * f - 4.0 * e * g))
    nd = n[9] + d
    return 0.5 * (nd - np.sqrt(nd * nd - 4.0 * (n[8] + n[9] * d)))


def _h1(p: np.ndarray, t: np.ndarray, slope: bool = False):
    """Region 1 enthalpy h = R T tau gamma_tau, J/kg, on rows; with
    ``slope`` also cp = dh/dT = -R tau^2 gamma_tautau, J/(kg K)."""
    tau = 1386.0 / t
    b = tau - 1.222
    coefs = (_R1_NJ, _R1_NJJ) if slope else (_R1_NJ,)
    sums = _series(7.1 - p / 16.53e6, b, _R1_IP, _R1_JP, *coefs)
    h = R_WATER * t * tau * sums[0]
    if not slope:
        return h
    return h, -R_WATER * tau * tau * sums[1] / b


def _h2(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Region 2 enthalpy, ideal-gas plus residual part, J/kg, on rows."""
    tau = 540.0 / t
    (ideal,) = _series(tau, None, _R2_J0P, None, _R2_N0J0)
    (resid,) = _series(p / 1e6, tau - 0.5, _R2_IP, _R2_JP, _R2_NJ)
    return R_WATER * t * tau * (ideal + resid)


def _fail(errors: dict, ok: np.ndarray, bad: np.ndarray, message, *columns) -> None:
    """Give each row still ``ok`` where ``bad`` the FluidRangeError
    ``message(*its column values)``, and take it out of ``ok``."""
    if bad.any():
        bad &= ok
        for i in np.flatnonzero(bad).tolist():
            errors[i] = FluidRangeError(message(*(c[i].item() for c in columns)))
        ok &= ~bad


def _report(errors: dict, into: dict | None) -> None:
    """Raise the first row's error, or with ``into`` hand all of them over."""
    if into is not None:
        into.update(errors)
    elif errors:
        raise errors[min(errors)]


def _check_p_sat(errors: dict, ok: np.ndarray, p: np.ndarray) -> None:
    _fail(errors, ok, ~((P_SAT_MIN <= p) & (p <= P_CRITICAL)),
          lambda v: f"saturation pressure {v} Pa outside [{P_SAT_MIN}, {P_CRITICAL}] Pa", p)


def _check_pt(errors: dict, ok: np.ndarray, p: np.ndarray, t: np.ndarray) -> None:
    _fail(errors, ok, ~((0.0 < p) & (p <= 100e6)),
          lambda v: f"pressure {v} Pa outside (0, 100e6] Pa", p)
    _fail(errors, ok, ~((T_SAT_MIN <= t) & (t <= 1073.15)),
          lambda v: f"temperature {v} K outside [{T_SAT_MIN}, 1073.15] K", t)


def _checked(check, *columns) -> None:
    """Run a range check over all rows; raise the first row's error."""
    errors: dict = {}
    check(errors, np.ones(columns[0].size, dtype=bool), *columns)
    _report(errors, None)


def enthalpy_region1(p: _Rows, t: _Rows) -> _Rows:
    """Specific enthalpy of compressed liquid water, J/kg.

    Region 1 basic equation, h = R T tau d(gamma)/d(tau).  Nominal
    validity is 273.15 K <= t <= 623.15 K, p_sat(t) <= p <= 100 MPa;
    evaluation is permitted up to the critical temperature so that the
    saturation line can be followed, but values beyond 623.15 K are
    extrapolations.
    """
    pa, ta = _rows(p, t)
    _checked(_check_pt, pa, ta)
    return _result(_h1(pa, ta), p, t)


def saturation_state(p: _Rows) -> SaturationState:
    """Saturation temperature and phase enthalpies at pressure p, Pa.

    h_f comes from the Region 1 equation and h_g from the Region 2
    equation, both evaluated at (t_sat(p), p).  An array of pressures
    gives a state whose fields are arrays.
    """
    (pa,) = _rows(p)
    _checked(_check_p_sat, pa)
    t_sat = _t_sat(pa)
    h_f, h_g = _h1(pa, t_sat), _h2(pa, t_sat)
    if np.ndim(p) == 0:
        t_sat, h_f, h_g = float(t_sat[0]), float(h_f[0]), float(h_g[0])
    else:
        p = pa
    return SaturationState(pressure=p, temperature=t_sat, h_f=h_f, h_g=h_g, h_fg=h_g - h_f)


def subcooling_from_inlet_temp(p: _Rows, t_in: _Rows, errors: dict | None = None) -> _Rows:
    """Inlet subcooling h_f(p) - h(p, t_in), J/kg, for a liquid inlet.

    Raises FluidRangeError if t_in exceeds the saturation temperature
    (a superheated inlet has no liquid-temperature representation) or
    p or t_in is out of range: for arrays, the error of the first bad
    row.  Given an ``errors`` dict, a bad row gets NaN instead and its
    error goes to ``errors[row index]``.
    """
    pa, ta = _rows(p, t_in)
    found: dict = {}
    ok = np.ones(pa.size, dtype=bool)
    _check_p_sat(found, ok, pa)
    pa_ok = np.where(ok, pa, P_SAT_MIN)  # bad rows get a harmless stand-in
    t_sat = _t_sat(pa_ok)
    _fail(found, ok, ta > t_sat,
          lambda t, ts, pr: (f"inlet temperature {t} K exceeds saturation "
                             f"temperature {ts} K at {pr} Pa"), ta, t_sat, pa)
    _check_pt(found, ok, pa, ta)
    _report(found, errors)
    # h_f and h(t_in) in one call: a row at t_sat gives exactly zero
    h = _h1(np.concatenate((pa_ok, pa_ok)), np.concatenate((t_sat, np.where(ok, ta, t_sat))))
    return _result(np.where(ok, h[:pa.size] - h[pa.size:], np.nan), p, t_in)


def inlet_temp_from_subcooling(p: _Rows, dh_sub: _Rows,
                               errors: dict | None = None) -> _Rows:
    """Liquid inlet temperature, K, that yields the given subcooling, J/kg.

    Inverts subcooling_from_inlet_temp by Newton steps on temperature,
    starting at t_sat(p), with the slope dh/dT = cp = -R tau^2
    gamma_tautau from the Region 1 table, until a step is below 1e-9 K.
    dh_sub must be nonnegative and no larger than the subcooling of a
    273.15 K inlet.  Raises FluidRangeError otherwise, or when a row's
    steps do not converge: for arrays, the error of the first bad row.
    Given an ``errors`` dict, a bad row gets NaN instead and its error
    goes to ``errors[row index]``.
    """
    pa, da = _rows(p, dh_sub)
    found: dict = {}
    ok = np.ones(pa.size, dtype=bool)
    _fail(found, ok, da < 0.0,
          lambda d: f"subcooling {d} J/kg is negative (superheated inlet)", da)
    _check_p_sat(found, ok, pa)
    pa_ok = np.where(ok, pa, P_SAT_MIN)  # bad rows get a harmless stand-in
    t = _t_sat(pa_ok)
    h = _h1(np.concatenate((pa_ok, pa_ok)), np.concatenate((t, np.full(pa.size, T_SAT_MIN))))
    h_f, h_min = h[:pa.size], h[pa.size:]
    target = h_f - da
    _fail(found, ok, h_min > target,
          lambda d, hf, hm, pr: (f"subcooling {d} J/kg exceeds the maximum representable "
                                 f"{hf - hm} J/kg at {pr} Pa"), da, h_f, h_min, pa)
    # from t_sat, each row steps until its own step is below 1e-9 K
    moving = ok.copy()
    for _ in range(_NEWTON_MAX_STEPS):
        rows = np.flatnonzero(moving)
        if not rows.size:
            break
        h, cp = _h1(pa[rows], t[rows], slope=True)
        step = (h - target[rows]) / cp
        t[rows] -= step
        moving[rows] = ~(np.abs(step) < 1e-9)
    _fail(found, ok, moving,
          lambda d, pr: (f"inlet temperature for subcooling {d} J/kg at {pr} Pa did not "
                         f"converge in {_NEWTON_MAX_STEPS} Newton steps"), da, pa)
    _report(found, errors)
    return _result(np.where(ok, t, np.nan), p, dh_sub)
