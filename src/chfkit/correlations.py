"""Round-tube critical heat flux correlations and the heat-balance solver.

Implements the Biasi and Bowring CHF correlations for uniformly heated
vertical tubes by the heat-balance method (HBM): find the wall flux at
which the correlation value equals the flux implied by the channel heat
balance, so the quality argument is itself consistent with the critical
power.

The heat balance for a uniformly heated tube of diameter D, heated
length L, mass flux G and inlet subcooling dh_sub is

    x(q'') = 4 q'' L / (G D h_fg) - dh_sub / h_fg

with h_fg evaluated at the system pressure.  Every branch of both
correlations is linear in quality, q'' = alpha (beta - x), and each
correlation is the largest of its branches, so the HBM root
q'' = corr(x(q'')) has a closed form (see ``solve_hbm``).

The branch coefficients and the solve run on 1-D columns, one row per
tube; ``solve_hbm`` and ``bowring_inlet`` are one-row calls of the same
code.  Rows are independent.  Sums, products, quotients and square roots
go to numpy, which rounds them correctly; every power and exponential goes through the C library one
element at a time, as in ``fluid``.  numpy's SIMD ``pow`` and ``exp``
differ from the C library's in the last bit of some 7-8% of values
(base CHF moved by up to 8e-16 relative), so this keeps the values, and
the CLI outputs, those of plain float arithmetic, in batches and alone.

Both correlations are dimensional fits.  Out-of-validity inputs are
evaluated anyway (screening use), and nonpositive correlation values
are returned as-is rather than clamped so callers can apply their own
policy.

References
----------
Biasi, L. et al., "Studies on burnout, Part 3," Energia Nucleare 14
(1967) 530-536.
Bowring, R.W., "A simple but accurate round tube uniform heat flux
dryout correlation over the pressure range 0.7 to 17 MN/m2," AEEW-R-789
(1972); constants as tabulated by Todreas & Kazimi, Nuclear Systems I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fluid

__all__ = [
    "InletConditions",
    "HbmSolution",
    "NoCriticalConditionError",
    "heat_balance_quality",
    "bowring_inlet",
    "solve_hbm",
    "HBM_FLUX_BRACKET",
]

# Search bracket for the heat-balance solve, W/m2.
HBM_FLUX_BRACKET = (1.0, 20.0e6)

# Below this mass flux only the high-quality Biasi branch applies.
BIASI_LOW_FLOW_LIMIT = 300.0

# Quality window of the underlying database; excursions outside it
# during an HBM solve are flagged on the solution.
QUALITY_MIN = -0.5
QUALITY_MAX = 1.0


def _require_finite(conditions) -> None:
    # getattr, not vars(): a materialised __dict__ slows later attribute reads
    for name in conditions.__dataclass_fields__:
        v = getattr(conditions, name)
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class InletConditions:
    """Channel geometry and inlet state for heat-balance evaluations.

    Attributes
    ----------
    diameter : float
        Tube inside diameter, m.
    heated_length : float
        Heated length over which the flux acts, m.
    pressure : float
        System pressure, Pa.
    mass_flux : float
        Mass flux, kg/(m2 s).
    inlet_subcooling : float
        h_f - h_inlet, J/kg.  Negative values describe a two-phase
        inlet and are allowed.
    """

    diameter: float
    heated_length: float
    pressure: float
    mass_flux: float
    inlet_subcooling: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.diameter <= 0.0:
            raise ValueError(f"diameter must be positive, got {self.diameter}")
        if self.heated_length <= 0.0:
            raise ValueError(f"heated_length must be positive, got {self.heated_length}")
        if self.mass_flux <= 0.0:
            raise ValueError(f"mass_flux must be positive, got {self.mass_flux}")
        if not fluid.P_SAT_MIN <= self.pressure <= fluid.P_CRITICAL:
            raise ValueError(
                f"pressure {self.pressure} Pa outside saturation range "
                f"[{fluid.P_SAT_MIN}, {fluid.P_CRITICAL}] Pa"
            )


def _valid_inlet_rows(d: np.ndarray, length: np.ndarray, p: np.ndarray, g: np.ndarray,
                      dh_sub: np.ndarray) -> np.ndarray:
    """False on every row of inlet-condition columns that InletConditions
    rejects; a row it flags gives its reason by constructing one."""
    return (np.isfinite(d) & np.isfinite(length) & np.isfinite(g) & np.isfinite(dh_sub)
            & (d > 0.0) & (length > 0.0) & (g > 0.0)
            & (fluid.P_SAT_MIN <= p) & (p <= fluid.P_CRITICAL))


@dataclass(frozen=True)
class HbmSolution:
    """Result of a heat-balance critical heat flux solve.

    Attributes
    ----------
    chf : float
        Critical heat flux, W/m2.
    critical_quality : float
        Heat-balance quality at the critical flux.
    iterations : int
        Always 0: the solve is closed-form.  Kept so that readers of the
        field, such as the benchmark's iteration counters, keep working.
    residual : float
        chf - corr(critical_quality), W/m2.
    quality_excursion : bool
        True when the critical quality lies outside the
        database window [-0.5, 1.0], i.e. the correlation had to be
        evaluated beyond its quality envelope at the solution.
    """

    chf: float
    critical_quality: float
    iterations: int
    residual: float
    quality_excursion: bool = False


class NoCriticalConditionError(RuntimeError):
    """The correlation admits no critical flux inside the search bracket."""

    def __init__(self, message: str, bracket: tuple, residuals: tuple):
        super().__init__(f"{message}; bracket={bracket}, residuals={residuals}")
        self.bracket = bracket
        self.residuals = residuals


def heat_balance_quality(q_pp: float, c: InletConditions, length: float | None = None) -> float:
    """Equilibrium quality at the end of ``length`` for wall flux q_pp, W/m2.

    Uses the channel heat balance with h_fg at the system pressure.
    ``length`` defaults to the full heated length.
    """
    l_cr = c.heated_length if length is None else length
    h_fg = fluid.saturation_state(c.pressure).h_fg
    return 4.0 * q_pp * l_cr / (c.mass_flux * c.diameter * h_fg) - c.inlet_subcooling / h_fg


# ---------------------------------------------------------------------------
# Column arithmetic
# ---------------------------------------------------------------------------

def _row(*values: float) -> list[np.ndarray]:
    """Each float as a one-row column."""
    return [np.array([v], dtype=np.float64) for v in values]


def _pow(base: np.ndarray, exponent) -> np.ndarray:
    """``base ** exponent`` per row through the C library's pow (inf where
    that overflows; the bases are positive); the exponent is a float or a column."""
    try:
        if isinstance(exponent, np.ndarray):
            return np.array([b ** e for b, e in zip(base.tolist(), exponent.tolist())])
        return np.array([b ** exponent for b in base.tolist()])
    except OverflowError:  # rare, so only then pay for a check per row
        return np.array([_pow_or_inf(b, e) for b, e in
                         zip(base.tolist(), np.broadcast_to(exponent, base.shape).tolist())])


def _pow_or_inf(b: float, e: float) -> float:
    try:
        return b ** e
    except OverflowError:
        return math.inf


def _exp(a: np.ndarray) -> np.ndarray:
    """exp per row through the C library."""
    return np.array([math.exp(v) for v in a.tolist()])


def _largest(candidates) -> np.ndarray:
    """Per row, the largest value among the (values, applies) candidates
    that apply there, picked as Python's max picks it: a later candidate
    replaces an earlier one only where it is strictly larger, which fixes
    the sign of a zero tie and the outcome of a NaN."""
    (out, have), *rest = candidates
    for value, applies in rest:
        out = np.where(applies & (~have | (value > out)), value, out)
        have = have | applies
    return out


# ---------------------------------------------------------------------------
# Biasi (1967)
# ---------------------------------------------------------------------------

def _biasi_pressure_f(p_bar: np.ndarray) -> np.ndarray:
    return 0.7249 + 0.099 * p_bar * _exp(-0.032 * p_bar)


def _biasi_pressure_h(p_bar: np.ndarray) -> np.ndarray:
    return -1.159 + 0.149 * p_bar * _exp(-0.019 * p_bar) + 9.0 * p_bar / (10.0 + p_bar * p_bar)


# ---------------------------------------------------------------------------
# Bowring (1972)
# ---------------------------------------------------------------------------

def _bowring_factors(p_pa: np.ndarray) -> tuple[np.ndarray, ...]:
    """Pressure functions F1..F4 and flow exponent n at pressures p, Pa."""
    p_r = p_pa / 6.895e6
    n = 2.0 - 0.5 * p_r
    # each row takes the form for its side of p_r = 1, with f2 = f1 / d2
    f1, d2, f3 = np.empty(p_r.shape), np.empty(p_r.shape), np.empty(p_r.shape)
    low = p_r <= 1.0
    r = p_r[low]
    f1[low] = (_pow(r, 18.942) * _exp(20.89 * (1.0 - r)) + 0.917) / 1.917
    d2[low] = (_pow(r, 1.316) * _exp(2.444 * (1.0 - r)) + 0.309) / 1.309
    f3[low] = (_pow(r, 17.023) * _exp(16.658 * (1.0 - r)) + 0.667) / 1.667
    high = ~low
    r = p_r[high]
    f1[high] = _pow(r, -0.368) * _exp(0.648 * (1.0 - r))
    d2[high] = _pow(r, -0.448) * _exp(0.245 * (1.0 - r))
    f3[high] = _pow(r, 0.219)
    f4 = f3 * _pow(p_r, 1.649)
    return f1, f1 / d2, f3, f4, n


def _bowring_ac(d: np.ndarray, g: np.ndarray, p_pa: np.ndarray,
                h_fg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    f1, f2, f3, f4, n = _bowring_factors(p_pa)
    a = 2.317 * (h_fg * d * g / 4.0) * f1 / (1.0 + 0.0143 * f2 * np.sqrt(d) * g)
    c = 0.077 * f3 * d * g / (1.0 + 0.347 * f4 * _pow(g / 1356.0, n))
    return a, c


def bowring_inlet(c: InletConditions) -> float:
    """Bowring CHF from inlet conditions, W/m2 (closed form).

    q'' = (A + D G dh_sub / 4) / (C + L); equivalent to the heat-balance
    solution because the length dependence cancels exactly when the
    local quality is eliminated through the heat balance.
    """
    h_fg = fluid.saturation_state(c.pressure).h_fg
    a, cc = (v.item() for v in _bowring_ac(*_row(c.diameter, c.mass_flux, c.pressure, h_fg)))
    return (a + 0.25 * c.diameter * c.mass_flux * c.inlet_subcooling) / (cc + c.heated_length)


# ---------------------------------------------------------------------------
# Branch form and heat-balance solver
# ---------------------------------------------------------------------------

def _branches(correlation: str, d: np.ndarray, g: np.ndarray, p_pa: np.ndarray,
              h_fg: np.ndarray | None = None) -> tuple:
    """Coefficients (alpha, beta, applies) of each branch q'' = alpha (beta - x),
    W/m2, on rows; ``applies`` masks the rows where the branch counts.

    The correlation is the largest branch that applies.  Biasi's
    low-quality branch applies above ``BIASI_LOW_FLOW_LIMIT`` only;
    Bowring needs h_fg, J/kg.
    """
    every = np.ones(d.shape, dtype=bool)
    if correlation == "bowring":
        with np.errstate(all="ignore"):  # a huge G gives inf or nan here: a failed row
            a, cc = _bowring_ac(d, g, p_pa, h_fg)
            gdh = 0.25 * d * g * h_fg
            return ((gdh / cc, a / gdh, every),)
    if correlation != "biasi":
        raise ValueError(f"unknown correlation {correlation!r}; expected 'biasi' or 'bowring'")
    # diameter enters in cm, pressure in bar; result in W/m2
    p_bar = p_pa / 1e5
    scale = _pow(100.0 * d, np.where(d >= 0.01, -0.4, -0.6))
    high = (15.048e7 * scale * _pow(g, -0.6) * _biasi_pressure_h(p_bar), 1.0, every)
    g6 = _pow(g, -1.0 / 6.0)
    low = (2.764e7 * scale * g6, 1.468 * _biasi_pressure_f(p_bar) * g6,
           g > BIASI_LOW_FLOW_LIMIT)
    return low, high


def _flux(branches: tuple, x) -> np.ndarray:
    """Correlation value at quality x (a float or a column), W/m2."""
    return _largest([(alpha * (beta - x), applies) for alpha, beta, applies in branches])


@dataclass(frozen=True)
class _HbmColumns:
    """Heat-balance solves of a batch of rows, one column per field.

    ``failed`` marks the rows with no critical condition; their other
    fields are meaningless except the bracket-end residuals r_lo, r_hi.
    """

    chf: np.ndarray
    critical_quality: np.ndarray
    residual: np.ndarray
    quality_excursion: np.ndarray
    failed: np.ndarray
    r_lo: np.ndarray
    r_hi: np.ndarray

    def error(self, i: int) -> NoCriticalConditionError:
        """The error that failed row i raises."""
        residuals = (self.r_lo[i].item(), self.r_hi[i].item())
        message = ("correlation does not cross the heat-balance line"
                   if all(map(math.isfinite, residuals)) else "non-finite residual")
        return NoCriticalConditionError(message, HBM_FLUX_BRACKET, residuals)


def solve_hbm(correlation: str, c: InletConditions) -> HbmSolution:
    """Critical heat flux by the heat-balance method, in closed form.

    ``correlation`` is "biasi" or "bowring".  With k = 4 L / (G D h_fg)
    and s = dh_sub / h_fg the heat-balance quality is x = k q'' - s, so
    the residual r = q'' - corr(x) is the minimum over the branches of
    r_i = (1 + alpha_i k) q'' - alpha_i (beta_i + s): affine, so r is
    concave.  Once r < 0 < r at the ends of ``HBM_FLUX_BRACKET`` it has
    one root there, the largest alpha_i (beta_i + s) / (1 + alpha_i k)
    over the branches with slope 1 + alpha_i k > 0 (any other branch is
    positive at the high end, hence below it too).  The filter
    matters below about 1.5 bar, where Biasi's H(p), and with it the
    high-quality alpha, is negative.

    This is the one-row call of ``_solve_columns``, which makes the
    same solve on columns for the batch callers, with powers and
    exponentials from the C library so that a row's bits do not depend
    on its batch (see the module docstring).

    Raises
    ------
    NoCriticalConditionError
        If the residual does not change sign over the bracket, i.e. the
        correlation never intersects the heat-balance line (no burnout
        is predicted inside the search range), or if it is not finite
        at either end of the bracket.
    """
    h_fg = fluid.saturation_state(c.pressure).h_fg
    sol = _solve_columns(correlation, *_row(c.diameter, c.heated_length, c.pressure,
                                            c.mass_flux, c.inlet_subcooling, h_fg))
    if sol.failed[0]:
        raise sol.error(0)
    return HbmSolution(sol.chf[0].item(), sol.critical_quality[0].item(), 0,
                       sol.residual[0].item(), sol.quality_excursion[0].item())


def _solve_columns(correlation: str, d: np.ndarray, length: np.ndarray, p: np.ndarray,
                   g: np.ndarray, dh_sub: np.ndarray, h_fg: np.ndarray) -> _HbmColumns:
    """``solve_hbm`` on 1-D columns of diameter, heated length, pressure,
    mass flux, inlet subcooling and h_fg at the row's pressure (SI); the
    caller validates the rows.  No row depends on another, so a one-row
    call gives the bits of the same row in a batch."""
    gd = g * d
    branches = _branches(correlation, d, g, p, h_fg)

    def quality(q):
        # the heat_balance_quality expression, so x_cr matches it bit for bit
        return 4.0 * q * length / (gd * h_fg) - dh_sub / h_fg

    q_lo, q_hi = HBM_FLUX_BRACKET
    # a failed row, or a branch with a nonpositive slope, may divide by
    # zero or overflow; such values are masked out below
    with np.errstate(all="ignore"):
        r_lo = q_lo - _flux(branches, quality(q_lo))
        r_hi = q_hi - _flux(branches, quality(q_hi))
        failed = ~(np.isfinite(r_lo) & np.isfinite(r_hi)) | (r_lo >= 0.0) | (r_hi <= 0.0)
        k = 4.0 * length / (gd * h_fg)
        s = dh_sub / h_fg
        chf = _largest([(alpha * (beta + s) / (1.0 + alpha * k), applies & (1.0 + alpha * k > 0.0))
                        for alpha, beta, applies in branches])
        x_cr = quality(chf)
        residual = chf - _flux(branches, x_cr)
    return _HbmColumns(
        chf=chf,
        critical_quality=x_cr,
        residual=residual,
        quality_excursion=~((QUALITY_MIN <= x_cr) & (x_cr <= QUALITY_MAX)),
        failed=failed,
        r_lo=r_lo,
        r_hi=r_hi,
    )
