"""Property tests: the heat-balance solve on columns against the scalar
solve it replaced.

The oracle below is the earlier pure-Python implementation: branch
coefficients, correlation value and closed-form solve for one row of
Python floats.  The array code takes every power and exponential through
the C library one element at a time and keeps the scalar code's order of
operations, so the outcomes must be equal to the bit: each row's
HbmSolution by ``repr``, or a NoCriticalConditionError with the same
message.  A one-row call must give the bits of the same row in a batch.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit import correlations, fluid
from chfkit.correlations import (
    BIASI_LOW_FLOW_LIMIT,
    HBM_FLUX_BRACKET,
    QUALITY_MAX,
    QUALITY_MIN,
    HbmSolution,
    InletConditions,
    NoCriticalConditionError,
    bowring_inlet,
    solve_hbm,
)
from chfkit.data import TABLE1_ENVELOPE

from one_row import dsm

# ---------------------------------------------------------------------------
# Oracle: the scalar branch form and closed-form solve
# ---------------------------------------------------------------------------


def _biasi_pressure_f(p_bar: float) -> float:
    return 0.7249 + 0.099 * p_bar * math.exp(-0.032 * p_bar)


def _biasi_pressure_h(p_bar: float) -> float:
    return -1.159 + 0.149 * p_bar * math.exp(-0.019 * p_bar) + 9.0 * p_bar / (10.0 + p_bar * p_bar)


def _bowring_factors(p_pa: float) -> tuple[float, float, float, float, float]:
    p_r = p_pa / 6.895e6
    n = 2.0 - 0.5 * p_r
    if p_r <= 1.0:
        f1 = (p_r**18.942 * math.exp(20.89 * (1.0 - p_r)) + 0.917) / 1.917
        f2 = f1 / ((p_r**1.316 * math.exp(2.444 * (1.0 - p_r)) + 0.309) / 1.309)
        f3 = (p_r**17.023 * math.exp(16.658 * (1.0 - p_r)) + 0.667) / 1.667
    else:
        f1 = p_r**-0.368 * math.exp(0.648 * (1.0 - p_r))
        f2 = f1 / (p_r**-0.448 * math.exp(0.245 * (1.0 - p_r)))
        f3 = p_r**0.219
    f4 = f3 * p_r**1.649
    return f1, f2, f3, f4, n


def _both_forms_bowring_factors(p_pa: np.ndarray) -> tuple[np.ndarray, ...]:
    """The column code that ``correlations._bowring_factors`` replaced:
    both pressure forms on every row, then ``np.where`` picks one."""
    _pow, _exp = correlations._pow, correlations._exp
    p_r = p_pa / 6.895e6
    n = 2.0 - 0.5 * p_r
    # both forms on every row, then the one for its side of p_r = 1; each
    # stays finite over the whole saturation range
    low = p_r <= 1.0
    f1 = np.where(low, (_pow(p_r, 18.942) * _exp(20.89 * (1.0 - p_r)) + 0.917) / 1.917,
                  _pow(p_r, -0.368) * _exp(0.648 * (1.0 - p_r)))
    f2 = f1 / np.where(low, (_pow(p_r, 1.316) * _exp(2.444 * (1.0 - p_r)) + 0.309) / 1.309,
                       _pow(p_r, -0.448) * _exp(0.245 * (1.0 - p_r)))
    f3 = np.where(low, (_pow(p_r, 17.023) * _exp(16.658 * (1.0 - p_r)) + 0.667) / 1.667,
                  _pow(p_r, 0.219))
    f4 = f3 * _pow(p_r, 1.649)
    return f1, f2, f3, f4, n


def _bowring_ac(d: float, g: float, p_pa: float, h_fg: float) -> tuple[float, float]:
    f1, f2, f3, f4, n = _bowring_factors(p_pa)
    a = 2.317 * (h_fg * d * g / 4.0) * f1 / (1.0 + 0.0143 * f2 * math.sqrt(d) * g)
    c = 0.077 * f3 * d * g / (1.0 + 0.347 * f4 * (g / 1356.0) ** n)
    return a, c


def _branches(correlation: str, d: float, g: float, p_pa: float, h_fg: float = 0.0) -> tuple:
    if correlation == "bowring":
        a, cc = _bowring_ac(d, g, p_pa, h_fg)
        gdh = 0.25 * d * g * h_fg
        return ((gdh / cc, a / gdh),)
    p_bar = p_pa / 1e5
    scale = (100.0 * d) ** (-0.4 if d >= 0.01 else -0.6)
    high = (15.048e7 * scale * g ** (-0.6) * _biasi_pressure_h(p_bar), 1.0)
    if g <= BIASI_LOW_FLOW_LIMIT:
        return (high,)
    g6 = g ** (-1.0 / 6.0)
    return (2.764e7 * scale * g6, 1.468 * _biasi_pressure_f(p_bar) * g6), high


def _flux(branches: tuple, x: float) -> float:
    return max(alpha * (beta - x) for alpha, beta in branches)


def _solve_hbm(correlation: str, c: InletConditions, h_fg: float) -> HbmSolution:
    gd = c.mass_flux * c.diameter
    branches = _branches(correlation, c.diameter, c.mass_flux, c.pressure, h_fg)

    def quality(q: float) -> float:
        return 4.0 * q * c.heated_length / (gd * h_fg) - c.inlet_subcooling / h_fg

    q_lo, q_hi = HBM_FLUX_BRACKET
    r_lo = q_lo - _flux(branches, quality(q_lo))
    r_hi = q_hi - _flux(branches, quality(q_hi))
    if not (math.isfinite(r_lo) and math.isfinite(r_hi)):
        raise NoCriticalConditionError("non-finite residual", HBM_FLUX_BRACKET, (r_lo, r_hi))
    if r_lo >= 0.0 or r_hi <= 0.0:
        raise NoCriticalConditionError(
            "correlation does not cross the heat-balance line",
            bracket=(q_lo, q_hi),
            residuals=(r_lo, r_hi),
        )

    k = 4.0 * c.heated_length / (gd * h_fg)
    s = c.inlet_subcooling / h_fg
    chf = max(alpha * (beta + s) / (1.0 + alpha * k)
              for alpha, beta in branches if 1.0 + alpha * k > 0.0)
    x_cr = quality(chf)
    return HbmSolution(
        chf=chf,
        critical_quality=x_cr,
        iterations=0,
        residual=chf - _flux(branches, x_cr),
        quality_excursion=not QUALITY_MIN <= x_cr <= QUALITY_MAX,
    )


def _text(outcome) -> str:
    """repr of a value (every field to the bit), or an error's type and message."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return repr(outcome)


def _outcome(fn, *args) -> str:
    try:
        return _text(fn(*args))
    except NoCriticalConditionError as e:
        return _text(e)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def _envelope(name: str):
    return st.floats(*TABLE1_ENVELOPE[name])


# the places where the branches change: about 1 bar (Biasi's H(p) < 0),
# 190-200 bar with a two-phase inlet (Bowring stops crossing), G at and
# below the Biasi low-flow limit, D on both sides of 1 cm
_ROWS = st.builds(
    InletConditions,
    diameter=st.one_of(st.sampled_from([0.0099, 0.01, 0.0101]), _envelope("diameter")),
    heated_length=_envelope("heated_length"),
    pressure=st.one_of(st.sampled_from([1.0e5, 1.5e5, 6.895e6, 1.9e7, 1.95e7, 2.0e7]),
                       st.floats(fluid.P_SAT_MIN, fluid.P_CRITICAL)),
    mass_flux=st.one_of(st.sampled_from([BIASI_LOW_FLOW_LIMIT, 150.0, 300.5]),
                        _envelope("mass_flux")),
    inlet_subcooling=st.one_of(st.floats(-1.5e6, 0.0), _envelope("inlet_subcooling")),
)


def _columns(batch: list[InletConditions]) -> list[np.ndarray]:
    """Diameter, length, pressure, mass flux, subcooling and h_fg columns,
    h_fg from one saturation-state call."""
    x = np.array([(c.diameter, c.heated_length, c.pressure, c.mass_flux, c.inlet_subcooling)
                  for c in batch])
    return [*x.T, fluid.saturation_state(x[:, 2]).h_fg]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def _batch_outcomes(name: str, batch: list[InletConditions]) -> list[str]:
    """Each row of the solve's columns as the oracle's HbmSolution, or
    the row's error."""
    sol = correlations._solve_columns(name, *_columns(batch))
    return [_text(sol.error(i) if failed else HbmSolution(
                sol.chf[i].item(), sol.critical_quality[i].item(), 0, sol.residual[i].item(),
                sol.quality_excursion[i].item()))
            for i, failed in enumerate(sol.failed.tolist())]


def _oracle_outcomes(name: str, batch: list[InletConditions]) -> list[str]:
    return [_outcome(_solve_hbm, name, c, fluid.saturation_state(c.pressure).h_fg)
            for c in batch]


@pytest.mark.parametrize("name", ["biasi", "bowring"])
@settings(max_examples=150)
@given(batch=st.lists(_ROWS, min_size=1, max_size=64))
def test_column_solve_matches_scalar_oracle(name, batch):
    want = _oracle_outcomes(name, batch)
    assert _batch_outcomes(name, batch) == want
    # the one-row call gives the bits of the same row in the batch
    assert [_outcome(solve_hbm, name, c) for c in batch[:4]] == want[:4]


@settings(max_examples=150)
@given(batch=st.lists(_ROWS, min_size=1, max_size=64),
       qualities=st.lists(st.floats(QUALITY_MIN, QUALITY_MAX), min_size=64, max_size=64))
def test_direct_substitution_matches_scalar_oracle(batch, qualities):
    d, _, p, g, _, h_fg = _columns(batch)
    x = np.array(qualities[:len(batch)])
    for name in ("biasi", "bowring"):
        got = correlations._flux(correlations._branches(name, d, g, p, h_fg), x).tolist()
        want = [_flux(_branches(name, c.diameter, c.mass_flux, c.pressure, h), q)
                for c, h, q in zip(batch, h_fg.tolist(), x.tolist())]
        assert list(map(repr, got)) == list(map(repr, want))
        c = batch[0]
        assert repr(dsm(name, c.diameter, c.pressure, c.mass_flux, qualities[0])) == repr(want[0])
    got = [bowring_inlet(c) for c in batch[:4]]
    want = []
    for c in batch[:4]:
        a, cc = _bowring_ac(c.diameter, c.mass_flux, c.pressure,
                            fluid.saturation_state(c.pressure).h_fg)
        want.append((a + 0.25 * c.diameter * c.mass_flux * c.inlet_subcooling)
                    / (cc + c.heated_length))
    assert list(map(repr, got)) == list(map(repr, want))


def test_branch_changes_and_failures_match_oracle():
    rows = [InletConditions(0.01, 2.83, 1.0e5, 400.0, 1.0e5),      # Biasi: negative slope
            InletConditions(0.01262, 5.56, 2.0e7, 1000.0, -1.2e6),  # x_in > 1: both fail
            InletConditions(0.01, 2.0, 1.95e7, 1000.0, -1.0e5),     # Biasi fails alone
            InletConditions(0.01, 2.0, 1.9e7, 300.0, -3.0e5),       # Bowring at 190 bar
            InletConditions(0.0099, 1.0, 7.0e6, 300.0, 1.0e5)]      # Biasi low flow
    for name, fails in (("biasi", [0, 1, 1, 1, 0]), ("bowring", [0, 1, 0, 1, 0])):
        got = _batch_outcomes(name, rows)
        assert got == _oracle_outcomes(name, rows)
        assert [int(o.startswith("NoCriticalConditionError")) for o in got] == fails


# 6.895e6 Pa is p_r = 1 exactly, the last pressure of the low form
_P_R1 = 6.895e6
_BOWRING_PRESSURES = st.one_of(
    st.sampled_from([_P_R1, math.nextafter(_P_R1, 0.0), math.nextafter(_P_R1, math.inf)]),
    st.floats(fluid.P_SAT_MIN, fluid.P_CRITICAL))


def _bits(columns) -> list[bytes]:
    return [c.tobytes() for c in columns]


@settings(max_examples=150)
@given(ps=st.lists(_BOWRING_PRESSURES, min_size=1, max_size=64))
def test_bowring_factors_take_the_bits_of_both_forms(ps):
    # each row evaluates only the form for its side of p_r = 1
    p = np.array(ps)
    want = _both_forms_bowring_factors(p)
    assert _bits(correlations._bowring_factors(p)) == _bits(want)
    for i in range(min(p.size, 4)):
        assert (_bits(correlations._bowring_factors(p[i:i + 1]))
                == _bits(w[i:i + 1] for w in want))


def test_bowring_factors_at_p_r_1_mix_both_sides():
    p = np.array([1.0e5, _P_R1, 1.5e7, _P_R1, fluid.P_SAT_MIN, fluid.P_CRITICAL])
    assert (p / 6.895e6 <= 1.0).tolist() == [True, True, False, True, True, False]
    assert _bits(correlations._bowring_factors(p)) == _bits(_both_forms_bowring_factors(p))
    one = np.array([_P_R1])
    assert _bits(correlations._bowring_factors(one)) == _bits(_both_forms_bowring_factors(one))
