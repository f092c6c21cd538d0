"""Seeded input generators for the benchmark.

chfkit sees only the CSV files written here.  Every draw comes from
``numpy.random.default_rng(seed)``, so one seed always gives the same
bytes.

The row generator follows the ranges of the synthetic rows in the CLI
tests (D 8-13 mm, L 2-6 m, P 3-12 MPa, G 500-3000 kg/m2s, subcooling
50-400 kJ/kg) with CHF = 1.1 x Bowring x U(0.9, 1.1), keeping only rows
inside the ingest envelope.  It is a copy, not an import: the benchmark
does not depend on the test tree.

Each row gets one of three inlet forms, in equal thirds:

* ``FORM_DH``: subcooling only, so ingest inverts IF97 for T_in;
* ``FORM_T``: T_in only, with +-0.5 K noise, so ingest computes the
  subcooling from it;
* ``FORM_ALL``: subcooling, noisy T_in and x_e, so nothing is derived.

Without independent T_in noise every point lies on the IF97 surface and
almost no query falls inside the 7-feature convex hull.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from chfkit import fluid
from chfkit.correlations import InletConditions, bowring_inlet

FORM_DH, FORM_T, FORM_ALL = 0, 1, 2

TABLE_HEADER = "D_mm,L_m,P_kPa,G_kg_m2s,x_e,dh_sub_kJ_kg,T_in_C,chf_kW_m2"
RESIDUAL_HEADER = ("diameter_m,heated_length_m,pressure_Pa,mass_flux_kg_m2s,"
                   "inlet_subcooling_J_kg,base_chf_W_m2,measured_chf_W_m2,"
                   "residual_W_m2")
CASE_HEADER = "D_mm,L_m,P_kPa,G_kg_m2s,dh_sub_kJ_kg,q_wall_kW_m2,n_axial"

# rough liquid heat capacity, J/(kg K), used only to aim the drawn inlet
# temperature at the drawn subcooling; the exact subcooling is then
# computed from IF97 and range-checked
_CP_AIM = 4.8e3


@dataclass(frozen=True)
class Row:
    """One synthetic experiment in file units (see TABLE_HEADER)."""

    d_mm: float
    l_m: float
    p_kpa: float
    g: float
    dh_kj: float        # subcooling at the noise-free inlet temperature
    t_c: float          # noise-free inlet temperature
    t_noisy_c: float    # t_c + U(-0.5, 0.5) K, rounded
    dh_noisy_kj: float  # subcooling IF97 gives for t_noisy_c
    chf_kw: float
    x_e: float          # heat-balance exit quality with dh_kj
    x_e_noisy: float    # the same with dh_noisy_kj
    form: int


def _si(row: Row, dh_kj: float) -> InletConditions:
    return InletConditions(diameter=row.d_mm * 1e-3, heated_length=row.l_m,
                           pressure=row.p_kpa * 1e3, mass_flux=row.g,
                           inlet_subcooling=dh_kj * 1e3)


def rows(n: int, seed: int) -> list[Row]:
    """``n`` rows inside the envelope, inlet forms in equal thirds."""
    rng = np.random.default_rng(seed)
    out: list[Row] = []
    while len(out) < n:
        k = 2 * (n - len(out)) + 16
        draws = zip(
            np.round(rng.uniform(8.0, 13.0, k), 4).tolist(),
            np.round(rng.uniform(2.0, 6.0, k), 4).tolist(),
            np.round(rng.uniform(3000.0, 12000.0, k), 2).tolist(),
            np.round(rng.uniform(500.0, 3000.0, k), 2).tolist(),
            rng.uniform(50.0, 400.0, k).tolist(),
            rng.uniform(0.9, 1.1, k).tolist(),
            rng.uniform(-0.5, 0.5, k).tolist(),
        )
        for d, length, p, g, dh_aim, factor, noise in draws:
            if len(out) == n:
                break
            sat = fluid.saturation_state(p * 1e3)
            t_k = round(sat.temperature - dh_aim * 1e3 / _CP_AIM, 3)
            t_noisy_k = round(t_k + noise, 3)
            if t_noisy_k >= sat.temperature:
                continue
            dh = (sat.h_f - fluid.enthalpy_region1(p * 1e3, t_k)) / 1e3
            dh_noisy = (sat.h_f - fluid.enthalpy_region1(p * 1e3, t_noisy_k)) / 1e3
            if not (50.0 <= dh <= 400.0 and 50.0 <= dh_noisy <= 400.0):
                continue
            c = InletConditions(diameter=d * 1e-3, heated_length=length,
                                pressure=p * 1e3, mass_flux=g,
                                inlet_subcooling=dh * 1e3)
            chf = round(1.1 * bowring_inlet(c) * factor / 1e3, 3)
            if not 50.0 <= chf <= 16339.0:
                continue
            # heat balance at the full heated length, as ingest derives x_e
            x = (4e3 * chf * length / (g * d * 1e-3) - dh * 1e3) / sat.h_fg
            x_noisy = x + (dh - dh_noisy) * 1e3 / sat.h_fg
            if not (-0.5 < x <= 0.97 and -0.5 < x_noisy <= 0.97):
                continue
            out.append(Row(d, length, p, g, dh,
                           t_k - 273.15, t_noisy_k - 273.15, dh_noisy, chf,
                           x, x_noisy, 0))
    # every three consecutive rows hold one row of each form, so any
    # contiguous slice of the table (the warm-up's prefix) has the same mix
    forms = np.concatenate([rng.permutation(3) for _ in range(-(-n // 3))])[:n]
    return [replace(r, form=int(f)) for r, f in zip(out, forms)]


def write_table(path: str, table: list[Row]) -> None:
    """Raw measurement table: blank cells where the form says so."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TABLE_HEADER + "\n")
        for r in table:
            x_e = repr(r.x_e) if r.form == FORM_ALL else ""
            dh = "" if r.form == FORM_T else repr(r.dh_kj)
            t_in = "" if r.form == FORM_DH else repr(r.t_noisy_c)
            fh.write(f"{r.d_mm!r},{r.l_m!r},{r.p_kpa!r},{r.g!r},{x_e},{dh},"
                     f"{t_in},{r.chf_kw!r}\n")


def write_complete_table(path: str, table: list[Row]) -> None:
    """Every cell filled, as ``prepare`` would complete each form.

    ``FORM_DH`` rows carry the noise-free temperature and ``FORM_T`` rows
    the subcooling of the noisy one, so those points lie on the IF97
    surface; ``FORM_ALL`` rows keep independent temperature noise.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TABLE_HEADER + "\n")
        for r in table:
            dh, t_in, x_e = _completed(r)
            fh.write(f"{r.d_mm!r},{r.l_m!r},{r.p_kpa!r},{r.g!r},{x_e!r},{dh!r},"
                     f"{t_in!r},{r.chf_kw!r}\n")


def _completed(r: Row) -> tuple[float, float, float]:
    """(subcooling kJ/kg, T_in C, x_e) of a row once every cell is known."""
    if r.form == FORM_DH:
        return r.dh_kj, r.t_c, r.x_e
    if r.form == FORM_T:
        return r.dh_noisy_kj, r.t_noisy_c, r.x_e_noisy
    return r.dh_kj, r.t_noisy_c, r.x_e


def depth_strata(train: list[Row], pool: list[Row], n: int, seed: int) -> list[Row]:
    """``n`` rows of ``pool`` spread evenly over their standardized
    distance from the centre of ``train`` (the 7 hull features): the pool,
    sorted by that distance, is cut into ``n`` equal strata and one row is
    drawn from each.  A hull query costs more or less by how deep inside or
    how far outside the hull it lies, so strata keep the work of a run
    nearly the same from seed to seed; rows keep their pool order."""
    def features(rows: list[Row]) -> np.ndarray:
        return np.array([(r.d_mm, r.l_m, r.p_kpa, r.g, *_completed(r)) for r in rows])

    x = features(train)
    mean, std = x.mean(axis=0), x.std(axis=0)
    depth = np.linalg.norm((features(pool) - mean) / np.where(std > 0.0, std, 1.0), axis=1)
    size = len(pool) // n
    order = np.argsort(depth, kind="stable")
    rng = np.random.default_rng(seed)
    picks = order[np.arange(n) * size + rng.integers(0, size, n)]
    return [pool[i] for i in sorted(picks.tolist())]


def write_residuals(path: str, table: list[Row]) -> None:
    """Residual training rows (SI) against the closed-form Bowring base,
    in the layout ``prepare`` writes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RESIDUAL_HEADER + "\n")
        for r in table:
            c = _si(r, _completed(r)[0])
            base = bowring_inlet(c)
            measured = r.chf_kw * 1e3
            cells = (c.diameter, c.heated_length, c.pressure, c.mass_flux,
                     c.inlet_subcooling, base, measured, measured - base)
            fh.write(",".join(repr(float(v)) for v in cells) + "\n")


def write_cases(path: str, n: int, seed: int) -> None:
    """``n`` heated-tube cases on a Latin hypercube over the row ranges:
    each range is cut into ``n`` strata and every stratum holds one case,
    so a seed changes which cases are marched but hardly the total work.
    n_axial spans 20-120 evenly, shuffled."""
    rng = np.random.default_rng(seed)

    def strata(lo: float, hi: float, digits: int) -> list[float]:
        u = (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n
        return np.round(lo + (hi - lo) * u, digits).tolist()

    n_axial = rng.permutation(np.round(np.linspace(20, 120, n)).astype(int)).tolist()
    columns = zip(strata(8.0, 13.0, 4), strata(2.0, 6.0, 4), strata(3000.0, 12000.0, 2),
                  strata(500.0, 3000.0, 2), strata(50.0, 400.0, 3), n_axial)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CASE_HEADER + "\n")
        for d, length, p, g, dh, nz in columns:
            fh.write(f"{d!r},{length!r},{p!r},{g!r},{dh!r},1000.0,{nz}\n")
