"""Output checks run after the timed section of every benchmark run.

Each check reads the files a CLI stage wrote and returns a list of
problems (empty when the outputs are right).  File cells are converted
to SI exactly as ``chfkit.data`` converts them on ingest, so a check
sees the same floats the stage saw.
"""

from __future__ import annotations

import math

import numpy as np

from chfkit.channel import ChannelCase, solve_channel
from chfkit.correlations import InletConditions, bowring_inlet
from chfkit.mlp import forward, forward_batch, load_model

# heat-balance solve tolerance on the residual, W/m2; the HBM root moves
# by no more than the residual because the residual's slope is >= 1
HBM_TOL_W_M2 = 1.0
DNBR_TOL = 1e-6
HULL_FEATURES = ("diameter", "heated_length", "pressure", "mass_flux",
                 "exit_quality", "inlet_subcooling", "inlet_temperature")


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def table_si(path: str) -> list[dict[str, float | None]]:
    """Rows of a complete CHF table (file schema) in SI units."""
    header, rows = read_csv(path)
    col = {name: header.index(name) for name in header}
    scale = {"D_mm": ("diameter", 1e-3), "L_m": ("heated_length", None),
             "P_kPa": ("pressure", 1e3), "G_kg_m2s": ("mass_flux", None),
             "x_e": ("exit_quality", None), "dh_sub_kJ_kg": ("inlet_subcooling", 1e3),
             "chf_kW_m2": ("measured_chf", 1e3)}
    out = []
    for cells in rows:
        rec: dict[str, float | None] = {}
        for column, (field, factor) in scale.items():
            v = float(cells[col[column]])
            rec[field] = v if factor is None else v * factor
        t = cells[col["T_in_C"]].strip()
        rec["inlet_temperature"] = float(t) + 273.15 if t else None
        out.append(rec)
    return out


def _inlet(rec) -> InletConditions:
    return InletConditions(diameter=rec["diameter"], heated_length=rec["heated_length"],
                           pressure=rec["pressure"], mass_flux=rec["mass_flux"],
                           inlet_subcooling=rec["inlet_subcooling"])


def _features(recs) -> np.ndarray:
    return np.array([[r["diameter"], r["heated_length"], r["pressure"],
                      r["mass_flux"], r["inlet_subcooling"]] for r in recs])


def check_predictions(test_csv: str, pred_csv: str, model_path: str) -> list[str]:
    """Hybrid Bowring predictions of ``predict`` on a prepared test split.

    * base_chf agrees with the closed-form Bowring value within the HBM
      tolerance;
    * the residual equals forward_batch on the same features, bit for bit;
    * chf_pred is base + residual exactly (the printed kW values are the
      W values / 1e3, so the base is recovered to the ulp first).
    """
    recs = table_si(test_csv)
    header, rows = read_csv(pred_csv)
    col = {name: header.index(name) for name in header}
    resid = forward_batch(load_model(model_path), _features(recs))
    problems = []
    if len(rows) != len(recs):
        problems.append(f"{pred_csv}: {len(rows)} rows for {len(recs)} inputs")
    for cells in rows:
        line = int(cells[col["row"]])
        where = f"{pred_csv} row {line}"
        if cells[col["status"]] != "ok":
            problems.append(f"{where}: status {cells[col['status']]!r}")
            continue
        rec, r = recs[line - 2], float(resid[line - 2])
        base_kw = float(cells[col["base_chf_kW_m2"]])
        pred_kw = float(cells[col["chf_pred_kW_m2"]])
        want = bowring_inlet(_inlet(rec))
        if not abs(base_kw * 1e3 - want) <= HBM_TOL_W_M2 + 1e-12 * want:
            problems.append(f"{where}: base_chf {base_kw * 1e3!r} W/m2 vs "
                            f"closed-form Bowring {want!r}")
        if float(cells[col["ml_residual_kW_m2"]]) != r / 1e3:
            problems.append(f"{where}: residual differs from forward_batch")
        near = [base_kw * 1e3]
        for _ in range(2):
            near = [math.nextafter(near[0], -math.inf), *near,
                    math.nextafter(near[-1], math.inf)]
        if not any(b / 1e3 == base_kw and (b + r) / 1e3 == pred_kw for b in near):
            problems.append(f"{where}: chf_pred is not base + residual")
    return problems


def check_model(model_path: str, val_csv: str, loss_csv: str) -> list[str]:
    """A trained model reloads, single-row forward equals forward_batch
    bit for bit, and every loss in the trace is finite."""
    problems = []
    model = load_model(model_path)
    _, rows = read_csv(val_csv)
    x = np.array([[float(v) for v in cells[:5]] for cells in rows])
    batch = forward_batch(model, x)
    n_diff = sum(forward(model, row) != float(b) for row, b in zip(x, batch))
    if n_diff:
        problems.append(f"{model_path}: forward differs from forward_batch on {n_diff} rows")
    _, losses = read_csv(loss_csv)
    if not losses or not all(math.isfinite(float(c[1])) for c in losses):
        problems.append(f"{loss_csv}: missing or non-finite loss")
    return problems


def check_critical_power(cases_csv: str, cp_csv: str, predictor) -> list[str]:
    """At every reported critical flux the channel's min DNBR is 1."""
    _, cases = read_csv(cases_csv)
    header, rows = read_csv(cp_csv)
    col = {name: header.index(name) for name in header}
    problems = []
    for cells in rows:
        i = int(cells[col["case"]])
        if cells[col["status"]] != "ok":
            problems.append(f"{cp_csv} case {i}: status {cells[col['status']]!r}")
            continue
        d, length, p, g, dh, _, n_axial = (float(v) for v in cases[i])
        case = ChannelCase(diameter=d * 1e-3, heated_length=length, pressure=p * 1e3,
                           mass_flux=g, inlet_subcooling=dh * 1e3,
                           wall_heat_flux=float(cells[col["critical_flux_kW_m2"]]) * 1e3,
                           n_axial=int(n_axial))
        dnbr = solve_channel(case, predictor).min_dnbr
        if not abs(dnbr - 1.0) <= DNBR_TOL:
            problems.append(f"{cp_csv} case {i}: min DNBR {dnbr!r} at the critical flux")
    return problems


def check_hull(train_csv: str, query_csv: str, verdicts_csv: str) -> list[str]:
    """Inside/outside verdicts agree with a scipy LP feasibility oracle
    on the same standardized points (population std, zero std -> 1)."""
    from scipy.sparse import csc_array

    train = np.array([[r[f] for f in HULL_FEATURES] for r in table_si(train_csv)])
    query = np.array([[r[f] for f in HULL_FEATURES] for r in table_si(query_csv)])
    mean, std = train.mean(axis=0), train.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    a_eq = csc_array(np.vstack([((train - mean) / std).T, np.ones(len(train))]))
    _, verdicts = read_csv(verdicts_csv)
    problems = []
    if len(verdicts) != len(query):
        problems.append(f"{verdicts_csv}: {len(verdicts)} verdicts for {len(query)} queries")
    for cells, q in zip(verdicts, query):
        b_eq = np.concatenate([(q - mean) / std, [1.0]])
        status = _lp_feasibility(a_eq, b_eq)
        if status not in (0, 2):
            problems.append(f"{verdicts_csv} row {cells[0]}: oracle status {status}")
        elif (cells[1] == "1") != (status == 0):
            problems.append(f"{verdicts_csv} row {cells[0]}: inside={cells[1]} but "
                            f"the LP oracle says {'inside' if status == 0 else 'outside'}")
    return problems


# HiGHS now and then reports numerical difficulties (status 4) on points
# on the hull boundary; another algorithm then settles the question
_LP_METHODS = (("highs", {"presolve": False}), ("highs-ipm", {"presolve": False}),
               ("highs", {}))


def _lp_feasibility(a_eq, b_eq) -> int:
    """linprog status of {l >= 0 : A l = b}: 0 feasible, 2 infeasible."""
    from scipy.optimize import linprog

    status = None
    for method, options in _LP_METHODS:
        status = linprog(np.zeros(a_eq.shape[1]), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None),
                         method=method, options=options).status
        if status in (0, 2):
            break
    return status


def check_same_bytes(first: dict[str, bytes], now: dict[str, bytes]) -> list[str]:
    """Every manifest is byte-identical to the one of the first pass."""
    return [f"{name}: differs from the first pass"
            for name in sorted(first) if now.get(name) != first[name]]
