"""Shipping gate: the package's end-to-end guarantees, one test each.

Each test prints a single verdict line (run ``pytest tests/test_acceptance.py
-v -s`` to see them all) and asserts the same condition, so the suite both
documents and enforces the release bar.  The NRC-database reproduction is
conditional: the database is not redistributable, so that test runs only
when ``CHFKIT_NRC_DB`` points at a local copy.
"""

import math
import os
import time

import numpy as np
import pytest

from chfkit import fluid
from chfkit.channel import ChannelCase, solve_channel
from chfkit.correlations import (InletConditions, LocalConditions, biasi_dsm,
                                 bowring_dsm, bowring_inlet,
                                 heat_balance_quality, solve_hbm)
from chfkit.evaluation import compute_report
from chfkit.hybrid import ChfPredictor, predict
from chfkit.mlp import (DenseLayer, Mlp, Scaler, TrainConfig, forward,
                        forward_batch, init_mlp, load_model,
                        save_model, train)
from chfkit.validity import classify_batch

from gradcheck import gradient_check

# hidden widths of the deployed CHF network
TABLE_WIDTHS = (44, 64, 41, 26, 67, 10, 17)

# operating envelope (SI) used for the randomized physics checks: well
# inside the data envelope and free of critical-quality excursions
RANGE_LO = np.array([4e-3, 1.0, 2000e3, 800.0, 50e3])
RANGE_HI = np.array([12e-3, 5.0, 16000e3, 4000.0, 400e3])


def _verdict(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _latin_hypercube(n: int, seed: int) -> np.ndarray:
    """n stratified samples over the operating envelope, one per stratum."""
    rng = np.random.default_rng(seed)
    u = np.empty((n, 5))
    for j in range(5):
        u[:, j] = (rng.permutation(n) + rng.uniform(size=n)) / n
    return RANGE_LO + u * (RANGE_HI - RANGE_LO)


# ---------------------------------------------------------------------------
# 1. serialization round trip
# ---------------------------------------------------------------------------

def test_criterion_01_save_reload_bit_identical(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    net = init_mlp(5, TABLE_WIDTHS, "tanh", seed=2024,
                   input_scaler=Scaler(rng.normal(size=5),
                                       rng.uniform(0.5, 2.0, 5)),
                   output_scaler=Scaler(rng.normal(size=1),
                                        rng.uniform(0.5, 2.0, 1)))
    path = str(tmp_path / "round_trip.chfmlp")
    save_model(net, path)
    reloaded = load_model(path)

    x = rng.standard_normal((1000, 5))
    delta = np.abs(forward_batch(net, x) - forward_batch(reloaded, x))
    max_delta = float(delta.max())
    single_ok = all(forward(net, row) == forward(reloaded, row)
                    for row in x[:10])

    # hand-computed 2-2-1 tanh reference, plain-float arithmetic
    ref = Mlp(layers=[DenseLayer(np.array([[0.5, -0.25], [0.1, 0.3]]),
                                 np.array([0.1, -0.2]), "tanh"),
                      DenseLayer(np.array([[0.7, -0.6]]),
                                 np.array([0.05]), "identity")],
              input_scaler=Scaler.identity(2),
              output_scaler=Scaler.identity(1))
    h1 = math.tanh(0.5 * 0.3 + (-0.25) * (-0.8) + 0.1)
    h2 = math.tanh(0.1 * 0.3 + 0.3 * (-0.8) + (-0.2))
    by_hand = 0.7 * h1 + (-0.6) * h2 + 0.05
    rel = abs(forward(ref, (0.3, -0.8)) - by_hand) / abs(by_hand)

    dt = time.perf_counter() - t0
    _verdict(1, max_delta == 0.0 and single_ok and rel < 1e-9 and dt < 1.0,
             f"reload max |delta| = {max_delta}; 2-2-1 reference rel err "
             f"{rel:.2e} (< 1e-9); {dt:.2f} s (< 1 s)")


# ---------------------------------------------------------------------------
# 2. inference throughput
# ---------------------------------------------------------------------------

def test_criterion_02_thousand_evaluations_under_8ms():
    net = init_mlp(5, TABLE_WIDTHS, "tanh", seed=7)
    x = np.random.default_rng(7).standard_normal((1000, 5))
    forward_batch(net, x)  # warm-up
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        forward_batch(net, x)
        times.append(time.perf_counter() - t0)
    median = sorted(times)[2]
    _verdict(2, median < 8e-3,
             f"1000-input forward_batch median {median * 1e3:.2f} ms (< 8 ms)")


# ---------------------------------------------------------------------------
# 3. heat-balance solve consistency
# ---------------------------------------------------------------------------

def test_criterion_03_hbm_consistency():
    t0 = time.perf_counter()
    worst_residual = 0.0
    worst_inlet_rel = 0.0
    for row in _latin_hypercube(100, 424241):
        c = InletConditions(*row)
        for dsm, name in ((biasi_dsm, "biasi"), (bowring_dsm, "bowring")):
            sol = solve_hbm(name, c)
            assert not sol.quality_excursion
            local = LocalConditions(c.diameter, c.pressure, c.mass_flux,
                                    heat_balance_quality(sol.chf, c))
            worst_residual = max(worst_residual, abs(sol.chf - dsm(local)))
        rel = abs(solve_hbm("bowring", c).chf - bowring_inlet(c))
        worst_inlet_rel = max(worst_inlet_rel, rel / bowring_inlet(c))
    dt = time.perf_counter() - t0
    _verdict(3, worst_residual < 1.0 and worst_inlet_rel < 1e-3 and dt < 10.0,
             f"100 stratified cases x 2 correlations: worst residual "
             f"{worst_residual:.3f} W/m2 (< 1); bowring solve vs closed form "
             f"{worst_inlet_rel:.2e} (< 1e-3); {dt:.2f} s (< 10 s)")


# ---------------------------------------------------------------------------
# 4. analytic gradients vs finite differences
# ---------------------------------------------------------------------------

def test_criterion_04_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    smooth = ("identity", "tanh", "sigmoid", "softplus", "elu")  # no relu kink
    worst = 0.0
    for i in range(100):
        n_in = int(rng.integers(2, 7))
        widths = tuple(int(w) for w in
                       rng.integers(2, 9, size=int(rng.integers(1, 5))))
        net = init_mlp(n_in, widths, smooth[int(rng.integers(len(smooth)))],
                       seed=i)
        n_batch = int(rng.integers(1, 9))
        err = gradient_check(net, rng.standard_normal((n_batch, n_in)),
                             rng.standard_normal(n_batch))
        worst = max(worst, err)
    dt = time.perf_counter() - t0
    _verdict(4, worst < 1e-5 and dt < 30.0,
             f"100 random architectures: worst gradient rel err {worst:.2e} "
             f"(< 1e-5); {dt:.2f} s (< 30 s)")


# ---------------------------------------------------------------------------
# 5. hybrid beats pure at data scarcity
# ---------------------------------------------------------------------------

def _smooth_bias(x: np.ndarray) -> np.ndarray:
    u = (x - RANGE_LO) / (RANGE_HI - RANGE_LO)
    return (np.sin(np.pi * u[:, 0]) * np.cos(np.pi * u[:, 2])
            + 0.5 * (u[:, 1] - 0.5)
            + 0.3 * np.sin(2 * np.pi * u[:, 3]) * (u[:, 4] - 0.5))


def _synthetic_truth(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    base = np.array([bowring_inlet(InletConditions(*row)) for row in x])
    return base * (1.0 + 0.1 * _smooth_bias(x)), base


def _fit(x, y, mode, base, seed):
    in_s = Scaler.fit(x)
    out_s = Scaler.fit(y.reshape(-1, 1))
    net = init_mlp(5, (16, 16), "tanh", seed=seed, input_scaler=in_s,
                   output_scaler=out_s, mode=mode, base_model=base,
                   feature_names=("diameter", "heated_length", "pressure",
                                  "mass_flux", "inlet_subcooling"))
    cfg = TrainConfig(epochs=400, batch_size=min(16, len(y)), lr0=0.01,
                      decay_rate=0.995, seed=seed)
    return train(net, in_s.transform(x),
                 out_s.transform(y.reshape(-1, 1))[:, 0], cfg)[0]


def test_criterion_05_hybrid_beats_pure_when_data_is_scarce():
    t0 = time.perf_counter()
    x_test = _latin_hypercube(400, 909090)
    y_test, base_test = _synthetic_truth(x_test)
    rrmse_base = compute_report(base_test, y_test, trim_quantile=1.0).rrmse

    rrmse = {}
    for n in (9, 50, 500):
        x_tr = _latin_hypercube(n, 1000 + n)
        y_tr, base_tr = _synthetic_truth(x_tr)
        pure = ChfPredictor(kind="pure_ml",
                            model=_fit(x_tr, y_tr, "direct", "none", 1))
        hybrid = ChfPredictor(kind="hybrid_bowring",
                              model=_fit(x_tr, y_tr - base_tr, "residual",
                                         "bowring", 1))
        for label, p in (("pure", pure), ("hybrid", hybrid)):
            pred = np.array([predict(p, InletConditions(*row))
                             for row in x_test])
            rrmse[label, n] = compute_report(pred, y_test,
                                             trim_quantile=1.0).rrmse
    dt = time.perf_counter() - t0
    ok = (rrmse["hybrid", 9] < rrmse["pure", 9]
          and rrmse["hybrid", 50] <= rrmse["pure", 50]
          and rrmse["hybrid", 500] < rrmse_base
          and dt < 300.0)
    _verdict(5, ok,
             f"rRMSE pure/hybrid at 9 pts {rrmse['pure', 9]:.2f}/"
             f"{rrmse['hybrid', 9]:.2f}%, at 50 pts {rrmse['pure', 50]:.2f}/"
             f"{rrmse['hybrid', 50]:.2f}%, hybrid at 500 pts "
             f"{rrmse['hybrid', 500]:.2f}% vs standalone {rrmse_base:.2f}%; "
             f"{dt:.1f} s (< 300 s)")


# ---------------------------------------------------------------------------
# 6. error-metric fidelity
# ---------------------------------------------------------------------------

def test_criterion_06_metric_fidelity():
    t0 = time.perf_counter()
    rep = compute_report([110.0, 120.0], [100.0, 100.0], trim_quantile=1.0)
    fixture_ok = (
        abs(rep.mean_rel_error - 15.0) < 1e-9
        and abs(rep.std_rel_error - 5.0) < 1e-9
        and abs(rep.rrmse - 15.811388300841896) < 1e-9
        and abs(rep.max_rel_error - 20.0) < 1e-9
        and abs(rep.frac_gt_10 - 50.0) < 1e-9
        and abs(rep.frac_gt_25 - 0.0) < 1e-9
    )

    rng = np.random.default_rng(4242)
    worst_scale = 0.0
    monotone = True
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        truth = 10.0 ** rng.uniform(3.0, 7.0, n)
        pred = truth * (1.0 + np.clip(rng.normal(0.0, 0.2, n), -0.9, 0.9))
        a = compute_report(pred, truth, trim_quantile=1.0)
        s = 10.0 ** rng.uniform(-3.0, 3.0)
        b = compute_report(pred * s, truth * s, trim_quantile=1.0)
        for f in ("mean_rel_error", "std_rel_error", "rrmse", "max_rel_error",
                  "frac_gt_10", "frac_gt_25"):
            va, vb = getattr(a, f), getattr(b, f)
            if va != 0.0 or vb != 0.0:
                worst_scale = max(worst_scale, abs(va - vb) / max(abs(va), abs(vb)))
        q = float(rng.uniform(0.5, 1.0))
        if compute_report(pred, truth, trim_quantile=q).rrmse > a.rrmse + 1e-12:
            monotone = False
    dt = time.perf_counter() - t0
    _verdict(6, fixture_ok and worst_scale < 1e-12 and monotone and dt < 10.0,
             f"hand fixtures to 1e-9; scale drift {worst_scale:.2e} and "
             f"trim monotone over 1000 batches; {dt:.2f} s (< 10 s)")


# ---------------------------------------------------------------------------
# 7. hull membership vs reference LP
# ---------------------------------------------------------------------------

def _inside(train_pts, query) -> bool:
    return bool(classify_batch(train_pts, [query])[0].inside[0])


def test_criterion_07_hull_matches_reference_lp():
    from scipy.optimize import linprog

    t0 = time.perf_counter()
    rng = np.random.default_rng(20240820)
    disagreements = 0
    for i in range(200):
        n = int(rng.integers(8, 41))
        train_pts = rng.normal(size=(n, 7))
        kind = i % 3
        if kind == 0:  # convex combination of training rows
            lam = rng.gamma(1.0, size=n)
            query = (lam / lam.sum()) @ train_pts
        elif kind == 1:  # uniform draw over an enclosing box
            query = rng.uniform(-2.0, 2.0, 7)
        else:  # perturbed training row
            query = train_pts[int(rng.integers(n))] + rng.normal(0.0, 0.15, 7)
        mine = _inside(train_pts, query)
        res = linprog(np.zeros(n),
                      A_eq=np.vstack([train_pts.T, np.ones(n)]),
                      b_eq=np.concatenate([query, [1.0]]),
                      bounds=[(0.0, None)] * n, method="highs")
        if mine != (res.status == 0):
            disagreements += 1

    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    exact_ok = (_inside(square, np.array([0.5, 0.5]))
                and _inside(square, np.array([1.0, 1.0]))
                and not _inside(square, np.array([2.0, 2.0])))
    dt = time.perf_counter() - t0
    _verdict(7, disagreements == 0 and exact_ok and dt < 60.0,
             f"200 random 7-D instances: {disagreements} disagreements with "
             f"reference LP; unit-square cases exact; {dt:.1f} s (< 60 s)")


# ---------------------------------------------------------------------------
# 8. water-property verification tables
# ---------------------------------------------------------------------------

def test_criterion_08_fluid_verification_tables():
    t0 = time.perf_counter()
    table = [
        (fluid.saturation_pressure, (300.0,), 0.353658941e-2 * 1e6),
        (fluid.saturation_pressure, (500.0,), 0.263889776e1 * 1e6),
        (fluid.saturation_pressure, (600.0,), 0.123443146e2 * 1e6),
        (fluid.saturation_temperature, (0.1e6,), 0.372755919e3),
        (fluid.saturation_temperature, (1.0e6,), 0.453035632e3),
        (fluid.saturation_temperature, (10.0e6,), 0.584149488e3),
        (fluid.enthalpy_region1, (3.0e6, 300.0), 0.115331273e3 * 1e3),
        (fluid.enthalpy_region1, (80.0e6, 300.0), 0.184142828e3 * 1e3),
        (fluid.enthalpy_region1, (3.0e6, 500.0), 0.975542239e3 * 1e3),
        (fluid.enthalpy_region2, (0.0035e6, 300.0), 0.254991145e4 * 1e3),
        (fluid.enthalpy_region2, (0.0035e6, 700.0), 0.333568375e4 * 1e3),
        (fluid.enthalpy_region2, (30.0e6, 700.0), 0.263149474e4 * 1e3),
    ]
    worst_rel = max(abs(fn(*args) - want) / abs(want)
                    for fn, args, want in table)

    rng = np.random.default_rng(817)
    worst_rt = 0.0
    for t in rng.uniform(fluid.T_SAT_MIN + 0.01, fluid.T_CRITICAL - 0.01, 1000):
        worst_rt = max(worst_rt, abs(
            fluid.saturation_temperature(fluid.saturation_pressure(t)) - t))
    dt = time.perf_counter() - t0
    _verdict(8, worst_rel < 5e-9 and worst_rt < 1e-6 and dt < 5.0,
             f"12 verification values worst rel {worst_rel:.2e} (9 sig "
             f"digits); saturation round trip worst {worst_rt:.2e} K "
             f"(< 1e-6); {dt:.2f} s (< 5 s)")


# ---------------------------------------------------------------------------
# 9. channel physics
# ---------------------------------------------------------------------------

def test_criterion_09_channel_physics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    pred = ChfPredictor(kind="base_bowring")
    worst_h = 0.0
    exit_minimum = True
    worst_refine = 0.0
    for k in range(50):
        row = RANGE_LO + rng.uniform(size=5) * (RANGE_HI - RANGE_LO)
        c = InletConditions(*row)
        case = ChannelCase(diameter=row[0], heated_length=row[1],
                           pressure=row[2], mass_flux=row[3],
                           inlet_subcooling=row[4],
                           wall_heat_flux=0.7 * bowring_inlet(c), n_axial=60)
        prof = solve_channel(case, pred)
        h_exit = (fluid.saturation_state(case.pressure).h_f
                  - case.inlet_subcooling
                  + 4.0 * case.wall_heat_flux * case.heated_length
                  / (case.mass_flux * case.diameter))
        worst_h = max(worst_h,
                      abs(prof.enthalpies[-1] - h_exit) / abs(h_exit))
        if int(np.argmin(prof.dnbr)) != case.n_axial - 1:
            exit_minimum = False
        if k < 10:  # refinement study on a subset; one node pins z = L
            fine = solve_channel(
                ChannelCase(diameter=row[0], heated_length=row[1],
                            pressure=row[2], mass_flux=row[3],
                            inlet_subcooling=row[4],
                            wall_heat_flux=case.wall_heat_flux, n_axial=240),
                pred)
            worst_refine = max(worst_refine,
                               abs(fine.dnbr[-1] - prof.dnbr[-1])
                               / prof.dnbr[-1])
    dt = time.perf_counter() - t0
    _verdict(9, worst_h < 1e-12 and exit_minimum and worst_refine < 1e-3
             and dt < 30.0,
             f"exit enthalpy vs closed form {worst_h:.2e} (< 1e-12); minimum "
             f"DNBR at exit node in 50/50 cases; 60->240 node exit-DNBR "
             f"shift {worst_refine:.2e} (< 1e-3); {dt:.2f} s (< 30 s)")


# ---------------------------------------------------------------------------
# 10. measured-database reproduction (conditional)
# ---------------------------------------------------------------------------

@pytest.mark.skipif("CHFKIT_NRC_DB" not in os.environ,
                    reason="measured CHF database not shipped; set "
                           "CHFKIT_NRC_DB to enable")
def test_criterion_10_measured_database_reproduction():
    from chfkit.data import feature_matrix, ingest, split

    t0 = time.perf_counter()
    table, report = ingest(os.environ["CHFKIT_NRC_DB"], strict=True)
    parts = split(table, seed=0)
    n_test = len(parts.test)

    features = ("diameter", "heated_length", "pressure", "mass_flux",
                "exit_quality", "inlet_subcooling", "inlet_temperature")
    _, summary = classify_batch(feature_matrix(parts.train, features),
                                feature_matrix(parts.test, features))

    rrmse = {}
    # the model-feature columns are the InletConditions fields, in order
    rows = list(zip(feature_matrix(parts.test).tolist(), parts.test.measured_chf.tolist()))
    for name, want in (("biasi", 87.66), ("bowring", 13.39)):
        pred, truth = [], []
        for inlet, measured in rows:
            try:
                pred.append(solve_hbm(name, InletConditions(*inlet)).chf)
            except Exception:
                continue  # convergence failures are omitted, as in the study
            truth.append(measured)
        rrmse[name] = (compute_report(pred, truth).rrmse, want)

    dt = time.perf_counter() - t0
    ok = (n_test == 2458 and summary.n_outside == 66
          and all(abs(got - want) <= 2.0 for got, want in rrmse.values()))
    _verdict(10, ok,
             f"test partition {n_test} rows (want 2458); {summary.n_outside} "
             f"outside hull (want 66); rRMSE biasi {rrmse['biasi'][0]:.2f}% "
             f"(want {rrmse['biasi'][1]}+-2), bowring "
             f"{rrmse['bowring'][0]:.2f}% (want {rrmse['bowring'][1]}+-2); "
             f"{dt:.1f} s")
