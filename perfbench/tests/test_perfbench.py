"""Tests of the benchmark itself: every output check must reject a
corrupted fixture, the tracer's self time must be span minus children,
and BENCHMARK.json must name exactly the metrics a run prints."""

import json
import os
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _p in (str(ROOT), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from chfkit.cli import main  # noqa: E402
from chfkit.hybrid import ChfPredictor  # noqa: E402
from perfbench import checks, gen, layers  # noqa: E402
from perfbench.trace import Tracer, bucket, bucket_mid_ns, percentile_us  # noqa: E402
from perfbench.workloads import END_TO_END, WORKLOADS  # noqa: E402


def _rewrite_cell(path, row, column, fn):
    header, rows = checks.read_csv(path)
    j = header.index(column)
    rows[row][j] = fn(rows[row][j])
    Path(path).write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")


@pytest.fixture(scope="module")
def table_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("table")
    table = gen.rows(60, seed=3)
    gen.write_table(str(d / "table.csv"), table)
    gen.write_residuals(str(d / "fit.csv"), table[:40])
    assert main(["prepare", f"data={d / 'table.csv'}", "base=bowring",
                 f"outdir={d / 'prep'}"]) == 0
    assert main(["train", "mode=residual", "base=bowring", f"train_csv={d / 'fit.csv'}",
                 "epochs=1", f"outdir={d / 'fit'}"]) == 0
    assert main(["predict", "kind=hybrid_bowring", f"model={d / 'fit' / 'model.chfmlp'}",
                 f"data={d / 'prep' / 'test.csv'}", f"outdir={d / 'pred'}"]) == 0
    return d


def test_prediction_check_rejects_base_chf_off_by_10_w_m2(table_run, tmp_path):
    args = [str(table_run / "prep" / "test.csv"), str(tmp_path / "predictions.csv"),
            str(table_run / "fit" / "model.chfmlp")]
    shutil.copy(table_run / "pred" / "predictions.csv", args[1])
    assert checks.check_predictions(*args) == []
    _rewrite_cell(args[1], 0, "base_chf_kW_m2", lambda v: repr(float(v) + 0.01))
    problems = checks.check_predictions(*args)
    assert any("closed-form Bowring" in p for p in problems)


def test_prediction_check_rejects_changed_residual(table_run, tmp_path):
    args = [str(table_run / "prep" / "test.csv"), str(tmp_path / "predictions.csv"),
            str(table_run / "fit" / "model.chfmlp")]
    shutil.copy(table_run / "pred" / "predictions.csv", args[1])
    _rewrite_cell(args[1], 1, "ml_residual_kW_m2", lambda v: repr(float(v) * (1 + 1e-15)))
    assert any("forward_batch" in p for p in checks.check_predictions(*args))


def test_manifest_check_rejects_one_changed_byte(table_run):
    first = {"prepare": (table_run / "prep" / "manifest.json").read_bytes()}
    assert checks.check_same_bytes(first, dict(first)) == []
    data = bytearray(first["prepare"])
    data[len(data) // 2] ^= 1
    assert checks.check_same_bytes(first, {"prepare": bytes(data)}) != []


def test_hull_check_rejects_one_flipped_verdict(tmp_path):
    table = gen.rows(90, seed=4)
    train, query = str(tmp_path / "train.csv"), str(tmp_path / "query.csv")
    gen.write_complete_table(train, table[:80])
    gen.write_complete_table(query, table[80:])
    assert main(["hullcheck", f"train_csv={train}", f"query_csv={query}",
                 f"outdir={tmp_path / 'hull'}"]) == 0
    verdicts = str(tmp_path / "hull" / "verdicts.csv")
    assert checks.check_hull(train, query, verdicts) == []
    _rewrite_cell(verdicts, 3, "inside", lambda v: "0" if v == "1" else "1")
    assert any("LP oracle" in p for p in checks.check_hull(train, query, verdicts))


def test_critical_power_check_rejects_flux_1_percent_off(tmp_path):
    cases = str(tmp_path / "cases.csv")
    gen.write_cases(cases, 2, seed=5)
    _rewrite_cell(cases, 1, "n_axial", lambda v: "20")
    assert main(["simulate", f"cases={cases}", "kind=base_bowring", "critical_power=true",
                 "bracket_lo_kW_m2=100", "bracket_hi_kW_m2=15000",
                 f"outdir={tmp_path / 'sim'}"]) == 0
    cp = str(tmp_path / "sim" / "critical_power.csv")
    pred = ChfPredictor(kind="base_bowring")
    assert checks.check_critical_power(cases, cp, pred) == []
    _rewrite_cell(cp, 0, "critical_flux_kW_m2", lambda v: repr(float(v) * 1.01))
    assert any("min DNBR" in p for p in checks.check_critical_power(cases, cp, pred))


def test_model_check_rejects_non_finite_loss(table_run, tmp_path):
    loss = tmp_path / "loss_trace.csv"
    shutil.copy(table_run / "fit" / "loss_trace.csv", loss)
    fit = table_run / "fit" / "model.chfmlp"
    resid = str(table_run / "fit.csv")
    assert checks.check_model(str(fit), resid, str(loss)) == []
    _rewrite_cell(str(loss), 0, "loss", lambda v: "nan")
    assert checks.check_model(str(fit), resid, str(loss)) != []


def test_generator_is_seeded_and_in_equal_thirds(tmp_path):
    a, b = gen.rows(30, seed=8), gen.rows(30, seed=8)
    assert a == b and a != gen.rows(30, seed=9)
    # every block of three rows holds each inlet form once, so shards match
    assert all(sorted(r.form for r in a[i:i + 3]) == [0, 1, 2] for i in range(0, 30, 3))


def test_depth_strata_picks_distinct_pool_rows_in_order():
    table = gen.rows(400, seed=2)
    train, pool = table[:300], table[300:]
    picks = gen.depth_strata(train, pool, 10, seed=2)
    index = [pool.index(r) for r in picks]
    assert index == sorted(set(index)) and len(index) == 10
    assert picks == gen.depth_strata(train, pool, 10, seed=2)


# -- tracer ---------------------------------------------------------------

def test_self_time_is_span_minus_children():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 3

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def mid():
        now[0] += 5
        traced_leaf()
        traced_leaf()
        now[0] += 2

    traced_mid = tracer.wrap("m.mid", mid)
    with tracer.span("root"):
        now[0] += 1
        traced_mid()

    leaf_agg, mid_agg = tracer.spans[("m.mid", "m.leaf")], tracer.spans[("root", "m.mid")]
    root_agg = tracer.spans[(None, "root")]
    assert (leaf_agg.count, leaf_agg.total_ns, leaf_agg.self_ns) == (2, 6, 6)
    assert (mid_agg.count, mid_agg.total_ns, mid_agg.self_ns) == (1, 13, 7)
    assert (root_agg.total_ns, root_agg.self_ns) == (14, 1)


def test_calls_inside_a_named_parent_are_left_to_it():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])
    inner = tracer.wrap("m.inner", lambda: now.__setitem__(0, now[0] + 4),
                        inside=("m.outer",))
    outer = tracer.wrap("m.outer", inner)
    outer()
    inner()
    assert tracer.merged("m.inner").count == 1
    assert tracer.spans[(None, "m.outer")].self_ns == 4


def test_install_wraps_every_reference_and_reports_missing_names():
    pkg, a, b = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b"))

    def f(x):
        return x + 1

    a.f, b.f_alias = f, f
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    try:
        tracer = Tracer()
        tracer.install("fakepkg", "a.f", on_result=lambda c, args, kw, r: c.update(last=r))
        tracer.install("fakepkg", "a.gone")
        assert a.f is not f and b.f_alias is a.f
        assert b.f_alias(1) == 2 and tracer.counters["last"] == 2
        assert tracer.merged("a.f").count == 1 and tracer.absent == ["a.gone"]
        tracer.uninstall()
        assert a.f is f and b.f_alias is f
    finally:
        for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            del sys.modules[name]


def test_absent_functions_and_failed_hooks_read_null():
    tracer = Tracer()
    tracer.absent.append("mlp.train")
    tracer.hook_errors.add("validity.classify_batch")
    values = layers.per_layer(tracer, {})
    assert values.keys() == layers.metric_units().keys()
    assert values["mlp.train.self_s"] is None and values["mlp.train.epoch_s"] is None
    assert values["validity.n_inside"] is None
    assert values["validity.classify_batch.s_per_query"] is None
    assert values["validity.classify_batch.calls"] == 0
    assert values["mlp.forward.calls"] == 0 and values["data.ingest.rows"] == 0


def test_histogram_buckets_are_within_a_sixteenth():
    for ns in (1, 7, 31, 32, 33, 1000, 12345, 10**6 + 17, 3 * 10**9):
        assert abs(bucket_mid_ns(bucket(ns)) - ns) <= ns / 16


def test_percentiles_from_histogram():
    tracer = Tracer(clock=lambda: 0)
    agg = tracer.merged("none")
    assert percentile_us(agg, 0.5) == 0.0
    for ns in [1000] * 98 + [10**6] * 2:
        agg.count += 1
        agg.hist[bucket(ns)] = agg.hist.get(bucket(ns), 0) + 1
    assert percentile_us(agg, 0.5) == pytest.approx(1.0, rel=1 / 16)
    assert percentile_us(agg, 0.99) == pytest.approx(1000.0, rel=1 / 16)


# -- the runner ----------------------------------------------------------

def test_meter_scales_a_call_by_the_tick_rate_and_leaves_its_ticks_out(monkeypatch):
    from perfbench import run

    monkeypatch.setattr(run, "tick", lambda rows: 2 * run.TICK_NOMINAL_S)
    meter = run.Meter()
    result, secs, full_s = meter.measure(lambda: time.sleep(0.2) or "done")
    # ticks ran during the call as well as around it
    assert len(meter.rates) > 2 * run.EDGE_TICKS
    assert result == "done" and 0.19 <= secs < 0.3
    # at half the nominal tick rate the machine runs at half speed
    assert full_s == pytest.approx(secs / 2, rel=1e-12)
    _, secs, full_s = meter.measure(lambda: None, sample=False)
    assert len(meter.rates) == 2 * run.EDGE_TICKS and full_s == pytest.approx(secs / 2)


def test_a_pass_times_every_call_and_reads_its_manifest(tmp_path):
    from perfbench import run
    from perfbench.workloads import Stage

    stages = [Stage(f"c{k}", (f"c{k}",), str(tmp_path)) for k in range(2)]
    workload = types.SimpleNamespace(stages=lambda: stages,
                                     attempted_failed=lambda stage, counts: (counts["n"], 0))
    calls = []

    def main(argv):
        calls.append(argv)
        (tmp_path / "manifest.json").write_text('{"counts": {"n": 3}}')
        return 0

    meter = types.SimpleNamespace(measure=lambda fn: (fn(), 1.0, 0.5))
    p = run._run_pass(types.SimpleNamespace(main=main), workload, meter)
    assert calls == [["c0"], ["c1"]]
    assert p.times == {"c0": 1.0, "c1": 1.0} and p.full_s == {"c0": 0.5, "c1": 0.5}
    assert p.counts == {"c0": (3, 0), "c1": (3, 0)}


# -- the contract with BENCHMARK.json --------------------------------------

def test_benchmark_json_names_what_a_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert r.returncode != 0 and r.stdout == ""
