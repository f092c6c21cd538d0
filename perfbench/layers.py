"""What the traced run wraps, and the per-layer metrics it reports.

A layer is a chfkit module.  Each traced function is named
``<module>.<function>``; counters come from return values and raised
exceptions, never from inside the package.  A function the package no
longer has is listed as absent, and its metrics read null rather than 0,
so that a later change that deletes a helper still runs but cannot show
a false gain; so do the counters of a hook that failed on a changed
return shape.
"""

from __future__ import annotations

import inspect
import sys

from .trace import Tracer, percentile_us

PACKAGE = "chfkit"

# a p99 needs ten or more calls above it; with fewer calls in the traced
# pass both percentiles read 0
MIN_PERCENTILE_CALLS = 1000

CLI_STAGES = ("prepare", "train", "predict", "evaluate", "simulate", "hullcheck")

# (function, stats reported for it besides the counters below)
FUNCTIONS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("fluid.saturation_state", ("calls", "self_s")),
    ("fluid.inlet_temp_from_subcooling", ("calls", "self_s")),
    ("fluid.subcooling_from_inlet_temp", ("calls", "self_s")),
    ("fluid.enthalpy_region1", ("calls", "self_s")),
    ("correlations.solve_hbm", ("calls", "self_s", "p50_us", "p99_us")),
    ("correlations.heat_balance_quality", ("calls",)),
    ("data.ingest", ("calls", "self_s")),
    ("data.split", ("self_s",)),
    ("data.write_records", ("self_s",)),
    ("mlp.forward", ("calls", "self_s", "p50_us", "p99_us")),
    ("mlp.forward_batch", ("calls", "self_s")),
    ("mlp.train", ("self_s",)),
    ("mlp.save_model", ("self_s",)),
    ("mlp.load_model", ("self_s",)),
    ("hybrid.predict", ("calls", "self_s", "p50_us", "p99_us")),
    ("hybrid.build_residual_dataset", ("calls", "self_s")),
    ("channel.solve_channel", ("calls", "self_s", "p50_us", "p99_us")),
    ("channel.find_critical_power", ("calls", "self_s")),
    ("evaluation.compute_report", ("self_s",)),
    ("evaluation.kde", ("self_s",)),
    ("evaluation.parity_series", ("self_s",)),
    ("validity.classify_batch", ("calls", "self_s")),
    ("validity.fit_pca", ("self_s",)),
    ("validity.write_projection_csv", ("self_s",)),
)

_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}

# counters and derived values, by the traced function they come from:
# function -> {name: unit}
COUNTERS: dict[str, dict[str, str]] = {
    "correlations.solve_hbm": {
        "correlations.hbm_iterations.mean": "count",
        "correlations.hbm_iterations.max": "count",
        "correlations.quality_excursions": "count",
        "correlations.no_critical": "count",
    },
    "data.ingest": {
        "data.ingest.rows": "count",
        "data.rows_rejected": "count",
        "data.rows_flagged": "count",
    },
    "mlp.forward_batch": {"mlp.forward_batch.rows": "count"},
    "mlp.train": {"mlp.train.epoch_s": "s"},
    "hybrid.build_residual_dataset": {"hybrid.residual_failures": "count"},
    "channel.solve_channel": {
        "channel.solve_channel.nodes": "count",
        "channel.flagged_nodes": "count",
    },
    "channel.find_critical_power": {
        "channel.cp_iterations.mean": "count",
        "channel.cp_iterations.max": "count",
        "channel.cp_hit_max_iter": "count",
    },
    "validity.classify_batch": {
        "validity.classify_batch.queries": "count",
        "validity.classify_batch.s_per_query": "s",
        "validity.n_inside": "count",
        "validity.n_outside": "count",
    },
}

# from the untraced passes of a traced run: plain wall seconds (each
# call's fastest pass), stage throughputs at full speed (zero where the
# workload does not run the stage) and the failure share; then the cost
# of tracing itself
RUN_METRICS: dict[str, str] = {
    "wall_raw_s": "s",
    "prepare_rows_per_s": "1/s",
    "predict_rows_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "cases_per_s.base_biasi": "1/s",
    "cases_per_s.hybrid_bowring": "1/s",
    "queries_per_s": "1/s",
    "fail_share": "ratio",
    "trace.overhead": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, in report order."""
    out: dict[str, str] = {}
    for fn, stats in FUNCTIONS:
        for stat in stats:
            out[f"{fn}.{stat}"] = _UNITS[stat]
    for counters in COUNTERS.values():
        out.update(counters)
    for stage in CLI_STAGES:
        out[f"cli.{stage}.self_s"] = "s"
    out.update(RUN_METRICS)
    return out


# -- hooks: fill counters from what a call returned or raised --------------

def _add(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _note_iterations(counters: dict, prefix: str, n: int) -> None:
    _add(counters, prefix + ".sum", n)
    _add(counters, prefix + ".n", 1)
    counters[prefix + ".max"] = max(counters.get(prefix + ".max", 0), n)


def _hbm(counters, args, kwargs, sol):
    _note_iterations(counters, "correlations.hbm_iterations", sol.iterations)
    _add(counters, "correlations.quality_excursions", int(sol.quality_excursion))


def _hbm_error(counters, exc):
    if type(exc).__name__ == "NoCriticalConditionError":
        _add(counters, "correlations.no_critical", 1)


def _ingest(counters, args, kwargs, result):
    _, report = result
    _add(counters, "data.ingest.rows", report.n_rows)
    _add(counters, "data.rows_rejected", len(report.rejected))
    _add(counters, "data.rows_flagged", len(report.flagged))


def _forward_batch(counters, args, kwargs, out):
    _add(counters, "mlp.forward_batch.rows", len(out))


def _train(counters, args, kwargs, result):
    _add(counters, "mlp.train.epochs", len(result[1]))


def _residuals(counters, args, kwargs, result):
    _add(counters, "hybrid.residual_failures", result[1].n_failed)


def _channel(counters, args, kwargs, profile):
    _add(counters, "channel.solve_channel.nodes", len(profile.heights))
    _add(counters, "channel.flagged_nodes", len(profile.flagged_nodes))


def _critical_power(max_iter_default):
    def hook(counters, args, kwargs, res):
        _note_iterations(counters, "channel.cp_iterations", res.iterations)
        max_iter = kwargs.get("max_iter", args[4] if len(args) > 4 else max_iter_default)
        _add(counters, "channel.cp_hit_max_iter", int(res.iterations >= max_iter))
    return hook


def _classify(counters, args, kwargs, result):
    verdicts, summary = result
    _add(counters, "validity.classify_batch.queries", len(verdicts))
    _add(counters, "validity.n_inside", summary.n_inside)
    _add(counters, "validity.n_outside", summary.n_outside)


def install(tracer: Tracer) -> None:
    """Wrap every function in FUNCTIONS wherever the package refers to it."""
    hooks = {
        "correlations.solve_hbm": {"on_result": _hbm, "on_error": _hbm_error},
        "data.ingest": {"on_result": _ingest},
        # forward's single-row forward_batch call is part of forward
        "mlp.forward_batch": {"on_result": _forward_batch,
                              "inside": ("mlp.forward",)},
        "mlp.train": {"on_result": _train},
        "hybrid.build_residual_dataset": {"on_result": _residuals},
        "channel.solve_channel": {"on_result": _channel},
        "validity.classify_batch": {"on_result": _classify},
    }
    cp = getattr(sys.modules.get(f"{PACKAGE}.channel"), "find_critical_power", None)
    if cp is not None:
        default = inspect.signature(cp).parameters.get("max_iter")
        hooks["channel.find_critical_power"] = {"on_result": _critical_power(
            default.default if default is not None else float("inf"))}
    for fn, _ in FUNCTIONS:
        tracer.install(PACKAGE, fn, **hooks.get(fn, {}))


def per_layer(tracer: Tracer, run_metrics: dict[str, float]) -> dict[str, float | None]:
    """Values of metric_units(), from a finished traced pass; None for the
    metrics of absent functions and of hooks that failed."""
    out: dict[str, float | None] = {}
    for fn, stats in FUNCTIONS:
        agg = tracer.merged(fn)
        for stat in stats:
            if stat == "calls":
                out[f"{fn}.{stat}"] = agg.count
            elif stat == "self_s":
                out[f"{fn}.{stat}"] = agg.self_ns / 1e9
            elif agg.count >= MIN_PERCENTILE_CALLS:
                out[f"{fn}.{stat}"] = percentile_us(agg, 0.5 if stat == "p50_us" else 0.99)
            else:
                out[f"{fn}.{stat}"] = 0.0
    c = tracer.counters
    for counters in COUNTERS.values():
        for name in counters:
            out[name] = c.get(name, 0)
    for prefix in ("correlations.hbm_iterations", "channel.cp_iterations"):
        n = c.get(prefix + ".n", 0)
        out[prefix + ".mean"] = c[prefix + ".sum"] / n if n else 0.0
        out[prefix + ".max"] = c.get(prefix + ".max", 0)
    epochs = c.get("mlp.train.epochs", 0)
    out["mlp.train.epoch_s"] = out["mlp.train.self_s"] / epochs if epochs else 0.0
    queries = c.get("validity.classify_batch.queries", 0)
    out["validity.classify_batch.s_per_query"] = (
        out["validity.classify_batch.self_s"] / queries if queries else 0.0)
    for stage in CLI_STAGES:
        out[f"cli.{stage}.self_s"] = tracer.merged(f"cli.{stage}").self_ns / 1e9
    for name in RUN_METRICS:
        out[name] = run_metrics.get(name, 0.0)
    for fn in tracer.absent:
        for stat in dict(FUNCTIONS).get(fn, ()):
            out[f"{fn}.{stat}"] = None
    for fn in {*tracer.absent, *tracer.hook_errors}:
        for name in COUNTERS.get(fn, {}):
            out[name] = None
    return out
