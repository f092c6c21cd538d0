"""chfkit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/``
in-process and every CLI stage runs through ``chfkit.cli.main(argv)``,
closed loop: one caller, each call starting when the previous returns.

Time is counted in seconds at the machine's full speed.  On a shared
machine the speed swings by up to 1.7x from second to second, so a
fixed reference tick (``tick``) is timed every ``TICK_PERIOD_S`` while a
call runs,
and ``EDGE_TICKS`` times before and after it; a call's seconds (less the
ticks inside it) times its mean tick rate times the tick's time at full
speed, ``TICK_NOMINAL_S``, is its time at full speed.

A run:

1. writes the workload's inputs from ``--seed`` in a child process
   (untimed, and kept out of this process's peak RSS);
2. set-up: starts a fresh interpreter ``SETUP_REPS`` times, each running
   the workload's set-up CLI call, with ticks timed before and after
   each one (none during it, so that the child has the machine to
   itself); ``setup_s`` is the median of their times at full speed.
   The interpreter, the imports and the set-up work all count in it;
3. runs one untimed warm-up of every stage;
4. repeats the timed pass while another pass as long as the last one
   still ends within ``--seconds``; ``wall_s`` sums over the calls the
   median over the passes of the call's time at full speed, and
   ``wall_raw_s`` each call's fastest time in plain seconds;
5. with ``--trace 1``, then runs one more pass with every traced
   function wrapped (and no ticks), and reports the per-layer metrics
   instead;
6. checks the outputs and that each call's manifest was byte-identical
   in every pass.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds provenance and per-call detail.  A failed
check prints the result with ``"correct": false`` and exits 1.
"""

import os

# BLAS threading is unsteady on small machines: pin it before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = ".perfbench_out"
SETUP_REPS = 11
SETUP_TIMEOUT_S = 120
GEN_TIMEOUT_S = 120
TICK_N = 1500            # float rounds in one reference tick
TICK_ROWS = (8, 20000)   # the array whose rows a tick updates
# the tick's time at full speed: the 1st percentile of 3,000 ticks on
# one vCPU of a 2.1 GHz Xeon with Python 3.11 and numpy 2.4
TICK_NOMINAL_S = 0.00041
TICK_PERIOD_S = 0.02     # wall time between ticks during a call
EDGE_TICKS = 10          # ticks before and after a call
# writes a workload's inputs: python -c GEN_CODE <src> <root> <workload> <dir> <seed>
GEN_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "from perfbench.workloads import WORKLOADS; "
            "WORKLOADS[sys.argv[3]](sys.argv[4], int(sys.argv[5])).generate()")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _provenance() -> dict:
    import numpy

    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "chfkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, check=False)
        sha = r.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _generate(workload) -> None:
    """Write the workload's inputs in a child process, so that the
    generator's memory stays out of this process's peak RSS."""
    subprocess.run([sys.executable, "-c", GEN_CODE, SRC, ROOT, workload.name,
                    workload.work, str(workload.seed)],
                   cwd=ROOT, timeout=GEN_TIMEOUT_S, check=True)


def _setup(workload, meter: "Meter") -> tuple[list[float], list[float]]:
    """Seconds of each fresh-interpreter set-up repetition, and the same
    at full speed."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    times, full, outputs = [], [], []
    for i in range(SETUP_REPS):
        outdir = workload.path(f"setup{i}")
        cmd = [sys.executable, "-m", "chfkit.cli", *workload.setup_argv(outdir)]
        r, secs, full_s = meter.measure(
            lambda: subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                   stderr=subprocess.PIPE, text=True,
                                   timeout=SETUP_TIMEOUT_S, check=False),
            sample=False)
        times.append(secs)
        full.append(full_s)
        if r.returncode != 0:
            raise RuntimeError(f"set-up call failed: {' '.join(cmd)}\n{r.stderr}")
        if os.path.isdir(outdir):
            outputs.append(_read_tree(outdir))
    if any(o != outputs[0] for o in outputs):
        raise RuntimeError("set-up repetitions wrote different files")
    return times, full


def _read_tree(d: str) -> dict[str, bytes]:
    """Files a set-up call wrote; the manifest names its own outdir."""
    out = {}
    for name in sorted(set(os.listdir(d)) - {"manifest.json"}):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _call(cli, argv) -> int:
    try:
        return cli.main(list(argv))
    except SystemExit as e:  # argparse rejects the arguments
        return e.code if isinstance(e.code, int) else 1


def tick(rows) -> float:
    """Seconds of one reference tick: pure-Python float arithmetic, like
    the IF97 and correlation code, then four row updates of ``rows``, like
    a simplex pivot over the train split.  Python code and numpy array
    code slow by different factors when the machine is busy; the mix
    tracked the four workloads more evenly than either part alone."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(TICK_N):
        x = i * 1e-3
        acc += math.exp(-x * 1e-3) * x ** 1.5 / (1.0 + x)
    for i in range(4):
        rows[i] -= 1e-9 * rows[-1]
    return time.perf_counter() - t0


class Meter:
    """Times calls at the machine's full speed (see the module docstring)."""

    def __init__(self):
        import numpy as np

        self.rows = np.random.default_rng(0).standard_normal(TICK_ROWS)
        self.rates: list[float] = []  # ticks per second
        self.spent = 0.0              # seconds of the ticks inside the call

    def _ticks(self, n: int) -> None:
        self.rates.extend(1.0 / tick(self.rows) for _ in range(n))

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._ticks(1)
        self.spent += time.perf_counter() - t0

    def measure(self, fn, sample: bool = True):
        """(fn's result, its seconds, its seconds at full speed); with
        ``sample`` a tick also runs every TICK_PERIOD_S during fn."""
        self.rates, self.spent = [], 0.0
        self._ticks(EDGE_TICKS)
        if sample:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            secs = time.perf_counter() - t0
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        secs -= self.spent
        self._ticks(EDGE_TICKS)
        return result, secs, secs * statistics.fmean(self.rates) * TICK_NOMINAL_S


@dataclass
class Pass:
    """One timed pass; every dict is keyed by call label."""

    times: dict[str, float] = field(default_factory=dict)   # seconds
    full_s: dict[str, float] = field(default_factory=dict)  # at full speed
    counts: dict[str, tuple[int, int]] = field(default_factory=dict)  # attempted, failed
    manifests: dict[str, bytes] = field(default_factory=dict)


def _run_pass(cli, workload, meter: Meter | None, tracer=None) -> Pass:
    """Every call of the workload once; timed by ``meter`` when given,
    else in plain seconds inside a ``cli.<command>`` span of ``tracer``."""
    out = Pass()
    gc.collect()
    for stage in workload.stages():
        if tracer is None:
            rc, out.times[stage.label], out.full_s[stage.label] = meter.measure(
                lambda: _call(cli, stage.argv))
        else:
            t0 = time.perf_counter()
            with tracer.span(f"cli.{stage.argv[0]}"):
                rc = _call(cli, stage.argv)
            out.times[stage.label] = time.perf_counter() - t0
        if rc != 0:
            out.counts[stage.label] = (1, 1)
            continue
        with open(os.path.join(stage.outdir, "manifest.json"), "rb") as fh:
            out.manifests[stage.label] = fh.read()
        out.counts[stage.label] = workload.attempted_failed(
            stage, json.loads(out.manifests[stage.label])["counts"])
    return out


def _rates(workload, stage_s: dict, counts: dict) -> dict[str, float]:
    """Throughput of each stage metric: its work items per second."""
    items: dict[str, float] = {}
    secs: dict[str, float] = {}
    for stage in workload.stages():
        if stage.metric is None:
            continue
        n = stage.items if stage.items is not None else counts[stage.label][0]
        items[stage.metric] = items.get(stage.metric, 0) + n
        secs[stage.metric] = secs.get(stage.metric, 0.0) + stage_s[stage.label]
    return {m: items[m] / secs[m] for m in items}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chfkit", "cli.py")):
        print(f"error: no chfkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    os.chdir(ROOT)

    import chfkit
    if os.path.dirname(os.path.abspath(chfkit.__file__)) != os.path.join(SRC, "chfkit"):
        print(f"error: chfkit imported from {chfkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from chfkit import cli
    from perfbench import checks, layers
    from perfbench.trace import Tracer
    from perfbench.workloads import END_TO_END, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[args.workload](work, args.seed)

    t0 = time.perf_counter()
    _generate(workload)
    gen_s = time.perf_counter() - t0
    meter = Meter()
    setup_times, setup_full = _setup(workload, meter)
    for argv in workload.warmup():
        if _call(cli, argv) != 0:
            print(f"error: warm-up call failed: {' '.join(argv)}", file=sys.stderr)
            return 1

    passes: list[Pass] = []
    problems: list[str] = []
    deadline = time.perf_counter() + args.seconds
    next_end = 0.0  # when another pass as long as the last one would end
    while next_end <= deadline:
        t0 = time.perf_counter()
        passes.append(_run_pass(cli, workload, meter))
        next_end = 2 * time.perf_counter() - t0
        problems += checks.check_same_bytes(passes[0].manifests, passes[-1].manifests)
        if len(passes) == 1:
            # after the same work on every run: the warm-up and one pass
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    labels = list(passes[0].times)
    stage_full_s = {label: statistics.median(p.full_s[label] for p in passes)
                    for label in labels}
    stage_s = {label: min(p.times[label] for p in passes) for label in labels}
    wall_s = sum(stage_full_s.values())
    rates = _rates(workload, stage_full_s, passes[-1].counts)
    rates["wall_raw_s"] = sum(stage_s.values())
    attempted = sum(a for p in passes for a, _ in p.counts.values())
    failed = sum(f for p in passes for _, f in p.counts.values())
    rates["fail_share"] = failed / attempted if attempted else 1.0
    detail = {"workload": args.workload, "seed": args.seed, "passes": len(passes),
              "setup_runs_s": setup_times, "setup_runs_full_s": setup_full,
              "gen_s": gen_s, "stage_s": stage_s, "stage_full_s": stage_full_s,
              "wall_s": wall_s,
              "pass_s": [p.times for p in passes], "pass_full_s": [p.full_s for p in passes],
              **rates, "provenance": _provenance()}

    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = _run_pass(cli, workload, None, tracer)
        finally:
            tracer.uninstall()
        attempted += sum(a for a, _ in traced.counts.values())
        failed += sum(f for _, f in traced.counts.values())
        problems += checks.check_same_bytes(passes[0].manifests, traced.manifests)
        rates["trace.overhead"] = sum(traced.times.values()) / sum(passes[-1].times.values())
        values = layers.per_layer(tracer, rates)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.metric_units().items()}
        detail.update(traced_s=traced.times, trace_overhead=rates["trace.overhead"],
                      absent=tracer.absent, hook_errors=sorted(tracer.hook_errors))
    else:
        values = {"setup_s": statistics.median(setup_full), "wall_s": wall_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    t0 = time.perf_counter()
    problems += workload.check()
    detail["check_s"] = time.perf_counter() - t0
    correct = not problems
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if not correct:
        return 1
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
