"""The four benchmark workloads.

Each workload writes its inputs from the seed, names the chfkit CLI call
its set-up makes in a fresh interpreter, a small warm-up, the CLI calls
of one timed pass, and the checks on what the last pass wrote.  Every
pass reuses the same output directories, so each call's manifest must
come out byte-identical pass after pass.

Each stage is one CLI call on the whole input: the runner measures the
machine's speed during each call, so no call needs to be short.

Why each workload exists, and which layers it loads, is recorded in
BENCHMARK.json and README.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import checks, gen

# paper scale: 24,579 database rows, split 80/10/10 by prepare
TABLE_ROWS = 24579
TRAIN_ROWS = 19663
TEST_ROWS = 2458
TRAIN_EPOCHS = 2
CHANNEL_CASES = 12
HULL_QUERIES = 60
HULL_POOL = 10  # held-out rows per query to stratify from
BRACKET = ("bracket_lo_kW_m2=100", "bracket_hi_kW_m2=15000")
# the hybrid model used by predict and simulate: forward cost depends
# only on the architecture (the default), so a short fit is enough
MODEL_ROWS = 1000
MODEL_EPOCHS = 2
WARM_ROWS = 300

# what an untraced run of any workload reports: name -> unit
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Stage:
    """One CLI call of a timed pass."""

    label: str                 # unique name of the call within a pass
    argv: tuple[str, ...]      # chfkit CLI arguments
    outdir: str
    metric: str | None = None  # throughput this call counts towards
    items: int | None = None   # its work items; None: the attempted count


def _run_counts(command: str, counts: dict) -> tuple[int, int]:
    """(attempted, failed) operations of a stage, from its manifest."""
    if command == "prepare":
        return counts["rows_read"], counts["rows_rejected"] + counts.get("hbm_failures", 0)
    if command == "predict":
        return counts["rows_read"], counts["rows_rejected"] + counts["failed"]
    if command == "evaluate":
        return counts["rows"], counts["rows_missing_values"]
    if command == "hullcheck":
        return counts["n_inside"] + counts["n_outside"], 0
    return 1, counts.get("failed", 0)


class Workload:
    name = ""

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def generate(self) -> None:
        raise NotImplementedError

    def setup_argv(self, outdir: str) -> tuple[str, ...]:
        """CLI call each set-up repetition makes in a fresh interpreter."""
        return ("--version",)

    def warmup(self) -> list[tuple[str, ...]]:
        raise NotImplementedError

    def stages(self) -> list[Stage]:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def attempted_failed(self, stage: Stage, counts: dict) -> tuple[int, int]:
        return _run_counts(stage.argv[0], counts)

    # shared by the workloads that need the hybrid model
    def _model_argv(self, outdir: str) -> tuple[str, ...]:
        return ("train", "mode=residual", "base=bowring",
                f"train_csv={self.path('model_train.csv')}",
                f"epochs={MODEL_EPOCHS}", f"seed={self.seed}", f"outdir={outdir}")

    @property
    def model(self) -> str:
        return self.path("setup0", "model.chfmlp")


class Table(Workload):
    """prepare -> predict (hybrid_bowring) -> evaluate on a paper-size table."""

    name = "table"

    def generate(self) -> None:
        table = gen.rows(TABLE_ROWS, self.seed)
        gen.write_table(self.path("table.csv"), table)
        gen.write_table(self.path("warm.csv"), table[:WARM_ROWS])
        gen.write_residuals(self.path("model_train.csv"), table[:MODEL_ROWS])

    def setup_argv(self, outdir):
        return self._model_argv(outdir)

    def _pipeline(self, data: str, out: str) -> list[Stage]:
        prep, pred = os.path.join(out, "prep"), os.path.join(out, "pred")
        ev = os.path.join(out, "eval")
        return [
            Stage("prepare", ("prepare", f"data={data}", "base=bowring",
                              f"seed={self.seed}", f"outdir={prep}"),
                  prep, "prepare_rows_per_s"),
            Stage("predict", ("predict", "kind=hybrid_bowring", f"model={self.model}",
                              f"data={os.path.join(prep, 'test.csv')}", f"outdir={pred}"),
                  pred, "predict_rows_per_s"),
            Stage("evaluate", ("evaluate", f"pred_csv={os.path.join(pred, 'predictions.csv')}",
                               f"outdir={ev}"), ev),
        ]

    def warmup(self):
        return [s.argv for s in self._pipeline(self.path("warm.csv"), self.path("warm"))]

    def stages(self):
        return self._pipeline(self.path("table.csv"), self.path("out"))

    def check(self):
        out = self.path("out")
        return checks.check_predictions(os.path.join(out, "prep", "test.csv"),
                                        os.path.join(out, "pred", "predictions.csv"),
                                        self.model)


class Train(Workload):
    """Residual training at paper size, with validation."""

    name = "train"

    def generate(self) -> None:
        table = gen.rows(TRAIN_ROWS + TEST_ROWS, self.seed)
        gen.write_residuals(self.path("residual_train.csv"), table[:TRAIN_ROWS])
        gen.write_residuals(self.path("residual_val.csv"), table[TRAIN_ROWS:])

    def _train(self, epochs: int, out: str) -> Stage:
        return Stage("train", ("train", "mode=residual", "base=bowring",
                               f"train_csv={self.path('residual_train.csv')}",
                               f"val_csv={self.path('residual_val.csv')}",
                               "batch_size=32", f"epochs={epochs}",
                               f"seed={self.seed}", f"outdir={out}"),
                     out, "train_samples_per_s", TRAIN_ROWS * epochs)

    def warmup(self):
        # the first train call in a process is markedly slower
        return [self._train(1, self.path("warm")).argv]

    def stages(self):
        return [self._train(TRAIN_EPOCHS, self.path("out", "train"))]

    def check(self):
        out = self.path("out", "train")
        return checks.check_model(os.path.join(out, "model.chfmlp"),
                                  self.path("residual_val.csv"),
                                  os.path.join(out, "loss_trace.csv"))


class Channel(Workload):
    """Critical-power searches with base_biasi and hybrid_bowring."""

    name = "channel"
    kinds = ("base_biasi", "hybrid_bowring")

    def generate(self) -> None:
        gen.write_cases(self.path("cases.csv"), CHANNEL_CASES, self.seed)
        gen.write_cases(self.path("warm_cases.csv"), 2, self.seed + 1)
        gen.write_residuals(self.path("model_train.csv"), gen.rows(MODEL_ROWS, self.seed))

    def setup_argv(self, outdir):
        return self._model_argv(outdir)

    def _simulate(self, kind: str, cases: str, out: str, n: int) -> Stage:
        model = (f"model={self.model}",) if kind.startswith("hybrid") else ()
        return Stage(f"simulate.{kind}",
                     ("simulate", f"cases={cases}", f"kind={kind}", *model,
                      "critical_power=true", *BRACKET, f"outdir={out}"),
                     out, f"cases_per_s.{kind}", n)

    def warmup(self):
        return [self._simulate(k, self.path("warm_cases.csv"), self.path("warm", k), 2).argv
                for k in self.kinds]

    def stages(self):
        return [self._simulate(kind, self.path("cases.csv"), self.path("out", kind),
                               CHANNEL_CASES)
                for kind in self.kinds]

    def attempted_failed(self, stage, counts):
        # every case is one channel march plus one critical-power search
        return 2 * stage.items, counts["failed"]

    def check(self):
        from chfkit.hybrid import ChfPredictor
        from chfkit.mlp import load_model

        problems = []
        for kind in self.kinds:
            model = load_model(self.model) if kind.startswith("hybrid") else None
            problems += checks.check_critical_power(
                self.path("cases.csv"), self.path("out", kind, "critical_power.csv"),
                ChfPredictor(kind=kind, model=model))
        return problems


class Hull(Workload):
    """One hullcheck of held-out rows, stratified by depth, against a
    paper-size train split."""

    name = "hull"

    def generate(self) -> None:
        table = gen.rows(TRAIN_ROWS + HULL_POOL * HULL_QUERIES, self.seed)
        train, pool = table[:TRAIN_ROWS], table[TRAIN_ROWS:]
        gen.write_complete_table(self.path("train.csv"), train)
        gen.write_complete_table(self.path("query.csv"),
                                 gen.depth_strata(train, pool, HULL_QUERIES, self.seed))
        gen.write_complete_table(self.path("warm_query.csv"), pool[:5])

    def _hullcheck(self, query: str, out: str) -> Stage:
        return Stage("hullcheck", ("hullcheck", f"train_csv={self.path('train.csv')}",
                                   f"query_csv={query}", f"outdir={out}"),
                     out, "queries_per_s")

    def warmup(self):
        return [self._hullcheck(self.path("warm_query.csv"), self.path("warm")).argv]

    def stages(self):
        return [self._hullcheck(self.path("query.csv"), self.path("out"))]

    def check(self):
        return checks.check_hull(self.path("train.csv"), self.path("query.csv"),
                                 self.path("out", "verdicts.csv"))


WORKLOADS = {w.name: w for w in (Table, Train, Channel, Hull)}
