"""The traced benchmark pass must end in a strict-JSON result line.

``perfbench/run.py --trace 1`` wraps chfkit functions from the outside
and fills its counters from their return values.  A hook that fails on a
changed return shape, or a counter that reads NaN or infinity, spoils
that line (``json.dumps`` prints ``NaN``, which is not JSON).  This test
runs every CLI stage of the four workloads on tiny inputs under the
same tracer and requires every traced function present, clean hooks and
strictly serializable metrics with no null among them.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from chfkit.cli import main  # noqa: E402
from perfbench import gen, layers  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def test_traced_stages_give_strict_json_metrics(tmp_path):
    table = gen.rows(45, seed=5)
    gen.write_table(str(tmp_path / "table.csv"), table)
    gen.write_residuals(str(tmp_path / "fit.csv"), table[:30])
    gen.write_residuals(str(tmp_path / "val.csv"), table[30:40])
    gen.write_complete_table(str(tmp_path / "train.csv"), table[:40])
    gen.write_complete_table(str(tmp_path / "query.csv"), table[40:])
    gen.write_cases(str(tmp_path / "cases.csv"), 2, seed=5)
    with open(tmp_path / "cases.csv", "a", encoding="utf-8") as fh:
        fh.write("12.62,5.56,20000.0,1000.0,-1200.0,1000.0,12\n")  # flagged nodes
    model = tmp_path / "fit" / "model.chfmlp"
    stages = [
        ("prepare", f"data={tmp_path / 'table.csv'}", "base=bowring",
         f"outdir={tmp_path / 'prep'}"),
        ("train", "mode=residual", "base=bowring", f"train_csv={tmp_path / 'fit.csv'}",
         f"val_csv={tmp_path / 'val.csv'}", "epochs=2", f"outdir={tmp_path / 'fit'}"),
        ("predict", "kind=hybrid_bowring", f"model={model}",
         f"data={tmp_path / 'prep' / 'test.csv'}", f"outdir={tmp_path / 'pred'}"),
        ("evaluate", f"pred_csv={tmp_path / 'pred' / 'predictions.csv'}",
         f"outdir={tmp_path / 'eval'}"),
        *(("simulate", f"cases={tmp_path / 'cases.csv'}", f"kind={kind}", *extra,
           "critical_power=true", "bracket_lo_kW_m2=100", "bracket_hi_kW_m2=15000",
           f"outdir={tmp_path / kind}")
          for kind, extra in (("base_biasi", ()), ("hybrid_bowring", (f"model={model}",)))),
        ("hullcheck", f"train_csv={tmp_path / 'train.csv'}",
         f"query_csv={tmp_path / 'query.csv'}", f"outdir={tmp_path / 'hull'}"),
    ]

    tracer = Tracer()
    layers.install(tracer)
    try:
        for argv in stages:
            with tracer.span(f"cli.{argv[0]}"):
                assert main(list(argv)) == 0, argv
    finally:
        tracer.uninstall()

    # a traced function the package no longer has, or a hook that fails on a
    # changed return shape, reads null in the result line
    assert not tracer.absent
    assert not tracer.hook_errors
    values = layers.per_layer(tracer, {})
    assert values.keys() == layers.metric_units().keys()
    assert [name for name, v in values.items() if v is None] == []
    json.dumps(values, allow_nan=False)
    for name in ("mlp.train.self_s", "mlp.forward_batch.rows",
                 "channel.find_critical_power.calls", "validity.classify_batch.queries",
                 "data.ingest.rows", "channel.flagged_nodes"):
        assert values[name] > 0, name
    # the channel hooks count every node marched, from the profile arrays
    marched = sum(len((tmp_path / kind / f"profile_{i}.csv").read_text().splitlines()) - 1
                  for kind in ("base_biasi", "hybrid_bowring") for i in range(3))
    assert values["channel.solve_channel.nodes"] == marched
