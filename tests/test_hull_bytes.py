"""Byte identity of ``hullcheck`` against a per-query oracle.

The oracle keeps the earlier path: one phase-1 simplex per query, run
to its end before the next starts (tests/simplex_oracle.py), and each
verdict formatted into its ``verdicts.csv`` line with ``repr``.
``hullcheck`` steps every query's simplex in lockstep and writes the
verdict columns instead; every file it writes, the manifest with its
pivot counts included, must keep its bytes.
"""

import json
import os

import pytest

from chfkit import cli
from chfkit.validity import FEASIBILITY_TOL, ClassificationSummary, HullVerdicts

from simplex_oracle import classify_rows
from test_prepare_bytes import _write_table

# the seeded tables have two-phase inlets, which have no inlet temperature
FEATURES = "diameter,heated_length,pressure,mass_flux,exit_quality,inlet_subcooling"


def _per_query_classify(train, queries, tol=FEASIBILITY_TOL, scaler=None):
    slack, pivots, bland = classify_rows(train, queries, scaler)
    inside = slack <= tol
    n_in = int(inside.sum())
    return HullVerdicts(inside, slack, pivots, bland), ClassificationSummary(n_in, len(slack) - n_in)


def _per_row_verdicts_csv(verdicts, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,inside,slack\n")
        for row, (inside, slack) in enumerate(zip(verdicts.inside.tolist(),
                                                  verdicts.slack.tolist())):
            fh.write(f"{row},{int(inside)},{slack!r}\n")


@pytest.mark.parametrize("train_seed,query_seed", [(3, 4), (5, 6)])
def test_hullcheck_writes_the_bytes_of_the_per_query_oracle(tmp_path, monkeypatch,
                                                            train_seed, query_seed):
    train, query = tmp_path / "train.csv", tmp_path / "query.csv"
    _write_table(train, train_seed, n=1500)
    _write_table(query, query_seed, n=300)
    out = tmp_path / "hull"
    argv = ["hullcheck", f"train_csv={train}", f"query_csv={query}", f"outdir={out}",
            f"hull_features={FEATURES}"]
    with monkeypatch.context() as m:
        m.setattr(cli, "classify_batch", _per_query_classify)
        m.setattr(cli, "write_verdicts_csv", _per_row_verdicts_csv)
        assert cli.main(argv) == 0
    want = tmp_path / "want"
    out.rename(want)
    assert cli.main(argv) == 0

    # a few hundred queries, inside and outside, each with its own pivots
    counts = json.loads((want / "manifest.json").read_text())["counts"]
    assert counts["n_inside"] > 50 and counts["n_outside"] > 50
    assert counts["simplex_pivots_total"] > counts["simplex_pivots_max"] > 0

    names = sorted(os.listdir(want))
    assert names == sorted(os.listdir(out)) == ["manifest.json", "projection.csv",
                                                "verdicts.csv"]
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
