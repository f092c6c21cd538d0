"""Byte identity of ``simulate`` against a per-node formatter.

The oracle is the per-node march of ``channel_oracle``, each node
formatted into its ``profiles.csv`` line (case index first) with
``repr`` and each case into its ``summary.csv`` and ``critical_power.csv``
lines as it comes.  ``simulate`` rates a case's nodes as arrays and
writes the columns of many cases at once through the row writer instead;
for every predictor kind, on cases that take every branch (zero wall
flux, flagged nodes of both kinds, default and fractional node counts, a
pressure outside the fluid range, a wall flux so small that node CHF /
flux overflows, a case with no node rated, nonpositive node CHF at zero
and nonzero wall flux, and a bracket that misses), every file it writes,
the manifest included, must keep its bytes, also when it writes each
case's ``profiles.csv`` rows on their own (``NODE_BATCH`` of 1).
"""

import json
import math
import os

import numpy as np
import pytest

import channel_oracle
from chfkit import channel, cli
from chfkit.channel import BracketError
from chfkit.data import MODEL_FEATURES
from chfkit.fluid import FluidRangeError
from chfkit.hybrid import PREDICTOR_KINDS
from chfkit.mlp import DenseLayer, Mlp, Scaler, save_model

from test_predict_bytes import _model_args

CASES = [
    "12.62,5.56,6895,1000,100,500,40",
    "10.0,3.0,7000,1500,150,800,",        # blank n_axial: 60 nodes
    "8.0,0.5,3000,5000,400,900,25",       # above the bracket
    "12.62,5.56,6895,1000,100,500,2.5",   # fractional n_axial
    "12.62,5.56,6895,1000,100,0,20",      # zero wall flux
    "12.62,5.56,20000,1000,-1200,500,12",  # nodes with no critical condition (all, for Bowring)
    "12.62,5.56,23000,1000,100,500,20",   # above the critical pressure
    "-1.0,3.0,7000,1500,150,800,40",      # rejected by ChannelCase
    "12.62,,6895,1000,100,500,20",        # blank required cell
    "9.0,4.0,10000,2500,250,1200,30",
    "12.62,5.56,6895,1000,100,1e-320,20",  # subnormal wall flux: DNBR overflows
]
BRACKET = ("bracket_lo_kW_m2=100", "bracket_hi_kW_m2=4000")


# ---------------------------------------------------------------------------
# Oracle: one node per line, one case per summary line
# ---------------------------------------------------------------------------


def _per_node_simulate(cfg):
    """``simulate`` with the per-node formatter; the manifest echoes the
    resolved config sorted, so the order the keys are read in is free."""
    outdir = cfg.outdir()
    cases_path = cfg.path_in("cases")
    predictor = cli._load_predictor(cfg)
    model_paths = [] if predictor.model is None else [cfg.resolved["model"]]
    bracket = (cfg.float_("bracket_lo_kW_m2") * 1e3, cfg.float_("bracket_hi_kW_m2") * 1e3)
    cfg.bool_("critical_power", "false")
    n_failed, cp_lines = 0, []
    summary_path = os.path.join(outdir, "summary.csv")
    profiles_path = os.path.join(outdir, "profiles.csv")
    with open(summary_path, "w", encoding="utf-8") as fh, \
            open(profiles_path, "w", encoding="utf-8") as pf:
        fh.write("case,min_dnbr,limiting_node,n_flagged,status\n")
        pf.write("case,z_m,enthalpy_J_kg,quality,dnbr,chf_kW_m2,flagged\n")
        for i, case in cli._parse_cases(cases_path):
            if not isinstance(case, str):
                try:
                    profile = channel_oracle.solve_channel(case, predictor)
                    if not any(c is not None and 0.0 < c < math.inf for c in profile.node_chf):
                        raise FloatingPointError("no node has a positive finite CHF")
                except (FluidRangeError, FloatingPointError) as e:
                    case = str(e)
            if isinstance(case, str):  # a failed case has a line in both files
                n_failed += 2
                fh.write(f"{i},,,,failed: {cli._csv_safe(case)}\n")
                cp_lines.append(f"{i},,,,failed: {cli._csv_safe(case)}\n")
                continue
            for j, row in enumerate(zip(profile.heights, profile.enthalpies,
                                        profile.qualities, profile.dnbr,
                                        profile.chf_local)):
                z, h, x, dnbr, chf = row
                pf.write(f"{i},{z!r},{h!r},{x!r},{dnbr!r},{chf / 1e3!r},"
                         f"{int(j in profile.flagged_nodes)}\n")
            fh.write(f"{i},{profile.min_dnbr!r},{profile.min_dnbr_node},"
                     f"{len(profile.flagged_nodes)},ok\n")
            try:
                q, node, dnbr = channel_oracle.closed_form_critical_power(profile, bracket)
            except BracketError as e:
                n_failed += 1
                cp_lines.append(f"{i},,,,failed: {cli._csv_safe(e)}\n")
                continue
            cp_lines.append(f"{i},{q / 1e3!r},{node},{dnbr!r},ok\n")
    cp_path = os.path.join(outdir, "critical_power.csv")
    with open(cp_path, "w", encoding="utf-8") as fh:
        fh.write("case,critical_flux_kW_m2,limiting_node,min_dnbr,status\n")
        fh.writelines(cp_lines)
    cli._write_manifest(outdir, "simulate", cfg.resolved, [cases_path, *model_paths],
                        [profiles_path, summary_path, cp_path], {"failed": n_failed})


# ---------------------------------------------------------------------------
# Predictors: the kinds of test_predict_bytes, and one whose CHF turns
# negative along the channel
# ---------------------------------------------------------------------------


def _falling_residual_args(tmp_path):
    """A bowring residual of -1.5e6 W/m2 per metre of tube, so the long
    nodes of a case have nonpositive CHF and the short ones do not."""
    path = tmp_path / "falling.chfmlp"
    weights = np.zeros((1, 5))
    weights[0, MODEL_FEATURES.index("heated_length")] = -1.5e6
    save_model(Mlp(layers=[DenseLayer(weights, np.zeros(1), "identity")],
                   input_scaler=Scaler.identity(5), output_scaler=Scaler.identity(1),
                   mode="residual", base_model="bowring", feature_names=MODEL_FEATURES),
               str(path))
    return [f"model={path}"]


def _read_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("kind", [*PREDICTOR_KINDS, "falling"])
def test_simulate_writes_the_bytes_of_the_per_node_formatter(tmp_path, monkeypatch, kind):
    cases = tmp_path / "cases.csv"
    cases.write_text("\n".join([cli.CASE_HEADER, *CASES]) + "\n")
    model = (_falling_residual_args(tmp_path) if kind == "falling"
             else _model_args(kind, tmp_path))
    out = tmp_path / "sim"
    argv = [f"cases={cases}", f"kind={'hybrid_bowring' if kind == 'falling' else kind}",
            *model, f"outdir={out}", "critical_power=true", *BRACKET]
    _per_node_simulate(cli._Config(dict(a.split("=", 1) for a in argv)))
    want = tmp_path / "want"
    out.rename(want)
    assert cli.main(["simulate", *argv]) == 0

    summary = _read_rows(want / "summary.csv")
    statuses = [row[-1].split(":")[0] for row in summary]
    bowring = kind.endswith("bowring") or kind == "falling"
    assert statuses == ["ok", "ok", "ok", "failed", "ok", "failed" if bowring else "ok",
                        "failed", "failed", "failed", "ok", "failed"]
    assert summary[10][-1].startswith("failed: DNBR overflows")
    if bowring:  # no node of case 5 has a critical condition
        assert summary[5][-1] == "failed: no node has a positive finite CHF"
    elif kind != "pure_ml":  # the network rates every node
        assert int(summary[5][3]) > 0  # nodes without a critical condition
    if kind == "falling":  # some nodes nonpositive, some not
        assert 0 < int(summary[0][3]) < 40
    # zero wall flux: +inf on every node, but 0 on a node with no positive
    # finite CHF, which the falling residual gives the long nodes
    zero_flux = [row for row in _read_rows(want / "profiles.csv") if row[0] == "4"]
    assert len(zero_flux) == 20
    assert {(row[4], row[6]) for row in zero_flux} == \
        ({("inf", "0"), ("0.0", "1")} if kind == "falling" else {("inf", "0")})
    cp_statuses = [row[-1].split(":")[0] for row in _read_rows(want / "critical_power.csv")]
    assert "failed" in cp_statuses and (kind == "falling" or "ok" in cp_statuses)

    names = sorted(os.listdir(want))
    assert names == sorted(os.listdir(out)) == [
        "critical_power.csv", "manifest.json", "profiles.csv", "summary.csv"]
    assert json.loads((want / "manifest.json").read_text())["counts"]["failed"] > 4
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
    # a cap of 1 node writes each case's profile rows on their own
    monkeypatch.setattr(channel, "NODE_BATCH", 1)
    assert cli.main(["simulate", *argv]) == 0
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
