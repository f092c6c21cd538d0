"""``simulate`` rates the nodes of all its cases together.

``channel.rate_nodes`` rates every node of a run's cases in groups, and
``hybrid.node_chf`` splits a group into calls of at most ``NODE_BATCH``
node rows.  Neither may change a bit: each case's profile must be the
one ``solve_channel`` gives the case rated alone, and a case that fails
must fail alone.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit import channel, cli, fluid, hybrid
from chfkit.channel import MAX_AXIAL_NODES, solve_channel
from chfkit.correlations import InletConditions
from chfkit.hybrid import PREDICTOR_KINDS, ChfPredictor
from chfkit.mlp import load_model

from test_predict_bytes import _model_args

# a Bennett-like tube, a two-phase inlet whose long nodes have no critical
# condition, and a short high-flux one: (D mm, L m, P kPa, G, dh_sub kJ/kg)
TUBES = [(12.62, 5.56, 6895.0, 1000.0, 100.0), (12.62, 5.56, 20000.0, 1000.0, -1200.0),
         (8.0, 0.5, 3000.0, 5000.0, 400.0)]


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """The model arguments of each predictor kind, and its predictor."""
    tmp = tmp_path_factory.mktemp("models")
    out = {}
    for kind in PREDICTOR_KINDS:
        args = _model_args(kind, tmp)
        model = load_model(args[0].split("=", 1)[1]) if args else None
        out[kind] = (args, ChfPredictor(kind=kind, model=model))
    return out


def _simulate(tmp: Path, rows, kind_args) -> Path:
    cases = tmp / "cases.csv"
    cases.write_text("\n".join([cli.CASE_HEADER, *rows]) + "\n")
    out = tmp / "sim"
    assert cli.main(["simulate", f"cases={cases}", *kind_args, f"outdir={out}"]) == 0
    return out


def _rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _assert_profile_is_the_lone_rating(out: Path, i: int, ref) -> None:
    """profile_<i>.csv and summary row i hold the bits of profile ``ref``."""
    cols = list(zip(*_rows(out / f"profile_{i}.csv")))
    for col, want in zip(cols, (ref.heights, ref.enthalpies, ref.qualities, ref.dnbr,
                                ref.chf_local / 1e3)):
        # repr keeps every bit, -0.0 against 0.0 included
        assert repr([float(v) for v in col]) == repr(want.tolist())
    assert [j for j, f in enumerate(cols[5]) if f == "1"] == ref.flagged_nodes.tolist()
    row = _rows(out / "summary.csv")[i]
    assert row == [str(i), repr(ref.min_dnbr), str(ref.min_dnbr_node),
                   str(len(ref.flagged_nodes)), "ok"]


# ---------------------------------------------------------------------------
# Property: every case of a random batch as if rated alone
# ---------------------------------------------------------------------------


def _mostly(common, *rare):
    """``common`` four draws in five, else one of ``rare``."""
    return st.integers(0, 4).flatmap(lambda k: common if k else st.one_of(*rare))


_P_KPA = _mostly(st.floats(fluid.P_SAT_MIN / 1e3, fluid.P_CRITICAL / 1e3),
                 st.floats(fluid.P_CRITICAL / 1e3, 1.0e5, exclude_min=True),  # supercritical
                 st.floats(1.0e-3, fluid.P_SAT_MIN / 1e3, exclude_max=True))  # below 0 C
_Q_KW = _mostly(st.floats(1.0, 2.0e4), st.just(0.0),
                st.sampled_from([5e-324, 1e-320, 1e-312]))  # subnormal in W/m2 too
_CASE_ROWS = st.lists(
    st.tuples(st.floats(2.0, 16.0), st.floats(0.05, 20.0), _P_KPA, st.floats(8.0, 7964.0),
              st.floats(-1211.0, 1644.0), _Q_KW, st.integers(2, 200)),
    min_size=1, max_size=10)


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
@pytest.mark.parametrize("node_batch", [hybrid.NODE_BATCH, 37])
@settings(max_examples=20, deadline=None)
@given(cases=_CASE_ROWS)
def test_simulate_matches_per_case_solve_channel(models, kind, node_batch, cases):
    args, pred = models[kind]
    rows = [",".join(map(repr, row)) for row in cases]
    # a small cap splits groups and node batches inside and between cases
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(hybrid, "NODE_BATCH", node_batch), \
            mock.patch.object(channel, "NODE_BATCH", node_batch):
        out = _simulate(Path(tmp), rows, [f"kind={kind}", *args])
        summary = _rows(out / "summary.csv")
        assert len(summary) == len(rows)
        for i, case in cli._parse_cases(str(Path(tmp) / "cases.csv")):
            if isinstance(case, str):  # a pressure outside the saturation range, say
                assert summary[i][-1] == f"failed: {cli._csv_safe(case)}"
                continue
            try:
                ref = solve_channel(case, pred)
                if not (np.isfinite(ref.node_chf) & (ref.node_chf > 0.0)).any():
                    raise FloatingPointError("no node has a positive finite CHF")
            except FloatingPointError as e:  # a subnormal wall flux, say
                assert summary[i][-1] == f"failed: {cli._csv_safe(e)}"
                assert not (out / f"profile_{i}.csv").exists()
                continue
            _assert_profile_is_the_lone_rating(out, i, ref)


# ---------------------------------------------------------------------------
# Node batches at the cap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_node_batches_at_the_cap_keep_every_bit(models, monkeypatch, kind, extra):
    """Channels of NODE_BATCH - 1, NODE_BATCH and NODE_BATCH + 1 nodes in
    all give each channel the node CHF it gets alone, in calls of at most
    NODE_BATCH rows that cover every node once."""
    pred, n = models[kind][1], hybrid.NODE_BATCH
    sizes = [n // 3, n // 3 + 5, n - 2 * (n // 3) - 5 + extra]
    channels = []
    for (d, length, p, g, dh), size in zip(TUBES, sizes):
        heights = np.linspace(length / size, length, size)
        channels.append((InletConditions(d * 1e-3, length, p * 1e3, g, dh * 1e3), heights))
    h_fg = {c.pressure: fluid.saturation_state(c.pressure).h_fg for c, _ in channels}
    alone = [hybrid.node_chf(pred, [ch], h_fg)[0] for ch in channels]

    calls = []
    predictions = hybrid._predictions
    monkeypatch.setattr(hybrid, "_predictions",
                        lambda p, x, h: calls.append(len(x)) or predictions(p, x, h))
    together = hybrid.node_chf(pred, channels, h_fg)
    assert calls == ([n, 1] if extra == 1 else [n + extra])
    assert [len(chf) for chf in together] == sizes
    assert repr([chf.tolist() for chf in together]) == repr([chf.tolist() for chf in alone])
    if kind != "pure_ml":  # the two-phase tube has nodes with no critical condition
        assert np.isnan(together[1]).any() and not np.isnan(together[0]).all()


# ---------------------------------------------------------------------------
# A failing case fails alone
# ---------------------------------------------------------------------------

def test_cases_the_march_cannot_hold_fail_alone(tmp_path, models):
    valid = ["12.62,5.56,6895,1000,100,500,40", "10.0,3.0,7000,1500,150,800,",
             "8.0,0.5,3000,5000,400,900,25"]
    bad = {
        f"12.62,5.56,6895,1000,100,500,{MAX_AXIAL_NODES + 1}":
            f"n_axial must be <= {MAX_AXIAL_NODES}, got {MAX_AXIAL_NODES + 1}",
        "12.62,5.56,6895,1000,100,500,1e300":
            f"n_axial must be <= {MAX_AXIAL_NODES}, got 1e+300",
        "12.62,5.56,6895,1000,100,500,-1e300": "n_axial must be >= 2, got -1e+300",
        "12.62,1e-320,6895,1000,100,500,10000":
            "heated_length 1e-320 puts a node at height 0 or inf",
        "12.62,5.56,23000,1000,100,500,20":
            "saturation pressure 23000000.0 Pa outside [611.213, 22064000.0] Pa",
    }
    args = ["kind=hybrid_bowring", *models["hybrid_bowring"][0], "critical_power=true",
            "bracket_lo_kW_m2=100", "bracket_hi_kW_m2=4000"]
    (tmp_path / "alone").mkdir()
    alone = _simulate(tmp_path / "alone", valid, args)
    (tmp_path / "mixed").mkdir()
    mixed_rows = [valid[0], *list(bad)[:2], valid[1], *list(bad)[2:], valid[2]]
    valid_at = (0, 3, len(mixed_rows) - 1)
    bad_at = [i for i in range(len(mixed_rows)) if i not in valid_at]
    mixed = _simulate(tmp_path / "mixed", mixed_rows, args)

    summary = _rows(mixed / "summary.csv")
    assert [summary[i][-1] for i in bad_at] == \
        [f"failed: {cli._csv_safe(message)}" for message in bad.values()]
    for j, i in enumerate(valid_at):  # the valid cases keep their bytes
        assert (mixed / f"profile_{i}.csv").read_bytes() == \
            (alone / f"profile_{j}.csv").read_bytes()
        assert summary[i][1:] == _rows(alone / "summary.csv")[j][1:]
    assert sorted(p.name for p in mixed.glob("profile_*.csv")) == \
        [f"profile_{i}.csv" for i in valid_at]
    cp_mixed, cp_alone = (_rows(out / "critical_power.csv") for out in (mixed, alone))
    assert [row[0] for row in cp_mixed] == [str(i) for i in range(len(mixed_rows))]
    assert [cp_mixed[i][1:] for i in valid_at] == [row[1:] for row in cp_alone]
    # a case that failed before the march: blank cells and its summary status
    assert [cp_mixed[i][1:] for i in bad_at] == [summary[i][1:] for i in bad_at]


@pytest.mark.parametrize("kind,bad", [
    ("base_bowring", "12.62,5.56,6895,1.7e308,100,500,40"),  # Bowring's C factor overflows
    ("base_biasi", "1e300,2,22000,1e6,1e-320,1000,20"),  # Biasi's CHF is 0 at every node
])
def test_a_case_with_no_rated_node_fails_alone(tmp_path, kind, bad):
    valid = ["12.62,5.56,6895,1000,100,500,40", "10.0,3.0,7000,1500,150,800,"]
    args = [f"kind={kind}", "critical_power=true", "bracket_lo_kW_m2=100",
            "bracket_hi_kW_m2=4000"]
    (tmp_path / "alone").mkdir()
    alone = _simulate(tmp_path / "alone", valid, args)
    (tmp_path / "mixed").mkdir()
    mixed = _simulate(tmp_path / "mixed", [valid[0], bad, valid[1]], args)

    failed = ["1", "", "", "", "failed: no node has a positive finite CHF"]
    summary, cp = _rows(mixed / "summary.csv"), _rows(mixed / "critical_power.csv")
    assert summary[1] == cp[1] == failed
    assert sorted(p.name for p in mixed.glob("profile_*.csv")) == ["profile_0.csv",
                                                                   "profile_2.csv"]
    for j, i in ((0, 0), (1, 2)):  # the valid cases keep their bytes
        assert (mixed / f"profile_{i}.csv").read_bytes() == \
            (alone / f"profile_{j}.csv").read_bytes()
        assert summary[i][1:] == _rows(alone / "summary.csv")[j][1:]
        assert cp[i][1:] == _rows(alone / "critical_power.csv")[j][1:]
    counts = [json.loads((out / "manifest.json").read_text())["counts"]["failed"]
              for out in (alone, mixed)]
    assert counts[1] == counts[0] + 2  # its summary row and its critical-power row


@pytest.mark.parametrize("kind", ["base_bowring", "hybrid_bowring"])
def test_an_overflowing_mass_flux_fails_no_other_case(tmp_path, models, kind):
    # Bowring's C factor overflows a float at this G; the other cases, one
    # pow of G each, are rated in the same batch and keep their bytes
    valid = [f"12.62,5.56,6895,{g},100,500,5" for g in range(800, 4800, 100)]
    args = [f"kind={kind}", *models[kind][0]]
    (tmp_path / "alone").mkdir()
    alone = _simulate(tmp_path / "alone", valid, args)
    (tmp_path / "mixed").mkdir()
    mixed = _simulate(tmp_path / "mixed", [valid[0], "12.62,5.56,6895,1.7e308,100,500,5",
                                           *valid[1:]], args)
    summary = _rows(mixed / "summary.csv")
    assert len(summary) == len(valid) + 1
    for j in range(len(valid)):
        i = j + (j > 0)
        assert (mixed / f"profile_{i}.csv").read_bytes() == \
            (alone / f"profile_{j}.csv").read_bytes()
        assert summary[i][1:] == _rows(alone / "summary.csv")[j][1:]
