"""``simulate`` rates the nodes of all its cases together.

``channel.rate_nodes`` rates every node of a run's cases in groups, and
splits a group into ``hybrid.predict_batch`` calls of at most
``NODE_BATCH`` node rows; ``simulate`` writes every case's profile to one
``profiles.csv``, formatting the held cases' columns together once they
reach ``NODE_BATCH`` nodes.  None of this may change a bit: each case's
profile must be the one ``solve_channel`` gives the case rated alone, its
``profiles.csv`` rows the ones it writes when simulated alone, and a case
that fails must fail alone and have no rows.
"""

import json
import tempfile
from itertools import groupby
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit import channel, cli, fluid
from chfkit.channel import MAX_AXIAL_NODES, ChannelCase, rate_nodes, solve_channel
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


PROFILES_HEADER = "case,z_m,enthalpy_J_kg,quality,dnbr,chf_kW_m2,flagged"


def profile_lines(out: Path) -> dict[int, list[str]]:
    """Each profiled case's ``profiles.csv`` lines, its case cell dropped,
    by case index; the rows of a case are contiguous and come in case order."""
    header, *lines = (out / "profiles.csv").read_text().splitlines()
    assert header == PROFILES_HEADER
    cases = [(int(i), rest) for i, rest in (line.split(",", 1) for line in lines)]
    runs = [(i, [rest for _, rest in run]) for i, run in groupby(cases, key=lambda c: c[0])]
    assert [i for i, _ in runs] == sorted({i for i, _ in runs})  # contiguous, in order
    return dict(runs)


def _assert_profile_is_the_lone_rating(out: Path, i: int, ref) -> None:
    """Case i's profiles.csv rows and summary row i hold the bits of profile ``ref``."""
    cols = list(zip(*(line.split(",") for line in profile_lines(out)[i])))
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
@pytest.mark.parametrize("node_batch", [channel.NODE_BATCH, 37])
@settings(max_examples=20, deadline=None)
@given(cases=_CASE_ROWS)
def test_simulate_matches_per_case_solve_channel(models, kind, node_batch, cases):
    args, pred = models[kind]
    rows = [",".join(map(repr, row)) for row in cases]
    # a small cap splits groups and node batches inside and between cases
    with tempfile.TemporaryDirectory() as tmp, \
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
                assert i not in profile_lines(out)
                continue
            _assert_profile_is_the_lone_rating(out, i, ref)


# ---------------------------------------------------------------------------
# Node batches at the cap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_node_batches_at_the_cap_keep_every_bit(models, monkeypatch, kind, extra):
    """Cases of NODE_BATCH - 1, NODE_BATCH and NODE_BATCH + 1 nodes in all
    give each case the node CHF it gets alone, in ``predict_batch`` calls
    of at most NODE_BATCH rows that cover every node once."""
    pred, n = models[kind][1], channel.NODE_BATCH
    sizes = [n // 3, n // 3 + 5, n - 2 * (n // 3) - 5 + extra]
    cases = [ChannelCase(d * 1e-3, length, p * 1e3, g, dh * 1e3, 5.0e5, size)
             for (d, length, p, g, dh), size in zip(TUBES, sizes)]
    alone = [next(rate_nodes([case], pred)) for case in cases]

    calls = []
    predict_batch = channel.predict_batch
    monkeypatch.setattr(channel, "predict_batch",
                        lambda p, x: calls.append(x.copy()) or predict_batch(p, x))
    together = [chf for *_, chf in rate_nodes(cases, pred)]
    assert [len(x) for x in calls] == ([n, 1] if extra == 1 else [n + extra])
    # every node once, in order: its case's inlet fields at its own height
    want = [[c.diameter, z, c.pressure, c.mass_flux, c.inlet_subcooling]
            for c, (heights, *_) in zip(cases, alone) for z in heights.tolist()]
    assert np.concatenate(calls).tolist() == want
    assert [len(chf) for chf in together] == sizes
    assert repr([chf.tolist() for chf in together]) == \
        repr([chf.tolist() for *_, chf in alone])
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
    lines_mixed, lines_alone = profile_lines(mixed), profile_lines(alone)
    for j, i in enumerate(valid_at):  # the valid cases keep their bytes
        assert lines_mixed[i] == lines_alone[j]
        assert summary[i][1:] == _rows(alone / "summary.csv")[j][1:]
    assert list(lines_mixed) == list(valid_at)
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
    lines_mixed, lines_alone = profile_lines(mixed), profile_lines(alone)
    assert list(lines_mixed) == [0, 2]
    for j, i in ((0, 0), (1, 2)):  # the valid cases keep their bytes
        assert lines_mixed[i] == lines_alone[j]
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
    lines_mixed, lines_alone = profile_lines(mixed), profile_lines(alone)
    assert 1 not in lines_mixed
    for j in range(len(valid)):
        i = j + (j > 0)
        assert lines_mixed[i] == lines_alone[j]
        assert summary[i][1:] == _rows(alone / "summary.csv")[j][1:]


# ---------------------------------------------------------------------------
# One profiles.csv for the run
# ---------------------------------------------------------------------------

# cases that march, at zero wall flux too, and cases that fail before the
# march (a rejected diameter), in it (a subnormal wall flux) or with no
# node rated (Biasi's CHF is 0 at every node)
BATCH = ["12.62,5.56,6895,1000,100,500,40", "-1.0,3.0,7000,1500,150,800,40",
         "10.0,3.0,7000,1500,150,800,", "12.62,5.56,6895,1000,100,0,20",
         "12.62,5.56,6895,1000,100,1e-320,20", "8.0,0.5,3000,5000,400,900,25",
         "1e300,2,22000,1e6,1e-320,1000,20", "9.0,4.0,10000,2500,250,1200,30"]


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
def test_profiles_rows_are_the_bytes_each_case_writes_alone(tmp_path, models, kind):
    args = [f"kind={kind}", *models[kind][0], "critical_power=true",
            "bracket_lo_kW_m2=100", "bracket_hi_kW_m2=4000"]
    (tmp_path / "batch").mkdir()
    batch = _simulate(tmp_path / "batch", BATCH, args)
    want, statuses = [PROFILES_HEADER], []
    for i, row in enumerate(BATCH):
        (tmp_path / str(i)).mkdir()
        alone = _simulate(tmp_path / str(i), [row], args)
        statuses.append(_rows(alone / "summary.csv")[0][-1])
        lines = (alone / "profiles.csv").read_text().splitlines()[1:]
        assert all(line.startswith("0,") for line in lines)
        if statuses[-1] != "ok":  # a failed case has no rows
            assert lines == []
        want += [f"{i},{line[2:]}" for line in lines]
    assert (batch / "profiles.csv").read_bytes() == ("\n".join(want) + "\n").encode()
    # the network rates case 6's nodes; every other kind fails it
    assert [j for j, s in enumerate(statuses) if s != "ok"] == \
        ([1, 4] if kind == "pure_ml" else [1, 4, 6])
    assert sorted(p.name for p in batch.iterdir()) == [
        "critical_power.csv", "manifest.json", "profiles.csv", "summary.csv"]
    manifest = json.loads((batch / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["critical_power.csv", "profiles.csv", "summary.csv"]


@pytest.mark.parametrize("node_batch", [1, 50])
def test_profiles_file_does_not_depend_on_the_node_batch(tmp_path, models, monkeypatch,
                                                         node_batch):
    """The held cases are written once they reach NODE_BATCH nodes: at most
    NODE_BATCH - 1 nodes plus one case's per write, and the same bytes."""
    args = ["kind=hybrid_bowring", *models["hybrid_bowring"][0], "critical_power=true",
            "bracket_lo_kW_m2=100", "bracket_hi_kW_m2=4000"]
    _simulate(tmp_path, BATCH, args)
    (tmp_path / "sim").rename(tmp_path / "want")
    writes = []
    write_rows = cli.write_rows
    monkeypatch.setattr(cli, "write_rows",
                        lambda fh, columns, *a: writes.append(len(columns[0])) or
                        write_rows(fh, columns, *a))
    monkeypatch.setattr(channel, "NODE_BATCH", node_batch)
    out = _simulate(tmp_path, BATCH, args)
    profiled = [len(lines) for lines in profile_lines(out).values()]
    assert sum(writes) == sum(profiled)
    assert max(writes) <= node_batch - 1 + max(profiled)
    if node_batch == 1:  # every case on its own
        assert writes == profiled
    else:
        assert 1 < len(writes) < len(profiled)
    for name in sorted(p.name for p in (tmp_path / "want").iterdir()):
        assert (out / name).read_bytes() == (tmp_path / "want" / name).read_bytes(), name
