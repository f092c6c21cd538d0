"""A command accepts exactly the config keys it reads.

Every command gets a small valid run.  Given one more key that the run
does not read (a key another command reads, or any identifier), it must
stop with one ``error:`` line naming the key, no traceback, nothing on
stdout and no output directory.  Without one it succeeds, and its
manifest echoes the given keys plus the defaults it read, which replay
to the same outputs.
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit import cli
from chfkit.cli import _COMMANDS, main

from test_cli import write_dataset

_ENVELOPE = {"envelope_D_mm", "envelope_L_m", "envelope_P_kPa", "envelope_G_kg_m2s",
             "envelope_x_e", "envelope_dh_sub_kJ_kg", "envelope_chf_kW_m2"}
# keys a command reads whenever they are given, so a valid run's manifest
# need not echo them
_READ_WHEN_GIVEN = {"prepare": _ENVELOPE, "predict": _ENVELOPE, "hullcheck": _ENVELOPE,
                    "train": {"val_csv"}, "evaluate": {"kde_lo_pct", "kde_hi_pct"}}
# keys read only under a setting the small runs leave at its default
_READ_UNDER_A_SETTING = {"bracket_lo_kW_m2", "bracket_hi_kW_m2"}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per command: the argv of a small valid run, and its manifest."""
    tmp = tmp_path_factory.mktemp("keys")
    data, prep, fit = tmp / "data.csv", tmp / "prep", tmp / "fit"
    write_dataset(data, n=14, seed=9)
    cases = tmp / "cases.csv"
    cases.write_text("D_mm,L_m,P_kPa,G_kg_m2s,dh_sub_kJ_kg,q_wall_kW_m2,n_axial\n"
                     "12.62,5.56,6895,1000,100,500,10\n")
    assert main(["prepare", f"data={data}", "base=bowring", f"outdir={prep}"]) == 0
    assert main(["train", f"train_csv={prep / 'train.csv'}", "hidden=3", "epochs=2",
                 f"outdir={fit}"]) == 0
    assert main(["predict", f"data={data}", "kind=base_biasi", f"outdir={tmp / 'pred'}"]) == 0
    argvs = {
        "prepare": [f"data={data}"],
        "train": [f"train_csv={prep / 'train.csv'}", "hidden=3", "epochs=2"],
        "tune": [f"train_csv={prep / 'train.csv'}", "budget_epochs=2", "n_configs=2",
                 "rung0_epochs=1", "depths=1", "width_min=2", "width_max=3"],
        "predict": [f"data={data}", "kind=base_biasi"],
        "simulate": [f"cases={cases}", "kind=base_biasi"],
        "evaluate": [f"pred_csv={tmp / 'pred' / 'predictions.csv'}"],
        "hullcheck": [f"train_csv={prep / 'train.csv'}", f"query_csv={prep / 'test.csv'}"],
        "verify-model": [f"model={fit / 'model.chfmlp'}"],
    }
    assert set(argvs) == set(_COMMANDS)
    out = {}
    for command, argv in argvs.items():
        outdir = tmp / "valid" / command
        code, _, err = _run([command, *argv, f"outdir={outdir}"])
        assert code == 0, err
        out[command] = (argv, _manifest(outdir))
    return tmp, out


_counter = itertools.count()


@pytest.mark.parametrize("command,typo", [("train", "epoch"), ("tune", "budget_epoch")])
def test_a_typo_is_refused_before_the_data_is_read_or_fitted(runs, monkeypatch, command,
                                                             typo):
    tmp, by_command = runs
    argv, _ = by_command[command]

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran past the key check")

    for name in (command, "_training_set"):
        monkeypatch.setattr(cli, name, must_not_run)
    outdir = tmp / "typo" / command
    code, out, err = _run([command, *argv, f"{typo}=5", f"outdir={outdir}"])
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: config key(s) not read by this {command} run: {typo}"]
    assert not outdir.exists()


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_valid_run_echoes_the_given_keys_and_the_defaults_it_read(runs, command):
    tmp, by_command = runs
    argv, manifest = by_command[command]
    config = manifest["config"]
    given_keys = dict(a.split("=", 1) for a in argv)
    assert {k: config[k] for k in given_keys} == given_keys
    # every echoed key, given outright, is read again and changes nothing
    replay = tmp / "replay" / command
    code, _, err = _run([command, *(f"{k}={v}" for k, v in config.items() if k != "outdir"),
                         f"outdir={replay}"])
    assert code == 0, err
    again = _manifest(replay)
    assert again["config"] == {**config, "outdir": str(replay)}
    assert (again["outputs"], again["counts"]) == (manifest["outputs"], manifest["counts"])


@pytest.mark.parametrize("command", list(_COMMANDS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_a_key_the_run_does_not_read_is_refused_before_any_output(runs, command, data):
    tmp, by_command = runs
    argv, manifest = by_command[command]
    others = set().union(*(m["config"] for _, m in by_command.values()),
                         *_READ_WHEN_GIVEN.values(), _READ_UNDER_A_SETTING)
    read = set(manifest["config"]) | _READ_WHEN_GIVEN.get(command, set())
    key = data.draw(st.sampled_from(sorted(others - read))
                    | st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)
                    .filter(lambda k: k not in read), label="key")
    outdir = tmp / "refused" / str(next(_counter))
    code, out, err = _run([command, *argv, f"outdir={outdir}", f"{key}=1"])
    assert code == 1
    assert err.splitlines() == [f"error: config key(s) not read by this {command} run: {key}"]
    assert out == ""
    assert not outdir.exists()
