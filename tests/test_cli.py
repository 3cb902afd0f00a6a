"""Command-line interface: subcommands, exit codes, serialization."""
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmk import models
from swarmk.cli import run_cli


def _run(capsys, *argv):
    code = run_cli(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_list(capsys):
    code, out, _ = _run(capsys, "list")
    assert code == 0
    assert "stickpull-simple" in out.splitlines()
    assert "foraging" in out.splitlines()


@pytest.mark.parametrize("command", [
    (), ("run",), ("steady",), ("sweep",), ("mc",), ("exact",), ("compare",),
    ("validate",), ("list",)], ids=lambda c: c[0] if c else "swarmk")
def test_help_exits_0(capsys, command):
    # argparse formats every help string only here
    with pytest.raises(SystemExit) as exc:
        run_cli([*command, "--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith(" ".join(("usage: swarmk", *command)))


def test_a_command_leaves_nothing_for_the_cyclic_collector(capsys):
    # the parser is built once per process, and a command makes no cycles
    argv = ("run", "--model", "stickpull-simple", "--t-end", "1")
    first = _run(capsys, *argv)
    gc.collect()
    gc.disable()
    try:
        assert _run(capsys, *argv) == first
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_module_entry_point_lists_the_builtins():
    src = os.path.dirname(os.path.dirname(models.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "swarmk", "list"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == list(models.BUILTIN_NAMES)


_DETERMINISTIC = [
    ["run", "--model", "stickpull-simple", "--t-end", "1"],
    ["sweep", "--model", "collab-difference", "--param", "n0", "--from", "4",
     "--to", "8", "--sweep-steps", "2", "--observables", "final:s",
     "--steps", "50"],
    ["steady", "--model", "stickpull-delayed"],
    ["validate", "--model", "foraging"],
    ["exact", "--model", "stickpull-counts", "--t-end", "1"]]


def test_only_the_stochastic_engines_load_numpy_random():
    # validation draws its sample points from the stdlib's stream: in a
    # fresh interpreter no deterministic command imports numpy.random,
    # and the first Gillespie ensemble does
    src = os.path.dirname(os.path.dirname(models.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = f"""
import contextlib, io, sys
from swarmk.cli import run_cli
def loaded(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(argv) == 0, argv
    return "numpy.random" in sys.modules
assert not any(loaded(argv) for argv in {_DETERMINISTIC!r})
assert loaded(["mc", "--model", "stickpull-counts", "--t-end", "1",
               "--runs", "2"])
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_steady(capsys):
    code, out, _ = _run(capsys, "steady", "--model", "stickpull-simple",
                        "--set", "beta=0.5", "--set", "gamma=0.2")
    assert code == 0
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert float(lines["n"]) == pytest.approx(0.2801, abs=1e-4)
    assert float(lines["residual"]) < 1e-12


def test_steady_past_the_square_overflow(capsys):
    # gamma = 1e200 squares past the float range; the root is still ~1
    assert _run(capsys, "steady", "--model", "stickpull-simple", "--set",
                "gamma=1e200") == (
        0, "n=1.0\nbranch=unique\nresidual=0.0\nR=0.0\n", "")


@pytest.mark.parametrize("gamma", ["9e307", "1.7e308"])
def test_steady_past_the_sum_overflow(capsys, gamma):
    # 2 * gamma and b + disc overflow here; the root is still 1
    assert _run(capsys, "steady", "--model", "stickpull-simple", "--set",
                f"gamma={gamma}") == (
        0, "n=1.0\nbranch=unique\nresidual=0.0\nR=0.0\n", "")


def test_steady_delayed_at_a_subnormal_rate_ratio(capsys):
    # b = rg * beta rounds to 0 here; the root is the rg -> 0 limit
    assert _run(capsys, "steady", "--model", "stickpull-delayed", "--set",
                "rg=5e-324") == (
        0, "n=0.24339811320566035\nbranch=unique\nresidual=0.0\nR=0.0\n", "")


@pytest.mark.parametrize("name", ["stickpull-simple-depletion",
                                  "stickpull-delayed-depletion"])
def test_steady_refuses_the_depletion_models(capsys, name):
    # they declare beta, rg and gamma or tau, but no closed form solves them
    code, out, err = _run(capsys, "steady", "--model", name)
    assert (code, out) == (2, "")
    assert err.startswith("model error: no closed-form steady state")


@pytest.mark.parametrize("name", ["stickpull-simple", "stickpull-delayed"])
def test_steady_by_path_equals_by_name(capsys, name):
    path = str(resources.files("swarmk").joinpath(f"models_mas/{name}.mas"))
    by_name = _run(capsys, "steady", "--model", name, "--set", "beta=0.7")
    by_path = _run(capsys, "steady", "--model", path, "--set", "beta=0.7")
    assert by_name[0] == 0
    assert by_path == by_name


def test_run_csv_header_and_values(capsys):
    code, out, _ = _run(capsys, "run", "--model", "stickpull-simple",
                        "--t-end", "1", "--dt", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,s,g,m"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first == ["0.0", "1.0", "0.0", "1.0"]


def test_run_json_round_trip(capsys, tmp_path):
    out_file = tmp_path / "traj.json"
    code, _, _ = _run(capsys, "run", "--model", "stickpull-simple",
                      "--t-end", "2", "--dt", "0.25", "--format", "json",
                      "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["columns"] == ["t", "s", "g", "m"]
    import swarmk as sk

    traj = sk.integrate(sk.compile_rhs(sk.build_builtin("stickpull-simple")),
                        t_end=2.0, dt=0.25)
    rows = np.array(payload["rows"])
    assert np.array_equal(rows[:, 0], traj.times)
    assert np.array_equal(rows[:, 1:], traj.data)


def test_identical_invocations_identical_bytes(capsys):
    args = ("mc", "--model", "stickpull-counts", "--t-end", "5",
            "--runs", "10", "--seed", "3", "--grid-points", "5")
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2


def test_each_command_reads_the_shipped_files(capsys, monkeypatch):
    # an edit of a shipped file reaches the next command in the process
    argv = ("run", "--model", "stickpull-simple", "--t-end", "1",
            "--dt", "0.5")
    before = _run(capsys, *argv)
    shipped = models.shipped_source
    monkeypatch.setattr(models, "shipped_source", lambda name: shipped(
        name).replace("rate(gamma * g)", "rate(2 * gamma * g)"))
    try:
        after = _run(capsys, *argv)
    finally:
        monkeypatch.undo()
        models.forget_parsed_files()
    assert before[0] == after[0] == 0
    assert after[1] != before[1]
    assert _run(capsys, *argv) == before


def test_run_mas_file(capsys, tmp_path):
    f = tmp_path / "toy.mas"
    f.write_text("state a = 1\nstate b = 0\nrate(a): a -> b\n")
    code, out, _ = _run(capsys, "run", "--model", str(f),
                        "--t-end", "1", "--dt", "0.5")
    assert code == 0
    assert out.splitlines()[0] == "t,a,b"


def test_validate_bad_file_exit_2(capsys, tmp_path):
    f = tmp_path / "bad.mas"
    f.write_text("state s = 1\nrate(q * s): s -> s\n")
    code, _, err = _run(capsys, "validate", "--model", str(f))
    assert code == 2
    assert "unknown identifier" in err
    assert "2:6" in err
    # a lag its parameters make negative
    f.write_text("param w = -1\nstate a = 1\nstate b = 0\n"
                 "rate(0.1 * delay(a, w)): a -> b\n")
    assert _run(capsys, "validate", "--model", str(f)) == (
        2, "", "defect: delay bound w = -1.0 is invalid\n")


# a rate nested in 400 brackets, a 1,500-term sum and a subtraction nested
# 210 deep: past the parser's recursion, ``nodes``' recursion and CPython's
# 200 nested brackets in generated code, each refused where the cap is passed
@pytest.mark.parametrize("rate, where", [
    ("(" * 400 + "0.1 * a" + ")" * 400, "4:46: expression is nested"),
    (" + ".join(["0.001 * a"] * 1500), "4:6: expression is"),
    ("0.001 - " + "(0.001 - " * 209 + "0.001 * a" + ")" * 209,
     "4:366: expression is nested")], ids=["brackets", "sum", "difference"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_a_too_deep_expression_is_a_located_model_error(capsys, tmp_path,
                                                        command, rate, where):
    f = tmp_path / "deep.mas"
    f.write_text(f"param w = 1\nstate a = 1\nstate b = 0\nrate({rate}): a -> b\n")
    assert _run(capsys, command, "--model", str(f)) == (
        2, "", f"model error: {where} deeper than 40 levels\n")


# each level of nested delay triples a run's generated step: five are
# refused at the outermost call, four run
@pytest.mark.parametrize("func", ["delay", "histint"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_history_terms_nested_five_deep_are_a_located_model_error(
        capsys, tmp_path, command, func):
    def nested(levels):
        return "a" if not levels else f"{func}({nested(levels - 1)}, 0.5)"

    f = tmp_path / "nested.mas"
    f.write_text(f"state a = 1\nstate b = 0\nrate(0.1 * {nested(5)}): "
                 "a -> b\n")
    assert _run(capsys, command, "--model", str(f)) == (
        2, "", "model error: 3:12: delay and histint calls are nested more "
               "than 4 deep\n")
    f.write_text(f"state a = 1\nstate b = 0\nrate(0.1 * {nested(4)}): "
                 "a -> b\n")
    assert _run(capsys, command, "--model", str(f), *(
        ("--t-end", "1") if command == "run" else ()))[0] == 0


# every shipped model, and collab-difference at at = 1, where its window
# integrand ln(1 - at * s) goes below zero at the initial s = 8
@pytest.mark.parametrize("argv, verdict", [
    *(((name,), (0, f"ok: {name} has no defects\n", ""))
      for name in models.BUILTIN_NAMES),
    (("collab-difference", "--set", "at=1"), (2, "", (
        "defect: rate delay(alpha * (m0 - g), tcda) * delay(s, tcga) * "
        "exp(histint(ln(1 - at * s), tga)) * step(t - tga) failed to "
        "evaluate: ln of non-positive value -7.0\n")))],
    ids=[*models.BUILTIN_NAMES, "collab-difference-at-1"])
def test_validate_verdicts_of_the_shipped_models(capsys, argv, verdict):
    assert _run(capsys, "validate", "--model", *argv) == verdict


def test_validate_good_model(capsys):
    code, out, _ = _run(capsys, "validate", "--model", "foraging")
    assert code == 0
    assert "no defects" in out


def test_usage_errors_exit_1(capsys):
    assert _run(capsys, "nosuch")[0] == 1
    assert _run(capsys)[0] == 1
    assert _run(capsys, "run")[0] == 1  # missing --model
    assert _run(capsys, "run", "--model", "stickpull-simple",
                "--set", "beta")[0] == 1
    assert _run(capsys, "sweep", "--model", "stickpull-simple")[0] == 1
    # bad argument values: a usage error, not a traceback
    for argv in (("run", "--model", "stickpull-simple", "--set", "beta=-1"),
                 ("run", "--model", "foraging", "--set", "n0=0"),
                 ("run", "--model", "stickpull-simple", "--dt", "0"),
                 ("mc", "--model", "stickpull-counts", "--runs", "1"),
                 # non-finite builder fields, also a derived param (tauh)
                 ("run", "--model", "stickpull-simple", "--set", "gamma=inf"),
                 ("run", "--model", "stickpull-simple", "--set", "gamma=nan"),
                 ("run", "--model", "foraging", "--set", "arp=1e308"),
                 ("run", "--model", "sugawara", "--set", "k_target=-5"),
                 # t_end off the dt grid: the run would end at t=1.2, 0.9,
                 # 0.9 and 6.0
                 ("run", "--model", "stickpull-simple", "--t-end", "1",
                  "--dt", "0.6"),
                 ("run", "--model", "stickpull-simple", "--t-end", "1",
                  "--dt", "0.3"),
                 ("compare", "--model", "stickpull-counts", "--t-end", "1",
                  "--dt", "0.3", "--runs", "5"),
                 # a difference run takes --steps or whole --t-end steps
                 ("run", "--model", "collab-difference", "--t-end", "10.4"),
                 ("sweep", "--model", "collab-difference", "--param",
                  "alpha", "--from", "0.01", "--to", "0.02",
                  "--sweep-steps", "2", "--observables", "final:s",
                  "--t-end", "10.4"),
                 # one usage error, not a failure of every row
                 ("sweep", "--model", "foraging", "--param", "n0",
                  "--from", "1", "--to", "2", "--sweep-steps", "2",
                  "--observables", "T", "--counter", "m", "--threshold", "1",
                  "--t-end", "10", "--dt", "0.3"),
                 # --sweep-steps has no alias
                 ("sweep", "--model", "stickpull-delayed", "--param", "tau",
                  "--from", "1", "--to", "2", "--grid", "3"),
                 # run lengths that are not finite and non-negative; the
                 # first two mc runs would never end
                 ("mc", "--model", "stickpull-counts", "--t-end", "inf",
                  "--runs", "3"),
                 ("mc", "--model", "stickpull-counts", "--t-end", "nan",
                  "--runs", "3"),
                 ("mc", "--model", "stickpull-counts", "--t-end", "-1",
                  "--runs", "3"),
                 ("run", "--model", "stickpull-simple", "--t-end", "inf"),
                 ("exact", "--model", "stickpull-counts", "--t-end", "inf"),
                 ("run", "--model", "stickpull-simple", "--t-end", "nan"),
                 ("run", "--model", "stickpull-simple", "--dt", "nan"),
                 ("mc", "--model", "stickpull-counts", "--grid-points", "-1",
                  "--runs", "3"),
                 ("compare", "--model", "stickpull-counts",
                  "--grid-points", "-2", "--runs", "3"),
                 # options a command does not read are not declared on it
                 ("mc", "--model", "stickpull-counts", "--dt", "7",
                  "--runs", "3"),
                 ("mc", "--model", "stickpull-counts", "--steps", "5",
                  "--runs", "3"),
                 ("exact", "--model", "stickpull-counts", "--steps", "5"),
                 ("exact", "--model", "stickpull-counts", "--t-end", "5",
                  "--dt", "3"),
                 ("compare", "--model", "stickpull-counts", "--steps", "5",
                  "--runs", "3"),
                 ("validate", "--model", "foraging", "--format", "json"),
                 ("steady", "--model", "stickpull-simple", "--dt", "1"),
                 # --steps counts the steps of a synchronous model only
                 ("run", "--model", "stickpull-simple", "--steps", "5"),
                 ("sweep", "--model", "stickpull-simple", "--param",
                  "gamma", "--from", "0.1", "--to", "0.2", "--sweep-steps",
                  "2", "--steps", "5")):
        code, _, err = _run(capsys, *argv)
        assert code == 1 and err.startswith("usage error: ")
        assert err.count("\n") == 1, err


def test_unknown_model_exit_2(capsys):
    code, _, err = _run(capsys, "run", "--model", "not-a-model")
    assert code == 2
    assert "unknown model" in err


def test_unreadable_model_path_exit_2(capsys, tmp_path):
    # a directory is not a model file
    assert _run(capsys, "run", "--model", str(tmp_path), "--t-end", "1") == (
        2, "", f"model error: unknown model {str(tmp_path)!r}: not a "
               f"built-in ({', '.join(models.BUILTIN_NAMES)}) and not a file\n")
    # a file that is not UTF-8 text: named, not a usage error
    f = tmp_path / "bytes.mas"
    f.write_bytes(b"\xff\xfe")
    code, out, err = _run(capsys, "run", "--model", str(f), "--t-end", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"model error: cannot read {str(f)!r}: 'utf-8' "
                          "codec can't decode byte 0xff")


def test_unknown_override_exit_2(capsys):
    code, _, err = _run(capsys, "run", "--model", "stickpull-simple",
                        "--set", "zz=1")
    assert code == 2


def test_sweep_csv_schema_and_monotone_r(capsys):
    code, out, _ = _run(capsys, "sweep", "--model", "stickpull-delayed",
                        "--set", "beta=1.5", "--param", "tau",
                        "--from", "0", "--to", "20", "--sweep-steps", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,nstar,R"
    r = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(r, r[1:]))


def test_sweep_builder_field_group_size(capsys):
    code, out, _ = _run(capsys, "sweep", "--model", "foraging",
                        "--param", "n0", "--from", "1", "--to", "10",
                        "--sweep-steps", "10", "--observables", "T",
                        "--counter", "m", "--threshold", "1",
                        "--t-end", "1600", "--dt", "0.25")
    assert code == 0
    lines = out.strip().splitlines()
    T = [float(l.split(",")[1]) for l in lines[1:]]
    i = T.index(min(T))
    assert 0 < i < len(T) - 1  # interior optimal group size


def test_set_builder_field(capsys):
    code, out, _ = _run(capsys, "run", "--model", "stickpull-counts",
                        "--set", "n0=5", "--t-end", "1", "--dt", "0.5")
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "5.0"


def test_mc_csv_schema(capsys):
    code, out, _ = _run(capsys, "mc", "--model", "stickpull-counts",
                        "--t-end", "2", "--runs", "5", "--grid-points", "2")
    assert code == 0
    assert out.splitlines()[0] == "t,s_mean,s_stderr,g_mean,g_stderr"


def test_exact_csv(capsys):
    code, out, _ = _run(capsys, "exact", "--model", "stickpull-counts",
                        "--t-end", "2", "--grid-points", "200")
    assert code == 0
    assert out.splitlines()[0] == "t,s,g"


def test_exact_rejects_delayed_model(capsys):
    code, _, err = _run(capsys, "exact", "--model", "stickpull-delayed",
                        "--t-end", "1")
    assert code == 2


def test_mc_rejects_delayed_model(capsys):
    code, _, err = _run(capsys, "mc", "--model", "stickpull-delayed",
                        "--t-end", "1", "--runs", "2")
    assert code == 2
    assert err.startswith("model error:")


@pytest.mark.parametrize("t_end, dt", [("10", "1"), ("6", "3")])
def test_exact_at_a_coarse_dt_matches_a_fine_one(capsys, t_end, dt):
    # the grid only spaces the rows of the uniformized solve: rows dt apart,
    # a spacing far outside RK4's stability region, equal the rows of a
    # 0.005 grid at their times
    rows = []
    for step in (float(dt), 0.005):
        code, out, err = _run(capsys, "exact", "--model", "stickpull-counts",
                              "--t-end", t_end, "--grid-points",
                              str(round(float(t_end) / step)))
        assert (code, err) == (0, "")
        rows.append(np.loadtxt(out.splitlines()[1:], delimiter=",",
                               ndmin=2))
    coarse, fine = rows
    shared = fine[np.isin(fine[:, 0].round(9), coarse[:, 0].round(9))]
    assert shared.shape == coarse.shape
    assert np.abs(shared - coarse).max() <= 1e-9


def test_compare_has_gap_columns(capsys):
    code, out, _ = _run(capsys, "compare", "--model", "stickpull-counts",
                        "--t-end", "2", "--runs", "5", "--grid-points", "2")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "s_gap_exact" in header
    assert "s_gap_mc" in header


def _csv_table(out):
    """{column: [floats]} of a CSV the CLI wrote."""
    header, *lines = out.splitlines()
    cols = zip(*(map(float, line.split(",")) for line in lines))
    return dict(zip(header.split(","), map(list, cols)))


def test_steady_json_equals_csv(capsys):
    argv = ("steady", "--model", "stickpull-delayed", "--set", "beta=0.7")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    csv = dict(line.split("=", 1) for line in out.splitlines())
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == 0
    shown = json.loads(out)
    assert list(shown) == list(csv) == ["n", "branch", "residual", "R"]
    assert shown["branch"] == csv["branch"] == "unique"
    assert all(shown[k] == float(csv[k]) for k in ("n", "residual", "R"))


def test_mc_json_equals_csv(capsys):
    argv = ("mc", "--model", "stickpull-counts", "--t-end", "2", "--runs",
            "5", "--grid-points", "4", "--seed", "9")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    csv = _csv_table(out)
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == 0
    shown = json.loads(out)
    assert (shown["runs"], shown["seed"], shown["columns"]) == (5, 9, ["s", "g"])
    assert shown["times"] == csv["t"]
    for j, c in enumerate(shown["columns"]):
        for kind in ("mean", "stderr"):
            assert [row[j] for row in shown[kind]] == csv[f"{c}_{kind}"]


def test_compare_json_equals_csv(capsys):
    argv = ("compare", "--model", "stickpull-counts", "--t-end", "2",
            "--runs", "5", "--grid-points", "4", "--dt", "0.1")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    csv = _csv_table(out)
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["t"] for r in rows] == csv["t"]
    kinds = ("mf", "exact", "mc", "mc_stderr", "gap_exact", "gap_mc")
    for c in ("s", "g"):
        for k, kind in enumerate(kinds):
            assert [r["columns"][c][k] for r in rows] == csv[f"{c}_{kind}"]


@pytest.mark.parametrize("argv, message", [
    (("run", "--model", "stickpull-simple", "--set", "k=abc"),
     "--set value for 'k' is not a number: 'abc'"),
    (("sweep", "--model", "stickpull-simple", "--param", "gamma", "--from",
      "0.1", "--to", "0.2", "--sweep-steps", "0"),
     "--sweep-steps must be >= 1"),
    # a threshold or step count that no run can use is refused before any
    (("sweep", "--model", "foraging", "--param", "n0", "--from", "1", "--to",
      "3", "--sweep-steps", "3", "--observables", "T", "--counter", "m",
      "--threshold", "nan", "--t-end", "1600", "--dt", "0.5"),
     "threshold must be finite"),
    (("run", "--model", "collab-difference", "--steps", "-1"),
     "--steps must be >= 0")])
def test_usage_error_messages(capsys, argv, message):
    assert _run(capsys, *argv) == (1, "", f"usage error: {message}\n")


def test_numeric_failure_exit_3(capsys, tmp_path):
    # a rate that blows up in finite time
    f = tmp_path / "explode.mas"
    f.write_text("state a = 1\nstate b = 0\n"
                 "rate(a * a * a * 1e6): a -> b\nrate(b * b * b * 1e6): b -> a\n")
    code, _, err = _run(capsys, "run", "--model", str(f),
                        "--t-end", "10", "--dt", "0.5")
    assert code == 3


@pytest.mark.parametrize("argv, message", [
    # a difference run names the whole step, an ODE run the time
    (("run", "--model", "collab-difference", "--set", "ar=1",
      "--set", "aw=1", "--steps", "50"),
     "state s went negative (-8.384) at t=1"),
    (("run", "--model", "stickpull-simple", "--dt", "2", "--t-end", "200",
      "--set", "beta=5"),
     "state s went negative (-59.89839999999999) at t=2.0"),
    # the lag is checked before t_end (10 is not a whole number of 0.3)
    (("run", "--model", "stickpull-delayed", "--dt", "0.3"),
     "step dt=0.3 does not divide delay 5.0"),
])
def test_numeric_failure_messages(capsys, argv, message):
    assert _run(capsys, *argv) == (3, "", f"numeric failure: {message}\n")


@pytest.mark.parametrize("observables, extra, name", [
    ("nstar", ("--threshold", "nan", "--counter", "m"), "counter"),
    ("nstar", ("--mode", "reach"), "mode"),
    ("nstar", ("--threshold", "1"), "threshold"),
    ("final:m", ("--counter", "zz"), "counter")])
def test_sweep_refuses_options_no_observable_reads(capsys, monkeypatch,
                                                   observables, extra, name):
    from swarmk import analysis

    def no_run(*args):
        raise AssertionError("a row was run")

    monkeypatch.setattr(analysis, "_run_to_trajectory", no_run)
    monkeypatch.setattr(analysis, "_steady", no_run)
    assert _run(capsys, "sweep", "--model", "stickpull-delayed", "--param",
                "tau", "--from", "1", "--to", "2", "--sweep-steps", "2",
                "--observables", observables, *extra) == (
        1, "", f"usage error: {name} applies only to the observable T\n")


def test_a_run_whose_output_passes_the_cap_exit_3(capsys):
    # refused before the array is allocated (README's bytes row runs the
    # command alone); a sweep's rows fail alike, each as row data
    cap = "over the limit of 268435456\n"
    assert _run(capsys, "sweep", "--model", "foraging", "--param", "n0",
                "--from", "1", "--to", "2", "--sweep-steps", "2",
                "--observables", "T", "--counter", "m", "--threshold", "1",
                "--t-end", "1e12", "--dt", "0.5") == (
        0, "param,T\n1.0,\n2.0,\n", "".join(
            f"row n0={v}: IntegrationError: ode run needs 80000000000040 "
            "bytes, " + cap for v in ("1.0", "2.0")))


# each case keeps the name it had when each bound wrote its own message: the
# name says which count of the solve passes its limit, and how
@pytest.mark.parametrize("command, rate, argv, message", [
    # q = Λ·t_end overflows: refused by the same count, before any window
    pytest.param("exact", "1e308", (), "inf products, over the limit of "
                 "1000000", id="exact-1e308-argv0-solve needs about inf "
                 "products and rows (100 rows, series q = inf), over 1000000"),
    pytest.param("compare", "1e308", ("--runs", "2"), "inf products, over "
                 "the limit of 1000000", id="compare-1e308-argv1-solve needs "
                 "about inf products and rows (50 rows, series q = inf), over "
                 "1000000"),
    pytest.param("exact", "1e300 * a", (), "1e+301 products, over the limit "
                 "of 1000000", id="exact-1e300 * a-argv2-solve needs about "
                 "1e+301 products and rows (100 rows, series q = 1e+301), "
                 "over 1000000"),
    pytest.param("compare", "1e300 * a", ("--runs", "2"), "1e+301 products, "
                 "over the limit of 1000000", id="compare-1e300 * a-argv3-"
                 "solve needs about 1e+301 products and rows (50 rows, series "
                 "q = 1e+301), over 1000000"),
    # q + rows: Λ·t_end = 1e7 and 100 rows
    pytest.param("exact", "1e6 * a", ("--t-end", "10", "--grid-points",
                                       "100"),
                 "10000100.0 products, over the limit of 1000000",
                 id="exact-1e6 * a-argv4-solve needs about 1e+07 products and "
                 "rows (100 rows, series q = 10000000.0), over 1000000"),
    # q alone is under the limit; the last row's Poisson tail passes it
    pytest.param("exact", "999000 * a", ("--t-end", "1", "--grid-points",
                                          "1"),
                 "1007949 products, over the limit of 1000000",
                 id="exact-999000 * a-argv5-solve needs about 1.008e+06 "
                 "products and rows (1 rows, series q = 999000.0), over "
                 "1000000"),
    # under the product limit, but each of 606,916 products walks a chain of
    # 10,001 configurations: refused where the solve would take about a
    # minute
    pytest.param("exact", "a", ("--set", "n=10000", "--t-end", "60"),
                 "19042117166 entries, over the limit of 10000000000",
                 id="exact-a-argv6-solve needs 606916 products of 10000 jumps "
                 "and 10001 configurations and 100 rows of up to 13805 terms "
                 "(2.595e+10 entries), over 10000000000"),
    # within both work limits, but its rows and windows would take 1.5 GiB
    pytest.param("compare", "0.001 * a", ("--set", "n=2000", "--t-end", "0.1",
                                          "--grid-points", "100000"),
                 "1610416104 bytes, over the limit of 268435456",
                 id="compare-0.001 * a-argv7-output of 100001 rows and their "
                 "windows would take 1610416104 bytes, over 268435456"),
    # 68 cheap products (2.7e5 entries), but 100,000 rows each summing up to
    # 68 v's of 2,001 configurations: refused by the rows' sums alone
    pytest.param("compare", "0.001 * a", ("--set", "n=2000", "--t-end", "10",
                                          "--grid-points", "100000"),
                 "13607072068 entries, over the limit of 10000000000",
                 id="compare-0.001 * a-argv8-solve needs 68 products of 2000 "
                 "jumps and 2001 configurations and 100000 rows of up to 68 "
                 "terms (1.361e+10 entries), over 10000000000")])
def test_a_master_solve_past_its_bounds_exit_3(capsys, tmp_path, command,
                                               rate, argv, message):
    f = tmp_path / "fast.mas"
    f.write_text(f"param n = 1\nstate a = n\nstate b = 0\n"
                 f"rate({rate}): a -> b\n")
    assert _run(capsys, command, "--model", str(f), *argv) == (
        3, "", f"numeric failure: master-equation solve needs {message}\n")


def test_an_ensemble_past_its_byte_cap_exit_3(capsys):
    # refused after the first run gives the column count, before the array:
    # 100,000 runs x 100,001 grid points x 2 columns x 8 bytes
    assert _run(capsys, "mc", "--model", "stickpull-counts", "--runs",
                "100000", "--grid-points", "100000") == (
        3, "", "numeric failure: ensemble needs 160001600000 bytes, over the "
               "limit of 268435456\n")


# 10^9 grid steps: linspace would make a 7.45 GiB array
@pytest.mark.parametrize("argv, size", [
    (("mc", "--model", "stickpull-counts", "--grid-points", "1000000000"),
     8000000008),
    (("exact", "--model", "stickpull-counts", "--grid-points",
      "1000000000"), 8000000008),
    (("compare", "--model", "stickpull-counts", "--grid-points",
      "1000000000"), 8000000008),
    (("sweep", "--model", "stickpull-delayed", "--param", "tau", "--from",
      "1", "--to", "2", "--sweep-steps", "1000000000"), 8000000000)],
    ids=["mc", "exact", "compare", "sweep"])
def test_an_output_grid_past_the_byte_cap_exit_3(capsys, argv, size):
    # refused before the grid is made, with the one limit message
    start = time.perf_counter()
    tracemalloc.start()
    try:
        result = _run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (3, "", f"numeric failure: output grid needs {size} "
                             "bytes, over the limit of 268435456\n")
    assert time.perf_counter() - start < 1.0
    assert peak < 4e6


def test_exact_at_a_far_t_end_is_refused_at_once(capsys):
    # its 50 rows are the grid's: 4e11 products refused before any work
    start = time.perf_counter()
    assert _run(capsys, "exact", "--model", "stickpull-counts", "--t-end",
                "100000000003") == (
        3, "", "numeric failure: master-equation solve needs 400000000062.0 "
               "products, over the limit of 1000000\n")
    assert time.perf_counter() - start < 2.0


# each row of README's work-limits table: its example, as a .mas source
# (or None, a built-in) and the command's arguments after it
README_LIMITS = {
    "bytes": (None, ("run", "--model", "stickpull-simple", "--t-end",
                     "1e12")),
    "products": ("state a = 1\nstate b = 0\nrate(1e308): a -> b\n",
                 ("exact",)),
    # 43,656 configurations enumerated before the solve is refused
    "entries": (None, ("exact", "--model", "foraging", "--set", "n0=15",
                       "--set", "m0=60", "--t-end", "1000")),
    # a self-loop fires whatever the occupancy: at rate 1e308 the clock
    # moves ~1e-308 an event and would never reach t_end; the budget is
    # read as each block of 32 events' uniforms is drawn
    "events": ("state a = 1\nrate(1e308): a -> a\n", ("mc",)),
    # sugawara's delivery counter grows without bound, so its enumeration
    # passes the configurations limit
    "configurations": (None, ("exact", "--model", "sugawara")),
}


@pytest.mark.parametrize("limit", README_LIMITS)
def test_the_readme_limits_table_is_what_the_cli_prints(capsys, tmp_path,
                                                        limit):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+)` \|.*`(numeric failure: [^`]*)`",
                           readme, re.M))
    assert list(rows) == list(README_LIMITS)
    source, argv = README_LIMITS[limit]
    if source is not None:
        f = tmp_path / "model.mas"
        f.write_text(source)
        argv = (*argv, "--model", str(f))
    assert _run(capsys, *argv) == (3, "", rows[limit] + "\n")


def test_master_normalization_drift_exit_3(capsys, monkeypatch):
    from swarmk import stochastic

    poisson = stochastic._poisson_weights

    def half_the_mass(q):
        first, w = poisson(q)
        return first, w * 0.5

    monkeypatch.setattr(stochastic, "_poisson_weights", half_the_mass)
    assert _run(capsys, "exact", "--model", "stickpull-counts", "--t-end",
                "1", "--grid-points", "2") == (
        3, "", "numeric failure: master-equation normalization drifted to "
               "0.49999999999999994\n")


@pytest.mark.parametrize("override", ["tga=55.5", "ta=2.5"])
def test_difference_lag_off_the_step_grid_exit_3(capsys, override):
    # a window or lag between whole steps cannot be read from the stored
    # steps: refused, not rounded to a neighbouring step
    code, _, err = _run(capsys, "run", "--model", "collab-difference",
                        "--steps", "100", "--set", override)
    assert code == 3
    assert err.startswith("numeric failure: step dt=1.0 does not divide")


def test_difference_model_runs_by_steps(capsys):
    code, out, _ = _run(capsys, "run", "--model", "collab-difference",
                        "--steps", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t,s,")
    assert len(lines) == 12


def test_difference_steps_in_run_and_sweep(capsys):
    # --t-end 10 is 10 steps; sweep runs --steps, not a fixed count
    by_steps = _run(capsys, "run", "--model", "collab-difference",
                    "--steps", "10")
    assert _run(capsys, "run", "--model", "collab-difference",
                "--t-end", "10") == by_steps
    argv = ("sweep", "--model", "collab-difference", "--param", "alpha",
            "--from", "0.01", "--to", "0.02", "--sweep-steps", "2",
            "--observables", "final:s")
    rows = {}
    for steps in ("10", "20", "2000"):
        code, out, err = _run(capsys, *argv, "--steps", steps)
        assert (code, err) == (0, "")
        rows[steps] = out
    assert len({rows["10"], rows["20"], rows["2000"]}) == 3
    assert _run(capsys, *argv, "--t-end", "10") == (0, rows["10"], "")


@pytest.mark.parametrize("command", [
    ("run",),
    ("sweep", "--param", "alpha", "--from", "0.01", "--to", "0.02",
     "--sweep-steps", "2", "--observables", "final:s")], ids=["run", "sweep"])
def test_dt_on_a_synchronous_model_is_a_usage_error(capsys, command):
    # a synchronous model takes whole steps: --dt would be ignored
    argv = (*command, "--model", "collab-difference", "--t-end", "3")
    assert _run(capsys, *argv)[0] == 0
    assert _run(capsys, *argv, "--dt", "7") == (
        1, "", "usage error: --dt applies only to a non-synchronous model; "
               "a synchronous one takes whole steps\n")


@pytest.mark.parametrize("option, value", [("--dt", "7"), ("--t-end", "3"),
                                           ("--steps", "3")])
@pytest.mark.parametrize("observables", ["nstar,R", "residual"])
def test_analytic_sweep_refuses_time_options(capsys, option, value,
                                             observables):
    # nstar, R and residual come from the closed form: no run reads them
    argv = ("sweep", "--model", "stickpull-delayed", "--param", "tau",
            "--from", "1", "--to", "2", "--sweep-steps", "2",
            "--observables", observables)
    assert _run(capsys, *argv)[0] == 0
    assert _run(capsys, *argv, option, value) == (
        1, "", f"usage error: {option} does not apply to the analytic "
               "observables nstar, R, residual\n")
    # an observable that integrates the model reads them
    code, _, err = _run(capsys, *argv[:-1], f"{observables},final:s",
                        "--t-end", "10", "--dt", "0.5")
    assert (code, err) == (0, "")


def test_exact_rows_end_at_t_end(capsys):
    # 175 rows 0.04 apart
    code, out, _ = _run(capsys, "exact", "--model", "stickpull-counts",
                        "--t-end", "7", "--grid-points", "175")
    assert code == 0
    times = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert times[-1] == 7.0
    assert len(times) == 176


@pytest.mark.parametrize("t_end, argv, rows", [
    ("10.09", (), 51), ("10.09", ("--grid-points", "1009"), 1010),
    ("0", ("--grid-points", "7"), 1)], ids=["default", "1009", "t_end-0"])
def test_exact_writes_a_row_per_grid_point(capsys, t_end, argv, rows):
    # --grid-points steps over [0, t_end], 50 unless given; one row at
    # t_end = 0
    code, out, err = _run(capsys, "exact", "--model", "stickpull-counts",
                          "--t-end", t_end, *argv)
    assert (code, err) == (0, "")
    times = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert len(times) == rows
    assert times[-1] == float(t_end)


_CHAIN_REFUSALS = {
    "negative": ("state s = -1\nstate g = 2\nrate(s): s -> g\n",
                 "invalid diagram: negative initial count for state s"),
    "division": ("param k = 1\nstate s = 2\nstate g = 0\n"
                 "rate(k * s / g): s -> g\n",
                 "invalid diagram: rate k * s / g failed to evaluate: "
                 "division by zero"),
    # compare: the chain refuses before the mean field fails (exit 3)
    "time": ("state a = 1\nstate b = 0\n"
             "rate(a * a * a * 1e6 * step(t)): a -> b\n"
             "rate(b * b * b * 1e6): b -> a\n",
             "time-dependent rates and effects are not allowed in the "
             "configuration chain"),
}


@pytest.mark.parametrize("command, source, message", [
    pytest.param(command, *_CHAIN_REFUSALS[case], id=f"{command}-{case}")
    for case in _CHAIN_REFUSALS for command in ("exact", "mc", "compare")
    # compare refused the other two through the mean field already
    if command != "compare" or case == "time"])
def test_chain_commands_refuse_what_run_refuses(capsys, tmp_path, command,
                                                source, message):
    f = tmp_path / "model.mas"
    f.write_text(source)
    argv = (command, "--model", str(f), "--t-end", "10")
    if command == "compare":  # only its mean field takes steps and --dt
        argv += ("--dt", "0.5")
    if command != "exact":
        argv += ("--runs", "2")
    assert _run(capsys, *argv) == (2, "", f"model error: {message}\n")


# each file passes validation: its rate or effect is non-finite only at
# the integer configuration b = 2 (1e308 * 10 overflows to inf)
_NON_FINITE = {
    "effect": ("state a = 2\nstate b = 0\nenv m = 0\nrate(a): a -> b\n"
               "rate(b): b -> a ; m += step(b - 2) * 1e308 * 10\n",
               "environment effects must be finite and integer-valued in "
               "the configuration chain (got inf)"),
    "rate": ("state a = 2\nstate b = 0\nrate(a): a -> b\n"
             "rate(b + step(b - 2) * 1e308 * 10): b -> a\n",
             "rates must be finite in the configuration chain (got inf)"),
    # the effect 0.5 sits a transition before the infinite rate: each
    # engine checks every rate and their total before any jump's effects
    "both": ("state a = 2\nstate b = 0\nenv m = 0\nrate(a): a -> b\n"
             "rate(b): b -> a ; m += step(b - 2) * 0.5\n"
             "rate(b + step(b - 2) * 1e308 * 10): b -> a\n",
             "rates must be finite in the configuration chain (got inf)"),
}


@pytest.mark.parametrize("command", ["exact", "mc", "compare"])
@pytest.mark.parametrize("case", list(_NON_FINITE))
def test_chain_commands_refuse_a_non_finite_rate_or_effect(capsys, tmp_path,
                                                           case, command):
    source, message = _NON_FINITE[case]
    f = tmp_path / "model.mas"
    f.write_text(source)
    assert _run(capsys, "validate", "--model", str(f))[0] == 0
    argv = (command, "--model", str(f), "--t-end", "10")
    if command != "exact":
        argv += ("--runs", "2")
    assert _run(capsys, *argv) == (2, "", f"model error: {message}\n")


def test_compare_refuses_a_difference_model(capsys):
    assert _run(capsys, "compare", "--model", "collab-difference",
                "--runs", "2") == (
        2, "", "model error: the configuration chain needs a memoryless "
               "(ode) model, not a difference one\n")


# SHA-256 of the standard output of each command, recorded before rates
# were evaluated through generated source: every digit of every output must
# stay the same (repr of each float, so one ulp anywhere changes a digest).
# The exact digest was recorded again when the master equation moved from
# RK4 steps to uniformization, whose rows are within 5.6e-9 relative of the
# RK4 ones, and the exact and compare digests of the chain again when the
# master solve became one Poisson series from t = 0: its probabilities agree
# with the per-row solve to 1e-14, and every printed value stayed within
# 2.2e-14 (absolute).  The stickpull-delayed digest was recorded again when
# history reads moved to the half-step grid (exact 0.5 weights and widths,
# not a fraction computed in floating point): every value of run --t-end
# 100 --dt 0.01 stayed within 8.7e-15 relative.  The two exact digests were
# recorded again when exact's rows became its --grid-points steps (51, not
# 101): each row is within 1.8e-15 of the row printed before at its time
# (test_exact_rows_are_the_rows_a_finer_grid_gives).
_OUTPUT_DIGESTS = {
    ("run", "--model", "stickpull-delayed", "--t-end", "10"):
        "bb356d9b64339794ef9d495bf01ce6085f2f94546baacd7b7cf9faf1561b8393",
    ("run", "--model", "collab-difference", "--steps", "200"):
        "6613f09406a991472f5e26bde52a453130e44ad402a8a39c33474398b88ef4a2",
    ("run", "--model", "sugawara", "--t-end", "10"):
        "a90b2b1c43da89a4b9b14ab253865790cbfcb5c1015750bd7304645d431bdf34",
    ("sweep", "--model", "foraging", "--param", "n0", "--from", "1",
     "--to", "3", "--sweep-steps", "3", "--observables", "T",
     "--counter", "m", "--mode", "deplete", "--threshold", "1",
     "--t-end", "1600", "--dt", "0.5"):
        "8f44d8cebd8e0b5a8deec9b676049e909f7bc94223572626b4ea3d19eceb6549",
    ("exact", "--model", "stickpull-counts"):
        "e864216fc7565ccba58bf8ee6a236a5635b9ccba8efc2d133f9417e3bb97c3f7",
    # Gillespie paths from block-drawn uniforms (waits by inversion), all
    # replicas on one stream: the means were checked within 5 stderr of the
    # exact columns when recorded
    ("mc", "--model", "stickpull-counts", "--runs", "50", "--seed", "3"):
        "5a4ee892d1e7668d696a0d7b0ab2d1ab406c484d94e87cd509d8e7ba0cd1f05c",
    # with an env effect (m -= 1) beside the exact columns
    ("compare", "--model", "foraging", "--set", "n0=3", "--set", "m0=6",
     "--t-end", "5", "--runs", "50", "--seed", "3"):
        "0ed93b53b0f2c2b2531a9fae16a9de37f86f0c98c5dc35dd926a88bd0b2e9884",
    # parameters and N0 as run-time names, not folded literals: an ODE at
    # a set n0, a DDE at set tau and beta, a synchronous sweep over n0, the
    # exact chain at set counts and an analytic sweep over gamma
    ("run", "--model", "foraging", "--set", "n0=7", "--t-end", "100",
     "--dt", "0.5"):
        "95f9d0858ff6d92d329698335de90d862da2501b66c31028337376850ca6f803",
    ("run", "--model", "stickpull-delayed", "--set", "tau=2", "--set",
     "beta=0.8", "--t-end", "20"):
        "97921cd4f3e01edb32b6f806db1472851b1b1672e0ef0a807c9b7fbfd1f6cc71",
    ("sweep", "--model", "collab-difference", "--param", "n0", "--from", "4",
     "--to", "8", "--sweep-steps", "3", "--observables", "final:s",
     "--steps", "50"):
        "9ca7e120f2d9c6b3a0dc2259045a1c0745b94c8f6ec53c9755fcc82705e3c44f",
    ("exact", "--model", "foraging", "--set", "n0=3", "--set", "m0=6",
     "--t-end", "5"):
        "b005776c54f097e33000c9fac222f7bfed7af6d5a84f35143f3742d7d452cbf8",
    ("sweep", "--model", "stickpull-simple", "--param", "gamma", "--from",
     "0.1", "--to", "2", "--sweep-steps", "20", "--observables",
     "nstar,R,residual"):
        "733b10aacce68c124ea1c6bd5cf5040afb2f2047bd69257df68ba580cdf98539",
}


# the two exact pins: their rows were 0.1 and 0.05 apart before exact's rows
# became its --grid-points steps
@pytest.mark.parametrize("name, sets, t_end, before", [
    ("stickpull-counts", {}, 10.0, 0.1),
    ("foraging", {"n0": 3, "m0": 6}, 5.0, 0.05)], ids=["counts", "foraging"])
def test_exact_rows_are_the_rows_a_finer_grid_gives(capsys, name, sets,
                                                    t_end, before):
    import swarmk as sk

    argv = ["exact", "--model", name, "--t-end", repr(t_end)]
    for k, v in sets.items():
        argv += ["--set", f"{k}={v}"]
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    rows = np.loadtxt(out.splitlines()[1:], delimiter=",", ndmin=2)
    _, fine = sk.master_exact(sk.build_builtin(name, **sets), t_end=t_end,
                              dt=before)
    assert rows.shape == (51, 1 + fine.data.shape[1])
    shared = np.column_stack((fine.times, fine.data))[::2]
    assert np.abs(rows - shared).max() <= 1e-14


def test_outputs_byte_identical(capsys):
    import hashlib

    changed = []
    for argv, digest in _OUTPUT_DIGESTS.items():
        code, out, err = _run(capsys, *argv)
        assert code == 0, err
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(" ".join(argv[:3]))
    assert not changed


def test_csv_is_written_in_blocks_with_the_same_bytes(capsys, tmp_path):
    # 10,001 rows: three blocks of CSV_BLOCK rows, to stdout and to a file,
    # in the bytes of one joined string
    import swarmk as sk
    from swarmk import cli

    argv = ("run", "--model", "stickpull-simple", "--t-end", "100")
    traj = sk.integrate(sk.compile_rhs(sk.build_builtin("stickpull-simple")),
                        t_end=100.0, dt=0.01)
    rows = np.column_stack((traj.times, traj.data)).tolist()
    expected = "\n".join([",".join(["t", *traj.columns]),
                          *(",".join(map(repr, row)) for row in rows)]) + "\n"
    assert len(rows) > 2 * cli.CSV_BLOCK
    assert _run(capsys, *argv) == (0, expected, "")
    out = tmp_path / "run.csv"
    assert _run(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_text(encoding="utf-8") == expected
    blocks = list(cli._csv(["t"], ([float(i)] for i in range(len(rows)))))
    assert len(blocks) == 1 + 3


_EFFECT_FAILURE = ("env effect m += 1 / b of rate a failed to evaluate: "
                   "division by zero")


@pytest.mark.parametrize("argv, err", [
    (("validate",), f"defect: {_EFFECT_FAILURE}\n"),
    (("run", "--t-end", "1", "--dt", "0.5"),
     f"model error: invalid diagram: {_EFFECT_FAILURE}\n"),
    (("mc", "--t-end", "1", "--runs", "2"),
     f"model error: invalid diagram: {_EFFECT_FAILURE}\n"),
], ids=["validate", "run", "mc"])
def test_validation_evaluates_env_effects(capsys, tmp_path, argv, err):
    f = tmp_path / "effect.mas"
    f.write_text("state a = 1\nstate b = 0\nenv m = 0\n"
                 "rate(a): a -> b ; m += 1 / b\n")
    assert _run(capsys, argv[0], "--model", str(f), *argv[1:]) == (2, "", err)


@pytest.mark.parametrize("rate, col", [("1e999 * s", 6),
                                       ("delay(s, 1e999)", 15)])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_out_of_range_number_is_a_model_error(capsys, tmp_path, command,
                                              rate, col):
    f = tmp_path / "big.mas"
    f.write_text(f"state s = 1\nstate g = 0\nrate({rate}): s -> g\n")
    assert _run(capsys, command, "--model", str(f)) == (
        2, "", f"model error: 3:{col}: number 1e999 is out of range\n")


def test_sweep_refuses_an_unknown_observable_before_any_row(capsys,
                                                            monkeypatch):
    from swarmk import analysis

    def no_run(*args):
        raise AssertionError("a row was run")

    monkeypatch.setattr(analysis, "_run_to_trajectory", no_run)
    monkeypatch.setattr(analysis, "_steady", no_run)
    assert _run(capsys, "sweep", "--model", "stickpull-delayed", "--param",
                "tau", "--from", "1", "--to", "2", "--sweep-steps", "2",
                "--observables", "nstar,bogus", "--t-end", "1") == (
        1, "", "usage error: unknown observable 'bogus'\n")
    # a swept name that is not a parameter (a misspelling, a state): the
    # model error --set gives, not a failure of every row
    for name in ("gama", "s"):
        assert _run(capsys, "sweep", "--model", "stickpull-simple",
                    "--param", name, "--from", "0.1", "--to", "0.2",
                    "--sweep-steps", "2") == (
            2, "", f"model error: unknown parameter(s): {name}\n")
    # a column, a T counter or a T threshold every row would miss alike
    sweep = ("sweep", "--model", "foraging", "--param", "n0", "--from", "1",
             "--to", "2", "--sweep-steps", "2", "--t-end", "1")
    for observables, extra, message in [
            ("final:zz", (), "final:zz reads 'zz', not a state or counter"),
            ("steady:zz", (), "steady:zz reads 'zz', not a state or counter"),
            ("T", ("--counter", "zz", "--threshold", "1"),
             "T reads 'zz', not a state or counter"),
            ("T", ("--threshold", "1"),
             "observable T needs a counter and a threshold"),
            ("T", ("--counter", "m"),
             "observable T needs a counter and a threshold")]:
        assert _run(capsys, *sweep, "--observables", observables, *extra) \
            == (1, "", f"usage error: {message}\n")


def test_sweep_reports_failed_rows_on_stderr(capsys):
    code, out, err = _run(capsys, "sweep", "--model", "stickpull-delayed",
                          "--param", "beta", "--from", "0.5", "--to", "0.6",
                          "--sweep-steps", "2", "--observables", "final:s",
                          "--t-end", "9", "--dt", "0.3")
    # failed rows stay row data: empty cells and exit 0
    assert (code, out) == (0, "param,final:s\n0.5,\n0.6,\n")
    assert err == "".join(
        f"row beta={v}: DelayMisaligned: step dt=0.3 does not divide "
        "delay 5.0\n" for v in ("0.5", "0.6"))


def test_sweep_steady_of_a_run_too_short_to_settle(capsys):
    # two rows: no earlier window to compare the last one with
    code, out, err = _run(capsys, "sweep", "--model", "stickpull-simple",
                          "--param", "beta", "--from", "0.4", "--to", "0.5",
                          "--sweep-steps", "2", "--observables", "steady:s",
                          "--t-end", "0.01", "--dt", "0.01")
    assert (code, out) == (0, "param,steady:s\n0.4,\n0.5,\n")
    assert err == "".join(
        f"row beta={v}: IntegrationError: 2 rows cannot show column 's' "
        "settled: need 4; integrate longer\n" for v in ("0.4", "0.5"))


def _shipped_path(name):
    return str(resources.files("swarmk").joinpath(f"models_mas/{name}.mas"))


@pytest.mark.parametrize("name, overrides", [
    *(pytest.param(name, (), id=name) for name in models.BUILTIN_NAMES),
    # the shipped files that declare the group size n0
    *(pytest.param(name, ("--set", "n0=3"), id=f"{name}-n0=3") for name in
      ("foraging", "sugawara", "stickpull-counts", "collab-difference"))])
def test_file_states_the_whole_model(capsys, name, overrides):
    # a shipped file loaded by its path is the built-in model: the same
    # synchronous steps, derived values and initial counts, byte for byte
    argv = ("run", "--t-end", "1", *overrides)
    by_name = _run(capsys, *argv, "--model", name)
    assert by_name[0] == 0
    assert _run(capsys, *argv, "--model", _shipped_path(name)) == by_name


def test_sweep_by_path_matches_sweep_by_name(capsys):
    argv = ("sweep", "--param", "n0", "--from", "1", "--to", "3",
            "--sweep-steps", "3", "--observables", "T", "--counter", "m",
            "--threshold", "1", "--t-end", "1600", "--dt", "0.5")
    by_name = _run(capsys, *argv, "--model", "foraging")
    by_path = _run(capsys, *argv, "--model", _shipped_path("foraging"))
    assert by_path == by_name
    assert by_name[0] == 0 and ",," not in by_name[1]


@pytest.mark.parametrize("name, override", [
    ("stickpull-simple", "rg=2"), ("stickpull-simple", "gamma=inf"),
    ("stickpull-simple", "gamma=-1"), ("stickpull-delayed", "beta=0"),
    ("stickpull-delayed", "tau=-1"), ("stickpull-simple-depletion", "mu=-1"),
    ("stickpull-delayed-depletion", "rg=0"), ("foraging", "ap=-1"),
    ("foraging", "n0=0"), ("foraging", "tau_slope=-0.1"),
    ("foraging", "arp=1e308"), ("stickpull-counts", "alpha=0"),
    ("stickpull-counts", "m0=0.5"), ("sugawara", "d=0"),
    ("sugawara", "k_target=-5"), ("sugawara", "l_x=nan"),
    ("collab-difference", "alpha=1.5"), ("collab-difference", "ta=-1")])
def test_refused_set_by_name_and_by_path(capsys, name, override):
    # the domain is in the file, so a path refuses what the name refuses
    argv = ("run", "--t-end", "1", "--set", override)
    by_name = _run(capsys, *argv, "--model", name)
    assert by_name[:2] == (1, "") and by_name[2].startswith("usage error: ")
    assert _run(capsys, *argv, "--model", _shipped_path(name)) == by_name


def test_sweep_provenance_names_the_model(capsys):
    code, out, _ = _run(capsys, "sweep", "--model", "stickpull-delayed",
                        "--set", "beta=0.8", "--param", "tau", "--from", "1",
                        "--to", "2", "--sweep-steps", "2", "--format", "json")
    assert code == 0
    provenance = json.loads(out)["provenance"]
    assert provenance["model"] == "stickpull-delayed"
    assert provenance["params"] == {"beta": 0.8, "tau": 5.0, "rg": 0.35}


def test_validate_reports_a_delay_bound_it_cannot_evaluate(capsys, tmp_path):
    f = tmp_path / "lag.mas"
    f.write_text("param w = 1\nstate a = 1\nstate b = 0\n"
                 "rate(delay(a, 1 / (w - 1))): a -> b\n")
    assert _run(capsys, "validate", "--model", str(f)) == (
        2, "", "defect: delay bound not evaluable: division by zero\n")


def test_exact_refuses_fractional_initial_counts(capsys):
    assert _run(capsys, "exact", "--model", "stickpull-counts",
                "--set", "n0=2.5") == (
        2, "", "model error: initial counts must be integers for the "
        "configuration chain\n")


def test_an_arithmetic_failure_mid_run_is_exit_2(capsys, tmp_path):
    # 1 / step(12.31 - t) divides by zero once t passes 12.31: an
    # EvalError, which is a model error
    f = tmp_path / "cutoff.mas"
    f.write_text("state a = 1\nstate b = 0\n"
                 "rate(a / step(12.31 - t)): a -> b\n")
    assert _run(capsys, "run", "--model", str(f), "--t-end", "20") == (
        2, "", "model error: division by zero\n")


# -- the exit-code contract, fuzzed over random models ------------------------

def _fuzz_rate(states):
    """A rate tree over ``+ - * /``, exp, ln, step, delay and histint (lags
    whole multiples of 0.25), the states, ``t``, ``N0`` and the param k."""
    leaves = st.sampled_from([*states, "t", "N0", "k", "0", "0.5", "1", "2"])
    lag = st.sampled_from(["0.25", "0.5", "1"])
    return st.recursive(leaves, lambda x: st.one_of(
        st.builds("({} {} {})".format, x, st.sampled_from("+-*/"), x),
        st.builds("{}({})".format, st.sampled_from(["exp", "ln", "step"]), x),
        st.builds("{}({}, {})".format, st.sampled_from(["delay", "histint"]),
                  x, lag)), max_leaves=5)


@st.composite
def _fuzz_models(draw):
    """``(source, state names, N0)`` of a two- or three-state model with
    small whole start counts (the first at least 1), one param and up to
    three transitions, and an optional env counter c with ±1 effects.  A
    transition with an effect is gated by c, so the chain stays finite."""
    states = ["a", "b", "c3"][:draw(st.integers(2, 3))]
    lines = [f"param k = {draw(st.sampled_from(['0.5', '1', '2']))}"]
    counts = [draw(st.integers(1 if i == 0 else 0, 3))
              for i in range(len(states))]
    lines += [f"state {s} = {n}" for s, n in zip(states, counts)]
    counter = draw(st.booleans())
    if counter:
        lines.append(f"env c = {draw(st.integers(0, 3))}")
    for _ in range(draw(st.integers(1, 3))):
        rate = draw(_fuzz_rate(states))
        src, dst = draw(st.sampled_from(states)), draw(st.sampled_from(states))
        effect = draw(st.sampled_from([None, "+", "-"] if counter else [None]))
        if effect is None:
            lines.append(f"rate({rate}): {src} -> {dst}")
        else:
            gate = "step(c - 1)" if effect == "-" else "step(2 - c)"
            lines.append(f"rate(({rate}) * {gate}): {src} -> {dst} ; "
                         f"c {effect}= 1")
    return "\n".join(lines) + "\n", states, float(sum(counts))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_fuzz_models())
def test_every_command_keeps_the_exit_code_contract(tmp_path_factory, model):
    from swarmk.integrate import CONSERVATION_BUDGET, NEGATIVE_TOLERANCE

    source, states, n0 = model
    f = tmp_path_factory.mktemp("fuzz") / "model.mas"
    f.write_text(source)
    chain = ("--t-end", "1", "--runs", "2", "--grid-points", "4")
    for argv in [("validate",), ("run", "--t-end", "1"),
                 ("sweep", "--param", "k", "--from", "0.5", "--to", "2",
                  "--sweep-steps", "2", "--observables", f"final:{states[0]}",
                  "--t-end", "1"),
                 ("mc", *chain), ("exact", "--t-end", "1"),
                 ("compare", *chain)]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_cli([*argv, "--model", str(f)])
        assert code in (0, 1, 2, 3), (argv, source)
        if code != 0 or argv[0] not in ("run", "exact"):
            continue
        rows = [row.split(",") for row in out.getvalue().splitlines()[1:]]
        counts = np.array(rows, dtype=float)[:, 1:1 + len(states)]  # after t
        drift = np.abs(counts.sum(axis=1) - n0).max()
        if argv[0] == "run":
            assert counts.min() >= -NEGATIVE_TOLERANCE * max(1.0, n0), source
            assert drift <= CONSERVATION_BUDGET * n0, source
        else:
            assert drift <= 1e-8, source
