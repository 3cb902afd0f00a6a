"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import filecmp
import itertools
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import swarmk.cli  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

# one small command per layer the tracer hooks
SMALL = [
    ("ode.csv", ["run", "--model", "stickpull-simple", "--t-end", "2"]),
    ("dde.csv", ["run", "--model", "stickpull-delayed", "--t-end", "6",
                 "--dt", "0.05"]),
    ("difference.csv", ["run", "--model", "collab-difference",
                        "--steps", "80"]),
    ("sweep_T.csv", ["sweep", "--model", "foraging", "--param", "n0",
                     "--from", "1", "--to", "2", "--sweep-steps", "2",
                     "--observables", "T", "--counter", "m",
                     "--threshold", "15", "--t-end", "200", "--dt", "1"]),
    ("sweep_tau.csv", ["sweep", "--model", "stickpull-delayed", "--param",
                       "tau", "--from", "1", "--to", "2", "--sweep-steps",
                       "3"]),
    ("compare.csv", ["compare", "--model", "stickpull-counts", "--t-end",
                     "2", "--runs", "20", "--seed", "3"]),
]


def small_workload(check=lambda outdir, seed: []):
    return SimpleNamespace(commands=lambda seed: SMALL, check=check)


def test_self_times_on_a_synthetic_span_tree():
    #   job [0, 10]
    #   +-- a [1, 4]
    #   |   +-- b [2, 3]
    #   +-- c [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0,
                                                             4.0]

    tracer = spans.Tracer()
    ids = {n: i for i, n in enumerate(spans.SPAN_NAMES)}
    names = ["job", "cli", "diagram.rhs", "cli"]
    for job in (0, 1):
        base = len(tracer.start)
        for n, p, s, e in zip(names, parent, start, end):
            tracer.name.append(ids[n])
            tracer.parent.append(p + base if p >= 0 else -1)
            tracer.job.append(job)
            tracer.start.append(s + 100 * job)
            tracer.end.append(e + 100 * job)
    layers = spans.per_job_layers(tracer)
    for job in (0, 1):
        assert layers[job]["job"] == (3.0, 1)
        assert layers[job]["cli"] == (6.0, 2)
        assert layers[job]["diagram.rhs"] == (1.0, 1)
        assert layers[job]["integrate.ode"] == (0.0, 0)


def test_traced_and_untraced_jobs_write_identical_bytes(tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    workload = small_workload()
    original = swarmk.cli.integrate
    _, problems = worker.run_job(workload, 0, str(plain))
    assert problems == []
    tracer = spans.Tracer()
    elapsed, problems = worker.attempt(workload, 0, str(traced), tracer, 0)
    assert problems == []
    assert swarmk.cli.integrate is original   # wrappers removed again
    for fname, _ in SMALL:
        assert filecmp.cmp(plain / fname, traced / fname, shallow=False)

    layers = spans.per_job_layers(tracer)[0]
    missing = [n for n, (_, calls) in layers.items() if calls == 0]
    assert missing == []
    a = tracer.arrays()
    own = spans.self_times(a["parent"], a["start"], a["end"])
    assert own.min() > -1e-9
    assert a["end"][0] - a["start"][0] <= elapsed
    # self times partition the root span
    assert own.sum() == pytest.approx(a["end"][0] - a["start"][0])
    c = tracer.counters
    # run (200 steps), two foraging sweep rows (2 x 200), compare's
    # mean-field leg (200)
    assert c[0, "integrate.ode.steps"] == 200 + 2 * 200 + 200
    assert c[0, "stochastic.ssa.runs"] == 20
    assert c[0, "analysis.sweep.rows"] == 5
    assert c[0, "cli.bytes_out"] == sum(
        os.path.getsize(traced / f) for f, _ in SMALL)


def test_clocked_jobs_write_identical_bytes(tmp_path):
    plain, clocked = tmp_path / "plain", tmp_path / "clocked"
    plain.mkdir()
    clocked.mkdir()
    workload = small_workload()
    worker.run_job(workload, 0, str(plain))
    clock = speed.Clock()
    elapsed, problems = worker.attempt(workload, 0, str(clocked),
                                       clock=clock)
    assert problems == []
    for fname, _ in SMALL:
        assert filecmp.cmp(plain / fname, clocked / fname, shallow=False)
    assert elapsed == clock.wall_s > 0
    assert clock.probes > 0 and clock.probe_s > 0 and clock.probe_mean_s > 0


def test_clock_weights_probes_by_the_stretch_before_them(monkeypatch):
    # a fake clock that advances one tick per reading, so each probe run
    # takes one tick
    monkeypatch.setattr(speed, "probe", lambda: None)
    ticks = itertools.count()
    monkeypatch.setattr(speed, "perf_counter", lambda: 1e-5 * next(ticks))
    clock = speed.Clock()
    with clock:
        next(ticks)                   # a stretch of two ticks
        clock._tick(None, None)       # a probe of one tick
    assert clock.probes == 1
    assert clock.probe_s == pytest.approx(2e-5)
    # stretches of 2 and 1 ticks, both before a one-tick probe
    assert clock.wall_s == pytest.approx(3e-5)
    assert clock.probe_mean_s == pytest.approx(1e-5)


def test_adjust_fits_how_strongly_jobs_follow_the_probe():
    probe = np.array([1.0, 1.5, 2.0, 1.2, 1.8]) * speed.REF_PROBE_S
    for beta in (0.0, 0.4, 1.0):
        wall = 3.0 * (probe / speed.REF_PROBE_S) ** beta
        wall[0] *= 1.5                # one-off costs in the first job
        adjusted, fitted = speed.adjust(wall, probe)
        assert fitted == pytest.approx(beta)
        assert np.median(adjusted) == pytest.approx(3.0)
    # slopes outside [0, 1] are clamped
    assert speed.adjust(3.0 * (probe / speed.REF_PROBE_S) ** 2, probe)[1] \
        == 1.0
    assert speed.adjust([3.0] * 5, [speed.REF_PROBE_S] * 5)[1] == 0.0


def test_failed_jobs_count_in_ok_frac(tmp_path):
    bad_check = small_workload(check=lambda outdir, seed: ["forced"])
    plain, traced, probe, failed, problems = worker.measure(
        bad_check, 0, 0.0, str(tmp_path))
    assert traced == [] and len(plain) == len(probe) == worker.MIN_JOBS
    assert failed == len(plain) and problems[0] == "forced"
    metrics, _ = worker.end_to_end(plain, probe, failed, len(plain))
    assert metrics["ok_frac"] == (0.0, "fraction")

    bad_model = SimpleNamespace(
        commands=lambda seed: [("x.csv", ["run", "--model", "no-such"])],
        check=lambda outdir, seed: [])
    elapsed, problems = worker.attempt(bad_model, 0, str(tmp_path))
    assert problems and "exit code 2" in problems[0]


def test_tail_has_ten_samples_above_it():
    value, pct, n = worker.tail(np.arange(20.0, 0.0, -1.0))
    assert (value, pct, n) == (10.0, 50.0, 20)
    assert np.sum(np.arange(1.0, 21.0) > value) == 10
