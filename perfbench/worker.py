"""One benchmark run of one workload, in its own process.

Closed loop, one client: the next job starts only when the previous one
has finished.  Each job runs its commands in-process through
``swarmk.cli.run_cli``; only the commands are timed, the correctness check
runs after the clock stops.  Without tracing every job is timed by a
``speed.Clock``, which also records the machine speed the job met, and
``job_s`` is the median of the job times adjusted to a fixed speed.  Traced
jobs and the untraced jobs they are compared with are timed in plain wall
time.  Prints one JSON object on its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --outdir DIR

``run.py`` starts this with the package source on ``PYTHONPATH`` and the
BLAS thread count pinned to 1.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import swarmk.cli  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_JOBS = 11          # job_s.tail needs ten samples above it
MIN_TRACE_PAIRS = 3    # traced jobs (and as many untraced) when tracing


def run_job(workload, seed, outdir):
    """Run one job's commands; returns (output bytes, problems)."""
    problems = []
    paths = []
    for fname, argv in workload.commands(seed):
        path = os.path.join(outdir, fname)
        paths.append(path)
        code = swarmk.cli.run_cli(argv + ["--out", path])
        if code != 0:
            problems.append(f"exit code {code} from {' '.join(argv)}")
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p)), \
        problems


def attempt(workload, seed, outdir, tracer=None, job_id=0, clock=None):
    """One timed job, then its check: (seconds, problems).

    With a tracer the job is traced; with a ``speed.Clock`` it is timed by
    the clock, whose wall time leaves out the probes.  A job that
    raises, exits nonzero or fails its check has problems; its time is
    counted up to the point where it stopped.
    """
    t0 = perf_counter()
    try:
        if tracer is not None:
            with tracer.installed(), tracer.job_span(job_id):
                nbytes, problems = run_job(workload, seed, outdir)
            tracer.counters[job_id, "cli.bytes_out"] += nbytes
        elif clock is not None:
            with clock:
                nbytes, problems = run_job(workload, seed, outdir)
        else:
            nbytes, problems = run_job(workload, seed, outdir)
    except Exception:
        problems = ["raised: " + traceback.format_exc(-3)]
    elapsed = perf_counter() - t0 if clock is None else clock.wall_s
    if problems:
        return elapsed, problems
    try:
        problems = workload.check(outdir, seed)
    except Exception:
        problems = ["check raised: " + traceback.format_exc(-3)]
    return elapsed, problems


def measure(workload, seed, seconds, outdir, tracer=None):
    """Closed loop for ``seconds``, and for at least the minimum job count.

    Without a tracer every job is timed by a ``speed.Clock``.  With one,
    untraced and traced jobs alternate so that both see the same machine
    state.  Returns (untraced times, traced times, the untraced jobs' probe
    times (empty when tracing), failed jobs, problems).
    """
    os.makedirs(outdir, exist_ok=True)
    plain, traced, probe, failed, problems = [], [], [], 0, []
    clock = speed.Clock() if tracer is None else None
    deadline = perf_counter() + seconds
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        elapsed, probs = attempt(workload, seed, outdir,
                                 tracer if use_trace else None,
                                 len(traced), clock)
        (traced if use_trace else plain).append(elapsed)
        if clock is not None:
            probe.append(clock.probe_mean_s)
        if probs:
            failed += 1
            problems += probs
        enough = (len(traced) >= MIN_TRACE_PAIRS if tracer is not None
                  else len(plain) >= MIN_JOBS)
        if enough and perf_counter() >= deadline:
            return plain, traced, probe, failed, problems


def tail(times):
    """Highest order statistic with at least ten samples above it, with
    its percentile rank: (value, percentile, samples)."""
    x = np.sort(times)
    i = len(x) - 11
    return float(x[i]), 100.0 * (i + 1) / len(x), len(x)


def end_to_end(plain, probe, failed, attempted):
    adjusted, beta = speed.adjust(plain, probe)
    t, pct, n = tail(adjusted)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # job_s.tail is printed, not gated: with 11-15 jobs in a run the rule
    # lands at p9-p29 (see README.md)
    return {
        "job_s": (float(np.median(adjusted)), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }, {"job_s.tail": f"{t!r} s", "job_s.tail_percentile": pct,
        "job_s.samples": n, "job_wall_s": f"{float(np.median(plain))!r} s",
        "speed.beta": beta,
        "speed.probe_us": 1e6 * float(np.median(probe))}


PER_LAYER = (
    "diagram.rhs.calls", "diagram.rhs.self_s", "diagram.rhs.us_per_call",
    *(f"integrate.{flavor}.{m}" for flavor in ("ode", "dde", "difference")
      for m in ("steps", "self_s", "us_per_step")),
    "integrate.history.calls", "integrate.history.self_s",
    *(f"{layer}.{m}" for layer in ("models.build", "parser.parse",
                                   "diagram.validate", "diagram.compile")
      for m in ("calls", "self_s")),
    "analysis.sweep.rows", "analysis.sweep.row_failures",
    "analysis.sweep.self_s", "analysis.steady.self_s",
    "analysis.completion.self_s",
    "stochastic.enumerate.self_s", "stochastic.configs", "stochastic.jumps",
    "stochastic.master.steps", "stochastic.master.self_s",
    "stochastic.master.us_per_step", "stochastic.master.bytes_computed",
    "stochastic.ssa.runs", "stochastic.ssa.events", "stochastic.ssa.self_s",
    "stochastic.ssa.us_per_event", "stochastic.ensemble.self_s",
    "cli.self_s", "cli.bytes_out", "unattributed_s", "trace.spans_per_job",
)
_PER = {"us_per_call": "calls", "us_per_step": "steps",
        "us_per_event": "events"}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    return "B" if "bytes" in name else "count"


def _job_metrics(by_name, counters):
    """Every PER_LAYER value of one traced job."""
    m = dict(counters)
    for name, (self_s, calls) in by_name.items():
        m[f"{name}.self_s"] = self_s
        m[f"{name}.calls"] = calls
    m["stochastic.configs"] = m.get("stochastic.enumerate.configs", 0)
    m["stochastic.jumps"] = m.get("stochastic.enumerate.jumps", 0)
    m["unattributed_s"] = m[f"{spans.ROOT}.self_s"]
    m["trace.spans_per_job"] = sum(calls for _, calls in by_name.values())
    for name in PER_LAYER:
        layer, _, per = name.rpartition(".")
        if per in _PER:
            den = m.get(f"{layer}.{_PER[per]}", 0)
            m[name] = 1e6 * m[f"{layer}.self_s"] / den if den else 0.0
    return m


def per_layer(tracer, plain, traced):
    """Median over the traced jobs of every layer metric, with the
    unattributed remainder and the tracing overhead."""
    rows = [_job_metrics(by_name, {key: v for (j, key), v
                                   in tracer.counters.items() if j == job})
            for job, by_name in spans.per_job_layers(tracer).items()]
    out = {name: (float(np.median([r.get(name, 0) for r in rows])),
                  _unit(name)) for name in PER_LAYER}
    t_plain, t_traced = float(np.median(plain)), float(np.median(traced))
    out["trace.untraced_job_s"] = (t_plain, "s")
    out["trace.traced_job_s"] = (t_traced, "s")
    out["trace.overhead_s"] = (t_traced - t_plain, "s")
    out["trace.overhead_frac"] = ((t_traced - t_plain) / t_plain, "fraction")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    plain, traced, probe, failed, problems = measure(
        workload, args.seed, args.seconds, args.outdir, tracer)
    attempted = len(plain) + len(traced)
    result = {"attempted": attempted, "failed": failed,
              "problems": problems[:5]}
    if tracer is None:
        metrics, extra = end_to_end(plain, probe, failed, attempted)
    else:
        metrics, extra = per_layer(tracer, plain, traced), {}
        tracer.save(os.path.join(args.outdir, "spans.npz"))
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    result["extra"] = extra
    result["job_times"] = {"untraced": plain, "traced": traced,
                           "untraced_probe": probe}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
