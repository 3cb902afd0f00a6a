"""Spans around swarmk's layers, recorded from outside the package.

While a ``Tracer`` is installed it replaces the public functions of each
layer at the names their callers look up (``swarmk.cli.integrate``,
``swarmk.analysis.completion_time``, ``HistoryAccessor.append``, ...) with
wrappers that record one span per call: name, start, end, the span that
was open when the call began, and the job it belongs to.  Spans are kept in
flat arrays in memory and written out once, at the end of the run.

A span's self time is its duration minus the durations of its children;
calls on one thread nest, so children never overlap.
"""
from __future__ import annotations

import importlib
import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# by module path: the package re-exports a function named ``integrate``
analysis, cli, diagram, integrate, models, parser, stochastic = (
    importlib.import_module(f"swarmk.{m}") for m in
    ("analysis", "cli", "diagram", "integrate", "models", "parser",
     "stochastic"))

ROOT = "job"


def _steps(result, args, kwargs):
    return {"steps": len(result.times) - 1}


def _sweep_rows(result, args, kwargs):
    return {"rows": len(result.grid),
            "row_failures": sum(e is not None for e in result.errors)}


def _space(result, args, kwargs):
    return {"configs": result.size, "jumps": len(result.jumps)}


_MASTER_SIGNATURE = inspect.signature(stochastic.master_exact)


def _master(result, args, kwargs):
    bound = _MASTER_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    steps = int(round(bound.arguments["t_end"] / bound.arguments["dt"]))
    n = result[0].space.size
    # dense W (n x n float64) read by four matvecs per RK4 step
    return {"steps": steps, "bytes_computed": n * n * 8 * 4 * steps}


def _ssa(result, args, kwargs):
    # the path holds the start row, one row per event and the closing row
    return {"runs": 1, "events": len(result.times) - 2}


# span name -> (owners and attribute names it replaces, counter hook).
# A hook receives the call's result and arguments and returns counters to
# add under the span's name.
LAYERS = {
    "cli": ([(cli, "run_cli")], None),
    "models.build": ([(models, "build_builtin")], None),
    "parser.parse": ([(models, "parse_model"),
                      (parser, "parse_model")], None),
    "diagram.validate": ([(diagram, "validate_diagram"),
                          (cli, "validate_diagram")], None),
    # the Tracer's own hook wraps the rhs of each compiled system
    "diagram.compile": ([(diagram, "compile_rhs"),
                         (cli, "compile_rhs")], None),
    "integrate.ode": ([(cli, "integrate"),
                       (analysis, "integrate")], _steps),
    "integrate.dde": ([(cli, "integrate_delayed"),
                       (analysis, "integrate_delayed")], _steps),
    "integrate.difference": ([(cli, "iterate_difference"),
                              (analysis, "iterate_difference")],
                             _steps),
    "integrate.history": ([(integrate.HistoryAccessor, m)
                           for m in ("append", "register_integrand",
                                     "bindings_at", "window_integral")],
                          None),
    "analysis.sweep": ([(analysis, "sweep")], _sweep_rows),
    "analysis.steady": ([(analysis, "steady_state_simple"),
                         (analysis, "steady_state_delayed")], None),
    "analysis.completion": ([(analysis, "completion_time")], None),
    "stochastic.enumerate": ([(stochastic.ConfigurationSpace,
                               "build")], _space),
    "stochastic.master": ([(stochastic, "master_exact")], _master),
    "stochastic.ssa": ([(stochastic, "ssa_run")], _ssa),
    "stochastic.ensemble": ([(stochastic, "ensemble")], None),
}
# RateSystem.rhs is a per-system closure, wrapped as each system is compiled
RHS = "diagram.rhs"
SPAN_NAMES = (ROOT, RHS) + tuple(LAYERS)


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()   # (job, "layer.counter") -> value
        self._ids = {n: i for i, n in enumerate(SPAN_NAMES)}
        self._open = [-1]
        self._job = -1

    def _enter(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.job.append(self._job)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def _exit(self, i):
        self.end[i] = perf_counter()
        self._open.pop()

    def wrap(self, name, fn, hook=None):
        """``fn`` with one span per call and ``hook``'s counters added."""
        nid = self._ids[name]

        def traced(*args, **kwargs):
            i = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(i)
            if hook is not None:
                for key, v in hook(result, args, kwargs).items():
                    self.counters[self._job, f"{name}.{key}"] += v
            return result

        return traced

    @contextmanager
    def job_span(self, job_id):
        """Root span of one job; spans opened inside it share ``job_id``."""
        self._job = job_id
        i = self._enter(self._ids[ROOT])
        try:
            yield
        finally:
            self._exit(i)
            self._job = -1

    def _compile_hook(self, system, args, kwargs):
        system.rhs = self.wrap(RHS, system.rhs)
        return {}

    @contextmanager
    def installed(self):
        """Replace every layer entry point by its traced wrapper."""
        saved = []
        try:
            for name, (sites, hook) in LAYERS.items():
                if name == "diagram.compile":
                    hook = self._compile_hook
                for owner, attr in sites:
                    raw = vars(owner)[attr]
                    saved.append((owner, attr, raw))
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__, hook))
                    else:
                        new = self.wrap(name, raw, hook)
                    setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path):
        """Write every span and the span-name table to ``path`` (.npz)."""
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())


def self_times(parent, start, end):
    """Duration of each span minus the durations of its direct children."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


def per_job_layers(tracer):
    """{job: {span name: (self seconds, calls)}} over every recorded span."""
    a = tracer.arrays()
    own = self_times(a["parent"], a["start"], a["end"])
    out = {}
    for job in np.unique(a["job"]):
        sel = a["job"] == job
        names = a["name"][sel]
        self_s = np.bincount(names, weights=own[sel],
                             minlength=len(SPAN_NAMES))
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        out[int(job)] = {n: (float(self_s[i]), int(calls[i]))
                         for i, n in enumerate(SPAN_NAMES)}
    return out
