"""Command-line front end: run, analyze and serialize models.

Exit codes: 0 success, 1 usage error, 2 model error (parse, validation,
evaluation), 3 numeric failure (integration, target not reached,
state-space limits).

``_TABLE`` lists each command's handler, help and options; the parser is
built from it once per process, on the first ``run_cli``, which loads the
model of every command but ``list`` and writes the text its handler returns.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys

import numpy as np

from . import analysis, models, stochastic
from .diagram import compile_rhs, validate_diagram
from .errors import IntegrationError, ModelError, NotReached, \
    StateSpaceTooLarge
# all three integrators stay bound here: perfbench/spans.py traces them
# at these names (``run`` reaches them through analysis)
from .integrate import (_check_t_end, _step_count, integrate,  # noqa: F401
                        integrate_delayed, iterate_difference)
from .parser import parse_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_NUMERIC = 3
CSV_BLOCK = 4096  # rows per block of CSV text written out


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we need 1."""

    def error(self, message):
        raise _UsageError(message)


def _load_model(args):
    """The diagram ``--model`` names, with the ``--set`` overrides."""
    overrides = {}
    for item in args.set or ():
        k, eq, v = item.partition("=")
        if not eq:
            raise _UsageError(f"--set expects name=value, got {item!r}")
        try:
            overrides[k.strip()] = float(v)
        except ValueError:
            raise _UsageError(f"--set value for {k!r} is not a number: {v!r}")
    name = args.model
    if name in models.BUILTIN_NAMES:
        return models.build_builtin(name, **overrides)
    if os.path.isfile(name):
        try:
            diagram = parse_file(name)
        except (OSError, UnicodeDecodeError) as exc:
            raise ModelError(f"cannot read {name!r}: {exc}") from None
        return diagram.with_params(**overrides)
    raise ModelError(f"unknown model {name!r}: not a built-in "
                     f"({', '.join(models.BUILTIN_NAMES)}) and not a file")


def _fmt_float(v):
    """A number as its float's repr; None as an empty cell."""
    return "" if v is None else repr(float(v))


def _emit(chunks, out):
    """Write the text ``chunks`` (or one string) to ``out`` or stdout."""
    with open(out, "w", encoding="utf-8") if out else \
            contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines([chunks] if isinstance(chunks, str) else chunks)


def _csv(header, rows, cell=repr):
    """CSV text in blocks of CSV_BLOCK rows: the header line, then one line
    per row, each value written by ``cell``.  A float array goes in as
    ``map(np.ndarray.tolist, a)``: row by row, a whole-array ``tolist``
    would hold every value at once, as joining every line would."""
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while block := [",".join(map(cell, row))
                    for row in itertools.islice(rows, CSV_BLOCK)]:
        yield "\n".join(block) + "\n"


def _json(payload):
    return json.dumps(payload, indent=2) + "\n"


def _traj_text(traj, fmt):
    if fmt == "csv":
        rows = np.column_stack((traj.times, traj.data))
        return _csv(["t"] + traj.columns, map(np.ndarray.tolist, rows))
    return _json({
        "columns": ["t"] + list(traj.columns),
        "rows": [[float(t)] + [float(v) for v in row]
                 for t, row in zip(traj.times, traj.data)],
        "metadata": {k: v for k, v in traj.metadata.items()
                     if isinstance(v, (str, int, float, dict))},
    })


def _stepped(diagram, args, analytic=False):
    """Check and fill in the time options of ``run``/``sweep``: ``--steps``
    needs a synchronous model, ``--dt`` any other, a sweep of ``analytic``
    observables none of them.  ``--steps N`` sets ``t_end`` to N (a
    synchronous run's length is its step count); an unset ``--dt`` is
    0.01, ``--t-end`` 10."""
    given = [name for name, v in (("--dt", args.dt), ("--t-end", args.t_end),
                                  ("--steps", args.steps)) if v is not None]
    if analytic and given:
        raise _UsageError(f"{given[0]} does not apply to the analytic "
                          f"observables {', '.join(analysis.STEADY_NAMES)}")
    if args.steps is not None and not diagram.discrete:
        raise _UsageError("--steps applies only to a synchronous model")
    if args.dt is not None and diagram.discrete:
        raise _UsageError("--dt applies only to a non-synchronous model; "
                          "a synchronous one takes whole steps")
    if args.steps is not None:
        args.t_end = args.steps
    args.dt = 0.01 if args.dt is None else args.dt
    args.t_end = 10.0 if args.t_end is None else args.t_end


def _cmd_run(diagram, args):
    _stepped(diagram, args)
    return _traj_text(analysis._run_to_trajectory(diagram, args.t_end,
                                                  args.dt), args.format)


def _cmd_steady(diagram, args):
    s = analysis._steady(diagram)
    shown = {"n": s["nstar"], "branch": s["branch"],
             "residual": s["residual"], "R": s["R"]}
    if args.format == "json":
        return _json(shown)
    return "".join(f"{k}={v if k == 'branch' else _fmt_float(v)}\n"
                   for k, v in shown.items())


def _cmd_sweep(diagram, args):
    if args.npts < 1:
        raise _UsageError("--sweep-steps must be >= 1")
    observables = tuple(s.strip() for s in args.observables.split(",") if s.strip())
    _stepped(diagram, args,
             analytic=set(observables) <= set(analysis.STEADY_NAMES))
    table = analysis.sweep(diagram, args.param,
                           np.linspace(args.lo, args.hi, args.npts),
                           observables, t_end=args.t_end, dt=args.dt,
                           counter=args.counter, mode=args.mode,
                           threshold=args.threshold)
    for v, err in zip(table.grid, table.errors):
        if err:
            print(f"row {args.param}={_fmt_float(v)}: {err}", file=sys.stderr)
    if args.format == "csv":
        return _csv(["param", *table.observables],
                    ((v, *row) for v, row in zip(table.grid, table.rows)),
                    _fmt_float)
    return _json({
        "param": table.param,
        "observables": list(table.observables),
        "rows": [{"value": v,
                  "observables": [None if x is None else float(x) for x in row],
                  "error": err}
                 for v, row, err in zip(table.grid, table.rows, table.errors)],
        "provenance": table.provenance,
    })


def _grid(args):
    """The ensemble's output times, ``--grid-points`` steps over
    [0, t_end] (refused first where ``linspace`` would fail or warn)."""
    if args.grid_points < 1:
        raise _UsageError("--grid-points must be >= 1")
    _check_t_end(args.t_end)
    return np.linspace(0.0, args.t_end, args.grid_points + 1)


def _ensemble(diagram, args, grid):
    """Statistics at ``grid`` of ``--runs`` Gillespie runs from ``--seed``."""
    return stochastic.ensemble(
        lambda seed: stochastic.ssa_run(diagram, t_end=args.t_end, seed=seed),
        args.runs, args.seed, grid)


def _cmd_mc(diagram, args):
    stats = _ensemble(diagram, args, _grid(args))
    if args.format == "json":
        return _json({"times": [float(t) for t in stats.times],
                      "columns": stats.columns,
                      "mean": stats.mean.tolist(),
                      "stderr": stats.stderr.tolist(),
                      "runs": stats.n_runs, "seed": stats.master_seed})
    header = ["t"] + [f"{c}_{k}" for c in stats.columns
                      for k in ("mean", "stderr")]
    # each column's mean and standard error, side by side
    pairs = np.stack((stats.mean, stats.stderr), axis=2)
    pairs = pairs.reshape(len(stats.times), -1)
    rows = np.column_stack((stats.times, pairs))
    return _csv(header, map(np.ndarray.tolist, rows))


def _cmd_exact(diagram, args):
    # rows ending at t_end, 101 or more (every step's below 100 steps): the
    # stride is the largest divisor of steps <= steps // 100
    n = _step_count(args.t_end, args.dt)
    stride = next(k for k in range(max(1, n // 100), 0, -1) if n % k == 0)
    _, traj = stochastic.master_exact(diagram, t_end=args.t_end, dt=args.dt,
                                      dt_out=stride * args.dt)
    return _traj_text(traj, args.format)


def _cmd_compare(diagram, args):
    grid = _grid(args)
    _step_count(args.t_end, args.dt)  # the mean field's --dt, checked first
    # the chain refuses first what it cannot represent: any flavor but ode.
    # It is solved at the grid's rows (one row at t_end = 0)
    _, exact = stochastic.master_exact(
        diagram, t_end=args.t_end, dt=args.t_end / args.grid_points or args.dt)
    mf = integrate(compile_rhs(diagram), t_end=args.t_end, dt=args.dt)
    stats = _ensemble(diagram, args, grid)
    cols = diagram.state_names + diagram.env_names
    v_mf = np.column_stack([np.interp(grid, mf.times, mf.column(c))
                            for c in cols])
    v_ex = np.broadcast_to(exact.data, v_mf.shape)
    # one row per grid point, one block of the six kinds per column
    table = np.stack((v_mf, v_ex, stats.mean, stats.stderr, v_ex - v_mf,
                      stats.mean - v_ex), axis=2)
    if args.format == "json":
        return _json({"rows": [{"t": t, "columns": dict(zip(cols, vals))}
                               for t, vals in zip(grid.tolist(),
                                                  table.tolist())]})
    kinds = ("mf", "exact", "mc", "mc_stderr", "gap_exact", "gap_mc")
    rows = np.column_stack((grid, table.reshape(len(grid), -1)))
    return _csv(["t"] + [f"{c}_{k}" for c in cols for k in kinds],
                map(np.ndarray.tolist, rows))


def _cmd_validate(diagram, args):
    report = validate_diagram(diagram)
    for defect in report.defects:
        print(f"defect: {defect}", file=sys.stderr)
    return f"ok: {diagram.name} has no defects\n" if report.ok else None


def _cmd_list(diagram, args):
    return "\n".join(models.BUILTIN_NAMES) + "\n"


# the options a command may read: their argparse keywords
_OPTIONS = {
    "model": dict(required=True, help="built-in name or .mas file path"),
    "set": dict(action="append", metavar="NAME=VALUE",
                help="override a model parameter (repeatable)"),
    "out": dict(help="write output to this file"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "dt": dict(type=float, default=0.01),
    "t-end": dict(type=float, default=10.0),
    "steps": dict(type=int, help="step count of a synchronous model"),
    "param": dict(required=True),
    "from": dict(dest="lo", type=float, required=True),
    "to": dict(dest="hi", type=float, required=True),
    "sweep-steps": dict(dest="npts", type=int, default=20),
    "observables": dict(default="nstar,R"),
    "counter": {},
    "mode": dict(choices=("deplete", "reach"), default="deplete"),
    "threshold": dict(type=float),
    "runs": dict(type=int, default=100),
    "seed": dict(type=int, default=0),
    "grid-points": dict(type=int, default=50),
}

# command -> (handler, help, the options it reads beyond --model, --set
# and --out); ``list`` reads no model and no option (None)
_TABLE = {
    "run": (_cmd_run, "integrate a model, emit the trajectory",
            ("format", "dt", "t-end", "steps")),
    "steady": (_cmd_steady, "steady searching fraction of a stick-pulling "
                            "model", ("format",)),
    "sweep": (_cmd_sweep, "observables over a parameter grid",
              ("format", "dt", "t-end", "steps", "param", "from", "to",
               "sweep-steps", "observables", "counter", "mode",
               "threshold")),
    "mc": (_cmd_mc, "Gillespie ensemble statistics",
           ("format", "t-end", "runs", "seed", "grid-points")),
    "exact": (_cmd_exact, "master-equation expectations",
              ("format", "dt", "t-end")),
    "compare": (_cmd_compare, "mean-field vs exact vs mc",
                ("format", "dt", "t-end", "runs", "seed", "grid-points")),
    "validate": (_cmd_validate, "report diagram defects", ()),
    "list": (_cmd_list, "list built-in models", None),
}


@functools.cache
def _parser():
    p = _Parser(prog="swarmk",
                description="Macroscopic rate-equation models of "
                            "multi-robot systems.")
    sub = p.add_subparsers(dest="command")
    for command, (_, text, reads) in _TABLE.items():
        sp = sub.add_parser(command, help=text)
        for name in () if reads is None else ("model", "set", "out", *reads):
            sp.add_argument(f"--{name}", **_OPTIONS[name])
        if reads and "steps" in reads:  # _stepped fills in the time options
            sp.set_defaults(dt=None, t_end=None)
    return p


def run_cli(argv=None):
    # each command builds the built-ins from the shipped files as they are
    models.forget_parsed_files()
    try:
        args = _parser().parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required "
                              f"({', '.join(_TABLE)})")
        handler, _, reads = _TABLE[args.command]
        text = handler(None if reads is None else _load_model(args), args)
        if text is None:  # validate wrote the defects to stderr
            return EXIT_MODEL
        _emit(text, getattr(args, "out", None))
        return EXIT_OK
    except (_UsageError, ValueError) as exc:
        # ValueError: an argument value the library refuses (dt <= 0, ...)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (IntegrationError, NotReached, StateSpaceTooLarge) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main():
    raise SystemExit(run_cli())
