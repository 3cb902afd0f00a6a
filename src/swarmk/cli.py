"""Command-line front end: run, analyze and serialize models.

Exit codes: 0 success, 1 usage error, 2 model error (parse/validation),
3 numeric failure (integration, root finding, state-space limits).
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

import numpy as np

from . import analysis, models, stochastic
from .diagram import compile_rhs, validate_diagram
from .errors import IntegrationError, ModelError, NoRoot, NotReached, \
    StateSpaceTooLarge, SwarmkError
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


def _load_model(name, overrides):
    if name is None:
        raise _UsageError("--model is required")
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


def _parse_overrides(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise _UsageError(f"--set expects name=value, got {item!r}")
        k, _, v = item.partition("=")
        try:
            out[k.strip()] = float(v)
        except ValueError:
            raise _UsageError(f"--set value for {k!r} is not a number: {v!r}")
    return out


def _fmt_float(v):
    """A number as its float's repr; None as an empty cell."""
    if v is None:
        return ""
    return repr(float(v))


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


def _emit_traj(traj, args):
    if args.format == "csv":
        rows = np.column_stack((traj.times, traj.data))
        _emit(_csv(["t"] + traj.columns, map(np.ndarray.tolist, rows)),
              args.out)
        return
    payload = {
        "columns": ["t"] + list(traj.columns),
        "rows": [[float(t)] + [float(v) for v in row]
                 for t, row in zip(traj.times, traj.data)],
        "metadata": {k: v for k, v in traj.metadata.items()
                     if isinstance(v, (str, int, float, dict))},
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)


def _sweep_json(table):
    return json.dumps({
        "param": table.param,
        "observables": list(table.observables),
        "rows": [{"value": v,
                  "observables": [None if x is None else float(x) for x in row],
                  "error": err}
                 for v, row, err in zip(table.grid, table.rows, table.errors)],
        "provenance": table.provenance,
    }, indent=2) + "\n"


def _build_parser():
    p = _Parser(prog="swarmk",
                description="Macroscopic rate-equation models of "
                            "multi-robot systems.")
    sub = p.add_subparsers(dest="command")

    options = {"format": dict(choices=("csv", "json"), default="csv"),
               "dt": dict(type=float, default=0.01),
               "t-end": dict(type=float, default=10.0),
               "steps": dict(type=int, default=None,
                             help="step count of a synchronous model")}

    def common(sp, *reads):
        """The options of every model command, then those of ``options``
        that the command reads."""
        sp.add_argument("--model", help="built-in name or .mas file path")
        sp.add_argument("--set", action="append", metavar="NAME=VALUE",
                        help="override a model parameter (repeatable)")
        sp.add_argument("--out", help="write output to this file")
        for name in reads:
            sp.add_argument(f"--{name}", **options[name])

    sp = sub.add_parser("run", help="integrate a model, emit the trajectory")
    common(sp, "format", "dt", "t-end", "steps")
    sp.set_defaults(dt=None, t_end=None)  # _load_stepped fills them in

    sp = sub.add_parser("steady", help="steady searching fraction of a "
                                       "stick-pulling model")
    common(sp, "format")

    sp = sub.add_parser("sweep", help="observables over a parameter grid")
    common(sp, "format", "dt", "t-end", "steps")
    sp.set_defaults(dt=None, t_end=None)
    sp.add_argument("--param", required=False)
    sp.add_argument("--from", dest="lo", type=float)
    sp.add_argument("--to", dest="hi", type=float)
    sp.add_argument("--sweep-steps", dest="npts", type=int, default=20)
    sp.add_argument("--observables", default="nstar,R")
    sp.add_argument("--counter")
    sp.add_argument("--mode", choices=("deplete", "reach"), default="deplete")
    sp.add_argument("--threshold", type=float)

    sp = sub.add_parser("mc", help="Gillespie ensemble statistics")
    common(sp, "format", "t-end")
    sp.add_argument("--runs", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid-points", type=int, default=50)

    sp = sub.add_parser("exact", help="master-equation expectations")
    common(sp, "format", "dt", "t-end")

    sp = sub.add_parser("compare", help="mean-field vs exact vs mc")
    common(sp, "format", "dt", "t-end")
    sp.add_argument("--runs", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid-points", type=int, default=50)

    sp = sub.add_parser("validate", help="report diagram defects")
    common(sp)

    sub.add_parser("list", help="list built-in models")
    return p


def _load_stepped(args, analytic=False):
    """The model of ``run``/``sweep``; ``--steps`` needs a synchronous one,
    ``--dt`` any other, a sweep of ``analytic`` observables none of the
    time options.  ``--steps N`` sets ``t_end`` to N (a synchronous run's
    length is its step count); an unset ``--dt`` is 0.01, ``--t-end`` 10."""
    diagram = _load_model(args.model, _parse_overrides(args.set))
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
    return diagram


def _cmd_run(args):
    diagram = _load_stepped(args)
    _emit_traj(analysis._run_to_trajectory(diagram, args.t_end, args.dt),
               args)
    return EXIT_OK


def _cmd_steady(args):
    s = analysis._steady(_load_model(args.model, _parse_overrides(args.set)))
    shown = {"n": s["nstar"], "branch": s["branch"],
             "residual": s["residual"], "R": s["R"]}
    if args.format == "json":
        _emit(json.dumps(shown, indent=2) + "\n", args.out)
    else:
        _emit("".join(f"{k}={v if k == 'branch' else _fmt_float(v)}\n"
                      for k, v in shown.items()), args.out)
    return EXIT_OK


def _cmd_sweep(args):
    if args.param is None or args.lo is None or args.hi is None:
        raise _UsageError("sweep requires --param, --from and --to")
    if args.npts < 1:
        raise _UsageError("--sweep-steps must be >= 1")
    observables = tuple(s.strip() for s in args.observables.split(",") if s.strip())
    model = _load_stepped(args, analytic=set(observables)
                          <= set(analysis.STEADY_NAMES))
    grid = np.linspace(args.lo, args.hi, args.npts)
    table = analysis.sweep(model, args.param, grid, observables,
                           t_end=args.t_end, dt=args.dt,
                           counter=args.counter, mode=args.mode,
                           threshold=args.threshold)
    for v, err in zip(table.grid, table.errors):
        if err:
            print(f"row {args.param}={_fmt_float(v)}: {err}", file=sys.stderr)
    if args.format == "csv":
        _emit(_csv(["param", *table.observables],
                   ((v, *row) for v, row in zip(table.grid, table.rows)),
                   _fmt_float), args.out)
    else:
        _emit(_sweep_json(table), args.out)
    return EXIT_OK


def _grid(args):
    """The ensemble's output times, ``--grid-points`` steps over
    [0, t_end] (refused first where ``linspace`` would fail or warn)."""
    if args.grid_points < 1:
        raise _UsageError("--grid-points must be >= 1")
    _check_t_end(args.t_end)
    return np.linspace(0.0, args.t_end, args.grid_points + 1)


def _cmd_mc(args):
    diagram = _load_model(args.model, _parse_overrides(args.set))
    grid = _grid(args)
    stats = stochastic.ensemble(
        lambda seed: stochastic.ssa_run(diagram, t_end=args.t_end, seed=seed),
        args.runs, args.seed, grid)
    if args.format == "json":
        payload = {"times": [float(t) for t in stats.times],
                   "columns": stats.columns,
                   "mean": stats.mean.tolist(),
                   "stderr": stats.stderr.tolist(),
                   "runs": stats.n_runs, "seed": stats.master_seed}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        header = ["t"] + [f"{c}_{k}" for c in stats.columns
                          for k in ("mean", "stderr")]
        # each column's mean and standard error, side by side
        pairs = np.stack((stats.mean, stats.stderr), axis=2)
        pairs = pairs.reshape(len(stats.times), -1)
        rows = np.column_stack((stats.times, pairs))
        _emit(_csv(header, map(np.ndarray.tolist, rows)), args.out)
    return EXIT_OK


def _cmd_exact(args):
    diagram = _load_model(args.model, _parse_overrides(args.set))
    # ~100 rows ending at t_end: the least divisor of steps >= steps // 100
    n = _step_count(args.t_end, args.dt)
    stride = next(k for k in range(max(1, n // 100), n + 2) if n % k == 0)
    _, traj = stochastic.master_exact(diagram, t_end=args.t_end, dt=args.dt,
                                      dt_out=stride * args.dt)
    _emit_traj(traj, args)
    return EXIT_OK


def _cmd_compare(args):
    diagram = _load_model(args.model, _parse_overrides(args.set))
    grid = _grid(args)
    _step_count(args.t_end, args.dt)  # the mean field's --dt, checked first
    # the chain refuses first what it cannot represent: any flavor but ode.
    # It is solved at the grid's rows (one row at t_end = 0)
    _, exact = stochastic.master_exact(
        diagram, t_end=args.t_end, dt=args.t_end / args.grid_points or args.dt)
    mf = integrate(compile_rhs(diagram), t_end=args.t_end, dt=args.dt)
    stats = stochastic.ensemble(
        lambda seed: stochastic.ssa_run(diagram, t_end=args.t_end, seed=seed),
        args.runs, args.seed, grid)
    cols = diagram.state_names + diagram.env_names
    v_mf = np.column_stack([np.interp(grid, mf.times, mf.column(c))
                            for c in cols])
    v_ex = np.broadcast_to(exact.data, v_mf.shape)
    # one row per grid point, one block of the six kinds per column
    table = np.stack((v_mf, v_ex, stats.mean, stats.stderr, v_ex - v_mf,
                      stats.mean - v_ex), axis=2)
    if args.format == "json":
        rows = [{"t": t, "columns": dict(zip(cols, vals))}
                for t, vals in zip(grid.tolist(), table.tolist())]
        _emit(json.dumps({"rows": rows}, indent=2) + "\n", args.out)
    else:
        kinds = ("mf", "exact", "mc", "mc_stderr", "gap_exact", "gap_mc")
        rows = np.column_stack((grid, table.reshape(len(grid), -1)))
        _emit(_csv(["t"] + [f"{c}_{k}" for c in cols for k in kinds],
                   map(np.ndarray.tolist, rows)), args.out)
    return EXIT_OK


def _cmd_validate(args):
    diagram = _load_model(args.model, _parse_overrides(args.set))
    report = validate_diagram(diagram)
    if report.ok:
        _emit(f"ok: {diagram.name} has no defects\n", args.out)
        return EXIT_OK
    for defect in report.defects:
        print(f"defect: {defect}", file=sys.stderr)
    return EXIT_MODEL


def _cmd_list(args):
    _emit("\n".join(models.BUILTIN_NAMES) + "\n", getattr(args, "out", None))
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run, "steady": _cmd_steady, "sweep": _cmd_sweep,
    "mc": _cmd_mc, "exact": _cmd_exact, "compare": _cmd_compare,
    "validate": _cmd_validate, "list": _cmd_list,
}


def run_cli(argv=None):
    parser = _build_parser()
    # each command builds the built-ins from the shipped files as they are
    models.forget_parsed_files()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required "
                              f"({', '.join(_COMMANDS)})")
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError) as exc:
        # ValueError: an argument value the library refuses (dt <= 0, ...)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (IntegrationError, NoRoot, NotReached, StateSpaceTooLarge) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SwarmkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


def main():
    raise SystemExit(run_cli())
