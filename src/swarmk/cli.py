"""Command-line front end: run, analyze and serialize models.

Exit codes: 0 success, 1 usage error, 2 model error (parse/validation),
3 numeric failure (integration, root finding, state-space limits).
"""
from __future__ import annotations

import argparse
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
from .integrate import (_step_count, integrate, integrate_delayed,  # noqa: F401
                        iterate_difference)
from .parser import parse_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_NUMERIC = 3


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
    if os.path.exists(name):
        return parse_file(name).with_params(**overrides)
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
    if v is None:
        return ""
    return repr(float(v))


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header, rows):
    """CSV text: the header line, then one line of numbers per row (None
    becomes an empty cell)."""
    lines = [",".join(header)]
    lines += [",".join(_fmt_float(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit_traj(traj, args):
    if args.format == "csv":
        _emit(_csv(["t"] + traj.columns,
                   np.column_stack((traj.times, traj.data))), args.out)
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

    def common(sp, dt=True):
        sp.add_argument("--model", help="built-in name or .mas file path")
        sp.add_argument("--set", action="append", metavar="NAME=VALUE",
                        help="override a model parameter (repeatable)")
        sp.add_argument("--out", help="write output to this file")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if dt:
            sp.add_argument("--dt", type=float, default=0.01)
            sp.add_argument("--t-end", type=float, default=10.0)
            sp.add_argument("--steps", type=int, default=None,
                            help="step count for difference models")

    sp = sub.add_parser("run", help="integrate a model, emit the trajectory")
    common(sp)

    sp = sub.add_parser("steady", help="steady searching fraction of a "
                                       "stick-pulling model")
    common(sp, dt=False)

    sp = sub.add_parser("sweep", help="observables over a parameter grid")
    common(sp)
    sp.add_argument("--param", required=False)
    sp.add_argument("--from", dest="lo", type=float)
    sp.add_argument("--to", dest="hi", type=float)
    sp.add_argument("--sweep-steps", dest="npts", type=int, default=20)
    sp.add_argument("--observables", default="nstar,R")
    sp.add_argument("--counter")
    sp.add_argument("--mode", choices=("deplete", "reach"), default="deplete")
    sp.add_argument("--threshold", type=float)

    sp = sub.add_parser("mc", help="Gillespie ensemble statistics")
    common(sp)
    sp.add_argument("--runs", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid-points", type=int, default=50)

    sp = sub.add_parser("exact", help="master-equation expectations")
    common(sp)

    sp = sub.add_parser("compare", help="mean-field vs exact vs mc")
    common(sp)
    sp.add_argument("--runs", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid-points", type=int, default=50)

    sp = sub.add_parser("validate", help="report diagram defects")
    common(sp, dt=False)

    sub.add_parser("list", help="list built-in models")
    return p


def _cmd_run(args):
    diagram = _load_model(args.model, _parse_overrides(args.set))
    _emit_traj(analysis._run_to_trajectory(diagram, args.t_end, args.dt,
                                           args.steps), args)
    return EXIT_OK


def _cmd_steady(args):
    diagram = _load_model(args.model, _parse_overrides(args.set))
    res = analysis._steady_result(diagram)
    p = diagram.params
    r = analysis.collaboration_rate(res.n, p["beta"], p["rg"])
    if args.format == "json":
        _emit(json.dumps({"n": res.n, "branch": res.branch,
                          "residual": res.residual, "R": r}, indent=2) + "\n",
              args.out)
    else:
        _emit(f"n={_fmt_float(res.n)}\nbranch={res.branch}\n"
              f"residual={_fmt_float(res.residual)}\nR={_fmt_float(r)}\n",
              args.out)
    return EXIT_OK


def _cmd_sweep(args):
    if args.param is None or args.lo is None or args.hi is None:
        raise _UsageError("sweep requires --param, --from and --to")
    if args.npts < 1:
        raise _UsageError("--sweep-steps must be >= 1")
    overrides = _parse_overrides(args.set)
    if args.model in models.BUILTIN_NAMES:
        def model(value):
            return models.build_builtin(args.model,
                                        **{**overrides, args.param: value})
    else:
        model = _load_model(args.model, overrides)
    grid = np.linspace(args.lo, args.hi, args.npts)
    observables = tuple(s.strip() for s in args.observables.split(",") if s.strip())
    table = analysis.sweep(model, args.param, grid, observables,
                           t_end=args.t_end, dt=args.dt, k_steps=args.steps,
                           counter=args.counter, mode=args.mode,
                           threshold=args.threshold)
    for v, err in zip(table.grid, table.errors):
        if err:
            print(f"row {args.param}={_fmt_float(v)}: {err}", file=sys.stderr)
    if args.format == "csv":
        _emit(_csv(["param", *table.observables],
                   ((v, *row) for v, row in zip(table.grid, table.rows))),
              args.out)
    else:
        _emit(_sweep_json(table), args.out)
    return EXIT_OK


def _grid(args):
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
        _emit(_csv(header, np.column_stack((stats.times, pairs))), args.out)
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
    # the chain refuses first what it cannot represent: any flavor but ode
    _, exact = stochastic.master_exact(diagram, t_end=args.t_end, dt=args.dt,
                                       dt_out=args.dt)
    mf = integrate(compile_rhs(diagram), t_end=args.t_end, dt=args.dt)
    grid = _grid(args)
    stats = stochastic.ensemble(
        lambda seed: stochastic.ssa_run(diagram, t_end=args.t_end, seed=seed),
        args.runs, args.seed, grid)
    cols = diagram.state_names + diagram.env_names
    header = ["t"]
    for c in cols:
        header += [f"{c}_mf", f"{c}_exact", f"{c}_mc", f"{c}_mc_stderr",
                   f"{c}_gap_exact", f"{c}_gap_mc"]
    csv_rows, rows = [], []
    for i, t in enumerate(grid):
        csv_rows.append([t])
        row = {}
        for j, c in enumerate(cols):
            v_mf = float(np.interp(t, mf.times, mf.column(c)))
            v_ex = float(np.interp(t, exact.times, exact.column(c)))
            v_mc = float(stats.mean[i, j])
            v_se = float(stats.stderr[i, j])
            vals = [v_mf, v_ex, v_mc, v_se, v_ex - v_mf, v_mc - v_ex]
            csv_rows[-1] += vals
            row[c] = vals
        rows.append({"t": float(t), "columns": row})
    if args.format == "json":
        _emit(json.dumps({"rows": rows}, indent=2) + "\n", args.out)
    else:
        _emit(_csv(header, csv_rows), args.out)
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
