"""Steady states, optima, critical ratios, sweeps and scaling fits.

Closed forms where they exist (quadratic steady state, optimal release
rate, critical robots-to-sticks ratio), bracketed root finding for the
delayed steady state, and trajectory post-processing (completion times,
scaling exponents, steady-state detection).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import models
from .diagram import check_param
from .errors import IntegrationError, ModelError, NotReached, \
    StepGridError, SwarmkError
from .integrate import integrate, integrate_delayed, iterate_difference

# the sweep observables read off the analytic steady state, not a run
STEADY_NAMES = ("nstar", "R", "residual")


@dataclass(frozen=True)
class SteadyStateResult:
    """A steady-state searching fraction with its defining residual."""
    n: float
    branch: str  # 'unique' | 'boundary'
    residual: float


@dataclass
class SweepTable:
    """One observable row per grid value of a swept parameter."""
    param: str
    grid: tuple
    observables: tuple          # column names
    rows: tuple                 # tuple per grid value (None entries on failure)
    errors: tuple = ()          # per-row error message or None
    provenance: dict = field(default_factory=dict)

    def column(self, name):
        j = self.observables.index(name)
        return np.array([math.nan if r is None or r[j] is None else r[j]
                         for r in self.rows])


# the intervals the shipped stick-pulling files declare for their
# parameters (``StateDiagram.domains``), and the searching fraction n
DOMAINS = {"beta": (0.0, math.inf, "()"), "gamma": (0.0, math.inf, "[)"),
           "tau": (0.0, math.inf, "[)"), "rg": (0.0, 1.0, "(]"),
           "alpha": (0.0, math.inf, "()"), "n0": (1.0, math.inf, "[)"),
           "m0": (1.0, math.inf, "[)"), "n": (0.0, 1.0, "[]")}


def check_args(**args):
    """ValueError unless each argument is finite and inside its DOMAINS
    interval."""
    for name, v in args.items():
        check_param(name, v, DOMAINS[name])


def beta_critical(r_g):
    """Critical robots-to-sticks ratio 2/(1+R_G)."""
    check_args(rg=r_g)
    return 2.0 / (1.0 + r_g)


def collaboration_rate(n, beta, r_g):
    """Steady-state rate of successful two-robot extractions."""
    check_args(n=n, beta=beta, rg=r_g)
    return beta * (r_g * beta) * n * (1.0 - n)


def steady_state_simple(beta, gamma, r_g):
    """Steady searching fraction of the simplified (release-rate) model.

    Root in (0, 1] of (beta+bt) n^2 + (1+gamma-beta-bt) n - gamma = 0
    with bt = r_g*beta; for gamma=0 the non-negative physical branch.
    """
    check_args(beta=beta, gamma=gamma, rg=r_g)
    a = beta + r_g * beta
    if gamma == 0.0:
        n = max(0.0, (a - 1.0) / a)
        branch = "boundary" if n == 0.0 else "unique"
    else:
        # sign-robust positive quadratic root: avoids cancellation both
        # for large gamma (n -> 1) and for small gamma with a > 1
        b = 1.0 + gamma - a
        disc = math.sqrt(b * b + 4.0 * a * gamma)
        if not math.isfinite(disc):  # b * b overflows: the scaled form
            disc = math.hypot(b, 2.0 * math.sqrt(a * gamma))
        if b > 0.0:  # halved terms: b + disc overflows past gamma ~ 9e307
            n = gamma / (0.5 * b + 0.5 * disc)
        else:
            n = (disc - b) / (2.0 * a)
        branch = "unique"
    residual = abs(a * n * n + (1.0 + gamma - a) * n - gamma)
    # normalize the residual against the dominant coefficient so huge
    # gamma does not inflate round-off
    residual /= max(1.0, abs(gamma))
    return SteadyStateResult(min(max(n, 0.0), 1.0), branch, residual)


def steady_state_delayed(beta, tau, r_g):
    """Steady searching fraction of the gripping-timer model: the root in
    [0, 1] of f(n) = b(1-n) + (1 - beta(1-n)) expm1(-b*tau*n), with
    b = r_g*beta.  This is -1 + (beta+b)(1-n) + (1 - beta(1-n)) e, with
    e = exp(-b*tau*n), written so that nothing cancels as b -> 0.

    Newton runs on g = f/b = (1-n) + (1 - beta(1-n)) expm1(-b*tau*n)/b,
    so g(0) = 1 > 0 >= g(1) brackets the root even where b is subnormal
    and keeps only a few bits: there expm1(w)/b is -tau*n expm1(w)/w, with
    w = -b*tau*n formed from r_g.  Steps on the exact derivative
    g'(n) = beta*expm1(w)/b - 1 - tau*(1-beta(1-n))*e start at n = 0.
    Each g(n) narrows the sign bracket; a step that moves n (or whose g'
    overflowed or is 0) but does not land strictly inside it is a
    bisection instead, and the loop stops at the first next point that is
    not strictly inside it (a step that no longer moves n, or a bracket of
    adjacent floats).  The residual is |f| = b|g|.
    """
    check_args(beta=beta, tau=tau, rg=r_g)
    if tau <= 2.0 ** -54:  # 1 - n <= tau at the root: it rounds to 1
        return SteadyStateResult(1.0, "boundary", 0.0)
    b = r_g * beta
    subnormal = b < sys.float_info.min
    lo, hi, n = 0.0, 1.0, 0.0
    while True:
        if subnormal:  # |w| = b*tau*n < 4: r_g <= 1 first, nothing overflows
            w = -(r_g * (tau * n)) * beta
            mb = -tau * n * (math.expm1(w) / w if w else 1.0)
        else:
            w = -b * (tau * n)  # b * tau may overflow: not inf * 0
            mb = math.expm1(w) / b
        u = 1.0 - beta * (1.0 - n)
        g = (1.0 - n) + u * mb
        if g == 0.0:
            break
        lo, hi = (n, hi) if g > 0.0 else (lo, n)
        dg = beta * mb - 1.0 - tau * (u * math.exp(w))
        # a step that stays at n has converged, unless dg overflowed; a
        # flat g (dg = 0) gives no step
        x = n - g / dg if dg else math.nan
        if (x != n or math.isinf(dg)) and not lo < x < hi:
            x = 0.5 * (lo + hi)
        if not lo < x < hi:
            break
        n = x
    return SteadyStateResult(n, "unique", abs(b * g))


def gamma_opt(beta, r_g):
    """Optimal release rate 1 - (beta+bt)/2, or None past the critical ratio."""
    check_args(beta=beta, rg=r_g)
    val = 1.0 - beta * (1.0 + r_g) / 2.0
    if val < -1e-12:
        return None
    return max(val, 0.0)


def tau_opt(beta, r_g):
    """Optimal gripping time (2/bt) ln[(1-beta/2)/(1-(beta+bt)/2)], or None
    past the critical ratio (where the log argument stops being positive)."""
    check_args(beta=beta, rg=r_g)
    bt = r_g * beta
    if 1.0 - (beta + bt) / 2.0 <= 0.0:
        return None
    # -ln(1 - x) / x -> 1 as x -> 0: nothing divides by bt, which underflows
    x = bt / (2.0 - beta)
    return (-math.log1p(-x) / x if x else 1.0) * 2.0 / (2.0 - beta)


def completion_time(traj, counter, mode, threshold):
    """Time at which an environment counter crosses a threshold.

    ``deplete`` mode: first time the counter falls to ``threshold`` or
    below.  ``reach`` mode: first time it rises to ``threshold`` or above.
    Linear interpolation between the bracketing samples.
    """
    col = np.asarray(traj.column(counter), dtype=float)
    times = np.asarray(traj.times, dtype=float)
    if mode == "deplete":
        hit = col <= threshold
    elif mode == "reach":
        hit = col >= threshold
    else:
        raise ValueError(f"unknown mode {mode!r}")
    idx = np.flatnonzero(hit)
    if idx.size == 0:
        raise NotReached(float(col[-1]))
    i = int(idx[0])
    if i == 0:
        return float(times[0])
    y0, y1 = col[i - 1], col[i]
    frac = (threshold - y0) / (y1 - y0)
    return float(times[i - 1] + frac * (times[i] - times[i - 1]))


def scaling_exponent(points):
    """Least-squares slope of log T against log N, with its standard error."""
    pts = [(float(n), float(t)) for n, t in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if any(n <= 0 or t <= 0 for n, t in pts):
        raise ValueError("all points must be positive")
    x = np.log([n for n, _ in pts])
    y = np.log([t for _, t in pts])
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate abscissae: all N equal")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(pts) - 2
    s2 = float(np.sum(resid ** 2)) / dof if dof else 0.0
    stderr = math.sqrt(s2 / sxx)
    return slope, stderr


def efficiency_per_robot(t_complete, n0, m0):
    """Delivered tasks per robot per unit time, M0/(N0*T)."""
    if not t_complete > 0:
        raise ValueError("completion time must be positive")
    return m0 / (n0 * t_complete)


def steady_state_of_trajectory(traj, name):
    """Mean of a column over its last k = max(2, round(rows / 10)) rows.

    The mean must move less than 1e-5 from that of the k rows before,
    otherwise the trajectory has not settled; fewer than 2k rows cannot
    show that.
    """
    col = np.asarray(traj.column(name), dtype=float)
    nt = len(col)
    k = max(2, round(nt * 0.1))
    if nt < 2 * k:
        raise IntegrationError(f"{nt} rows cannot show column {name!r} "
                               f"settled: need {2 * k}; integrate longer")
    last = float(col[nt - k:].mean())
    prev = float(col[nt - 2 * k:nt - k].mean())
    if abs(last - prev) >= 1e-5:
        raise IntegrationError(
            f"column {name!r} still moving ({abs(last - prev):.3e} between "
            "windows); integrate longer")
    return last


def _steady(diagram):
    """The analytic steady state of a stick-pulling diagram, the table that
    ``steady`` prints and ``sweep`` reads: ``nstar``, ``R`` (the
    collaboration rate at ``nstar``), ``residual`` and ``branch``.  The
    release-rate model is solved if the diagram has ``gamma``, else the
    gripping-timer model if it has ``tau``.  Its states, env counters and
    transitions must be those of that model's shipped file; parameters may
    differ (a derived one is added, ...)."""
    p = diagram.params
    key, form = ("gamma", "simple") if "gamma" in p else ("tau", "delayed")
    # a built-in shares the shipped file's transitions: one identity test
    shipped = models._shipped_diagram(f"stickpull-{form}")
    same = (diagram.transitions, diagram.states, diagram.env_vars) == \
        (shipped.transitions, shipped.states, shipped.env_vars)
    if key not in p or not same:
        raise ModelError(f"no closed-form steady state for {diagram.name}: "
                         f"its states, counters or transitions differ from "
                         f"stickpull-{form}")
    # looked up per call, where perfbench traces the solvers
    res = globals()[f"steady_state_{form}"](p["beta"], p[key], p["rg"])
    return {"nstar": res.n, "R": collaboration_rate(res.n, p["beta"], p["rg"]),
            "residual": res.residual, "branch": res.branch}


def _run_to_trajectory(diagram, t_end, dt):
    """Run the diagram to ``t_end`` in steps ``dt``; a difference diagram
    takes ``t_end`` whole steps (and refuses a ``t_end`` between two)."""
    from .diagram import compile_rhs

    system = compile_rhs(diagram)
    if system.flavor == "ode":
        return integrate(system, t_end=t_end, dt=dt)
    if system.flavor == "dde":
        return integrate_delayed(system, t_end=t_end, dt=dt)
    return iterate_difference(system, k_steps=t_end)


def sweep(model, param, grid, observables=("nstar", "R"), *, t_end=100.0,
          dt=0.01, counter=None, mode="deplete", threshold=None):
    """Evaluate observables over a parameter grid.

    Each row sets the swept parameter of the StateDiagram ``model`` with
    ``with_params``.  ``nstar``, ``R`` and ``residual`` read the analytic
    steady state of the stick-pulling models (``_steady``); the others read
    one run of the model to ``t_end`` (``_run_to_trajectory``): ``T``
    interpolates the crossing time of ``counter`` (``deplete``/``reach`` at
    ``threshold``), ``steady:<col>`` averages a settled column and
    ``final:<col>`` reads its last value.  Before any row, each observable
    is decided once, into its reader: a ValueError refuses any other
    observable, a column or counter that is not a state or env counter, and
    ``T`` without a counter and a threshold or with another mode; then a
    ModelError refuses a ``param`` that is not a parameter of ``model``.  A
    failed row keeps its error message; a StepGridError (``t_end`` off the
    ``dt`` grid, ...) fails the sweep at once.
    """
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    diffs = np.diff(grid)
    if len(grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("grid must be strictly monotone")
    observables = tuple(observables)
    # every row reads the same columns: refuse a bad one before any row
    columns = (*model.state_names, *model.env_names)
    analytic, readers = False, {}  # trajectory observable -> its reader
    for o in observables:
        kind, colon, name = o.partition(":")
        if o == "T":
            if counter is None or threshold is None:
                raise ValueError("observable T needs a counter and a threshold")
            if mode not in ("deplete", "reach"):
                raise ValueError(f"unknown mode {mode!r}")
            name = counter
            # completion_time is looked up per row, where perfbench traces it
            readers[o] = lambda traj: completion_time(traj, counter, mode,
                                                      threshold)
        elif colon and kind == "steady":
            readers[o] = lambda traj, c=name: \
                steady_state_of_trajectory(traj, c)
        elif colon and kind == "final":
            readers[o] = lambda traj, c=name: traj.final()[c]
        elif o in STEADY_NAMES:
            analytic = True
            continue
        else:
            raise ValueError(f"unknown observable {o!r}")
        if name not in columns:
            raise ValueError(f"{o} reads {name!r}, not a state or counter")
    if param not in model.params:
        raise ModelError(f"unknown parameter(s): {param}")

    provenance = {"model": model.name, "params": dict(model.params),
                  "observables": list(observables)}

    rows, errors = [], []
    for value in grid:
        try:
            d = model.with_params(**{param: value})
            got = _steady(d) if analytic else {}
            if readers:
                traj = _run_to_trajectory(d, t_end, dt)
                got.update((o, read(traj)) for o, read in readers.items())
            rows.append(tuple(got[o] for o in observables))
            errors.append(None)
        except StepGridError:
            raise  # every integrated row would fail alike
        # failed rows are data; programming errors still propagate
        except (SwarmkError, ValueError, KeyError, ArithmeticError) as exc:
            rows.append(tuple(None for _ in observables))
            errors.append(f"{type(exc).__name__}: {exc}")
    return SweepTable(param=param, grid=grid, observables=observables,
                      rows=tuple(rows), errors=tuple(errors),
                      provenance=provenance)
