"""Deterministic time evolution of compiled rate systems.

Three flavors share one fixed-step loop over the diagram's generated step
(Python floats, checks inline): classical RK4 for ordinary systems,
method of steps (the same RK4 step, grid-aligned delays, history read by
row index on the half-step grid) for delayed systems, and a synchronous
step for finite-difference systems.  Every run starts from the diagram's
initial values.
"""
from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, field

import numpy as np

from .diagram import _kernel_source, _shared, _values, rate_kernel
from .errors import (ConservationDrift, DelayMisaligned, IntegrationError,
                     NegativePopulation, NonFinite, StepGridError)
from .expr import Name, Source, unparse

CONSERVATION_BUDGET = 1e-6   # hard failure threshold, relative to N0
# negative band, relative to max(1, N0): a state below it fails the step,
# a value inside it is reported as zero
NEGATIVE_TOLERANCE = 1e-9
# the most work one engine may ask for, each count checked before the work
# it prices: bytes of one output array (a run's, a master solve's rows and
# windows, an ensemble's samples); a master solve's jump-list products plus
# rows, and entries of its products and rows' sums (~4 ns each on a 2-core
# x86-64 host); events of one Gillespie path (~80 bytes of path lists each);
# configurations of an enumerated chain
LIMITS = {"bytes": 2 ** 28, "products": 10 ** 6, "entries": 10 ** 10,
          "events": 10 ** 6, "configurations": 100_000}


def check_limits(engine, **counts):
    """IntegrationError naming ``engine`` at the first of its named counts
    that is not at most its entry of LIMITS, a NaN or infinite one too."""
    for name, count in counts.items():
        if not count <= LIMITS[name]:
            raise IntegrationError(f"{engine} needs {count} {name}, over "
                                   f"the limit of {LIMITS[name]}")


@dataclass
class Trajectory:
    """Uniform-grid time series of occupation values."""
    times: np.ndarray
    data: np.ndarray  # shape (nt, n_states + n_env)
    state_names: list
    env_names: list
    metadata: dict = field(default_factory=dict)

    def column(self, name):
        try:
            return self.data[:, self.columns.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def final(self):
        return dict(zip(self.columns, self.data[-1]))

    @property
    def columns(self):
        return self.state_names + self.env_names


# perfbench/spans.py traces the four public methods below by name
class HistoryAccessor:
    """Past rows of one trajectory, row i at ``i*dt``, read with the
    numbers of a run's fused step (``integrate._Indexed``).  ``rows`` is the
    output array, row 0 filled; ``append`` stores the next row.  A read
    snaps its time to the half-step grid and returns the evaluation row
    (the occupation row, then ``t``): the first row at or before 0,
    ``0.5*a + 0.5*b`` half a step between rows, an error beyond the newest.
    Each ``histint`` integrand keeps a running integral over the rows (the
    trapezoid rule, or a left sum if ``discrete``); a window integral is
    the difference of two reads of it."""

    def __init__(self, dt, rows, discrete=False):
        self.dt, self.rows, self.discrete = dt, rows, discrete
        self.count = 1  # rows stored so far
        # key -> (fn, integrand value per row, running integral per row)
        self._caches = {}

    def append(self, row):
        self.rows[self.count] = row
        self.count += 1

    def register_integrand(self, key, fn):
        self._caches.setdefault(key, (fn, array("d"), array("d", [0.0])))

    def _locate(self, t):
        """Row index at or below ``t``, and 1 if half a step past it."""
        return divmod(round(2 * t / self.dt), 2)

    def bindings_at(self, t):
        """The evaluation row at ``t``."""
        i, half = (0, 0) if t <= 0.0 else self._locate(t)
        if i + half >= self.count:
            raise IntegrationError(
                f"history query at t={t!r} is beyond the stored window")
        row = self.rows[i].tolist()
        if half:
            row = [0.5 * a + 0.5 * b
                   for a, b in zip(row, self.rows[i + 1].tolist())]
        row.append(t)
        return row

    def window_integral(self, key, fn, t_lo, t_hi, now):
        """Integral of ``fn(row, history)`` over [t_lo, t_hi]; ``now`` is
        the caller's evaluation row, which closes an interval that
        overhangs the newest row."""
        if key not in self._caches:
            self.register_integrand(key, fn)
        fn, vals, cum = cache = self._caches[key]
        for i in range(len(vals), self.count):
            vals.append(fn(self.rows[i].tolist() + [float(i * self.dt)],
                           self))
            if i:
                cum.append(cum[-1] + (vals[i - 1] if self.discrete else
                                      0.5 * self.dt * (vals[i - 1] + vals[i])))
        return self._cumulative(cache, t_hi, now) \
            - self._cumulative(cache, t_lo, now)

    def _cumulative(self, cache, t, now):
        """Running integral of a cached integrand from 0 to t."""
        fn, vals, cum = cache
        if t <= 0.0:
            return t * vals[0]
        i, half = self._locate(t)
        last = len(vals) - 1
        if i + half > last:
            # RK4 stage overhang past the newest row: close the interval
            # with the integrand at the caller's current state
            w = 0.25 * self.dt * (2 * (i - last) + half)
            return cum[last] + w * (vals[last] + fn(now, self))
        return cum[i] if not half else cum[i] + 0.25 * self.dt * (
            vals[i] + (0.5 * vals[i] + 0.5 * vals[i + 1]))


class _Indexed(Source):
    """Source of a run's fused step, with HistoryAccessor's numbers: a
    stage's ``row`` is locals, a delayed expression is inlined at its row
    over cells of ``m``, a flat view of the output array, and integrands
    keep values and running integrals in arrays, extended to row k in stage
    1.  A lag is L whole steps, so a read is at row ``k - L + c``; ``at`` is
    ``(row, odd, over)``: the row's source, half a step on or not, and an
    RK4 stage past row ``k`` or not.  ``stage`` is the RK4 stage written,
    1 in a synchronous step."""

    def __init__(self, names, slots, discrete):
        super().__init__(names, slots)
        self.width, self.discrete, self.stage = slots["t"], discrete, 0
        self.at, self._names, self.offsets, self.shared = \
            ("k", False, False), {}, {}, []

    def _share(self, x):
        # stages 2 and 3 have one time and read the same rows: x is bound in
        # 2 and read in 3, unless it reads a state of the row (r0, r1, ...)
        if self.stage not in (2, 3) or re.search(r"\br\d", x):
            return x
        if self.stage == 3:
            return self.shared.pop(0)
        self.shared.append(s := self._fresh("_s"))
        return f"({s} := {x})"

    def _value_at(self, at, row, e):
        saved, (self.at, self.row) = (self.at, self.row), (at, row)
        x, (self.at, self.row) = self.value(e), saved
        return x

    def _cells(self, a, odd, t):
        """Row ``a``, or half a step on, at time ``t``: a source per slot,
        off the row's first cell (a step's ``offsets``, once per step)."""
        o = self.offsets.setdefault(a, f"_o{len(self.offsets)}")
        n, m = self.width, [f"m[{o} + {j}]" if j else f"m[{o}]"
                            for j in range(2 * self.width)]
        return [f"(0.5 * {m[j]} + 0.5 * {m[j + n]})" if odd else m[j]
                for j in range(n)] + [t]

    def _past(self, e, x, v, w, t):
        # at or before 0, a read is row 0, a running integral t * vals[0]
        (a, odd, over), arg = self.at, e.args[0]
        b, q = f"{a} - {self._bound(f'round({w} / dt)')}", self._fresh()
        if e.func == "delay":
            pre, post = (self._value_at((b, odd, False), row, arg) for row in (
                [f"_r0[{j}]" for j in range(self.width)] + [q],
                self._cells(b, odd, q)))
            return self._share(
                f"({pre} if ({q} := {t} - {v}) <= 0.0 else {post})")
        if (key := unparse(arg)) not in self._names:  # its arrays, once
            self._names[key] = n = self._fresh("_n")
            self.lines.append(f"{n}v, {n}c = _arr('d'), _arr('d')")
        n = self._names[key]
        hi = f"{n}c[k] + {'_qw' if odd else 'c'} * ({n}v[k] + {x})" \
            if over else self._running(n, a, odd)
        lo = self._share(f"({q} * {n}v[0] if ({q} := {t} - {v}) <= 0.0 "
                         f"else {self._running(n, b, odd)})")
        past = f"({t} * {n}v[0] if {t} <= 0.0 else {hi}) - {lo}"
        return f"({past})" if self.stage > 1 else \
            f"({past} if len({n}v) > k or {self._extend(n, arg)} else 0.0)"

    def _running(self, n, a, odd):
        """Running integral of integrand ``n`` at row ``a`` or half on."""
        return (f"{n}c[(_i := {a})] + _qw * ({n}v[_i] + (0.5 * {n}v[_i] "
                f"+ 0.5 * {n}v[_i + 1]))" if odd else f"{n}c[{a}]")

    def _extend(self, n, arg):
        """Source that appends integrand ``n`` at row k and its running
        integral to their arrays, then is true."""
        x = self._value_at(("k", False, False),
                           self._cells("k", False, "float(k * dt)"), arg)
        add = f"{n}v[k - 1]" if self.discrete \
            else f"c * ({n}v[k - 1] + {n}v[k])"
        return (f"({n}v.append({x}) or {n}c.append({n}c[k - 1] + {add} "
                "if k else 0.0) or True)")


def _generate_step(diagram, through=False):
    """Generate ``make(p, m, dt, h, _f, floor)`` once per structure, which
    gives a run at the values ``p`` (``_values``) its ``step(k, y)``: the
    list ``y`` at ``t = k * dt`` one step on, over Python floats, as the
    synchronous ``y + f(float(t))`` (``diagram.discrete``) or as RK4 unrolled
    per component, in the operations and order of a numpy RK4 over ``rhs``
    (``0.5 * dt``, ``y + c*k``, ``k1 + 2.0*k2 + 2.0*k3 + k4`` times ``dt /
    6.0``).  Each stage sets its row's locals and runs the flow lines and
    sums with ``_Indexed`` reads (or, ``through``, calls ``_f(t, y, h)``, an
    ``rhs`` swapped into a RateSystem, with the accessor ``h``), so every
    value is the one numpy and ``rhs`` give.  At ``t = (k + 1) * dt`` it
    raises NonFinite, ConservationDrift (the state total, summed left to
    right, off a positive N0 by over ``CONSERVATION_BUDGET * N0``) or
    NegativePopulation (below ``floor``), in that order, then stores the
    row in ``m``, or ``through``, appends it to ``h``."""
    names, slots, exprs, sums = _kernel_source(diagram)
    src = _Indexed(names, slots, diagram.discrete)
    ys = [f"y{i}" for i in range(len(sums))]
    lines = ["def step(k, y):", f"    [{', '.join(ys)}] = y",
             "    t = float(k * dt)"]
    # per stage: each component's offset from y, the time, its history's at
    stages, last = [("", "t", ("k", False, False))], " + k1_{}"
    if not diagram.discrete:
        lines[2] = "    t = k * dt; th = t + c; td = t + dt"
        stages += [(" + c * k1_{}", "th", ("k", True, True)),
                   (" + c * k2_{}", "th", ("k", True, True)),
                   (" + dt * k3_{}", "td", ("k + 1", False, True))]
        last = " + c6 * (k1_{0} + 2.0 * k2_{0} + 2.0 * k3_{0} + k4_{0})"
    for s, (offset, t, at) in enumerate(stages, 1):
        row = [f"r{i}" if offset else y for i, y in enumerate(ys)] + [t]
        ks = [f"k{s}_{i}" for i in range(len(ys))]
        lines += [f"    r{i} = {y}{offset.format(i)}"
                  for i, y in enumerate(ys) if offset]
        if through:
            lines.append(f"    [{', '.join(ks)}] = _f({t}, "
                         f"_array([{', '.join(row[:-1])}]), h).tolist()")
        else:
            src.at, src.row, src.stage = at, row, s
            lines += [*(f"    {n} = {src.value(e)}" for n, e in exprs),
                      *(f"    {k} = {d}" for k, d in zip(ks, sums))]
    lines[3:3] = (f"    {o} = ({a}) * {len(ys)}"  # each row's first cell
                  for a, o in src.offsets.items())
    lines += [f"    {y} = {y}{last.format(i)}" for i, y in enumerate(ys)]
    finite = " and ".join(f"_isfinite({y})" for y in ys) or "True"
    lines += ["    t = (k + 1) * dt", f"    if not ({finite}):",
              "        raise _NonFinite(t)"]
    states, n0 = ys[:len(diagram.states)], src.value(Name("N0"))
    lines += [f"    d = abs({' + '.join(states)} - {n0})",
              "    if d > _cap:", "        raise _Drift(t, d, _cap)"]
    for y, name in zip(states, diagram.state_names):
        lines += [f"    if {y} < _floor:",
                  f"        raise _Negative(t, {name!r}, {y})"]
    if through:
        lines.append(f"    h.append([{', '.join(ys)}])")
    else:
        lines += [f"    o = (k + 1) * {len(ys)}",
                  *(f"    m[o + {i}] = {y}" for i, y in enumerate(ys))]
    cap = f"{src._literal(CONSERVATION_BUDGET)} * {n0}"
    src.lines += ["c = 0.5 * dt", "c6 = dt / 6.0",
                  f"_r0 = m[:{len(ys)}].tolist()", "_qw = 0.25 * dt",
                  f"_cap = {cap} if {n0} > 0 else _inf",
                  *lines, f"    return [{', '.join(ys)}]"]
    src.env.update(_isfinite=math.isfinite, _NonFinite=NonFinite,
                   _Drift=ConservationDrift, _Negative=NegativePopulation,
                   _arr=array, _array=np.array, _inf=math.inf)
    return src.compile("step", "_p, m, dt, h, _f, _floor")


def _off_grid(span, dt):
    ratio = span / dt
    return abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio)


def _check_t_end(t_end):
    """Refuse a ``t_end`` that is not finite or is negative."""
    if not math.isfinite(t_end):
        raise StepGridError("t_end must be finite")
    if t_end < 0:
        raise StepGridError("t_end must be non-negative")


def _step_count(t_end, dt, delays=()):
    """Number of steps ``dt`` from 0 to ``t_end``.  Both must be finite;
    ``t_end`` and every positive lag or window in ``delays`` must be a
    whole number of steps (to 1e-9 relative); a lag is checked first."""
    if not math.isfinite(dt):
        raise StepGridError("dt must be finite")
    _check_t_end(t_end)
    if dt <= 0:
        raise StepGridError("dt must be positive")
    for delay in delays:
        if delay > 0 and (_off_grid(delay, dt) or round(delay / dt) == 0):
            raise DelayMisaligned(delay, float(dt))
    if _off_grid(t_end, dt):
        raise StepGridError(
            f"t_end={t_end!r} is not a whole number of steps dt={dt!r}")
    return int(round(t_end / dt))


# flavor -> its entry point, named when a run is given the wrong flavor
_FLAVORS = {"ode": "integrate", "dde": "integrate_delayed",
            "difference": "iterate_difference"}


def _march(system, flavor, t_end, dt):
    """Run ``system`` from the diagram's initial values to ``t_end`` in
    fixed steps ``dt`` of the generated step (made once per structure and
    given the diagram's values each run), which checks and stores each
    row.  An output array over the bytes of LIMITS is refused before it is
    made.  Values inside the tolerated negative band are reported as zero;
    a difference run, which takes the synchronous step by the integer 1 (a
    failure names the step), has no band: its states may not go below 0."""
    if system.flavor != flavor:
        article = "an" if flavor == "ode" else "a"
        raise IntegrationError(f"{_FLAVORS[flavor]}() needs {article} "
                               f"{flavor} system, got {system.flavor}")
    d = system.diagram
    nsteps = _step_count(t_end, dt, system.delay_values)
    y = d.initial_vector()
    check_limits(f"{flavor} run", bytes=(nsteps + 1) * len(y) * 8)
    data = np.empty((nsteps + 1, len(y)))
    data[0] = y
    floor = 0.0 if d.discrete else -NEGATIVE_TOLERANCE * max(1.0, d.n0)
    # an rhs swapped into the system (a wrapper, say) is called, not fused,
    # and handed the run's history in every flavor
    fused = system.rhs is rate_kernel(d)[0]
    make = _shared(d, "_step" if fused else "_rhs_step",
                   lambda d: _generate_step(d, not fused))
    h = None if fused else HistoryAccessor(dt, data, discrete=d.discrete)
    step = make(_values(d), memoryview(data.reshape(-1)), dt, h, system.rhs,
                floor)
    y = y.tolist()
    for k in range(nsteps):
        y = step(k, y)
    data[(data < 0) & (data >= floor)] = 0.0
    times = np.arange(nsteps + 1, dtype=float) * dt
    return Trajectory(times, data, d.state_names, d.env_names,
                      {"model": d.name, "params": dict(d.params),
                       "dt": float(dt), "flavor": flavor})


def integrate(system, *, t_end=10.0, dt=0.01):
    """Fixed-step classical RK4 for an ODE-flavored system.  ``t_end``
    must be a whole number of steps ``dt``."""
    return _march(system, "ode", t_end, dt)


def integrate_delayed(system, *, t_end=10.0, dt=0.01):
    """Method of steps for a delayed system: RK4 core, history rows read by
    index (half a step on: the mean of two rows), trapezoid history
    integrals, constant pre-history.  ``t_end`` and every lag and window
    must be whole numbers of steps ``dt``."""
    return _march(system, "dde", t_end, dt)


def iterate_difference(system, *, k_steps=100):
    """Synchronous stepper: all states advance from step k to k+1 at once;
    delayed terms read stored whole-step values."""
    if k_steps < 0:
        raise StepGridError("k_steps must be non-negative")
    return _march(system, "difference", k_steps, 1)
