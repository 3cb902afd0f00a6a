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
from array import array
from dataclasses import dataclass, field

import numpy as np

from .diagram import _generate_step, _shared, _values, rate_kernel
from .errors import DelayMisaligned, IntegrationError, StepGridError

CONSERVATION_BUDGET = 1e-6   # hard failure threshold, relative to N0
# negative band, relative to max(1, N0): a state below it fails the step,
# a value inside it is reported as zero
NEGATIVE_TOLERANCE = 1e-9


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
    numbers of a run's fused step (``diagram._Indexed``).  ``rows`` is the
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


# flavor -> (entry point, history, negative tolerance): all that differs
# between the runs.  The history is None or its ``discrete`` flag.  A
# difference run takes the synchronous step by the integer 1, so a failure
# names the step, and its states may not go below zero at all.
_FLAVORS = {
    "ode": ("integrate", None, NEGATIVE_TOLERANCE),
    "dde": ("integrate_delayed", False, NEGATIVE_TOLERANCE),
    "difference": ("iterate_difference", True, 0.0),
}


def _march(system, flavor, t_end, dt):
    """Run ``system`` from the diagram's initial values to ``t_end`` in
    fixed steps ``dt`` of the generated step (made once per structure and
    given the diagram's values each run), which checks and stores each
    row.  Values inside the tolerated negative band are reported as zero."""
    caller, history, tolerance = _FLAVORS[flavor]
    if system.flavor != flavor:
        article = "an" if flavor == "ode" else "a"
        raise IntegrationError(
            f"{caller}() needs {article} {flavor} system, got {system.flavor}")
    nsteps = _step_count(t_end, dt, system.delay_values)
    y = system.diagram.initial_vector()
    data = np.empty((nsteps + 1, len(y)))
    data[0] = y
    floor = -tolerance * max(1.0, system.diagram.n0)
    # an rhs swapped into the system (a wrapper, say) is called, not fused
    fused = system.rhs is rate_kernel(system.diagram)[0]
    make = _shared(system.diagram, "_step" if fused else "_rhs_step", lambda d:
                   _generate_step(d, history, CONSERVATION_BUDGET, not fused))
    h = None if fused or history is None \
        else HistoryAccessor(dt, data, discrete=history)
    step = make(_values(system.diagram), memoryview(data.reshape(-1)), dt, h,
                system.rhs, floor)
    y = y.tolist()
    for k in range(nsteps):
        y = step(k, y)
    data[(data < 0) & (data >= floor)] = 0.0
    times = np.arange(nsteps + 1, dtype=float) * dt
    d = system.diagram
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
