"""Deterministic time evolution of compiled rate systems.

Three flavors share one fixed-step loop: classical RK4 for ordinary
systems, method of steps (the same RK4 step, stored history, linear
interpolation, grid-aligned delays) for delayed systems, and a
synchronous step for finite-difference systems.  Every run starts from
the diagram's initial values.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConservationDrift, DelayMisaligned, IntegrationError,
                     NegativePopulation, NonFinite, StepGridError)

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
    """Past rows of one trajectory on its step grid: row i is the state at
    ``t0 + i*dt``.

    ``rows`` is the integrator's preallocated output array, row 0 filled;
    ``append`` stores the next row in it, so each step is kept once.  A
    read returns the evaluation row of ``diagram.transition_table`` (the
    occupation row, then ``t``).  Before ``t0`` it is the first row
    (constant pre-history), between rows it interpolates linearly, and
    beyond the newest row it is an error.  Each ``histint`` integrand keeps
    a running integral over the rows (the trapezoid rule, or in
    ``discrete`` mode a left sum over whole steps), and a window integral
    is the difference of two reads of it.
    """

    def __init__(self, t0, dt, rows, discrete=False):
        self.t0 = t0
        self.dt = dt
        self.discrete = discrete
        self.rows = rows
        self.count = 1  # rows stored so far
        # key -> (fn, integrand value per row, running integral per row)
        self._caches = {}

    def append(self, row):
        self.rows[self.count] = row
        self.count += 1

    def register_integrand(self, key, fn):
        self._caches.setdefault(key, (fn, array("d"), array("d", [0.0])))

    def _locate(self, t):
        """Row index at or below ``t`` and the fraction of a step past it."""
        x = (t - self.t0) / self.dt
        i = int(math.floor(x + 1e-9))
        return i, x - i

    def bindings_at(self, t):
        """The evaluation row at ``t``."""
        if t <= self.t0:
            row = self.rows[0]
        else:
            i, frac = self._locate(t)
            if i >= self.count:
                raise IntegrationError(
                    f"history query at t={t!r} is beyond the stored window")
            if frac <= 1e-9 or i + 1 >= self.count:
                row = self.rows[i]
            else:
                row = (1.0 - frac) * self.rows[i] + frac * self.rows[i + 1]
        return row.tolist() + [t]

    def window_integral(self, key, fn, t_lo, t_hi, now):
        """Integral of ``fn(row, history)`` over [t_lo, t_hi]; ``now`` is
        the caller's evaluation row, which closes an interval that
        overhangs the newest row."""
        if key not in self._caches:
            self.register_integrand(key, fn)
        cache = self._caches[key]
        fn, vals, cum = cache
        for i in range(len(vals), self.count):
            t = self.t0 + i * self.dt
            vals.append(fn(self.rows[i].tolist() + [t], self))
            if i == 0:
                continue
            if self.discrete:
                cum.append(cum[-1] + vals[i - 1])
            else:
                h = t - (self.t0 + (i - 1) * self.dt)
                cum.append(cum[-1] + 0.5 * h * (vals[i - 1] + vals[i]))
        return self._cumulative(cache, t_hi, now) \
            - self._cumulative(cache, t_lo, now)

    def _cumulative(self, cache, t, now):
        """Running integral of a cached integrand from t0 to t."""
        fn, vals, cum = cache
        if t <= self.t0:
            return (t - self.t0) * vals[0]
        i, frac = self._locate(t)
        last = len(vals) - 1
        if frac <= 1e-9 and i <= last:
            return cum[i]
        if i >= last:
            # RK4 stage overhang past the newest row: close the interval
            # with the integrand at the caller's current state
            f_now = fn(now, self)
            h = t - (self.t0 + last * self.dt)
            return cum[last] + 0.5 * h * (vals[last] + f_now)
        f_mid = (1.0 - frac) * vals[i] + frac * vals[i + 1]
        h = t - (self.t0 + i * self.dt)
        return cum[i] + 0.5 * h * (vals[i] + f_mid)


def _check_step(t, y, state_names, n0, floor):
    """The checks after every step: finite values, the state total within
    CONSERVATION_BUDGET of N0, and no state count below ``floor``."""
    if not np.all(np.isfinite(y)):
        raise NonFinite(t)
    states = y[:len(state_names)]
    if n0 > 0:
        drift = abs(float(states.sum()) - n0)
        if drift > CONSERVATION_BUDGET * n0:
            raise ConservationDrift(t, drift, CONSERVATION_BUDGET * n0)
    if len(states) and float(states.min()) < floor:
        i = int(np.argmax(states < floor))
        raise NegativePopulation(t, state_names[i], float(states[i]))


def _off_grid(span, dt):
    ratio = span / dt
    return abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio)


def _step_count(t_end, dt, delays=()):
    """Number of steps ``dt`` from 0 to ``t_end``.  ``t_end`` and every
    positive lag or window in ``delays`` must be a whole number of steps
    (to 1e-9 relative); a lag is checked first."""
    if dt <= 0:
        raise StepGridError("dt must be positive")
    if t_end < 0:
        raise StepGridError("t_end must be non-negative")
    for delay in delays:
        if delay > 0 and _off_grid(delay, dt):
            raise DelayMisaligned(delay, float(dt))
    if _off_grid(t_end, dt):
        raise StepGridError(
            f"t_end={t_end!r} is not a whole number of steps dt={dt!r}")
    return int(round(t_end / dt))


def _rk4_step(f, t, y, dt, history=None):
    """One classical RK4 step of dy/dt = f(t, y, history) from ``t``."""
    k1 = f(t, y, history)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1, history)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2, history)
    k4 = f(t + dt, y + dt * k3, history)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _difference_step(f, t, y, dt, history):
    """One synchronous step: every state moves from step t to t+1 at once."""
    return y + f(float(t), y, history)


# flavor -> (entry point, step, history, negative tolerance): all that
# differs between the runs.  The history is None or its ``discrete`` flag.
# A difference run steps by the integer 1, so a failure names the step,
# and its states may not go below zero at all.
_FLAVORS = {
    "ode": ("integrate", _rk4_step, None, NEGATIVE_TOLERANCE),
    "dde": ("integrate_delayed", _rk4_step, False, NEGATIVE_TOLERANCE),
    "difference": ("iterate_difference", _difference_step, True, 0.0),
}


def _march(system, flavor, t_end, dt):
    """Run ``system`` from the diagram's initial values to ``t_end`` in
    fixed steps ``dt``, checking every step.  Values inside the tolerated
    negative band are reported as zero."""
    caller, step, discrete, tolerance = _FLAVORS[flavor]
    if system.flavor != flavor:
        article = "an" if flavor == "ode" else "a"
        raise IntegrationError(
            f"{caller}() needs {article} {flavor} system, got {system.flavor}")
    nsteps = _step_count(t_end, dt, system.delay_values)
    y = system.diagram.initial_vector()
    data = np.empty((nsteps + 1, len(y)))
    data[0] = y
    history = None if discrete is None \
        else HistoryAccessor(0.0, dt, data, discrete=discrete)
    names, n0 = system.state_names, system.diagram.n0
    floor = -tolerance * max(1.0, n0)
    rhs = system.rhs
    for k in range(nsteps):
        y = step(rhs, k * dt, y, dt, history)
        _check_step((k + 1) * dt, y, names, n0, floor)
        if history is None:
            data[k + 1] = y
        else:
            history.append(y)  # stores data[k + 1]
    data[(data < 0) & (data >= floor)] = 0.0
    times = np.arange(nsteps + 1, dtype=float) * dt
    return Trajectory(times, data, names, system.env_names,
                      {"model": system.diagram.name,
                       "params": dict(system.diagram.params),
                       "dt": float(dt), "flavor": flavor})


def integrate(system, *, t_end=10.0, dt=0.01):
    """Fixed-step classical RK4 for an ODE-flavored system.  ``t_end``
    must be a whole number of steps ``dt``."""
    return _march(system, "ode", t_end, dt)


def integrate_delayed(system, *, t_end=10.0, dt=0.01):
    """Method of steps for a delayed system: RK4 core, linear-interpolated
    history reads, trapezoid history integrals, constant pre-history.
    ``t_end`` and every lag and window must be whole numbers of steps
    ``dt``."""
    return _march(system, "dde", t_end, dt)


def iterate_difference(system, *, k_steps=100):
    """Synchronous stepper: all states advance from step k to k+1 at once;
    delayed terms read stored whole-step values."""
    if k_steps < 0:
        raise StepGridError("k_steps must be non-negative")
    return _march(system, "difference", k_steps, 1)
