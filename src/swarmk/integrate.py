"""Deterministic time evolution of compiled rate systems.

Three flavors share one module: classical fixed-step RK4 for ordinary
systems, method of steps (same RK4 core, stored history, linear
interpolation, grid-aligned delays) for delayed systems, and a
synchronous stepper for finite-difference systems.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagram import OccupationVector
from .errors import (ConservationDrift, DelayMisaligned, IntegrationError,
                     NegativePopulation, NonFinite)
from .expr import EvalContext

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
        names = self.state_names + self.env_names
        try:
            return self.data[:, names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def final(self):
        names = self.state_names + self.env_names
        return dict(zip(names, self.data[-1]))

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
        self._caches.setdefault(key, (fn, [], [0.0]))

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
        """Integral of ``fn`` over [t_lo, t_hi]; ``now`` is the caller's
        context, which closes an interval that overhangs the newest row."""
        if key not in self._caches:
            self.register_integrand(key, fn)
        cache = self._caches[key]
        fn, vals, cum = cache
        for i in range(len(vals), self.count):
            t = self.t0 + i * self.dt
            vals.append(fn(EvalContext(self.rows[i].tolist() + [t], self)))
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
            f_now = fn(now)
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


def _negative_floor(n0):
    return -NEGATIVE_TOLERANCE * max(1.0, n0)


def _report(data, n0):
    """Clamp values inside the tolerated negative band to zero."""
    out = np.asarray(data)
    return np.where((out < 0) & (out >= _negative_floor(n0)), 0.0, out)


def _start(system, caller, flavor, init, nsteps):
    """Shared prologue of the integrators: flavor check, initial row and
    the preallocated output rows (row 0 filled)."""
    if system.flavor != flavor:
        article = "an" if flavor == "ode" else "a"
        raise IntegrationError(
            f"{caller}() needs {article} {flavor} system, got {system.flavor}")
    if init is None:
        y = system.diagram.initial_vector()
    elif isinstance(init, OccupationVector):
        y = init.as_array(system.state_names, system.env_names)
    else:
        y = np.asarray(init, dtype=float)
    data = np.empty((nsteps + 1, len(y)))
    data[0] = y
    return y, data


def _history(system, data, dt, discrete=False):
    """History store for a system with delayed terms over the output rows
    ``data`` (row 0 filled).  Every lag and window must be a whole number
    of steps ``dt``."""
    for delay in system.delay_values:
        ratio = delay / dt
        if delay > 0 and abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise DelayMisaligned(delay, dt)
    return HistoryAccessor(0.0, dt, data, discrete=discrete)


def _metadata(system, dt):
    return {"model": system.diagram.name, "params": dict(system.diagram.params),
            "dt": dt, "flavor": system.flavor}


def _rk4(system, caller, flavor, init, t_end, dt):
    """Fixed-step classical RK4.  A DDE system (method of steps) also
    stores every step in a history that its delayed terms read."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    nsteps = int(round(t_end / dt))
    y, data = _start(system, caller, flavor, init, nsteps)
    history = _history(system, data, dt) if flavor == "dde" else None
    names, n0 = system.state_names, system.diagram.n0
    floor = _negative_floor(n0)
    rhs = system.rhs
    times = np.empty(nsteps + 1)
    times[0] = 0.0
    t = 0.0
    for k in range(nsteps):
        k1 = rhs(t, y, history)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1, history)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2, history)
        k4 = rhs(t + dt, y + dt * k3, history)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = (k + 1) * dt
        _check_step(t, y, names, n0, floor)
        times[k + 1] = t
        if history is not None:
            history.append(y)  # stores data[k + 1]
        else:
            data[k + 1] = y
    return Trajectory(times, _report(data, n0), names, system.env_names,
                      _metadata(system, dt))


def integrate(system, init=None, t_end=10.0, dt=0.01):
    """Fixed-step classical RK4 for an ODE-flavored system."""
    return _rk4(system, "integrate", "ode", init, t_end, dt)


def integrate_delayed(system, init=None, t_end=10.0, dt=0.01):
    """Method of steps for a delayed system: RK4 core, linear-interpolated
    history reads, trapezoid history integrals, constant pre-history."""
    return _rk4(system, "integrate_delayed", "dde", init, t_end, dt)


def iterate_difference(system, init=None, k_steps=100):
    """Synchronous stepper: all states advance from step k to k+1 at once;
    delayed terms read stored whole-step values."""
    if k_steps < 0:
        raise ValueError("k_steps must be non-negative")
    y, data = _start(system, "iterate_difference", "difference", init,
                     k_steps)
    history = _history(system, data, 1.0, discrete=True)
    names, n0 = system.state_names, system.diagram.n0
    rhs = system.rhs
    for k in range(k_steps):
        y = y + rhs(float(k), y, history)
        _check_step(k + 1, y, names, n0, 0.0)
        history.append(y)  # stores data[k + 1]
    return Trajectory(np.arange(k_steps + 1, dtype=float), data, names,
                      system.env_names, _metadata(system, 1.0))
