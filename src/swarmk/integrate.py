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

from .diagram import OccupationVector, row_bindings
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


class HistoryAccessor:
    """Past samples of one trajectory, with linear interpolation.

    Values for t earlier than the first sample equal the initial
    condition (constant pre-history).  Queries beyond the newest sample
    are errors, except for the explicit stage-overhang path in
    ``window_integral``.  In ``discrete`` mode times are step indices,
    reads are exact, and window integrals become sums over whole steps.
    """

    def __init__(self, state_names, env_names, base_bindings, t0, dt, y0,
                 discrete=False):
        self.names = list(state_names) + list(env_names)
        self.base = dict(base_bindings)
        self.t0 = t0
        self.dt = dt
        self.discrete = discrete
        self.times = [t0]
        self.rows = [np.asarray(y0, dtype=float)]
        self._caches = {}  # key -> {'fn': fn, 'vals': [...], 'cum': [...]}

    # -- sample management ----------------------------------------------

    def append(self, t, row):
        self.times.append(t)
        self.rows.append(np.asarray(row, dtype=float))
        for cache in self._caches.values():
            self._extend_cache(cache)

    def register_integrand(self, key, fn):
        if key not in self._caches:
            cache = {"fn": fn, "vals": [], "cum": [0.0]}
            self._caches[key] = cache
            self._extend_cache(cache)

    def _extend_cache(self, cache):
        fn = cache["fn"]
        vals, cum = cache["vals"], cache["cum"]
        while len(vals) < len(self.rows):
            i = len(vals)
            b = row_bindings(self.base, self.names, self.times[i],
                             self.rows[i].tolist())
            v = fn(EvalContext(b, self))
            vals.append(v)
            if i > 0:
                if self.discrete:
                    cum.append(cum[-1] + vals[i - 1])
                else:
                    h = self.times[i] - self.times[i - 1]
                    cum.append(cum[-1] + 0.5 * h * (vals[i - 1] + vals[i]))

    # -- reads ----------------------------------------------------------

    def _locate(self, t):
        """Fractional index of time t on the stored uniform grid."""
        return (t - self.t0) / self.dt

    def bindings_at(self, t):
        if t <= self.t0:
            row = self.rows[0]
        else:
            x = self._locate(t)
            i = int(math.floor(x + 1e-9))
            if i >= len(self.rows):
                raise IntegrationError(
                    f"history query at t={t!r} is beyond the stored window")
            frac = x - i
            if frac <= 1e-9 or i + 1 >= len(self.rows):
                row = self.rows[i]
            else:
                row = (1.0 - frac) * self.rows[i] + frac * self.rows[i + 1]
        return row_bindings(self.base, self.names, t, row.tolist())

    def window_integral(self, key, fn, t_lo, t_hi, now_bindings):
        if key not in self._caches:
            self.register_integrand(key, fn)
        cache = self._caches[key]
        self._extend_cache(cache)
        if self.discrete:
            return self._window_sum(cache, t_lo, t_hi)
        return self._cumulative(cache, t_hi, now_bindings) \
            - self._cumulative(cache, t_lo, now_bindings)

    def _window_sum(self, cache, t_lo, t_hi):
        # sum of integrand over whole steps j in [t_lo, t_hi)
        vals = cache["vals"]
        i0 = int(round(t_lo - self.t0))
        i1 = int(round(t_hi - self.t0))
        total = 0.0
        if i0 < 0:
            total += vals[0] * (min(i1, 0) - i0)
            i0 = 0
        if i1 > len(vals):
            raise IntegrationError("discrete history window exceeds stored steps")
        for j in range(i0, i1):
            total += vals[j]
        return total

    def _cumulative(self, cache, t, now_bindings):
        """Integral of the cached integrand from t0 to t (trapezoid)."""
        vals, cum = cache["vals"], cache["cum"]
        if t <= self.t0:
            return (t - self.t0) * vals[0]
        x = self._locate(t)
        i = int(math.floor(x + 1e-9))
        last = len(vals) - 1
        if i >= last:
            # stage overhang past the newest stored sample: close the
            # interval with the integrand at the caller's current state
            fn = cache["fn"]
            f_now = fn(EvalContext(now_bindings, self))
            h = t - self.times[last]
            return cum[last] + 0.5 * h * (vals[last] + f_now)
        frac = x - i
        if frac <= 1e-9:
            return cum[i]
        f_mid = (1.0 - frac) * vals[i] + frac * vals[i + 1]
        h = t - self.times[i]
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


def _history(system, y, dt, discrete=False):
    """History store for a system with delayed terms, seeded with ``y``."""
    history = HistoryAccessor(system.state_names, system.env_names,
                              system.diagram.base_bindings(), 0.0, dt, y,
                              discrete=discrete)
    for key, fn in system.histint_integrands:
        history.register_integrand(key, fn)
    return history


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
    history = None
    if flavor == "dde":
        for delay in system.delay_values:
            ratio = delay / dt
            if delay > 0 and abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                raise DelayMisaligned(delay, dt)
        history = _history(system, y, dt)
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
        if history is not None:
            history.append(t, y)
        times[k + 1] = t
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
    history = _history(system, y, 1.0, discrete=True)
    names, n0 = system.state_names, system.diagram.n0
    rhs = system.rhs
    for k in range(k_steps):
        y = y + rhs(float(k), y, history)
        _check_step(k + 1, y, names, n0, 0.0)
        history.append(float(k + 1), y)
        data[k + 1] = y
    return Trajectory(np.arange(k_steps + 1, dtype=float), data, names,
                      system.env_names, _metadata(system, 1.0))
