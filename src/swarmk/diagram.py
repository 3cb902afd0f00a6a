"""Macroscopic state diagrams and their compilation into rate systems.

A diagram lists agent states with initial counts, environment counters,
parameters, and transitions.  Compilation follows the state-diagram
recipe: one dynamic variable per state, and every transition contributes
one outgoing term to its source and one incoming term to its target.
Environment counters evolve only through declared per-flow effects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EvalError, ModelError
from .expr import (Call, EvalContext, compile_expr, delay_windows, eval_expr,
                   free_names, has_history_terms, nodes, unparse)


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    rate: object  # Expr
    env_effects: tuple = ()  # ((env name, Expr), ...)

    @property
    def kind(self):
        return "delayed" if has_history_terms(self.rate) else "memoryless"


@dataclass(frozen=True)
class StateDiagram:
    states: tuple          # ((name, initial count), ...)
    env_vars: tuple = ()   # ((name, initial value), ...)
    params: dict = field(default_factory=dict)
    transitions: tuple = ()
    discrete: bool = False  # synchronous finite-difference semantics
    name: str = "<model>"
    n0: float = None  # declared conserved total; defaults to sum of initials

    def __post_init__(self):
        if self.n0 is None:
            object.__setattr__(self, "n0", float(sum(v for _, v in self.states)))

    @property
    def state_names(self):
        return [n for n, _ in self.states]

    @property
    def env_names(self):
        return [n for n, _ in self.env_vars]

    def initial_vector(self):
        return np.array([v for _, v in self.states] + [v for _, v in self.env_vars],
                        dtype=float)

    def base_bindings(self):
        b = dict(self.params)
        b["N0"] = self.n0
        return b

    def with_params(self, **overrides):
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise ModelError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
        params = dict(self.params)
        params.update(overrides)
        return replace(self, params=params)

    def with_state_init(self, **inits):
        states = tuple((n, inits.get(n, v)) for n, v in self.states)
        d = replace(self, states=states, n0=None)
        return d

    def with_env_init(self, **inits):
        env = tuple((n, inits.get(n, v)) for n, v in self.env_vars)
        return replace(self, env_vars=env)


@dataclass
class OccupationVector:
    """Counts per state plus environment values at one instant."""
    time: float
    states: dict
    env: dict

    def as_array(self, state_names, env_names):
        return np.array([self.states[n] for n in state_names]
                        + [self.env[n] for n in env_names], dtype=float)


@dataclass
class ValidationReport:
    defects: list

    @property
    def ok(self):
        return not self.defects


@dataclass
class RateSystem:
    """Compiled right-hand side over the occupation vector.

    The derivative evaluator maps (t, y, history) to dy; ``y`` holds the
    state counts followed by the environment counters.
    """
    diagram: StateDiagram
    flavor: str  # 'ode' | 'dde' | 'difference'
    rhs: object  # callable (t, y, history) -> np.ndarray
    max_delay: float = 0.0
    delay_values: tuple = ()  # every delay/histint window, evaluated
    histint_integrands: tuple = ()  # (key, fn) pairs needing history caches

    @property
    def dimension(self):
        return len(self.diagram.states) + len(self.diagram.env_vars)

    @property
    def state_names(self):
        return self.diagram.state_names

    @property
    def env_names(self):
        return self.diagram.env_names


def conserved_total(diagram):
    """Declared conserved total and the states it covers."""
    return diagram.n0, diagram.state_names


def encounter_rate(speed, detection_width, arena_radius):
    """Detection rate for a randomly exploring robot: V*W / (pi R^2)."""
    for name, v in (("speed", speed), ("detection_width", detection_width),
                    ("arena_radius", arena_radius)):
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v!r}")
    return speed * detection_width / (math.pi * arena_radius ** 2)


_RNG_SEED = 0x5157


def validate_diagram(diagram, n_samples=64):
    """Check a diagram for defects.  Defects are data, not exceptions."""
    defects = []
    state_names = diagram.state_names
    env_names = diagram.env_names

    # name uniqueness and disjointness
    all_names = state_names + env_names + list(diagram.params)
    dupes = {n for n in all_names if all_names.count(n) > 1}
    for n in sorted(dupes):
        defects.append(f"duplicate name {n}")
    for n in all_names:
        if n in ("t", "N0"):
            defects.append(f"reserved name {n} used as a declaration")

    for n, v in diagram.states:
        if v < 0:
            defects.append(f"negative initial count for state {n}")
    total = sum(v for _, v in diagram.states)
    if not math.isclose(total, diagram.n0, rel_tol=1e-12, abs_tol=1e-12):
        defects.append(
            f"conservation mismatch: initial counts sum to {total!r}, N0={diagram.n0!r}")

    known = set(all_names) | {"t", "N0"}
    for tr in diagram.transitions:
        for endpoint in (tr.source, tr.target):
            if endpoint not in state_names:
                defects.append(f"unknown state {endpoint}")
        exprs = [tr.rate] + [eff for _, eff in tr.env_effects]
        for e in exprs:
            for ident in sorted(free_names(e) - known):
                defects.append(f"unknown identifier {ident}")
        # delay bounds must be computable from params alone
        for w in delay_windows(tr.rate):
            bad = free_names(w) - set(diagram.params)
            if bad:
                defects.append(
                    "delay bound depends on non-parameter name(s): "
                    + ", ".join(sorted(bad)))
            else:
                try:
                    wv = eval_expr(w, diagram.base_bindings())
                except EvalError as exc:
                    defects.append(f"delay bound not evaluable: {exc}")
                    continue
                if not (math.isfinite(wv) and wv >= 0):
                    defects.append(f"delay bound {unparse(w)} = {wv!r} is invalid")

    if defects:
        return ValidationReport(defects)

    # Sampled domain checks.  States are drawn on the conserved simplex and
    # env counters held at their initial values (random boxes reach
    # physically unreachable corners, e.g. negative free-stick counts, and
    # would reject valid models).  Non-negativity is asserted at the
    # initial configuration; sampled points check evaluability/finiteness.
    rng = np.random.default_rng(_RNG_SEED)
    history = _ConstantHistory(diagram)
    base = diagram.base_bindings()
    names = state_names + env_names
    env0 = [float(v) for _, v in diagram.env_vars]
    for tr in diagram.transitions:
        fn = compile_expr(tr.rate)
        for sample in range(n_samples + 1):
            if sample == 0:
                t, counts = 0.0, [float(v) for _, v in diagram.states]
            else:
                t = float(rng.uniform(0.0, 10.0))
                counts = rng.uniform(0.0, 1.0, size=len(state_names))
                if counts.sum() > 0:
                    counts = counts / counts.sum() * diagram.n0
                counts = counts.tolist()
            b = row_bindings(base, names, t, counts + env0)
            history.bind(b)
            try:
                v = fn(EvalContext(b, history))
            except EvalError as exc:
                defects.append(
                    f"rate {unparse(tr.rate)} failed to evaluate: {exc}")
                break
            if not math.isfinite(v):
                defects.append(f"rate {unparse(tr.rate)} is non-finite on a sample")
                break
            if sample == 0 and v < 0:
                defects.append(
                    f"rate {unparse(tr.rate)} is negative ({v!r}) at the "
                    "initial configuration")
                break
    return ValidationReport(defects)


class _ConstantHistory:
    """History stub used during validation: past == present."""

    def __init__(self, diagram):
        self.diagram = diagram
        self._b = None

    def bind(self, bindings):
        self._b = bindings

    def bindings_at(self, t):
        past = dict(self._b)
        past["t"] = t
        return past

    def window_integral(self, key, fn, t0, t1, now_bindings):
        return fn(EvalContext(now_bindings, self)) * (t1 - t0)


def row_bindings(base, names, t, row):
    """Bindings for evaluating rates at one occupation row: ``base`` (the
    parameters and N0, from ``StateDiagram.base_bindings``), the time
    ``t``, and each state or env name in ``names`` bound to its value in
    ``row``."""
    b = dict(base)
    b["t"] = t
    b.update(zip(names, row))
    return b


def transition_table(diagram):
    """The diagram's transitions compiled once, one row per transition:
    ``(source index, target index, rate fn, ((env index, effect fn), ...))``.

    Indices address the occupation row (states, then env counters); the
    functions take an ``EvalContext``.  Every engine reads this table: the
    mean-field right-hand side, the configuration enumeration and the
    Gillespie sampler.
    """
    names = diagram.state_names + diagram.env_names
    index = {n: i for i, n in enumerate(names)}
    return tuple(
        (index[tr.source], index[tr.target], compile_expr(tr.rate),
         tuple((index[n], compile_expr(e)) for n, e in tr.env_effects))
        for tr in diagram.transitions)


def compile_rhs(diagram):
    """Compile a validated diagram into a RateSystem.

    For each state k: dn_k/dt = sum(incoming rates) - sum(outgoing rates);
    environment counters evolve by declared effects times transition flows.
    """
    report = validate_diagram(diagram)
    if not report.ok:
        raise ModelError("invalid diagram: " + "; ".join(report.defects))

    delayed = any(has_history_terms(tr.rate) for tr in diagram.transitions)
    if diagram.discrete:
        flavor = "difference"
    elif delayed:
        flavor = "dde"
    else:
        flavor = "ode"

    base = diagram.base_bindings()
    delay_values = [eval_expr(w, base) for tr in diagram.transitions
                    for w in delay_windows(tr.rate)]
    histint_integrands = [(unparse(n.args[0]), compile_expr(n.args[0]))
                          for tr in diagram.transitions
                          for n in nodes(tr.rate)
                          if isinstance(n, Call) and n.func == "histint"]
    table = transition_table(diagram)
    names = diagram.state_names + diagram.env_names
    dim = len(names)

    def rhs(t, y, history=None):
        ctx = EvalContext(row_bindings(base, names, t, y.tolist()), history)
        d = [0.0] * dim
        for si, ti, rate_fn, effects in table:
            flow = rate_fn(ctx)
            if si != ti:
                d[si] -= flow
                d[ti] += flow
            for ei, eff_fn in effects:
                d[ei] += eff_fn(ctx) * flow
        return np.array(d)

    return RateSystem(diagram=diagram, flavor=flavor, rhs=rhs,
                      max_delay=max(delay_values, default=0.0),
                      delay_values=tuple(delay_values),
                      histint_integrands=tuple(histint_integrands))
