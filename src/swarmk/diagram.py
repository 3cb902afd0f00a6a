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
from .expr import (Source, delay_windows, eval_expr, free_names,
                   has_history_terms, unparse)


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
    delay_values: tuple = ()  # every delay/histint window, evaluated

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
        for n, _ in tr.env_effects:
            if n not in env_names:
                defects.append(f"unknown env var {n}")
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
    # Delayed terms read a one-row history: constant pre-history, so the
    # past equals the sampled present.  The transitions take their samples
    # in turn from one stream, each until it fails or has n_samples.
    from .integrate import HistoryAccessor

    times, sampled = _samples(diagram, len(diagram.transitions) * n_samples)
    taken = 0
    env0 = [float(v) for _, v in diagram.env_vars]
    for tr, (_, _, fn, _) in zip(diagram.transitions, transition_table(diagram)):
        delayed = has_history_terms(tr.rate)
        for sample in range(n_samples + 1):
            if sample == 0:
                t, counts = 0.0, [float(v) for _, v in diagram.states]
            else:
                t, counts = times[taken], sampled[taken]
                taken += 1
            row = counts + env0
            history = HistoryAccessor(t, 1.0, np.array([row])) \
                if delayed else None
            try:
                v = fn(row + [t], history)
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


def _samples(diagram, n):
    """``n`` sample times in [0, 10) and state rows on the simplex of the
    conserved total, as lists.  Each sample is one uniform draw for the
    time, then one per state, scaled to sum to N0 (the same values as
    drawing them one call at a time)."""
    u = np.random.default_rng(_RNG_SEED).random((n, len(diagram.states) + 1))
    counts = u[:, 1:].copy()
    total = counts.sum(axis=1)
    pos = total > 0
    counts[pos] = counts[pos] / total[pos, None] * diagram.n0
    return (0.0 + 10.0 * u[:, 0]).tolist(), counts.tolist()


def transition_table(diagram):
    """The diagram's transitions compiled once, one row per transition:
    ``(source index, target index, rate fn, ((env index, effect fn), ...))``.

    Each function is ``fn(row, history=None)`` over the evaluation row:
    the occupation row (states, then env counters) followed by the time
    ``t``.  Every engine reads this table or the ``rhs`` generated with
    it: the mean-field right-hand side, the validation sampler, the
    configuration enumeration and the Gillespie sampler.
    """
    return rate_kernel(diagram)[1]


def rate_kernel(diagram):
    """``(rhs, transition table)`` of the diagram, generated and compiled
    once per diagram instance and kept on it.  A StateDiagram is frozen but
    for its ``params`` dict, whose values the kernel folds in: an edit of
    that dict in place makes the kernel again."""
    params, kernel = diagram.__dict__.get("_rate_kernel", (None, None))
    if kernel is None or params != diagram.params:
        params, kernel = dict(diagram.params), _generate_kernel(diagram)
        object.__setattr__(diagram, "_rate_kernel", (params, kernel))
    return kernel


def _generate_kernel(diagram):
    """Generate the Python source of the diagram's rates and compile it.

    Names are bound here: states and env counters are slots of the
    evaluation row (``t`` last), parameters and N0 are folded in as
    constants.  ``rhs(t, y, history=None)`` computes, transition by
    transition, the flow ``f{k}`` and then the env effects ``e{k}_{j}``,
    then each component as a sum from 0.0 in transition order: minus the
    flow at the source, plus the flow at the target, plus effect times
    flow at an env counter.  Under the same names the source also defines
    one function per rate and effect, for the transition table.
    """
    states = {n: i for i, n in enumerate(diagram.state_names)}
    env = {n: i for i, n in enumerate(diagram.env_names, len(states))}
    slots = {"t": len(states) + len(env), **states, **env}
    src = Source(diagram.base_bindings(), slots)

    def at(index, kind, name):
        if name not in index:
            raise ModelError(f"unknown {kind} {name}")
        return index[name]

    def check(e):
        unknown = sorted(free_names(e) - slots.keys() - src.consts.keys())
        if unknown:
            raise ModelError(f"unknown identifier {unknown[0]}")

    def emit(name, e, body):
        """``e`` as the function ``name`` and, inline in ``body``, as the
        local ``name``."""
        check(e)
        src.function(name, e)
        x = src.value(e, "r", body, "    ")
        body.append(f"    {name} = {x}")

    body = ["    r = y.tolist()", "    r.append(t)"]
    # per component, its signed terms in transition order
    terms = [[] for _ in range(len(states) + len(env))]
    rows = []  # (source, target, rate name, ((env index, effect name), ...))
    for k, tr in enumerate(diagram.transitions):
        si = at(states, "state", tr.source)
        ti = at(states, "state", tr.target)
        emit(f"f{k}", tr.rate, body)
        if si != ti:
            terms[si].append(f" - f{k}")
            terms[ti].append(f" + f{k}")
        effects = []
        for j, (n, e) in enumerate(tr.env_effects):
            ei = at(env, "env var", n)
            emit(f"e{k}_{j}", e, body)
            terms[ei].append(f" + e{k}_{j} * f{k}")
            effects.append((ei, f"e{k}_{j}"))
        rows.append((si, ti, f"f{k}", effects))
    d = ", ".join("0.0" + "".join(ts) for ts in terms)
    src.env["_array"] = np.array
    src.lines += ["def rhs(t, y, h=None):", *body, f"    return _array([{d}])"]
    ns = src.compile()
    table = tuple((si, ti, ns[rate], tuple((ei, ns[e]) for ei, e in effects))
                  for si, ti, rate, effects in rows)
    return ns["rhs"], table


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
    rhs, _ = rate_kernel(diagram)
    return RateSystem(diagram=diagram, flavor=flavor, rhs=rhs,
                      delay_values=tuple(delay_values))
