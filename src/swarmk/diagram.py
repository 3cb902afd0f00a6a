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
from .expr import (Neg, Source, delay_windows, eval_expr, free_names,
                   has_history_terms, unparse)


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    rate: object  # Expr
    env_effects: tuple = ()  # ((env name, Expr), ...)

    @property
    def exprs(self):
        """The rate, then each env effect."""
        return (self.rate, *(e for _, e in self.env_effects))


@dataclass(frozen=True)
class StateDiagram:
    states: tuple          # ((name, initial count), ...)
    env_vars: tuple = ()   # ((name, initial value), ...)
    params: dict = field(default_factory=dict)
    transitions: tuple = ()
    discrete: bool = False  # synchronous finite-difference semantics
    name: str = "<model>"
    n0: float = None  # declared conserved total; defaults to sum of initials
    # declarations whose value is an expression of earlier parameters,
    # ((name, Expr), ...) in declaration order; with_params evaluates them
    derived: tuple = ()

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
        """The diagram with parameters set.  A parameter that is set is no
        longer derived (the value is pinned); the remaining derived
        declarations are evaluated again, in order, so the parameters,
        initial values and N0 that follow from the set ones follow them."""
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise ModelError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
        params = {**self.params, **overrides}
        derived = tuple(d for d in self.derived if d[0] not in overrides)
        inits = dict(self.states + self.env_vars)
        for name, e in derived:
            try:
                v = eval_expr(e, params)
            except EvalError as exc:
                raise ValueError(f"{name} cannot be evaluated: {exc}") from None
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            (params if name in params else inits)[name] = v
        states = tuple((n, inits[n]) for n, _ in self.states)
        return replace(self, params=params, derived=derived, states=states,
                       env_vars=tuple((n, inits[n]) for n, _ in self.env_vars),
                       n0=self.n0 if states == self.states else None)

    def with_state_init(self, **inits):
        """The diagram with initial state counts set (and pinned)."""
        states = tuple((n, inits.get(n, v)) for n, v in self.states)
        derived = tuple(d for d in self.derived if d[0] not in inits)
        return replace(self, states=states, derived=derived, n0=None)


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
N_SAMPLES = 64  # sampled points per transition, after the initial one


def validate_diagram(diagram):
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
        for e in tr.exprs:
            for ident in sorted(free_names(e) - known):
                defects.append(f"unknown identifier {ident}")
        # delay bounds must be computable from params alone
        for w in (w for e in tr.exprs for w in delay_windows(e)):
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
    # would reject valid models).  A rate must not be negative at the
    # initial configuration; each point checks that the rate, then each
    # env effect, evaluates to a finite value.  Delayed terms read a
    # one-row history: constant pre-history, so the past equals the sampled
    # present.  The transitions take their samples in turn from one stream,
    # each until its rate or an effect fails or it has N_SAMPLES.
    from .integrate import HistoryAccessor

    times, sampled = _samples(diagram, len(diagram.transitions) * N_SAMPLES)
    taken = 0
    env0 = [float(v) for _, v in diagram.env_vars]
    for tr, (_, _, fn, effects) in zip(diagram.transitions,
                                       transition_table(diagram)):
        rate = f"rate {unparse(tr.rate)}"
        checks = [(rate, fn)] + [
            (f"env effect {effect_source(n, e)} of {rate}", efn)
            for (n, e), (_, efn) in zip(tr.env_effects, effects)]
        delayed = any(map(has_history_terms, tr.exprs))
        for sample in range(N_SAMPLES + 1):
            if sample == 0:
                t, counts = 0.0, [float(v) for _, v in diagram.states]
            else:
                t, counts = times[taken], sampled[taken]
                taken += 1
            row = counts + env0
            history = HistoryAccessor(t, 1.0, np.array([row])) \
                if delayed else None
            for what, f in checks:
                try:
                    v = f(row + [t], history)
                except EvalError as exc:
                    defects.append(f"{what} failed to evaluate: {exc}")
                    break
                if not math.isfinite(v):
                    defects.append(f"{what} is non-finite on a sample")
                    break
                if sample == 0 and v < 0 and f is fn:
                    defects.append(f"{what} is negative ({v!r}) at the "
                                   "initial configuration")
                    break
            else:
                continue
            break  # one defect per transition
    return ValidationReport(defects)


def effect_source(name, e):
    """An env effect as ``.mas`` source: ``name -= x`` for a negated x."""
    if isinstance(e, Neg):
        return f"{name} -= {unparse(e.operand)}"
    return f"{name} += {unparse(e)}"


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


def _kept(diagram, attr, make):
    """``make(diagram)``, computed once per diagram instance and kept on it
    as ``attr``.  A StateDiagram is frozen but for its ``params`` dict,
    whose values the kernel and the gate read: an edit of that dict in
    place computes it again."""
    params, value = diagram.__dict__.get(attr, (None, None))
    if value is None or params != diagram.params:
        params, value = dict(diagram.params), make(diagram)
        object.__setattr__(diagram, attr, (params, value))
    return value


def rate_kernel(diagram):
    """``(rhs, transition table)`` of a structurally valid diagram,
    generated and compiled once per diagram instance."""
    return _kept(diagram, "_rate_kernel", _generate_kernel)


def gate(diagram):
    """``(flavor, delay values, reads t)`` of a valid diagram, decided once
    per instance; an invalid diagram raises ModelError.  Every engine passes
    here: the integrators through ``compile_rhs``, the chain directly."""
    return _kept(diagram, "_gate", _open_gate)


def _open_gate(diagram):
    """Validate, then read flavor, delays and ``t`` off rates and effects."""
    report = validate_diagram(diagram)
    if not report.ok:
        raise ModelError("invalid diagram: " + "; ".join(report.defects))
    exprs = [e for tr in diagram.transitions for e in tr.exprs]
    base = diagram.base_bindings()
    delays = tuple(eval_expr(w, base) for e in exprs for w in delay_windows(e))
    flavor = "difference" if diagram.discrete else "dde" if delays else "ode"
    return flavor, delays, any("t" in free_names(e) for e in exprs)


def _generate_kernel(diagram):
    """Generate the Python source of the diagram's rates and compile it.

    Names are bound here: states and env counters are slots of the
    evaluation row (``t`` last), parameters and N0 are folded in as
    constants.  ``rhs(t, y, history=None)`` computes, transition by
    transition, the flow ``f{k}`` and then the env effects ``e{k}_{j}``,
    one line each, then each component as a sum from 0.0 in transition
    order: minus the flow at the source, plus the flow at the target, plus
    effect times flow at an env counter.  Under the same names the source
    also defines one function per rate and effect, for the transition table.
    """
    states = {n: i for i, n in enumerate(diagram.state_names)}
    env = {n: i for i, n in enumerate(diagram.env_names, len(states))}
    slots = {"t": len(states) + len(env), **states, **env}
    src = Source(diagram.base_bindings(), slots)
    body = ["    r = y.tolist()", "    r.append(t)"]
    # per component, its signed terms in transition order
    terms = [[] for _ in range(len(states) + len(env))]
    rows = []  # (source, target, rate name, ((env index, effect name), ...))
    for k, tr in enumerate(diagram.transitions):
        si, ti = states[tr.source], states[tr.target]
        names = [f"f{k}", *(f"e{k}_{j}" for j in range(len(tr.env_effects)))]
        body += [f"    {n} = {src.function(n, e)}"
                 for n, e in zip(names, tr.exprs)]
        if si != ti:
            terms[si].append(f" - f{k}")
            terms[ti].append(f" + f{k}")
        effects = [(env[n], e) for (n, _), e in zip(tr.env_effects, names[1:])]
        for ei, e in effects:
            terms[ei].append(f" + {e} * f{k}")
        rows.append((si, ti, f"f{k}", effects))
    d = ", ".join("0.0" + "".join(ts) for ts in terms)
    src.env["_array"] = np.array
    src.lines += ["def rhs(t, y, h=None):", *body, f"    return _array([{d}])"]
    ns = src.compile()
    table = tuple((si, ti, ns[rate], tuple((ei, ns[e]) for ei, e in effects))
                  for si, ti, rate, effects in rows)
    return ns["rhs"], table


def compile_rhs(diagram):
    """Compile a valid diagram into a RateSystem.

    For each state k: dn_k/dt = sum(incoming rates) - sum(outgoing rates);
    environment counters evolve by declared effects times transition flows.
    """
    flavor, delays, _ = gate(diagram)
    return RateSystem(diagram, flavor, rate_kernel(diagram)[0], delays)
