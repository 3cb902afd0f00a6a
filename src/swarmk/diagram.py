"""Macroscopic state diagrams and their compilation into rate systems.

A diagram lists agent states with initial counts, environment counters,
parameters, and transitions.  Compilation follows the state-diagram
recipe: one dynamic variable per state, and every transition contributes
one outgoing term to its source and one incoming term to its target.
Environment counters evolve only through declared per-flow effects.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, ModelError
from .expr import (BINARY_CALLS, MAX_DEPTH, MAX_HISTORY, Neg, Source,
                   delay_windows, depth, format_number, free_names, malformed,
                   unparse)


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
    # declarations whose value is an expression of earlier parameters,
    # ((name, Expr), ...) in declaration order; with_params evaluates them
    derived: tuple = ()
    # param name -> (lo, hi, brackets): the values it may take, e.g.
    # (0.0, 1.0, "(]") for ``in (0, 1]``; with_params refuses the others
    domains: dict = field(default_factory=dict)
    # structure key -> the code generated for that structure (``_shared``),
    # one dict for the diagram and every copy ``replace`` makes of it
    _programs: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n0(self):
        """The conserved total N0: the sum of the initial counts."""
        return float(sum(v for _, v in self.states))

    @property
    def state_names(self):
        return [n for n, _ in self.states]

    @property
    def env_names(self):
        return [n for n, _ in self.env_vars]

    def initial_vector(self):
        return np.array([v for _, v in self.states] + [v for _, v in self.env_vars],
                        dtype=float)

    def with_params(self, **overrides):
        """The diagram with parameters set.  A parameter that is set is no
        longer derived (the value is pinned); the remaining derived
        declarations are evaluated again, in order, so the parameters,
        initial values and N0 that follow from the set ones follow them.
        Every set or derived value must be finite and inside its domain."""
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise ModelError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
        # "+ 0.0" turns -0.0 into the 0.0 the parser gives
        params = {**self.params, **{
            k: check_param(k, float(v) + 0.0, self.domains.get(k))
            for k, v in overrides.items()}}
        derived = tuple(d for d in self.derived if d[0] not in overrides)
        inits = dict(self.states + self.env_vars)
        for name, e in derived:
            try:
                v = _param_function(self, e)(tuple(params.values()))
            except EvalError as exc:
                raise ValueError(f"{name} cannot be evaluated: {exc}") from None
            v = check_param(name, v, self.domains.get(name))
            (params if name in params else inits)[name] = v
        return self._copy(params=params, derived=derived,
                          states=tuple((n, inits[n]) for n, _ in self.states),
                          env_vars=tuple((n, inits[n])
                                         for n, _ in self.env_vars))

    def with_state_init(self, **inits):
        """The diagram with initial state counts set (and pinned)."""
        states = tuple((n, inits.get(n, v)) for n, v in self.states)
        derived = tuple(d for d in self.derived if d[0] not in inits)
        return self._copy(states=states, derived=derived)

    def _copy(self, **changes):
        """``replace(self, **changes)``, without ``__init__`` or ``_kept``."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, _kept={}, **changes)
        return new


def domain_source(domain):
    """A parameter domain ``(lo, hi, brackets)`` as ``.mas`` source."""
    lo, hi, (left, right) = domain
    return f"{left}{format_number(lo)}, {format_number(hi)}{right}"


def check_param(name, v, domain=None):
    """``v`` if it is finite and inside ``domain`` (None: anywhere), else
    ValueError."""
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite")
    if domain is not None:
        lo, hi, (left, right) = domain
        if not ((lo < v if left == "(" else lo <= v)
                and (v < hi if right == ")" else v <= hi)):
            raise ValueError(f"{name} = {v!r} is outside "
                             f"{domain_source(domain)}")
    return v


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


_RNG_SEED = 0x5157
N_SAMPLES = 64  # sampled points per transition, after the initial one


def validate_diagram(diagram):
    """Check a diagram for defects.  Defects are data, not exceptions."""
    defects = [d for c in _shared(diagram, "_structure", _structure)[0]
               for d in ([c] if isinstance(c, str) else c(diagram))]
    if defects:
        return ValidationReport(defects)

    # Sampled domain checks.  States are drawn on the conserved simplex and
    # env counters held at their initial values (random boxes reach
    # physically unreachable corners, e.g. negative free-stick counts, and
    # would reject valid models).  A rate must not be negative at the
    # initial configuration; each point checks that the rate, then each
    # env effect, evaluates to a finite value.  Delayed terms read the
    # sampled present as their past (the table's stationary reading), as a
    # constant pre-history would.  The transitions take their samples in
    # turn from one stream, each until its rate or an effect fails or it
    # has N_SAMPLES.
    times, simplex = _shared(diagram, "_samples", _samples)
    stream = zip(times, (simplex * diagram.n0).tolist())
    first = (0.0, [float(v) for _, v in diagram.states])
    env0 = [float(v) for _, v in diagram.env_vars]
    for tr, (_, _, fn, effects) in zip(diagram.transitions,
                                       transition_table(diagram)):
        rate = f"rate {unparse(tr.rate)}"
        checks = [(rate, fn)] + [
            (f"env effect {effect_source(n, e)} of {rate}", efn)
            for (n, e), (_, efn) in zip(tr.env_effects, effects)]
        for sample, (t, counts) in enumerate(itertools.chain(
                [first], itertools.islice(stream, N_SAMPLES))):
            row = counts + env0 + [t]
            for i, (what, f) in enumerate(checks):  # the rate is check 0
                try:
                    v = f(row)
                except EvalError as exc:
                    defects.append(f"{what} failed to evaluate: {exc}")
                    break
                if not math.isfinite(v):
                    defects.append(f"{what} is non-finite on a sample")
                    break
                if sample == 0 and v < 0 and i == 0:
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


def _structure(diagram):
    """``(checks, delay bounds, reads t)``, once per structure: ``checks``
    are the structural defects in report order and, in their places, the
    checks of a diagram's values, ``check(diagram) -> defects``.  A tree
    deeper than MAX_DEPTH, which only one built in Python can be, is the
    one defect, found before any recursive walk."""
    exprs = [e for tr in diagram.transitions for e in tr.exprs]
    if any(depth(e) > MAX_DEPTH for e in exprs):
        return [f"expression is deeper than {MAX_DEPTH} levels"], (), False
    state_names, env_names = diagram.state_names, diagram.env_names
    # name uniqueness and disjointness
    all_names = state_names + env_names + list(diagram.params)
    checks = [f"duplicate name {n}" for n in
              sorted({n for n in all_names if all_names.count(n) > 1})]
    checks += [f"reserved name {n} used as a declaration"
               for n in all_names if n in ("t", "N0")]
    checks.append(lambda d: [f"negative initial count for state {n}"
                             for n, v in d.states if v < 0])
    known = set(all_names) | {"t", "N0"}
    for tr in diagram.transitions:
        checks += [f"unknown state {n}" for n in (tr.source, tr.target)
                   if n not in state_names]
        checks += [f"unknown env var {n}" for n, _ in tr.env_effects
                   if n not in env_names]
        checks += [f"unknown identifier {ident}" for e in tr.exprs
                   for ident in sorted(free_names(e) - known)]
        checks += [m for e in tr.exprs for m in malformed(e)]
        checks += [f"delay and histint calls are nested more than "
                   f"{MAX_HISTORY} deep" for e in tr.exprs
                   if depth(e, BINARY_CALLS) > MAX_HISTORY]
        # delay bounds must be computable from params alone
        for w in (w for e in tr.exprs for w in delay_windows(e)):
            bad = free_names(w) - set(diagram.params)
            checks.append("delay bound depends on non-parameter name(s): "
                          + ", ".join(sorted(bad)) if bad
                          else lambda d, w=w: _bound_defects(d, w))
    return (checks, tuple(w for e in exprs for w in delay_windows(e)),
            any("t" in free_names(e) for e in exprs))


def _bound_defects(diagram, w):
    """The defect of the delay bound ``w`` at the diagram's parameters."""
    try:
        wv = _param_function(diagram, w)(tuple(diagram.params.values()))
    except EvalError as exc:
        return [f"delay bound not evaluable: {exc}"]
    return [] if math.isfinite(wv) and wv >= 0 else [
        f"delay bound {unparse(w)} = {wv!r} is invalid"]


def _samples(diagram):
    """``N_SAMPLES`` times per transition in [0, 10) and state rows on the
    unit simplex, drawn once per structure: per sample one uniform draw for
    the time, then one per state, divided by their sum.  The uniforms are
    the top 53 bits of 8-byte words from the stdlib's seeded stream, so
    validation never loads ``numpy.random``."""
    shape = (len(diagram.transitions) * N_SAMPLES, len(diagram.states) + 1)
    bits = random.Random(_RNG_SEED).randbytes(8 * shape[0] * shape[1])
    u = ((np.frombuffer(bits, "<u8") >> 11) * 2.0 ** -53).reshape(shape)
    counts = u[:, 1:].copy()
    total = counts.sum(axis=1)
    pos = total > 0
    counts[pos] = counts[pos] / total[pos, None]
    return (0.0 + 10.0 * u[:, 0]).tolist(), counts


def transition_table(diagram):
    """One row per transition, ``(source index, target index, rate fn,
    ((env index, effect fn), ...))``, each ``fn(row)`` over the evaluation
    row (states, env counters, then ``t``), also the past its delayed terms
    read (``Source.stationary``).  Validation samples it; ``rhs``, the step
    and the chain inline its expressions, with their history."""
    return rate_kernel(diagram)[1]


def _kept(diagram, attr, make):
    """``make(diagram)``, computed once per diagram instance and kept on it
    under ``attr`` in its dict ``_kept``.  A StateDiagram is frozen but for
    its ``params`` dict, whose values the kernel and the gate read: an edit
    of that dict in place computes it again."""
    params, value = diagram.__dict__.setdefault("_kept", {}).get(
        attr, (None, None))
    if value is None or params != diagram.params:
        params, value = dict(diagram.params), make(diagram)
        diagram._kept[attr] = params, value
    return value


def _shared(diagram, attr, make):
    """``make(diagram)``, computed once per structure for the diagram and
    the copies ``replace`` makes of it (``with_params``, ...).  The
    structure is the state, env and parameter names, ``discrete`` and the
    transitions by identity: trees equal but for a signed zero differ."""
    key = (id(diagram.transitions), *diagram.state_names, None,
           *diagram.env_names, None, *diagram.params, diagram.discrete)
    # holding the transitions keeps their id from being reused
    slot = diagram._programs.setdefault(key, {"": diagram.transitions})
    if attr not in slot:
        slot[attr] = make(diagram)
    return slot[attr]


def _values(diagram):
    """The tuple the generated code binds: the parameters, then N0."""
    return (*diagram.params.values(), diagram.n0)


def _param_function(diagram, e):
    """``fn(p)``: ``e`` at the parameter values ``p``, in ``params`` order,
    generated once per structure and tree (by identity, held with it)."""
    def make(d):
        src = Source(d.params, {})
        return e, src.compile(src.value(e))
    return _shared(diagram, id(e), make)[1]


def rate_kernel(diagram):
    """``(rhs, transition table)`` of a structurally valid diagram: its
    structure's kernel bound to its parameters and N0 once per instance,
    so ``rhs`` is one object per instance."""
    return _kept(diagram, "_rate_kernel", lambda d: _shared(
        d, "_kernel", _generate_kernel)[0](_values(d)))


def _kernel_source(diagram):
    """``(parameter names, slots, (name, tree) pairs, component sums)`` of
    the diagram's structure's kernel, for the code generated from it."""
    return _shared(diagram, "_kernel", _generate_kernel)[1]


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
    _, windows, reads_t = _shared(diagram, "_structure", _structure)
    p = tuple(diagram.params.values())
    delays = tuple(_param_function(diagram, w)(p) for w in windows)
    flavor = "difference" if diagram.discrete else "dde" if delays else "ode"
    return flavor, delays, reads_t


def _generate_kernel(diagram):
    """Generate the Python source of the diagram's rates and compile it,
    once per structure, into ``bind``: ``bind(_values(diagram))`` gives
    ``(rhs, transition table)``.

    States and env counters are slots of the evaluation row (``t`` last);
    parameters and N0 are names.  ``rhs(t, y, history=None)`` computes,
    transition by transition, the flow ``f{k}`` and then the env effects
    ``e{k}_{j}``, one line each, then each component as a sum from 0.0 in
    transition order: minus the flow at the source, plus the flow at the
    target, plus effect times flow at an env counter.  The source also
    defines, for the transition table, one function per distinct source of
    a rate or effect read ``stationary``.  The names, slots, trees and
    sums are kept, for the step generator in ``integrate`` and the chain."""
    states = {n: i for i, n in enumerate(diagram.state_names)}
    env = {n: i for i, n in enumerate(diagram.env_names, len(states))}
    slots = {"t": len(states) + len(env), **states, **env}
    names = [*diagram.params, "N0"]
    src = Source(names, slots)
    exprs = []  # (flow or effect name, tree), in transition order
    # per component, its signed terms in transition order
    terms = [[] for _ in range(len(states) + len(env))]
    # (source, target, rate, ((env index, effect), ...)) per transition,
    # each function a {} until the functions are generated
    table = ""
    for k, tr in enumerate(diagram.transitions):
        si, ti = states[tr.source], states[tr.target]
        flow = [f"f{k}", *(f"e{k}_{j}" for j in range(len(tr.env_effects)))]
        exprs += zip(flow, tr.exprs)
        if si != ti:
            terms[si].append(f" - f{k}")
            terms[ti].append(f" + f{k}")
        for (n, _), e in zip(tr.env_effects, flow[1:]):
            terms[env[n]].append(f" + {e} * f{k}")
        fx = "".join(f"({env[n]}, {{}}), " for n, _ in tr.env_effects)
        table += f"({si}, {ti}, {{}}, ({fx})), "
    sums = ["0.0" + "".join(ts) for ts in terms]
    flows = [f"    {n} = {src.value(e)}" for n, e in exprs]
    src.stationary = True
    table = table.format(*(src._function_of(src.value(e)) for _, e in exprs))
    src.env["_array"] = np.array
    src.lines += ["def rhs(t, y, h=None):", "    r = y.tolist()",
                  "    r.append(t)", *flows,
                  f"    return _array([{', '.join(sums)}])"]
    return (src.compile(f"rhs, ({table})"),
            (names, slots, exprs, sums))


def compile_rhs(diagram):
    """Compile a valid diagram into a RateSystem.

    For each state k: dn_k/dt = sum(incoming rates) - sum(outgoing rates);
    environment counters evolve by declared effects times transition flows.
    """
    flavor, delays, _ = gate(diagram)
    return RateSystem(diagram, flavor, rate_kernel(diagram)[0], delays)
