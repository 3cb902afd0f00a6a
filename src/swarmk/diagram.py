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
import re
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConservationDrift, EvalError, ModelError,
                     NegativePopulation, NonFinite)
from .expr import (Name, Neg, Source, delay_windows, format_number,
                   free_names, unparse)


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
            for what, f in checks:
                try:
                    v = f(row)
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


def _structure(diagram):
    """``(checks, delay bounds, reads t)``, once per structure: ``checks``
    are the structural defects in report order and, in their places, the
    checks of a diagram's values, ``check(diagram) -> defects``."""
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
        # delay bounds must be computable from params alone
        for w in (w for e in tr.exprs for w in delay_windows(e)):
            bad = free_names(w) - set(diagram.params)
            checks.append("delay bound depends on non-parameter name(s): "
                          + ", ".join(sorted(bad)) if bad
                          else lambda d, w=w: _bound_defects(d, w))
    exprs = [e for tr in diagram.transitions for e in tr.exprs]
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
    the time, then one per state, divided by their sum."""
    u = np.random.default_rng(_RNG_SEED).random(
        (len(diagram.transitions) * N_SAMPLES, len(diagram.states) + 1))
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
    target, plus effect times flow at an env counter.  Under the same names
    the source also defines one function per rate and effect, read
    ``stationary``, for the transition table.  The names, slots, trees and
    sums are kept, for ``_generate_step`` and the chain."""
    states = {n: i for i, n in enumerate(diagram.state_names)}
    env = {n: i for i, n in enumerate(diagram.env_names, len(states))}
    slots = {"t": len(states) + len(env), **states, **env}
    names = [*diagram.params, "N0"]
    src = Source(names, slots)
    exprs = []  # (flow or effect name, tree), in transition order
    # per component, its signed terms in transition order
    terms = [[] for _ in range(len(states) + len(env))]
    table = []  # (source, target, rate, ((env index, effect), ...)) source
    for k, tr in enumerate(diagram.transitions):
        si, ti = states[tr.source], states[tr.target]
        flow = [f"f{k}", *(f"e{k}_{j}" for j in range(len(tr.env_effects)))]
        exprs += zip(flow, tr.exprs)
        if si != ti:
            terms[si].append(f" - f{k}")
            terms[ti].append(f" + f{k}")
        effects = [(env[n], e) for (n, _), e in zip(tr.env_effects, flow[1:])]
        for ei, e in effects:
            terms[ei].append(f" + {e} * f{k}")
        fx = "".join(f"({ei}, {e}), " for ei, e in effects)
        table.append(f"({si}, {ti}, f{k}, ({fx})), ")
    sums = ["0.0" + "".join(ts) for ts in terms]
    flows = [f"    {n} = {src.value(e)}" for n, e in exprs]
    src.stationary = True
    for n, e in exprs:
        src.function(n, e)
    src.env["_array"] = np.array
    src.lines += ["def rhs(t, y, h=None):", "    r = y.tolist()",
                  "    r.append(t)", *flows,
                  f"    return _array([{', '.join(sums)}])"]
    return (src.compile(f"rhs, ({''.join(table)})"),
            (names, slots, exprs, sums))


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
        hi = f"{n}c[k] + {'_qw' if odd else '_hw'} * ({n}v[k] + {x})" \
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
            else f"_hw * ({n}v[k - 1] + {n}v[k])"
        return (f"({n}v.append({x}) or {n}c.append({n}c[k - 1] + {add} "
                "if k else 0.0) or True)")


def _generate_step(diagram, history, budget, through=False):
    """Generate ``make(p, m, dt, h, _f, floor)`` once per structure, which
    gives a run at the values ``p`` (``_values``) its ``step(k, y)``: the
    list ``y`` at ``t = k * dt`` one step on, over Python floats, as the
    synchronous ``y + f(float(t))`` (``history`` True) or as RK4 unrolled
    per component, in the operations and order of a numpy RK4 over ``rhs``
    (``0.5 * dt``, ``y + c*k``, ``k1 + 2.0*k2 + 2.0*k3 + k4`` times ``dt /
    6.0``).  Each stage sets its row's locals and runs the flow lines and
    sums with ``_Indexed`` reads (or, ``through``, calls ``_f(t, y, h)``, an
    ``rhs`` swapped into a RateSystem, with the accessor ``h``), so every
    value is the one numpy and ``rhs`` give.  At ``t = (k + 1) * dt`` it
    raises NonFinite, ConservationDrift (the state total, summed left to
    right, off a positive N0 by over ``budget * N0``) or NegativePopulation
    (below ``floor``), in that order, then stores the row in ``m`` or ``h``.
    """
    names, slots, exprs, sums = _kernel_source(diagram)
    src = _Indexed(names, slots, history is True)
    ys = [f"y{i}" for i in range(len(sums))]
    lines = ["def step(k, y):", f"    [{', '.join(ys)}] = y",
             "    t = float(k * dt)"]
    # per stage: each component's offset from y, the time, its history's at
    stages, last = [("", "t", ("k", False, False))], " + k1_{}"
    if history is not True:
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
    if through and history is not None:
        lines.append(f"    h.append([{', '.join(ys)}])")
    else:
        lines += [f"    o = (k + 1) * {len(ys)}",
                  *(f"    m[o + {i}] = {y}" for i, y in enumerate(ys))]
    cap = f"{src._literal(budget)} * {n0} if {n0} > 0 else _inf"
    src.lines += ["c = 0.5 * dt", "c6 = dt / 6.0",
                  f"_r0 = m[:{len(ys)}].tolist()", "_hw = 0.5 * dt",
                  "_qw = 0.25 * dt", f"_cap = {cap}", *lines,
                  f"    return [{', '.join(ys)}]"]
    src.env.update(_isfinite=math.isfinite, _NonFinite=NonFinite,
                   _Drift=ConservationDrift, _Negative=NegativePopulation,
                   _arr=array, _array=np.array, _inf=math.inf)
    return src.compile("step", "_p, m, dt, h, _f, _floor")


def compile_rhs(diagram):
    """Compile a valid diagram into a RateSystem.

    For each state k: dn_k/dt = sum(incoming rates) - sum(outgoing rates);
    environment counters evolve by declared effects times transition flows.
    """
    flavor, delays, _ = gate(diagram)
    return RateSystem(diagram, flavor, rate_kernel(diagram)[0], delays)
