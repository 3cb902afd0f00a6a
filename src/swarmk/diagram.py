"""Macroscopic state diagrams and their compilation into rate systems.

A diagram lists agent states with initial counts, environment counters,
parameters, and transitions.  Compilation follows the state-diagram
recipe: one dynamic variable per state, and every transition contributes
one outgoing term to its source and one incoming term to its target.
Environment counters evolve only through declared per-flow effects.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ConservationDrift, EvalError, ModelError,
                     NegativePopulation, NonFinite)
from .expr import (Neg, Source, delay_windows, eval_expr, format_number,
                   free_names, has_history_terms, unparse)


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

    def base_bindings(self):
        b = dict(self.params)
        b["N0"] = self.n0
        return b

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
                v = eval_expr(e, params)
            except EvalError as exc:
                raise ValueError(f"{name} cannot be evaluated: {exc}") from None
            v = check_param(name, v, self.domains.get(name))
            (params if name in params else inits)[name] = v
        return replace(self, params=params, derived=derived,
                       states=tuple((n, inits[n]) for n, _ in self.states),
                       env_vars=tuple((n, inits[n]) for n, _ in self.env_vars))

    def with_state_init(self, **inits):
        """The diagram with initial state counts set (and pinned)."""
        states = tuple((n, inits.get(n, v)) for n, v in self.states)
        derived = tuple(d for d in self.derived if d[0] not in inits)
        return replace(self, states=states, derived=derived)


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

    @property
    def state_names(self):
        return self.diagram.state_names

    @property
    def env_names(self):
        return self.diagram.env_names


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
    ``t``.  The validation sampler reads this table; the mean-field
    ``rhs``, the integrators' step and the configuration chain inline the
    same expressions from the kernel's Source.
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
    return _kept(diagram, "_rate_kernel", _generate_kernel)[:2]


def _kernel_source(diagram):
    """``(Source, (name, tree) pairs, component sums)`` kept with the
    diagram's rate kernel, for the code generated from it."""
    return _kept(diagram, "_rate_kernel", _generate_kernel)[2]


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
    The names, trees and sums are kept with the source, for ``_generate_step``.
    """
    states = {n: i for i, n in enumerate(diagram.state_names)}
    env = {n: i for i, n in enumerate(diagram.env_names, len(states))}
    slots = {"t": len(states) + len(env), **states, **env}
    src = Source(diagram.base_bindings(), slots)
    exprs = []  # (flow or effect name, tree), in transition order
    # per component, its signed terms in transition order
    terms = [[] for _ in range(len(states) + len(env))]
    rows = []  # (source, target, rate name, ((env index, effect name), ...))
    for k, tr in enumerate(diagram.transitions):
        si, ti = states[tr.source], states[tr.target]
        names = [f"f{k}", *(f"e{k}_{j}" for j in range(len(tr.env_effects)))]
        exprs += zip(names, tr.exprs)
        if si != ti:
            terms[si].append(f" - f{k}")
            terms[ti].append(f" + f{k}")
        effects = [(env[n], e) for (n, _), e in zip(tr.env_effects, names[1:])]
        for ei, e in effects:
            terms[ei].append(f" + {e} * f{k}")
        rows.append((si, ti, f"f{k}", effects))
    sums = ["0.0" + "".join(ts) for ts in terms]
    flows = [f"    {n} = {src.function(n, e)}" for n, e in exprs]
    src.env["_array"] = np.array
    src.lines += ["def rhs(t, y, h=None):", "    r = y.tolist()",
                  "    r.append(t)", *flows,
                  f"    return _array([{', '.join(sums)}])"]
    ns = src.compile()
    table = tuple((si, ti, ns[rate], tuple((ei, ns[e]) for ei, e in effects))
                  for si, ti, rate, effects in rows)
    return ns["rhs"], table, (src, exprs, sums)


class _Indexed(Source):
    """Source of a run's fused step, with HistoryAccessor's numbers: reads
    index rows in ``m``, a flat view of the output array, and integrands
    keep values and running integrals in arrays.  A lag is L whole steps,
    so a read is at row ``k - L + c``; ``at`` is ``(row, odd, over)``: the
    row's source, half a step on or not, and an RK4 stage past row ``k``
    or not.  ``run`` gets the lines run once a run: lags in steps, and each
    integrand's arrays and ``{name}x(k)``, which extends them to row k."""

    def __init__(self, consts, slots, discrete):
        super().__init__(consts, slots)
        self.width, self.discrete = slots["t"], discrete
        self.at, self.run, self._names = ("k", False, False), [], {}

    def _name(self, key, lines):
        """The per-run name of ``key``; its ``lines(name)`` are added once."""
        if key not in self._names:
            self._names[key] = name = self._fresh("_n")
            self.run += lines(name)
        return self._names[key]

    def _value_at(self, at, e):
        saved, self.at = self.at, at
        x, self.at = self.value(e), saved
        return x

    def _row(self, a, odd, e, t):
        """Row ``a``, or half a step on, at time ``t``: slots ``e`` reads."""
        n, o = self.width, self._fresh("_o")
        cells, at = ["0.0"] * n, f"({o} := ({a}) * {n})"
        for j in sorted({self.slots[s] for s in free_names(e)
                         if s in self.slots} - {n}):
            cells[j] = (f"0.5 * m[{at} + {j}] + 0.5 * m[{o} + {j + n}]"
                        if odd else f"m[{at} + {j}]")
            at = o
        return f"[{', '.join(cells)}, {t}]"

    def _past(self, e, x, v, w, t):
        # at or before 0, a read is row 0, a running integral t * vals[0]
        (a, odd, over), arg = self.at, e.args[0]
        lag = self._name(("lag", w), lambda n: [f"{n} = round({w} / dt)"])
        b, q = f"{a} - {lag}", self._fresh()
        if e.func == "delay":
            # a delayed expression is fn(its row, at row a, in step k)
            fn = self._function_of(self._value_at(("a", odd, False), arg),
                                   "r, a, k")
            return (f"{fn}(_r0 + [{q}] if ({q} := {t} - {v}) <= 0.0 "
                    f"else {self._row(b, odd, arg, q)}, {b}, k)")
        n = self._name(("histint", unparse(arg)),
                       lambda n: self._integrand(n, arg))
        hi = f"{n}c[k] + {'_qw' if odd else '_hw'} * ({n}v[k] + {x})" \
            if over else self._running(n, a, odd)
        return (f"(({t} * {n}v[0] if {t} <= 0.0 else {hi}) - ({q} * {n}v[0] "
                f"if ({q} := {t} - {v}) <= 0.0 else {self._running(n, b, odd)})"
                f" if len({n}v) > k or {n}x(k) else 0.0)")

    def _running(self, n, a, odd):
        """Running integral of integrand ``n`` at row ``a`` or half on."""
        return (f"{n}c[(_i := {a})] + _qw * ({n}v[_i] + (0.5 * {n}v[_i] "
                f"+ 0.5 * {n}v[_i + 1]))" if odd else f"{n}c[{a}]")

    def _integrand(self, n, arg):
        add = f"{n}v[k - 1]" if self.discrete \
            else f"_hw * ({n}v[k - 1] + {n}v[k])"
        return [f"{n}v, {n}c = _arr('d'), _arr('d')",
                f"def {n}x(k): r = {self._row('k', False, arg, 'float(k * dt)')}"
                f"; {n}v.append({self._value_at(('k', False, False), arg)})"
                f"; {n}c.append({n}c[k - 1] + {add} if k else 0.0); return True"]


def _generate_step(diagram, history, budget, floor, through=False):
    """Generate ``make(m, dt, h=None, _f=None)``, which gives a run its
    ``step(k, y)``: the list ``y`` at ``t = k * dt`` one step on, over
    Python floats, as the synchronous ``y + f(float(t))`` (``history``
    True) or as RK4 unrolled per component, in the operations and order of
    a numpy RK4 over ``rhs`` (``0.5 * dt``, ``y + c*k``, ``k1 + 2.0*k2 +
    2.0*k3 + k4`` times ``dt / 6.0``).  Each stage runs the flow lines and
    sums over its row ``r`` with ``_Indexed`` reads (or, ``through``, calls
    ``_f(t, y, h)``, an ``rhs`` swapped into a RateSystem, with the accessor
    ``h``), so every value is the one numpy and ``rhs`` give.
    At ``t = (k + 1) * dt`` it raises NonFinite, ConservationDrift (the
    state total, summed left to right, off N0 by over ``budget * N0``) or
    NegativePopulation (below ``floor``), checked in that order, then
    stores the row in ``m`` (or ``h``)."""
    ksrc, exprs, sums = _kernel_source(diagram)
    src = _Indexed(ksrc.consts, ksrc.slots, history is True)
    ys = [f"y{i}" for i in range(len(sums))]
    lines = ["def step(k, y):", f"    [{', '.join(ys)}] = y", "    t = k * dt"]
    # per stage: each component's offset from y, the time, its history's at
    if history is True:
        stages, last = [("", "float(t)", ("k", False, False))], " + k1_{}"
    else:
        stages = [("", "t", ("k", False, False)),
                  (" + c * k1_{}", "t + c", ("k", True, True)),
                  (" + c * k2_{}", "t + c", ("k", True, True)),
                  (" + dt * k3_{}", "t + dt", ("k + 1", False, True))]
        last = " + c6 * (k1_{0} + 2.0 * k2_{0} + 2.0 * k3_{0} + k4_{0})"
    for s, (offset, t, at) in enumerate(stages, 1):
        row = "".join(f"{y}{offset.format(i)}, " for i, y in enumerate(ys))
        ks = [f"k{s}_{i}" for i in range(len(ys))]
        if through:
            lines.append(f"    [{', '.join(ks)}] = "
                         f"_f({t}, _array([{row}]), h).tolist()")
        else:
            src.at = at
            lines += [f"    r = [{row}{t}]",
                      *(f"    {n} = {src.value(e)}" for n, e in exprs),
                      *(f"    {k} = {d}" for k, d in zip(ks, sums))]
    lines += [f"    {y} = {y}{last.format(i)}" for i, y in enumerate(ys)]
    finite = " and ".join(f"_isfinite({y})" for y in ys) or "True"
    lines += ["    t = (k + 1) * dt", f"    if not ({finite}):",
              "        raise _NonFinite(t)"]
    states, n0 = ys[:len(diagram.states)], diagram.n0
    if n0 > 0:
        cap = src._literal(budget * n0)
        lines += [f"    d = abs({' + '.join(states)} - {src._literal(n0)})",
                  f"    if d > {cap}:", f"        raise _Drift(t, d, {cap})"]
    for y, name in zip(states, diagram.state_names):
        lines += [f"    if {y} < {src._literal(floor)}:",
                  f"        raise _Negative(t, {name!r}, {y})"]
    if through and history is not None:
        lines.append(f"    h.append([{', '.join(ys)}])")
    else:
        lines += [f"    o = (k + 1) * {len(ys)}",
                  *(f"    m[o + {i}] = {y}" for i, y in enumerate(ys))]
    per_run = ["c = 0.5 * dt", "c6 = dt / 6.0", f"_r0 = m[:{len(ys)}].tolist()",
               "_hw = 0.5 * dt", "_qw = 0.25 * dt", *src.run, *src.lines]
    src.lines = ["def make(m, dt, h=None, _f=None):",
                 *(f"    {line}" for line in per_run + lines),
                 f"        return [{', '.join(ys)}]", "    return step"]
    src.env.update(_isfinite=math.isfinite, _NonFinite=NonFinite,
                   _Drift=ConservationDrift, _Negative=NegativePopulation,
                   _arr=array, _array=np.array)
    return src.compile()["make"]


def compile_rhs(diagram):
    """Compile a valid diagram into a RateSystem.

    For each state k: dn_k/dt = sum(incoming rates) - sum(outgoing rates);
    environment counters evolve by declared effects times transition flows.
    """
    flavor, delays, _ = gate(diagram)
    return RateSystem(diagram, flavor, rate_kernel(diagram)[0], delays)
