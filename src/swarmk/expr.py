"""Expression trees for transition-rate formulas.

An expression may reference parameter names, state counts, environment
counters, the reserved names ``t`` (current time) and ``N0`` (the conserved
total, the sum of the initial state counts), and the special forms

* ``delay(x, d)``   -- x evaluated at time t - d,
* ``histint(x, w)`` -- integral of x over [t - w, t] (a window sum of the
  last w steps for discrete-step systems),
* ``step(x)``       -- Heaviside step, 0 for x < 0 else 1.

``delay``/``histint`` second arguments must be constant expressions of
parameters only, so the maximum delay is known before integration starts.

Trees are evaluated through generated Python source (``Source``), compiled
once per tree or per diagram structure (``diagram.rate_kernel``) and bound
to parameter values.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from .errors import EvalError

UNARY_CALLS = ("exp", "ln", "step")
BINARY_CALLS = ("delay", "histint")
# levels the parser admits in a tree, and factors nested in one another:
# generated code takes up to 4 brackets a level (a fused-step histint), so
# it stays inside CPython's 200, and every recursive walk far from its limit
MAX_DEPTH = 40
# delay/histint calls one path may nest: a run's generated step writes each
# level's argument out about three times, so its source triples per level
MAX_HISTORY = 4


@dataclass(frozen=True)
class Expr:
    line: Optional[int] = field(default=None, compare=False, kw_only=True)
    col: Optional[int] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Num(Expr):
    value: float = 0.0


@dataclass(frozen=True)
class Name(Expr):
    ident: str = ""


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr = None


@dataclass(frozen=True)
class BinOp(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Call(Expr):
    func: str = ""
    args: tuple = ()


_EXP_MAX = math.log(sys.float_info.max)  # exp of a larger float overflows


def _fail(message):
    raise EvalError(message)


class Source:
    """Python source generated from expression trees and compiled.

    Each tree becomes one Python expression over an evaluation row ``r``
    (a list) and, for delayed terms, a history ``h``.  Names are resolved
    here: a name in ``slots`` (name -> index) reads ``r[index]``, else one
    of ``names`` (the parameters, in order) reads ``_p{i}``, its value in
    the tuple ``_p`` that ``compile``'s ``bind`` takes, else evaluating it
    raises the unbound ``EvalError``.  Every operation is the one the tree
    names, on the same operands, so results match a direct evaluation of
    the tree bit for bit.  Python evaluates operands left to right and a
    conditional's test first, so the checks (a divisor, ``exp`` or ``ln``
    argument or lag tested before use, ``_fail``) run in the order a
    recursive evaluation reaches them: the first failure is the same too.

    The history ``h`` must provide ``bindings_at(t)`` (the evaluation row
    at ``t``) and ``window_integral(key, fn, t_lo, t_hi, now)`` (the
    integral of the generated integrand ``fn(r, h)`` over [t_lo, t_hi];
    ``now`` is the caller's row).  Both are looked up at each call, so a
    replacement of either on the history's class takes effect in ``rhs``,
    not in a run's step (``integrate._Indexed``) or a ``stationary`` read.
    """

    def __init__(self, names, slots):
        names = list(names)
        self.names = {n: i for i, n in enumerate(names)}
        self._unpack = "".join(f"_p{i}, " for i in range(len(names)))
        self.slots = slots
        self.row = [f"r[{i}]" for i in range(len(slots))]  # slot sources
        self.lines = []
        self.fixed = {}  # source -> name of a value bind computes first
        self.env = {"_fail": _fail, "_e": math.exp, "_log": math.log,
                    "_EXP_MAX": _EXP_MAX, "_inf": math.inf}
        self.stationary = False  # delayed terms read the row as their past
        self._functions = {}  # expression source -> generated function name
        self._count = 0

    def _fresh(self, stem="_v"):
        self._count += 1
        return f"{stem}{self._count}"

    def _literal(self, v):
        """Source for the float ``v``: a literal where one reads back as the
        very same value, else a name bound to it."""
        if math.isfinite(v):
            s = repr(v)
            return f"({s})" if s.startswith("-") else s
        name = self._fresh("_c")
        self.env[name] = v
        return name

    def _fixed(self, e):
        """Whether ``e``, a value ``bind`` can compute once, cannot fail:
        a sum, difference, product or negation of numbers and parameters."""
        return self.fixed is not None and all(
            isinstance(n, (Num, Neg)) or isinstance(n, BinOp)
            and n.op in ("+", "-", "*") or isinstance(n, Name)
            and n.ident in self.names and n.ident not in self.slots
            for n in nodes(e))

    def _bound(self, x):  # the name of x, which bind computes once
        return self.fixed.setdefault(x, f"_k{len(self.fixed)}")

    def value(self, e, prec=0):
        """Source of one expression for ``e`` over the row ``r``; ``prec``
        is the binding strength of the surrounding operator.  A ``_fixed``
        value is computed once, as the compiler folds literals, and read by
        name."""
        if isinstance(e, (Neg, BinOp)) and self._fixed(e):
            fixed, self.fixed = self.fixed, None  # the value, not its parts
            x, self.fixed = self.value(e), fixed
            return self._bound(x)
        if isinstance(e, Num):
            return self._literal(float(e.value))
        if isinstance(e, Name):
            if e.ident in self.slots:
                return self.row[self.slots[e.ident]]
            if e.ident in self.names:
                return f"_p{self.names[e.ident]}"
            return f"_fail({'unbound identifier ' + e.ident!r})"
        if isinstance(e, Neg):
            s = "-" + self.value(e.operand, 3)
            return f"({s})" if prec > 2 else s
        if isinstance(e, BinOp):
            if e.op not in _PREC:
                raise EvalError(f"unknown operator {e.op}")
            p = _PREC[e.op]
            if e.op == "/":
                # the divisor is tested first: by bind if fixed (which also
                # divides fixed values), else held
                right, fixed = self.value(e.right), self._fixed(e.right)
                test = f"{right} != 0.0"
                if fixed:
                    test = self._bound(test)
                else:
                    held, right = right, self._fresh()
                    test = f"({right} := {held}) != 0.0"
                x = f"{self.value(e.left, p)} / {right}"
                if fixed and self._fixed(e.left):
                    x = self._bound(f"{x} if {test} else 0.0")
                return f"({x} if {test} else _fail('division by zero'))"
            left = self.value(e.left, p)
            # operations associate to the left, so a right operand of
            # equal precedence keeps its parentheses
            right = self.value(e.right, p + 1)
            s = f"{left} {e.op} {right}"
            return f"({s})" if prec > p else s
        if isinstance(e, Call):
            return self._call(e)
        raise EvalError(f"cannot compile {e!r}")

    def _call(self, e):
        if e.func not in UNARY_CALLS + BINARY_CALLS:
            raise EvalError(f"unknown function {e.func}")
        arg = e.args[0]
        if e.func == "step":
            return self._share(f"(0.0 if {self.value(arg)} < 0.0 else 1.0)")
        if e.func in UNARY_CALLS:  # exp, ln: the argument held, then tested
            v, x = self._fresh(), self.value(arg)
            return (f"(_fail('exp overflows at ' + repr({v})) if _EXP_MAX < "
                    f"({v} := {x}) < _inf else _e({v}))" if e.func == "exp"
                    else f"(_fail('ln of non-positive value ' + repr({v})) "
                    f"if ({v} := {x}) <= 0.0 else _log({v}))")
        # delay and histint: the lag or window first (by bind if fixed); t is
        # read only from the history, so a zero lag or window needs no time
        w = self.value(e.args[1])
        v = w if self._fixed(e.args[1]) else self._fresh()
        zero = self._bound(f"{w} == 0.0") if v == w else f"({v} := {w}) == 0.0"
        x = self.value(arg)
        past = self._past(e, x, v, w, self.value(Name("t"), 1))
        now = x if e.func == "delay" else "0.0"
        return f"({now} if {zero} else {past})"

    def _share(self, x):  # a value the fused step may share between stages
        return x

    def _past(self, e, x, v, w, t):
        """Term ``e`` from history ``h``: ``x`` its argument, ``v`` its lag;
        ``stationary``, x with ``t - v`` for ``t`` (t last), or ``v * x``."""
        if self.stationary and e.func == "histint":
            return f"{v} * ({x})"
        if self.stationary:
            row, self.row = self.row, [*self.row[:-1], f"({t} - {v})"]
            x, self.row = self.value(e.args[0]), row
            return x
        fn, arg = self._function_of(x), e.args[0]
        past = (f"{fn}(h.bindings_at({t} - {v}), h)" if e.func == "delay" else
                f"h.window_integral({unparse(arg)!r}, {fn}, {t} - {v}, {t}, r)")
        msg = f"history required to evaluate {unparse(e)}"
        return f"{past} if h is not None else _fail({msg!r})"

    def _function_of(self, x):
        """The name of a generated function ``fn(r, h=None)`` that returns
        the expression ``x``: one per distinct source, so trees that print
        alike but differ in a signed zero keep their own."""
        if x not in self._functions:
            self._functions[x] = name = self._fresh("_f")
            self.lines.append(f"def {name}(r, h=None): return {x}")
        return self._functions[x]

    def compile(self, returns, args="_p"):
        """Compile the lines, once, over ``env``, into ``bind(args)``: it
        binds each name to its value in the tuple ``_p``, runs the lines
        and returns ``returns`` (source)."""
        body = [f"[{self._unpack}] = _p",
                *(f"{name} = {x}" for x, name in self.fixed.items()),
                *self.lines, f"return {returns}"]
        exec(compile(f"def bind({args}):\n" + "".join(
            f"    {line}\n" for line in body), "<rate kernel>", "exec"),
            self.env)
        return self.env.pop("bind")  # not kept in env: no cycle with it


def generate_function(e, consts, slots):
    """``e`` as one generated function ``fn(row, history=None)``, each name
    of ``consts`` bound to its value; names are resolved as in ``Source``."""
    src = Source(consts, slots)
    return src.compile(src._function_of(src.value(e)))(tuple(consts.values()))


def eval_expr(e, bindings):
    """Evaluate ``e`` with every binding (name -> value) bound to its name;
    a delay/histint term with nonzero lag fails, as there is no history."""
    return generate_function(e, bindings, {})(())


def _children(e):
    return (e.operand,) if isinstance(e, Neg) else (e.left, e.right) \
        if isinstance(e, BinOp) else e.args if isinstance(e, Call) else ()


def nodes(e):
    """Every node of the tree in pre-order: a node before its children,
    children left to right."""
    yield e
    for c in _children(e):
        yield from nodes(c)


def depth(e, calls=None):
    """The most nodes on one path from the root (a leaf is 1), or only the
    most calls to ``calls`` if given, counted level by level, so a tree of
    any depth is measured."""
    level, most = [(e, 0)], 0
    while level:
        below = []
        for x, k in level:
            if calls is None or isinstance(x, Call) and x.func in calls:
                k += 1
                if k > most:
                    most = k
            below += [(c, k) for c in _children(x)]
        level = below
    return most


_ARITY = {**dict.fromkeys(UNARY_CALLS, 1), **dict.fromkeys(BINARY_CALLS, 2)}


def malformed(e):
    """What ``Source`` cannot compile in ``e``, a message per node: an
    unknown operator or function, or a call with the wrong argument count.
    The parser builds none of these; a tree built in Python may."""
    found = []
    for n in nodes(e):
        if isinstance(n, BinOp) and n.op not in _PREC:
            found.append(f"unknown operator {n.op}")
        elif isinstance(n, Call) and n.func not in _ARITY:
            found.append(f"unknown function {n.func}")
        elif isinstance(n, Call) and len(n.args) != _ARITY[n.func]:
            found.append(f"{n.func} takes {_ARITY[n.func]} argument(s), "
                         f"got {len(n.args)}")
    return found


def free_names(e):
    """All identifiers referenced by the expression (excluding call names)."""
    return {n.ident for n in nodes(e) if isinstance(n, Name)}


def delay_windows(e):
    """Second arguments of every delay/histint call in the tree."""
    return [n.args[1] for n in nodes(e) if isinstance(n, Call)
            and n.func in BINARY_CALLS and len(n.args) == 2]


def format_number(v):
    """Shortest source form of a number: integral values without a
    decimal point, others (non-finite ones too) as the float's repr."""
    if math.isfinite(v) and float(v) == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def unparse(e):
    """Render the expression back to source form (parse(unparse(e)) == e)."""
    return _unparse(e, 0)


def _unparse(e, parent_prec):
    if isinstance(e, Num):
        return format_number(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Neg):
        s = "-" + _unparse(e.operand, 3)
        return f"({s})" if parent_prec > 2 else s
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        left = _unparse(e.left, prec)
        # parsing is left-associative, so a right child of equal precedence
        # must keep its parentheses for the tree to round-trip unchanged
        right = _unparse(e.right, prec + 1)
        s = f"{left} {e.op} {right}"
        return f"({s})" if parent_prec > prec else s
    if isinstance(e, Call):
        args = ", ".join(_unparse(a, 0) for a in e.args)
        return f"{e.func}({args})"
    raise ValueError(f"cannot unparse {e!r}")
