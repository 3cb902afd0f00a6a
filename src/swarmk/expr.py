"""Expression trees for transition-rate formulas.

An expression may reference parameter names, state counts, environment
counters, the reserved names ``t`` (current time) and ``N0`` (declared
conserved total), and the special forms

* ``delay(x, d)``   -- x evaluated at time t - d,
* ``histint(x, w)`` -- integral of x over [t - w, t] (a window sum of the
  last w steps for discrete-step systems),
* ``step(x)``       -- Heaviside step, 0 for x < 0 else 1.

``delay``/``histint`` second arguments must be constant expressions of
parameters only, so the maximum delay is known before integration starts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import EvalError

UNARY_CALLS = ("exp", "ln", "step")
BINARY_CALLS = ("delay", "histint")


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


class EvalContext:
    """An evaluation row (the values of the slot names, by slot index)
    plus, for delayed terms, a history accessor.

    ``history`` must provide ``bindings_at(t)`` (the evaluation row at
    ``t``) and ``window_integral(key, fn, t_lo, t_hi, now)`` (the integral
    of ``fn`` over [t_lo, t_hi]; ``now`` is the caller's context); only
    ``delay``/``histint`` nodes consult it.
    """

    __slots__ = ("row", "history")

    def __init__(self, row, history=None):
        self.row = row
        self.history = history


def _need_history(e):
    raise EvalError(f"history required to evaluate {unparse(e)}")


def compile_expr(e, consts, slots):
    """Compile an expression tree into a closure ``fn(ctx) -> float``.

    Names are resolved once, here: a name in ``slots`` (name -> index)
    reads ``ctx.row[index]``, else a name in ``consts`` (name -> value) is
    folded in, else evaluating it raises an unbound ``EvalError``.
    """
    def sub(x):
        return compile_expr(x, consts, slots)

    if isinstance(e, Num):
        v = float(e.value)
        return lambda ctx: v
    if isinstance(e, Name):
        ident = e.ident
        if ident in slots:
            i = slots[ident]
            return lambda ctx: ctx.row[i]
        if ident in consts:
            v = consts[ident]
            return lambda ctx: v
        def unbound_fn(ctx):
            raise EvalError(f"unbound identifier {ident}")
        return unbound_fn
    if isinstance(e, Neg):
        f = sub(e.operand)
        return lambda ctx: -f(ctx)
    if isinstance(e, BinOp):
        lf = sub(e.left)
        rf = sub(e.right)
        op = e.op
        if op == "+":
            return lambda ctx: lf(ctx) + rf(ctx)
        if op == "-":
            return lambda ctx: lf(ctx) - rf(ctx)
        if op == "*":
            return lambda ctx: lf(ctx) * rf(ctx)
        if op == "/":
            def div_fn(ctx):
                d = rf(ctx)
                if d == 0.0:
                    raise EvalError("division by zero")
                return lf(ctx) / d
            return div_fn
        raise EvalError(f"unknown operator {op}")
    if isinstance(e, Call):
        if e.func not in UNARY_CALLS + BINARY_CALLS:
            raise EvalError(f"unknown function {e.func}")
        f = sub(e.args[0])
        if e.func == "exp":
            def exp_fn(ctx):
                x = f(ctx)
                try:
                    return math.exp(x)
                except OverflowError:
                    raise EvalError(f"exp overflows at {x!r}") from None
            return exp_fn
        if e.func == "ln":
            def ln_fn(ctx):
                x = f(ctx)
                if x <= 0.0:
                    raise EvalError(f"ln of non-positive value {x!r}")
                return math.log(x)
            return ln_fn
        if e.func == "step":
            return lambda ctx: 0.0 if f(ctx) < 0.0 else 1.0
        # the lag or window, and t: t is read only when the history is
        # consulted, so a zero lag or window needs no time
        w_fn, t_fn = sub(e.args[1]), sub(Name("t"))
        if e.func == "delay":
            def delay_fn(ctx):
                lag = w_fn(ctx)
                if lag == 0.0:
                    return f(ctx)
                if ctx.history is None:
                    _need_history(e)
                past = ctx.history.bindings_at(t_fn(ctx) - lag)
                return f(EvalContext(past, ctx.history))
            return delay_fn
        key = unparse(e.args[0])
        def histint_fn(ctx):
            w = w_fn(ctx)
            if w == 0.0:
                return 0.0
            if ctx.history is None:
                _need_history(e)
            t_now = t_fn(ctx)
            return ctx.history.window_integral(key, f, t_now - w, t_now, ctx)
        return histint_fn
    raise EvalError(f"cannot compile {e!r}")


def eval_expr(e, bindings):
    """Evaluate ``e`` with every binding (name -> value) as a constant;
    a delay/histint term with nonzero lag fails, as there is no history."""
    return compile_expr(e, bindings, {})(EvalContext(()))


def nodes(e):
    """Every node of the tree in pre-order: a node before its children,
    children left to right."""
    yield e
    if isinstance(e, Neg):
        yield from nodes(e.operand)
    elif isinstance(e, BinOp):
        yield from nodes(e.left)
        yield from nodes(e.right)
    elif isinstance(e, Call):
        for a in e.args:
            yield from nodes(a)


def free_names(e):
    """All identifiers referenced by the expression (excluding call names)."""
    return {n.ident for n in nodes(e) if isinstance(n, Name)}


def delay_windows(e):
    """Second arguments of every delay/histint call in the tree."""
    return [n.args[1] for n in nodes(e)
            if isinstance(n, Call) and n.func in BINARY_CALLS]


def has_history_terms(e):
    return bool(delay_windows(e))


def format_number(v):
    """Shortest source form of a number: integral values without a
    decimal point, others as the float's repr."""
    if float(v) == int(v) and abs(v) < 1e16:
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
