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
    """Bindings plus (optionally) a history accessor for delayed terms.

    ``history`` must provide ``bindings_at(t)`` and
    ``window_integral(key, fn, t0, t1, t_now, now_bindings)``; it is only
    consulted by ``delay``/``histint`` nodes.
    """

    __slots__ = ("bindings", "history")

    def __init__(self, bindings, history=None):
        self.bindings = bindings
        self.history = history


def _need_history(e):
    raise EvalError(f"history required to evaluate {unparse(e)}")


def compile_expr(e):
    """Compile an expression tree into a closure ``fn(ctx) -> float``."""
    if isinstance(e, Num):
        v = float(e.value)
        return lambda ctx: v
    if isinstance(e, Name):
        ident = e.ident
        def name_fn(ctx, ident=ident):
            try:
                return ctx.bindings[ident]
            except KeyError:
                raise EvalError(f"unbound identifier {ident}") from None
        return name_fn
    if isinstance(e, Neg):
        f = compile_expr(e.operand)
        return lambda ctx: -f(ctx)
    if isinstance(e, BinOp):
        lf = compile_expr(e.left)
        rf = compile_expr(e.right)
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
        if e.func == "exp":
            f = compile_expr(e.args[0])
            def exp_fn(ctx):
                x = f(ctx)
                try:
                    return math.exp(x)
                except OverflowError:
                    raise EvalError(f"exp overflows at {x!r}") from None
            return exp_fn
        if e.func == "ln":
            f = compile_expr(e.args[0])
            def ln_fn(ctx):
                x = f(ctx)
                if x <= 0.0:
                    raise EvalError(f"ln of non-positive value {x!r}")
                return math.log(x)
            return ln_fn
        if e.func == "step":
            f = compile_expr(e.args[0])
            return lambda ctx: 0.0 if f(ctx) < 0.0 else 1.0
        if e.func == "delay":
            inner = e.args[0]
            inner_fn = compile_expr(inner)
            lag_fn = compile_expr(e.args[1])
            def delay_fn(ctx):
                lag = lag_fn(ctx)
                if lag == 0.0:
                    return inner_fn(ctx)
                if ctx.history is None:
                    _need_history(e)
                t_now = ctx.bindings["t"]
                past = ctx.history.bindings_at(t_now - lag)
                return inner_fn(EvalContext(past, ctx.history))
            return delay_fn
        if e.func == "histint":
            inner = e.args[0]
            inner_fn = compile_expr(inner)
            win_fn = compile_expr(e.args[1])
            key = unparse(inner)
            def histint_fn(ctx):
                w = win_fn(ctx)
                if w == 0.0:
                    return 0.0
                if ctx.history is None:
                    _need_history(e)
                t_now = ctx.bindings["t"]
                return ctx.history.window_integral(
                    key, inner_fn, t_now - w, t_now, ctx.bindings
                )
            return histint_fn
        raise EvalError(f"unknown function {e.func}")
    raise EvalError(f"cannot compile {e!r}")


def eval_expr(e, bindings, history=None):
    """Evaluate ``e`` under ``bindings``; ``history`` is needed iff the
    expression contains delay/histint with nonzero lag."""
    return compile_expr(e)(EvalContext(bindings, history))


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
