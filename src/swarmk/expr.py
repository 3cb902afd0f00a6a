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

Trees are evaluated through generated Python source (``Source``): one
function per tree, or one kernel per diagram (``diagram.rate_kernel``),
compiled once.
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


class Source:
    """Python source generated from expression trees and compiled once.

    Each generated function reads one evaluation row ``r`` (a list) and,
    for delayed terms, a history ``h``.  Names are resolved here: a name in
    ``slots`` (name -> index) reads ``r[index]``, else a name in ``consts``
    (name -> value) is folded into the source, else evaluating it raises
    the unbound ``EvalError``.  Every operation is the one the tree names,
    on the same operands, so results match a direct evaluation of the tree
    bit for bit.  The operations that can fail (``/``, ``exp``, ``ln``) and
    the history reads (``delay``, ``histint``) become statements, emitted
    in the order a recursive evaluation reaches them, so the first failure
    and its message are the same too.

    The history ``h`` must provide ``bindings_at(t)`` (the evaluation row
    at ``t``) and ``window_integral(key, fn, t_lo, t_hi, now)`` (the
    integral of the generated integrand ``fn(r, h)`` over [t_lo, t_hi];
    ``now`` is the caller's row).  Both are looked up on ``h`` at each
    call, so a replacement of either on the history's class takes effect.
    """

    def __init__(self, consts, slots):
        self.consts = consts
        self.slots = slots
        self.lines = []
        self.env = {"EvalError": EvalError, "_exp": math.exp,
                    "_log": math.log}
        self._integrands = {}  # histint key -> integrand function name
        self._count = 0

    def _fresh(self, stem="_v"):
        self._count += 1
        return f"{stem}{self._count}"

    def _literal(self, v):
        """Source for the constant ``v``: a literal where one reads back as
        the very same value, else a name bound to it."""
        if type(v) is int or (type(v) is float and math.isfinite(v)):
            s = repr(v)
            return f"({s})" if s.startswith("-") else s
        name = self._fresh("_c")
        self.env[name] = v
        return name

    def _operand(self, e, row, body, pad):
        """Source for ``e`` that may be read more than once: a leaf as it
        is, anything else held in a local."""
        x = self.value(e, row, body, pad)
        if isinstance(e, (Num, Name)):
            return x
        v = self._fresh()
        body.append(f"{pad}{v} = {x}")
        return v

    def value(self, e, row, body, pad, prec=0):
        """Source of an expression for ``e`` over the row named ``row``.
        Statements it needs first go to ``body``, indented by ``pad``;
        ``prec`` is the binding strength of the surrounding operator."""
        if isinstance(e, Num):
            return self._literal(float(e.value))
        if isinstance(e, Name):
            if e.ident in self.slots:
                return f"{row}[{self.slots[e.ident]}]"
            if e.ident in self.consts:
                return self._literal(self.consts[e.ident])
            msg = f"unbound identifier {e.ident}"
            body.append(f"{pad}raise EvalError({msg!r})")
            return "None"
        if isinstance(e, Neg):
            s = "-" + self.value(e.operand, row, body, pad, 3)
            return f"({s})" if prec > 2 else s
        if isinstance(e, BinOp):
            if e.op not in _PREC:
                raise EvalError(f"unknown operator {e.op}")
            p = _PREC[e.op]
            if e.op == "/":
                # the divisor first: it is checked before the dividend
                right = self._operand(e.right, row, body, pad)
                body += [f"{pad}if {right} == 0.0:",
                         f"{pad}    raise EvalError('division by zero')"]
                left = self.value(e.left, row, body, pad, p)
            else:
                left = self.value(e.left, row, body, pad, p)
                # operations associate to the left, so a right operand of
                # equal precedence keeps its parentheses
                right = self.value(e.right, row, body, pad, p + 1)
            s = f"{left} {e.op} {right}"
            return f"({s})" if prec > p else s
        if isinstance(e, Call):
            return self._call(e, row, body, pad)
        raise EvalError(f"cannot compile {e!r}")

    def _call(self, e, row, body, pad):
        if e.func not in UNARY_CALLS + BINARY_CALLS:
            raise EvalError(f"unknown function {e.func}")
        arg = e.args[0]
        if e.func == "step":
            return f"(0.0 if {self.value(arg, row, body, pad)} < 0.0 else 1.0)"
        if e.func == "exp":
            x = self._operand(arg, row, body, pad)
            v = self._fresh()
            body += [f"{pad}try:",
                     f"{pad}    {v} = _exp({x})",
                     f"{pad}except OverflowError:",
                     f"{pad}    raise EvalError(f'exp overflows at {{{x}!r}}')"
                     " from None"]
            return v
        if e.func == "ln":
            x = self._operand(arg, row, body, pad)
            body += [f"{pad}if {x} <= 0.0:",
                     f"{pad}    raise EvalError("
                     f"f'ln of non-positive value {{{x}!r}}')"]
            return f"_log({x})"
        # delay and histint: the lag or window first; t is read only when
        # the history is consulted, so a zero lag or window needs no time
        w = self._operand(e.args[1], row, body, pad)
        v, inner = self._fresh(), pad + "    "
        body.append(f"{pad}if {w} == 0.0:")
        if e.func == "delay":
            x = self.value(arg, row, body, inner)
            body.append(f"{inner}{v} = {x}")
        else:
            body.append(f"{inner}{v} = 0.0")
        msg = f"history required to evaluate {unparse(e)}"
        body += [f"{pad}else:",
                 f"{inner}if h is None:",
                 f"{inner}    raise EvalError({msg!r})"]
        t = self.value(Name("t"), row, body, inner, 1)
        if e.func == "delay":
            past = self._fresh("_p")
            body.append(f"{inner}{past} = h.bindings_at({t} - {w})")
            x = self.value(arg, past, body, inner)
            body.append(f"{inner}{v} = {x}")
        else:
            key = unparse(arg)
            fn = self._integrands.get(key)
            if fn is None:
                fn = self._integrands[key] = self._fresh("_integrand")
                self.function(fn, arg)
            body.append(f"{inner}{v} = h.window_integral("
                        f"{key!r}, {fn}, {t} - {w}, {t}, {row})")
        return v

    def function(self, name, e):
        """Emit ``def name(r, h=None)``, which returns the value of ``e``."""
        body = []
        x = self.value(e, "r", body, "    ")
        self.lines += [f"def {name}(r, h=None):", *body, f"    return {x}"]

    def compile(self):
        """Compile the source once and return its namespace."""
        ns = dict(self.env)
        exec(compile("\n".join(self.lines) + "\n", "<rate kernel>", "exec"),
             ns)
        return ns


def generate_function(e, consts, slots):
    """``e`` as one generated function ``fn(row, history=None)``; names
    are resolved as in ``Source``."""
    src = Source(consts, slots)
    src.function("value", e)
    return src.compile()["value"]


def eval_expr(e, bindings):
    """Evaluate ``e`` with every binding (name -> value) as a constant;
    a delay/histint term with nonzero lag fails, as there is no history."""
    return generate_function(e, bindings, {})(())


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
