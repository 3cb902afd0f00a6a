"""Expression evaluation, generated source, and unparsing."""
import math

import pytest
from hypothesis import example, given, strategies as st

from swarmk.errors import EvalError
from swarmk.expr import (BinOp, Call, Name, Neg, Num, delay_windows,
                         eval_expr, free_names, generate_function, unparse)


def test_literals_and_names():
    assert eval_expr(Num(3.5), {}) == 3.5
    assert eval_expr(Name("x"), {"x": 2.0}) == 2.0
    # a slot takes precedence over a constant of the same name
    fn = generate_function(Name("x"), {"x": 100.0}, {"x": 0})
    assert fn([2.0]) == 2.0


def test_arithmetic():
    e = BinOp("+", BinOp("*", Num(2), Name("x")), Num(1))
    assert eval_expr(e, {"x": 3.0}) == 7.0
    assert eval_expr(Neg(Num(4)), {}) == -4.0
    assert eval_expr(BinOp("-", Num(1), Num(3)), {}) == -2.0
    assert eval_expr(BinOp("/", Num(1), Num(4)), {}) == 0.25


def test_unbound_name_raises():
    with pytest.raises(EvalError):
        eval_expr(Name("missing"), {})
    # generating succeeds; the name fails only when it is evaluated
    fn = generate_function(Name("zz"), {"x": 1.0}, {"y": 0})
    with pytest.raises(EvalError, match="unbound identifier zz"):
        fn([2.0])


def test_division_by_zero_raises():
    with pytest.raises(EvalError):
        eval_expr(BinOp("/", Num(1), Num(0)), {})


def test_parameter_arithmetic_is_bound_once_and_still_guarded():
    # k * 2 is computed when the function is bound, as a folded literal
    # was; a division by it still fails when it is evaluated, not before
    e = BinOp("/", Name("x"), BinOp("*", Name("k"), Num(2)))
    assert generate_function(e, {"k": 0.25}, {"x": 0})([3.0]) == 3.0 / 0.5
    fn = generate_function(e, {"k": 0.0}, {"x": 0})
    with pytest.raises(EvalError, match="division by zero"):
        fn([3.0])


def test_exp_ln_step():
    assert eval_expr(Call("exp", (Num(0),)), {}) == 1.0
    assert eval_expr(Call("ln", (Num(math.e),)), {}) == pytest.approx(1.0)
    assert eval_expr(Call("step", (Num(-0.1),)), {}) == 0.0
    assert eval_expr(Call("step", (Num(0.0),)), {}) == 1.0
    assert eval_expr(Call("step", (Num(2.0),)), {}) == 1.0
    with pytest.raises(EvalError):
        eval_expr(Call("ln", (Num(0),)), {})
    with pytest.raises(EvalError):
        eval_expr(Call("ln", (Num(-1),)), {})
    with pytest.raises(EvalError):
        eval_expr(Call("exp", (Num(1000),)), {})


def test_exp_refuses_exactly_where_math_exp_overflows():
    # exp refuses every float above _EXP_MAX: exp(_EXP_MAX) is finite and
    # exp of the next float overflows in math too
    from swarmk.expr import _EXP_MAX

    above = math.nextafter(_EXP_MAX, math.inf)
    assert math.isfinite(math.exp(_EXP_MAX))
    with pytest.raises(OverflowError):
        math.exp(above)
    assert eval_expr(Call("exp", (Num(_EXP_MAX),)), {}) == math.exp(_EXP_MAX)
    with pytest.raises(EvalError, match=f"^exp overflows at {above!r}$"):
        eval_expr(Call("exp", (Num(above),)), {})


def test_delay_zero_lag_uses_current_bindings():
    e = Call("delay", (Name("x"), Num(0)))
    assert eval_expr(e, {"x": 5.0, "t": 1.0}) == 5.0
    # t is read only when the history is: a zero lag needs no time
    assert eval_expr(Call("delay", (Num(2), Num(0))), {}) == 2.0


def test_histint_zero_window_is_zero():
    e = Call("histint", (Name("x"), Num(0)))
    assert eval_expr(e, {"x": 5.0, "t": 1.0}) == 0.0


def test_delay_without_history_raises():
    e = Call("delay", (Name("x"), Num(1)))
    with pytest.raises(EvalError):
        eval_expr(e, {"x": 5.0, "t": 1.0})


class _FlatHistory:
    """Past rows (x, t) all hold x = 7; window integrals use length * 7."""

    def bindings_at(self, t):
        return [7.0, t]

    def window_integral(self, key, fn, t0, t1, now):
        return 7.0 * (t1 - t0)


_XT = {"x": 0, "t": 1}


def test_delay_reads_history():
    e = Call("delay", (Name("x"), Num(2)))
    assert generate_function(e, {}, _XT)([1.0, 10.0], _FlatHistory()) == 7.0


def test_histint_reads_history():
    e = Call("histint", (Name("x"), Num(3)))
    value = generate_function(e, {}, _XT)([1.0, 10.0], _FlatHistory())
    assert value == pytest.approx(21.0)


def test_free_names():
    e = BinOp("*", Name("a"), Call("delay", (Name("b"), Name("tau"))))
    assert free_names(e) == {"a", "b", "tau"}


def test_delay_windows_and_history_flag():
    e = BinOp("*", Call("delay", (Name("x"), Num(2))),
              Call("histint", (Name("x"), Name("w"))))
    assert [unparse(w) for w in delay_windows(e)] == ["2", "w"]
    assert delay_windows(BinOp("+", Name("x"), Num(1))) == []


def test_unparse_writes_non_finite_numbers():
    assert unparse(Num(math.inf)) == "inf"
    assert unparse(BinOp("*", Num(-math.inf), Num(math.nan))) == "-inf * nan"


def test_unparse_precedence():
    e = BinOp("*", BinOp("+", Name("a"), Name("b")), Name("c"))
    assert unparse(e) == "(a + b) * c"
    e2 = BinOp("-", Name("a"), BinOp("-", Name("b"), Name("c")))
    assert unparse(e2) == "a - (b - c)"
    e3 = BinOp("/", Name("a"), BinOp("*", Name("b"), Name("c")))
    assert unparse(e3) == "a / (b * c)"
    e4 = Neg(BinOp("+", Name("a"), Name("b")))
    assert unparse(e4) == "-(a + b)"


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False).map(Num),
    st.sampled_from(["x", "y", "z"]).map(Name),
)


def _tree(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(*t)),
        children.map(Neg),
        children.map(lambda c: Call("exp", (Neg(c),))),
    )


_exprs = st.recursive(_leaf, _tree, max_leaves=12)


@given(_exprs)
def test_unparse_parse_round_trip(e):
    from swarmk.parser import _Parser, tokenize

    text = unparse(e)
    parsed = _Parser(tokenize(text)).parse_expr()
    assert parsed == e


@given(_exprs, st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
def test_unparse_preserves_value(e, v):
    bindings = {"x": v, "y": 2 * v, "z": 0.5, "t": 0.0}
    from swarmk.parser import _Parser, tokenize

    parsed = _Parser(tokenize(unparse(e))).parse_expr()
    try:
        expected = eval_expr(e, bindings)
    except EvalError:
        return
    if not math.isfinite(expected):
        return
    assert eval_expr(parsed, bindings) == expected
    # the same tree with x, y and t read from a row and z folded in
    slots = {"x": 0, "y": 1, "t": 2}
    fn = generate_function(e, {"z": bindings["z"]}, slots)
    assert fn([v, 2 * v, 0.0]) == expected


# -- the generated source against a direct evaluation ------------------------


class _TimedHistory:
    """A history whose past rows and window integrals depend on the time:
    slot k of the row at time t holds (k + 0.5) * t, and the last slot t."""

    def __init__(self, names):
        self.names = names  # the row's slot names, t last

    def bindings_at(self, t):
        return [(k + 0.5) * t for k in range(len(self.names) - 1)] + [t]

    def window_integral(self, key, fn, t_lo, t_hi, now):
        return (t_hi - t_lo) * (t_hi + 0.5)


def _reference(e, env, h=None):
    """Direct recursive evaluation of a tree over the bindings ``env`` and
    the history ``h`` (a _TimedHistory or None): the operations, their
    order (a divisor before its dividend; a lag or window, then the
    history, then ``t``) and the refusals of swarmk's rate semantics."""
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, Name):
        if e.ident not in env:
            raise EvalError(f"unbound identifier {e.ident}")
        return env[e.ident]
    if isinstance(e, Neg):
        return -_reference(e.operand, env, h)
    if isinstance(e, BinOp):
        if e.op == "/":
            d = _reference(e.right, env, h)
            if d == 0.0:
                raise EvalError("division by zero")
            return _reference(e.left, env, h) / d
        a = _reference(e.left, env, h)
        b = _reference(e.right, env, h)
        return {"+": a + b, "-": a - b, "*": a * b}[e.op]
    if e.func in ("delay", "histint"):
        lag = _reference(e.args[1], env, h)
        if lag == 0.0:
            return _reference(e.args[0], env, h) if e.func == "delay" else 0.0
        if h is None:
            raise EvalError(f"history required to evaluate {unparse(e)}")
        t = _reference(Name("t"), env, h)
        if e.func == "histint":
            return h.window_integral(None, None, t - lag, t, None)
        # the row at t - lag replaces the slots; folded constants stay
        past = dict(env, **dict(zip(h.names, h.bindings_at(t - lag))))
        return _reference(e.args[0], past, h)
    x = _reference(e.args[0], env, h)
    if e.func == "exp":
        try:
            return math.exp(x)
        except OverflowError:
            raise EvalError(f"exp overflows at {x!r}") from None
    if e.func == "ln":
        if x <= 0.0:
            raise EvalError(f"ln of non-positive value {x!r}")
        return math.log(x)
    return 0.0 if x < 0.0 else 1.0


def _outcome(fn):
    """The float a call returns, or the EvalError message it raises."""
    try:
        return fn()
    except EvalError as exc:
        return f"EvalError: {exc}"


def _same(a, b):
    """Equal bit for bit: the same float with the same sign (any NaN
    matches any NaN), or the same error message."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


_values = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, math.inf, -math.inf,
                     math.nan]))
# x and y are row slots, z a folded constant, w unbound
_oracle_leaf = st.one_of(_values.map(Num),
                         st.sampled_from("xyzw").map(Name))


def _arithmetic(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(*t)),
        children.map(Neg),
        st.tuples(st.sampled_from(["exp", "ln", "step"]), children).map(
            lambda t: Call(t[0], (t[1],))),
    )


def _history_terms(operands):
    return st.tuples(st.sampled_from(["delay", "histint"]), operands,
                     operands).map(lambda t: Call(t[0], t[1:]))


# history terms take finite literals: their refusal message prints the
# term, and printing non-finite numbers is pinned on its own
# (test_unparse_writes_non_finite_numbers); x, y and z still carry any value
_history_operands = st.recursive(
    st.one_of(st.floats(min_value=-1e3, max_value=1e3).map(Num),
              st.sampled_from("xyzw").map(Name)),
    lambda c: st.one_of(_arithmetic(c), _history_terms(c)), max_leaves=6)


def _oracle_tree(children):
    return st.one_of(_arithmetic(children), _history_terms(_history_operands))


_oracle_exprs = st.recursive(_oracle_leaf, _oracle_tree, max_leaves=16)


@given(_oracle_exprs, _values, _values, _values,
       st.one_of(st.none(), _values), st.booleans())
# a failing divisor is reached before a failing dividend
@example(BinOp("/", Name("w"), Num(0.0)), 1.0, 1.0, 1.0, None, False)
@example(BinOp("/", Call("ln", (Name("x"),)), Call("exp", (Name("y"),))),
         -1.0, 1e3, 1.0, None, False)
# a lag is checked first, then the history, then t is read
@example(Call("delay", (Name("x"), Num(1.0))), 1.0, 1.0, 1.0, None, False)
@example(Call("delay", (Name("x"), Num(1.0))), 1.0, 1.0, 1.0, None, True)
@example(Call("delay", (Name("x"), Call("ln", (Num(0.0),)))),
         1.0, 1.0, 1.0, 2.0, True)
@example(Call("histint", (Name("x"), Num(0.0))), 1.0, 1.0, 1.0, None, False)
# exp and ln pass non-finite arguments through (exp(-inf) is 0.0); ln
# refuses -0.0
@example(Call("exp", (Name("x"),)), math.nan, 1.0, 1.0, None, False)
@example(Call("exp", (Name("x"),)), math.inf, 1.0, 1.0, None, False)
@example(Call("exp", (Name("x"),)), -math.inf, 1.0, 1.0, None, False)
@example(Call("ln", (Name("x"),)), math.nan, 1.0, 1.0, None, False)
@example(Call("ln", (Name("x"),)), math.inf, 1.0, 1.0, None, False)
@example(Call("ln", (Name("x"),)), -0.0, 1.0, 1.0, None, False)
def test_generated_source_matches_direct_evaluation(e, x, y, z, t, history):
    # x, y and (when drawn) t are row slots, z a folded constant
    slots = {"x": 0, "y": 1} if t is None else {"x": 0, "y": 1, "t": 2}
    env = dict(zip(slots, (x, y, t)), z=z)
    h = _TimedHistory(list(slots)) if history else None
    fn = generate_function(e, {"z": z}, slots)
    assert _same(_outcome(lambda: fn([env[n] for n in slots], h)),
                 _outcome(lambda: _reference(e, env, h)))
    # eval_expr folds every binding in and reads no history
    assert _same(_outcome(lambda: eval_expr(e, env)),
                 _outcome(lambda: _reference(e, env)))


@given(st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from("xy"),
                          _oracle_exprs, st.lists(_oracle_exprs, max_size=1)),
                min_size=1, max_size=4),
       _values, _values, _values, _values, st.booleans())
def test_generated_rhs_matches_direct_evaluation(moves, x, y, z, t, history):
    # states x and y and env counter z are row slots, then t; w is a
    # parameter; each component is a sum from 0.0 in transition order
    import numpy as np

    from swarmk.diagram import StateDiagram, Transition, rate_kernel

    transitions = tuple(
        Transition(src, dst, rate, tuple(("z", eff) for eff in effects))
        for src, dst, rate, effects in moves)
    d = StateDiagram(states=(("x", 1.0), ("y", 0.0)), env_vars=(("z", 0.0),),
                     params={"w": -1.5}, transitions=transitions)
    env = {"x": x, "y": y, "z": z, "t": t, "w": -1.5}
    h = _TimedHistory(["x", "y", "z", "t"]) if history else None

    def direct():
        acc = [0.0, 0.0, 0.0]
        for tr in transitions:
            flow = _reference(tr.rate, env, h)
            if tr.source != tr.target:
                acc["xy".index(tr.source)] -= flow
                acc["xy".index(tr.target)] += flow
            for _, eff in tr.env_effects:
                acc[2] += _reference(eff, env, h) * flow
        return acc

    rhs, _ = rate_kernel(d)
    got = _outcome(lambda: rhs(t, np.array([x, y, z]), h).tolist())
    expected = _outcome(direct)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert all(_same(g, v) for g, v in zip(got, expected))
