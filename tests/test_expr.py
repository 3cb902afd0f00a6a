"""Expression evaluation, generated source, and unparsing."""
import math

import pytest
from hypothesis import example, given, strategies as st

from swarmk.errors import EvalError
from swarmk.expr import (BinOp, Call, Name, Neg, Num, delay_windows,
                         eval_expr, free_names, generate_function,
                         has_history_terms, unparse)


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
    assert has_history_terms(e)
    assert not has_history_terms(BinOp("+", Name("x"), Num(1)))


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


def _reference(e, env):
    """Direct recursive evaluation of a tree without history terms: the
    operations, their order (a divisor before its dividend) and the
    refusals of swarmk's rate semantics."""
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, Name):
        if e.ident not in env:
            raise EvalError(f"unbound identifier {e.ident}")
        return env[e.ident]
    if isinstance(e, Neg):
        return -_reference(e.operand, env)
    if isinstance(e, BinOp):
        if e.op == "/":
            d = _reference(e.right, env)
            if d == 0.0:
                raise EvalError("division by zero")
            return _reference(e.left, env) / d
        a = _reference(e.left, env)
        b = _reference(e.right, env)
        return {"+": a + b, "-": a - b, "*": a * b}[e.op]
    x = _reference(e.args[0], env)
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


def _oracle_tree(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(*t)),
        children.map(Neg),
        st.tuples(st.sampled_from(["exp", "ln", "step"]), children).map(
            lambda t: Call(t[0], (t[1],))),
    )


_oracle_exprs = st.recursive(_oracle_leaf, _oracle_tree, max_leaves=16)


@given(_oracle_exprs, _values, _values, _values)
# a failing divisor is reached before a failing dividend
@example(BinOp("/", Name("w"), Num(0.0)), 1.0, 1.0, 1.0)
@example(BinOp("/", Call("ln", (Name("x"),)), Call("exp", (Name("y"),))),
         -1.0, 1e3, 1.0)
def test_generated_source_matches_direct_evaluation(e, x, y, z):
    expected = _outcome(lambda: _reference(e, {"x": x, "y": y, "z": z}))
    fn = generate_function(e, {"z": z}, {"x": 0, "y": 1})
    assert _same(_outcome(lambda: fn([x, y])), expected)
    assert _same(_outcome(lambda: eval_expr(e, {"x": x, "y": y, "z": z})),
                 expected)


@given(st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from("xy"),
                          _oracle_exprs, st.lists(_oracle_exprs, max_size=1)),
                min_size=1, max_size=4),
       _values, _values, _values)
def test_generated_rhs_matches_direct_evaluation(moves, x, y, z):
    # states x and y and env counter z are row slots, w is a parameter;
    # each component is a sum from 0.0 in transition order
    import numpy as np

    from swarmk.diagram import StateDiagram, Transition, rate_kernel

    transitions = tuple(
        Transition(src, dst, rate, tuple(("z", eff) for eff in effects))
        for src, dst, rate, effects in moves)
    d = StateDiagram(states=(("x", 1.0), ("y", 0.0)), env_vars=(("z", 0.0),),
                     params={"w": -1.5}, transitions=transitions)
    env = {"x": x, "y": y, "z": z, "w": -1.5}

    def direct():
        acc = [0.0, 0.0, 0.0]
        for tr in transitions:
            flow = _reference(tr.rate, env)
            if tr.source != tr.target:
                acc["xy".index(tr.source)] -= flow
                acc["xy".index(tr.target)] += flow
            for _, eff in tr.env_effects:
                acc[2] += _reference(eff, env) * flow
        return acc

    rhs, _ = rate_kernel(d)
    got = _outcome(lambda: rhs(0.0, np.array([x, y, z])).tolist())
    expected = _outcome(direct)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert all(_same(g, v) for g, v in zip(got, expected))
