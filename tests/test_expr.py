"""Expression evaluation, compilation, and unparsing."""
import math

import pytest
from hypothesis import given, strategies as st

from swarmk.errors import EvalError
from swarmk.expr import (BinOp, Call, EvalContext, Name, Neg, Num,
                         compile_expr, delay_windows, eval_expr, free_names,
                         has_history_terms, unparse)


def test_literals_and_names():
    assert eval_expr(Num(3.5), {}) == 3.5
    assert eval_expr(Name("x"), {"x": 2.0}) == 2.0
    # a slot takes precedence over a constant of the same name
    fn = compile_expr(Name("x"), {"x": 100.0}, {"x": 0})
    assert fn(EvalContext([2.0])) == 2.0


def test_arithmetic():
    e = BinOp("+", BinOp("*", Num(2), Name("x")), Num(1))
    assert eval_expr(e, {"x": 3.0}) == 7.0
    assert eval_expr(Neg(Num(4)), {}) == -4.0
    assert eval_expr(BinOp("-", Num(1), Num(3)), {}) == -2.0
    assert eval_expr(BinOp("/", Num(1), Num(4)), {}) == 0.25


def test_unbound_name_raises():
    with pytest.raises(EvalError):
        eval_expr(Name("missing"), {})
    # compiling succeeds; the name fails only when it is evaluated
    fn = compile_expr(Name("zz"), {"x": 1.0}, {"y": 0})
    with pytest.raises(EvalError, match="unbound identifier zz"):
        fn(EvalContext([2.0]))


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
    ctx = EvalContext([1.0, 10.0], _FlatHistory())
    assert compile_expr(e, {}, _XT)(ctx) == 7.0


def test_histint_reads_history():
    e = Call("histint", (Name("x"), Num(3)))
    ctx = EvalContext([1.0, 10.0], _FlatHistory())
    assert compile_expr(e, {}, _XT)(ctx) == pytest.approx(21.0)


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
    fn = compile_expr(e, {"z": bindings["z"]}, slots)
    assert fn(EvalContext([v, 2 * v, 0.0])) == expected
