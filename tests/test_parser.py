"""Model-language parsing: grammar, errors with locations, round trips."""
import pytest

from swarmk.errors import LexError, ParseError, SemanticError
from swarmk.parser import ModelSource, parse_model, pretty_print, tokenize

GOOD = """\
# a tiny two-state system
param k = 0.5
param k2 = k * 2
state a = 10
state b = 0
env m = 3
rate(k * a): a -> b ; m -= 1
rate(k2 * b): b -> a
"""


def test_parse_basic_model():
    d = parse_model(GOOD)
    assert d.state_names == ["a", "b"]
    assert d.env_names == ["m"]
    assert d.params == {"k": 0.5, "k2": 1.0}
    assert d.n0 == 10.0
    assert len(d.transitions) == 2
    assert d.transitions[0].source == "a"
    assert d.transitions[0].target == "b"
    assert len(d.transitions[0].env_effects) == 1


def test_param_initializers_fold_left_to_right():
    d = parse_model("param a = 2\nparam b = a * a + 1\nstate s = b\n")
    assert d.params["b"] == 5.0
    assert d.states == (("s", 5.0),)


def test_comments_and_whitespace_insignificant():
    d1 = parse_model("state s=1\nrate(s):s->s\n")
    d2 = parse_model("# hi\nstate   s = 1   # trailing\nrate( s ) : s -> s\n")
    assert d1.states == d2.states
    assert d1.transitions[0].rate == d2.transitions[0].rate


def test_number_forms():
    d = parse_model("param a = 1.5e-3\nparam b = .25\nparam c = 2E2\nstate s = 0\n")
    assert d.params == {"a": 0.0015, "b": 0.25, "c": 200.0}


@pytest.mark.parametrize("src,err,line,col", [
    ("state s = 1\nrate(s: s -> s\n", ParseError, 2, 7),
    ("param = 1\n", ParseError, 1, 7),
    ("state s = 1\nrate(s): s => s\n", LexError, 2, 13),
    ("bogus x = 1\n", ParseError, 1, 1),
    ("state s = 1\nrate(s ~ 2): s -> s\n", LexError, 2, 8),
    ("param t = 1\n", ParseError, 1, 7),
    ("state exp = 1\n", ParseError, 1, 7),
    ("param k = 1e999\n", ParseError, 1, 11),
])
def test_malformed_sources_report_location(src, err, line, col):
    with pytest.raises(err) as ei:
        parse_model(src)
    assert ei.value.line == line
    assert ei.value.col == col


def test_duplicate_name_rejected():
    with pytest.raises(SemanticError) as ei:
        parse_model("param a = 1\nstate a = 2\n")
    assert "duplicate" in str(ei.value)
    assert ei.value.line == 2


def test_unknown_state_in_transition():
    with pytest.raises(SemanticError) as ei:
        parse_model("state s = 1\nrate(s): s -> nowhere\n")
    assert "unknown state" in str(ei.value)


def test_unknown_identifier_in_rate():
    with pytest.raises(SemanticError) as ei:
        parse_model("state s = 1\nrate(q * s): s -> s\n")
    assert "unknown identifier q" in str(ei.value)
    assert (ei.value.line, ei.value.col) == (2, 6)


def test_unknown_env_in_effect():
    with pytest.raises(SemanticError):
        parse_model("state s = 1\nrate(s): s -> s ; m += 1\n")


def test_nonconstant_initializer_rejected():
    with pytest.raises(SemanticError):
        parse_model("state s = 1\nstate r = s + 1\n")


def test_reserved_words_rejected_as_names():
    for word in ("rate", "delay", "histint", "step", "ln", "N0"):
        with pytest.raises((ParseError, SemanticError)):
            parse_model(f"param {word} = 1\n")


def test_t_and_n0_usable_in_rates():
    d = parse_model("state s = 3\nrate(s * t / N0): s -> s\n")
    from swarmk.expr import eval_expr

    v = eval_expr(d.transitions[0].rate, {"s": 3.0, "t": 2.0, "N0": 3.0})
    assert v == pytest.approx(2.0)


def test_delay_and_histint_parse():
    d = parse_model(
        "param tau = 2\nstate s = 1\n"
        "rate(delay(s, tau) * exp(-histint(s, tau)) * step(t - tau)): s -> s\n")
    from swarmk.diagram import compile_rhs

    assert compile_rhs(d).flavor == "dde"


def test_effects_multiple():
    d = parse_model("state s = 1\nenv m = 0\nenv q = 0\n"
                    "rate(s): s -> s ; m += 2, q -= s\n")
    assert len(d.transitions[0].env_effects) == 2


def test_pretty_print_round_trip():
    d = parse_model(GOOD)
    text = pretty_print(d)
    d2 = parse_model(text)
    assert d2.states == d.states
    assert d2.env_vars == d.env_vars
    assert d2.params == d.params
    assert d2.transitions == d.transitions
    # and printing again is a fixed point
    assert pretty_print(d2) == text


def test_origin_recorded():
    d = parse_model(ModelSource("state s = 1\n", origin="demo.mas"))
    assert d.name == "demo.mas"


def test_tokenizer_tracks_lines_and_columns():
    toks = tokenize("ab + 1\n  cd")
    assert [(t.text, t.line, t.col) for t in toks[:4]] == [
        ("ab", 1, 1), ("+", 1, 4), ("1", 1, 6), ("cd", 2, 3)]
