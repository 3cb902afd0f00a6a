"""Model-language parsing: grammar, errors with locations, round trips."""
import math

import pytest

from swarmk import expr, models
from swarmk.errors import LexError, ParseError, SemanticError
from swarmk.parser import parse_model, pretty_print, tokenize

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
    # the first error in file order: a duplicate name, an unknown endpoint
    # state, each before the syntax error on the line after it
    ("param a = 1\nparam a = 2\nrate(", SemanticError, 2, 7),
    ("state s = 1\nrate(s): s -> q\nparam = ", SemanticError, 2, 15),
    # one level past expr.MAX_DEPTH (40): a tree, refused where it starts,
    # and brackets, refused at the first factor past the cap
    ("state a = 1\nrate(" + " + ".join(["a"] * 41) + "): a -> a\n",
     ParseError, 2, 6),
    ("state a = 1\nrate(" + "(" * 40 + "a" + ")" * 40 + "): a -> a\n",
     ParseError, 2, 46),
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
    # declaration order, domains, derived declarations and synchronous
    # survive, for every shipped file and a built diagram with an override
    # pinned
    for d in [parse_model(GOOD), parse_model("synchronous\n" + GOOD),
              models.build_builtin("foraging", n0=3, tau=4.0),
              *(parse_model(models.shipped_source(n))
                for n in models.BUILTIN_NAMES)]:
        text = pretty_print(d)
        d2 = parse_model(text)
        assert d2.states == d.states
        assert d2.env_vars == d.env_vars
        assert list(d2.params.items()) == list(d.params.items())
        assert d2.transitions == d.transitions
        assert d2.derived == d.derived
        assert d2.domains == d.domains
        assert d2.discrete == d.discrete
        # and printing again is a fixed point
        assert pretty_print(d2) == text


def test_param_domains():
    d = parse_model("param a = 0.5 in (0, 1]\nparam b = -2 in [-3, inf)\n"
                    "param c = a * 4 in (-inf, 2]\nparam e = 1 in [1, 1]\n"
                    "state s = 1\n")
    assert d.domains == {"a": (0.0, 1.0, "(]"), "b": (-3.0, math.inf, "[)"),
                         "c": (-math.inf, 2.0, "(]"), "e": (1.0, 1.0, "[]")}
    assert "param c = a * 4 in (-inf, 2]" in pretty_print(d).splitlines()
    assert d.with_params(a=0.25, b=-3).params == \
        {"a": 0.25, "b": -3.0, "c": 1.0, "e": 1.0}
    # a set value and a value derived from it are checked alike
    for kw, message in ((dict(a=0.0), "a = 0.0 is outside (0, 1]"),
                        (dict(b=-3.5), "b = -3.5 is outside [-3, inf)"),
                        (dict(a=0.75), "c = 3.0 is outside (-inf, 2]"),
                        (dict(e=1.5), "e = 1.5 is outside [1, 1]")):
        with pytest.raises(ValueError) as ei:
            d.with_params(**kw)
        assert str(ei.value) == message


@pytest.mark.parametrize("src, message, col", [
    # the file's own value must lie in its domain
    ("param a = 2 in (0, 1]", "a = 2.0 is outside (0, 1]", 13),
    ("param a = 1\nparam b = a - 1 in (0, inf)",
     "b = 0.0 is outside (0, inf)", 17),
    # a lower bound above the upper, or an empty interval
    ("param a = 1 in [2, 1]", "domain [2, 1] is empty", 13),
    ("param a = 1 in (1, 1]", "domain (1, 1] is empty", 13),
    # a closed infinite end
    ("param a = 1 in [0, inf]", "domain [0, inf] closes an infinite end", 13),
    ("param a = 1 in [-inf, 2)", "domain [-inf, 2) closes an infinite end",
     13),
])
def test_bad_domains_are_semantic_errors(src, message, col):
    with pytest.raises(SemanticError) as ei:
        parse_model(src)
    line = src.count("\n") + 1
    assert (ei.value.line, ei.value.col) == (line, col)
    assert str(ei.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("src, err, col", [
    ("param a = 1 in 0, 1]", ParseError, 16),
    ("param a = 1 in (0 1]", ParseError, 19),
    ("param a = 1 in (0, x]", ParseError, 20),
    ("param a = 1 in (0, 1e999]", ParseError, 20),
    ("state in = 1", ParseError, 7),
    ("param inf = 1", ParseError, 7),
])
def test_malformed_domains(src, err, col):
    with pytest.raises(err) as ei:
        parse_model(src)
    assert (ei.value.line, ei.value.col) == (1, col)


@pytest.mark.parametrize("rate, message", [
    ("param", "reserved word 'param' cannot appear in an expression"),
    ("*a", "expected number, identifier or '(', got '*'")])
def test_refused_rate_expressions(rate, message):
    with pytest.raises(ParseError) as ei:
        parse_model(f"state a = 1\nstate b = 0\nrate({rate}): a -> b\n")
    assert str(ei.value) == f"3:6: {message}"


def test_expressions_at_max_depth_parse():
    # a tree of MAX_DEPTH levels, and a leaf nested MAX_DEPTH factors deep
    cap = expr.MAX_DEPTH
    deepest = parse_model("state a = 1\nrate(" + " + ".join(["a"] * cap)
                          + "): a -> a\n").transitions[0].rate
    assert expr.depth(deepest) == cap
    parse_model(f"state a = 1\nrate({'(' * (cap - 1)}a{')' * (cap - 1)}): "
                "a -> a\n")


def test_synchronous_and_derived_declarations():
    d = parse_model("param k = 2\nparam j = -1\nsynchronous\n"
                    "state s = k * 3\nenv m = k\nrate(k * s): s -> s\n")
    assert d.discrete
    assert d.params == {"k": 2.0, "j": -1.0}
    assert d.states == (("s", 6.0),) and d.env_vars == (("m", 2.0),)
    assert [n for n, _ in d.derived] == ["s", "m"]
    assert not parse_model(GOOD.replace("k * 2", "1")).derived
    with pytest.raises(ParseError, match="reserved word 'synchronous'"):
        parse_model("param synchronous = 1\n")


# derived declarations per shipped file: foraging tau, tauh, s and m;
# sugawara lx and s; s in counts and collab
DERIVED_COUNTS = {"foraging": 4, "sugawara": 2, "stickpull-simple": 0,
                  "stickpull-delayed": 0, "stickpull-counts": 1,
                  "collab-difference": 1, "stickpull-simple-depletion": 0,
                  "stickpull-delayed-depletion": 0}


@pytest.mark.parametrize("name", models.BUILTIN_NAMES)
def test_one_compile_per_derived_declaration(monkeypatch, name):
    # a literal initializer takes its value without generating code
    calls = []
    generate = expr.generate_function

    def counting(*args):
        calls.append(args)
        return generate(*args)

    monkeypatch.setattr(expr, "generate_function", counting)
    d = parse_model(models.shipped_source(name))
    assert len(calls) == len(d.derived) == DERIVED_COUNTS[name]


def test_origin_recorded():
    d = parse_model("state s = 1\n", origin="demo.mas")
    assert d.name == "demo.mas"
    assert parse_model("state s = 1\n").name == "<inline>"


def test_tokenizer_tracks_lines_and_columns():
    toks = tokenize("ab + 1\n  cd")
    assert [(t.text, t.line, t.col) for t in toks[:4]] == [
        ("ab", 1, 1), ("+", 1, 4), ("1", 1, 6), ("cd", 2, 3)]
