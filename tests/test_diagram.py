"""Diagram validation and compilation."""
import math
import re

import numpy as np
import pytest

from swarmk.diagram import compile_rhs, validate_diagram
from swarmk.errors import ModelError
from swarmk.expr import BinOp, Call, Name, Num
from swarmk.parser import parse_model

TWO_STATE = """\
param k = 0.5
state a = 10
state b = 0
env m = 3
rate(k * a): a -> b ; m -= 1
rate(b): b -> a
"""


def test_validate_clean_model():
    d = parse_model(TWO_STATE)
    report = validate_diagram(d)
    assert report.ok
    assert report.defects == []


def test_n0_binding_available_in_rates():
    from swarmk.diagram import transition_table

    d = parse_model("state s = 4\nrate(s / N0): s -> s\n")
    assert transition_table(d)[0][2]([4.0, 0.0]) == 1.0  # N0 = 4


def test_with_params_override_and_reject_unknown():
    d = parse_model(TWO_STATE)
    d2 = d.with_params(k=2.0)
    assert d2.params["k"] == 2.0
    assert d.params["k"] == 0.5  # original untouched
    with pytest.raises(ModelError):
        d.with_params(zz=1.0)


def test_with_params_rederives_or_refuses():
    d = parse_model("param a = 2\nparam b = 1 / a\nstate s = b * 4\n"
                    "state r = 0\n")
    assert d.derived and d.states == (("s", 2.0), ("r", 0.0))
    d2 = d.with_params(a=4.0)
    assert d2.params["b"] == 0.25 and d2.states[0] == ("s", 1.0)
    assert d2.n0 == 1.0
    with pytest.raises(ValueError, match="b cannot be evaluated: "
                                         "division by zero"):
        d.with_params(a=0.0)
    with pytest.raises(ValueError, match="b must be finite"):
        d.with_params(a=1e-320)


def test_with_params_stores_finite_floats():
    d = parse_model(TWO_STATE)
    assert repr(d.with_params(k=-0.0).params["k"]) == "0.0"
    assert type(d.with_params(k=2).params["k"]) is float
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="k must be finite"):
            d.with_params(k=bad)


def test_with_state_init_recomputes_total():
    d = parse_model(TWO_STATE)
    d2 = d.with_state_init(a=7.0)
    assert d2.n0 == 7.0


def test_negative_initial_count_is_defect():
    d = parse_model(TWO_STATE).with_state_init(a=-1.0)
    report = validate_diagram(d)
    assert not report.ok
    assert any("negative initial" in x for x in report.defects)


def test_negative_rate_at_initial_config_is_defect():
    d = parse_model("state s = 1\nrate(s - 2): s -> s\n")
    report = validate_diagram(d)
    assert any("negative" in x for x in report.defects)


def test_nonparameter_delay_bound_is_defect():
    d = parse_model("state s = 1\nrate(delay(s, s)): s -> s\n")
    report = validate_diagram(d)
    assert any("delay bound" in x for x in report.defects)


def test_unknown_effect_target_is_defect():
    # validation samples rates through the transition table, which must
    # not turn a defect into an exception
    from swarmk.diagram import StateDiagram, Transition
    from swarmk.expr import Num

    d = StateDiagram(states=(("a", 1.0),), transitions=(
        Transition("a", "a", Num(1.0), (("qq", Num(1.0)),)),))
    assert validate_diagram(d).defects == ["unknown env var qq"]


def test_env_effects_are_sampled_with_their_rate():
    # an effect may be negative; one that fails or is not finite on a
    # sampled point is a defect, written as in the source
    base = "state a = 1\nstate b = 0\nenv m = 0\nrate(a): a -> b ; "
    assert validate_diagram(parse_model(base + "m -= a\n")).ok
    for effect, problem in [
            ("m -= exp(1000 * a)", "failed to evaluate: exp overflows at 1000.0"),
            ("m += 1e+308 * a * 10", "is non-finite on a sample")]:
        d = parse_model(base + effect + "\n")
        assert validate_diagram(d).defects == [
            f"env effect {effect} of rate a {problem}"]


def test_compile_rejects_invalid():
    d = parse_model("state s = 1\nrate(delay(s, s)): s -> s\n")
    with pytest.raises(ModelError):
        compile_rhs(d)


def _nested(levels, outer, inner):
    """``outer(x)`` applied ``levels`` times, from ``inner``."""
    for _ in range(levels):
        inner = outer(inner)
    return inner


@pytest.mark.parametrize("rate, defect", [
    (BinOp("%", Name("a"), Num(2.0)), "unknown operator %"),
    (Call("sin", (Name("a"),)), "unknown function sin"),
    (Call("exp", ()), "exp takes 1 argument(s), got 0"),
    (Call("delay", (Name("a"),)), "delay takes 2 argument(s), got 1"),
    # measured level by level before any recursive walk, which would raise
    # RecursionError at 1,500 levels
    (_nested(1500, lambda x: BinOp("+", x, Num(1.0)), Name("a")),
     "expression is deeper than 40 levels"),
    (_nested(5, lambda x: Call("delay", (x, Num(1.0))), Name("a")),
     "delay and histint calls are nested more than 4 deep"),
])
def test_a_tree_built_in_python_that_cannot_compile_is_a_defect(rate, defect):
    # the parser builds no such tree; validation lists it as data, and
    # compilation refuses it before any code is generated from it
    from swarmk.diagram import StateDiagram, Transition

    d = StateDiagram(states=(("a", 1.0), ("b", 0.0)),
                     transitions=(Transition("a", "b", rate),))
    assert validate_diagram(d).defects == [defect]
    with pytest.raises(ModelError, match=re.escape(
            f"invalid diagram: {defect}")):
        compile_rhs(d)


def test_rhs_matches_hand_derivative():
    d = parse_model(TWO_STATE)
    system = compile_rhs(d)
    assert system.flavor == "ode"
    y = np.array([6.0, 4.0, 3.0])
    dy = system.rhs(0.0, y)
    # da/dt = -k a + b, db/dt = +k a - b, dm/dt = -k a
    assert dy == pytest.approx([-3.0 + 4.0, 3.0 - 4.0, -3.0])


def test_rhs_conserves_states_pointwise():
    d = parse_model(TWO_STATE)
    system = compile_rhs(d)
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = np.append(rng.uniform(0, 10, size=2), rng.uniform(0, 3))
        assert abs(system.rhs(0.0, y)[:2].sum()) < 1e-12


def test_flavor_detection():
    dde = parse_model("param tau = 1\nstate s = 1\n"
                      "rate(delay(s, tau)): s -> s\n")
    assert compile_rhs(dde).flavor == "dde"
    assert compile_rhs(dde).delay_values == (1.0,)


def test_delayed_env_effect_makes_a_dde_system():
    # flavor and delays are read from the effects too: a delayed effect
    # needs the history of the method of steps
    src = ("param w = 1\nstate a = 1\nstate b = 0\nenv m = 0\n"
           "rate(a): a -> b ; m += delay(a, w)\n")
    system = compile_rhs(parse_model(src))
    assert system.flavor == "dde"
    assert system.delay_values == (1.0,)
    bad = parse_model(src.replace("delay(a, w)", "delay(a, a)"))
    assert validate_diagram(bad).defects == [
        "delay bound depends on non-parameter name(s): a"]


def test_gate_decides_once_per_instance_and_after_a_param_edit():
    from swarmk.diagram import gate

    d = parse_model("param k = 1\nstate a = 1\nstate b = 0\n"
                    "rate(a / k * step(t - 1)): a -> b\n")
    assert gate(d) is gate(d)
    assert gate(d) == ("ode", (), True)
    assert compile_rhs(d) is not compile_rhs(d)  # a fresh system per call
    d.params["k"] = 0.0
    message = ("invalid diagram: rate a / k * step(t - 1) failed to "
               "evaluate: division by zero")
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        gate(d)


def test_env_effect_scales_with_flow():
    d = parse_model("state a = 2\nstate b = 0\nenv m = 0\n"
                    "rate(3 * a): a -> b ; m += 2\n")
    system = compile_rhs(d)
    dy = system.rhs(0.0, np.array([2.0, 0.0, 0.0]))
    assert dy[2] == pytest.approx(12.0)  # 2 per unit flow, flow = 6


def test_in_place_param_edit_reaches_the_kernel():
    # the compiled rates are kept on the diagram; an edit of its params
    # dict in place must not leave them stale
    from dataclasses import replace

    d = parse_model(TWO_STATE)
    y = d.initial_vector()
    before = compile_rhs(d).rhs(0.0, y)
    d.params["k"] = 2.0 * d.params["k"]
    after = compile_rhs(d).rhs(0.0, y)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, compile_rhs(replace(d)).rhs(0.0, y))


def test_a_copy_of_a_compiled_diagram_gets_its_own_n0_kernel_and_gate():
    # with_params and with_state_init share the structure's programs but
    # none of the values kept on the compiled diagram: each copy binds its
    # own parameters and N0, and passes its own gate
    from swarmk.diagram import gate, rate_kernel

    d = parse_model("param k = 1\nparam w = 1\nstate a = 2\nstate b = 0\n"
                    "rate(k * a / N0): a -> b\n"
                    "rate(0 * histint(a, w)): b -> a\n")
    compile_rhs(d)
    row = [2.0, 0.0, 0.0]
    for copy, n0, flow, delays in ((d, 2.0, 1.0, (1.0,)),
                                   (d.with_params(k=3.0, w=2.0), 2.0, 3.0,
                                    (2.0,)),
                                   (d.with_state_init(a=4.0), 4.0, 0.5,
                                    (1.0,))):
        assert copy._programs is d._programs
        assert copy.n0 == n0
        assert rate_kernel(copy)[1][0][2](row) == flow
        assert gate(copy) == ("dde", delays, False)
        if copy is not d:
            assert rate_kernel(copy) is not rate_kernel(d)
            assert gate(copy) is not gate(d)
    assert compile_rhs(d.with_state_init(a=4.0)).diagram.n0 == 4.0


def test_a_sweep_generates_its_kernel_and_step_once(monkeypatch):
    # ten rows of a parameter sweep share one structure: the kernel, the
    # step and each derived declaration are compiled on the first row only
    from swarmk import analysis, models
    from swarmk.expr import Source

    calls = []
    compile_ = Source.compile

    def counted(self, returns, *args):
        calls.append(returns)
        return compile_(self, returns, *args)

    d = parse_model(models.shipped_source("foraging"))
    monkeypatch.setattr(Source, "compile", counted)
    table = analysis.sweep(d, "n0", range(1, 11), ("T",), t_end=1600.0,
                           dt=0.5, counter="m", threshold=1.0)
    assert table.errors == (None,) * 10
    assert sum(r.startswith("rhs, (") for r in calls) == 1
    assert calls.count("step") == 1
    assert len(calls) == 2 + len(d.derived)


def test_equal_names_with_other_transitions_do_not_share_code():
    # transitions that compare equal but for a signed zero, and others
    # that differ outright, each get their own kernel; a with_params copy
    # shares its diagram's
    from dataclasses import replace

    from swarmk.diagram import Transition, _kernel_source, transition_table
    from swarmk.expr import BinOp, Name, Num

    def zero_rate(zero):
        return (Transition("a", "b", BinOp("*", Num(zero), Name("a"))),)

    d = parse_model("param k = 1\nstate a = 1\nstate b = 0\n"
                    "rate(0 * a): a -> b\n")
    pos, neg = (replace(d, transitions=zero_rate(z)) for z in (0.0, -0.0))
    assert pos.transitions == neg.transitions
    other = replace(d, transitions=(Transition("a", "b", Name("k")),))
    row = [1.0, 0.0, 0.0]
    flows = [transition_table(x)[0][2](row) for x in (d, pos, neg, other)]
    assert [math.copysign(1.0, f) for f in flows] == [1.0, 1.0, -1.0, 1.0]
    assert flows[3] == 1.0
    sources = [_kernel_source(x) for x in (d, pos, neg, other)]
    assert len({id(s) for s in sources}) == 4
    assert _kernel_source(d.with_params(k=2.0)) is sources[0]


def test_a_row_failing_sampled_validation_keeps_its_message():
    # the structure's code is shared, and each row's values are still
    # checked: a rate that fails or is negative at a row's values
    from swarmk import analysis

    d = parse_model("param k = 2\nstate a = 1\nstate b = 0\n"
                    "rate(a * ln(k)): a -> b\n")
    table = analysis.sweep(d, "k", [-1.0, 0.5, 2.0], ("final:b",),
                           t_end=1.0, dt=0.5)
    assert table.errors == (
        "ModelError: invalid diagram: rate a * ln(k) failed to evaluate: "
        "ln of non-positive value -1.0",
        "ModelError: invalid diagram: rate a * ln(k) is negative "
        "(-0.6931471805599453) at the initial configuration",
        None)


# -- the transition table's stationary reading -------------------------------


def _stationary(e, consts, t=None):
    """The tree ``e`` with its delayed terms substituted, for the bindings
    ``consts`` of its lags and windows: ``delay(x, w)`` by x with ``t - w``
    for ``t``, ``histint(x, w)`` by ``w * x``; a zero lag or window keeps a
    run's rule, x or 0 (its integrand is not evaluated)."""
    from swarmk.expr import BinOp, Call, Name, Neg, Num
    from test_expr import _reference

    t = Name("t") if t is None else t
    if isinstance(e, Name):
        return t if e.ident == "t" else e
    if isinstance(e, Neg):
        return Neg(_stationary(e.operand, consts, t))
    if isinstance(e, BinOp):
        return BinOp(e.op, _stationary(e.left, consts, t),
                     _stationary(e.right, consts, t))
    if not isinstance(e, Call):
        return e
    if e.func not in ("delay", "histint"):
        return Call(e.func, tuple(_stationary(a, consts, t) for a in e.args))
    x, w = e.args
    if _reference(w, consts) == 0.0:
        return _stationary(x, consts, t) if e.func == "delay" else Num(0.0)
    if e.func == "histint":
        return BinOp("*", w, _stationary(x, consts, t))
    return _stationary(x, consts, BinOp("-", t, w))


@pytest.mark.parametrize("name", ["stickpull-delayed", "collab-difference",
                                  "stickpull-delayed-depletion",
                                  "history-forms",
                                  "history-forms-synchronous"])
def test_table_reads_delayed_terms_as_the_substituted_trees(name):
    # every rate and effect function of the table, at every row validation
    # samples (the initial row and each transition's), equals the direct
    # evaluation of its substituted tree bit for bit, failures included
    from swarmk.diagram import _samples, transition_table
    from swarmk.models import BUILTIN_NAMES, build_builtin
    from test_expr import _outcome, _reference, _same
    from test_integrate import FORMS

    d = build_builtin(name) if name in BUILTIN_NAMES \
        else parse_model(FORMS[name])
    consts = {**d.params, "N0": d.n0}
    times, simplex = _samples(d)
    env0 = [v for _, v in d.env_vars]
    rows = [[v for _, v in d.states] + env0 + [0.0]] + [
        counts + env0 + [t]
        for t, counts in zip(times, (simplex * d.n0).tolist())]
    pairs = [(f, tree) for tr, (_, _, fn, effects) in zip(
        d.transitions, transition_table(d)) for f, tree in zip(
        [fn, *(efn for _, efn in effects)], tr.exprs)]
    names = d.state_names + d.env_names + ["t"]
    for f, tree in pairs:
        oracle = _stationary(tree, consts)
        for row in rows:
            env = {**consts, **dict(zip(names, row))}
            assert _same(_outcome(lambda: f(row)),
                         _outcome(lambda: _reference(oracle, env)))


def test_validation_does_not_evaluate_the_integrand_of_a_zero_window():
    # at w = 0 the run never evaluates ln(a - 2) and neither does the
    # gate; at w = 1 validation reports it at the initial row
    from swarmk.integrate import integrate_delayed

    d = parse_model("param w = 0\nstate a = 1\nstate b = 0\n"
                    "rate(histint(ln(a - 2), w)): a -> b\n")
    assert validate_diagram(d).ok
    traj = integrate_delayed(compile_rhs(d), t_end=1.0, dt=0.5)
    assert traj.final() == {"a": 1.0, "b": 0.0}
    assert validate_diagram(d.with_params(w=1)).defects == [
        "rate histint(ln(a - 2), w) failed to evaluate: "
        "ln of non-positive value -1.0"]
