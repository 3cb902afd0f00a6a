"""Diagram validation and compilation."""
import re

import numpy as np
import pytest

from swarmk.diagram import compile_rhs, validate_diagram
from swarmk.errors import ModelError
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
    d = parse_model("state s = 4\nrate(s / N0): s -> s\n")
    assert d.base_bindings()["N0"] == 4.0


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
