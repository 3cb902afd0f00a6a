"""Built-in model builders: structure, conservation, shipped sources."""
import math
from collections import Counter
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, strategies as st

import swarmk as sk
from swarmk import models


@pytest.mark.parametrize("name", sk.BUILTIN_NAMES)
def test_builders_pass_validation(name):
    d = sk.build_builtin(name)
    assert sk.validate_diagram(d).ok


# builder, non-default parameter dataclass, and the params (in declaration
# order), states, env vars and N0 the builder must set on the shipped diagram
NON_DEFAULT_BUILDS = {
    "foraging": (
        sk.build_foraging,
        sk.ForagingParams(n0=7, m0=12, alpha_p=0.02, alpha_r=0.05,
                          alpha_r2=0.1, tau0=2.0, tau_slope=0.5,
                          tau_h0=10.0),
        # tau = 2 + 0.5 * 6; tauh = 10 * (1 + 0.1 * 5 * 7)
        {"ap": 0.02, "ar": 0.05, "arp": 0.1, "n0": 7.0, "m0": 12.0,
         "tau0": 2.0, "tau_slope": 0.5, "tau_h0": 10.0, "tau": 5.0,
         "tauh": 45.0},
        (("s", 7.0), ("h", 0.0), ("avs", 0.0), ("avh", 0.0)),
        (("m", 12.0),), 7.0),
    "sugawara": (
        sk.build_sugawara,
        sk.SugawaraParams(alpha=0.1, b=0.3, tau=6.0, x=2.0, a=0.5, l_x=0.1,
                          d=4.0, v=8.0, gamma_loc=5.0, n0=10, k_target=30),
        {"alpha": 0.1, "b": 0.3, "tau": 6.0, "x": 2.0, "a": 0.5, "l_x": 0.1,
         "lx": 0.1, "d": 4.0, "v": 8.0, "gloc": 5.0, "k_target": 30.0,
         "n0": 10.0},
        (("s", 10.0), ("bc", 0.0), ("h", 0.0), ("mv", 0.0), ("av", 0.0)),
        (("delivered", 0.0),), 10.0),
    "stickpull-simple": (
        sk.build_stickpull_simple,
        sk.StickPullParams(beta=0.8, r_g=0.5, gamma=0.3, tau=7),
        {"beta": 0.8, "gamma": 0.3, "rg": 0.5},
        (("s", 1.0), ("g", 0.0)), (("m", 1.0),), 1.0),
    "stickpull-delayed": (
        sk.build_stickpull_delayed,
        sk.StickPullParams(beta=0.8, r_g=0.5, gamma=0.3, tau=7),
        {"beta": 0.8, "tau": 7.0, "rg": 0.5},
        (("s", 1.0), ("g", 0.0)), (("m", 1.0),), 1.0),
    "stickpull-counts": (
        sk.build_stickpull_counts,
        sk.StickPullCountsParams(n0=6, m0=9, alpha=0.1, r_g=0.4,
                                 gamma_d=0.3),
        {"alpha": 0.1, "rg": 0.4, "gammad": 0.3, "m0": 9.0, "n0": 6.0},
        (("s", 6.0), ("g", 0.0)), (), 6.0),
    "collab-difference": (
        sk.build_collab_difference,
        sk.CollabDiffParams(alpha=0.004, alpha_t=0.002, alpha_w=0.006,
                            alpha_r=0.007, m0=12, n0=6, t_a=4, t_ia=9,
                            t_ca=7, t_cda=12, t_cga=50, t_ga=45),
        {"alpha": 0.004, "at": 0.002, "aw": 0.006, "ar": 0.007, "m0": 12.0,
         "ta": 4.0, "tia": 9.0, "tca": 7.0, "tcda": 12.0, "tcga": 50.0,
         "tga": 45.0, "n0": 6.0},
        (("s", 6.0), ("av", 0.0), ("intf", 0.0), ("ca", 0.0), ("cda", 0.0),
         ("g", 0.0)), (), 6.0),
}


@pytest.mark.parametrize("name", sk.BUILTIN_NAMES)
def test_shipped_sources_match_builders(name):
    # the builder sets every value of the shipped diagram, as floats (the
    # parser's type), and keeps its structure
    build, p, params, states, env_vars, n0 = NON_DEFAULT_BUILDS[name]
    d = build(p)
    shipped = sk.parse_model(sk.shipped_source(name))
    assert list(d.params.items()) == list(params.items())
    assert d.states == states
    assert d.env_vars == env_vars
    assert d.n0 == n0
    values = [*d.params.values(), *(v for _, v in states + env_vars), d.n0]
    assert all(type(v) is float for v in values)
    assert d.transitions == shipped.transitions
    assert d.name == name
    assert d.discrete == (name == "collab-difference")
    # at the dataclass defaults the builder sets the file's own values, so
    # the name and the file path give the same model
    default = sk.build_builtin(name)
    assert list(default.params.items()) == list(shipped.params.items())
    assert default.states == shipped.states
    assert default.env_vars == shipped.env_vars


# the variants as .mas text: the shipped file with "m -= beta" on the
# success transition and, with mu_prime > 0, a task-addition transition
STICKPULL_HEADS = {
    "stickpull-simple": ("param beta = 0.5\nparam gamma = 0.2\n"
                         "param rg = 0.35\n"),
    "stickpull-delayed": ("param beta = 0.5\nparam tau = 5\n"
                          "param rg = 0.35\n"),
}
STICKPULL_TAILS = {
    "stickpull-simple": "rate(gamma * g): g -> s\n",
    "stickpull-delayed": ("rate(delay(s * (m + beta * s - beta), tau) * "
                          "exp(-rg * beta * histint(s, tau)) * "
                          "step(t - tau)): g -> s\n"),
}
DEPLETION_BODY = """\
state s = 1
state g = 0
env m = 1
rate(s * (m + beta * s - beta)): s -> g
rate(rg * beta * s * g): g -> s ; m -= beta
"""
TASK_ADDITION = "param mu = 0.3\nrate(mu): s -> s ; m += 1\n"


@pytest.mark.parametrize("name", ["stickpull-simple", "stickpull-delayed"])
@pytest.mark.parametrize("mu_prime", [0.0, 0.3])
def test_stickpull_variants_match_their_text(name, mu_prime):
    text = STICKPULL_HEADS[name] + DEPLETION_BODY + STICKPULL_TAILS[name]
    if mu_prime:
        text += TASK_ADDITION
    expected = sk.parse_model(text)
    d = sk.build_builtin(name, replacement=False, mu_prime=mu_prime)
    assert list(d.params.items()) == list(expected.params.items())
    assert d.states == expected.states
    assert d.env_vars == expected.env_vars
    assert d.transitions == expected.transitions
    assert d.n0 == expected.n0


def test_depletion_edits_the_success_transition_wherever_it_is(monkeypatch):
    success = "rate(rg * beta * s * g): g -> s\n"
    release = "rate(gamma * g): g -> s\n"
    shipped = models.shipped_source

    def edited_file(old, new):
        monkeypatch.setattr(models, "shipped_source",
                            lambda name: shipped(name).replace(old, new))
        models.forget_parsed_files()

    try:
        edited_file(success + release, release + success)
        d = sk.build_builtin("stickpull-simple", replacement=False)
        assert [bool(tr.env_effects) for tr in d.transitions] == \
            [False, False, True]
        edited_file(success, "rate(beta * rg * s * g): g -> s\n")
        with pytest.raises(sk.ModelError, match="no success transition"):
            sk.build_builtin("stickpull-simple", replacement=False)
    finally:
        monkeypatch.undo()
        models.forget_parsed_files()


def test_unknown_builtin():
    with pytest.raises(KeyError):
        sk.build_builtin("nope")


def test_shipped_files_are_the_builtins():
    shipped = resources.files("swarmk").joinpath("models_mas").iterdir()
    assert sorted(f.name for f in shipped) == \
        sorted(f"{name}.mas" for name in sk.BUILTIN_NAMES)


def test_each_shipped_file_is_parsed_once(monkeypatch):
    parsed = Counter()
    parse = models.parse_model

    def counting_parse(src):
        parsed[src.origin] += 1
        return parse(src)

    monkeypatch.setattr(models, "parse_model", counting_parse)
    models._shipped_diagram.cache_clear()
    overrides = {"foraging": {"n0": 3}, "sugawara": {"x": 0},
                 "stickpull-simple": {"replacement": False, "mu_prime": 0.3},
                 "stickpull-delayed": {"tau": 2.0},
                 "stickpull-counts": {"m0": 6},
                 "collab-difference": {"t_ga": 40}}
    first = {}
    for i in range(50):
        name = sk.BUILTIN_NAMES[i % len(sk.BUILTIN_NAMES)]
        kw = overrides[name] if i // len(sk.BUILTIN_NAMES) % 2 else {}
        d = sk.build_builtin(name, **kw)
        assert d.params == first.setdefault((name, bool(kw)), dict(d.params))
        # a caller's edit of one build must not reach the next
        d.params.update((k, -1.0) for k in list(d.params))
        d.params["extra"] = 1.0
    assert len(first) == 2 * len(sk.BUILTIN_NAMES)
    assert set(parsed) == set(sk.BUILTIN_NAMES)
    assert max(parsed.values()) == 1


# -- foraging ---------------------------------------------------------------


def test_foraging_structure():
    d = sk.build_foraging()
    assert d.state_names == ["s", "h", "avs", "avh"]
    assert d.env_names == ["m"]
    assert d.n0 == 5.0
    assert d.params["tau"] == pytest.approx(3.0 + 0.2 * 4)
    assert d.params["tauh"] == pytest.approx(16.0 * (1 + 0.08 * 3.8 * 5))


def test_foraging_state_derivatives_sum_to_zero():
    system = sk.compile_rhs(sk.build_foraging())
    rng = np.random.default_rng(1)
    for _ in range(25):
        y = rng.uniform(0, 2, size=5)
        y[:4] = y[:4] / y[:4].sum() * 5.0
        y[4] = rng.uniform(4, 20)
        assert abs(system.rhs(0.0, y)[:4].sum()) < 1e-12


def test_foraging_interference_off_reduces_to_search_home_cycle():
    p = sk.ForagingParams(alpha_r=1e-12, alpha_r2=1e-12)
    d = sk.build_foraging(p)
    traj = sk.integrate(sk.compile_rhs(d), t_end=200.0, dt=0.05)
    # avoidance pools stay empty when robot detection is off
    assert traj.column("avs").max() < 1e-8
    assert traj.column("avh").max() < 1e-8


def test_foraging_param_validation():
    with pytest.raises(ValueError):
        sk.ForagingParams(n0=0)
    with pytest.raises(ValueError):
        sk.ForagingParams(alpha_p=0.0)
    with pytest.raises(ValueError):
        sk.ForagingParams(tau_slope=-0.1)
    with pytest.raises(ValueError, match="tauh must be finite"):
        sk.build_foraging(sk.ForagingParams(alpha_r2=1e308))


_rates = st.floats(min_value=1e-4, max_value=2.0)


@given(st.builds(sk.ForagingParams, n0=st.integers(1, 50),
                 m0=st.integers(1, 50), alpha_p=_rates, alpha_r=_rates,
                 alpha_r2=_rates, tau0=st.floats(0.01, 100.0),
                 tau_slope=st.floats(0.0, 10.0),
                 tau_h0=st.floats(0.01, 100.0)))
def test_foraging_derived_params_match_the_formulas(p):
    # the formulas of the removed ForagingParams.tau/tau_h, written out
    tau = p.tau0 + p.tau_slope * (p.n0 - 1)
    tau_h = p.tau_h0 * (1.0 + p.alpha_r2 * tau * p.n0)
    d = sk.build_foraging(p)
    assert d.params["tau"] == tau
    assert d.params["tauh"] == tau_h


@given(st.builds(sk.SugawaraParams,
                 x=st.one_of(st.sampled_from([0, 0.0, -0.0]),
                             st.floats(0.0, 50.0)),
                 l_x=st.one_of(st.just(-0.0), st.floats(0.0, 1.0))))
def test_sugawara_derived_lx_matches_the_formula(p):
    # the removed SugawaraParams.lx: no broadcast at x = 0
    lx = sk.build_sugawara(p).params["lx"]
    assert lx == (0.0 if p.x == 0 else p.l_x)
    if p.x == 0:
        assert math.copysign(1.0, lx) == 1.0


def test_overrides_pin_and_rederive():
    d = sk.build_foraging().with_params(tau=4.0)
    assert d.params["tauh"] == 16.0 * (1 + 0.08 * 4.0 * 5)
    # a pinned value stays pinned; what still derives follows n0
    d = d.with_params(n0=3.0)
    assert d.params["tau"] == 4.0
    assert d.params["tauh"] == 16.0 * (1 + 0.08 * 4.0 * 3.0)
    assert d.states[0] == ("s", 3.0) and d.n0 == 3.0
    # so does a state set by with_state_init
    d = sk.build_foraging().with_state_init(s=2.0).with_params(n0=3.0)
    assert d.states[0] == ("s", 2.0) and d.n0 == 2.0
    assert d.params["tau"] == 3.0 + 0.2 * (3.0 - 1)
    # by name and by override alike
    assert sk.build_builtin("foraging", tau=4.0, n0=3) == \
        sk.build_foraging().with_params(tau=4.0, n0=3.0)


def test_foraging_depletion_monotone():
    traj = sk.integrate(sk.compile_rhs(sk.build_foraging()), t_end=300, dt=0.05)
    m = traj.column("m")
    assert np.all(np.diff(m) < 0)


# -- stick pulling ----------------------------------------------------------


def test_stickpull_simple_matches_closed_form_steady_state():
    d = sk.build_stickpull_simple()
    traj = sk.integrate(sk.compile_rhs(d), t_end=100.0, dt=0.01)
    root = sk.steady_state_simple(0.5, 0.2, 0.35)
    assert abs(traj.final()["s"] - root.n) < 1e-4


def test_stickpull_simple_gamma_zero_absorbs_everyone():
    p = sk.StickPullParams(beta=0.5, gamma=0.0)
    traj = sk.integrate(sk.compile_rhs(sk.build_stickpull_simple(p)),
                        t_end=200.0, dt=0.01)
    assert traj.final()["s"] < 1e-6


def test_stickpull_simple_huge_gamma_pins_searching():
    # the release transient relaxes on the 1/gamma timescale, so a short
    # horizon already reaches the pinned state
    p = sk.StickPullParams(beta=0.5, gamma=1e6)
    traj = sk.integrate(sk.compile_rhs(sk.build_stickpull_simple(p)),
                        t_end=2e-3, dt=1e-6)
    assert traj.final()["s"] == pytest.approx(1.0, abs=1e-4)


def test_stickpull_replacement_keeps_m_constant():
    traj = sk.integrate(sk.compile_rhs(sk.build_stickpull_simple()),
                        t_end=10.0, dt=0.01)
    assert np.allclose(traj.column("m"), 1.0)


def test_stickpull_depletion_m_decreases():
    p = sk.StickPullParams(replacement=False)
    traj = sk.integrate(sk.compile_rhs(sk.build_stickpull_simple(p)),
                        t_end=10.0, dt=0.01)
    m = traj.column("m")
    assert m[-1] < 1.0
    assert np.all(np.diff(m) <= 1e-15)


def test_stickpull_delayed_tau_zero_steady_is_one():
    p = sk.StickPullParams(tau=0.0)
    d = sk.build_stickpull_delayed(p)
    traj = sk.integrate_delayed(sk.compile_rhs(d), t_end=30.0, dt=0.01)
    assert traj.final()["s"] == pytest.approx(1.0, abs=1e-6)


def test_stickpull_delayed_supercritical_stays_positive():
    p = sk.StickPullParams(beta=1.5, tau=50.0)
    d = sk.build_stickpull_delayed(p)
    traj = sk.integrate_delayed(sk.compile_rhs(d), t_end=400.0, dt=0.05)
    tail = traj.column("s")[traj.times > 200]
    assert tail.min() > 0.05


def test_stickpull_models_share_topology():
    simple = sk.build_stickpull_simple()
    delayed = sk.build_stickpull_delayed()
    assert simple.state_names == delayed.state_names
    assert ([(t.source, t.target) for t in simple.transitions]
            == [(t.source, t.target) for t in delayed.transitions])


def test_stickpull_param_validation():
    with pytest.raises(ValueError):
        sk.StickPullParams(beta=0.0)
    with pytest.raises(ValueError):
        sk.StickPullParams(r_g=1.5)
    with pytest.raises(ValueError):
        sk.StickPullParams(gamma=-1.0)
    with pytest.raises(ValueError, match="gamma must be finite"):
        sk.StickPullParams(gamma=float("inf"))


# -- communicating foragers -------------------------------------------------


def test_sugawara_conserves_and_delivers():
    d = sk.build_sugawara()
    system = sk.compile_rhs(d)
    rng = np.random.default_rng(3)
    for _ in range(25):
        y = rng.uniform(0, 2, size=6)
        y[:5] = y[:5] / y[:5].sum() * 8.0
        assert abs(system.rhs(0.0, y)[:5].sum()) < 1e-12
    traj = sk.integrate(system, t_end=50.0, dt=0.02)
    delivered = traj.column("delivered")
    assert delivered[-1] > 0
    assert np.all(np.diff(delivered) >= 0)


def test_sugawara_x_zero_disables_interaction():
    d = sk.build_sugawara(sk.SugawaraParams(x=0))
    assert d.params["lx"] == 0.0
    traj = sk.integrate(sk.compile_rhs(d), t_end=50.0, dt=0.02)
    assert traj.column("mv").max() < 1e-10
    assert traj.column("av").max() < 1e-10


# -- fine-grained collaboration (difference) --------------------------------


def test_collab_difference_flags_and_delays():
    d = sk.build_collab_difference()
    assert d.discrete
    system = sk.compile_rhs(d)
    assert system.flavor == "difference"
    assert max(system.delay_values) == 58.0


def test_collab_difference_conserves_exactly():
    traj = sk.iterate_difference(sk.compile_rhs(sk.build_collab_difference()),
                                 k_steps=2000)
    tot = traj.data.sum(axis=1)
    assert np.abs(tot - 8.0).max() < 1e-10
    assert traj.data.min() >= 0.0


def test_collab_difference_zero_rates_frozen():
    p = sk.CollabDiffParams(alpha=0, alpha_t=0, alpha_w=0, alpha_r=0)
    traj = sk.iterate_difference(sk.compile_rhs(sk.build_collab_difference(p)),
                                 k_steps=100)
    assert np.allclose(traj.column("s"), 8.0)


def test_collab_difference_stationary_survival_factor():
    # with the searching count pinned, the help-window survival factor is
    # the closed-form power (1 - at*s)^tga: the window integral on a
    # constant history is w * f(y0), also while the window still reaches
    # back before t0 into the constant pre-history
    import math

    from swarmk.expr import Call, generate_function, nodes, unparse
    from swarmk.integrate import HistoryAccessor

    p = sk.CollabDiffParams()
    d = sk.build_collab_difference(p)
    node = next(n for tr in d.transitions for n in nodes(tr.rate)
                if isinstance(n, Call) and n.func == "histint")
    names = d.state_names + d.env_names + ["t"]
    key = unparse(node.args[0])
    fn = generate_function(node.args[0], d.base_bindings(),
                           {n: i for i, n in enumerate(names)})
    y0 = d.initial_vector()
    expected = p.t_ga * math.log(1.0 - p.alpha_t * 8.0)

    def history(dt, discrete=False):
        # a preallocated output array of 200 rows with row 0 filled
        rows = np.empty((200, len(y0)))
        rows[0] = y0
        return HistoryAccessor(0.0, dt, rows, discrete)

    h = history(1.0, discrete=True)
    for k in range(1, 200):
        h.append(y0)
        if k in (10, 199):
            now = h.bindings_at(float(k))
            total = h.window_integral(key, fn, k - p.t_ga, float(k), now)
            assert total == pytest.approx(expected, rel=1e-12)
    assert h.count == 200 and np.all(h.rows == y0)
    assert math.exp(total) == pytest.approx(
        (1.0 - p.alpha_t * 8.0) ** p.t_ga, rel=1e-12)

    # continuous mode (trapezoid) on a dt=0.5 grid with rows up to
    # t=99.5: before t0, on a row, between rows, and the RK4 stage
    # overhang past the newest row
    h = history(0.5)
    for _ in range(199):
        h.append(y0)
    now = h.bindings_at(0.0)
    for t in (10.0, 99.0, 80.25, 99.75):
        total = h.window_integral(key, fn, t - p.t_ga, t, now)
        assert total == pytest.approx(expected, rel=1e-12)


def test_collab_difference_param_validation():
    with pytest.raises(ValueError):
        sk.CollabDiffParams(t_a=-1)
    with pytest.raises(ValueError, match="t_a must be finite"):
        sk.CollabDiffParams(t_a=float("inf"))
    with pytest.raises(ValueError):
        sk.CollabDiffParams(alpha=1.5)
    with pytest.raises(ValueError):
        sk.CollabDiffParams(alpha_t=0.2, n0=8)


# -- dimensional counts model ----------------------------------------------


def test_stickpull_counts_matches_dimensionless_mean_field():
    # alpha*M0 = 1 makes the count-level clock equal the dimensionless one
    p = sk.StickPullCountsParams(n0=10, m0=20, alpha=0.05, gamma_d=0.2)
    d = sk.build_stickpull_counts(p)
    traj = sk.integrate(sk.compile_rhs(d), t_end=50.0, dt=0.01)
    root = sk.steady_state_simple(0.5, 0.2, 0.35)
    assert traj.final()["s"] / 10 == pytest.approx(root.n, abs=1e-4)


# -- builder overrides -------------------------------------------------------


def test_build_builtin_field_overrides():
    d = sk.build_builtin("foraging", n0=3, m0=10)
    assert dict(d.states)["s"] == 3.0
    assert dict(d.env_vars)["m"] == 10.0
    # integral floats coerce for integer fields
    d2 = sk.build_builtin("foraging", n0=3.0)
    assert dict(d2.states)["s"] == 3.0
    with pytest.raises(sk.ModelError):
        sk.build_builtin("foraging", nope=1)
    with pytest.raises(KeyError):
        sk.build_builtin("no-such-model")
