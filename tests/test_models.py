"""Built-in models: structure, domains, conservation, shipped sources."""
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


# non-default parameters by name, and the params (in declaration order),
# states, env vars and N0 a build must set on the shipped diagram
NON_DEFAULT_BUILDS = {
    "foraging": (
        dict(n0=7, m0=12, ap=0.02, ar=0.05, arp=0.1, tau0=2.0,
             tau_slope=0.5, tau_h0=10.0),
        # tau = 2 + 0.5 * 6; tauh = 10 * (1 + 0.1 * 5 * 7)
        {"ap": 0.02, "ar": 0.05, "arp": 0.1, "n0": 7.0, "m0": 12.0,
         "tau0": 2.0, "tau_slope": 0.5, "tau_h0": 10.0, "tau": 5.0,
         "tauh": 45.0},
        (("s", 7.0), ("h", 0.0), ("avs", 0.0), ("avh", 0.0)),
        (("m", 12.0),), 7.0),
    "sugawara": (
        dict(alpha=0.1, b=0.3, tau=6.0, x=2.0, a=0.5, l_x=0.1, d=4.0, v=8.0,
             gloc=5.0, n0=10, k_target=30),
        {"alpha": 0.1, "b": 0.3, "tau": 6.0, "x": 2.0, "a": 0.5, "l_x": 0.1,
         "lx": 0.1, "d": 4.0, "v": 8.0, "gloc": 5.0, "k_target": 30.0,
         "n0": 10.0},
        (("s", 10.0), ("bc", 0.0), ("h", 0.0), ("mv", 0.0), ("av", 0.0)),
        (("delivered", 0.0),), 10.0),
    "stickpull-simple": (
        dict(beta=0.8, rg=0.5, gamma=0.3),
        {"beta": 0.8, "gamma": 0.3, "rg": 0.5},
        (("s", 1.0), ("g", 0.0)), (("m", 1.0),), 1.0),
    "stickpull-delayed": (
        dict(beta=0.8, rg=0.5, tau=7),
        {"beta": 0.8, "tau": 7.0, "rg": 0.5},
        (("s", 1.0), ("g", 0.0)), (("m", 1.0),), 1.0),
    "stickpull-counts": (
        dict(n0=6, m0=9, alpha=0.1, rg=0.4, gammad=0.3),
        {"alpha": 0.1, "rg": 0.4, "gammad": 0.3, "m0": 9.0, "n0": 6.0},
        (("s", 6.0), ("g", 0.0)), (), 6.0),
    "collab-difference": (
        dict(alpha=0.004, at=0.002, aw=0.006, ar=0.007, m0=12, n0=6, ta=4,
             tia=9, tca=7, tcda=12, tcga=50, tga=45),
        {"alpha": 0.004, "at": 0.002, "aw": 0.006, "ar": 0.007, "m0": 12.0,
         "ta": 4.0, "tia": 9.0, "tca": 7.0, "tcda": 12.0, "tcga": 50.0,
         "tga": 45.0, "n0": 6.0},
        (("s", 6.0), ("av", 0.0), ("intf", 0.0), ("ca", 0.0), ("cda", 0.0),
         ("g", 0.0)), (), 6.0),
    "stickpull-simple-depletion": (
        dict(beta=0.8, rg=0.5, gamma=0.3, mu=1),
        {"beta": 0.8, "gamma": 0.3, "rg": 0.5, "mu": 1.0},
        (("s", 1.0), ("g", 0.0)), (("m", 1.0),), 1.0),
    "stickpull-delayed-depletion": (
        dict(beta=0.8, rg=0.5, tau=7, mu=1),
        {"beta": 0.8, "tau": 7.0, "rg": 0.5, "mu": 1.0},
        (("s", 1.0), ("g", 0.0)), (("m", 1.0),), 1.0),
}


@pytest.mark.parametrize("name", sk.BUILTIN_NAMES)
def test_shipped_sources_match_builders(name):
    # a build sets every value of the shipped diagram, as floats (the
    # parser's type), and keeps its structure
    overrides, params, states, env_vars, n0 = NON_DEFAULT_BUILDS[name]
    d = sk.build_builtin(name, **overrides)
    shipped = sk.parse_model(sk.shipped_source(name))
    assert list(d.params.items()) == list(params.items())
    assert d.states == states
    assert d.env_vars == env_vars
    assert d.n0 == n0
    values = [*d.params.values(), *(v for _, v in states + env_vars), d.n0]
    assert all(type(v) is float for v in values)
    assert d.transitions == shipped.transitions
    assert d.domains == shipped.domains
    assert d.name == name
    assert d.discrete == (name == "collab-difference")
    # with nothing set a build has the file's own values, so the name and
    # the file path give the same model
    default = sk.build_builtin(name)
    assert list(default.params.items()) == list(shipped.params.items())
    assert default.states == shipped.states
    assert default.env_vars == shipped.env_vars


# each parameter's domain, per shipped file: the checks of the removed
# parameter dataclasses
_POS = (0.0, math.inf, "()")
_NONNEG = (0.0, math.inf, "[)")
_COUNT = (1.0, math.inf, "[)")
_FRACTION = (0.0, 1.0, "(]")
DOMAINS = {
    "foraging": {**dict.fromkeys(("ap", "ar", "arp", "tau0", "tau_h0"), _POS),
                 "tau_slope": _NONNEG, "n0": _COUNT, "m0": _COUNT},
    "sugawara": {"tau": _POS, "d": _POS, "n0": _COUNT, "k_target": _COUNT,
                 **dict.fromkeys(("alpha", "b", "x", "a", "l_x", "v", "gloc"),
                                 _NONNEG)},
    "stickpull-simple": {"beta": _POS, "rg": _FRACTION, "gamma": _NONNEG},
    "stickpull-delayed": {"beta": _POS, "rg": _FRACTION, "tau": _NONNEG},
    "stickpull-counts": {"alpha": _POS, "rg": _FRACTION, "gammad": _NONNEG,
                         "n0": _COUNT, "m0": _COUNT},
    "collab-difference": {
        **dict.fromkeys(("alpha", "at", "aw", "ar"), (0.0, 1.0, "[]")),
        **dict.fromkeys(("ta", "tia", "tca", "tcda", "tcga", "tga"),
                        _NONNEG)},
    "stickpull-simple-depletion": {"beta": _POS, "rg": _FRACTION,
                                   "gamma": _NONNEG, "mu": _NONNEG},
    "stickpull-delayed-depletion": {"beta": _POS, "rg": _FRACTION,
                                    "tau": _NONNEG, "mu": _NONNEG},
}


@pytest.mark.parametrize("name", sk.BUILTIN_NAMES)
def test_shipped_domains(name):
    assert sk.build_builtin(name).domains == DOMAINS[name]


# the depletion variants as .mas text: the replacement model's text with
# "m -= beta" on the success transition, then the arrival rate mu
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
TASK_ADDITION = "rate(mu): s -> s ; m += 1\n"


@pytest.mark.parametrize("name", ["stickpull-simple", "stickpull-delayed"])
@pytest.mark.parametrize("mu", [0.0, 0.3])
def test_stickpull_variants_match_their_text(name, mu):
    text = (STICKPULL_HEADS[name] + f"param mu = {mu}\n" + DEPLETION_BODY
            + STICKPULL_TAILS[name] + TASK_ADDITION)
    expected = sk.parse_model(text)
    d = sk.build_builtin(f"{name}-depletion", mu=mu)
    assert list(d.params.items()) == list(expected.params.items())
    assert d.states == expected.states
    assert d.env_vars == expected.env_vars
    assert d.transitions == expected.transitions
    assert d.n0 == expected.n0
    # the replacement model is that text without mu and the two edits
    base = sk.build_builtin(name)
    assert list(base.params.items()) == list(d.params.items())[:-1]
    assert [tr.rate for tr in base.transitions] == \
        [tr.rate for tr in d.transitions[:-1]]


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

    def counting_parse(text, origin):
        parsed[origin] += 1
        return parse(text, origin=origin)

    monkeypatch.setattr(models, "parse_model", counting_parse)
    models._shipped_diagram.cache_clear()
    overrides = {"foraging": {"n0": 3}, "sugawara": {"x": 0},
                 "stickpull-simple": {"gamma": 0.3},
                 "stickpull-delayed": {"tau": 2.0},
                 "stickpull-counts": {"m0": 6},
                 "collab-difference": {"tga": 40},
                 "stickpull-simple-depletion": {"mu": 0.3},
                 "stickpull-delayed-depletion": {"mu": 0.3}}
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
    d = sk.build_builtin("foraging")
    assert d.state_names == ["s", "h", "avs", "avh"]
    assert d.env_names == ["m"]
    assert d.n0 == 5.0
    assert d.params["tau"] == pytest.approx(3.0 + 0.2 * 4)
    assert d.params["tauh"] == pytest.approx(16.0 * (1 + 0.08 * 3.8 * 5))


def test_foraging_state_derivatives_sum_to_zero():
    system = sk.compile_rhs(sk.build_builtin("foraging"))
    rng = np.random.default_rng(1)
    for _ in range(25):
        y = rng.uniform(0, 2, size=5)
        y[:4] = y[:4] / y[:4].sum() * 5.0
        y[4] = rng.uniform(4, 20)
        assert abs(system.rhs(0.0, y)[:4].sum()) < 1e-12


def test_foraging_interference_off_reduces_to_search_home_cycle():
    d = sk.build_builtin("foraging", ar=1e-12, arp=1e-12)
    traj = sk.integrate(sk.compile_rhs(d), t_end=200.0, dt=0.05)
    # avoidance pools stay empty when robot detection is off
    assert traj.column("avs").max() < 1e-8
    assert traj.column("avh").max() < 1e-8


def test_foraging_param_validation():
    with pytest.raises(ValueError):
        sk.build_builtin("foraging", n0=0)
    with pytest.raises(ValueError):
        sk.build_builtin("foraging", ap=0.0)
    with pytest.raises(ValueError):
        sk.build_builtin("foraging", tau_slope=-0.1)
    with pytest.raises(ValueError, match="tauh must be finite"):
        sk.build_builtin("foraging", arp=1e308)


_rates = st.floats(min_value=1e-4, max_value=2.0)


@given(st.fixed_dictionaries(dict(
    n0=st.integers(1, 50), m0=st.integers(1, 50), ap=_rates, ar=_rates,
    arp=_rates, tau0=st.floats(0.01, 100.0), tau_slope=st.floats(0.0, 10.0),
    tau_h0=st.floats(0.01, 100.0))))
def test_foraging_derived_params_match_the_formulas(p):
    # the formulas of the removed ForagingParams.tau/tau_h, written out
    tau = p["tau0"] + p["tau_slope"] * (p["n0"] - 1)
    tau_h = p["tau_h0"] * (1.0 + p["arp"] * tau * p["n0"])
    d = sk.build_builtin("foraging", **p)
    assert d.params["tau"] == tau
    assert d.params["tauh"] == tau_h


@given(st.fixed_dictionaries(dict(
    x=st.one_of(st.sampled_from([0, 0.0, -0.0]), st.floats(0.0, 50.0)),
    l_x=st.one_of(st.just(-0.0), st.floats(0.0, 1.0)))))
def test_sugawara_derived_lx_matches_the_formula(p):
    # the removed SugawaraParams.lx: no broadcast at x = 0
    lx = sk.build_builtin("sugawara", **p).params["lx"]
    assert lx == (0.0 if p["x"] == 0 else p["l_x"])
    if p["x"] == 0:
        assert math.copysign(1.0, lx) == 1.0


def test_overrides_pin_and_rederive():
    d = sk.build_builtin("foraging").with_params(tau=4.0)
    assert d.params["tauh"] == 16.0 * (1 + 0.08 * 4.0 * 5)
    # a pinned value stays pinned; what still derives follows n0
    d = d.with_params(n0=3.0)
    assert d.params["tau"] == 4.0
    assert d.params["tauh"] == 16.0 * (1 + 0.08 * 4.0 * 3.0)
    assert d.states[0] == ("s", 3.0) and d.n0 == 3.0
    # so does a state set by with_state_init
    d = sk.build_builtin("foraging").with_state_init(s=2.0).with_params(n0=3.0)
    assert d.states[0] == ("s", 2.0) and d.n0 == 2.0
    assert d.params["tau"] == 3.0 + 0.2 * (3.0 - 1)
    # by name and by override alike
    assert sk.build_builtin("foraging", tau=4.0, n0=3) == \
        sk.build_builtin("foraging").with_params(tau=4.0, n0=3.0)


def test_foraging_depletion_monotone():
    traj = sk.integrate(sk.compile_rhs(sk.build_builtin("foraging")), t_end=300, dt=0.05)
    m = traj.column("m")
    assert np.all(np.diff(m) < 0)


# -- stick pulling ----------------------------------------------------------


def test_stickpull_simple_matches_closed_form_steady_state():
    d = sk.build_builtin("stickpull-simple")
    traj = sk.integrate(sk.compile_rhs(d), t_end=100.0, dt=0.01)
    root = sk.steady_state_simple(0.5, 0.2, 0.35)
    assert abs(traj.final()["s"] - root.n) < 1e-4


def test_stickpull_simple_gamma_zero_absorbs_everyone():
    d = sk.build_builtin("stickpull-simple", beta=0.5, gamma=0.0)
    traj = sk.integrate(sk.compile_rhs(d),
                        t_end=200.0, dt=0.01)
    assert traj.final()["s"] < 1e-6


def test_stickpull_simple_huge_gamma_pins_searching():
    # the release transient relaxes on the 1/gamma timescale, so a short
    # horizon already reaches the pinned state
    d = sk.build_builtin("stickpull-simple", beta=0.5, gamma=1e6)
    traj = sk.integrate(sk.compile_rhs(d),
                        t_end=2e-3, dt=1e-6)
    assert traj.final()["s"] == pytest.approx(1.0, abs=1e-4)


def test_stickpull_replacement_keeps_m_constant():
    traj = sk.integrate(sk.compile_rhs(sk.build_builtin("stickpull-simple")),
                        t_end=10.0, dt=0.01)
    assert np.allclose(traj.column("m"), 1.0)


def test_stickpull_depletion_m_decreases():
    d = sk.build_builtin("stickpull-simple-depletion")
    traj = sk.integrate(sk.compile_rhs(d),
                        t_end=10.0, dt=0.01)
    m = traj.column("m")
    assert m[-1] < 1.0
    assert np.all(np.diff(m) <= 1e-15)


def test_stickpull_delayed_tau_zero_steady_is_one():
    d = sk.build_builtin("stickpull-delayed", tau=0.0)
    traj = sk.integrate_delayed(sk.compile_rhs(d), t_end=30.0, dt=0.01)
    assert traj.final()["s"] == pytest.approx(1.0, abs=1e-6)


def test_stickpull_delayed_supercritical_stays_positive():
    d = sk.build_builtin("stickpull-delayed", beta=1.5, tau=50.0)
    traj = sk.integrate_delayed(sk.compile_rhs(d), t_end=400.0, dt=0.05)
    tail = traj.column("s")[traj.times > 200]
    assert tail.min() > 0.05


def test_stickpull_models_share_topology():
    simple = sk.build_builtin("stickpull-simple")
    delayed = sk.build_builtin("stickpull-delayed")
    assert simple.state_names == delayed.state_names
    assert ([(t.source, t.target) for t in simple.transitions]
            == [(t.source, t.target) for t in delayed.transitions])


def test_stickpull_param_validation():
    with pytest.raises(ValueError):
        sk.build_builtin("stickpull-simple", beta=0.0)
    with pytest.raises(ValueError):
        sk.build_builtin("stickpull-simple", rg=1.5)
    with pytest.raises(ValueError):
        sk.build_builtin("stickpull-simple", gamma=-1.0)
    with pytest.raises(ValueError, match="gamma must be finite"):
        sk.build_builtin("stickpull-simple", gamma=float("inf"))


# -- communicating foragers -------------------------------------------------


def test_sugawara_conserves_and_delivers():
    d = sk.build_builtin("sugawara")
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
    d = sk.build_builtin("sugawara", x=0)
    assert d.params["lx"] == 0.0
    traj = sk.integrate(sk.compile_rhs(d), t_end=50.0, dt=0.02)
    assert traj.column("mv").max() < 1e-10
    assert traj.column("av").max() < 1e-10


# -- fine-grained collaboration (difference) --------------------------------


def test_collab_difference_flags_and_delays():
    d = sk.build_builtin("collab-difference")
    assert d.discrete
    system = sk.compile_rhs(d)
    assert system.flavor == "difference"
    assert max(system.delay_values) == 58.0


def test_collab_difference_conserves_exactly():
    d = sk.build_builtin("collab-difference")
    traj = sk.iterate_difference(sk.compile_rhs(d), k_steps=2000)
    tot = traj.data.sum(axis=1)
    assert np.abs(tot - 8.0).max() < 1e-10
    assert traj.data.min() >= 0.0


def test_collab_difference_zero_rates_frozen():
    d = sk.build_builtin("collab-difference", alpha=0, at=0, aw=0, ar=0)
    traj = sk.iterate_difference(sk.compile_rhs(d), k_steps=100)
    assert np.allclose(traj.column("s"), 8.0)


def test_collab_difference_stationary_survival_factor():
    # with the searching count pinned, the help-window survival factor is
    # the closed-form power (1 - at*s)^tga: the window integral on a
    # constant history is w * f(y0), also while the window still reaches
    # back before t0 into the constant pre-history
    import math

    from swarmk.expr import Call, generate_function, nodes, unparse
    from swarmk.integrate import HistoryAccessor

    d = sk.build_builtin("collab-difference")
    tga, at = d.params["tga"], d.params["at"]
    node = next(n for tr in d.transitions for n in nodes(tr.rate)
                if isinstance(n, Call) and n.func == "histint")
    names = d.state_names + d.env_names + ["t"]
    key = unparse(node.args[0])
    fn = generate_function(node.args[0], {**d.params, "N0": d.n0},
                           {n: i for i, n in enumerate(names)})
    y0 = d.initial_vector()
    expected = tga * math.log(1.0 - at * 8.0)

    def history(dt, discrete=False):
        # a preallocated output array of 200 rows with row 0 filled
        rows = np.empty((200, len(y0)))
        rows[0] = y0
        return HistoryAccessor(dt, rows, discrete)

    h = history(1.0, discrete=True)
    for k in range(1, 200):
        h.append(y0)
        if k in (10, 199):
            now = h.bindings_at(float(k))
            total = h.window_integral(key, fn, k - tga, float(k), now)
            assert total == pytest.approx(expected, rel=1e-12)
    assert h.count == 200 and np.all(h.rows == y0)
    assert math.exp(total) == pytest.approx(
        (1.0 - at * 8.0) ** tga, rel=1e-12)

    # continuous mode (trapezoid) on a dt=0.5 grid with rows up to
    # t=99.5: before t0, on a row, between rows, and the RK4 stage
    # overhang past the newest row
    h = history(0.5)
    for _ in range(199):
        h.append(y0)
    now = h.bindings_at(0.0)
    for t in (10.0, 99.0, 80.25, 99.75):
        total = h.window_integral(key, fn, t - tga, t, now)
        assert total == pytest.approx(expected, rel=1e-12)


def test_collab_difference_param_validation():
    with pytest.raises(ValueError):
        sk.build_builtin("collab-difference", ta=-1)
    with pytest.raises(ValueError, match="ta must be finite"):
        sk.build_builtin("collab-difference", ta=float("inf"))
    with pytest.raises(ValueError):
        sk.build_builtin("collab-difference", alpha=1.5)
    # at * n0 >= 1 leaves the help window's ln without a value
    with pytest.raises(sk.ModelError, match="ln of non-positive value"):
        sk.compile_rhs(sk.build_builtin("collab-difference", at=0.2, n0=8))


# -- dimensional counts model ----------------------------------------------


def test_stickpull_counts_matches_dimensionless_mean_field():
    # alpha*M0 = 1 makes the count-level clock equal the dimensionless one
    d = sk.build_builtin("stickpull-counts", n0=10, m0=20, alpha=0.05,
                         gammad=0.2)
    traj = sk.integrate(sk.compile_rhs(d), t_end=50.0, dt=0.01)
    root = sk.steady_state_simple(0.5, 0.2, 0.35)
    assert traj.final()["s"] / 10 == pytest.approx(root.n, abs=1e-4)


# -- builder overrides -------------------------------------------------------


def test_build_builtin_field_overrides():
    d = sk.build_builtin("foraging", n0=3, m0=10)
    assert dict(d.states)["s"] == 3.0
    assert dict(d.env_vars)["m"] == 10.0
    d2 = sk.build_builtin("foraging", n0=3.0)
    assert dict(d2.states)["s"] == 3.0
    with pytest.raises(sk.ModelError):
        sk.build_builtin("foraging", nope=1)
    with pytest.raises(KeyError):
        sk.build_builtin("no-such-model")
