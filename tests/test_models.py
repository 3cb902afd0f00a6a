"""Built-in model builders: structure, conservation, shipped sources."""
import numpy as np
import pytest

import swarmk as sk
from swarmk.models import render_default_sources


@pytest.mark.parametrize("name", sk.BUILTIN_NAMES)
def test_builders_pass_validation(name):
    d = sk.build_builtin(name)
    assert sk.validate_diagram(d).ok


@pytest.mark.parametrize("name", sk.BUILTIN_NAMES)
def test_shipped_sources_match_builders(name):
    built = sk.build_builtin(name)
    shipped = sk.parse_model(sk.shipped_source(name))
    assert shipped.states == built.states
    assert shipped.env_vars == built.env_vars
    assert shipped.params == built.params
    assert shipped.transitions == built.transitions


def test_unknown_builtin():
    with pytest.raises(KeyError):
        sk.build_builtin("nope")


def test_rendered_defaults_cover_all_builtins():
    assert set(render_default_sources()) == set(sk.BUILTIN_NAMES)


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

    from swarmk.expr import Call, EvalContext, compile_expr, nodes, unparse
    from swarmk.integrate import HistoryAccessor

    p = sk.CollabDiffParams()
    d = sk.build_collab_difference(p)
    node = next(n for tr in d.transitions for n in nodes(tr.rate)
                if isinstance(n, Call) and n.func == "histint")
    names = d.state_names + d.env_names + ["t"]
    key = unparse(node.args[0])
    fn = compile_expr(node.args[0], d.base_bindings(),
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
            now = EvalContext(h.bindings_at(float(k)), h)
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
    now = EvalContext(h.bindings_at(0.0), h)
    for t in (10.0, 99.0, 80.25, 99.75):
        total = h.window_integral(key, fn, t - p.t_ga, t, now)
        assert total == pytest.approx(expected, rel=1e-12)


def test_collab_difference_param_validation():
    with pytest.raises(ValueError):
        sk.CollabDiffParams(t_a=-1)
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
    with pytest.raises(KeyError):
        sk.build_builtin("foraging", nope=1)
    with pytest.raises(KeyError):
        sk.build_builtin("no-such-model")
