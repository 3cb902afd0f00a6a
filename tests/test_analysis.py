"""Steady states, optima, sweeps, completion times, scaling fits."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import swarmk as sk
from swarmk import analysis
from swarmk.errors import IntegrationError, NotReached


# -- quadratic steady state -------------------------------------------------


def _bisect_simple(beta, gamma, r_g):
    """Independent oracle: bisection on the quadratic's sign change."""
    a = beta + r_g * beta

    def f(n):
        return a * n * n + (1.0 + gamma - a) * n - gamma

    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_steady_simple_reference_point():
    res = sk.steady_state_simple(0.5, 0.2, 0.35)
    assert res.n == pytest.approx(0.2801, abs=1e-4)
    assert res.n == pytest.approx(_bisect_simple(0.5, 0.2, 0.35), abs=1e-10)
    assert res.residual <= 1e-12


def test_steady_simple_huge_gamma_goes_to_one():
    res = sk.steady_state_simple(0.5, 1e9, 0.35)
    assert res.n == pytest.approx(1.0, abs=1e-6)
    assert res.residual <= 1e-12


@pytest.mark.parametrize("gamma", [1e160, 1e200, 1e300, 9e307, 1.7e308])
def test_steady_simple_gamma_past_the_square_overflow(gamma):
    # b * b overflows past ~1.3e154; the scaled form keeps the root at ~1,
    # and the halved terms keep b + disc finite up to the largest float
    res = sk.steady_state_simple(0.5, gamma, 0.35)
    assert res.n == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-12


def test_steady_simple_gamma_zero_branches():
    # subcritical occupancy: everyone ends up gripping
    res = sk.steady_state_simple(0.5, 0.0, 0.35)
    assert res.n == 0.0
    assert res.branch == "boundary"
    # dense regime: a searching fraction survives
    res2 = sk.steady_state_simple(2.0, 0.0, 0.35)
    assert res2.n == pytest.approx((2.7 - 1.0) / 2.7)


@given(st.floats(0.05, 3.0), st.floats(0.0, 50.0), st.floats(0.05, 1.0))
def test_steady_simple_always_valid(beta, gamma, r_g):
    res = sk.steady_state_simple(beta, gamma, r_g)
    assert 0.0 <= res.n <= 1.0
    assert res.residual <= 1e-9


def test_steady_simple_input_validation():
    with pytest.raises(ValueError):
        sk.steady_state_simple(0.0, 0.2, 0.35)
    with pytest.raises(ValueError):
        sk.steady_state_simple(0.5, -0.1, 0.35)


# -- delayed steady state ---------------------------------------------------


def _bisect_delayed(beta, tau, r_g):
    bt = r_g * beta

    def f(n):
        return (-1.0 + (beta + bt) * (1.0 - n)
                + (1.0 - beta * (1.0 - n)) * math.exp(-bt * tau * n))

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_steady_delayed_reference_point():
    res = sk.steady_state_delayed(0.5, 5.0, 0.35)
    assert res.n == pytest.approx(0.262, abs=1e-3)
    assert res.n == pytest.approx(_bisect_delayed(0.5, 5.0, 0.35), abs=1e-9)
    assert res.residual <= 1e-10


def test_steady_delayed_tau_zero():
    res = sk.steady_state_delayed(0.5, 0.0, 0.35)
    assert res.n == 1.0


def test_steady_delayed_supercritical_asymptote():
    r1 = sk.steady_state_delayed(1.5, 50.0, 0.35)
    r2 = sk.steady_state_delayed(1.5, 100.0, 0.35)
    assert r1.n > 0.1
    assert abs(r1.n - r2.n) < 1e-3


@given(st.floats(0.05, 2.5), st.floats(0.01, 40.0), st.floats(0.05, 1.0))
def test_steady_delayed_residual_bound(beta, tau, r_g):
    res = sk.steady_state_delayed(beta, tau, r_g)
    assert 0.0 <= res.n <= 1.0
    assert res.residual <= 1e-10


def test_steady_delayed_matches_integration():
    d = sk.build_builtin("stickpull-delayed", beta=0.5, tau=5.0)
    traj = sk.integrate_delayed(sk.compile_rhs(d), t_end=200.0, dt=0.01)
    settled = sk.steady_state_of_trajectory(traj, "s")
    assert abs(settled - sk.steady_state_delayed(0.5, 5.0, 0.35).n) < 1e-3


def _delayed_residual(n, beta, tau, r_g):
    """|f(n)| of the gripping-timer steady-state condition, written out."""
    b = r_g * beta
    return abs(-1.0 + (beta + b) * (1.0 - n)
               + (1.0 - beta * (1.0 - n)) * math.exp(-b * tau * n))


@pytest.mark.parametrize("tau, root", [(1e6, 2.4616015e-6),
                                       (1e8, 2.4616165e-8),
                                       (1e12, 2.4616167e-12)])
def test_steady_delayed_long_gripping_times(tau, root):
    # the root falls like 1/tau; a bisection to 1e-6 cannot resolve it
    res = sk.steady_state_delayed(0.5, tau, 0.35)
    assert res.branch == "unique"
    assert res.n == pytest.approx(root, rel=1e-6)
    assert _delayed_residual(res.n, 0.5, tau, 0.35) <= 1e-12
    assert res.residual <= 1e-12


@given(st.floats(0.05, 2.5), st.floats(0.01, 40.0), st.floats(0.05, 1.0))
def test_steady_delayed_newton_reaches_round_off(beta, tau, r_g):
    res = sk.steady_state_delayed(beta, tau, r_g)
    assert 0.0 < res.n < 1.0
    assert res.residual <= 1e-14
    assert _delayed_residual(res.n, beta, tau, r_g) <= 1e-14


def test_steady_delayed_exact_zero_boundaries():
    # at tau = 1e-300 the root, about 1 - tau, rounds to 1
    assert sk.steady_state_delayed(0.5, 1e-300, 0.35) == \
        analysis.SteadyStateResult(1.0, "boundary", 0.0)
    # f(0) = b = 5e-301 is not rounded away: the root tends to that of
    # 1 - n = tau n (1 - beta (1 - n)) as r_g -> 0, not to the boundary 0
    limit = (-3.5 + math.sqrt(3.5 ** 2 + 10.0)) / 5.0
    for r_g in (1e-15, 1e-300):
        res = sk.steady_state_delayed(0.5, 5.0, r_g)
        assert res.branch == "unique"
        assert res.n == pytest.approx(limit, rel=1e-14)


@pytest.mark.parametrize("r_g", [1e-310, 1e-318, 1e-320, 1e-323, 5e-324])
def test_steady_delayed_where_b_is_subnormal(r_g):
    # b = r_g * beta keeps a few bits or none; Newton runs on f / b, which
    # is 1 at n = 0 however small b is, so the root is the r_g -> 0 limit
    res = sk.steady_state_delayed(0.5, 5.0, r_g)
    assert res.branch == "unique"
    assert res.n == pytest.approx(0.2433981132056603, rel=1e-14)


def test_steady_delayed_where_the_first_newton_step_is_flat():
    # beta = 1.5, tau = 2, r_g = 1: f'(0) = -b (1 + tau (1 - beta)) = 0, so
    # the first step bisects instead of dividing by zero
    res = sk.steady_state_delayed(1.5, 2.0, 1.0)
    assert res.branch == "unique"
    assert 0.0 < res.n < 1.0
    assert _delayed_residual(res.n, 1.5, 2.0, 1.0) <= 1e-14


@pytest.mark.parametrize("beta, tau, root", [
    # b * tau overflows: f(n) = -1 + (beta + b)(1 - n) past n = 0
    (10.0, 1e300, 1.0 - 1.0 / 13.5), (10.0, 1.7e308, 1.0 - 1.0 / 13.5),
    # b * tau * (1 - beta) overflows in f'(0); the root is 1 - ~1e-160
    (1e160, 5.0, 1.0)])
def test_steady_delayed_past_the_overflow_of_its_terms(beta, tau, root):
    res = sk.steady_state_delayed(beta, tau, 0.35)
    assert res.branch == "unique"
    assert res.n == pytest.approx(root, rel=1e-15)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_steady_of_trajectory_refuses_a_run_too_short_to_settle(rows):
    # the last two rows are compared with the two before them
    from swarmk.integrate import Trajectory

    traj = Trajectory(np.arange(rows, dtype=float), np.ones((rows, 1)),
                      ["s"], [], {})
    with pytest.raises(IntegrationError, match=f"{rows} rows cannot show"):
        sk.steady_state_of_trajectory(traj, "s")
    longer = Trajectory(np.arange(4.0), np.ones((4, 1)), ["s"], [], {})
    assert sk.steady_state_of_trajectory(longer, "s") == 1.0


def test_steady_of_trajectory_refuses_a_column_still_moving():
    d = sk.build_builtin("stickpull-simple")
    traj = sk.integrate(sk.compile_rhs(d), t_end=1.0, dt=0.01)
    with pytest.raises(IntegrationError) as ei:
        sk.steady_state_of_trajectory(traj, "s")
    assert str(ei.value) == ("column 's' still moving (2.615e-02 between "
                             "windows); integrate longer")


# -- collaboration rate and optima ------------------------------------------


def test_collaboration_rate_values():
    assert sk.collaboration_rate(0.0, 0.5, 0.35) == 0.0
    assert sk.collaboration_rate(1.0, 0.5, 0.35) == 0.0
    assert sk.collaboration_rate(0.5, 0.5, 0.35) == pytest.approx(0.021875)
    with pytest.raises(ValueError):
        sk.collaboration_rate(1.2, 0.5, 0.35)


@given(st.floats(0.01, 0.99), st.floats(0.05, 2.0), st.floats(0.05, 1.0))
def test_collaboration_rate_peaks_at_half(n, beta, r_g):
    assert sk.collaboration_rate(n, beta, r_g) <= \
        sk.collaboration_rate(0.5, beta, r_g) + 1e-15


def test_beta_critical():
    assert sk.beta_critical(0.35) == pytest.approx(1.48148, abs=1e-5)
    assert sk.beta_critical(1.0) == 1.0
    assert sk.beta_critical(1e-9) == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError):
        sk.beta_critical(0.0)


def test_gamma_opt_reference_and_boundary():
    assert sk.gamma_opt(0.5, 0.35) == pytest.approx(0.6625)
    bc = sk.beta_critical(0.35)
    assert sk.gamma_opt(bc, 0.35) == pytest.approx(0.0, abs=1e-12)
    assert sk.gamma_opt(1.5, 0.35) is None


def test_gamma_opt_grid_search_agrees():
    # independent oracle: argmax of R over a release-rate grid
    grid = np.linspace(0.05, 2.0, 400)
    rates = [sk.collaboration_rate(sk.steady_state_simple(0.5, g, 0.35).n,
                                   0.5, 0.35) for g in grid]
    best = grid[int(np.argmax(rates))]
    assert abs(best - sk.gamma_opt(0.5, 0.35)) <= grid[1] - grid[0]


def test_steady_state_at_gamma_opt_is_half():
    res = sk.steady_state_simple(0.5, sk.gamma_opt(0.5, 0.35), 0.35)
    assert res.n == pytest.approx(0.5, abs=1e-9)


def test_tau_opt_reference_point():
    assert sk.tau_opt(0.5, 0.35) == pytest.approx(1.4178, abs=1e-3)
    assert sk.tau_opt(1.5, 0.35) is None


def test_tau_opt_grid_search_agrees():
    grid = np.linspace(0.01, 10.0, 400)
    rates = [sk.collaboration_rate(sk.steady_state_delayed(0.5, t, 0.35).n,
                                   0.5, 0.35) for t in grid]
    best = grid[int(np.argmax(rates))]
    assert abs(best - sk.tau_opt(0.5, 0.35)) <= grid[1] - grid[0]


def test_tau_opt_small_beta_limit():
    # both log arguments approach 1; the stable form keeps the limit finite
    v = sk.tau_opt(1e-6, 0.35)
    assert v == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("beta, rg", [(1e-200, 1e-200), (1e-160, 1e-160),
                                      (0.5, 1e-310)])
def test_tau_opt_where_bt_underflows(beta, rg):
    # bt = rg * beta is 0 or subnormal: tau_opt is its limit 1/(1 - beta/2)
    # (the division by bt raised ZeroDivisionError or gave NaN)
    assert sk.tau_opt(beta, rg) == pytest.approx(1.0 / (1.0 - beta / 2.0),
                                                 rel=1e-15)


def test_optima_share_critical_point():
    bc = sk.beta_critical(0.35)
    eps = 1e-6
    assert sk.gamma_opt(bc - eps, 0.35) is not None
    assert sk.tau_opt(bc - eps, 0.35) is not None
    assert sk.gamma_opt(bc + eps, 0.35) is None
    assert sk.tau_opt(bc + eps, 0.35) is None



# -- argument domains ---------------------------------------------------------

# (closed form, arguments inside the table, the table name of each)
_CLOSED_FORMS = [
    (sk.beta_critical, (0.35,), ("rg",)),
    (sk.collaboration_rate, (0.5, 0.5, 0.35), ("n", "beta", "rg")),
    (sk.steady_state_simple, (0.5, 0.2, 0.35), ("beta", "gamma", "rg")),
    (sk.steady_state_delayed, (0.5, 5.0, 0.35), ("beta", "tau", "rg")),
    (sk.gamma_opt, (0.5, 0.35), ("beta", "rg")),
    (sk.tau_opt, (0.5, 0.35), ("beta", "rg"))]
_OUTSIDE = {"n": (-0.1, 1.2), "beta": (0.0, -1.0), "gamma": (-1e-9,),
            "tau": (-1e-9,), "rg": (0.0, -0.1, 1.5)}


@pytest.mark.parametrize("solve, args, names", _CLOSED_FORMS,
                         ids=[f.__name__ for f, _, _ in _CLOSED_FORMS])
def test_closed_forms_refuse_arguments_outside_the_table(solve, args, names):
    solve(*args)
    for i, name in enumerate(names):
        for bad in (math.nan, math.inf, -math.inf, *_OUTSIDE[name]):
            with pytest.raises(ValueError, match=f"^{name} "):
                solve(*args[:i], bad, *args[i + 1:])


def test_tau_opt_refuses_rg_zero():
    # 2 / bt would divide by zero
    with pytest.raises(ValueError, match="rg = 0.0 is outside"):
        sk.tau_opt(0.5, 0.0)


def test_domains_table_is_the_shipped_files_domains():
    names = [n for n in sk.BUILTIN_NAMES if n.startswith("stickpull")]
    checked = set()
    for name in names:
        domains = sk.build_builtin(name).domains
        for k in set(domains) & set(analysis.DOMAINS):
            assert analysis.DOMAINS[k] == domains[k], (name, k)
            checked.add(k)
    assert checked == {"beta", "gamma", "tau", "rg", "alpha", "n0", "m0"}

# -- completion time / scaling / efficiency ---------------------------------


def _decay_traj():
    from swarmk.integrate import Trajectory

    t = np.linspace(0, 6, 601)
    data = np.column_stack([np.exp(-t)])
    return Trajectory(t, data, [], ["m"], {})


def test_completion_time_exponential():
    T = sk.completion_time(_decay_traj(), "m", "deplete", 0.05)
    assert T == pytest.approx(math.log(20.0), abs=0.01)


def test_completion_time_not_reached():
    with pytest.raises(NotReached) as ei:
        sk.completion_time(_decay_traj(), "m", "deplete", 1e-6)
    assert ei.value.final_value == pytest.approx(math.exp(-6.0))


def test_completion_time_reach_mode():
    from swarmk.integrate import Trajectory

    t = np.linspace(0, 10, 101)
    traj = Trajectory(t, np.column_stack([2.0 * t]), [], ["d"], {})
    assert sk.completion_time(traj, "d", "reach", 10.0) == pytest.approx(5.0)


def test_completion_time_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'drain'"):
        sk.completion_time(_decay_traj(), "m", "drain", 0.5)


def test_completion_time_crossed_at_the_first_row():
    # the counter starts at 1, already at or below the threshold
    assert sk.completion_time(_decay_traj(), "m", "deplete", 1.0) == 0.0


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_completion_time_refuses_a_threshold_that_is_not_finite(threshold):
    with pytest.raises(ValueError, match="threshold must be finite"):
        sk.completion_time(_decay_traj(), "m", "deplete", threshold)


def test_scaling_exponent_exact_laws():
    pts = [(n, 100.0 / n) for n in (2, 4, 8, 16, 32)]
    slope, err = sk.scaling_exponent(pts)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)
    pts = [(n, 7.0 * n ** -1.5) for n in (2, 4, 8, 16)]
    slope, _ = sk.scaling_exponent(pts)
    assert slope == pytest.approx(-1.5, abs=1e-12)


def test_scaling_exponent_validation():
    with pytest.raises(ValueError):
        sk.scaling_exponent([(1, 1), (2, 2)])
    with pytest.raises(ValueError):
        sk.scaling_exponent([(1, 1), (1, 2), (1, 3)])
    with pytest.raises(ValueError):
        sk.scaling_exponent([(1, 1), (2, -2), (3, 1)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_scaling_exponent_refuses_a_point_that_is_not_finite(bad):
    for pts in ([(1, 1), (2, bad), (3, 1)], [(1, 1), (bad, 2), (3, 1)]):
        with pytest.raises(ValueError, match="all points must be finite"):
            sk.scaling_exponent(pts)


def test_efficiency_per_robot():
    assert sk.efficiency_per_robot(10.0, 5, 20) == pytest.approx(0.4)
    assert sk.efficiency_per_robot(20.0, 5, 20) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        sk.efficiency_per_robot(0.0, 5, 20)


# -- sweeps -----------------------------------------------------------------


def test_sweep_over_release_rate():
    d = sk.build_builtin("stickpull-simple")
    grid = np.linspace(0.1, 1.5, 15)
    table = sk.sweep(d, "gamma", grid, ("nstar", "R"))
    assert table.errors == (None,) * 15
    n = table.column("nstar")
    assert np.all(np.diff(n) > 0)  # faster release -> more searchers


def test_sweep_interior_maximum_matches_formula():
    # the release time 1/gamma, swept through a derived declaration
    d = sk.parse_model(sk.shipped_source("stickpull-simple").replace(
        "param gamma = 0.2",
        "param inv_gamma = 5\nparam gamma = 1 / inv_gamma"))
    inv_grid = np.linspace(0.5, 10.0, 200)
    table = sk.sweep(d, "inv_gamma", inv_grid, ("R",))
    r = table.column("R")
    i = int(np.argmax(r))
    assert 0 < i < len(inv_grid) - 1
    assert abs(inv_grid[i] - 1.0 / sk.gamma_opt(0.5, 0.35)) \
        <= inv_grid[1] - inv_grid[0]


def test_sweep_records_row_failures():
    d = sk.build_builtin("stickpull-simple")
    table = sk.sweep(d, "gamma", [-1.0, 0.5, 1.0], ("nstar",))
    assert table.errors[0] is not None
    assert table.rows[0] == (None,)
    assert table.errors[1] is None
    assert table.errors[2] is None


def test_sweep_rows_refuse_a_depletion_model():
    # gamma, beta and rg are there, but the closed form is of another model
    d = sk.build_builtin("stickpull-simple-depletion")
    table = sk.sweep(d, "gamma", [0.1, 0.2], ("nstar", "R"))
    assert table.rows == ((None, None), (None, None))
    assert all(e.startswith("ModelError: no closed-form steady state")
               for e in table.errors)


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(diagram):
        raise TypeError("observable bug")

    monkeypatch.setattr(analysis, "_steady", broken)
    with pytest.raises(TypeError):
        sk.sweep(sk.build_builtin("stickpull-simple"), "gamma", [0.1, 0.2],
                 ("nstar",))


def test_sweep_rejects_bad_grid():
    d = sk.build_builtin("stickpull-simple")
    with pytest.raises(ValueError):
        sk.sweep(d, "gamma", [], ("nstar",))
    with pytest.raises(ValueError):
        sk.sweep(d, "gamma", [0.1, 0.3, 0.2], ("nstar",))


def test_sweep_refuses_an_unknown_mode_before_any_row(monkeypatch):
    def no_run(*args):
        raise AssertionError("a row was run")

    monkeypatch.setattr(analysis, "_run_to_trajectory", no_run)
    with pytest.raises(ValueError, match="^unknown mode 'drain'$"):
        sk.sweep(sk.build_builtin("foraging"), "n0", [1, 2], ("T",),
                 t_end=10, dt=0.5, counter="m", mode="drain", threshold=1.0)


def test_sweep_refuses_a_name_that_is_not_a_parameter(monkeypatch):
    def no_run(*args):
        raise AssertionError("a row was run")

    monkeypatch.setattr(analysis, "_run_to_trajectory", no_run)
    monkeypatch.setattr(analysis, "_steady", no_run)
    d = sk.build_builtin("stickpull-simple")
    for name in ("gama", "s", "m"):  # a misspelling, a state, a counter
        with pytest.raises(sk.ModelError,
                           match=rf"^unknown parameter\(s\): {name}$"):
            sk.sweep(d, name, [0.1, 0.2], ("nstar",))


def test_sweep_sweeps_a_derived_parameter():
    # foraging's tau is derived from n0; a sweep pins it row by row
    table = sk.sweep(sk.build_builtin("foraging"), "tau", [3.0, 4.0],
                     ("final:m",), t_end=10, dt=0.5)
    assert table.errors == (None, None)
    assert table.rows[0] != table.rows[1]


def test_sweep_trajectory_readers_match_direct_reads():
    d = sk.build_builtin("foraging")
    table = sk.sweep(d, "n0", [3], ("T", "steady:s", "final:m"),
                     t_end=1600, dt=0.5, counter="m", threshold=1.0)
    traj = sk.integrate(sk.compile_rhs(d.with_params(n0=3)), t_end=1600,
                        dt=0.5)
    assert table.errors == (None,)
    assert table.rows[0] == (
        sk.completion_time(traj, "m", "deplete", 1.0),
        analysis.steady_state_of_trajectory(traj, "s"), traj.final()["m"])


@pytest.mark.parametrize("name, param, value, solve", [
    ("stickpull-simple", "gamma", 0.3, sk.steady_state_simple),
    ("stickpull-delayed", "tau", 7.0, sk.steady_state_delayed)])
def test_sweep_steady_observables_match_the_closed_forms(name, param, value,
                                                         solve):
    d = sk.build_builtin(name)
    table = sk.sweep(d, param, [value], ("nstar", "R", "residual"))
    beta, rg = d.params["beta"], d.params["rg"]
    res = solve(beta, value, rg)
    assert table.rows[0] == (res.n, sk.collaboration_rate(res.n, beta, rg),
                             res.residual)


def test_sweep_of_a_difference_model_runs_t_end_steps():
    d = sk.build_builtin("collab-difference")
    table = sk.sweep(d, "n0", [6], [f"final:{c}" for c in
                                    (*d.state_names, *d.env_names)],
                     t_end=300)
    last = sk.iterate_difference(sk.compile_rhs(d.with_params(n0=6)),
                                 k_steps=300).data[-1]
    assert table.rows[0] == tuple(last)


def test_sweep_refuses_a_threshold_that_is_not_finite_before_any_row(
        monkeypatch):
    from swarmk import analysis

    def run(*args):
        raise AssertionError("a row ran")

    monkeypatch.setattr(analysis, "_run_to_trajectory", run)
    with pytest.raises(ValueError, match="threshold must be finite"):
        sk.sweep(sk.build_builtin("foraging"), "n0", [1, 3], ("T",),
                 t_end=10, dt=0.5, counter="m", threshold=math.nan)


def test_sweep_completion_time_observable():
    table = sk.sweep(sk.build_builtin("foraging"), "n0", [1, 3, 10], ("T",),
                     t_end=1600, dt=0.25, counter="m", mode="deplete",
                     threshold=1.0)
    T = table.column("T")
    assert T[1] < T[0] and T[1] < T[2]


def test_the_readme_library_sketch_runs_and_gives_its_comments():
    import pathlib

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    sketch = readme.read_text().split("## Library sketch", 1)[1]
    sketch = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(sketch, names)
    # each value to the digits its comment prints
    for value, shown in [("root.n", "0.26183"),
                         ("sk.beta_critical(0.35)", "1.48148"),
                         ("sk.gamma_opt(0.5, 0.35)", "0.6625"),
                         ("sk.tau_opt(0.5, 0.35)", "1.4177")]:
        assert shown in sketch
        digits = len(shown.partition(".")[2])
        assert f"{eval(value, names):.{digits}f}" == shown
