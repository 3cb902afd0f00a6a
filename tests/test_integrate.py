"""Integrators: RK4 order, delays, history integrals, difference stepping."""
import math

import numpy as np
import pytest

from swarmk.diagram import compile_rhs
from swarmk.errors import DelayMisaligned, IntegrationError
from swarmk.integrate import integrate, integrate_delayed, iterate_difference
from swarmk.parser import parse_model
from swarmk.stochastic import master_exact

DECAY = "state n = 1\nstate sink = 0\nrate(n): n -> sink\n"


def test_exponential_decay():
    traj = integrate(compile_rhs(parse_model(DECAY)), t_end=5.0, dt=0.01)
    assert traj.column("n")[-1] == pytest.approx(math.exp(-5.0), rel=1e-8)


def test_rk4_is_fourth_order():
    system = compile_rhs(parse_model(DECAY))
    errs = []
    for dt in (0.1, 0.05, 0.025):
        traj = integrate(system, t_end=1.0, dt=dt)
        errs.append(abs(traj.column("n")[-1] - math.exp(-1.0)))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 8 < r1 < 32
    assert 8 < r2 < 32


def test_trajectory_access():
    traj = integrate(compile_rhs(parse_model(DECAY)), t_end=1.0, dt=0.1)
    assert traj.columns == ["n", "sink"]
    assert len(traj.times) == 11
    assert set(traj.final()) == {"n", "sink"}
    with pytest.raises(KeyError):
        traj.column("zz")


def test_flavor_mismatch_rejected():
    system = compile_rhs(parse_model(DECAY))
    with pytest.raises(IntegrationError, match=r"^integrate_delayed\(\) "
                       "needs a dde system, got ode$"):
        integrate_delayed(system, t_end=1.0)
    with pytest.raises(IntegrationError, match=r"^iterate_difference\(\) "
                       "needs a difference system, got ode$"):
        iterate_difference(system, k_steps=5)
    delayed = compile_rhs(parse_model(DELAYED_SHIFT))
    with pytest.raises(IntegrationError, match=r"^integrate\(\) needs an "
                       "ode system, got dde$"):
        integrate(delayed, t_end=1.0)


def test_invalid_step_arguments():
    system = compile_rhs(parse_model(DECAY))
    with pytest.raises(ValueError):
        integrate(system, t_end=1.0, dt=0.0)
    with pytest.raises(ValueError):
        integrate(system, t_end=-1.0, dt=0.1)
    with pytest.raises(TypeError):  # the start comes from the diagram
        integrate(system, None, 1.0, 0.1)


@pytest.mark.parametrize("dt", [0.6, 0.3])
def test_t_end_off_the_step_grid_rejected(dt):
    # round(t_end / dt) steps would end at t=1.2 or at t=0.9
    message = f"^t_end=1.0 is not a whole number of steps dt={dt}$"
    with pytest.raises(ValueError, match=message):
        integrate(compile_rhs(parse_model(DECAY)), t_end=1.0, dt=dt)
    no_lag = compile_rhs(parse_model(DELAYED_SHIFT).with_params(tau=0.0))
    with pytest.raises(ValueError, match=message):
        integrate_delayed(no_lag, t_end=1.0, dt=dt)
    with pytest.raises(ValueError, match=message):
        master_exact(parse_model(DECAY), t_end=1.0, dt=dt)


DELAYED_SHIFT = """\
param tau = 1
state a = 1
state b = 0
rate(delay(a, tau) * step(t - tau)): a -> b
"""


def test_delay_misaligned_dt_rejected():
    system = compile_rhs(parse_model(DELAYED_SHIFT))
    with pytest.raises(DelayMisaligned):
        integrate_delayed(system, t_end=2.0, dt=0.3)


def test_delayed_constant_prehistory():
    # before t=tau the step() gate holds, afterwards outflow follows the
    # delayed value of a: da/dt = -a(t-1) for t > 1, a constant before.
    system = compile_rhs(parse_model(DELAYED_SHIFT))
    traj = integrate_delayed(system, t_end=1.9, dt=0.01)
    a = traj.column("a")
    t = traj.times
    assert np.allclose(a[t <= 0.99], 1.0)
    # on [1, 2]: da/dt = -a(t-1) = -1 (linear ramp); the step-gate
    # discontinuity at t=1 costs one O(dt) local error
    assert a[-1] == pytest.approx(0.1, abs=5e-3)
    i0, i1 = np.searchsorted(t, [1.2, 1.8])
    slope = (a[i1] - a[i0]) / (t[i1] - t[i0])
    assert slope == pytest.approx(-1.0, abs=1e-6)


def test_delayed_history_is_the_trajectory():
    # the history views the output rows instead of keeping a second copy
    # of every step: a delayed run peaks at a small multiple of the ODE
    # run of the same size
    import tracemalloc

    from swarmk.models import build_builtin

    def peak(run, name):
        system = compile_rhs(build_builtin(name))
        tracemalloc.start()
        try:
            run(system, t_end=100.0, dt=0.01)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ode = peak(integrate, "stickpull-simple")
    dde = peak(integrate_delayed, "stickpull-delayed")
    assert dde < 2 * ode


def test_delayed_reduces_to_ode_when_lag_zero():
    src = "param tau = 0\nstate a = 1\nstate b = 0\nrate(delay(a, tau)): a -> b\n"
    system = compile_rhs(parse_model(src))
    assert system.flavor == "dde"
    traj = integrate_delayed(system, t_end=3.0, dt=0.01)
    assert traj.column("a")[-1] == pytest.approx(math.exp(-3.0), rel=1e-7)


HISTINT = """\
param w = 1
state a = 1
state b = 0
rate(histint(a - a + 1, w) - 1 + a - a): a -> a
"""


def test_histint_of_constant_is_window_length():
    # integral of 1 over the last w time units is w once t >= w, and is
    # clipped ramp-plus-prehistory before that (constant pre-history makes
    # it exactly w at all times here)
    system = compile_rhs(parse_model(HISTINT))
    traj = integrate_delayed(system, t_end=2.0, dt=0.1)
    assert np.allclose(traj.column("a"), 1.0)


def test_histint_trapezoid_accuracy():
    # b' = inflow with rate a * histint(a, w); with a pinned by a huge
    # reservoir this checks the cumulative-cache path numerically
    src = ("param w = 0.5\nstate a = 1\nstate c = 0\n"
           "rate(histint(a, w) * step(t - w)): a -> c\n")
    system = compile_rhs(parse_model(src))
    traj = integrate_delayed(system, t_end=1.0, dt=0.005)
    # for t < w nothing flows, so a == 1 on [0, w]; just after w the
    # integral is w * 1 = 0.5, so da/dt(0.5+) = -0.5
    i = np.searchsorted(traj.times, 0.5)
    a = traj.column("a")
    # the RK4 stages see the gate open within the final pre-0.5 step, so
    # allow the resulting O(dt) dip
    assert a[i] == pytest.approx(1.0, abs=1e-3)
    slope = (a[i + 1] - a[i]) / (traj.times[i + 1] - traj.times[i])
    assert slope == pytest.approx(-0.5, abs=0.01)


DIFFERENCE = """\
param p = 0.25
param lag = 2
state a = 8
state b = 0
rate(p * a): a -> b
rate(delay(p * a, lag) * step(t - lag)): b -> a
"""


def test_difference_pipeline_conserves_and_delays():
    from dataclasses import replace

    d = replace(parse_model(DIFFERENCE), discrete=True)
    system = compile_rhs(d)
    assert system.flavor == "difference"
    traj = iterate_difference(system, k_steps=50)
    tot = traj.data.sum(axis=1)
    assert np.allclose(tot, 8.0, atol=1e-12)
    a = traj.column("a")
    # step 0 -> 1: a loses 2 (p*a = 2), nothing returns yet
    assert a[1] == pytest.approx(6.0)
    # step 1 -> 2: loses 1.5, the gate is still closed
    assert a[2] == pytest.approx(4.5)
    # step 2 -> 3: loses 1.125, the gate opens and returns p*a(0) = 2
    assert a[3] == pytest.approx(4.5 - 1.125 + 2.0)


def test_difference_all_zero_rates_is_constant():
    from dataclasses import replace

    d = replace(parse_model(DIFFERENCE).with_params(p=0.0), discrete=True)
    traj = iterate_difference(compile_rhs(d), k_steps=10)
    assert np.allclose(traj.column("a"), 8.0)


def test_metadata_recorded():
    traj = integrate(compile_rhs(parse_model(DECAY)), t_end=1.0, dt=0.1)
    assert traj.metadata["flavor"] == "ode"
    assert traj.metadata["dt"] == 0.1
