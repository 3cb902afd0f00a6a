"""Integrators: RK4 order, delays, history integrals, difference stepping."""
import dataclasses
import math

import numpy as np
import pytest

from swarmk.diagram import compile_rhs
from swarmk.errors import (ConservationDrift, DelayMisaligned, EvalError,
                           IntegrationError, NegativePopulation, NonFinite)
from swarmk.integrate import integrate, integrate_delayed, iterate_difference
from swarmk.models import BUILTIN_NAMES, build_builtin
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
    # a positive lag within 1e-9 of zero steps is on the grid but would
    # read the rows a step is still making
    short = compile_rhs(parse_model(DELAYED_SHIFT).with_params(tau=1e-12))
    with pytest.raises(DelayMisaligned):
        integrate_delayed(short, t_end=2.0, dt=0.01)


NEARLY_WHOLE = """\
param lag = 1
state a = 0
state b = 1
rate(0.3 * b): b -> a
rate(delay(a, lag) * 0.5): a -> b
rate(0.1 * histint(a, lag)): a -> b
"""


def test_a_nearly_whole_lag_reads_the_step_it_rounds_to():
    # 1 + 1e-10 is 100 steps of 0.01 to within the grid tolerance, so it
    # reads the same rows as 1.  The model reads neither t nor
    # step(t - lag), and a starts empty so that the window's pre-history
    # integral (t - lag) * a(0), exact in the lag, is zero for both.
    d = parse_model(NEARLY_WHOLE)
    runs = [integrate_delayed(compile_rhs(d.with_params(lag=lag)),
                              t_end=5.0, dt=0.01).data
            for lag in (1.0, 1.0 + 1e-10)]
    assert runs[0][-1, 0] > 0.1
    assert np.array_equal(runs[0], runs[1])


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


# The refusals after each step, in their order: finite, then conservation,
# then the first state below the negative floor.  A difference run names
# its step by the integer step count.
BLOWUP = "state a = 1\nstate b = 0\nrate(step(t - 20) * 1e308 * 1e308): a -> b\n"
SWAMP = "state a = 1\nstate b = 0\nrate(1e30): a -> b\n"
OVERSHOOT = "state a = 1\nstate b = 0\nrate({}): a -> b\n"


def _refusal(source, synchronous, **run):
    d = parse_model(("synchronous\n" if synchronous else "") + source)
    with pytest.raises(IntegrationError) as info:
        if synchronous:
            iterate_difference(compile_rhs(d), **run)
        else:
            integrate(compile_rhs(d), **run)
    return type(info.value), info.value.t, str(info.value)


@pytest.mark.parametrize("source, run, refusal", [
    (BLOWUP, dict(t_end=25.0, dt=0.5),
     (NonFinite, 20.0, "non-finite value at t=20.0")),
    (SWAMP, dict(t_end=1.0, dt=0.5),
     (ConservationDrift, 0.5,
      "conservation drift 1.000e+00 exceeds 1.000e-06 at t=0.5")),
    (OVERSHOOT.format(3), dict(t_end=2.0, dt=1.0),
     (NegativePopulation, 1.0, "state a went negative (-2.0) at t=1.0")),
], ids=["non-finite", "drift", "negative"])
def test_ode_step_refusals(source, run, refusal):
    assert _refusal(source, False, **run) == refusal


@pytest.mark.parametrize("source, refusal", [
    (BLOWUP, (NonFinite, 21, "non-finite value at t=21")),
    (SWAMP, (ConservationDrift, 1,
             "conservation drift 1.000e+00 exceeds 1.000e-06 at t=1")),
    (OVERSHOOT.format(2), (NegativePopulation, 1,
                           "state a went negative (-1.0) at t=1")),
], ids=["non-finite", "drift", "negative"])
def test_difference_step_refusals(source, refusal):
    got = _refusal(source, True, k_steps=25)
    assert got == refusal
    assert type(got[1]) is int


def test_non_finite_is_refused_before_the_negative_floor():
    # the blow-up leaves a at -inf: below the floor, and not finite
    d = parse_model(BLOWUP)
    traj = integrate(compile_rhs(d), t_end=19.5, dt=0.5)
    assert traj.final() == {"a": 1.0, "b": 0.0}
    for synchronous, run in ((False, dict(t_end=25.0, dt=0.5)),
                             (True, dict(k_steps=25))):
        assert _refusal(BLOWUP, synchronous, **run)[0] is NonFinite


def _reference_march(system, t_end, dt):
    """The run ``_march`` takes, stepped with numpy arrays and the
    system's ``rhs``: classical RK4, or the synchronous ``y + rhs``."""
    from swarmk.integrate import NEGATIVE_TOLERANCE, HistoryAccessor

    f, difference = system.rhs, system.flavor == "difference"
    n = int(round(t_end / dt))
    y = system.diagram.initial_vector()
    data = np.empty((n + 1, len(y)))
    data[0] = y
    h = None if system.flavor == "ode" \
        else HistoryAccessor(0.0, dt, data, discrete=difference)
    for k in range(n):
        t = k * dt
        if difference:
            y = y + f(float(t), y, h)
        else:
            k1 = f(t, y, h)
            k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1, h)
            k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2, h)
            k4 = f(t + dt, y + dt * k3, h)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if h is None:
            data[k + 1] = y
        else:
            h.append(y)  # stores data[k + 1]
    tolerance = 0.0 if difference else NEGATIVE_TOLERANCE
    floor = -tolerance * max(1.0, system.diagram.n0)
    data[(data < 0) & (data >= floor)] = 0.0
    return data


def _march_builtin(system):
    """``(trajectory, t_end, dt)`` of a short run of a built-in system."""
    if system.flavor == "difference":
        return iterate_difference(system, k_steps=150), 150, 1
    run = integrate if system.flavor == "ode" else integrate_delayed
    return run(system, t_end=30.0, dt=0.05), 30.0, 0.05


# Every history form, in a continuous and a synchronous flavour: a delay
# nested in a histint, a delay of a delay, a delayed expression that reads
# t, a histint nested in a delay, a zero lag and window, windows that reach
# before t0, a delay in an env effect, and two rates that read the same
# delayed expression at the same lag (RK4 stages 2 and 3 share such reads).
# Lags and windows are whole numbers of steps at dt = 0.05 and at dt = 1.
HISTORY_FORMS = """\
param d = 2
param w = 4
param z = 0
state a = 6
state b = 2
env m = 1
rate(0.05 * a + 0.01 * histint(delay(a, d), w)): a -> b ; m += 0.1 * delay(b, d)
rate(0.02 * delay(delay(a, d) * b, 1) + 0.01 * delay(a * step(t - 3) + 0.001 * t, d)): b -> a
rate(0.01 * delay(b, z) + histint(a, z) + 0.01 * delay(histint(b, w), 1)): b -> a
rate(0.01 * delay(a * step(t - 3) + 0.001 * t, d) * step(t - 3)): a -> b
"""
FORMS = {"history-forms": HISTORY_FORMS,
         "history-forms-synchronous": "synchronous\n" + HISTORY_FORMS}


def _system(name):
    """The compiled built-in ``name``, or the parsed model of FORMS."""
    if name in FORMS:
        return compile_rhs(parse_model(FORMS[name]))
    return compile_rhs(build_builtin(name))


@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(FORMS))
def test_march_matches_a_numpy_reference_bit_for_bit(name):
    system = _system(name)
    traj, t_end, dt = _march_builtin(system)
    assert np.array_equal(traj.data, _reference_march(system, t_end, dt))


# Models that fail on the way, and the start of their message: the first
# failure in evaluation order is raised, at the same step, by the generated
# step and by the reference.  In a synchronous run of "integrand" the first
# rate fails in the same step as the window integrand after it; in
# "delayed" the first rate's delayed expression fails in the same step as
# the second rate.  In "overflow" a window of rows past t0 overflows exp;
# in "half-step" a delayed expression divides by zero, in the continuous
# flavour first at an RK4 stage that reads half a step on.
FAILING = {
    "integrand": ("state a = 6\nstate b = 0\n"
                  "rate(0.01 * a * ln(20 - t)): a -> b\n"
                  "rate(0.01 * b * histint(ln(19.5 - t), 2)): b -> a\n",
                  "ln of non-positive value"),
    "delayed": ("state a = 6\nstate b = 0\n"
                "rate(0.01 * a * delay(ln(19 - t), 2)): a -> b\n"
                "rate(0.01 * b * ln(20.5 - t)): b -> a\n",
                "ln of non-positive value"),
    "overflow": ("state a = 6\nstate b = 0\n"
                 "rate(0.01 * a + 0 * exp(30 * histint(t, 2))): a -> b\n"
                 "rate(0.01 * b): b -> a\n", "exp overflows at"),
    "half-step": ("state a = 6\nstate b = 0\n"
                  "rate(0.01 * a * delay(b / step(12.31 - t), 2)): a -> b\n"
                  "rate(0.01 * b): b -> a\n", "division by zero"),
}


def _first_failure(run, steps):
    """``(n, message)`` of the shortest run ``run(n)``, of at most
    ``steps`` steps, that raises EvalError."""
    def message(n):
        try:
            run(n)
        except EvalError as exc:
            return str(exc)
        return None

    lo, hi = 0, steps  # run(lo) succeeds, run(hi) fails
    assert message(hi) is not None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if message(mid) else (mid, hi)
    return hi, message(hi)


@pytest.mark.parametrize("synchronous", [False, True])
@pytest.mark.parametrize("name", FAILING)
def test_a_failure_is_the_reference_failure_at_the_same_step(name,
                                                             synchronous):
    source, start = FAILING[name]
    d = parse_model(("synchronous\n" if synchronous else "") + source)
    system = compile_rhs(d)
    dt = 1 if synchronous else 0.05
    fused = (lambda n: iterate_difference(system, k_steps=n)) if synchronous \
        else (lambda n: integrate_delayed(system, t_end=n * dt, dt=dt))
    got = _first_failure(fused, int(30 / dt))
    assert got == _first_failure(
        lambda n: _reference_march(system, n * dt, dt), int(30 / dt))
    assert got[1].startswith(start)


@pytest.mark.parametrize("name", ["foraging", "stickpull-delayed",
                                  "collab-difference", *FORMS])
def test_an_rhs_swapped_into_the_system_is_called_at_every_stage(name):
    system = _system(name)
    calls = []

    def counted(t, y, h=None):
        calls.append(t)
        return system.rhs(t, y, h)

    swapped = dataclasses.replace(system, rhs=counted)
    traj, t_end, dt = _march_builtin(swapped)
    steps = int(round(t_end / dt))
    assert len(calls) == steps * (1 if system.flavor == "difference" else 4)
    assert np.array_equal(traj.data, _march_builtin(system)[0].data)


def test_history_read_past_the_newest_row_is_refused():
    from swarmk.integrate import HistoryAccessor

    history = HistoryAccessor(0.0, 0.1, np.zeros((3, 2)))  # row 0 stored
    with pytest.raises(IntegrationError, match="beyond the stored window"):
        history.bindings_at(0.2)


def test_difference_run_refuses_a_negative_step_count():
    from swarmk.errors import StepGridError

    system = compile_rhs(build_builtin("collab-difference"))
    with pytest.raises(StepGridError, match="k_steps must be non-negative"):
        iterate_difference(system, k_steps=-1)
