"""Stochastic engines: exact master equation, Gillespie, agent simulator."""
import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import swarmk as sk
from swarmk import models, stochastic
from swarmk.diagram import rate_kernel
from swarmk.errors import EvalError, IntegrationError, ModelError
from swarmk.expr import Name, Num
from swarmk.integrate import LIMITS
from swarmk.stochastic import ConfigurationSpace, sample_path


def _two_state(alpha=1.0, gamma_d=1.0):
    return sk.build_builtin("stickpull-counts", n0=1, m0=1, alpha=alpha,
                            gammad=gamma_d)


def test_configuration_space_two_state():
    space = ConfigurationSpace.build(_two_state())
    assert space.size == 2
    assert set(map(tuple, space.configs.tolist())) == {(1, 0), (0, 1)}
    assert (space.jumps["rate"] > 0).all()


def test_configuration_space_rejects_delays():
    d = sk.build_builtin("stickpull-delayed")
    with pytest.raises(ModelError):
        ConfigurationSpace.build(d)


@pytest.mark.parametrize("src", [
    # with t pinned between jumps, the chain would hold the step at its
    # t=0 value: E[a](10) = 1.4e-4 where the true value is 3 exp(-5)
    "param k = 1\nstate a = 3\nstate b = 0\n"
    "rate(k * a * step(5 - t)): a -> b\n",
    "state a = 3\nstate b = 0\nenv m = 0\n"
    "rate(a): a -> b ; m += step(5 - t)\n",
])
def test_chain_rejects_time_dependence(src):
    d = sk.parse_model(src)
    with pytest.raises(ModelError):
        sk.master_exact(d, t_end=10.0)
    with pytest.raises(ModelError):
        sk.ssa_run(d, t_end=10.0, seed=0)


def test_chain_rejects_synchronous_steps():
    # one synchronous step of b += 0.3 a gives E[b](1) = 0.3; read as a
    # continuous-time chain the same diagram gave 1 - exp(-0.3) = 0.259
    from dataclasses import replace

    d = replace(sk.parse_model("state a = 1\nstate b = 0\n"
                               "rate(0.3 * a): a -> b\n"), discrete=True)
    message = "^the configuration chain needs a memoryless .* difference"
    with pytest.raises(ModelError, match=message):
        sk.ssa_run(d, t_end=1.0, seed=0)
    with pytest.raises(ModelError, match=message):
        sk.master_exact(d, t_end=1.0, dt=0.01)
    with pytest.raises(ModelError, match=message):
        ConfigurationSpace.build(d)


def test_chain_rejects_non_integer_env_effects():
    d = sk.parse_model("state a = 3\nstate b = 0\nenv m = 0\n"
                       "rate(a): a -> b ; m += 0.4\n")
    with pytest.raises(ModelError):
        ConfigurationSpace.build(d)
    with pytest.raises(ModelError):
        sk.ssa_run(d, t_end=10.0, seed=0)


@pytest.mark.parametrize("transition, message", [
    (sk.Transition("a", "zz", Num(1.0)), "unknown state zz"),
    (sk.Transition("a", "a", Num(1.0), (("qq", Num(1.0)),)),
     "unknown env var qq"),
    (sk.Transition("a", "a", Name("zz")), "unknown identifier zz"),
])
def test_chain_engines_refuse_unknown_names(transition, message):
    # a programmatic diagram is validated by the chain engines, as by
    # compile_rhs: the defect names the unknown state, counter or identifier
    d = sk.StateDiagram(states=(("a", 1.0),), transitions=(transition,))
    with pytest.raises(ModelError, match=message):
        sk.ssa_run(d, t_end=1.0, seed=0)
    with pytest.raises(ModelError, match=message):
        sk.master_exact(d, t_end=1.0)
    with pytest.raises(ModelError, match=message):
        ConfigurationSpace.build(d)


# finite at every point validation samples, non-finite only where b = 2:
# 1e308 * 10 overflows to inf, and inf - inf is nan
_AT_B2 = "step(b - 2) * 1e308 * 10"


@pytest.mark.parametrize("transition, message", [
    (f"rate(b): b -> a ; m += {_AT_B2}",
     r"^environment effects must be finite and integer-valued in the "
     r"configuration chain \(got inf\)$"),
    (f"rate(b + {_AT_B2}): b -> a",
     r"^rates must be finite in the configuration chain \(got inf\)$"),
    (f"rate(b - {_AT_B2}): b -> a", r"\(got -inf\)$"),
    # max(0.0, nan) is 0.0: the NaN is caught before the clamp
    (f"rate(b + {_AT_B2} - {_AT_B2}): b -> a", r"\(got nan\)$"),
    # at b = 2 the effect 0.5 comes a transition before the infinite rate:
    # every rate and their total are checked before any jump's effects
    ("rate(b): b -> a ; m += step(b - 2) * 0.5\n"
     f"rate(b + {_AT_B2}): b -> a",
     r"^rates must be finite in the configuration chain \(got inf\)$"),
], ids=["effect-inf", "rate-inf", "rate-minus-inf", "rate-nan", "both"])
def test_chain_engines_refuse_a_non_finite_rate_or_effect(transition,
                                                           message):
    d = sk.parse_model("state a = 2\nstate b = 0\nenv m = 0\n"
                       f"rate(a): a -> b\n{transition}\n")
    assert sk.validate_diagram(d).ok
    with pytest.raises(ModelError, match=message):
        ConfigurationSpace.build(d)
    with pytest.raises(ModelError, match=message):
        sk.master_exact(d, t_end=1.0)
    with pytest.raises(ModelError, match=message):
        sk.ssa_run(d, t_end=100.0, seed=0)


@st.composite
def _first_order_diagrams(draw):
    """Small random diagrams whose every rate is k * (source count), with
    the matrix A of their mean-field equations dx/dt = A x."""
    n = draw(st.integers(2, 4))
    counts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)
                  .filter(lambda c: 0 < sum(c) <= 4))
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1),
                                    st.floats(0.05, 1.0))
                          .filter(lambda m: m[0] != m[1]),
                          min_size=1, max_size=6))
    lines = [f"param k{i} = {k!r}" for i, (_, _, k) in enumerate(moves)]
    lines += [f"state x{j} = {c}" for j, c in enumerate(counts)]
    lines += [f"rate(k{i} * x{a}): x{a} -> x{b}"
              for i, (a, b, _) in enumerate(moves)]
    a = np.zeros((n, n))
    for i, j, k in moves:
        a[j, i] += k
        a[i, i] -= k
    return sk.parse_model("\n".join(lines) + "\n"), a


def _expm(a):
    """exp(a) by scaling and squaring: a Taylor series of 20 terms for
    a / 2**s, whose norm is below 1/2, then s squarings."""
    s = max(0, math.frexp(np.abs(a).sum(axis=0).max())[1] + 1)
    b = a / 2.0 ** s
    term = result = np.eye(len(a))
    for k in range(1, 21):
        term = term @ b / k
        result = result + term
    for _ in range(s):
        result = result @ result
    return result


@settings(max_examples=30, deadline=None)
@given(_first_order_diagrams())
def test_first_order_mean_field_equals_master_mean(case):
    # first-order rates make the expectations obey the linear mean-field
    # equations dx/dt = A x exactly (Jahnke & Huisinga 2007), whose
    # solution is expm(A t) x0
    d, a = case
    tbl, mean = sk.master_exact(d, t_end=1.0, dt=0.01)
    x0 = np.array(d.initial_vector())
    linear = np.array([_expm(a * t) @ x0 for t in mean.times])
    assert np.allclose(mean.data, linear, rtol=0, atol=1e-10)
    assert np.abs(tbl.probs.sum(axis=1) - 1.0).max() <= 1e-9
    assert tbl.probs.min() >= -1e-12


@st.composite
def _mass_action_diagrams(draw):
    """Small random memoryless diagrams with first-order rates k*xa and
    second-order rates k*xa*xb, some of them using up an env counter."""
    n = draw(st.integers(2, 3))
    counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                  .filter(lambda c: 0 < sum(c) <= 5))
    supply = draw(st.integers(0, 3))
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1),
                                    st.sampled_from(["first", "second",
                                                     "consume"]),
                                    st.integers(0, n - 1),
                                    st.floats(0.05, 1.0))
                          .filter(lambda m: m[0] != m[1]),
                          min_size=1, max_size=5))
    lines = [f"param k{i} = {m[4]!r}" for i, m in enumerate(moves)]
    lines += [f"state x{j} = {c}" for j, c in enumerate(counts)]
    lines.append(f"env m = {supply}")
    for i, (a, b, order, c, _) in enumerate(moves):
        if order == "first":
            lines.append(f"rate(k{i} * x{a}): x{a} -> x{b}")
        elif order == "second":
            lines.append(f"rate(k{i} * x{a} * x{c}): x{a} -> x{b}")
        else:
            lines.append(f"rate(k{i} * x{a} * m): x{a} -> x{b} ; m -= 1")
    return sk.parse_model("\n".join(lines) + "\n")


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_mass_action_diagrams())
def test_ssa_ensemble_mean_matches_master_mean(d):
    runs = 200
    tbl, exact = sk.master_exact(d, t_end=2.0, dt=0.25)
    assume(len(tbl.space.jumps))
    assert tbl.space.size <= 100
    assert np.abs(tbl.probs.sum(axis=1) - 1.0).max() <= 1e-9
    assert tbl.probs.min() >= -1e-12
    stats = sk.ensemble(lambda s: sk.ssa_run(d, t_end=2.0, seed=s),
                        runs, 17, exact.times)
    # a rarely moved count can show no spread in the sample; bound its
    # standard error below by the Poisson value sqrt(|E[x - x0]| / runs)
    x0 = np.array(d.initial_vector())
    floor = np.sqrt(np.abs(exact.data - x0) / runs)
    se = np.maximum(np.maximum(stats.stderr, floor), 1e-300)
    assert (np.abs(stats.mean - exact.data) / se).max() <= 5.0


def _dense_master_probs(diagram, t_end, dt):
    """The master equation's solution at rows ``dt`` apart with the
    generator W as a dense n x n matrix, each row expm(dt W) times the
    one before: the reference for the uniformized jump-list solve."""
    space = ConfigurationSpace.build(diagram)
    n = space.size
    w = np.zeros((n, n))
    for i, j, rate in space.jumps.tolist():
        w[j, i] += rate
        w[i, i] -= rate
    step = _expm(dt * w)
    rows = [np.eye(n)[0]]
    for _ in range(int(round(t_end / dt))):
        rows.append(step @ rows[-1])
    return np.vstack(rows)


@pytest.mark.parametrize("diagram", [
    sk.build_builtin("stickpull-counts", n0=4, m0=4),
    sk.build_builtin("foraging", n0=2, m0=4),
    # no robot is searching, so the start configuration has no jump
    sk.parse_model("param k = 1\nstate a = 0\nstate b = 2\n"
                   "rate(k * a): a -> b\n"),
], ids=["stickpull-counts", "foraging", "no-jumps"])
def test_sparse_generator_matches_dense_reference(diagram):
    tbl, _ = sk.master_exact(diagram, t_end=5.0, dt=0.1)
    ref = _dense_master_probs(diagram, 5.0, 0.1)
    assert tbl.probs.shape == ref.shape
    assert np.abs(tbl.probs - ref).max() <= 1e-13
    if not len(tbl.space.jumps):
        assert np.array_equal(tbl.probs, np.ones((len(tbl.times), 1)))


def _per_row_master_probs(diagram, t_end, dt):
    """The master equation's rows by uniformization restarted at every row,
    P(t + Δ) = Σ_k Pois(k; ΛΔ) (I + W/Λ)^k P(t), each from the one before,
    over the jump list: the reference for the one series from t = 0."""
    space = ConfigurationSpace.build(diagram)
    n = space.size
    src, dst, rate = (space.jumps[f] for f in ("src", "dst", "rate"))
    exit_rate = np.bincount(src, weights=rate, minlength=n)
    lam = float(exit_rate.max())
    move, stay = rate / (lam or 1.0), 1.0 - exit_rate / (lam or 1.0)

    def jump(v):
        return np.bincount(dst, weights=move * v[src], minlength=n) + stay * v

    first, weights = stochastic._poisson_weights(lam * dt)
    rows = [np.eye(n)[0]]
    for _ in range(round(t_end / dt)):
        v = rows[-1]
        for _ in range(first):
            v = jump(v)
        p = weights[0] * v
        for w in weights[1:]:
            v = jump(v)
            p += w * v
        rows.append(p)
    return np.vstack(rows)


# every shipped model the chain takes: the others are delayed, synchronous
# or, as sugawara's unbounded delivery counter is, past CONFIG_CAP.  Each
# case keeps the id it had when the solve also took a step below its rows
@pytest.mark.parametrize("name, sets, t_end, dt", [
    pytest.param("foraging", {}, 10.0, 0.1,
                 id="foraging-sets0-10.0-0.01-0.1"),
    pytest.param("stickpull-simple", {}, 10.0, 0.1,
                 id="stickpull-simple-sets1-10.0-0.01-0.1"),
    pytest.param("stickpull-counts", {}, 10.0, 0.1,
                 id="stickpull-counts-sets2-10.0-0.01-0.1"),
    pytest.param("stickpull-simple-depletion", {}, 10.0, 0.1,
                 id="stickpull-simple-depletion-sets3-10.0-0.01-0.1"),
    # 5,001 rows on the crosscheck chain (756 configs)
    pytest.param("foraging", {"n0": 5, "m0": 15}, 20.0, 0.004,
                 id="foraging-sets4-20.0-0.004-0.004"),
])
def test_master_series_matches_the_per_row_solver(name, sets, t_end, dt):
    d = sk.build_builtin(name, **sets)
    tbl, _ = sk.master_exact(d, t_end=t_end, dt=dt)
    ref = _per_row_master_probs(d, t_end, dt)
    assert tbl.probs.shape == ref.shape
    assert np.abs(tbl.probs - ref).max() <= 1e-14


@settings(max_examples=30, deadline=None)
@given(_first_order_diagrams())
def test_master_series_matches_the_per_row_solver_on_random_chains(case):
    d, _ = case
    tbl, _ = sk.master_exact(d, t_end=1.0, dt=0.05)
    ref = _per_row_master_probs(d, 1.0, 0.05)
    assert np.abs(tbl.probs - ref).max() <= 1e-14


def _assert_drift_is_rhs(diagram):
    """At every enumerated configuration y, the chain's drift Σ_jumps
    rate·(y' − y) is the rate equations' rhs(0, y) to 1e-12 relative: the
    rate equations are the chain's mean where every rate vanishes at an
    empty source, as the chain's moves of whole agents need."""
    space = ConfigurationSpace.build(diagram)
    configs = space.configs
    src, dst, rate = (space.jumps[f] for f in ("src", "dst", "rate"))
    drift = np.zeros_like(configs)
    # each jump added in turn, in the order the walk took them
    np.add.at(drift, src, rate[:, None] * (configs[dst] - configs[src]))
    rhs = sk.compile_rhs(diagram).rhs
    mean_field = np.array([rhs(0.0, y) for y in configs])
    assert drift.shape == mean_field.shape
    assert (np.abs(drift - mean_field) <= 1e-12 * np.abs(mean_field)).all()


@pytest.mark.parametrize("name, sets", [
    ("foraging", {"n0": 5, "m0": 15}), ("stickpull-simple", {}),
    ("stickpull-counts", {}), ("stickpull-simple-depletion", {})])
def test_the_chain_drift_is_the_rate_equations(name, sets):
    d = sk.build_builtin(name, **sets)
    _assert_drift_is_rhs(d)
    assert ConfigurationSpace.build(d).size > 1


@settings(max_examples=40, deadline=None)
@given(st.one_of(_first_order_diagrams().map(lambda case: case[0]),
                 _mass_action_diagrams()))
def test_the_chain_drift_is_the_rate_equations_on_random_chains(d):
    _assert_drift_is_rhs(d)


def test_independent_agents_are_binomial():
    # n0 agents that flip a -> b at rate ka and back at rate kb, each on its
    # own: the count in b is Binomial(n0, p(t)), p(t) = ka/(ka + kb) *
    # (1 - exp(-(ka + kb) t))
    ka, kb, n0 = 0.7, 1.3, 5
    d = sk.parse_model(f"param ka = {ka}\nparam kb = {kb}\nstate a = {n0}\n"
                       "state b = 0\nrate(ka * a): a -> b\n"
                       "rate(kb * b): b -> a\n")
    tbl, _ = sk.master_exact(d, t_end=4.0, dt=0.25)
    p = ka / (ka + kb) * (1.0 - np.exp(-(ka + kb) * tbl.times))
    index = {y: i for i, y in enumerate(map(tuple,
                                            tbl.space.configs.tolist()))}
    cols = [index[(n0 - j, j)] for j in range(n0 + 1)]
    pmf = np.array([math.comb(n0, j) * p ** j * (1.0 - p) ** (n0 - j)
                    for j in range(n0 + 1)]).T
    assert np.abs(tbl.probs[:, cols] - pmf).max() <= 1e-13


def test_master_rows_far_apart_in_uniformized_steps():
    # Λ dt = 3000: e^-3000 underflows, so the Poisson weights are built
    # from the mode; the chain settles to P(gripping) = 1000 / 4000
    tbl, traj = sk.master_exact(_two_state(alpha=1000.0, gamma_d=3000.0),
                                t_end=3.0, dt=1.0)
    assert np.abs(tbl.probs.sum(axis=1) - 1.0).max() <= 1e-12
    assert tbl.probs.min() >= 0.0
    assert np.abs(traj.column("g")[1:] - 0.25).max() <= 1e-12


def test_master_rows_agree_across_output_strides():
    d = sk.build_builtin("stickpull-counts", n0=4, m0=4)
    coarse, _ = sk.master_exact(d, t_end=5.0, dt=0.5)
    fine, _ = sk.master_exact(d, t_end=5.0, dt=0.1)
    assert np.abs(fine.probs[::5] - coarse.probs).max() <= 1e-13


def test_master_memory_bounded_by_jumps():
    # 4,455 configurations: a dense generator alone would take 159 MB
    d = sk.build_builtin("foraging", n0=8, m0=30)
    tracemalloc.start()
    try:
        tbl, _ = sk.master_exact(d, t_end=0.05, dt=0.005)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tbl.space.size == 4455
    assert peak < 4e6


def test_the_space_is_two_arrays():
    # the configurations in one float array and the jumps in one array of
    # 24-byte records in source order: no object per jump outlives the walk
    d = sk.build_builtin("foraging", n0=8, m0=30)
    tracemalloc.start()
    try:
        space = ConfigurationSpace.build(d)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [f.name for f in dataclasses.fields(space)] == ["configs", "jumps"]
    dim = len(d.state_names) + len(d.env_names)
    assert space.configs.dtype == float
    assert space.configs.shape == (4455, dim)
    assert len(space.jumps) == 19_320 and space.jumps.itemsize == 24
    src, dst, rate = (space.jumps[f] for f in ("src", "dst", "rate"))
    assert (np.diff(src) >= 0).all()
    assert ((dst >= 0) & (dst < space.size)).all()
    assert (rate > 0).all()
    assert held <= 1.5e6


@pytest.mark.parametrize("dt, times", [
    # no rows: 0.3 would stop at t=0.9
    (0.3, []),
    (0.004, (np.arange(251) * 0.004).tolist()),
    (0.25, [0.0, 0.25, 0.5, 0.75, 1.0]),
])
def test_master_output_stride(dt, times):
    if not times:
        with pytest.raises(sk.StepGridError, match=f"^t_end=1.0 is not a "
                           f"whole number of steps dt={dt}$"):
            sk.master_exact(_two_state(), t_end=1.0, dt=dt)
        return
    tbl, traj = sk.master_exact(_two_state(), t_end=1.0, dt=dt)
    assert tbl.times == pytest.approx(times, abs=1e-12)
    assert tbl.probs.shape == (len(times), 2)
    assert traj.data.shape == (len(times), 2)
    assert np.abs(tbl.probs.sum(axis=1) - 1.0).max() <= 1e-9


@pytest.mark.parametrize("weights, message", [
    # half the Poisson mass dropped: the first row's block sums round to
    # just under one half
    (lambda first, w: (first, w * 0.5),
     "master-equation normalization drifted to 0.49999999999999994"),
    # a negative weight, the sum kept at 1
    (lambda first, w: (0, np.array([-1.0, 2.0])),
     "master-equation probability went negative (-1.0)")])
def test_master_refuses_a_row_that_is_not_a_distribution(monkeypatch, weights,
                                                         message):
    poisson = stochastic._poisson_weights
    monkeypatch.setattr(stochastic, "_poisson_weights",
                        lambda q: weights(*poisson(q)))
    with pytest.raises(sk.IntegrationError) as ei:
        stochastic.master_exact(sk.build_builtin("stickpull-counts"),
                                t_end=1.0, dt=0.5)
    assert str(ei.value) == message


def test_master_two_state_stationary_split():
    # symmetric grip/release: stationary occupancy one half each
    tbl, traj = sk.master_exact(_two_state(), t_end=20.0, dt=1.0)
    assert tbl.probs[-1] == pytest.approx([0.5, 0.5], abs=1e-9)
    assert traj.final()["g"] == pytest.approx(0.5, abs=1e-9)


def test_master_asymmetric_two_state():
    # stationary P(gripping) = alpha / (alpha + gamma_d)
    tbl, traj = sk.master_exact(_two_state(alpha=1.0, gamma_d=3.0),
                                t_end=30.0, dt=5.0)
    assert traj.final()["g"] == pytest.approx(0.25, abs=1e-9)


def test_master_normalization_everywhere():
    d = sk.build_builtin("stickpull-counts", n0=4, m0=4)
    tbl, _ = sk.master_exact(d, t_end=10.0, dt=0.5)
    sums = tbl.probs.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-9
    assert tbl.probs.min() >= -1e-12


def test_master_gap_shrinks_with_system_size():
    def gap(n0):
        d = sk.build_builtin("stickpull-counts", n0=n0, m0=n0,
                             alpha=1.0 / n0, gammad=0.2)
        _, tr = sk.master_exact(d, t_end=20.0, dt=0.5)
        mf = sk.integrate(sk.compile_rhs(sk.build_builtin(
            "stickpull-simple", beta=1.0, gamma=0.2)), t_end=20.0, dt=0.005)
        n_mf = np.interp(tr.times, mf.times, mf.column("s"))
        return np.abs(tr.column("s") / n0 - n_mf).max()

    assert gap(40) < gap(4)


def test_master_mean_tends_to_the_mean_field_at_rate_one_over_n():
    # n0 = m0 = N and alpha = 1/N keep the mean field's fractions fixed:
    # the gap per agent falls strictly with N, and N times it settles
    # (Kurtz 1970: the mean's O(1/N) correction)
    def gap(n):
        d = sk.build_builtin("stickpull-counts", n0=n, m0=n, alpha=1.0 / n)
        _, exact = sk.master_exact(d, t_end=10.0, dt=0.5)
        mf = sk.integrate(sk.compile_rhs(d), t_end=10.0, dt=0.05)
        assert np.array_equal(mf.times[::10], exact.times)
        return np.abs(exact.data - mf.data[::10]).max() / n

    sizes = (4, 8, 16, 32, 64, 128)
    gaps = [gap(n) for n in sizes]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert abs(128 * gaps[-1] / (64 * gaps[-2]) - 1.0) < 0.01, gaps


def test_ssa_deterministic_given_seed():
    d = sk.build_builtin("stickpull-counts")
    a = sk.ssa_run(d, t_end=10.0, seed=7)
    b = sk.ssa_run(d, t_end=10.0, seed=7)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.data, b.data)
    c = sk.ssa_run(d, t_end=10.0, seed=8)
    assert not (len(a.times) == len(c.times)
                and np.array_equal(a.data, c.data))


def test_ssa_compiles_once_per_diagram(monkeypatch):
    # an ensemble's runs share one generated kernel and one pass through
    # the gate; a fresh copy of the diagram passes the gate again, shares
    # its structure's kernel and gives the same paths
    from dataclasses import replace

    from swarmk import diagram as dg

    calls = {"kernel": 0, "gate": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dg, "_generate_kernel",
                        counted("kernel", dg._generate_kernel))
    monkeypatch.setattr(dg, "_open_gate", counted("gate", dg._open_gate))
    models.forget_parsed_files()  # a structure no earlier test generated
    d = sk.build_builtin("foraging", n0=3, m0=6)
    paths = [sk.ssa_run(d, t_end=20.0, seed=s) for s in range(50)]
    assert calls == {"kernel": 1, "gate": 1}
    for s, path in enumerate(paths):
        fresh = sk.ssa_run(replace(d), t_end=20.0, seed=s)
        assert np.array_equal(path.times, fresh.times)
        assert np.array_equal(path.data, fresh.data)
    assert calls == {"kernel": 1, "gate": 51}


def _direct_method(diagram, t_end, seed):
    """Gillespie's direct method over ``rate_kernel``'s table, one call per
    rate and effect and one ``rng.random()`` per uniform: the reference for
    ssa_run's walk over its table, which draws its uniforms in blocks."""
    table = rate_kernel(diagram)[1]
    y = tuple(int(v) for _, v in (*diagram.states, *diagram.env_vars))
    rng = np.random.default_rng(seed)
    t, times, rows = 0.0, [0.0], [y]
    while True:
        row = [*map(float, y), t]
        rates = [0.0 if si != ti and y[si] < 1 else max(0.0, fn(row))
                 for si, ti, fn, _ in table]
        total = 0.0
        for r in rates:
            total += r
        if total <= 0.0:
            break
        t -= math.log1p(-rng.random()) / total
        if t >= t_end:
            break
        pick, acc, chosen = rng.random() * total, 0.0, len(table) - 1
        for i, r in enumerate(rates):
            acc += r
            if pick < acc:
                chosen = i
                break
        si, ti, _, effects = table[chosen]
        nxt = list(y)
        if si != ti:
            nxt[si] -= 1
            nxt[ti] += 1
        for ei, fn in effects:
            dv = fn(row)
            assert dv == round(dv)
            nxt[ei] += int(round(dv))
        y = tuple(nxt)
        times.append(t)
        rows.append(y)
    return np.array(times + [t_end]), np.array(rows + [y], dtype=float)


@pytest.mark.parametrize("name", ["foraging", "sugawara", "stickpull-simple",
                                  "stickpull-counts",
                                  "stickpull-simple-depletion"])
def test_generated_ssa_loop_matches_the_direct_method(name):
    # every shipped model the chain takes, path for path, bit for bit; the
    # longest path outruns one block of uniforms, so the refill is run too
    # (the stick-pulling pair's 20-unit paths have at most 12 events)
    t_end = 100.0 if name.startswith("stickpull-simple") else 20.0
    d = sk.build_builtin(name)
    events = []
    for seed in range(50):
        times, data = _direct_method(d, t_end, seed)
        path = sk.ssa_run(d, t_end=t_end, seed=seed)
        assert np.array_equal(path.times, times)
        assert np.array_equal(path.data, data)
        events.append(len(times) - 2)
    assert max(events) > stochastic._BLOCK // 2


_CHAIN_MODELS = ["foraging", "sugawara", "stickpull-simple",
                 "stickpull-counts", "stickpull-simple-depletion"]


def _places(diagram):
    """The diagram's chain table, configuration -> place, and its entries
    list, which holds each entry at its place."""
    return stochastic._kept(diagram, "_chain", stochastic._chain)[3:]


def _table(diagram):
    """The diagram's chain table read through places: configuration ->
    entry."""
    table, entries = _places(diagram)
    return {y: entries[j] for y, j in table.items()}


@pytest.mark.parametrize("cap", [0, 3])
@pytest.mark.parametrize("name", _CHAIN_MODELS)
def test_a_full_table_keeps_the_paths_of_the_direct_method(name, cap,
                                                           monkeypatch):
    # at most `cap` entries, and always the start, where every path begins
    # (so a cap of 0 keeps what a cap of 1 keeps): past them a jump not
    # linked fills its configuration again, and the paths are still the
    # reference's, bit for bit
    monkeypatch.setattr(stochastic, "_TABLE", cap)
    kept = max(cap, 1)
    d = sk.build_builtin(name)
    for seed in range(20):
        times, data = _direct_method(d, 20.0, seed)
        path = sk.ssa_run(d, t_end=20.0, seed=seed)
        assert np.array_equal(path.times, times)
        assert np.array_equal(path.data, data)
        assert len(_table(d)) <= kept
    table = _table(d)
    assert len(table) == min(kept, len({tuple(r) for r in data}))
    # every link leads to an entry the table keeps: none to a refilled one
    n = len(d.transitions)
    entries = _places(d)[1]
    for e in table.values():
        assert all(f is None or table[entries[f][n]] is entries[f]
                   for f in e[n + 1:])


def _counted_follows(monkeypatch):
    """The link index of every call of a generated ``follow`` function (a
    jump taken while its link is unset) made from here on."""
    calls = []

    def count(k, follow):
        def counted(e):
            calls.append(k)
            return follow(e)
        return counted

    def generate(diagram):
        bind = generate_chain(diagram)

        def counted_bind(*args):
            rule, out, follows, table, entries = bind(*args)
            return (rule, out,
                    tuple(f and count(k, f) for k, f in enumerate(follows)),
                    table, entries)
        return counted_bind

    generate_chain = stochastic._generate_chain
    monkeypatch.setattr(stochastic, "_generate_chain", generate)
    models.forget_parsed_files()  # a structure no earlier test generated
    return calls


def test_a_second_ensemble_fills_no_entry(monkeypatch):
    calls = _counted_follows(monkeypatch)
    d = sk.build_builtin("foraging", n0=5, m0=15)
    grid = np.linspace(0.0, 20.0, 11)
    first = sk.ensemble(lambda s: sk.ssa_run(d, t_end=20.0, seed=s), 200, 7,
                        grid)
    table = dict(_table(d))
    assert calls and len(table) < 756
    # the same paths again: every jump is linked, so no move, no look-up
    # and no fill
    calls.clear()
    again = sk.ensemble(lambda s: sk.ssa_run(d, t_end=20.0, seed=s), 200, 7,
                        grid)
    assert calls == []
    assert _table(d).keys() == table.keys()
    assert all(_table(d)[y] is e for y, e in table.items())
    assert np.array_equal(first.mean, again.mean)


def test_a_params_edit_or_a_copy_gets_a_fresh_table():
    from dataclasses import replace

    d = sk.build_builtin("foraging", n0=3, m0=6)
    sk.ssa_run(d, t_end=20.0, seed=0)
    table = _places(d)[0]
    assert table
    copy = replace(d)
    sk.ssa_run(copy, t_end=20.0, seed=0)
    assert _places(copy)[0] is not table
    d.params["ap"] *= 4.0  # in place: the chain binds the new value
    assert _places(d)[0] is not table and len(_table(d)) == 1  # the start
    for seed in range(5):
        times, data = _direct_method(d, 20.0, seed)
        path = sk.ssa_run(d, t_end=20.0, seed=seed)
        assert np.array_equal(path.times, times)
        assert np.array_equal(path.data, data)
    assert _places(copy)[0] is not _places(d)[0]


def test_a_dropped_table_is_freed_without_the_cyclic_collector():
    # links are places, so no entry refers to another and reference
    # counting frees every entry: on dropping the diagram, and on the new
    # chain an edit of its params in place makes
    d = sk.build_builtin("foraging", n0=5, m0=15)
    links = len(d.transitions) + 1
    gc.collect()
    gc.disable()
    try:
        for drop in ("edit", "diagram"):
            sk.ssa_run(d, t_end=20.0, seed=1)
            kept = tuple(_table(d))  # the configurations, each in its entry
            assert any(x is not None for e in _table(d).values()
                       for x in e[links:])
            if drop == "edit":
                d.params["ap"] *= 2.0
                _table(d)
            else:
                del d
            assert not [r for r in gc.get_referrers(*kept)
                        if isinstance(r, list)]
    finally:
        gc.enable()


@pytest.mark.parametrize("transition, message", [
    (f"rate(b): b -> a ; m += {_AT_B2}", "^environment effects"),
    (f"rate(b + {_AT_B2}): b -> a", "^rates must be finite")],
    ids=["effect", "rate"])
def test_every_replica_reaching_a_refusal_raises(transition, message):
    # a refusal at b = 2 stores nothing: not the entry of b = 2 whose rate
    # is infinite, nor the link of the jump whose effect is; so the second
    # seed to get there is refused as the first was
    d = sk.parse_model("state a = 2\nstate b = 0\nenv m = 0\n"
                       f"rate(a): a -> b\n{transition}\n")
    for seed in (0, 1):
        with pytest.raises(ModelError, match=message):
            sk.ssa_run(d, t_end=100.0, seed=seed)
        at_b2 = _table(d).get((0.0, 2.0, 0.0))
        assert at_b2 is None if message.startswith("^rates") \
            else at_b2[-1] is None


def test_an_effect_is_refused_only_on_the_jump_taken():
    # the effect is infinite where b = 2, on a jump of rate 2e-12 there:
    # enumeration takes every jump and is refused; the sampler, like the
    # direct method, never takes this one and is not
    d = sk.parse_model("state a = 2\nstate b = 0\nstate c = 0\nenv m = 0\n"
                       "rate(a): a -> b\n"
                       f"rate(1e-12 * b): b -> c ; m += {_AT_B2}\n")
    assert sk.validate_diagram(d).ok
    with pytest.raises(ModelError, match="^environment effects"):
        ConfigurationSpace.build(d)
    for seed in range(10):
        times, data = _direct_method(d, 20.0, seed)
        path = sk.ssa_run(d, t_end=20.0, seed=seed)
        assert np.array_equal(path.times, times)
        assert np.array_equal(path.data, data)
    assert (0.0, 2.0, 0.0, 0.0) in _table(d)


def _enumeration(diagram):
    """Breadth-first enumeration over ``rate_kernel``'s table, one call per
    rate and effect: the reference for the generated chain's jump list."""
    start = tuple(int(v) for _, v in (*diagram.states, *diagram.env_vars))
    configs, index, jumps = [start], {start: 0}, []
    for i, y in enumerate(configs):
        row = [*map(float, y), 0.0]
        for si, ti, fn, effects in rate_kernel(diagram)[1]:
            rate = 0.0 if si != ti and y[si] < 1 else fn(row)
            if rate > 0.0:
                nxt = list(y)
                if si != ti:
                    nxt[si] -= 1
                    nxt[ti] += 1
                for ei, effect in effects:
                    nxt[ei] += int(effect(row))
                j = index.setdefault(tuple(nxt), len(configs))
                if j == len(configs):
                    configs.append(tuple(nxt))
                jumps.append((i, j, rate))
    return configs, jumps


@pytest.mark.parametrize("name, params", [
    ("foraging", {"n0": 5, "m0": 15}), ("stickpull-simple", {}),
    ("stickpull-counts", {}), ("stickpull-simple-depletion", {})])
def test_enumeration_lists_the_jumps_of_the_reference(name, params):
    # same configurations, order and jumps, every rate bit for bit
    d = sk.build_builtin(name, **params)
    space = ConfigurationSpace.build(d)
    configs, jumps = _enumeration(d)
    assert space.configs.tolist() == [list(y) for y in configs]
    assert space.jumps.tolist() == jumps
    assert space.size > 1


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_enumeration_of_a_ring_is_the_known_chain(s, n):
    # n agents on a ring of s states, each leaving state i for i + 1 at
    # rate k_i * s_i: every occupation vector summing to n is reachable,
    # C(n + s - 1, s - 1) of them, and each of the s moves leaves every
    # vector with s_i >= 1, C(n + s - 2, s - 1) of them
    k = [0.3 + 0.7 * i for i in range(s)]
    d = sk.parse_model("".join(
        [f"param k{i} = {k[i]!r}\n" for i in range(s)]
        + [f"state s{i} = {n if i == 0 else 0}\n" for i in range(s)]
        + [f"rate(k{i} * s{i}): s{i} -> s{(i + 1) % s}\n"
           for i in range(s)]))
    space = ConfigurationSpace.build(d)
    configs = [y for y in np.ndindex(*[n + 1] * s) if sum(y) == n]
    assert space.size == len(configs) == math.comb(n + s - 1, s - 1)
    found = list(map(tuple, space.configs.tolist()))
    assert set(found) == set(configs)

    def moved(y, i):
        z = list(y)
        z[i] -= 1.0
        z[(i + 1) % s] += 1.0
        return tuple(z)
    jumps = {(y, moved(y, i), k[i] * y[i])
             for y in map(tuple, np.array(configs, dtype=float).tolist())
             for i in range(s) if y[i] >= 1.0}
    assert len(space.jumps) == len(jumps) == s * math.comb(n + s - 2, s - 1)
    # each rate bit for bit
    assert {(found[i], found[j], rate)
            for i, j, rate in space.jumps.tolist()} == jumps
    for seed in range(5):
        path = sk.ssa_run(d, t_end=10.0, seed=seed)
        assert {tuple(y) for y in path.data.tolist()} <= set(configs)


def test_generated_ssa_loop_raises_what_the_direct_method_raises():
    # 1 / a fails mid-run, once every agent has left a
    d = sk.parse_model("state a = 3\nstate b = 0\n"
                       "rate(a): a -> b\nrate(1 / a): b -> a\n")
    with pytest.raises(EvalError) as ref:
        _direct_method(d, 100.0, 0)
    with pytest.raises(EvalError) as gen:
        sk.ssa_run(d, t_end=100.0, seed=0)
    assert str(gen.value) == str(ref.value) == "division by zero"


def test_ssa_loop_is_generated_on_the_first_run(monkeypatch):
    # compiling the rate system does not make the chain; the first chain
    # engine to run on a diagram structure does, and the others reuse it,
    # on copies with other parameters too
    calls = []

    def counted(diagram):
        calls.append(diagram)
        return generate(diagram)

    generate = stochastic._generate_chain
    monkeypatch.setattr(stochastic, "_generate_chain", counted)
    models.forget_parsed_files()  # a structure no earlier test generated
    d = sk.build_builtin("stickpull-counts")
    sk.compile_rhs(d)
    assert calls == []
    for seed in range(3):
        sk.ssa_run(d, t_end=5.0, seed=seed)
    assert calls == [d]
    d3 = sk.build_builtin("stickpull-counts", n0=3)
    sk.master_exact(d3, t_end=1.0)
    for seed in range(3):
        sk.ssa_run(d3, t_end=5.0, seed=seed)
    assert calls == [d]


def test_ssa_zero_rates_constant_path():
    d = sk.parse_model("state a = 3\nstate b = 0\nrate(0 * a): a -> b\n")
    traj = sk.ssa_run(d, t_end=5.0, seed=1)
    assert np.allclose(traj.column("a"), 3.0)
    assert traj.times[-1] == 5.0


def test_ssa_counts_stay_integral_and_bounded():
    d = sk.build_builtin("stickpull-counts")
    traj = sk.ssa_run(d, t_end=50.0, seed=3)
    assert np.array_equal(traj.data, np.round(traj.data))
    assert traj.data.min() >= 0
    assert traj.data.max() <= 4
    assert np.allclose(traj.data.sum(axis=1), 4.0)


def test_ssa_two_state_occupancy_fraction():
    # long-run fraction of time gripping for the symmetric chain is 1/2
    d = _two_state()
    traj = sk.ssa_run(d, t_end=10_000.0, seed=11)
    dt = np.diff(traj.times)
    frac = float(np.sum(dt * traj.column("g")[:-1]) / traj.times[-1])
    # stderr of the time average is about sqrt(tau_corr / t_end) / 2
    assert frac == pytest.approx(0.5, abs=3 * 0.005)


def test_ssa_decay_matches_its_known_answer():
    # n agents leave a at rate k each: the count in a at time t is
    # Binomial(n, exp(-k t)), and the first event comes after an
    # Exponential(n k) wait
    n, k, runs = 10, 0.5, 2000
    d = sk.parse_model(f"param k = {k}\nstate a = {n}\nstate b = 0\n"
                       "rate(k * a): a -> b\n")
    grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    counts, first = [], []
    for seed in np.random.SeedSequence(2024).spawn(runs):
        path = sk.ssa_run(d, t_end=40.0, seed=seed)
        counts.append(sample_path(path, grid)[:, 0])
        first.append(path.times[1])
    counts = np.array(counts)
    p = np.exp(-k * grid)
    stderr = np.sqrt(n * p * (1.0 - p) / runs)
    assert (np.abs(counts.mean(axis=0) - n * p) / stderr).max() <= 5.0
    # one-sample Kolmogorov-Smirnov distance, within its 1% bound
    x = np.sort(first)
    cdf = 1.0 - np.exp(-n * k * x)
    ecdf = np.arange(1, runs + 1) / runs
    ks = max((ecdf - cdf).max(), (cdf - (ecdf - 1.0 / runs)).max())
    assert ks <= 1.63 / math.sqrt(runs)


def test_sample_path_piecewise_constant():
    d = _two_state()
    traj = sk.ssa_run(d, t_end=5.0, seed=2)
    grid = np.linspace(0, 5, 11)
    sampled = sample_path(traj, grid)
    for t, row in zip(grid, sampled):
        i = np.searchsorted(traj.times, t, side="right") - 1
        assert np.array_equal(row, traj.data[i])


def test_sample_path_before_the_first_time_reads_the_first_row():
    traj = sk.Trajectory(np.array([1.0, 2.0, 2.0, 3.0]),
                         np.array([[0.0], [1.0], [2.0], [3.0]]), ["a"], [])
    grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
    assert sample_path(traj, grid)[:, 0].tolist() == [
        0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 3.0, 3.0]


def test_ensemble_runs_every_replica_on_one_generator():
    d = sk.build_builtin("stickpull-counts")
    grid = np.linspace(0, 10, 6)
    run = lambda rng: sk.ssa_run(d, t_end=10.0, seed=rng)
    stats = sk.ensemble(run, 50, 9, grid)
    rng = np.random.default_rng(9)
    samples = np.stack([sample_path(run(rng), grid) for _ in range(50)])
    assert np.array_equal(stats.mean, samples.mean(axis=0))
    assert np.array_equal(stats.stderr,
                          samples.std(axis=0, ddof=1) / math.sqrt(50))


def test_an_ensemble_peaks_at_about_its_samples():
    # the stderr is formed in the samples' own array, so the ensemble holds
    # no second array of their size: 100 runs x 20,001 points x 2 columns
    d = sk.build_builtin("stickpull-counts")
    grid = np.linspace(0.0, 10.0, 20_001)
    run = lambda rng: sk.ssa_run(d, t_end=10.0, seed=rng)
    tracemalloc.start()
    try:
        stats = sk.ensemble(run, 100, 5, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.mean.shape == (grid.size, 2)
    assert peak <= 1.25 * 100 * grid.size * 2 * 8


def test_a_shorter_ensemble_runs_the_first_replicas_of_a_longer_one():
    d = sk.build_builtin("foraging", n0=3, m0=6)
    grid = np.linspace(0, 10, 6)
    rngs, paths = [], []

    def run(rng):
        rngs.append(rng)
        paths.append(sk.ssa_run(d, t_end=10.0, seed=rng))
        return paths[-1]

    sk.ensemble(run, 100, 4, grid)
    longer = paths[:]
    paths.clear()
    sk.ensemble(run, 50, 4, grid)
    assert len(paths) == 50
    for a, b in zip(paths, longer):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.data, b.data)
    # one Generator per ensemble, handed to every replica
    assert all(r is rngs[0] for r in rngs[:100])
    assert all(r is rngs[100] for r in rngs[100:])
    assert rngs[0] is not rngs[100]


# each case of the limits test returns what it needs of each limit, a list
# that gets one item per unit of its work, how many of those it makes before
# a refusal, and a function that runs it
def _a_run(monkeypatch):
    """An ODE run of 11 rows of 3 columns; a call per RK4 stage."""
    system, calls = sk.compile_rhs(sk.build_builtin("stickpull-simple")), []

    def counted(t, y, h):
        calls.append(t)
        return system.rhs(t, y, h)
    swapped = dataclasses.replace(system, rhs=counted)
    return ({"bytes": 11 * 3 * 8}, calls, 0,
            lambda: sk.integrate(swapped, t_end=1.0, dt=0.1))


def _a_master_solve(monkeypatch):
    """4 rows of a chain of 2 configurations and 1 jump, Λ t_end = 2; a
    call per Poisson window, of which the limits read the last row's."""
    d = sk.parse_model("state a = 1\nstate b = 0\nrate(a): a -> b\n")
    poisson, calls = stochastic._poisson_weights, []
    first, w = poisson(2.0)
    products = first + len(w)
    needs = {"products": products + 4,
             "entries": products * (1 + 2) + 4 * len(w) * 2,
             "bytes": (4 + 1) * (2 + len(w)) * 8}

    def counted(q):
        calls.append(q)
        return poisson(q)
    monkeypatch.setattr(stochastic, "_poisson_weights", counted)
    return needs, calls, 1, lambda: sk.master_exact(d, t_end=2.0, dt=0.5)


def _an_ensemble(monkeypatch):
    """3 runs at 6 grid points of 2 columns; a call per run."""
    d, calls = sk.build_builtin("stickpull-counts"), []

    def run(rng):
        calls.append(sk.ssa_run(d, t_end=10.0, seed=rng))
        return calls[-1]
    return ({"bytes": 3 * 6 * 2 * 8}, calls, 1,
            lambda: sk.ensemble(run, 3, 0, np.linspace(0, 10, 6)))


def _a_path(monkeypatch):
    """A path of exactly 32 events, one block of uniforms: the limit is
    read as the second block is drawn; a call per block."""
    d, calls = sk.parse_model("state a = 1\nrate(1): a -> a\n"), []
    times = sk.ssa_run(d, t_end=100.0, seed=0).times
    t_end = 0.5 * (times[32] + times[33])

    class Counted(np.random.Generator):
        def random(self, size):
            calls.append(size)
            return super().random(size)
    return ({"events": 32}, calls, 1,
            lambda: sk.ssa_run(d, t_end, Counted(np.random.PCG64(0))))


def _an_enumeration(monkeypatch):
    """4 configurations, 3 to 0 agents in a; a call per space built."""
    d = sk.parse_model("state a = 3\nstate b = 0\nrate(a): a -> b\n")
    calls = []
    return ({"configurations": 4}, calls, 0,
            lambda: calls.append(ConfigurationSpace.build(d)))


@pytest.mark.parametrize("entry, case", [
    ("bytes", _a_run), ("products", _a_master_solve),
    ("entries", _a_master_solve), ("bytes", _a_master_solve),
    ("bytes", _an_ensemble), ("events", _a_path),
    ("configurations", _an_enumeration)], ids=[
    "run-bytes", "master-products", "master-entries", "master-bytes",
    "ensemble-bytes", "path-events", "chain-configurations"])
def test_a_limit_admits_exactly_its_count(monkeypatch, entry, case):
    # a limit set to exactly what a case needs admits it; one lower refuses
    # it before its first stage, product (its rows' windows), second replica
    # or second block
    needs, calls, refused, run = case(monkeypatch)
    need = needs[entry]
    monkeypatch.setitem(LIMITS, entry, need)
    run()
    assert len(calls) > refused
    calls.clear()
    monkeypatch.setitem(LIMITS, entry, need - 1)
    with pytest.raises(IntegrationError, match=f" needs {need} {entry}, "
                       f"over the limit of {need - 1}$"):
        run()
    assert len(calls) == refused


def test_ensemble_seed_derivation_and_stderr():
    d = sk.build_builtin("stickpull-counts")
    grid = np.linspace(0, 10, 6)
    run = lambda seed: sk.ssa_run(d, t_end=10.0, seed=seed)
    a = sk.ensemble(run, 50, 9, grid)
    b = sk.ensemble(run, 50, 9, grid)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)
    c = sk.ensemble(run, 50, 10, grid)
    assert not np.array_equal(a.mean, c.mean)


def test_ensemble_identical_runs_zero_stderr():
    d = sk.build_builtin("stickpull-counts")
    grid = np.linspace(0, 5, 4)
    run = lambda seed: sk.ssa_run(d, t_end=5.0, seed=123)  # ignore seed
    stats = sk.ensemble(run, 5, 0, grid)
    assert np.allclose(stats.stderr, 0.0)


def test_ensemble_requires_two_runs():
    d = sk.build_builtin("stickpull-counts")
    with pytest.raises(ValueError):
        sk.ensemble(lambda s: sk.ssa_run(d, 1.0, s), 1, 0, [0.0, 1.0])


def test_ensemble_stderr_shrinks_with_runs():
    d = sk.build_builtin("stickpull-counts")
    grid = np.linspace(2, 10, 5)
    run = lambda seed: sk.ssa_run(d, t_end=10.0, seed=seed)
    s1 = sk.ensemble(run, 200, 1, grid)
    s2 = sk.ensemble(run, 400, 1, grid)
    ratio = np.median(s2.stderr / s1.stderr)
    assert 0.7 / 1.2 < ratio < 0.7 * 1.2


def test_ssa_ensemble_agrees_with_master():
    d = sk.build_builtin("stickpull-counts")  # N0 = M0 = 4
    _, exact = sk.master_exact(d, t_end=20.0, dt=0.5)
    grid = np.linspace(1, 20, 20)
    stats = sk.ensemble(lambda s: sk.ssa_run(d, t_end=20.0, seed=s),
                        500, 2, grid)
    m, se = stats.column("s")
    ref = np.interp(grid, exact.times, exact.column("s"))
    z = np.abs(m - ref) / np.maximum(se, 1e-12)
    assert z.max() < 3.0


# -- per-agent simulator ----------------------------------------------------


def test_semimarkov_deterministic_given_seed():
    a = sk.semimarkov_run(10, 20, 0.05, 0.35, 5.0, t_end=30.0, seed=5)
    b = sk.semimarkov_run(10, 20, 0.05, 0.35, 5.0, t_end=30.0, seed=5)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.data, b.data)


def test_semimarkov_tau_zero_never_gripping():
    traj = sk.semimarkov_run(6, 10, 0.1, 0.35, 0.0, t_end=50.0, seed=1)
    assert traj.column("g").max() == 0.0
    assert np.allclose(traj.column("s"), 6.0)


def test_semimarkov_conserves_agents_and_bounds():
    traj = sk.semimarkov_run(10, 20, 0.05, 0.35, 5.0, t_end=100.0, seed=9)
    assert np.allclose(traj.data.sum(axis=1), 10.0)
    assert traj.data.min() >= 0
    assert traj.column("g").max() <= 10
    assert traj.metadata["successes"] > 0


def test_semimarkov_unaided_release_when_no_helpers():
    # a single robot can never be helped: it grips and releases exactly
    # tau later, so gripping intervals have length tau
    traj = sk.semimarkov_run(1, 5, 0.5, 0.35, 2.0, t_end=100.0, seed=4)
    g = traj.column("g")
    t = traj.times
    starts = t[1:][np.diff(g) > 0]
    ends = t[1:][np.diff(g) < 0]
    assert len(starts) > 3
    for s0, e0 in zip(starts, ends):
        assert e0 - s0 == pytest.approx(2.0, abs=1e-9)


def test_semimarkov_matches_delayed_mean_field():
    grid = np.array([50.0])
    stats = sk.ensemble(
        lambda s: sk.semimarkov_run(10, 20, 0.05, 0.35, 5.0,
                                    t_end=50.5, seed=s),
        300, 1, grid)
    m, se = stats.column("s")
    root = sk.steady_state_delayed(0.5, 5.0, 0.35).n
    assert abs(m[0] / 10 - root) < 0.05


def test_semimarkov_validates_arguments():
    with pytest.raises(ValueError):
        sk.semimarkov_run(0, 5, 0.1, 0.35, 1.0)
    with pytest.raises(ValueError):
        sk.semimarkov_run(5, 5, 0.1, 0.35, -1.0)
    with pytest.raises(ValueError):
        sk.semimarkov_run(5, 5, 0.1, 1.5, 1.0)


@pytest.mark.parametrize("args, name", [
    ((5, 5, math.inf, 0.35, 1.0), "alpha"),
    ((5, 5, 0.1, 0.35, math.nan), "tau"),
    ((5, 5, 0.0, 0.35, 1.0), "alpha"),
    ((5, 5, 0.1, 0.0, 1.0), "rg"),
    ((5, math.inf, 0.1, 0.35, 1.0), "m0")])
def test_semimarkov_refuses_arguments_outside_the_table(args, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        sk.semimarkov_run(*args)


@pytest.mark.parametrize("n0, m0", [(10.5, 20), (10, 2.5)])
def test_semimarkov_refuses_fractional_counts(n0, m0):
    with pytest.raises(ValueError, match="whole numbers"):
        sk.semimarkov_run(n0, m0, 0.05, 0.35, 5.0)


# SHA-256 of the (times | s, g) float64 rows and the success count of
# semimarkov_run paths, as recorded when the simulator kept two counters
# beside its list of deadlines: one list must draw and move alike
_SEMIMARKOV_DIGESTS = [
    ((10, 20, 0.05, 0.35, 5.0, 30.0, 5),
     "c0769a64cfbd8664f066e1e1d6172d909ca08bf842c1a6f3df2916212beaa8f2"),
    ((6, 10, 0.1, 0.35, 0.0, 50.0, 1),  # tau = 0: never seen gripping
     "87c4aa01ddec1fb5284c1fcb87482fe6e948854a3a86a4fe8c623fa14e6c80fc"),
    ((10, 3, 0.2, 0.35, 2.0, 40.0, 7),  # m0 < n0: sticks run out
     "3b9786a747e839c27bad5645b70ca325d6e36112d772d6c9a0649758c127c41b"),
    ((1, 5, 0.5, 0.35, 2.0, 100.0, 4),  # one robot: unaided releases only
     "eb384021b41aa637b19cded2dc69e9dd430e71e5f6048a5fd9cfde062ae09b13"),
    ((8, 8, 0.1, 1.0, 3.0, 60.0, 11),
     "6bbadbf10a5068caaf7446072472e9e1bde5508954ff952b5933c9587b480527")]


@pytest.mark.parametrize("args, digest", _SEMIMARKOV_DIGESTS)
def test_semimarkov_paths_are_pinned(args, digest):
    import hashlib

    *rates, t_end, seed = args
    traj = sk.semimarkov_run(*rates, t_end=t_end, seed=seed)
    h = hashlib.sha256(np.column_stack((traj.times, traj.data)).tobytes())
    h.update(repr(traj.metadata["successes"]).encode())
    assert h.hexdigest() == digest
