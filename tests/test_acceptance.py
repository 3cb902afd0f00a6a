"""End-to-end acceptance checks, one per shipped guarantee.

Each test records a single PASS/FAIL line; conftest.py echoes them in the
terminal summary so they survive pytest's output capture.
"""
import contextlib
import time

import numpy as np
import pytest

import swarmk as sk

RESULTS = []


@contextlib.contextmanager
def _criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append(f"ACCEPTANCE {num:2d} [{label}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    RESULTS.append(f"ACCEPTANCE {num:2d} [{label}]: PASS ({elapsed:.1f}s)")


def test_criterion_1_critical_ratio_and_sweep_shapes():
    with _criterion(1, "critical ratio"):
        t0 = time.perf_counter()
        assert sk.beta_critical(0.35) == pytest.approx(1.48148, abs=1e-4)

        inv_grid = np.linspace(0.5, 50.0, 200)

        def r_curve(beta):
            return np.array([sk.collaboration_rate(
                sk.steady_state_simple(beta, 1.0 / x, 0.35).n, beta, 0.35)
                for x in inv_grid])

        r_sub = r_curve(1.4)     # below the critical ratio
        i = int(np.argmax(r_sub))
        assert 0 < i < len(inv_grid) - 1          # interior maximum
        assert r_sub[i] > r_sub[0] and r_sub[i] > r_sub[-1]

        r_sup = r_curve(1.55)    # above the critical ratio
        assert int(np.argmax(r_sup)) == len(inv_grid) - 1
        assert np.all(np.diff(r_sup) >= -1e-15)   # monotone, no interior max
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_optimal_release_rate():
    with _criterion(2, "optimal release rate"):
        t0 = time.perf_counter()
        assert sk.gamma_opt(0.5, 0.35) == 1.0 - (0.5 + 0.175) / 2.0 == 0.6625

        grid = np.linspace(0.05, 2.0, 400)
        rates = [sk.collaboration_rate(
            sk.steady_state_simple(0.5, g, 0.35).n, 0.5, 0.35) for g in grid]
        best = grid[int(np.argmax(rates))]
        assert abs(best - 0.6625) <= grid[1] - grid[0]

        res = sk.steady_state_simple(0.5, 0.6625, 0.35)
        assert res.n == pytest.approx(0.5, abs=1e-9)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_delayed_model():
    with _criterion(3, "delayed model"):
        t0 = time.perf_counter()
        root = sk.steady_state_delayed(0.5, 5.0, 0.35)
        assert root.residual <= 1e-10

        d = sk.build_stickpull_delayed(sk.StickPullParams(beta=0.5, tau=5.0))
        traj = sk.integrate_delayed(sk.compile_rhs(d), t_end=200.0, dt=0.01)
        settled = sk.steady_state_of_trajectory(traj, "s")
        assert abs(settled - root.n) < 1e-3

        assert sk.tau_opt(0.5, 0.35) == pytest.approx(1.4178, abs=1e-3)
        grid = np.linspace(0.0, 10.0, 400)
        rates = [sk.collaboration_rate(
            sk.steady_state_delayed(0.5, t, 0.35).n, 0.5, 0.35) for t in grid]
        best = grid[int(np.argmax(rates))]
        assert abs(best - sk.tau_opt(0.5, 0.35)) <= grid[1] - grid[0]
        assert time.perf_counter() - t0 < 30.0


def test_criterion_4_two_model_consistency():
    # Both optimum curves are positive, share the same monotonic direction
    # (they increase with the robots-to-sticks ratio: at beta -> 0 both
    # approach finite values, 2/(2 - beta - bt) -> 1 and tau_opt -> 1, and
    # both diverge at the critical ratio), and become undefined exactly at
    # and beyond the critical ratio.
    with _criterion(4, "two-model consistency"):
        t0 = time.perf_counter()
        betas = np.round(np.arange(0.1, 1.01, 0.1), 10)
        taus = [sk.tau_opt(b, 0.35) for b in betas]
        inv_gammas = [1.0 / sk.gamma_opt(b, 0.35) for b in betas]
        assert all(v is not None and v > 0 for v in taus)
        assert all(v > 0 for v in inv_gammas)
        assert np.all(np.diff(taus) > 0)
        assert np.all(np.diff(inv_gammas) > 0)

        bc = sk.beta_critical(0.35)
        eps = 1e-9
        assert sk.tau_opt(bc - 1e-6, 0.35) is not None
        assert sk.gamma_opt(bc - 1e-6, 0.35) is not None
        for b in (bc + eps, bc + 0.1, 2.0, 5.0):
            assert sk.tau_opt(b, 0.35) is None
            assert sk.gamma_opt(b, 0.35) is None
        assert time.perf_counter() - t0 < 5.0


def test_criterion_5_foraging_shapes_and_group_size():
    with _criterion(5, "foraging"):
        t0 = time.perf_counter()
        d = sk.build_foraging()  # M0=20, N0=5, base avoid 3 s, homing 16 s
        traj = sk.integrate(sk.compile_rhs(d), t_end=700.0, dt=0.05)
        s = traj.column("s")
        m = traj.column("m")
        i_min = int(np.argmin(s))
        assert 0 < i_min < len(s) - 1
        assert s[i_min] < s[0] - 0.5          # a real dip...
        assert s[-1] > s[i_min] + 0.5         # ...followed by recovery
        assert np.all(np.diff(m) < 0)
        assert m[-1] < 1.0

        times = {}
        for n0 in range(1, 11):
            dn = sk.build_foraging(sk.ForagingParams(n0=n0))
            tr = sk.integrate(sk.compile_rhs(dn), t_end=1600.0, dt=0.25)
            times[n0] = sk.completion_time(tr, "m", "deplete", 1.0)
        n_best = min(times, key=times.get)
        assert 1 < n_best < 10
        assert times[n_best] < times[1]
        assert times[n_best] < times[10]
        eff = [sk.efficiency_per_robot(times[n], n, 20) for n in range(1, 11)]
        assert np.all(np.diff(eff) < 0)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_6_communication_scaling():
    with _criterion(6, "communication scaling"):
        t0 = time.perf_counter()

        def completion_points(**overrides):
            pts = []
            for n in (2, 4, 8, 16, 32):
                g = sk.build_sugawara(sk.SugawaraParams(n0=n, **overrides))
                tr = sk.integrate(sk.compile_rhs(g), t_end=400.0, dt=0.1)
                pts.append((n, sk.completion_time(tr, "delivered", "reach",
                                                  20.0)))
            return pts

        slope0, _ = sk.scaling_exponent(completion_points(x=0))
        assert slope0 == pytest.approx(-1.0, abs=0.1)
        slope1, _ = sk.scaling_exponent(completion_points())
        assert slope1 < -1.0
        assert time.perf_counter() - t0 < 10.0


def test_criterion_7_oracle_chain_small_instances():
    # release rate 0.2 and alpha = 1/M0 (so count-level time equals the
    # dimensionless clock) are the documented small-instance settings
    with _criterion(7, "oracle chain"):
        t0 = time.perf_counter()
        d4 = sk.build_stickpull_counts(sk.StickPullCountsParams(
            n0=4, m0=4, alpha=0.25, gamma_d=0.2))
        _, exact = sk.master_exact(d4, t_end=20.0, dt=0.005, dt_out=0.5)
        grid = np.linspace(1.0, 20.0, 20)
        stats = sk.ensemble(lambda s: sk.ssa_run(d4, t_end=20.0, seed=s),
                            2000, 0, grid)
        mean, se = stats.column("s")
        ref = np.interp(grid, exact.times, exact.column("s"))
        z = np.abs(mean - ref) / np.maximum(se, 1e-12)
        assert z.max() < 3.0

        def mean_field_gap(n0):
            p = sk.StickPullCountsParams(n0=n0, m0=n0, alpha=1.0 / n0,
                                         gamma_d=0.2)
            _, tr = sk.master_exact(sk.build_stickpull_counts(p),
                                    t_end=20.0, dt=0.005, dt_out=0.5)
            mf = sk.integrate(sk.compile_rhs(sk.build_stickpull_simple(
                sk.StickPullParams(beta=1.0, gamma=0.2))),
                t_end=20.0, dt=0.005)
            n_mf = np.interp(tr.times, mf.times, mf.column("s"))
            return np.abs(tr.column("s") / n0 - n_mf).max()

        assert mean_field_gap(4) > mean_field_gap(40)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_8_semimarkov_at_ten_agents():
    with _criterion(8, "agent simulator at N=10"):
        t0 = time.perf_counter()
        grid = np.array([60.0])
        stats = sk.ensemble(
            lambda s: sk.semimarkov_run(10, 20, 0.05, 0.35, 5.0,
                                        t_end=60.5, seed=s),
            1000, 0, grid)
        mean, se = stats.column("s")
        n_hat = mean[0] / 10.0
        se_hat = se[0] / 10.0
        root = sk.steady_state_delayed(0.5, 5.0, 0.35).n
        assert abs(n_hat - root) < 0.05
        assert abs(n_hat - root) < 3.0 * se_hat
        assert time.perf_counter() - t0 < 120.0


def test_criterion_9_solver_properties():
    with _criterion(9, "solver properties"):
        t0 = time.perf_counter()
        import math

        decay = sk.parse_model("state n = 1\nstate sink = 0\nrate(n): n -> sink\n")
        system = sk.compile_rhs(decay)
        errs = []
        for dt in (0.2, 0.1, 0.05, 0.025):
            tr = sk.integrate(system, t_end=2.0, dt=dt)
            errs.append(abs(tr.column("n")[-1] - math.exp(-2.0)))
        for e0, e1 in zip(errs, errs[1:]):
            assert 8.0 < e0 / e1 < 32.0

        runs = {
            "foraging": ("ode", 10.0),
            "sugawara": ("ode", 10.0),
            "stickpull-simple": ("ode", 10.0),
            "stickpull-counts": ("ode", 10.0),
            "stickpull-delayed": ("dde", 10.0),
            "collab-difference": ("difference", 200),
        }
        for name, (flavor, horizon) in runs.items():
            d = sk.build_builtin(name)
            sys_ = sk.compile_rhs(d)
            assert sys_.flavor == flavor
            if flavor == "ode":
                tr = sk.integrate(sys_, t_end=horizon, dt=0.01)
            elif flavor == "dde":
                tr = sk.integrate_delayed(sys_, t_end=horizon, dt=0.01)
            else:
                tr = sk.iterate_difference(sys_, k_steps=horizon)
            ns = len(d.state_names)
            drift = np.abs(tr.data[:, :ns].sum(axis=1) - d.n0).max()
            assert drift <= 1e-9 * d.n0

        tbl, _ = sk.master_exact(sk.build_stickpull_counts(), t_end=10.0,
                                 dt=0.005, dt_out=0.5)
        assert np.abs(tbl.probs.sum(axis=1) - 1.0).max() <= 1e-9
        assert time.perf_counter() - t0 < 10.0


MALFORMED = [
    ("state s = 1\nrate(s: s -> s\n", 2, 7),
    ("param = 1\n", 1, 7),
    ("state s = 1\nrate(s ~ 2): s -> s\n", 2, 8),
    ("state s = 1\nrate(q * s): s -> s\n", 2, 6),
    ("param a = 1\nstate a = 2\n", 2, 7),
    ("state s = 1\nrate(s): s -> nowhere\n", 2, 15),
]


def test_criterion_10_parser_round_trip_and_errors():
    with _criterion(10, "parser"):
        t0 = time.perf_counter()
        built = sk.build_builtin("foraging", n0=3, tau=4.0)
        for d in [sk.parse_model(sk.shipped_source(name))
                  for name in sk.BUILTIN_NAMES] + [built]:
            d2 = sk.parse_model(sk.pretty_print(d))
            assert d2.states == d.states
            assert d2.env_vars == d.env_vars
            assert d2.params == d.params
            assert d2.transitions == d.transitions
            assert d2.derived == d.derived
            assert d2.discrete == d.discrete
        for src, line, col in MALFORMED:
            with pytest.raises(sk.ModelError) as ei:
                sk.parse_model(src)
            assert (ei.value.line, ei.value.col) == (line, col)
        assert time.perf_counter() - t0 < 1.0
