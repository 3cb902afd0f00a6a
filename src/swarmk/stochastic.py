"""Stochastic ground truth for the mean-field models.

Three engines: the configuration-level master equation solved exactly at
its output times by uniformization (small state spaces), Gillespie
sampling of the same chain, and a per-agent simulator for the stick-pulling
system with deterministic gripping timers (which breaks the memoryless
property and therefore cannot be reduced to a configuration chain).
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .diagram import gate, transition_table
from .errors import IntegrationError, ModelError, StateSpaceTooLarge
from .integrate import Trajectory, _check_t_end, _off_grid, _step_count

CONFIG_CAP = 100_000


def _chain(diagram):
    """``(transition table, integer start)`` of the configuration chain,
    which keeps no history, holds rates constant between jumps and moves
    whole agents: it takes a valid ode diagram, without ``t``, of integer
    initial values.  The gate and the table are kept on the instance."""
    flavor, _, reads_t = gate(diagram)
    if flavor != "ode":
        raise ModelError("the configuration chain needs a memoryless (ode) "
                         f"model, not a {flavor} one")
    if reads_t:
        raise ModelError("time-dependent rates and effects are not allowed "
                         "in the configuration chain")
    init = [v for _, v in (*diagram.states, *diagram.env_vars)]
    if not all(math.isfinite(v) and abs(v - round(v)) <= 1e-9 for v in init):
        raise ModelError("initial counts must be integers for the "
                         "configuration chain")
    return transition_table(diagram), tuple(int(round(v)) for v in init)


def _fire(config, move, row):
    """The integer configuration after one firing of ``move`` (a
    transition-table row) from ``config``; ``row`` is the evaluation row
    of ``config`` that the env effects read."""
    si, ti, _, effects = move
    nxt = list(config)
    if si != ti:
        nxt[si] -= 1
        nxt[ti] += 1
    for ei, eff_fn in effects:
        dv = eff_fn(row)
        if abs(dv - round(dv)) > 1e-9:
            raise ModelError("environment effects must be integer-valued in "
                             f"the configuration chain (got {dv!r})")
        nxt[ei] += int(round(dv))
    return tuple(nxt)


@dataclass
class ConfigurationSpace:
    """Reachable integer occupation vectors and the jumps between them."""
    diagram: object
    configs: list                 # list of tuples (states + env counters)
    index: dict                   # config tuple -> row index
    jumps: list                   # (from_idx, to_idx, rate) with rate > 0

    @property
    def size(self):
        return len(self.configs)

    @classmethod
    def build(cls, diagram, cap=CONFIG_CAP):
        """Breadth-first enumeration from the initial configuration."""
        table, start = _chain(diagram)

        configs = [start]
        index = {start: 0}
        jumps = []
        queue = deque([0])
        while queue:
            i = queue.popleft()
            cfg = configs[i]
            row = [*map(float, cfg), 0.0]
            for move in table:
                si, ti, rate_fn, _ = move
                if si != ti and cfg[si] < 1:
                    continue
                rate = rate_fn(row)
                if rate <= 0.0:
                    continue
                nxt = _fire(cfg, move, row)
                j = index.get(nxt)
                if j is None:
                    j = len(configs)
                    if j >= cap:
                        raise StateSpaceTooLarge(j + 1, cap)
                    index[nxt] = j
                    configs.append(nxt)
                    queue.append(j)
                jumps.append((i, j, rate))
        return cls(diagram, configs, index, jumps)


@dataclass
class MasterTable:
    """Probability of each configuration at each output time."""
    times: np.ndarray
    probs: np.ndarray  # shape (nt, n_configs)
    space: ConfigurationSpace


POISSON_TAIL = 1e-15  # most Poisson mass left out of one row step


def _poisson_weights(q):
    """``(first, w)``: the Poisson(q) probabilities of first, first + 1, ...
    built out from the mode (Fox & Glynn 1988), so none underflows, and
    scaled to sum 1.  Each side stops once a geometric bound on its rest is
    at most POISSON_TAIL / 2 of the mode's weight, as a weight of 0 is."""
    k = mode = int(q)
    w, weights = 1.0, deque([1.0])
    while k > 0 and not (k < q and w * k / (q - k) <= POISSON_TAIL / 2):
        w *= k / q
        k -= 1
        weights.appendleft(w)
    first, k, w = k, mode, 1.0
    while w * q / (k + 1 - q) > POISSON_TAIL / 2:
        w *= q / (k + 1)
        k += 1
        weights.append(w)
    return first, np.array(weights) / math.fsum(weights)


def master_exact(diagram, t_end=10.0, dt=0.005, dt_out=None, cap=CONFIG_CAP):
    """Exact transient probabilities and expected occupation numbers.

    Solves dP/dt = W P on the enumerated configuration space by
    uniformization (Jensen 1953), P(t + Δ) = Σ_k Pois(k; ΛΔ) (I + W/Λ)^k
    P(t) from each output row to the next, with Λ the largest exit rate:
    no term is negative, and at most POISSON_TAIL of the Poisson mass is
    left out.  W is applied through its jump list, so a product costs
    O(jumps), not O(configurations²).  Rows are ``dt_out`` (default ``dt``)
    apart, a whole number of steps ``dt`` dividing the step count: the last
    is at ``t_end``.  Returns (MasterTable, expectation Trajectory).
    """
    nsteps = _step_count(t_end, dt)
    if dt_out is None:
        dt_out = dt
    stride = round(dt_out / dt)
    if stride < 1 or nsteps % stride or _off_grid(dt_out, dt):
        raise ValueError(f"dt_out={dt_out!r} is not a whole number of steps "
                         f"dt={dt!r} that divides t_end={t_end!r}")
    space = ConfigurationSpace.build(diagram, cap=cap)
    n = space.size

    src = np.array([i for i, _, _ in space.jumps], dtype=np.intp)
    dst = np.array([j for _, j, _ in space.jumps], dtype=np.intp)
    rate = np.array([r for _, _, r in space.jumps], dtype=float)
    exit_rate = np.bincount(src, weights=rate, minlength=n)
    lam = float(exit_rate.max())
    # I + W/Λ, as its jump weights and its non-negative diagonal
    move, stay = rate / (lam or 1.0), 1.0 - exit_rate / (lam or 1.0)

    def jump(v):
        return np.bincount(dst, weights=move * v[src], minlength=n) + stay * v

    first, weights = _poisson_weights(lam * stride * dt)

    times = np.arange(nsteps // stride + 1) * stride * dt
    probs = np.empty((len(times), n))
    p = np.zeros(n)
    p[0] = 1.0
    probs[0] = p
    for row in range(1, len(times)):
        v = p
        for _ in range(first):
            v = jump(v)
        p = weights[0] * v
        for w in weights[1:]:
            v = jump(v)
            p += w * v
        total = float(p.sum())
        if abs(total - 1.0) > 1e-9:
            raise IntegrationError(
                f"master-equation normalization drifted to {total!r}")
        worst = float(p.min())
        if worst < -1e-12:
            raise IntegrationError(
                f"master-equation probability went negative ({worst!r})")
        probs[row] = p

    cfg_matrix = np.array(space.configs, dtype=float)  # (n_configs, dim)
    expectations = probs @ cfg_matrix
    traj = Trajectory(times, expectations, diagram.state_names,
                      diagram.env_names,
                      {"model": diagram.name, "engine": "master", "dt": dt})
    return MasterTable(times, probs, space), traj


def ssa_run(diagram, t_end=10.0, seed=0):
    """One Gillespie sample path of the configuration-level chain.

    Exponential waiting times with the total rate, jump category chosen
    proportionally to individual rates; fully determined by the seed.
    Returns a piecewise-constant Trajectory sampled at the jump times.
    ``t_end`` must be finite and non-negative.
    """
    _check_t_end(t_end)
    table, y = _chain(diagram)
    rng = np.random.default_rng(seed)
    times = [0.0]
    rows = [y]
    t = 0.0
    while True:
        row = [*map(float, y), t]
        rates = []
        total = 0.0
        for si, ti, rate_fn, _ in table:
            r = 0.0 if si != ti and y[si] < 1 else max(0.0, rate_fn(row))
            rates.append(r)
            total += r
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t >= t_end:
            break
        pick = rng.random() * total
        acc = 0.0
        chosen = len(table) - 1
        for i, r in enumerate(rates):
            acc += r
            if pick < acc:
                chosen = i
                break
        y = _fire(y, table[chosen], row)
        times.append(t)
        rows.append(y)
    times.append(t_end)
    rows.append(y)
    return Trajectory(np.array(times), np.array(rows, dtype=float),
                      diagram.state_names, diagram.env_names,
                      {"model": diagram.name, "engine": "ssa", "seed": seed})


def semimarkov_run(n0, m0, alpha, r_g, tau, t_end=10.0, seed=0,
                   replacement=True):
    """Per-agent stick pulling with deterministic gripping countdowns.

    Searching agents grip free sticks at rate alpha per (agent, stick)
    pair and find gripping agents at rate r_g*alpha per pair.  A helped
    gripper and its helper both return to searching (the stick is pulled
    out and, in replacement mode, re-inserted); an unhelped gripper
    releases exactly tau after gripping.
    """
    if n0 < 1 or m0 < 1:
        raise ValueError("n0 and m0 must be >= 1")
    if tau < 0 or alpha <= 0 or not 0 < r_g <= 1:
        raise ValueError("invalid rate parameters")
    rng = np.random.default_rng(seed)
    n_search = n0
    deadlines = []          # one entry per gripping agent
    sticks = m0             # free sticks
    successes = 0
    t = 0.0
    times = [0.0]
    rows = [(float(n_search), 0.0)]

    def record():
        times.append(t)
        rows.append((float(n_search), float(len(deadlines))))

    while t < t_end:
        grip_rate = alpha * n_search * sticks
        help_rate = r_g * alpha * n_search * len(deadlines)
        total = grip_rate + help_rate
        next_deadline = min(deadlines) if deadlines else math.inf
        if total > 0.0:
            t_stoch = t + rng.exponential(1.0 / total)
        else:
            t_stoch = math.inf
        if next_deadline == math.inf and t_stoch == math.inf:
            break
        if next_deadline <= t_stoch:
            # unaided release at timer expiry
            if next_deadline >= t_end:
                break
            t = next_deadline
            deadlines.remove(next_deadline)
            n_search += 1
            sticks += 1
            record()
            continue
        if t_stoch >= t_end:
            break
        t = t_stoch
        if rng.random() * total < grip_rate:
            n_search -= 1
            sticks -= 1
            if tau == 0.0:
                # releases immediately: never observed gripping
                n_search += 1
                sticks += 1
            else:
                deadlines.append(t + tau)
        else:
            # success: pick a gripper uniformly; both return to searching
            k = int(rng.integers(len(deadlines)))
            deadlines.pop(k)
            n_search += 1  # the gripper (the helper never left searching
            #                as a count: one searcher leaves, two return)
            successes += 1
            if replacement:
                sticks += 1
        assert 0 <= n_search <= n0 and 0 <= len(deadlines) <= n0
        assert n_search + len(deadlines) == n0
        record()
    t = t_end
    record()
    return Trajectory(np.array(times),
                      np.array(rows, dtype=float),
                      ["s", "g"], [],
                      {"engine": "semimarkov", "seed": seed,
                       "successes": successes, "n0": n0, "m0": m0})


@dataclass
class EnsembleStats:
    """Per-time mean and standard error over independent runs."""
    times: np.ndarray
    mean: np.ndarray     # shape (nt, dim)
    stderr: np.ndarray   # shape (nt, dim)
    columns: list
    n_runs: int
    master_seed: int
    metadata: dict = field(default_factory=dict)

    def column(self, name):
        j = self.columns.index(name)
        return self.mean[:, j], self.stderr[:, j]


def sample_path(traj, grid):
    """Piecewise-constant resampling of an event-time trajectory."""
    grid = np.asarray(grid, dtype=float)
    idx = np.searchsorted(traj.times, grid, side="right") - 1
    idx = np.clip(idx, 0, len(traj.times) - 1)
    return traj.data[idx]


def ensemble(run, n_runs, master_seed, t_grid):
    """Aggregate ``run(seed) -> Trajectory`` over derived per-run seeds.

    Seeds are spawned deterministically from the master seed, so the
    result is fixed by the master seed alone.
    """
    if n_runs < 2:
        raise ValueError("n_runs must be >= 2")
    t_grid = np.asarray(t_grid, dtype=float)
    samples = []
    for seed in np.random.SeedSequence(master_seed).spawn(n_runs):
        traj = run(seed)
        samples.append(sample_path(traj, t_grid))
    samples = np.stack(samples)  # (runs, nt, dim)
    mean = samples.mean(axis=0)
    std = samples.std(axis=0, ddof=1)
    stderr = std / math.sqrt(n_runs)
    return EnsembleStats(t_grid, mean, stderr, traj.columns, n_runs,
                         master_seed, {"engine": traj.metadata.get(
                             "engine", "unknown")})
