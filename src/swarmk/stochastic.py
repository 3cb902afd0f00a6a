"""Stochastic ground truth for the mean-field models.

Three engines: the configuration-level master equation solved exactly at
its output times by uniformization (small state spaces), Gillespie
sampling of the same chain, and a per-agent simulator for the stick-pulling
system with deterministic gripping timers (which breaks the memoryless
property and therefore cannot be reduced to a configuration chain).  The
enumeration behind the master equation and the Gillespie loop run one jump
rule, generated per diagram from its rate kernel, so they refuse a NaN or
infinite rate or env effect at a reachable configuration with the same
ModelError.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .diagram import _kept, _kernel_source, _shared, _values, gate
from .errors import IntegrationError, ModelError, StateSpaceTooLarge
from .expr import Source
from .integrate import Trajectory, _check_t_end, _off_grid, _step_count

CONFIG_CAP = 100_000
# uniforms per Generator call in the Gillespie loop: even, so both of an
# event's uniforms come from one block
_BLOCK = 64


def _refuse_rate(v):
    raise ModelError(f"rates must be finite in the configuration chain "
                     f"(got {v!r})")


def _whole(dv):
    """An env effect's value ``dv`` as the int it adds to its counter;
    ModelError unless it is finite and within 1e-9 of a whole number."""
    if not (math.isfinite(dv) and abs(dv - round(dv)) <= 1e-9):
        raise ModelError("environment effects must be finite and integer-"
                         f"valued in the configuration chain (got {dv!r})")
    return int(round(dv))


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
        """Breadth-first enumeration from the initial configuration, over
        the jumps ``out(y)`` of the diagram's generated chain."""
        start, _, out = _kept(diagram, "_chain", _chain)
        configs = [start]
        index = {start: 0}
        jumps = []
        for i, cfg in enumerate(configs):  # configs grows as the walk goes
            for rate, nxt in out(cfg):
                j = index.setdefault(nxt, len(configs))
                if j == len(configs):
                    if j >= cap:
                        raise StateSpaceTooLarge(j + 1, cap)
                    configs.append(nxt)
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


def master_exact(diagram, t_end=10.0, dt=0.005, dt_out=None):
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
    space = ConfigurationSpace.build(diagram)
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
    The events run in ``run``, the direct method of the diagram's generated
    chain (``_chain``), which enumeration reads too.  Each event takes the
    next two uniforms ``u1, u2`` of the seed's stream: the wait is
    ``-log1p(-u1) / total`` (inversion, so one wait is at most about
    36.7 / total) and the pick is ``u2 * total``.  The uniforms are drawn
    ``_BLOCK`` at a time, so the path does not depend on the block size,
    but a Generator passed as ``seed`` is advanced by whole blocks.
    Returns a piecewise-constant Trajectory sampled at the jump times.
    ``t_end`` must be finite and non-negative; a NaN or infinite rate or
    effect on the path raises ModelError.
    """
    _check_t_end(t_end)
    start, run, _ = _kept(diagram, "_chain", _chain)
    times, rows = run(start, t_end, np.random.default_rng(seed))
    return Trajectory(np.array(times),
                      np.array(rows, dtype=float).reshape(len(times), -1),
                      diagram.state_names, diagram.env_names,
                      {"model": diagram.name, "engine": "ssa", "seed": seed})


def _chain(diagram):
    """``(start, run, out)`` of the configuration chain, which keeps no
    history, holds rates constant between jumps and moves whole agents: it
    takes a valid ode diagram, without ``t``, of integer initial values
    (``start``), and refuses any other before it binds the code generated
    once per structure (``_generate_chain``) to the diagram's values."""
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
    run, out = _shared(diagram, "_chain", _generate_chain)(_values(diagram))
    return tuple(int(round(v)) for v in init), run, out


def _generate_chain(diagram):
    """``bind``: ``bind(_values(diagram))`` gives ``run`` and ``out``, which
    share one jump rule over the rate kernel's expressions.  At a
    configuration ``y``: the row ``r`` (floats, then ``t``); each rate as
    the kernel's expression, in transition order, 0.0 if its source count
    is below 1, else ``max(0.0, rate)`` with NaN and -inf refused; their
    total from 0.0, +inf refused; a jump moves one agent and adds each
    effect by ``_whole``.  ``out(y)`` lists ``(rate,
    next configuration)`` for each positive rate, in transition order.
    ``run(y, t_end, rng)`` is the direct method from ``y``: per event
    the next two uniforms ``u1, u2`` of a block of ``_BLOCK`` from
    ``rng.random``, drawn when the last is used up; ``t -= log1p(-u1) /
    total``, then the pick ``u2 * total``, and the first transition whose
    running sum exceeds that pick jumps (the last if none does); it returns
    the event times and the rows, flat."""
    names, slots = _kernel_source(diagram)[:2]
    src, last = Source(names, slots), len(diagram.transitions) - 1
    ys = [f"y{i}" for i in range(slots["t"])]
    unpack = f"[{', '.join(ys)}] = y"
    config = f"({''.join(f'{y}, ' for y in ys)})"
    head = [f"r = [{''.join(f'float({y}), ' for y in ys)}t]"]
    branches, jumps = [], []
    for k, tr in enumerate(diagram.transitions):
        si, ti = slots[tr.source], slots[tr.target]
        rate = (f"v if (v := {src.value(tr.rate)}) > 0.0 "
                "else 0.0 if v > -_inf else _refuse_rate(v)")
        head.append(f"f{k} = {rate}" if si == ti
                    else f"f{k} = 0.0 if y{si} < 1 else {rate}")
        moves = [] if si == ti else [f"y{si} -= 1", f"y{ti} += 1"]
        moves += [f"y{slots[n]} += _whole({src.value(e)})"
                  for n, e in tr.env_effects]
        acc = f"{'a' if k else '0.0'} + f{k}"
        branches += [f"{'el' if k else ''}if pick < (a := {acc}):" if k < last
                     else "else:" if k else "if True:",
                     *(f"    {m}" for m in moves or ["pass"])]
        jumps += [f"if f{k} > 0.0:", *(f"    {m}" for m in moves),
                  f"    jumps.append((f{k}, {config}))", f"    {unpack}"]
    head += ["total = 0.0" + "".join(f" + f{k}" for k in range(last + 1)),
             "if total == _inf:", "    _refuse_rate(total)"]
    loop = [*head, "if total <= 0.0:", "    break",
            "if k == _BLOCK:", "    u, k = draw(_BLOCK).tolist(), 0",
            "t -= _log1p(-u[k]) / total", "if t >= t_end:", "    break",
            "pick = u[k + 1] * total", "k += 2", *branches,
            "times.append(t)", f"rows += {config}"]
    src.lines += ["def run(y, t_end, rng):", f"    {unpack}",
                  "    draw, u, k = rng.random, None, _BLOCK",
                  "    t = 0.0", "    times, rows = [t], list(y)",
                  "    while True:", *(f"        {line}" for line in loop),
                  "    times.append(t_end)", f"    rows += {config}",
                  "    return times, rows",
                  "def out(y):", f"    {unpack}", "    t = 0.0",
                  *(f"    {line}" for line in [*head, "jumps = []", *jumps]),
                  "    return jumps"]
    src.env.update(_inf=math.inf, _refuse_rate=_refuse_rate, _whole=_whole,
                   _log1p=math.log1p, _BLOCK=_BLOCK)
    return src.compile("run, out")


def semimarkov_run(n0, m0, alpha, r_g, tau, t_end=10.0, seed=0):
    """Per-agent stick pulling with deterministic gripping countdowns.

    Searching agents grip free sticks at rate alpha per (agent, stick)
    pair and find gripping agents at rate r_g*alpha per pair.  A helped
    gripper and its helper both return to searching (the stick is pulled
    out and re-inserted); an unhelped gripper releases exactly tau after
    gripping.
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
            sticks += 1  # the pulled stick is put back
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
    # the last row at or before each grid point, row 0 before the first
    return traj.data[np.searchsorted(traj.times[1:], grid, side="right")]


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
