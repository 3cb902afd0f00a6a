"""Stochastic ground truth for the mean-field models.

Three engines: the configuration-level master equation solved exactly at
its output times by uniformization (small state spaces), Gillespie
sampling of the same chain, and a per-agent simulator for the stick-pulling
system with deterministic gripping timers (which breaks the memoryless
property and therefore cannot be reduced to a configuration chain).  The
enumeration behind the master equation and the Gillespie sampler, which
walks a bounded table of the configurations it visits, run the same rate
lines, generated once per model structure from its rate kernel, so they
refuse a NaN or infinite rate or env effect at a reachable configuration
with the same ModelError.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .analysis import check_args
from .diagram import _kept, _kernel_source, _shared, _values, gate
from .errors import IntegrationError, ModelError, StateSpaceTooLarge
from .expr import Source
from .integrate import (LIMITS, Trajectory, _check_t_end, _off_grid,
                        _step_count, check_limits)

# uniforms per Generator call in the Gillespie loop (even, so both of an
# event's uniforms come from one block), and v's per block of the master
# solve
_BLOCK = 64
_TABLE = 1024  # most configurations a chain's table keeps, ~500 bytes each
_JUMP = np.dtype([("src", np.intp), ("dst", np.intp), ("rate", float)])


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
    configs: np.ndarray  # (n, dim) floats: states, then env counters
    jumps: np.ndarray    # 24-byte _JUMP records by source, rate > 0

    @property
    def size(self):
        return len(self.configs)

    @classmethod
    def build(cls, diagram):
        """Breadth-first enumeration from the initial configuration, over
        the jumps ``out(y)`` of the diagram's generated chain, of at most
        the configurations of LIMITS (else StateSpaceTooLarge)."""
        start, _, out = _kept(diagram, "_chain", _chain)[:3]
        configs, index, cap = [start], {start: 0}, LIMITS["configurations"]

        def walk():
            for i, cfg in enumerate(configs):  # configs grows as it goes
                for rate, nxt in out(cfg):
                    j = index.setdefault(nxt, len(configs))
                    if j == len(configs):
                        if j >= cap:
                            raise StateSpaceTooLarge(j + 1, cap)
                        configs.append(nxt)
                    yield i, j, rate
        jumps = np.fromiter(walk(), _JUMP)  # each as the walk yields it
        return cls(np.array(configs, dtype=float), jumps)


@dataclass
class MasterTable:
    """Probability of each configuration at each output time."""
    times: np.ndarray
    probs: np.ndarray  # shape (nt, n_configs)
    space: ConfigurationSpace


POISSON_TAIL = 1e-15  # most Poisson mass left out of one row


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
    uniformization in one series from t = 0 (Jensen 1953; Reibman &
    Trivedi 1988): v_k = (I + W/Λ)^k P(0), Λ the largest exit rate, and
    each row P(t) = Σ_k Pois(k; Λt) v_k over its own Poisson window, so no
    term is negative and at most POISSON_TAIL of the mass is left out.  W
    is applied through its jump list, ``_BLOCK`` v's at a time, and each
    block is added to the rows whose windows it meets.  Rows are ``dt_out``
    (default ``dt``) apart, a whole number of steps ``dt`` dividing the
    step count: the last is at ``t_end``.  A solve past
    ``integrate.LIMITS`` in products and rows, in entries of the products
    (jumps + configurations each) and of the rows' sums, or in the bytes of
    its rows and windows is an IntegrationError before any product.
    Returns (MasterTable, expectation Trajectory).
    """
    nsteps = _step_count(t_end, dt)
    if dt_out is None:
        dt_out = dt
    stride = round(dt_out / dt)
    if stride < 1 or nsteps % stride or _off_grid(dt_out, dt):
        raise ValueError(f"dt_out={dt_out!r} is not a whole number of steps "
                         f"dt={dt!r} that divides t_end={t_end!r}")
    space = ConfigurationSpace.build(diagram)
    # every product reads src and dst: contiguous copies are ~3× faster
    src, dst, rate = (space.jumps[f].copy() for f in _JUMP.names)
    n = space.size
    exit_rate = np.bincount(src, weights=rate, minlength=n)
    lam = float(exit_rate.max())
    # I + W/Λ, as its jump weights and its non-negative diagonal
    move, stay = rate / (lam or 1.0), 1.0 - exit_rate / (lam or 1.0)

    def jump(v):
        return np.bincount(dst, weights=move * v[src], minlength=n) + stay * v

    # q + rows, then the last row's window (the widest), bound the solve
    rows = nsteps // stride
    times = np.arange(rows + 1) * stride * dt
    q = lam * (rows * stride * dt)  # Λ times[-1], as a Python float
    check_limits("master-equation solve", products=q + rows)
    first, weights = _poisson_weights(q)
    products, width = first + len(weights), len(weights)
    check_limits("master-equation solve", products=products + rows,
                 entries=products * (len(src) + n) + rows * width * n,
                 bytes=(rows + 1) * (n + width) * 8)

    windows = [_poisson_weights(lam * t) for t in times[1:].tolist()]
    firsts = np.array([f for f, _ in windows], dtype=np.intp)
    ends = firsts + [len(w) for _, w in windows]
    end = int(ends.max(initial=0))
    probs = np.zeros((rows + 1, n))
    probs[0, 0] = 1.0
    block = np.empty((min(_BLOCK, end), n))
    for b0 in range(0, end, _BLOCK):
        b1 = min(b0 + _BLOCK, end)
        block[0] = jump(block[-1]) if b0 else probs[0]
        for i in range(1, b1 - b0):
            block[i] = jump(block[i - 1])
        for row in np.flatnonzero((firsts < b1) & (ends > b0)).tolist():
            f, w = windows[row]
            lo, hi = max(f, b0), min(f + len(w), b1)
            probs[row + 1] += w[lo - f:hi - f] @ block[lo - b0:hi - b0]
    for p in probs[1:]:
        total = float(p.sum())
        if abs(total - 1.0) > 1e-9:
            raise IntegrationError(
                f"master-equation normalization drifted to {total!r}")
        worst = float(p.min())
        if worst < -1e-12:
            raise IntegrationError(
                f"master-equation probability went negative ({worst!r})")

    expectations = probs @ space.configs
    traj = Trajectory(times, expectations, diagram.state_names,
                      diagram.env_names,
                      {"model": diagram.name, "engine": "master", "dt": dt})
    return MasterTable(times, probs, space), traj


def ssa_run(diagram, t_end=10.0, seed=0):
    """One Gillespie sample path of the configuration-level chain.

    Exponential waiting times with the total rate, jump category chosen
    proportionally to individual rates; fully determined by the seed.
    The events walk the chain's table (``_chain``), each on the next two
    uniforms ``u1, u2`` of the seed's stream: the wait is ``-log1p(-u1) /
    total`` (inversion: at most about 36.7 / total), the pick ``u2 *
    total``, drawn ``_BLOCK`` at a time.  A Generator passed as ``seed``
    is used as it is and advanced by whole blocks: ``ensemble`` passes one
    Generator to every replica in turn.  Returns a piecewise-constant
    Trajectory at the jump times.  ``t_end`` must be finite and
    non-negative; a NaN or infinite rate or effect on the path raises
    ModelError, and a path that passes the events of ``integrate.LIMITS``
    before ``t_end`` IntegrationError (checked as each block is drawn).
    """
    _check_t_end(t_end)
    run = _kept(diagram, "_chain", _chain)[1]
    times, rows = run(t_end, np.random.default_rng(seed))
    return Trajectory(np.array(times),
                      np.array(rows, dtype=float).reshape(len(times), -1),
                      diagram.state_names, diagram.env_names,
                      {"model": diagram.name, "engine": "ssa"})


def _chain(diagram):
    """``(start, run, out, table, entries)`` of the configuration chain,
    which keeps no history, holds rates constant between jumps and moves
    whole agents: it takes a valid ode diagram, without ``t``, of integer
    initial values (``start``, as floats), and refuses any other before it
    binds the code generated once per structure (``_generate_chain``) to
    its values.  ``table`` maps the first ``_TABLE`` configurations filled
    to their places in ``entries`` (place 0 unused, ``start`` at place 1),
    and while it has room a jump first taken links to its target's place;
    once full, an unlinked jump fills afresh.  No entry refers to another,
    and a refusal stores nothing.  ``run(t_end, rng)`` starts at ``start``
    and jumps by the first running sum above the pick, else the last: times
    and rows, flat.  ``out(y)``: (rate, next y) per positive rate."""
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
    start = tuple(float(round(v)) for v in init)
    rule, out, follows, table, entries = _shared(
        diagram, "_chain", _generate_chain)(_values(diagram), _TABLE)
    entries.append(rule(start))  # every run starts here
    table[start] = 1
    n = max(len(diagram.transitions), 1)  # index of y in an entry

    def run(t_end, rng):
        e = entries[1]
        draw, u, k, t, log1p = rng.random, None, _BLOCK, 0.0, math.log1p
        times, rows, most = [t], list(start), LIMITS["events"]
        while (total := e[0]) > 0.0:
            if k == _BLOCK:
                if len(times) > most:  # `most` events or more: check them
                    check_limits("Gillespie path", events=len(times) - 1)
                u, k = draw(_BLOCK).tolist(), 0
            t -= log1p(-u[k]) / total
            if t >= t_end:
                break
            i = n + bisect_right(e, u[k + 1] * total, 1, n)
            k += 2
            e = entries[j] if (j := e[i]) else follows[i](e)
            times.append(t)
            rows += e[n]
        times.append(t_end)
        rows += e[n]
        return times, rows
    return start, run, out, table, entries


def _generate_chain(diagram):
    """``bind(_values(diagram), cap)`` gives ``(rule, out, follows, table,
    entries)`` over whole-number float counts ``y``, the row (``t`` is
    0.0).  ``rule(y)``: the entry ``[total, s0, ..., s(n-2), y, None * n]``
    of the rates in transition order (0.0 below a source count of 1, else
    ``max(0.0, rate)``; NaN, -inf and a +inf total refused).  ``out(y)``:
    (rate, next y) per positive rate, one agent moved, effects at ``y`` by
    ``_whole``; ``follows[n + 1 + k](e)`` moves from entry ``e`` by jump k,
    keeping the next entry while ``entries`` holds at most ``cap``."""
    names, slots = _kernel_source(diagram)[:2]
    src, n = Source(names, slots), len(diagram.transitions)
    ys = [f"y{i}" for i in range(slots["t"])]
    src.row, flows, jumps = [*ys, "0.0"], [], []
    unpack = f"[{', '.join(ys)}] = "
    for k, tr in enumerate(diagram.transitions):
        si, ti = slots[tr.source], slots[tr.target]
        rate = (f"v if (v := {src.value(tr.rate)}) > 0.0 "
                "else 0.0 if v > -_inf else _refuse_rate(v)")
        flows += [f"f{k} = {rate}" if si == ti else
                  f"f{k} = 0.0 if y{si} < 1.0 else {rate}",
                  f"s{k} = s{k - 1} + f{k}" if k else "s0 = f0"]
        dv = [(slots[name], src.value(e)) for name, e in tr.env_effects]
        effects = [f"    d{j} = _whole({x})" for j, (_, x) in enumerate(dv)]
        nxt = list(ys)  # the next y, slot by slot: the move, then effects
        if si != ti:
            nxt[si] += " - 1.0"
            nxt[ti] += " + 1.0"
        for j, (i, _) in enumerate(dv):
            nxt[i] += f" + d{j}"
        nxt = f"({''.join(f'{x}, ' for x in nxt)})"
        jumps += [f"if f{k} > 0.0:", *effects,
                  f"    jumps.append((f{k}, {nxt}))"]
        src.lines += [
            f"def follow{k}(e):", f"    {unpack}e[{n}]", *effects,
            f"    y = {nxt}", "    if len(entries) > cap:",
            "        return rule(y)", "    if (j := table.get(y)) is None:",
            "        entries.append(rule(y))",
            "        j = table[y] = len(entries) - 1",
            f"    e[{n + 1 + k}] = j", "    return entries[j]"]
    total = f"s{n - 1}" if n else "0.0"
    rates = [unpack + "y", *flows, f"if {total} == _inf:",
             f"    _refuse_rate({total})"]
    entry = (f"[{total}, {''.join(f's{k}, ' for k in range(n - 1))}y"
             f"{', None' * n}]")
    src.lines += [
        "table, entries = {}, [None]",
        "def rule(y):", *(f"    {x}" for x in [*rates, f"return {entry}"]),
        "def out(y):", *(f"    {x}" for x in [
            *rates, "jumps = []", *jumps, "return jumps"])]
    src.env.update(_inf=math.inf, _refuse_rate=_refuse_rate, _whole=_whole)
    follows = "".join(f"follow{k}, " for k in range(n))
    return src.compile(f"rule, out, ({'None, ' * (n + 1)}{follows}), table, "
                       "entries", "_p, cap")


def semimarkov_run(n0, m0, alpha, r_g, tau, t_end=10.0, seed=0):
    """Per-agent stick pulling with deterministic gripping countdowns.

    Searching agents grip free sticks at rate alpha per (agent, stick)
    pair and find gripping agents at rate r_g*alpha per pair.  A helped
    gripper and its helper both return to searching (the stick is pulled
    out and re-inserted); an unhelped gripper releases exactly tau after
    gripping.  The state is the list of gripping deadlines: with g of them,
    n0 - g agents search and m0 - g sticks are free.  The arguments must be
    inside ``analysis.DOMAINS`` and n0 and m0 whole, else ValueError.
    """
    check_args(n0=n0, m0=m0, alpha=alpha, rg=r_g, tau=tau)
    if n0 % 1 or m0 % 1:
        raise ValueError("n0 and m0 must be whole numbers")
    rng = np.random.default_rng(seed)
    deadlines = []          # one entry per gripping agent
    successes = 0
    t = 0.0
    times = [0.0]
    rows = [(float(n0), 0.0)]
    while True:
        g = len(deadlines)
        grip_rate = alpha * (n0 - g) * (m0 - g)
        total = grip_rate + r_g * alpha * (n0 - g) * g
        # total is 0 only while every agent grips, each with a deadline
        drawn = t + rng.exponential(1.0 / total) if total > 0.0 else math.inf
        first = min(deadlines, default=math.inf)
        t = min(first, drawn)
        if not t < t_end:
            break
        if t == first:
            # unaided release at timer expiry (before a draw at the same t)
            deadlines.remove(first)
        elif rng.random() * total >= grip_rate:
            # success: pick a gripper uniformly; it and its helper both
            # search (one searcher leaves, two return), the stick is put back
            deadlines.pop(int(rng.integers(g)))
            successes += 1
        elif tau > 0.0:  # a grip; at tau = 0 it releases at once, unseen
            deadlines.append(t + tau)
        times.append(t)
        rows.append((float(n0 - len(deadlines)), float(len(deadlines))))
    times.append(t_end)
    rows.append((float(n0 - len(deadlines)), float(len(deadlines))))
    return Trajectory(np.array(times),
                      np.array(rows, dtype=float),
                      ["s", "g"], [],
                      {"engine": "semimarkov", "successes": successes,
                       "n0": n0, "m0": m0})


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
    """Aggregate ``run(rng) -> Trajectory`` over ``n_runs`` runs.

    Every run gets the same Generator, ``np.random.default_rng(master_seed)``,
    in turn, and goes on from where the run before left its stream: the
    result is fixed by the master seed alone, and the first n runs of a
    longer ensemble are the runs of an n-run one.  Each run's samples go
    into one (runs, nt, dim) array, allocated once the first run gives the
    column count; one over the bytes of ``integrate.LIMITS`` is an
    IntegrationError before the second run.
    """
    if n_runs < 2:
        raise ValueError("n_runs must be >= 2")
    t_grid = np.asarray(t_grid, dtype=float)
    rng = np.random.default_rng(master_seed)
    traj = run(rng)
    first = sample_path(traj, t_grid)
    check_limits("ensemble", bytes=n_runs * first.size * 8)
    samples = np.empty((n_runs, *first.shape))
    samples[0] = first
    for k in range(1, n_runs):
        samples[k] = sample_path(run(rng), t_grid)
    mean = samples.mean(axis=0)
    samples -= mean  # std(ddof=1) as numpy forms it, in the samples' array
    samples *= samples
    stderr = np.sqrt(samples.sum(axis=0) / (n_runs - 1)) / math.sqrt(n_runs)
    return EnsembleStats(t_grid, mean, stderr, traj.columns, n_runs,
                         master_seed, {"engine": traj.metadata.get(
                             "engine", "unknown")})
