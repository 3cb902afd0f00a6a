"""The benchmark's workloads: the CLI commands of one job and their checks.

A job is a fixed list of ``swarmk`` commands run in-process through
``swarmk.cli.run_cli``, each writing its output to a file.  After the job
is timed, ``check`` reads those files back and returns the problems it
found (an empty list means the job's outputs are correct).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_REFERENCE = os.path.join(HERE, "reference_sweep_T.json")

# stickpull-delayed at its defaults (beta=0.5, tau=5, rg=0.35):
# steady_state_delayed(0.5, 5, 0.35)
DELAYED_STEADY_S = 0.261828
DELAYED_STEADY_TOL = 1e-4
SWEEP_T_RTOL = 1e-5          # dt=0.5 against the dt=0.25 reference
STEADY_RESIDUAL_TOL = 1e-9
NORMALIZATION_RTOL = 1e-8
SSA_STDERRS = 5.0            # allowed |mc - exact| in standard errors

FORAGING_SWEEP = ["sweep", "--model", "foraging", "--param", "n0",
                  "--from", "1", "--to", "10", "--sweep-steps", "10",
                  "--observables", "T", "--counter", "m", "--mode", "deplete",
                  "--threshold", "1", "--t-end", "1600"]
TAU_SWEEP = ["sweep", "--model", "stickpull-delayed", "--param", "tau",
             "--from", "0.01", "--to", "20", "--sweep-steps", "2000",
             "--observables", "nstar,R"]
COMPARE_RUNS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable      # seed -> [(output file name, argv without --out)]
    check: Callable         # (outdir, seed) -> [problem, ...]
    # builtin models (name, builder overrides) the set-up probe builds,
    # parses and compiles
    models: tuple
    sizes: dict             # input sizes, for the provenance block


def _meanfield_commands(seed):
    return [("delayed.csv", ["run", "--model", "stickpull-delayed",
                             "--t-end", "100", "--dt", "0.01"]),
            ("difference.csv", ["run", "--model", "collab-difference",
                                "--steps", "2000"]),
            ("sugawara.csv", ["run", "--model", "sugawara",
                              "--t-end", "100", "--dt", "0.01"])]


def _sweep_commands(seed):
    return [("foraging_T.csv", FORAGING_SWEEP + ["--dt", "0.5"]),
            ("tau.csv", TAU_SWEEP)]


def _crosscheck_commands(seed):
    return [("compare.csv", ["compare", "--model", "foraging",
                             "--set", "n0=5", "--set", "m0=15",
                             "--t-end", "20", "--runs", str(COMPARE_RUNS),
                             "--seed", str(seed)])]


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _conservation(path, model):
    """Problems if a trajectory's state total leaves N0 by more than the
    program's own CONSERVATION_BUDGET."""
    from swarmk.integrate import CONSERVATION_BUDGET
    from swarmk.models import build_builtin

    diagram = build_builtin(model)
    header, data = read_csv(path)
    cols = [header.index(n) for n in diagram.state_names]
    drift = np.abs(data[:, cols].sum(axis=1) - diagram.n0).max()
    if not drift <= CONSERVATION_BUDGET * diagram.n0:
        return [f"{os.path.basename(path)}: state total drifts {drift!r} "
                f"from N0={diagram.n0!r}"]
    return []


def _check_meanfield(outdir, seed):
    problems = []
    for fname, model in (("delayed.csv", "stickpull-delayed"),
                         ("difference.csv", "collab-difference"),
                         ("sugawara.csv", "sugawara")):
        problems += _conservation(os.path.join(outdir, fname), model)
    header, data = read_csv(os.path.join(outdir, "delayed.csv"))
    s_end = data[-1, header.index("s")]
    if not abs(s_end - DELAYED_STEADY_S) <= DELAYED_STEADY_TOL:
        problems.append(f"stickpull-delayed final s={s_end!r}, steady state "
                        f"{DELAYED_STEADY_S} +- {DELAYED_STEADY_TOL}")
    return problems


def _delayed_residual(n, beta, tau, rg):
    """Steady-state condition of the gripping-timer model, written out
    independently of swarmk.analysis."""
    bt = rg * beta
    return (-1.0 + (beta + bt) * (1.0 - n)
            + (1.0 - beta * (1.0 - n)) * np.exp(-bt * tau * n))


def _check_sweep(outdir, seed):
    problems = []
    with open(SWEEP_REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    header, data = read_csv(os.path.join(outdir, "foraging_T.csv"))
    if data.shape != (len(ref["n0"]), 2) or \
            not np.array_equal(data[:, 0], ref["n0"]):
        return [f"foraging sweep rows {data[:, 0].tolist()} != {ref['n0']}"]
    rel = np.abs(data[:, 1] / np.array(ref["T"]) - 1.0)
    if not np.all(rel <= SWEEP_T_RTOL):
        problems.append(f"foraging T(n0) off the dt={ref['dt']} reference "
                        f"by {rel.max():.3e} relative")

    header, data = read_csv(os.path.join(outdir, "tau.csv"))
    tau, n, r = data[:, 0], data[:, 1], data[:, 2]
    beta, rg = 0.5, 0.35
    if len(tau) != 2000 or not np.all(np.isfinite(data)):
        problems.append("tau sweep has missing or failed rows")
    elif not (np.all((n > 0) & (n <= 1))
              and np.abs(_delayed_residual(n, beta, tau, rg)).max()
              <= STEADY_RESIDUAL_TOL
              and np.allclose(r, beta * rg * beta * n * (1 - n),
                              rtol=1e-12, atol=0)):
        problems.append("tau sweep nstar/R violate the steady-state "
                        "condition")
    return problems


def _check_crosscheck(outdir, seed):
    from swarmk.models import build_builtin

    diagram = build_builtin("foraging", n0=5, m0=15)
    header, data = read_csv(os.path.join(outdir, "compare.csv"))
    col = {h: data[:, i] for i, h in enumerate(header)}
    problems = []
    # every configuration puts N0 robots in the states, so the expected
    # state total is N0 times the total probability
    total = sum(col[f"{s}_exact"] for s in diagram.state_names)
    err = np.abs(total / diagram.n0 - 1.0).max()
    if not err <= NORMALIZATION_RTOL:
        problems.append(f"exact probabilities not normalized ({err:.3e})")
    init = dict(zip(diagram.state_names + diagram.env_names,
                    diagram.initial_vector()))
    for c, v0 in init.items():
        exact, mc, se = col[f"{c}_exact"], col[f"{c}_mc"], \
            col[f"{c}_mc_stderr"]
        # a rarely moved count can show no spread in the sample; bound its
        # standard error below by the Poisson value sqrt(|E[x - x0]| / runs)
        floor = np.sqrt(np.abs(exact - v0) / COMPARE_RUNS)
        gap = np.abs(mc - exact)
        worst = (gap / np.maximum(np.maximum(se, floor), 1e-300)).max()
        if not worst <= SSA_STDERRS:
            problems.append(f"SSA mean of {c} is {worst:.2f} stderr from "
                            f"the exact mean (limit {SSA_STDERRS})")
    return problems


WORKLOADS = {
    "meanfield": Workload(
        "meanfield", _meanfield_commands, _check_meanfield,
        (("stickpull-delayed", {}), ("collab-difference", {}),
         ("sugawara", {})),
        {"stickpull-delayed": "DDE, t_end=100, dt=0.01, 10000 steps",
         "collab-difference": "difference, 2000 steps",
         "sugawara": "ODE, t_end=100, dt=0.01, 10000 steps"}),
    "sweep": Workload(
        "sweep", _sweep_commands, _check_sweep,
        tuple(("foraging", {"n0": n0}) for n0 in range(1, 11))
        + (("stickpull-delayed", {}),),
        {"foraging T(n0)": "10 rows, n0=1..10, ODE t_end=1600, dt=0.5, "
                           "3200 steps each",
         "stickpull-delayed nstar,R(tau)": "2000 analytic rows"}),
    "crosscheck": Workload(
        "crosscheck", _crosscheck_commands, _check_crosscheck,
        (("foraging", {"n0": 5, "m0": 15}),),
        {"foraging n0=5 m0=15": "t_end=20, dt=0.01: 2000 master steps, "
                                f"{COMPARE_RUNS} SSA runs, 51 grid points"}),
}


def sweep_reference():
    """The foraging T(n0) sweep at dt=0.25, the reference the sweep check
    compares the workload's dt=0.5 run against."""
    import tempfile

    from swarmk.cli import run_cli

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "ref.csv")
        if run_cli(FORAGING_SWEEP + ["--dt", "0.25", "--out", out]) != 0:
            raise RuntimeError("reference sweep failed")
        _, data = read_csv(out)
    if not np.all(np.isfinite(data)):
        raise RuntimeError("reference sweep has failed rows")
    return {"dt": 0.25, "n0": data[:, 0].tolist(), "T": data[:, 1].tolist()}


if __name__ == "__main__":
    # PYTHONPATH=src python3 perfbench/workloads.py rewrites the reference
    ref = sweep_reference()
    with open(SWEEP_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(json.dumps(ref))
