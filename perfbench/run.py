"""swarmk benchmark: one run of one workload.

    python3 perfbench/run.py --workload meanfield|sweep|crosscheck \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``, nothing is installed).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; see perfbench/README.md.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the provenance and a readable table.  Scratch output and the full
result, spans included, go to ``.perfbench_out/`` under the checkout.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
RUN_TIMEOUT_S = 170       # the whole run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root):
    env = dict(os.environ)
    env.pop("SWARMK_THREADS", None)
    for key in BLAS_ENV:
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def measure_setup(workload, env, deadline):
    """Median set-up time of fresh interpreters, adjusted to the fixed
    speed as ``job_s`` is: (median, wall times, probe times, beta)."""
    models = json.dumps([[n, kw] for n, kw in workload.models])
    probe = os.path.join(HERE, "setup_probe.py")
    walls, probes = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = json.loads(subprocess.run(
            [sys.executable, probe, models], env=env, check=True,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic())).stdout)
        walls.append(done["done"] - t0 - done["probe_s"])
        probes.append(done["probe_mean_s"])
    adjusted, beta = speed.adjust(walls, probes)
    return float(statistics.median(adjusted)), walls, probes, beta


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(root, args, workload, env):
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{d}/level").strip(), _read(f"{d}/type").strip()
        caches[f"L{level} {kind}"] = _read(f"{d}/size").strip()
    commit = "unavailable (not a git checkout)"
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "swarmk", "**", "*"),
                                 recursive=True)):
        if path.endswith((".py", ".mas")):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    versions = subprocess.run(
        [sys.executable, "-c", _VERSIONS], env=env, capture_output=True,
        text=True, timeout=60, check=True).stdout
    return {
        "cpu_model": cpu, "caches": caches, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **json.loads(versions),
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "inputs": workload.sizes,
        "loop": "closed loop, 1 client, 1 job at a time, in-process run_cli",
        "threads": {k: env[k] for k in BLAS_ENV} | {"SWARMK_THREADS": None},
    }


# run with the benchmark's child environment, so the BLAS thread count is
# the one the workload itself sees
_VERSIONS = r"""
import ctypes, json, platform, re
import numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
maps = open("/proc/self/maps").read()
for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
    for sym in ("scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": threads}))
"""


def main(argv=None):
    ap = argparse.ArgumentParser(description="swarmk benchmark, one run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "swarmk", "__init__.py")):
        print("run.py: no swarmk source under src/ in the current directory; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    outdir = os.path.join(root, ".perfbench_out", args.workload,
                          f"seed{args.seed}-trace{args.trace}")
    os.makedirs(outdir, exist_ok=True)
    env = child_env(root)
    prov = provenance(root, args, workload, env)

    setup = None
    if not args.trace:
        setup = measure_setup(workload, env, deadline)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--outdir", outdir],
        env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"run.py: worker exited with code {proc.returncode}",
              file=sys.stderr)
        return 1
    work = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = work["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup[0], "unit": "s"}
        work["extra"]["setup_s.wall_samples"] = setup[1]
        work["extra"]["setup_s.probe_us"] = [1e6 * p for p in setup[2]]
        work["extra"]["setup_s.beta"] = setup[3]

    full = {"provenance": prov, **work}
    with open(os.path.join(outdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps({"provenance": prov}))
    if work["problems"]:
        print("problems: " + json.dumps(work["problems"]))
    for key, value in work["extra"].items():
        print(f"# {key}: {value}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": work["failed"] == 0,
                      "attempted": work["attempted"],
                      "failed": work["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
