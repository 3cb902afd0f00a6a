"""Set-up work a fresh interpreter does before a workload's first job:
``import swarmk``, then build (render + parse) and compile each model.

    python3 perfbench/setup_probe.py '[["foraging", {"n0": 5}], ...]'

Prints one JSON object: ``time.monotonic()`` when done, and the
``speed.Clock`` readings of the import and builds.  The clock is
system-wide, so ``run.py`` subtracts its own reading taken just before it
started this process: interpreter start is included, the wait for the exit
is not.  ``speed`` imports numpy before the clock starts; that import is in
the wall time, not in the probe time.
"""
import json
import sys
import time

import speed

with speed.Clock() as clock:
    import swarmk

    for name, overrides in json.loads(sys.argv[1]):
        swarmk.compile_rhs(swarmk.build_builtin(name, **overrides))
print(json.dumps({"done": time.monotonic(), "probe_s": clock.probe_s,
                  "probe_mean_s": clock.probe_mean_s}))
