"""finord's benchmark: one workload per invocation.

    python3 bench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload runs in a child process with
``src`` on its import path; with ``--trace 0`` four more children only set
up, and ``setup_s`` is the median of the five set-up times.  The last line
of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("spectra", "evaluate", "games", "decide")
SETUP_PROBES = 4
TIMEOUT_S = 170.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "finord" / "__init__.py").is_file():
        print(f"error: no finord sources under {SRC}", file=sys.stderr)
        return 2

    # A fixed hash seed keeps set and dict layouts, and so timings, the
    # same from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    deadline = time.monotonic() + TIMEOUT_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_child(base + ["--setup-only"], env,
                                 deadline)["setup_s"])
    result = _child(base, env, deadline)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps({"correct": result["wrong"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def _child(args, env, deadline):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args, "--started", repr(started)],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    sys.exit(main())
