"""Peak memory and cold-start time of one CLI op, each run in a fresh interpreter.

    python3 tools/op_peak_memory.py [--src DIR] [--runs N] -- ARGV...

Each run starts a new interpreter from this script, which imports nothing
but the standard library, so the op's process inherits no heap.  The child
sets one BLAS thread (as the benchmark does), imports numpy, then
``superchan.cli`` from ``--src`` (default: this checkout's src), reads its
VmHWM, the process's peak resident set, from /proc/self/status, runs
``superchan.cli.main(ARGV)`` once with its stdout discarded, and reads VmHWM
again.  Paths in ARGV are relative to the current directory.

The benchmark's peak_rss_mb is the high-water mark of a worker that also
holds its plan, its reference kernel's arrays and whatever every earlier op
left behind; on a workload of small ops it reads the harness, not the ops.
This reports what one op alone reaches: ``import_mb`` (VmHWM after the
import), ``peak_mb`` (VmHWM after the op) and ``op_mb``, their difference.
Beside them it reports what a process pays once, as the benchmark's
setup_s does for its own ops: ``import_ms``, the wall time of the
``superchan.cli`` import (numpy is already imported, as in the benchmark's
worker), and ``first_op_ms``, that of the op, which builds whatever its
layers cache.  The import reads whatever bytecode cache ``--src`` holds; to
time the compile too, as the benchmark does on a fresh checkout, point
``--src`` at a copy without ``__pycache__`` directories and set
PYTHONDONTWRITEBYTECODE=1.  Prints one JSON line per run, then one line of
medians.  Linux only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import contextlib, io, json, sys, time

import numpy

def hwm_mb():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from superchan import cli
import_ms = 1e3 * (time.perf_counter() - start)

before = hwm_mb()
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    status = cli.main(sys.argv[2:])
    first_op_ms = 1e3 * (time.perf_counter() - start)
after = hwm_mb()
print(json.dumps({"status": status, "import_mb": before, "peak_mb": after,
                  "op_mb": after - before, "import_ms": import_ms,
                  "first_op_ms": first_op_ms}))
"""


def run_once(src: Path, argv: list[str]) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory of the checkout to run")
    parser.add_argument("--runs", type=int, default=3, help="fresh interpreters to run")
    parser.add_argument("op", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    op = args.op[1:] if args.op[:1] == ["--"] else args.op
    if not op or args.runs < 1:
        parser.error("give --runs >= 1 and the op after --")
    runs = []
    for _ in range(args.runs):
        runs.append(run_once(args.src.resolve(), op))
        print(json.dumps(runs[-1]), flush=True)
    summary = {key: statistics.median(r[key] for r in runs)
               for key in ("import_mb", "peak_mb", "op_mb", "import_ms", "first_op_ms")}
    print(json.dumps({"argv": op, "runs": len(runs), "median": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
