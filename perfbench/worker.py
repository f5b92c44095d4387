"""Closed-loop worker: one client in one process drives superchan.cli.main.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  It imports the
CLI, runs one untimed warm-up op of each kind (import plus warm-ups is one
set-up sample), then runs whole rounds of the plan's schedule.  Each round
holds a fixed number of ops of every kind in a seeded order.  After each op,
outside its timed region, the exit status, the status line and any written
artifact are checked against the plan's expectations.

The host this runs on is shared, and its speed drifts by a third and more in
phases of seconds to minutes, and within them from one second to the next.
So between ops, untimed, at most every REFERENCE_EVERY_S, the worker also
times a fixed reference kernel (``reference``), and reports each op's time
scaled to reference speed: ``dt * REFERENCE_S / r``, where ``r`` is the mean
of the reference samples taken just before and just after the op.  The raw
times are reported as well.

Usage: worker.py PLAN RESULT [--seconds S | --rounds R] [--trace [--spans CSV]]
                 [--setup-only] [--negative-control]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import inputs
import layers

# The reference kernel does some of each kind of work the library does:
# a LAPACK eigensolve, decoding and indent-encoding JSON of matrix data, and
# a pass over arrays larger than L2.  It is not library code, so no change to
# superchan changes its time; only the host's speed does.  Its arrays are
# allocated once, so it adds a constant to peak RSS and never raises the peak
# above what the ops themselves reach.
REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((240, 240))
REFERENCE_MATRIX += REFERENCE_MATRIX.T
REFERENCE_ROWS = np.random.default_rng(1).standard_normal((4000, 2)).tolist()
REFERENCE_TEXT = json.dumps({"dims": [4, 4], "data": REFERENCE_ROWS}, indent=2)
REFERENCE_IN, REFERENCE_OUT = np.ones(1 << 20), np.zeros(1 << 20)
REFERENCE_S = 0.012  # nominal reference time: scaled times are at this speed
REFERENCE_EVERY_S = 0.05  # least time between two reference samples


def reference() -> float:
    t = time.perf_counter()
    np.linalg.eigvalsh(REFERENCE_MATRIX)
    json.loads(REFERENCE_TEXT)
    json.dumps(REFERENCE_ROWS[:1000], indent=2)
    np.multiply(REFERENCE_IN, 1.5, out=REFERENCE_OUT)
    REFERENCE_OUT.sum()
    return time.perf_counter() - t


def scale(dts, last_ref, refs) -> list:
    """Each time scaled by REFERENCE_S over the mean of the reference samples
    just before and just after it; ``last_ref[i]`` indexes the last sample
    taken before op i, and a sample follows the last op."""
    return [2 * dt * REFERENCE_S / (refs[j] + refs[j + 1]) for dt, j in zip(dts, last_ref)]


def run_op(cli, argv):
    """(exit status or None, stdout, error) of one CLI call."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(list(argv))
        return status, buf.getvalue(), None
    except SystemExit as exc:
        return exc.code, buf.getvalue(), None
    except Exception:  # a raised exception is a failed op, recorded with its traceback
        return None, buf.getvalue(), traceback.format_exc(limit=3)


def op_error(entry, status, stdout, error, work, refs):
    if error is not None:
        return f"raised {error.strip().splitlines()[-1]}"
    if status != entry["expect"]:
        return f"exit {status}, expected {entry['expect']} ({entry['label']} input)"
    first = stdout.split("\n", 1)[0]
    if first != f"status: {inputs.STATUS_NAMES[status]}":
        return f"status line {first!r} does not match exit {status}"
    if entry["out"]:
        return inputs.artifact_error(entry, work, refs)
    return None


def corrupt(path: Path) -> None:
    """Shift one number of an artifact by 1e-3 (negative control)."""
    doc = json.loads(path.read_text())
    matrix = doc["choi"] if "choi" in doc else doc["A"]
    matrix["data"][0][0] += 1e-3
    path.write_text(json.dumps(doc))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan", type=Path)
    ap.add_argument("result", type=Path)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path, help="with --trace, write the spans here")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--negative-control", action="store_true")
    args = ap.parse_args()
    plan = json.loads(args.plan.read_text())
    work = args.plan.parent
    kinds = plan["kinds"]

    setup_refs = [reference() for _ in range(5)]
    t0 = time.perf_counter()
    from superchan import cli

    for kind in kinds:
        run_op(cli, kind["pool"][0]["argv"])
        if kind["pool"][0]["out"]:
            (work / kind["pool"][0]["out"]).unlink(missing_ok=True)
    setup_s = time.perf_counter() - t0
    setup_refs += [reference() for _ in range(5)]
    result = {
        "setup_s": setup_s,
        "setup_scaled_s": setup_s * REFERENCE_S / float(np.median(setup_refs)),
        "superchan": sys.modules["superchan"].__file__,
    }
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()

    base = np.repeat(np.arange(len(kinds)), [k["per_round"] for k in kinds])
    used = [0] * len(kinds)
    order, valid, dts, last_ref, refs = [], [], [], [], []
    failures = []
    ref_arrays = {}
    rounds, n = 0, 0
    start = last = time.perf_counter()
    flip_status = args.negative_control
    corrupt_artifact = args.negative_control
    while True:
        for k in np.random.default_rng([plan["seed"], rounds]).permutation(base):
            kind = kinds[k]
            entry = dict(kind["pool"][used[k] % len(kind["pool"])])
            if not refs or time.perf_counter() - last >= REFERENCE_EVERY_S:
                last = time.perf_counter()
                refs.append(reference())
            last_ref.append(len(refs) - 1)
            if tracer is not None:
                tracer.op = n
            t = time.perf_counter()
            status, stdout, error = run_op(cli, entry["argv"])
            dts.append(time.perf_counter() - t)
            order.append(int(k))
            valid.append(entry["expect"] == inputs.OK)
            if flip_status:
                entry["expect"] = inputs.CHECK_FAILED if entry["expect"] == inputs.OK else inputs.OK
                flip_status = False
            if corrupt_artifact and entry["out"] and status == entry["expect"]:
                corrupt(work / entry["out"])
                corrupt_artifact = False
            reason = op_error(entry, status, stdout, error, work, ref_arrays)
            if reason:
                failures.append({"op": n, "kind": kind["name"], "pool_index": used[k] % len(kind["pool"]),
                                 "argv": entry["argv"], "reason": reason})
            if entry["out"]:
                (work / entry["out"]).unlink(missing_ok=True)
            used[k] += 1
            n += 1
        rounds += 1
        if args.rounds:
            if rounds >= args.rounds:
                break
        elif time.perf_counter() - start >= args.seconds:
            break

    refs.append(reference())
    scaled = scale(dts, last_ref, refs)
    latencies = {kind["name"]: {"raw": [], "scaled": [], "valid": []} for kind in kinds}
    for k, ok, dt, sdt in zip(order, valid, dts, scaled):
        lat = latencies[kinds[k]["name"]]
        lat["raw"].append(dt)
        lat["scaled"].append(sdt)
        lat["valid"].append(ok)
    result.update({
        "rounds": rounds,
        "attempted": n,
        "op_time": sum(dts),
        "op_time_scaled": sum(scaled),
        "reference_ms": float(np.median(refs)) * 1e3,
        "latencies": latencies,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is not None:
        result["trace"] = tracer.summary(rounds)
        if args.spans:
            tracer.write(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
