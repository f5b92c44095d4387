"""superchan benchmark: the CLI end to end on seeded inputs, and a layer trace.

    python3 perfbench/run.py --workload {tables,dense,qubit} --seed N
                             --seconds S --trace {0,1} [--negative-control]

Run from the root of a checkout.  The harness generates every input from the
seed (perfbench/inputs.py, plain numpy), then starts perfbench/worker.py with
the checkout's ``src`` on PYTHONPATH.  The worker calls ``superchan.cli.main``
in-process, in a closed loop with one client, in whole rounds of a fixed
schedule, and checks every exit status and artifact.  Calls run in-process
because interpreter start plus import costs more than a whole qubit op; that
cost is reported once, as setup_s.

--trace 0 prints the end-to-end metrics.  The latency slots op1_ms..op4_ms
map to the workload's four op kinds (the "slot" of each kind in inputs.py);
each is the median latency of that kind over the run, on the inputs it
should accept (rejected inputs take a shorter path; they are timed and
printed apart).  The host is shared and its speed drifts, so every timed
metric is scaled to reference speed (see worker.py): each op's time is
multiplied by REFERENCE_S over the time of a fixed reference kernel run next
to it.  The raw medians and tail percentiles are printed beside them.
ops_per_s is ops over scaled op time.  setup_s is the median of three fresh
worker processes, each timing the import plus one warm-up op of each kind,
scaled by the reference times measured in that process.  BLAS runs on one
thread: a second BLAS thread on a small shared host made eigensolve times
depend on what the neighbours were doing.

--trace 1 prints the per-layer metrics.  It runs the schedule untraced for
a third of --seconds, then the same number of rounds traced (run.py wraps the
library's public functions from outside, see layers.py), then again traced
with one BLAS thread per core.  Self times and counts are per round, raw.

--negative-control flips one expected exit status and corrupts one artifact,
to show that the checker reports both.

The last line of standard output is the JSON result; everything before it is
for people: per-kind medians with tail percentiles and sample counts, layer
shares, the re-anchor baseline cross-check and the run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS thread settings)

import inputs  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402

RUN_BUDGET_S = 170.0
REFERENCE_MS = worker.REFERENCE_S * 1e3
SETUP_SAMPLES = 3
END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op1_ms": "ms", "op2_ms": "ms", "op3_ms": "ms", "op4_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s",
}
# ms per call at the re-anchor (numpy 2.4.6, OpenBLAS, 2 cores, best of 3)
BASELINES = {
    "tables": [("du.build_choi", "build_choi d=6", 26.0)],
    "dense": [
        ("superchannels.compose_superchannels", "compose_superchannels d=4", 90.0),
        ("covariance.superchannel_covariance_check", "covariance d=4, 50 samples", 352.0),
    ],
}


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in layers.LAYERS}
    units.update(layers.COUNTS)
    units.update({"linalg.eig.self_s_nproc_threads": "s", "trace.overhead_ratio": "ratio",
                  "trace.self_coverage": "ratio"})
    return units


class Harness:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline

    def worker(self, tag: str, *flags, threads: int = BLAS_THREADS) -> dict:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        result = self.work / f"result-{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.work / "plan.json"),
               str(result), *flags]
        proc = subprocess.run(cmd, env=env, cwd=self.work, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        out = json.loads(result.read_text())
        if not Path(out["superchan"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"worker imported superchan from {out['superchan']}, not {ROOT / 'src'}")
        return out


def tail(samples) -> str:
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return "-"
    return f"p{best:g} {np.percentile(samples, best) * 1e3:.2f}"


def print_failures(workload: str, failures: list) -> None:
    for f in failures:
        print(f"FAILED {workload} {f['kind']} op #{f['op']} (pool entry {f['pool_index']}): "
              f"{f['reason']}; argv {' '.join(f['argv'])}")


def end_to_end(h: Harness, plan: dict, seconds: float, negative_control: bool):
    flags = ["--seconds", str(seconds)] + (["--negative-control"] if negative_control else [])
    r = h.worker("main", *flags)
    setups = [r] + [h.worker(f"setup{k}", "--setup-only") for k in range(1, SETUP_SAMPLES)]
    metrics = {"ops_per_s": r["attempted"] / r["op_time_scaled"]}
    print(f"reference kernel: median {r['reference_ms']:.3f} ms (nominal "
          f"{REFERENCE_MS:g} ms); scaled = raw * {REFERENCE_MS:g} / local reference")
    print(f"{'metric':<34}{'scaled':>10}  {'unit':<5}{'raw':>10}{'n':>6}  raw tail")
    print(f"{'ops_per_s':<34}{metrics['ops_per_s']:>10.4f}  {'1/s':<5}"
          f"{r['attempted'] / r['op_time']:>10.4f}{r['attempted']:>6}")
    for kind in plan["kinds"]:
        lat = r["latencies"][kind["name"]]
        for ok in (True, False):
            raw = [x for x, v in zip(lat["raw"], lat["valid"]) if v == ok]
            scaled = [x for x, v in zip(lat["scaled"], lat["valid"]) if v == ok]
            if not raw:
                continue
            value = statistics.median(scaled) * 1e3
            if ok:
                metrics[f"{kind['slot']}_ms"] = value
                label = f"{kind['name']}_ms ({kind['slot']})"
            else:
                label = "  rejected inputs (not a metric)"
            print(f"{label:<34}{value:>10.4f}  {'ms':<5}{statistics.median(raw) * 1e3:>10.4f}"
                  f"{len(raw):>6}  {tail(raw)}")
    failed = len(r["failures"])
    metrics["peak_rss_mb"] = r["peak_rss_kb"] / 1024
    metrics["setup_s"] = statistics.median(w["setup_scaled_s"] for w in setups)
    raw_setups = [w["setup_s"] for w in setups]
    print(f"{'failed_ratio':<34}{failed / r['attempted']:>10.4f}  {'-':<5}{'':>10}{r['attempted']:>6}")
    print(f"{'peak_rss_mb':<34}{metrics['peak_rss_mb']:>10.4f}  {'MB':<5}")
    print(f"{'setup_s':<34}{metrics['setup_s']:>10.4f}  {'s':<5}"
          f"{statistics.median(raw_setups):>10.4f}{len(setups):>6}  "
          f"raw samples {', '.join(f'{x:.3f}' for x in raw_setups)}")
    print(f"rounds: {r['rounds']}, op time {r['op_time']:.2f} s raw, "
          f"{r['op_time_scaled']:.2f} s scaled")
    print_failures(plan["workload"], r["failures"])
    units = END_TO_END_UNITS
    return failed == 0, r["attempted"], failed, {k: (v, units[k]) for k, v in metrics.items()}


def per_layer(h: Harness, plan: dict, seconds: float):
    plain = h.worker("untraced", "--seconds", str(seconds / 3))
    rounds = str(plain["rounds"])
    spans = h.work.parent / f"spans-{plan['workload']}.csv"
    traced = h.worker("traced", "--rounds", rounds, "--trace", "--spans", str(spans))
    multi = h.worker("traced-nproc", "--rounds", rounds, "--trace", threads=NPROC)
    t = traced["trace"]
    values = dict(t["values"])
    values["linalg.eig.self_s_nproc_threads"] = multi["trace"]["values"]["linalg.eig.self_s"]
    values["trace.overhead_ratio"] = (
        (traced["attempted"] / traced["op_time"]) / (plain["attempted"] / plain["op_time"])
    )
    coverage = t["self_total"] / traced["op_time"]
    values["trace.self_coverage"] = coverage

    per_round = traced["op_time"] / traced["rounds"]
    print(f"traced: {traced['rounds']} rounds, {per_round:.4f} s of op time per round")
    modules = {}
    for layer in layers.LAYERS:
        module = layer.split(".")[0]
        modules[module] = modules.get(module, 0.0) + values[f"{layer}.self_s"]
    print("self-time share by module: " + ", ".join(
        f"{m} {v / per_round:.1%}" for m, v in sorted(modules.items(), key=lambda kv: -kv[1])))
    top = sorted(layers.LAYERS, key=lambda layer: -values[f"{layer}.self_s"])[:8]
    print("largest layers: " + ", ".join(
        f"{layer} {values[f'{layer}.self_s'] / per_round:.1%}" for layer in top))
    for name in t["absent"]:
        print(f"absent: {name} (not traced)")
    coverage_ok = abs(1 - coverage) <= 0.05
    print(f"self times cover {coverage:.4f} of traced op time "
          f"({'within' if coverage_ok else 'OUTSIDE'} 5 %)")
    for name, label, baseline in BASELINES.get(plan["workload"], []):
        calls = t["inclusive"].get(name, [])
        if not calls:
            print(f"baseline {label}: not called")
            continue
        ms = statistics.median(calls) * 1e3
        ratio = ms / baseline
        flag = "  DIFFERS by more than 2x" if not 0.5 <= ratio <= 2 else ""
        print(f"baseline {label}: traced {ms:.1f} ms/call (median of {len(calls)}) vs "
              f"re-anchor {baseline:.1f} ms, ratio {ratio:.2f}{flag}")

    failures = plain["failures"] + traced["failures"] + multi["failures"]
    print_failures(plan["workload"], failures)
    attempted = plain["attempted"] + traced["attempted"] + multi["attempted"]
    units = per_layer_units()
    metrics = {k: (values[k], units[k]) for k in units}
    return coverage_ok and not failures, attempted, len(failures), metrics


def metadata(plan: dict) -> dict:
    sha = "unknown"  # a checkout without .git has no SHA
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                level = (index / "level").read_text().strip()
                caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS, "nproc": NPROC, "cpu": cpu,
        "l2": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown"),
        "workload": plan["workload"], "seed": plan["seed"], "input_sha256": plan["fingerprint"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "superchan" / "cli.py").is_file():
        print(f"error: no superchan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = inputs.build(args.workload, args.seed, work)
        (work / "plan.json").write_text(json.dumps(plan))
        h = Harness(work, deadline)
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
              + "; ".join(f"{k['slot']}={k['name']} x{k['per_round']}/round" for k in plan["kinds"]))
        if args.trace:
            correct, attempted, failed, metrics = per_layer(h, plan, args.seconds)
        else:
            correct, attempted, failed, metrics = end_to_end(
                h, plan, args.seconds, args.negative_control)
        print("meta: " + json.dumps(metadata(plan)))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
