"""Time the table engine layer by layer, in library calls, one JSON line per layer.

    python3 tools/engine_timing.py [--src DIR [--src DIR]] [--runs N]

Each run starts a fresh interpreter (multiprocessing's spawn method), which
imports superchan from ``--src`` (default: this checkout's src).  First it
times the qubit kernels of ``validate pauli`` and ``validate dephasing`` at
d = 2: pauli_super_choi of a seeded random 4x4 probability table,
validate_superchannel of that Choi and pauli_induced_bistochastic ("pauli"
tables), and dephasing_validate on seeded random d = 2 dephasing tables.
Then it draws seeded random DU, sign-symmetric and dephasing tables at
d = 6, 8, 12 and 16 (every table entry normal on its support, A real), and
times, at each d,

* sector_spectrum, b1_partial_trace and apply_tables (on one seeded generic
  d^2 x d^2 operator) on each of the three;
* do_validate on the sign-symmetric tables, du_cp_check and du_tp_check on
  the DU ones and dephasing_validate on the dephasing ones.

Last it times the artifact writer, jsonio.dump_json (no path), on three
documents the CLI writes: ``compose du`` at d = 6 and ``compose do`` at
d = 16 of valid tables (cli_identity.superchannel_tables, seed 5, each set
composed with itself; "du composed" and "do composed"), and the Choi of a
valid d = 4 superchannel (inputs.random_superchannel, seed 5; "dense"),
whose document is spelled out here, its data the float64 view of the
complex buffer, so checkouts with other Choi records or matrix codecs build
the same one.

The first call of each layer is timed on its own (``first_ms``: it builds
whatever the layer caches per d).  Then the call is repeated for about
0.2 s, at least 5 times, and the median taken.  Last, with tracemalloc on,
one more call gives the peak of the memory it allocates (``peak_mb``).
Each line is {"layer", "tables", "d", "runs", "median_ms", "first_ms",
"peak_mb"}, with medians over the runs.  BLAS runs on one thread.

Given ``--src`` twice, it compares two checkouts, a and b, as the benchmark's
pairs do: each run is one fresh interpreter per checkout, a first in even
runs and b first in odd ones.  It prints {"a": DIR, "b": DIR}, then per
(layer, tables, d) the medians of each ("a" and "b") and "ratio", the median
over the runs of b's time over a's in the same run (``median_ms`` and
``first_ms``), so host drift between runs does not read as a change.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIMS = (6, 8, 12, 16)
SEED = 2300


def _random_tables(rng, cls, d):
    n = d * d
    t = {name: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for name in cls.NAMES}
    return cls.masked(d, **{k: v.real if k == "A" else v for k, v in t.items()})


def _line(layer: str, tables: str, d: int, call) -> dict:
    """The output line of one layer: _time(call) under its names."""
    first, median, peak = _time(call)
    return {"layer": layer, "tables": tables, "d": d,
            "first_ms": first, "median_ms": median, "peak_mb": peak}


def _time(call) -> tuple[float, float, float]:
    """(first call, median of the repeats, tracemalloc peak of one call):
    milliseconds, milliseconds, MB."""
    start = time.perf_counter()
    call()
    first = time.perf_counter() - start
    times = []
    while len(times) < 5 or sum(times) < 0.2:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return 1e3 * first, 1e3 * statistics.median(times), peak / 2**20


def _artifacts() -> list:
    """(tables, d, document) for the dump_json layer, built by the superchan
    on sys.path."""
    import cli_identity
    import inputs
    import numpy as np

    from superchan.do import DOSuperParams
    from superchan.du import DUSuperParams
    from superchan.jsonio import params_to_json
    from superchan.positions import compose_tables

    out = []
    for cls, names, d in ((DUSuperParams, inputs.DU_TABLES, 6),
                          (DOSuperParams, inputs.DO_TABLES, 16)):
        p = cls(d, **cli_identity.superchannel_tables(np.random.default_rng(5), d, names))
        out.append((f"{cls.__name__[:2].lower()} composed", d, params_to_json(compose_tables(p, p))))
    choi = inputs.random_superchannel(np.random.default_rng(5), 4)
    dims = {"A0": 4, "A1": 4, "B0": 4, "B1": 4}
    pairs = np.ascontiguousarray(choi, dtype=complex).view(np.float64).reshape(-1, 2)
    out.append(("dense", 4, {"dims": dims, "choi": {"dims": [4] * 4, "data": pairs}}))
    return out


def measure(src: str) -> list[dict]:
    """One run: every (layer, tables, d) in this interpreter."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import numpy as np

    from superchan.dephasing import DephasingSuperParams, dephasing_validate
    from superchan.do import DOSuperParams, do_validate
    from superchan.du import DUSuperParams, du_cp_check, du_tp_check
    from superchan.jsonio import dump_json
    from superchan.pauli import PauliSuperParams, pauli_induced_bistochastic, pauli_super_choi
    from superchan.positions import apply_tables, b1_partial_trace, sector_spectrum
    from superchan.superchannels import validate_superchannel

    rng = np.random.default_rng([SEED, 2])
    pauli = PauliSuperParams(rng.dirichlet(np.ones(16)).reshape(4, 4))
    choi = pauli_super_choi(pauli)
    dephasing = _random_tables(rng, DephasingSuperParams, 2)
    out = [_line("pauli_super_choi", "pauli", 2, lambda: pauli_super_choi(pauli)),
           _line("validate_superchannel", "pauli", 2, lambda: validate_superchannel(choi)),
           _line("pauli_induced_bistochastic", "pauli", 2,
                 lambda: pauli_induced_bistochastic(pauli)),
           _line("dephasing_validate", "dephasing", 2, lambda: dephasing_validate(dephasing))]
    for d in DIMS:
        rng = np.random.default_rng([SEED, d])
        tables = {"du": _random_tables(rng, DUSuperParams, d),
                  "do": _random_tables(rng, DOSuperParams, d)}
        x = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        tables["dephasing"] = _random_tables(rng, DephasingSuperParams, d)
        calls = [(layer, kind, lambda f=f, p=p: f(p))
                 for layer, f in (("sector_spectrum", lambda p: sector_spectrum(p, 1e-10)),
                                  ("b1_partial_trace", b1_partial_trace),
                                  ("apply_tables", lambda p: apply_tables(p, x)))
                 for kind, p in tables.items()]
        calls += [("do_validate", "do", lambda: do_validate(tables["do"])),
                  ("du_cp_check", "du", lambda: du_cp_check(tables["du"])),
                  ("du_tp_check", "du", lambda: du_tp_check(tables["du"])),
                  ("dephasing_validate", "dephasing",
                   lambda: dephasing_validate(tables["dephasing"]))]
        out += [_line(layer, kind, d, call) for layer, kind, call in calls]
    out += [_line("dump_json", kind, d, lambda doc=doc: dump_json(doc))
            for kind, d, doc in _artifacts()]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="the src directory of a checkout to time (default: this "
                             "checkout's src); give it twice to compare two")
    parser.add_argument("--runs", type=int, default=3, help="fresh interpreters to run")
    args = parser.parse_args(argv)
    srcs = [str(src.resolve()) for src in args.src or [ROOT / "src"]]
    if args.runs < 1 or len(srcs) > 2:
        parser.error("--runs must be positive and --src given at most twice")
    ctx = multiprocessing.get_context("spawn")
    runs = [[] for _ in srcs]  # runs[side][run]: that interpreter's lines
    for run in range(args.runs):
        for side in (range(len(srcs)) if run % 2 == 0 else reversed(range(len(srcs)))):
            with ctx.Pool(1) as pool:
                runs[side].append(pool.apply(measure, (srcs[side],)))
    if len(srcs) == 2:
        print(json.dumps(dict(zip("ab", srcs))), flush=True)
    keys = ("median_ms", "first_ms", "peak_mb")
    for lines in zip(*(zip(*side) for side in runs)):  # lines[side][run], one layer
        head = {k: lines[0][0][k] for k in ("layer", "tables", "d")}
        stats = [{k: statistics.median(line[k] for line in side) for k in keys}
                 for side in lines]
        if len(stats) == 1:
            print(json.dumps({**head, "runs": args.runs, **stats[0]}), flush=True)
            continue
        ratio = {k: statistics.median(b[k] / a[k] for a, b in zip(*lines))
                 for k in ("median_ms", "first_ms")}
        print(json.dumps({**head, "runs": args.runs, "a": stats[0], "b": stats[1],
                          "ratio": ratio}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
