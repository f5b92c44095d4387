"""Print what every CLI op of a benchmark plan outputs, one JSON line per op.

    python3 tools/cli_identity.py
        --workload {tables,dense,qubit,du-corpus,do-corpus,examples,dephasing,
                    covariance,kinds,large-tables}
        --seed N [--src DIR]

The tables, dense and qubit plans are the benchmark's own
(perfbench/inputs.py, imported unchanged).  du-corpus is `validate du`,
`compose du` and `apply` on DU tables at d = 2..6, do-corpus is `validate do`,
`compose do` and `apply` on sign-symmetric tables at d = 2..6; each d has six
cases: two valid (the two that `compose` takes), not CP, not TP (1.25x),
non-Hermitian and indefinite Hermitian, and each case is applied to one
seeded generic channel per d.  Both corpora, and dephasing, end with two
`validate` probes of the identity's tables with finite entries near the
float maximum (overflow_probes), built from constants; du-corpus and
dephasing then end with two `validate` probes at d = 3 whose failing trace
fibers tie (trace_tie_probes).  examples is every
`example` (holevo-werner at d = 2, 3, 4; bit-flip at p = 0, 0.2, 1, -0.0;
Pauli weights with zeros; amplitude-damping at gamma = 0, 0.3, 1), each with
the default and with a seeded `--super` DU table, one `--super` given a
sign-symmetric table, and `covariance` on seeded DU and sign-symmetric
tables at d = 2, 3 under all five groups.  dephasing is, at d = 2..5,
`validate dephasing` on two valid multiplier tables
(perfbench/inputs.random_dephasing), a not-CP and a not-TP one and one of
the wrong side, `compose dephasing` of the two valid ones (and one pair of
mismatched dimensions), `apply` of a valid table and of one with -0.0
planted, and `covariance` of both under all five groups.  covariance is
`covariance` under all five groups, at d = 2..5, on seeded DU,
sign-symmetric and dephasing tables and on three Choi files: DU-covariant
(a twirled random superchannel), generic, and covariant with one entry of
size 1e-10 planted off the pattern; it ends with 47 samples of du and do on
the d = 5 DU and sign-symmetric tables, several uneven rephasing chunks,
and then with covariance_overflow_probes, whose conjugates leave the
float range.  kinds is every command on every kind
of file, at d = 2: one seeded channel, superchannel Choi, DU, sign-symmetric,
dephasing and Pauli table each, one du object with a table of the wrong
side, an object of no kind, a JSON list, a file that does not parse and a
missing path.  It runs `validate` of each kind on each file, `apply`,
`covariance --group du` and `example bit-flip --super` with each file as the
superchannel, `apply` with each file as the channel, and `compose` of each
kind on each ordered pair of files; it ends with
spelling_probe, `apply` of the d = 2 identity's DU and dephasing tables to a
channel holding one number of each spelling the artifact writer treats
apart, and `compose dephasing` of the identity's table with a table holding
the same numbers, built from constants, and with reader_probes, `validate`
and `apply` on files the matrix reader refuses, for each fault it reports
(see reader_probes).  large-tables is `validate`, `compose` and `apply` on DU and
on sign-symmetric tables at d = 7 and 8, one valid, one not-CP and one
not-TP set per d, drawn as in the du and do corpora but read straight off
the table positions (superchannel_tables), and `compose` of the valid set
with itself.  Each op runs in
process through ``superchan.cli.main`` from ``--src`` (default: this
checkout's src), on one BLAS thread, and prints
{"kind", "argv", "status", "stdout", "artifact_sha256", "warnings"}, the
last the op's Python warnings as "Category: message" (no file path).  Inputs are
generated from the seed alone, so running the script with the ``--src`` of
two checkouts and diffing the two outputs shows every exit status, report
line and artifact byte that changed between them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (after the BLAS thread settings; it imports numpy)
import numpy as np  # noqa: E402


def corpus_cases(b: inputs.InputSet, d: int, names: str) -> dict:
    """The six table sets of one corpus dimension, label -> tables."""
    valid = [
        inputs.tables_from_choi(inputs.random_superchannel(b.rng, d), d, names)
        for _ in range(2)
    ]
    g = b.rng.normal(size=(d**4, d**4)) + 1j * b.rng.normal(size=(d**4, d**4))
    return {
        "valid0": valid[0],
        "valid1": valid[1],
        "not-cp": inputs._not_cp(b, valid[0]),
        "not-tp": inputs._not_tp(valid[1]),
        "hermitian": inputs.tables_from_choi(g + g.conj().T, d, names),
        "non-hermitian": inputs.tables_from_choi(g, d, names),
    }


def superchannel_tables(rng, d: int, names: str, terms: int = 3) -> dict:
    """inputs.tables_from_choi(inputs.random_superchannel(rng, d), d, names),
    bit for bit and from the same draws, evaluated at the table positions
    only, so no d^4 x d^4 Choi is stored."""
    n = d * d
    eps = rng.uniform(0.1, 0.3)
    pos = {name: inputs.table_positions(d, name) for name in names}
    out = {name: np.where(rows == cols, eps / n, 0.0).astype(complex)
           for name, (rows, cols, _) in pos.items()}
    for w in rng.dirichlet(np.ones(terms)):
        v = np.kron(inputs.haar_unitary(rng, d).T, inputs.haar_unitary(rng, d)).T.reshape(-1)
        for name, (rows, cols, _) in pos.items():
            out[name] += ((1 - eps) * w) * (v[rows] * v.conj()[cols])
    for name, (_, _, mask) in pos.items():
        out[name] = np.where(mask, out[name], 0)
    out["A"] = out["A"].real.astype(complex)
    return out


def apply_ops(b: inputs.InputSet, files: dict) -> list:
    """`apply` of every case file (d -> label -> path) to one generic channel
    per d, drawn after all cases so that the case inputs stay put."""
    ops = []
    for d, cases in files.items():
        choi = inputs.random_channel(b.rng, d)
        channel = b.input(f"ch{d}.json", {"d_in": d, "d_out": d,
                                          "choi": inputs.matrix_json((d, d), choi)})
        ops += [inputs._entry(["apply", f, channel, "--out", "out/apply.json"], label=lb,
                              out="out/apply.json") for lb, f in cases.items()]
    return ops


def overflow_probes(b: inputs.InputSet, kind: str) -> list:
    """`validate` of the identity superchannel's tables (DU, sign-symmetric
    or dephasing) with finite entries near the float maximum: (a) at d = 2,
    A[0, 0] = A[1, 0] = 1.7e308 (M_big[0:2, 0:2] for dephasing), whose B1
    partial trace overflows; (b) at d = 3, A[0, 0:3] (M_big's first three
    diagonal entries) = 1.7e308, -1.7e308, 1.7e308, whose partial trace is
    finite but whose deviations from its average are not.  Built from
    constants, after every seeded draw."""
    ops = []
    for label, d in (("overflow-a", 2), ("overflow-b", 3)):
        n = d * d
        if kind == "dephasing":
            m = np.ones((n, n), dtype=complex)
            if d == 2:
                m[0:2, 0:2] = 1.7e308
            else:
                m[range(3), range(3)] = (1.7e308, -1.7e308, 1.7e308)
            doc = {"d": d, "M_big": inputs.matrix_json((d, d), m)}
        else:
            omega = np.eye(n).reshape(-1)  # the identity's Choi is |omega><omega|
            names = inputs.DU_TABLES if kind == "du" else inputs.DO_TABLES
            tables = inputs.tables_from_choi(np.outer(omega, omega), d, names)
            if d == 2:
                tables["A"][[0, 1], 0] = 1.7e308
            else:
                tables["A"][0, 0:3] = (1.7e308, -1.7e308, 1.7e308)
            doc = inputs.tables_doc(d, tables)
        path = b.input(f"{kind}_{label}.json", doc)
        ops.append(inputs._entry(["validate", kind, path], label=label))
    return ops


def trace_tie_probes(b: inputs.InputSet, kind: str) -> list:
    """`validate` of the d = 3 identity's DU or dephasing tables with failing
    fibers of the partial trace over B1 that tie, which pin the witness
    rule.  DU: (a) the A fibers (i, j, b) = (0, 1, 0) and (1, 0, 0), set to
    [0.5, 0, 0]; (b) the A fiber (1, 1, 0) and the C fibers (0, 1, 0) and
    (1, 0, 0), set to [1.5, 1, 1].  Dephasing: the fibers (1, 2) and (2, 1)
    set to [1.5, 1, 1], (a) exactly and (b) the second 1e-12 higher.  Built
    from constants, after every seeded draw."""
    d, ops = 3, []
    for label in ("tie-a", "tie-b"):
        if kind == "dephasing":
            m = np.ones((d * d, d * d), dtype=complex)
            m[d, 2 * d] = 1.5
            m[2 * d, d] = 1.5 if label == "tie-a" else 1.5 + 1e-12
            doc = {"d": d, "M_big": inputs.matrix_json((d, d), m)}
        else:
            omega = np.eye(d * d).reshape(-1)  # the identity's Choi is |omega><omega|
            tables = inputs.tables_from_choi(np.outer(omega, omega), d, inputs.DU_TABLES)
            if label == "tie-a":
                tables["A"][0, d] = tables["A"][d, 0] = 0.5
            else:
                tables["A"][d, d] = tables["C"][0, d] = tables["C"][d, 0] = 1.5
            doc = inputs.tables_doc(d, tables)
        path = b.input(f"{kind}_{label}.json", doc)
        ops.append(inputs._entry(["validate", kind, path], label=label))
    return ops


def build_du_corpus(b: inputs.InputSet) -> list:
    """validate du, compose du and apply on DU tables at d = 2..6."""
    validate, compose, files = [], [], {}
    for d in range(2, 7):
        files[d] = {
            label: b.input(f"du{d}_{label}.json", inputs.tables_doc(d, t))
            for label, t in corpus_cases(b, d, inputs.DU_TABLES).items()
        }
        validate += [inputs._entry(["validate", "du", f], label=lb) for lb, f in files[d].items()]
        compose.append(inputs._entry(
            ["compose", "du", files[d]["valid0"], files[d]["valid1"],
             "--out", "out/compose_du.json"],
            out="out/compose_du.json",
        ))
    return [
        inputs._kind("validate_du", "op1", 1, validate),
        inputs._kind("compose_du", "op2", 1, compose),
        inputs._kind("apply_du", "op3", 1, apply_ops(b, files)),
        inputs._kind("validate_du_overflow", "op4", 1, overflow_probes(b, "du")),
        inputs._kind("validate_du_trace_tie", "op5", 1, trace_tie_probes(b, "du")),
    ]


def build_do_corpus(b: inputs.InputSet) -> list:
    """validate do, compose do and apply on sign-symmetric tables at d = 2..6."""
    validate, compose, files = [], [], {}
    for d in range(2, 7):
        files[d] = {
            label: b.input(f"do{d}_{label}.json", inputs.tables_doc(d, t))
            for label, t in corpus_cases(b, d, inputs.DO_TABLES).items()
        }
        validate += [inputs._entry(["validate", "do", f], label=lb) for lb, f in files[d].items()]
        compose.append(inputs._entry(
            ["compose", "do", files[d]["valid0"], files[d]["valid1"],
             "--out", "out/compose_do.json"],
            out="out/compose_do.json",
        ))
    return [
        inputs._kind("validate_do", "op1", 1, validate),
        inputs._kind("compose_do", "op2", 1, compose),
        inputs._kind("apply_do", "op3", 1, apply_ops(b, files)),
        inputs._kind("validate_do_overflow", "op4", 1, overflow_probes(b, "do")),
    ]


def build_examples(b: inputs.InputSet) -> list:
    """example with and without --super, and covariance on DU and DO tables."""
    tables = {
        (kind, d): b.input(f"{kind}{d}.json", inputs.tables_doc(d, inputs.tables_from_choi(
            inputs.random_superchannel(b.rng, d), d, names)))
        for d in (2, 3) for kind, names in (("du", inputs.DU_TABLES), ("do", inputs.DO_TABLES))
    }
    cases = [["holevo-werner", "--d", d] for d in ("2", "3", "4")]
    cases += [["bit-flip", "--p", p] for p in ("0", "0.2", "1", "-0.0")]
    cases += [["pauli", "--p", *w] for w in (("1", "0", "0", "0"), ("0", "0.5", "0", "0.5"),
                                             ("0.25", "0", "0.75", "0"), ("0", "0", "0", "1"))]
    cases += [["amplitude-damping", "--gamma", g] for g in ("0", "0.3", "1")]
    supers = ([], ["--super", tables["du", 2]])
    example = [inputs._entry(["example", *case, *extra, "--out", "out/example.json"],
                             out="out/example.json") for case in cases for extra in supers]
    example.append(inputs._entry(["example", "bit-flip", "--super", tables["do", 2]],
                                 label="not-du"))
    covariance = [
        inputs._entry(["covariance", path, "--group", group, "--samples", "10", "--seed", "5"])
        for path in tables.values() for group in ("du", "do", "haar", "conj-haar", "mixed")
    ]
    return [inputs._kind("example", "op1", 1, example),
            inputs._kind("covariance", "op2", 1, covariance)]


def build_dephasing(b: inputs.InputSet) -> list:
    """validate, compose, apply and covariance on dephasing tables at d = 2..5."""
    validate, compose, apply, covariance, valid = [], [], [], [], {}
    for d in range(2, 6):
        n = d * d
        m0, m1 = (inputs.random_dephasing(b.rng, d) for _ in range(2))
        not_cp = m0.copy()
        k = b.rng.integers(0, n)
        not_cp[k, k] = -b.rng.uniform(0.02, 0.05)
        signed = np.where(b.rng.random((n, n)) < 0.3, complex(-0.0, -0.0), m0)
        cases = {"valid0": (d, m0), "valid1": (d, m1), "not-cp": (d, not_cp),
                 "not-tp": (d, 1.25 * m1), "signed-zeros": (d, signed),
                 "wrong-side": (d + 1, np.eye((d + 1) ** 2))}
        files = {label: b.input(f"deph{d}_{label}.json",
                                {"d": d, "M_big": inputs.matrix_json((side, side), m)})
                 for label, (side, m) in cases.items()}
        valid[d] = files["valid0"]
        validate += [inputs._entry(["validate", "dephasing", files[label]], label=label)
                     for label in ("valid0", "valid1", "not-cp", "not-tp", "wrong-side")]
        compose.append(inputs._entry(
            ["compose", "dephasing", files["valid0"], files["valid1"],
             "--out", "out/compose.json"], out="out/compose.json"))
        channel = b.input(f"ch{d}.json", {"d_in": d, "d_out": d, "choi": inputs.matrix_json(
            (d, d), inputs.random_channel(b.rng, d))})
        apply += [inputs._entry(["apply", files[label], channel, "--out", "out/apply.json"],
                                label=label, out="out/apply.json")
                  for label in ("valid0", "signed-zeros")]
        covariance += [
            inputs._entry(["covariance", files[label], "--group", group,
                           "--samples", "10", "--seed", "5"], label=label)
            for label in ("valid0", "signed-zeros")
            for group in ("du", "do", "haar", "conj-haar", "mixed")
        ]
    compose.append(inputs._entry(["compose", "dephasing", valid[2], valid[3]],
                                 label="dimension-mismatch"))
    return [inputs._kind("validate_dephasing", "op1", 1, validate),
            inputs._kind("compose_dephasing", "op2", 1, compose),
            inputs._kind("apply_dephasing", "op3", 1, apply),
            inputs._kind("covariance", "op4", 1, covariance),
            inputs._kind("validate_dephasing_overflow", "op5", 1,
                         overflow_probes(b, "dephasing")),
            inputs._kind("validate_dephasing_trace_tie", "op6", 1,
                         trace_tie_probes(b, "dephasing"))]


def build_covariance(b: inputs.InputSet) -> list:
    """covariance under all five groups on tables and Chois at d = 2..5."""
    ops = []
    for d in range(2, 6):
        tables = {kind: inputs.tables_from_choi(inputs.random_superchannel(b.rng, d), d, names)
                  for kind, names in (("du", inputs.DU_TABLES), ("do", inputs.DO_TABLES))}
        generic = inputs.random_superchannel(b.rng, d)
        covariant = inputs.twirl(inputs.random_superchannel(b.rng, d), d, inputs.DU_TABLES)
        planted = covariant.copy()
        zeros = np.argwhere(planted == 0)
        planted[tuple(zeros[b.rng.integers(len(zeros))])] = 1e-10 * np.exp(
            2j * np.pi * b.rng.random())
        docs = {
            "du": inputs.tables_doc(d, tables["du"]),
            "do": inputs.tables_doc(d, tables["do"]),
            "dephasing": {"d": d, "M_big": inputs.matrix_json(
                (d, d), inputs.random_dephasing(b.rng, d))},
            "covariant": inputs._super_doc(d, covariant),
            "generic": inputs._super_doc(d, generic),
            "planted": inputs._super_doc(d, planted),
        }
        paths = {label: b.input(f"cov{d}_{label}.json", doc) for label, doc in docs.items()}
        ops += [
            inputs._entry(["covariance", path, "--group", group, "--samples", "10",
                           "--seed", str(d)], label=label)
            for label, path in paths.items()
            for group in ("du", "do", "haar", "conj-haar", "mixed")
        ]
    # at d = 5, 47 samples make several rephasing chunks, the last one short
    ops += [inputs._entry(["covariance", paths[label], "--group", group, "--samples", "47",
                           "--seed", "5"], label=label)
            for label in ("du", "do") for group in ("du", "do")]
    return [inputs._kind("covariance", "op1", 1, ops + covariance_overflow_probes(b))]


def covariance_overflow_probes(b: inputs.InputSet) -> list:
    """`covariance` under all five groups of two d = 2 files whose
    conjugates leave the float range: a Choi of entries 1.5e308 (x + iy),
    x and y uniform in [-1, 1) from default_rng(0), whose Haar conjugation
    gives inf - inf, and DU tables of 1.5e308 (1 + i) on their support (A
    real), whose rephasing overflows.  Built apart from the seeded draws."""
    rng = np.random.default_rng(0)
    choi = 1.5e308 * (rng.uniform(-1, 1, (16, 16)) + 1j * rng.uniform(-1, 1, (16, 16)))
    big = {name: np.where(inputs.table_positions(2, name)[2], 1.5e308 * (1 + 1j), 0)
           for name in inputs.DU_TABLES}
    big["A"] = big["A"].real.astype(complex)
    paths = {"overflow-choi": b.input("cov_overflow_choi.json", inputs._super_doc(2, choi)),
             "overflow-du": b.input("cov_overflow_du.json", inputs.tables_doc(2, big))}
    return [inputs._entry(["covariance", path, "--group", group], label=label)
            for label, path in paths.items()
            for group in ("du", "do", "haar", "conj-haar", "mixed")]


def build_kinds(b: inputs.InputSet) -> list:
    """Every command on every kind of file, and on files of no kind."""
    d = 2
    du = inputs.tables_from_choi(inputs.random_superchannel(b.rng, d), d, inputs.DU_TABLES)
    docs = {
        "channel": {"d_in": d, "d_out": d,
                    "choi": inputs.matrix_json((d, d), inputs.random_channel(b.rng, d))},
        "superchannel": inputs._super_doc(d, inputs.random_superchannel(b.rng, d)),
        "du": inputs.tables_doc(d, du),
        "do": inputs.tables_doc(d, inputs.tables_from_choi(
            inputs.random_superchannel(b.rng, d), d, inputs.DO_TABLES)),
        "dephasing": {"d": d, "M_big": inputs.matrix_json((d, d), inputs.random_dephasing(b.rng, d))},
        "pauli": {"pi": b.rng.dirichlet(np.ones(16)).reshape(4, 4).tolist()},
        "wrong-side": inputs.tables_doc(d, {**du, "A": np.eye(d + 1)}),
        "no-kind": {"d": d, "tables": []},
        "list": [1, 2],
    }
    files = {label: b.input(f"{label}.json", doc) for label, doc in docs.items()}
    (b.work / "in" / "parse-error.json").write_text('{"d": 2,\n  "A": [}\n')
    files["parse-error"] = "in/parse-error.json"
    files["missing"] = "in/missing.json"
    out = ["--out", "out/k.json"]
    validate, apply, compose, other = [], [], [], []
    for label, f in files.items():
        validate += [inputs._entry(["validate", kind, f], label=label)
                     for kind in ("channel", "superchannel", "du", "do", "dephasing", "pauli")]
        apply += [inputs._entry(["apply", f, files["channel"], *out], label=label, out=out[1]),
                  inputs._entry(["apply", files["du"], f, *out], label=label, out=out[1])]
        other += [inputs._entry(["covariance", f, "--group", "du", "--samples", "3"], label=label),
                  inputs._entry(["example", "bit-flip", "--super", f, *out], label=label,
                                out=out[1])]
        compose += [inputs._entry(["compose", kind, f, g, *out], label=label, out=out[1])
                    for kind in ("du", "do", "dephasing", "superchannel", "channel")
                    for g in files.values()]
    return [inputs._kind("validate", "op1", 1, validate), inputs._kind("apply", "op2", 1, apply),
            inputs._kind("compose", "op3", 1, compose), inputs._kind("other", "op4", 1, other),
            inputs._kind("spelling", "op4", 1, spelling_probe(b)),
            inputs._kind("reader", "op4", 1, reader_probes(b, files["du"], files["channel"]))]


def spelling_probe(b: inputs.InputSet) -> list:
    """`apply` of the d = 2 identity's DU tables, and of its dephasing table
    (all ones), to a channel whose Choi holds one number of each spelling the
    artifact writer treats apart: below 1e-9, in [1e-9, 1e-5), in
    [1e-5, 1e-4), at least 1e16, and -0.0, with both signs.  The identity
    gives the channel back, so the artifacts hold them all (-0.0 only the
    dephasing one: the DU action sums its terms onto +0.0).  Then
    `compose dephasing` of the all-ones table with a table holding the same
    numbers: each entry of the composition is 1 * x, so the table artifact
    holds them all too.  Built from constants, after every seeded draw.  No
    command writes a non-finite artifact: every matrix and table refuses NaN
    and infinity."""
    d = 2
    omega = np.eye(d * d).reshape(-1)  # the identity's Choi is |omega><omega|
    tables = inputs.tables_from_choi(np.outer(omega, omega), d, inputs.DU_TABLES)
    choi = np.zeros((d * d, d * d), dtype=complex)
    choi.reshape(-1)[:10] = [3e-17 - 2.5e-10j, 1e-9 + 7.25e-6j, -9.999e-6 - 1e-5j,
                             2.5e-5 + 9.99e-5j, -1.234567e-5 + 0.0001j, 1e16 - 1.5e17j,
                             -1.7976931348623157e308 + 5e-324j, complex(-0.0, 0.0),
                             complex(0.0, -0.0), 0.25 + 10.00001j]
    channel = b.input("spelling_channel.json",
                      {"d_in": d, "d_out": d, "choi": inputs.matrix_json((d, d), choi)})
    supers = [b.input("spelling_identity_du.json", inputs.tables_doc(d, tables)),
              b.input("spelling_identity_dephasing.json",
                      {"d": d, "M_big": inputs.matrix_json((d, d), np.ones((d * d, d * d)))})]
    spelled = b.input("spelling_dephasing.json", {"d": d, "M_big": inputs.matrix_json((d, d), choi)})
    return [*(inputs._entry(["apply", s, channel, "--out", "out/spelling.json"],
                            out="out/spelling.json") for s in supers),
            inputs._entry(["compose", "dephasing", supers[1], spelled, "--out", "out/spelling.json"],
                          out="out/spelling.json")]


def reader_probes(b: inputs.InputSet, du: str, channel: str) -> list:
    """`validate` of the matching kind and `apply` (a channel file after
    the du file, any other before the channel file) on files the matrix
    reader refuses.  A channel, a superchannel Choi (declared dims all 2)
    and DU tables (d = 2, each table the same matrix) whose matrix holds a
    NaN (read by the json fallback), has dims [-2] with 4 entries or dims
    ["2"], or whose data are triples, not pairs; then a superchannel whose
    Choi holds an infinity and whose dims (2, 2) do not match the declared
    (1, 1, 2, 2), and DU tables whose A is of side 3 and holds a NaN.
    Built from constants and written by json.dumps, which spells NaN and
    Infinity."""
    ones = [[1.0, 0.0]] * 16
    faults = {"nan": {"dims": [2, 2], "data": [[float("nan"), 0.0]] + ones[1:]},
              "negative-dims": {"dims": [-2], "data": ones[:4]},
              "string-dims": {"dims": ["2"], "data": ones[:4]},
              "triples": {"dims": [2, 2], "data": [[1.0, 0.0, 0.0]] * 16}}
    docs = {}
    for label, m in faults.items():
        docs[f"channel-{label}"] = ("channel", {"d_in": 2, "d_out": 2, "choi": m})
        docs[f"superchannel-{label}"] = ("superchannel", {
            "dims": {"A0": 2, "A1": 2, "B0": 2, "B1": 2}, "choi": m})
        docs[f"du-{label}"] = ("du", {"d": 2, **dict.fromkeys("ABCD", m)})
    docs["fault-order"] = ("superchannel", {
        "dims": {"A0": 1, "A1": 1, "B0": 2, "B1": 2},
        "choi": {"dims": [2, 2], "data": [[float("inf"), 0.0]] + ones[1:]}})
    docs["wrong-side-nan"] = ("du", {"d": 2, **dict.fromkeys("BCD", {"dims": [2, 2], "data": ones}),
                                     "A": {"dims": [3], "data": [[float("nan"), 0.0]] + ones[:8]}})
    ops = []
    for label, (kind, doc) in docs.items():
        (b.work / "in" / f"reader_{label}.json").write_text(json.dumps(doc))
        f = f"in/reader_{label}.json"
        pair = [du, f] if kind == "channel" else [f, channel]
        ops += [inputs._entry(["validate", kind, f], label=label),
                inputs._entry(["apply", *pair, "--out", "out/reader.json"], label=label,
                              out="out/reader.json")]
    return ops


def build_large_tables(b: inputs.InputSet) -> list:
    """validate, compose and apply on DU and sign-symmetric tables at d = 7, 8."""
    kinds = []
    for kind, names in (("du", inputs.DU_TABLES), ("do", inputs.DO_TABLES)):
        validate, compose, files = [], [], {}
        for d in (7, 8):
            valid = superchannel_tables(b.rng, d, names)
            cases = {"valid": valid, "not-cp": inputs._not_cp(b, valid),
                     "not-tp": inputs._not_tp(valid)}
            files[d] = {label: b.input(f"{kind}{d}_{label}.json", inputs.tables_doc(d, t))
                        for label, t in cases.items()}
            validate += [inputs._entry(["validate", kind, f], label=lb)
                         for lb, f in files[d].items()]
            compose.append(inputs._entry(
                ["compose", kind, files[d]["valid"], files[d]["valid"],
                 "--out", f"out/compose_{kind}.json"],
                out=f"out/compose_{kind}.json",
            ))
        kinds += [inputs._kind(f"validate_{kind}", "op1", 1, validate),
                  inputs._kind(f"compose_{kind}", "op2", 1, compose),
                  inputs._kind(f"apply_{kind}", "op3", 1, apply_ops(b, files))]
    return kinds


CORPORA = {"du-corpus": build_du_corpus, "do-corpus": build_do_corpus,
           "examples": build_examples, "dephasing": build_dephasing,
           "covariance": build_covariance, "kinds": build_kinds,
           "large-tables": build_large_tables}


def plan(workload: str, seed: int, work: Path) -> list:
    if workload in CORPORA:
        return CORPORA[workload](inputs.InputSet(work, seed, workload))
    return inputs.build(workload, seed, work)["kinds"]


def run_op(cli, entry: dict, work: Path) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            status = cli.main(list(entry["argv"]))
        except SystemExit as exc:  # argparse rejects the command line
            status = exc.code
    digest = None
    if entry["out"]:
        artifact = work / entry["out"]
        if artifact.is_file():
            digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
            artifact.unlink()
    return {"argv": entry["argv"], "status": status, "stdout": out.getvalue(),
            "artifact_sha256": digest,
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*inputs.WORKLOADS, *CORPORA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory of the checkout to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from superchan import cli

    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        kinds = plan(args.workload, args.seed, work)
        os.chdir(work)  # plan paths are relative to the work directory
        try:
            for kind in kinds:
                for entry in kind["pool"]:
                    line = {"kind": kind["name"], **run_op(cli, entry, work)}
                    print(json.dumps(line, sort_keys=True), flush=True)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
