"""Seeded inputs, expected exit statuses and reference outputs.

Nothing here imports superchan.  Every input file is generated from the seed
with plain numpy and written in the library's JSON format, so the parent
commit and a change see byte-identical inputs.  Every reference is computed
from the definitions (table positions, the representing-map contraction,
Choi-level composition), independently of the code under test.

Valid inputs are valid by construction and sit well inside the valid set;
invalid ones violate one condition by at least 1e-2, so no expected verdict
depends on the tolerance policy.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

OK, INVALID_INPUT, CHECK_FAILED = 0, 2, 3
STATUS_NAMES = {OK: "ok", INVALID_INPUT: "invalid-input", CHECK_FAILED: "check-failed"}

# Choi position of table entry T[i, a, j, b] as (row digits, column digits)
# over subsystems (A0, A1, B0, B1), and the support condition ("ij": i != j,
# "ab": a != b).  Transcribed from the build_choi and do_build_choi docstrings.
POSITIONS = {
    "A": ("jbia", "jbia", ""),
    "B": ("jaia", "jbib", "ab"),
    "C": ("ibia", "jbja", "ij"),
    "D": ("iaia", "jbjb", "ijab"),
    "E": ("iajb", "jaib", "ij"),
    "P": ("iaja", "jbib", "ijab"),
    "Q": ("iajb", "jbia", "ijab"),
    "R": ("iajb", "ibja", "ab"),
    "S": ("iaib", "jbja", "ijab"),
}
DU_TABLES = "ABCD"
DO_TABLES = "ABCDEPQRS"

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# ---------------------------------------------------------------------------
# table position map
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def table_positions(d: int, name: str):
    """(rows, cols, support) arrays of shape (d^2, d^2) for table ``name``."""
    row_digits, col_digits, support = POSITIONS[name]
    label = dict(zip("iajb", np.ogrid[:d, :d, :d, :d]))

    def flat(digits):
        idx = 0
        for ch in digits:
            idx = idx * d + label[ch]
        return np.broadcast_to(idx, (d,) * 4).reshape(d * d, d * d)

    mask = np.ones((d,) * 4, dtype=bool)
    if "i" in support:
        mask = mask & (label["i"] != label["j"])
    if "a" in support:
        mask = mask & (label["a"] != label["b"])
    return flat(row_digits), flat(col_digits), mask.reshape(d * d, d * d)


def tables_from_choi(choi: np.ndarray, d: int, names: str) -> dict:
    """Read each table off its Choi positions (A keeps only its real part)."""
    out = {}
    for name in names:
        rows, cols, mask = table_positions(d, name)
        t = np.where(mask, choi[rows, cols], 0)
        out[name] = t.real.astype(complex) if name == "A" else t
    return out


def choi_from_tables(tables: dict, d: int) -> np.ndarray:
    choi = np.zeros((d**4, d**4), dtype=complex)
    for name, t in tables.items():
        rows, cols, mask = table_positions(d, name)
        choi[rows[mask], cols[mask]] = t[mask]
    return choi


# ---------------------------------------------------------------------------
# random objects, valid by construction
# ---------------------------------------------------------------------------


def haar_unitary(rng, d: int) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_superchannel(rng, d: int, terms: int = 3) -> np.ndarray:
    """Choi (dims d, d, d, d) of a valid superchannel.

    A mixture of unitary sandwiches Phi -> V o Phi o U, whose representing
    maps are X -> W X W^dag with W = U^T (x) V, blended with weight eps in
    [0.1, 0.3] with the full-rank superchannel I / d^2 (every channel to the
    completely depolarizing one), so every eigenvalue is >= eps / d^2.
    """
    n = d * d
    eps = rng.uniform(0.1, 0.3)
    x = np.eye(n * n, dtype=complex) * (eps / n)
    for w in rng.dirichlet(np.ones(terms)):
        v = np.kron(haar_unitary(rng, d).T, haar_unitary(rng, d)).T.reshape(-1)
        x += ((1 - eps) * w) * np.outer(v, v.conj())
    return x


def twirl(choi: np.ndarray, d: int, names: str) -> np.ndarray:
    """Keep only the table positions.  For DU_TABLES this is the average over
    diagonal unitaries, for DO_TABLES over diagonal signs; both map valid
    superchannels to valid superchannels."""
    return choi_from_tables(tables_from_choi(choi, d, names), d)


def choi_from_kraus(ops) -> np.ndarray:
    vs = [np.asarray(k, dtype=complex).T.reshape(-1) for k in ops]
    return sum(np.outer(v, v.conj()) for v in vs)


def random_channel(rng, d: int, kraus: int = 2) -> np.ndarray:
    z = rng.normal(size=(d * kraus, d)) + 1j * rng.normal(size=(d * kraus, d))
    iso, _ = np.linalg.qr(z)
    return choi_from_kraus(iso.reshape(kraus, d, d))


def named_qubit_channel(name: str, params) -> np.ndarray:
    if name == "amplitude-damping":
        g = params[0]
        return choi_from_kraus(
            [np.array([[1, 0], [0, np.sqrt(1 - g)]]), np.array([[0, np.sqrt(g)], [0, 0]])]
        )
    if name == "bit-flip":
        p = params[0]
        return choi_from_kraus([np.sqrt(1 - p) * PAULI[0], np.sqrt(p) * PAULI[1]])
    return choi_from_kraus([np.sqrt(p) * s for p, s in zip(params, PAULI)])


def random_dephasing(rng, d: int, env: int = 4) -> np.ndarray:
    """Multiplier table M[(i,a),(j,b)] = <V_b U_j psi | V_a U_i psi> of a
    block-unitary dilation, blended with the completely dephasing table I."""
    us = [haar_unitary(rng, env) for _ in range(d)]
    vs = [haar_unitary(rng, env) for _ in range(d)]
    psi = haar_unitary(rng, env)[:, 0]
    vecs = np.array([vs[a] @ us[i] @ psi for i in range(d) for a in range(d)])
    eps = rng.uniform(0.1, 0.3)
    return (1 - eps) * (vecs @ vecs.conj().T) + eps * np.eye(d * d)


def pauli_weights(m: np.ndarray, w) -> np.ndarray:
    """Representing map X -> sum pi[mu, nu] W X W^dag, W = sigma_mu (x) sigma_nu."""
    out = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        for nu in range(4):
            u = np.kron(PAULI[mu], PAULI[nu])
            out += w[mu, nu] * (u @ m @ u.conj().T)
    return out


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def representing_apply(choi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[a, b] = sum_ij x[i, j] choi[(i, a), (j, b)]."""
    n_in, n_out = x.shape[0], choi.shape[0] // x.shape[0]
    c4 = choi.reshape(n_in, n_out, n_in, n_out)
    return np.einsum("ij,iajb->ab", x, c4, optimize=True)


def compose_choi(then: np.ndarray, first: np.ndarray, n: int) -> np.ndarray:
    """Choi of (then o first): c[k,a,l,b] = sum_mn first[k,m,l,n] then[m,a,n,b]."""
    f = first.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    t = then.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return (f @ t).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


# ---------------------------------------------------------------------------
# JSON in the library's format
# ---------------------------------------------------------------------------


def matrix_json(dims, m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dims": list(dims), "data": np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist()}


def matrix_from_doc(doc: dict) -> np.ndarray:
    side = int(np.prod(doc["dims"]))
    data = np.asarray(doc["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(side, side)


def tables_doc(d: int, tables: dict) -> dict:
    doc = {"d": d}
    doc.update({name: matrix_json((d, d), t) for name, t in tables.items()})
    return doc


def write_json(path: Path, doc: dict) -> None:
    """Write ``json.dumps(doc, indent=2)`` plus a newline, the library's layout.

    Matrix data is formatted here directly: the indenting encoder runs in
    pure Python and would take seconds per 5 MB file.
    """
    blocks = []

    def skeleton(obj):
        if isinstance(obj, dict) and "dims" in obj and "data" in obj:
            blocks.append(obj["data"])
            return {"dims": obj["dims"], "data": f"@@{len(blocks) - 1}@@"}
        if isinstance(obj, dict):
            return {k: skeleton(v) for k, v in obj.items()}
        return obj

    lines = json.dumps(skeleton(doc), indent=2).split("\n")
    for n, line in enumerate(lines):
        head, sep, rest = line.partition('"@@')
        if not sep:
            continue
        index, _, tail = rest.partition('@@"')
        k = len(line) - len(line.lstrip())
        item, inner = " " * (k + 2), " " * (k + 4)
        body = ",\n".join(f"{item}[\n{inner}{re!r},\n{inner}{im!r}\n{item}]"
                          for re, im in blocks[int(index)])
        lines[n] = f"{head}[\n{body}\n{' ' * k}]{tail}"
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class InputSet:
    """Writes inputs under ``work/in`` and references under ``work/ref``."""

    def __init__(self, work: Path, seed: int, workload: str):
        self.work = work
        self.rng = np.random.default_rng([seed, sum(map(ord, workload))])
        for sub in ("in", "ref", "out"):
            (work / sub).mkdir(parents=True, exist_ok=True)

    def input(self, name: str, doc: dict) -> str:
        write_json(self.work / "in" / name, doc)
        return f"in/{name}"

    def ref(self, name: str, value: np.ndarray) -> str:
        np.save(self.work / "ref" / f"{name}.npy", value)
        return f"ref/{name}.npy"

    def shuffled(self, pool: list) -> list:
        return [pool[k] for k in self.rng.permutation(len(pool))]


def _entry(argv, expect=OK, label="valid", out=None, ref=None, form=None) -> dict:
    return {"argv": argv, "expect": expect, "label": label, "out": out, "ref": ref, "form": form}


def _kind(name: str, slot: str, per_round: int, pool: list) -> dict:
    return {"name": name, "slot": slot, "per_round": per_round, "pool": pool}


def _not_cp(b: InputSet, tables: dict) -> dict:
    """Set one A entry, a diagonal Choi entry, to -delta with delta >= 2e-2."""
    bad = {k: v.copy() for k, v in tables.items()}
    n = bad["A"].shape[0]
    r, c = b.rng.integers(0, n, 2)
    bad["A"][r, c] = -b.rng.uniform(0.02, 0.05)
    return bad


def _not_tp(tables: dict) -> dict:
    return {k: 1.25 * v for k, v in tables.items()}


def build_tables(b: InputSet, d: int = 6) -> list:
    du, do = [], []
    for k in range(6):
        du.append(tables_from_choi(random_superchannel(b.rng, d), d, DU_TABLES))
        do.append(tables_from_choi(random_superchannel(b.rng, d), d, DO_TABLES))
    du_files = [b.input(f"du_{k}.json", tables_doc(d, t)) for k, t in enumerate(du)]
    do_files = [b.input(f"do_{k}.json", tables_doc(d, t)) for k, t in enumerate(do)]

    def validate_pool(kind, files, valid):
        pool = [_entry(["validate", kind, f]) for f in files]
        for label, bad in (("not-cp", _not_cp(b, valid[0])), ("not-tp", _not_tp(valid[1]))):
            path = b.input(f"{kind}_{label}.json", tables_doc(d, bad))
            pool.append(_entry(["validate", kind, path], CHECK_FAILED, label))
        return b.shuffled(pool)

    compose = []
    for k, (p, q) in enumerate(((0, 1), (2, 3), (4, 5), (1, 2))):
        ref = compose_choi(choi_from_tables(du[p], d), choi_from_tables(du[q], d), d * d)
        ref_tables = np.stack([t for t in tables_from_choi(ref, d, DU_TABLES).values()])
        compose.append(_entry(
            ["compose", "du", du_files[p], du_files[q], "--out", "out/compose_du.json"],
            out="out/compose_du.json", ref=b.ref(f"compose_du_{k}", ref_tables), form="du",
        ))

    apply = []
    for k in range(4):
        ch = random_channel(b.rng, d)
        path = b.input(f"ch_{k}.json", {"d_in": d, "d_out": d, "choi": matrix_json((d, d), ch)})
        ref = representing_apply(choi_from_tables(du[k], d), ch)
        apply.append(_entry(
            ["apply", du_files[k], path, "--out", "out/apply_du.json"],
            out="out/apply_du.json", ref=b.ref(f"apply_du_{k}", ref), form="channel",
        ))

    return [
        _kind("validate_du", "op1", 2, validate_pool("du", du_files, du)),
        _kind("validate_do", "op2", 2, validate_pool("do", do_files, do)),
        _kind("compose_du", "op3", 4, b.shuffled(compose)),
        _kind("apply_du", "op4", 4, b.shuffled(apply)),
    ]


def _super_doc(d: int, choi: np.ndarray) -> dict:
    return {"dims": {"A0": d, "A1": d, "B0": d, "B1": d}, "choi": matrix_json((d,) * 4, choi)}


def build_dense(b: InputSet, d: int = 4) -> list:
    generic = [random_superchannel(b.rng, d) for _ in range(4)]
    covariant = [twirl(random_superchannel(b.rng, d), d, DU_TABLES) for _ in range(3)]
    sc = [b.input(f"sc_{k}.json", _super_doc(d, c)) for k, c in enumerate(generic)]
    dc = [b.input(f"dc_{k}.json", _super_doc(d, c)) for k, c in enumerate(covariant)]

    off_pattern = np.abs(generic[0] - twirl(generic[0], d, DU_TABLES)).max()
    if off_pattern < 1e-2:
        raise AssertionError(f"generic Choi has off-pattern weight only {off_pattern:.2e}")

    bad_cp = generic[0].copy()
    k = b.rng.integers(0, d**4)
    bad_cp[k, k] = -b.rng.uniform(0.02, 0.05)
    # generic inputs only: the twirled ones hold many zeros, so their files
    # are shorter and parse faster, and a median over both would mix costs
    validate = [_entry(["validate", "superchannel", f]) for f in sc]
    validate.append(_entry(
        ["validate", "superchannel", b.input("sc_not-cp.json", _super_doc(d, bad_cp))],
        CHECK_FAILED, "not-cp",
    ))
    validate.append(_entry(
        ["validate", "superchannel", b.input("sc_not-tp.json", _super_doc(d, 1.25 * generic[1]))],
        CHECK_FAILED, "not-tp",
    ))

    covariance = [
        _entry(["covariance", f, "--group", "du", "--seed", str(k)]) for k, f in enumerate(dc)
    ]
    covariance.append(_entry(
        ["covariance", sc[0], "--group", "du", "--seed", "3"], CHECK_FAILED, "not-du-covariant"
    ))

    compose = []
    for k, (p, q) in enumerate(((0, 1), (2, 3), (1, 2), (3, 0))):
        ref = compose_choi(generic[p], generic[q], d * d)
        compose.append(_entry(
            ["compose", "superchannel", sc[p], sc[q], "--out", "out/compose_sc.json"],
            out="out/compose_sc.json", ref=b.ref(f"compose_sc_{k}", ref), form="superchannel",
        ))

    apply = []
    for k in range(4):
        ch = random_channel(b.rng, d)
        path = b.input(f"ch_{k}.json", {"d_in": d, "d_out": d, "choi": matrix_json((d, d), ch)})
        apply.append(_entry(
            ["apply", sc[k], path, "--out", "out/apply_sc.json"],
            out="out/apply_sc.json", ref=b.ref(f"apply_sc_{k}", representing_apply(generic[k], ch)),
            form="channel",
        ))

    return [
        _kind("validate_superchannel", "op1", 4, b.shuffled(validate)),
        _kind("covariance", "op2", 2, b.shuffled(covariance)),
        _kind("compose_superchannel", "op3", 2, b.shuffled(compose)),
        _kind("apply_superchannel", "op4", 4, b.shuffled(apply)),
    ]


def build_qubit(b: InputSet) -> list:
    d = 2
    pis = [b.rng.dirichlet(np.ones(16)).reshape(4, 4) for _ in range(6)]
    pi_files = [b.input(f"pauli_{k}.json", {"pi": p.tolist()}) for k, p in enumerate(pis)]
    # one entry moved to -delta, the largest entry absorbs the change: sum stays 1
    negative = pis[0].copy()
    r, c = np.unravel_index(np.argmax(negative), negative.shape)
    delta = b.rng.uniform(0.02, 0.05)
    negative[r, c] += negative[(r + 1) % 4, c] + delta
    negative[(r + 1) % 4, c] = -delta
    validate_pauli = [_entry(["validate", "pauli", f]) for f in pi_files]
    for label, table in (("negative", negative), ("scaled", 1.25 * pis[1])):
        path = b.input(f"pauli_{label}.json", {"pi": table.tolist()})
        validate_pauli.append(_entry(["validate", "pauli", path], INVALID_INPUT, label))

    dephasing = [random_dephasing(b.rng, d) for _ in range(6)]
    validate_dephasing = [
        _entry(["validate", "dephasing", b.input(f"deph_{k}.json",
                                                 {"d": d, "M_big": matrix_json((d, d), m)})])
        for k, m in enumerate(dephasing)
    ]
    bad_cp = dephasing[0].copy()
    k = b.rng.integers(0, d * d)
    bad_cp[k, k] = -b.rng.uniform(0.02, 0.05)
    for label, m in (("not-cp", bad_cp), ("not-tp", 1.25 * dephasing[1])):
        path = b.input(f"deph_{label}.json", {"d": d, "M_big": matrix_json((d, d), m)})
        validate_dephasing.append(_entry(["validate", "dephasing", path], CHECK_FAILED, label))

    example = []
    for k, name in enumerate(("amplitude-damping", "bit-flip", "pauli") * 2):
        tables = tables_from_choi(random_superchannel(b.rng, d), d, DU_TABLES)
        path = b.input(f"du2_{k}.json", tables_doc(d, tables))
        params = (
            [float(b.rng.uniform(0.05, 0.95))] if name != "pauli"
            else b.rng.dirichlet(np.ones(4)).tolist()
        )
        flag = "--gamma" if name == "amplitude-damping" else "--p"
        ref = representing_apply(choi_from_tables(tables, d), named_qubit_channel(name, params))
        example.append(_entry(
            ["example", name, flag, *map(repr, params), "--super", path,
             "--out", "out/example.json"],
            out="out/example.json", ref=b.ref(f"example_{k}", ref), form="channel",
        ))

    apply = []
    for k in range(4):
        ch = random_channel(b.rng, d)
        path = b.input(f"qch_{k}.json", {"d_in": d, "d_out": d, "choi": matrix_json((d, d), ch)})
        apply.append(_entry(
            ["apply", pi_files[k], path, "--out", "out/apply_pauli.json"],
            out="out/apply_pauli.json", ref=b.ref(f"apply_pauli_{k}", pauli_weights(ch, pis[k])),
            form="channel",
        ))

    return [
        _kind("validate_pauli", "op1", 4, b.shuffled(validate_pauli)),
        _kind("validate_dephasing", "op2", 4, b.shuffled(validate_dephasing)),
        _kind("example", "op3", 3, example),  # kept in order so the three examples rotate
        _kind("apply_pauli", "op4", 4, b.shuffled(apply)),
    ]


WORKLOADS = {"tables": build_tables, "dense": build_dense, "qubit": build_qubit}


def build(workload: str, seed: int, work: Path) -> dict:
    """Write every input and reference for one run; return the plan."""
    b = InputSet(work, seed, workload)
    kinds = WORKLOADS[workload](b)
    digest = hashlib.sha256()
    for path in sorted((work / "in").iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    digest.update(json.dumps(kinds, sort_keys=True).encode())
    return {"workload": workload, "seed": seed, "fingerprint": digest.hexdigest(), "kinds": kinds}


# ---------------------------------------------------------------------------
# artifact check
# ---------------------------------------------------------------------------


def artifact_error(entry: dict, work: Path, ref_cache: dict) -> str | None:
    """None when the written artifact matches its reference to 1e-9."""
    path = work / entry["out"]
    if not path.is_file():
        return "no artifact written"
    doc = json.loads(path.read_text())
    ref = ref_cache.get(entry["ref"])
    if ref is None:
        ref = ref_cache[entry["ref"]] = np.load(work / entry["ref"])
    if entry["form"] == "du":
        got = np.stack([matrix_from_doc(doc[name]) for name in DU_TABLES])
    else:  # channel or superchannel
        got = matrix_from_doc(doc["choi"])
    if got.shape != ref.shape:
        return f"artifact shape {got.shape}, expected {ref.shape}"
    err = float(np.abs(got - ref).max())
    return None if err <= 1e-9 else f"artifact differs from reference by {err:.3e}"
