"""Shared random-instance generators for the test suite."""

from __future__ import annotations

from itertools import product

import numpy as np

from superchan.channels import ChoiChannel, choi_from_kraus
from superchan.dephasing import dephasing_embed_du, dephasing_from_realization
from superchan.do import TABLE_NAMES, DOSuperParams
from superchan.du import DUSuperParams, from_choi, mask_tables
from superchan.superchannels import SuperChoi, sandwich_superchannel, super_choi


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def diagonal_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def random_channel(rng: np.random.Generator, d_in: int, d_out: int | None = None,
                   kraus: int = 3) -> ChoiChannel:
    """Random CPTP map: Gaussian Kraus operators renormalized to sum to 1."""
    d_out = d_in if d_out is None else d_out
    ops = [
        rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in))
        for _ in range(kraus)
    ]
    s = sum(k.conj().T @ k for k in ops)
    evals, vecs = np.linalg.eigh(s)
    inv_sqrt = (vecs / np.sqrt(evals)) @ vecs.conj().T
    return choi_from_kraus([k @ inv_sqrt for k in ops])


def unitary_conjugation(u: np.ndarray) -> ChoiChannel:
    return choi_from_kraus([u])


def random_covariance_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    norm = np.sqrt(np.real(np.diagonal(m)))
    return m / np.outer(norm, norm)


def random_state_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def random_realization(rng: np.random.Generator, d: int, e: int):
    us = [haar_unitary(rng, e) for _ in range(d)]
    vs = [haar_unitary(rng, e) for _ in range(d)]
    return us, vs, random_state_vector(rng, e)


def full_eigvalsh_psd(mat: np.ndarray, tol: float = 1e-10) -> bool:
    """Independent PSD oracle for a Hermitian matrix: one dense eigvalsh of the
    whole matrix, accepted at -tol * max(1, spectral radius)."""
    evals = np.linalg.eigvalsh(mat)
    return bool(evals[0] >= -tol * max(1.0, float(np.abs(evals).max())))


def random_hermitian_du_params(rng: np.random.Generator, d: int) -> DUSuperParams:
    """Random tables satisfying the Hermiticity pairings (usually not CP/TP)."""
    n = d * d
    a = rng.normal(size=(n, n))

    def sym(axes):
        t = rng.normal(size=(d, d, d, d)) + 1j * rng.normal(size=(d, d, d, d))
        return ((t + t.transpose(axes).conj()) / 2).reshape(n, n)

    return mask_tables(d, a, sym((0, 3, 2, 1)), sym((2, 1, 0, 3)), sym((2, 3, 0, 1)))


def classical_du_params(rng: np.random.Generator, d: int) -> DUSuperParams:
    """Valid params with only the stochastic table: alpha (x) w with row- and
    column-stochastic factors."""
    alpha = rng.dirichlet(np.ones(d), size=d)          # rows sum to 1
    w = rng.dirichlet(np.ones(d), size=d).T            # columns sum to 1
    a = np.einsum("ij,ab->iajb", alpha, w).reshape(d * d, d * d)
    z = np.zeros((d * d, d * d))
    return mask_tables(d, a, z, z, z)


def du_sandwich_params(rng: np.random.Generator, d: int) -> DUSuperParams:
    """Valid params from a diagonal-unitary pre/post conjugation sandwich."""
    s = sandwich_superchannel(
        unitary_conjugation(diagonal_unitary(rng, d)),
        unitary_conjugation(diagonal_unitary(rng, d)),
    )
    return from_choi(s)


def dephasing_du_params(rng: np.random.Generator, d: int, e: int = 3) -> DUSuperParams:
    return dephasing_embed_du(dephasing_from_realization(*random_realization(rng, d, e)))


def random_valid_du_params(rng: np.random.Generator, d: int) -> DUSuperParams:
    """Random valid (CP and TP) parameter set: a convex mixture of classical,
    dephasing-derived and diagonal-unitary sandwich components."""
    parts = [
        classical_du_params(rng, d),
        dephasing_du_params(rng, d),
        du_sandwich_params(rng, d),
    ]
    weights = rng.dirichlet(np.ones(len(parts)))
    tables = {}
    for name in "ABCD":
        tables[name] = sum(w * getattr(p, name) for w, p in zip(weights, parts))
    return mask_tables(d, tables["A"], tables["B"], tables["C"], tables["D"])


def random_valid_superchoi(rng: np.random.Generator, d0: int, d1: int,
                           terms: int = 3) -> SuperChoi:
    """Random valid superchannel: convex mixture of sandwiches with unitary
    pre-processing and random CPTP post-processing."""
    weights = rng.dirichlet(np.ones(terms))
    acc = None
    for w in weights:
        s = sandwich_superchannel(
            unitary_conjugation(haar_unitary(rng, d0)),
            random_channel(rng, d1),
        )
        acc = w * s.choi.mat if acc is None else acc + w * s.choi.mat
    return super_choi(acc, (d0, d1, d0, d1))


# ---------------------------------------------------------------------------
# per-entry reference for the table position map
# ---------------------------------------------------------------------------


def loop_build_choi(p: DUSuperParams) -> np.ndarray:
    """Reference DU Choi assembly, one table entry at a time."""
    d = p.d
    a4, b4, c4, d4 = (p.t4(n) for n in "ABCD")
    c = np.zeros((d**4, d**4), dtype=complex)
    c8 = c.reshape((d,) * 8)
    for i, a, j, b in product(range(d), repeat=4):
        c8[j, b, i, a, j, b, i, a] += a4[i, a, j, b]
        if a != b:
            c8[j, a, i, a, j, b, i, b] += b4[i, a, j, b]
        if i != j:
            c8[i, b, i, a, j, b, j, a] += c4[i, a, j, b]
            if a != b:
                c8[i, a, i, a, j, b, j, b] += d4[i, a, j, b]
    return c


def loop_do_build_choi(p: DOSuperParams) -> np.ndarray:
    """Reference nine-table Choi assembly, one table entry at a time."""
    d = p.d
    a4, b4, c4, d4, e4, p4, q4, r4, s4 = (p.t4(n) for n in TABLE_NAMES)
    c = np.zeros((d**4, d**4), dtype=complex)
    c8 = c.reshape((d,) * 8)
    for i, a, j, b in product(range(d), repeat=4):
        c8[j, b, i, a, j, b, i, a] += a4[i, a, j, b]
        if a != b:
            c8[j, a, i, a, j, b, i, b] += b4[i, a, j, b]
            c8[i, a, j, b, i, b, j, a] += r4[i, a, j, b]
        if i != j:
            c8[i, b, i, a, j, b, j, a] += c4[i, a, j, b]
            c8[i, a, j, b, j, a, i, b] += e4[i, a, j, b]
            if a != b:
                c8[i, a, i, a, j, b, j, b] += d4[i, a, j, b]
                c8[i, a, j, a, j, b, i, b] += p4[i, a, j, b]
                c8[i, a, j, b, j, b, i, a] += q4[i, a, j, b]
                c8[i, a, i, b, j, b, j, a] += s4[i, a, j, b]
    return c


def loop_do_tables(mat: np.ndarray, d: int) -> dict:
    """Reference extraction of the nine tables (complex, d^2 x d^2); the
    first four are the DU tables."""
    c8 = mat.reshape((d,) * 8)
    t = {name: np.zeros((d, d, d, d), dtype=complex) for name in TABLE_NAMES}
    for i, a, j, b in product(range(d), repeat=4):
        t["A"][i, a, j, b] = c8[j, b, i, a, j, b, i, a]
        if a != b:
            t["B"][i, a, j, b] = c8[j, a, i, a, j, b, i, b]
            t["R"][i, a, j, b] = c8[i, a, j, b, i, b, j, a]
        if i != j:
            t["C"][i, a, j, b] = c8[i, b, i, a, j, b, j, a]
            t["E"][i, a, j, b] = c8[i, a, j, b, j, a, i, b]
            if a != b:
                t["D"][i, a, j, b] = c8[i, a, i, a, j, b, j, b]
                t["P"][i, a, j, b] = c8[i, a, j, a, j, b, i, b]
                t["Q"][i, a, j, b] = c8[i, a, j, b, j, b, i, a]
                t["S"][i, a, j, b] = c8[i, a, i, b, j, b, j, a]
    return {name: x.reshape(d * d, d * d) for name, x in t.items()}


def loop_cp_blocks(p: DUSuperParams):
    """Reference M_ab (from A, C), N_ab (from B, D) and the coupled block
    sum_a e_aa (x) M_aa + sum_{a!=b} e_ab (x) N_ab."""
    d = p.d
    a4, b4, c4, d4 = (p.t4(n) for n in "ABCD")
    m = np.zeros((d, d, d * d, d * d), dtype=complex)
    n = np.zeros((d, d, d * d, d * d), dtype=complex)
    m4 = m.reshape(d, d, d, d, d, d)
    n4 = n.reshape(d, d, d, d, d, d)
    for a, b in product(range(d), repeat=2):
        for i, j in product(range(d), repeat=2):
            m4[a, b, j, i, j, i] += a4[i, a, j, b]
            n4[a, b, j, i, j, i] += b4[i, a, j, b]
            if i != j:
                m4[a, b, i, i, j, j] += c4[i, a, j, b]
                n4[a, b, i, i, j, j] += d4[i, a, j, b]
    block = np.zeros((d * d * d, d * d * d), dtype=complex)
    blk4 = block.reshape(d, d * d, d, d * d)
    for a in range(d):
        for b in range(d):
            blk4[a, :, b, :] = m[a, a] if a == b else n[a, b]
    return m, n, block
