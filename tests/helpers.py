"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import numpy as np

from superchan.channels import ChoiChannel, choi_from_kraus
from superchan.dephasing import dephasing_embed_du, dephasing_from_realization
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
