"""Pauli superchannels: mixtures of two-sided Pauli conjugations on qubit maps.

A 4x4 probability table pi[mu, nu] defines the representing map
X -> sum pi[mu, nu] (sigma_mu (x) sigma_nu) X (sigma_mu (x) sigma_nu).
On Pauli channels the action reduces to a bistochastic matrix built from the
two-bit XOR of Pauli labels acting on the Bell-diagonal probability vector.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import NamedTuple

import numpy as np

from .channels import PARAM_EDGE_TOL, PAULI, ChoiChannel, check_probability_vector, pauli_channel
from .linalg import DEFAULT_TOL, Frozen, MultipartiteOperator, max_entangled_projector
from .superchannels import SuperChoi, super_choi


class PauliSuperParams(Frozen):
    """Nonnegative 4x4 probability table over pairs of Pauli labels."""

    __slots__ = ("pi",)

    def __init__(self, pi: np.ndarray) -> None:
        pi = np.asarray(pi, dtype=float)
        if pi.shape != (4, 4):
            raise ValueError("pi must be a 4x4 table")
        if not np.isfinite(pi).all():
            raise ValueError("pi has non-finite entries (NaN or Inf)")
        if pi.min() < -PARAM_EDGE_TOL:
            raise ValueError(f"pi must be nonnegative (min entry {pi.min()})")
        if abs(pi.sum() - 1.0) > PARAM_EDGE_TOL:
            raise ValueError(f"pi must sum to 1 (sum {pi.sum()})")
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)


@functools.lru_cache(maxsize=None)
def _conjugation_terms() -> np.ndarray:
    """Read-only (16, 16, 16) stack whose entry 4 mu + nu is w P+ w^dag, with
    w = 1 (x) sigma_mu (x) sigma_nu and P+ the unnormalized maximally
    entangled projector on C^4 (x) C^4."""
    p_plus = max_entangled_projector(4).mat
    terms = np.empty((16, 16, 16), dtype=complex)
    for k, (s_mu, s_nu) in enumerate(product(PAULI, repeat=2)):
        w = np.kron(np.eye(4), np.kron(s_mu, s_nu))
        terms[k] = w @ p_plus @ w.conj().T
    terms.setflags(write=False)
    return terms


def pauli_super_choi(p: PauliSuperParams) -> SuperChoi:
    """16x16 Choi matrix of the two-sided Pauli mixture (dims 2,2,2,2).

    The cached terms are added one at a time in row-major (mu, nu) order; a
    BLAS product would reorder the sum and move the last digits of the Choi.
    """
    acc = np.zeros((16, 16), dtype=complex)
    for weight, term in zip(p.pi.reshape(-1), _conjugation_terms()):
        acc += weight * term
    return super_choi(acc, (2, 2, 2, 2))


class PauliDUVerdict(NamedTuple):
    """Diagonal-unitary covariance test for a Pauli superchannel.

    The table must have equal middle columns (pi[:, 1] == pi[:, 2]) and equal
    middle rows; the verdict carries the worst violation of either, read off
    the table in closed form.
    """

    max_violation: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tol


def pauli_du_check(p: PauliSuperParams, tol: float = DEFAULT_TOL) -> PauliDUVerdict:
    violation = max(
        float(np.abs(p.pi[:, 1] - p.pi[:, 2]).max()),
        float(np.abs(p.pi[1, :] - p.pi[2, :]).max()),
    )
    return PauliDUVerdict(violation, tol)


def pauli_induced_bistochastic(p: PauliSuperParams) -> np.ndarray:
    """The 4x4 bistochastic matrix M[alpha, beta] = sum of pi over label pairs
    with mu XOR nu = alpha XOR beta (summed in fixed mu order)."""
    m = np.zeros((4, 4))
    for alpha in range(4):
        for beta in range(4):
            m[alpha, beta] = sum(p.pi[mu, mu ^ alpha ^ beta] for mu in range(4))
    return m


def pauli_apply(p: PauliSuperParams, q_in) -> np.ndarray:
    """Image of a Pauli-channel probability vector under the superchannel."""
    q = np.asarray(q_in, dtype=float)
    if q.shape != (4,):
        raise ValueError("expected a probability 4-vector")
    check_probability_vector(q)
    return pauli_induced_bistochastic(p) @ q


def bell_vectors() -> list[np.ndarray]:
    """Unnormalized Bell vectors (1 (x) sigma_alpha) sum_i |ii>."""
    psi = np.eye(2, dtype=complex).reshape(4)
    return [np.kron(np.eye(2), s) @ psi for s in PAULI]


def bell_weights(choi) -> np.ndarray:
    """Read Bell-diagonal weights q_alpha = <B_alpha|C|B_alpha> / 4 off a
    4x4 qubit-channel Choi matrix (each Bell vector has norm sqrt(2))."""
    mat = choi.mat if isinstance(choi, MultipartiteOperator) else np.asarray(choi)
    return np.array([np.vdot(b, mat @ b).real / 4.0 for b in bell_vectors()])


def pauli_marginal_channel(p: PauliSuperParams) -> ChoiChannel:
    """The qubit Pauli channel induced on input marginals, with weights the
    row sums of the table."""
    return pauli_channel(p.pi.sum(axis=1))
