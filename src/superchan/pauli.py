"""Pauli superchannels: mixtures of two-sided Pauli conjugations on qubit maps.

A 4x4 probability table pi[mu, nu] defines the representing map
X -> sum pi[mu, nu] (sigma_mu (x) sigma_nu) X (sigma_mu (x) sigma_nu).
On Pauli channels the action reduces to a bistochastic matrix built from the
two-bit XOR of Pauli labels acting on the Bell-diagonal probability vector.

Each w = sigma_mu (x) sigma_nu is a phased permutation (a unitary error
basis): row a holds one entry c_a, in column s_a, so (w X w^dag)[a, b] is
c_a conj(c_b) X[s_a, s_b], a gather of X times a phase in {1, -1, i, -i}.
pauli_apply_to_channel and _conjugation_terms read that (gather, phase).

pauli_validate reads the superchannel verdict off the table by two identities:

* The Choi spectrum is exactly {4 pi[mu, nu]}.  The Choi is
  sum pi[mu, nu] |W>><<W| with W = sigma_mu (x) sigma_nu vectorised, and
  <<W|W'>> = Tr(W^dag W') = 4 delta_{WW'}, as Pauli products are orthogonal
  with Tr(1) = 4 on C^2 (x) C^2.
* Tr_B1 Theta(e_ij (x) e_ab) = delta_ab sum_mu p_mu sigma_mu e_ij sigma_mu^dag,
  p_mu = sum_nu pi[mu, nu].  The (A1, B1) factor of W_mu,nu is
  sigma_nu e_ab sigma_nu^dag, of trace Tr(e_ab) = delta_ab.  So the trace
  factors through the a-independent Pauli channel with weights p_mu, whose
  unitality residual is |sum_mu p_mu - 1| on the diagonal and zero off it.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import NamedTuple

import numpy as np

from .channels import PARAM_EDGE_TOL, PAULI, ChoiChannel, check_probability_vector
from .linalg import DEFAULT_TOL, Frozen, MultipartiteOperator, psd_accepts
from .positions import _read_only
from .superchannels import SuperChoi, SuperchannelVerdict


class PauliSuperParams(Frozen):
    """Nonnegative 4x4 probability table over pairs of Pauli labels."""

    __slots__ = ("pi",)

    def __init__(self, pi: np.ndarray) -> None:
        pi = np.array(pi, dtype=float)  # a copy: the caller's array stays writable
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
def _product_table() -> tuple[np.ndarray, np.ndarray]:
    """Read-only (16, 16) gather index and phase whose row 4 mu + nu gives
    w X w^dag = phase * X.flat[gather] (the module docstring)."""
    w = np.array([np.kron(s_mu, s_nu) for s_mu, s_nu in product(PAULI, repeat=2)])
    src, c = np.abs(w).argmax(axis=2), w.sum(axis=2)  # one entry per row
    gather = (4 * src[:, :, None] + src[:, None, :]).reshape(16, 16)
    return _read_only(gather, (c[:, :, None] * c[:, None, :].conj()).reshape(16, 16))


@functools.lru_cache(maxsize=None)
def _conjugation_terms() -> np.ndarray:
    """Read-only (16, 16, 16) stack whose entry 4 mu + nu is the Choi of
    X -> w X w^dag, w = sigma_mu (x) sigma_nu, read off _product_table."""
    gather, phase = _product_table()
    terms = (np.eye(16)[gather] * phase[:, :, None]).reshape(16, 4, 4, 4, 4)  # [k, a, b, i, j]
    return _read_only(terms.transpose(0, 3, 1, 4, 2).reshape(16, 16, 16))[0]


def pauli_super_choi(p: PauliSuperParams) -> SuperChoi:
    """16x16 Choi matrix of the two-sided Pauli mixture (dims 2,2,2,2).

    One reduction adds the weighted cached terms from zeros in row-major
    (mu, nu) order; a BLAS product would reorder the sum and move the digits.
    """
    weighted = p.pi.reshape(16, 1, 1) * _conjugation_terms()
    return SuperChoi((2, 2, 2, 2), np.add.reduce(weighted, axis=0, initial=0.0))


def pauli_apply_to_channel(p: PauliSuperParams, ch: ChoiChannel) -> ChoiChannel:
    """apply_to_channel(pauli_super_choi(p), ch) from the table: the sum over k
    of pi_k * (phase_k * X.flat[gather_k]), from zeros in (mu, nu) order."""
    if ch.dims != (2, 2):
        raise ValueError(f"channel dims {ch.dims} do not match superchannel input pair (2, 2)")
    gather, phase = _product_table()
    terms = p.pi.reshape(16, 1) * (phase * ch.mat.ravel()[gather])
    return ChoiChannel((2, 2), np.add.reduce(terms, axis=0, initial=0.0).reshape(4, 4))


class PauliVerdict(NamedTuple):
    """The superchannel conditions of a Pauli table, in closed form.

    The Choi is exactly Hermitian and the trace over B1 factors exactly (the
    module docstring), so both residuals are zero, and is_tp is the unitality
    residual within tol.  report() is SuperchannelVerdict's, which reads only
    the six names both verdicts have.
    """

    is_cp: bool
    min_eigenvalue: float
    marginal_deviation: float
    tol: float

    factorization_deviation = 0.0
    hermiticity_deviation = 0.0

    @property
    def is_tp(self) -> bool:
        return self.marginal_deviation <= self.tol

    @property
    def ok(self) -> bool:
        return self.is_cp and self.is_tp

    report = SuperchannelVerdict.report


def pauli_validate(p: PauliSuperParams, tol: float = DEFAULT_TOL) -> PauliVerdict:
    """validate_superchannel(pauli_super_choi(p), tol) read off the table: CP
    is psd_accepts on the spectrum 4 pi (x 4 is exact in floating point) at
    Hermiticity deviation zero, and the marginal residual is
    |sum_mu p_mu - 1| with p_mu the row sums of pi."""
    spectrum = 4.0 * p.pi.ravel()
    marginal = abs(float(p.pi.sum(axis=1).sum()) - 1.0)
    # an exactly Hermitian matrix passes the Hermiticity half at any entry scale
    is_cp = psd_accepts(spectrum, 0.0, 0.0, tol)
    return PauliVerdict(is_cp, float(spectrum.min()), marginal, tol)


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


_XOR = np.array([[[4 * mu + (mu ^ a ^ b) for b in range(4)] for a in range(4)] for mu in range(4)])


def pauli_induced_bistochastic(p: PauliSuperParams) -> np.ndarray:
    """The 4x4 bistochastic matrix M[alpha, beta], the sum of pi over label
    pairs with mu XOR nu = alpha XOR beta: one gather of pi[mu, mu ^ alpha ^
    beta] at the flat indices _XOR, summed from zero in mu order."""
    return np.add.reduce(p.pi.take(_XOR), axis=0, initial=0.0)


def pauli_apply(p: PauliSuperParams, q_in) -> np.ndarray:
    """Image of a Pauli-channel probability vector under the superchannel.
    Kept for acceptance criterion 08 (the Pauli pipeline)."""
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
    4x4 qubit-channel Choi matrix (each Bell vector has norm sqrt(2)).
    Kept for acceptance criterion 08, as pauli_apply's oracle."""
    mat = choi.mat if isinstance(choi, MultipartiteOperator) else np.asarray(choi)
    return np.array([np.vdot(b, mat @ b).real / 4.0 for b in bell_vectors()])

