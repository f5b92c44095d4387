"""Superchannels covariant under conjugation by diagonal unitaries.

Such a supermap splits into four components indexed by coefficient tables
{A, B, C, D}, each a d^2 x d^2 table over the pair index (i, a) -> i*d + a
with i the A0/B0 label and a the A1/B1 label:

  * A (all pairs)            acts on diagonal entries of diagonal blocks,
  * B (a != b)               on off-diagonal entries of diagonal blocks,
  * C (i != j)               on diagonal entries of off-diagonal blocks,
  * D (i != j and a != b)    entrywise on the rest.

Out-of-support entries are stored as exact zeros and rejected on ingest.
Everything here is for square superchannels (dA0 = dA1 = dB0 = dB1 = d).
Composition is positions.compose_tables, whose plan derives the paper's rule
from the positions: A multiplies as a matrix over the pair index, B and C
contract over one label each, and D multiplies entrywise.  The same plan
gives the action on the tables of DUC, CDUC and DOC channels, so a DU
superchannel maps each of those families into itself by construction; on
DOC tables (A, B, C) it is the paper's three displayed maps: A through A,
B_mn scaled by D_{mm,nn} and C_mn by D_{nm,mn}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiChannel, du_identity_channel_params, table_channel
from .linalg import DEFAULT_TOL, MultipartiteOperator
from .positions import (
    TableParams,
    apply_tables,
    choi_from_tables,
    compose_tables,
    extraction_residual,
    sector_spectrum,
    tables_from_choi,
)
from .superchannels import SuperChoi, super_choi


class NotDUCovariantError(ValueError):
    """The Choi matrix has weight outside the diagonal-unitary covariant pattern."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"off-pattern residual {residual:.3e} exceeds tolerance {tol:.1e}"
        )


@dataclass(frozen=True)
class DUSuperParams(TableParams):
    """Coefficient tables of a diagonal-unitary covariant superchannel.

    A is real; B, C, D are complex.  Hermiticity of the assembled Choi holds
    iff B_{ia,jb} = conj(B_{ib,ja}), C_{ia,jb} = conj(C_{ja,ib}) and
    D_{ia,jb} = conj(D_{jb,ia}); see hermiticity_violation.
    """

    NAMES = ("A", "B", "C", "D")
    FAMILY = "super"
    OFF_PATTERN_ERROR = NotDUCovariantError  # raised by from_choi

    d: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


def du_identity(d: int) -> DUSuperParams:
    """Tables whose assembled Choi is the identity map on M_{d^2}."""
    if d < 2:
        raise ValueError("du_identity requires d >= 2")
    i, a, j, b = np.ogrid[:d, :d, :d, :d]
    eye_ij = (i == j).astype(float)
    eye_ab = (a == b).astype(float)
    A = (eye_ij * eye_ab).reshape(d * d, d * d)
    B = np.broadcast_to(eye_ij * (1.0 - eye_ab), (d, d, d, d)).reshape(d * d, d * d)
    C = np.broadcast_to((1.0 - eye_ij) * eye_ab, (d, d, d, d)).reshape(d * d, d * d)
    D = np.broadcast_to((1.0 - eye_ij) * (1.0 - eye_ab), (d, d, d, d)).reshape(
        d * d, d * d
    )
    return DUSuperParams(d, A, B.astype(complex), C.astype(complex), D.astype(complex))


def hermiticity_violation(p: DUSuperParams) -> float:
    """Worst deviation from the table symmetries that make the Choi Hermitian."""
    b4, c4, d4 = p.t4("B"), p.t4("C"), p.t4("D")
    dev = float(np.abs(b4 - b4.transpose(0, 3, 2, 1).conj()).max())
    dev = max(dev, float(np.abs(c4 - c4.transpose(2, 1, 0, 3).conj()).max()))
    dev = max(dev, float(np.abs(d4 - d4.transpose(2, 3, 0, 1).conj()).max()))
    return dev


def build_choi(p: TableParams) -> SuperChoi:
    """Assemble the superchannel Choi matrix of DU or sign-symmetric tables
    on subsystems (A0, A1, B0, B1).

    Table entries land on the disjoint positions of positions.POSITIONS.
    """
    return super_choi(choi_from_tables(p), (p.d,) * 4)


def from_choi(s: SuperChoi, tol: float = DEFAULT_TOL,
              cls: type[TableParams] = DUSuperParams) -> TableParams:
    """Read the tables of cls (DUSuperParams or do.DOSuperParams) off their
    Choi positions, A taken real; reject off-pattern weight.

    Raises cls.OFF_PATTERN_ERROR when the reconstruction residual, the largest
    modulus in build_choi(params) - s, exceeds tol.
    """
    if not (s.dA0 == s.dA1 == s.dB0 == s.dB1):
        raise ValueError("extraction requires equal subsystem dimensions")
    d = s.dA0
    t = tables_from_choi(s.choi.mat, d, cls)
    params = cls(d, **{**t, "A": t["A"].real})
    residual = extraction_residual(s.choi.mat, d, cls)
    if residual > tol:
        raise cls.OFF_PATTERN_ERROR(residual, tol)
    return params


@dataclass(frozen=True)
class DUTPVerdict:
    """Result of the DU trace-preservation check, with the b-averaged fiber
    sums it found."""

    alpha_fiber_deviation: float
    gamma_fiber_deviation: float
    row_sum_deviation: float
    worst_fiber: tuple[int, int, int]  # (i, j, b) with the largest fiber deviation
    alpha: np.ndarray  # real d x d, rows sum to 1 when the check passes
    gamma: np.ndarray  # complex d x d, off-diagonal support
    tol: float

    @property
    def ok(self) -> bool:
        return (
            self.alpha_fiber_deviation <= self.tol
            and self.gamma_fiber_deviation <= self.tol
            and self.row_sum_deviation <= self.tol
        )

    def report(self) -> dict:
        return {
            "tp": self.ok,
            "alpha_fiber_deviation": self.alpha_fiber_deviation,
            "gamma_fiber_deviation": self.gamma_fiber_deviation,
            "row_sum_deviation": self.row_sum_deviation,
            "worst_fiber": self.worst_fiber,
        }


def du_tp_check(p: DUSuperParams, tol: float = DEFAULT_TOL) -> DUTPVerdict:
    """Trace preservation: the a-sums of A and C must not depend on b, and the
    resulting alpha table must have unit row sums."""
    a_sums = p.t4("A").sum(axis=1)  # [i, j, b]
    c_sums = p.t4("C").sum(axis=1)
    alpha = a_sums.mean(axis=2)
    gamma = c_sums.mean(axis=2)
    a_dev = np.abs(a_sums - alpha[:, :, None])
    g_dev = np.abs(c_sums - gamma[:, :, None])
    worst = np.unravel_index(int(np.argmax(a_dev)), a_dev.shape)
    if g_dev.size and g_dev.max() > a_dev.max():
        worst = np.unravel_index(int(np.argmax(g_dev)), g_dev.shape)
    row_dev = float(np.abs(alpha.sum(axis=1) - 1.0).max())
    return DUTPVerdict(
        float(a_dev.max()),
        float(g_dev.max()),
        row_dev,
        tuple(int(w) for w in worst),
        alpha,
        gamma,
        tol,
    )


@dataclass(frozen=True)
class DUCPVerdict:
    closed_form: bool
    offdiag_min_eigenvalue: float
    block_min_eigenvalue: float
    choi_min_eigenvalue: float
    tol: float
    offdiag_witness: tuple[int, int] | None = None  # (a, b) of the M_ab holding the min

    @property
    def ok(self) -> bool:
        return self.closed_form

    def report(self) -> dict:
        return {
            "cp": self.closed_form,
            "offdiag_min_eig": self.offdiag_min_eigenvalue,
            "offdiag_witness": self.offdiag_witness or "none",
            "block_min_eig": self.block_min_eigenvalue,
            "choi_min_eig": self.choi_min_eigenvalue,
        }


def du_cp_check(p: DUSuperParams, tol: float = DEFAULT_TOL) -> DUCPVerdict:
    """Complete positivity from the Choi's charge sectors, read off the tables.

    The closed form asks every M_ab with a != b (the principal block on
    {A1 = b, B1 = a}) to be PSD together with the coupled block on
    {A1 = B1}.  Those blocks split exactly into the sectors the DU positions
    connect (positions.sectors): one whose first index has A1 digit q and B1
    digit s lies in M_sq when q != s and in the coupled block when q = s.  So
    the spectrum is read off the tables sector by sector
    (positions.sector_spectrum) in O(d^6) time and O(d^4) memory.
    offdiag_witness is the first (a, b) in row-major order whose M_ab minimum
    is within tol * max(1, spectral radius) of the smallest, so roundoff
    among tied minima does not move it.
    """
    d = p.d
    s = sector_spectrum(p, tol)
    q, b1 = s.first // (d * d) % d, s.first % d
    off = q != b1
    off_min = float(s.minimum[off].min(initial=np.inf))
    witness = None  # at d = 1 there is no M_ab with a != b
    if off.any():
        # minima within tol * max(1, spectral radius) of the smallest are tied
        tied = s.minimum[off] <= off_min + tol * max(1.0, float(np.abs(s.evals).max()))
        ab = (b1 * d + q)[off][tied].min()
        witness = (int(ab // d), int(ab % d))
    return DUCPVerdict(s.is_psd, off_min, float(s.minimum[~off].min()),
                       float(s.evals.min()), tol, witness)


def du_block_action(p: DUSuperParams, x) -> MultipartiteOperator:
    """The representing map of build_choi(p) applied to X = sum e_ij (x) X_ij,
    read straight off the tables (positions.apply_tables).

    Diagonal blocks mix through A (their diagonals) and B (their off-diagonal
    entries); off-diagonal blocks mix through C (diagonals) and scale through
    D (entrywise).
    """
    d = p.d
    m = x.mat if isinstance(x, MultipartiteOperator) else np.asarray(x, dtype=complex)
    if m.shape != (d * d, d * d):
        raise ValueError(f"input side {m.shape} does not match d^2={d * d}")
    return MultipartiteOperator((d, d), apply_tables(p, m))


def du_action_on_identity(p: DUSuperParams) -> ChoiChannel:
    """The channel produced by acting on the identity channel (its Choi is Omega).

    It is the DU channel of p acting on the identity's tables
    (positions.compose_tables): S_ij = sum_k A_{ji,kk} (column stochastic
    for valid params) and the off-diagonal slice D_{ii,jj}.
    """
    return table_channel(compose_tables(p, du_identity_channel_params(p.d)))
