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

from typing import NamedTuple

import numpy as np

from .linalg import DEFAULT_TOL
from .positions import (
    TableParams,
    b1_partial_trace,
    choi_from_tables,
    extraction_residual,
    sector_spectrum,
    tables_from_choi,
)
from .superchannels import SuperChoi, TPPreservingVerdict, tp_preserving_verdict


class NotDUCovariantError(ValueError):
    """The Choi matrix has weight outside the diagonal-unitary covariant pattern."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"off-pattern residual {residual:.3e} exceeds tolerance {tol:.1e}"
        )


class DUSuperParams(TableParams):
    """Coefficient tables of a diagonal-unitary covariant superchannel.

    A is real; B, C, D are complex.  Hermiticity of the assembled Choi holds
    iff B_{ia,jb} = conj(B_{ib,ja}), C_{ia,jb} = conj(C_{ja,ib}) and
    D_{ia,jb} = conj(D_{jb,ia}); du_cp_check's verdict carries the deviation.
    """

    NAMES = ("A", "B", "C", "D")
    FAMILY = "super"
    OFF_PATTERN_ERROR = NotDUCovariantError  # raised by from_choi


def build_choi(p: TableParams) -> SuperChoi:
    """Assemble the superchannel Choi matrix of DU or sign-symmetric tables
    on subsystems (A0, A1, B0, B1).

    Table entries land on the disjoint positions of positions.POSITIONS.
    """
    return SuperChoi((p.d,) * 4, choi_from_tables(p))


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
    t = tables_from_choi(s.mat, d, cls)
    params = cls(d, **{**t, "A": t["A"].real})
    residual = extraction_residual(s.mat, d, cls)
    if residual > tol:
        raise cls.OFF_PATTERN_ERROR(residual, tol)
    return params


class DUTPVerdict(NamedTuple):
    """Result of the DU trace-preservation check, with the b-averaged fiber
    sums it found."""

    alpha_fiber_deviation: float
    gamma_fiber_deviation: float
    row_sum_deviation: float
    worst_fiber: tuple[int, int, int]  # (i, j, b) of the witness fiber, sum_a T[i, a, j, b]
    alpha: np.ndarray  # real d x d, rows sum to 1 when the check passes
    gamma: np.ndarray  # complex d x d, off-diagonal support
    tol: float
    tp: TPPreservingVerdict  # the trace verdict all of the above is read off

    @property
    def ok(self) -> bool:
        return self.tp.ok

    def report(self) -> dict:
        return {
            "tp": self.ok,
            "alpha_fiber_deviation": self.alpha_fiber_deviation,
            "gamma_fiber_deviation": self.gamma_fiber_deviation,
            "row_sum_deviation": self.row_sum_deviation,
            "worst_fiber": self.worst_fiber,
        }


def du_tp_check(p: DUSuperParams, tol: float = DEFAULT_TOL) -> DUTPVerdict:
    """Trace preservation, read off tp_preserving_verdict of the partial
    trace over B1: A's entries are its images with i = j (the alpha fibers)
    and C's those with i != j (gamma).  alpha[i, j] = mean[j, j, i, i],
    gamma[i, j] = mean[i, j, i, j] (i != j), the row sums are the unitality
    and worst_fiber is (p, j, a) of the witness."""
    d = p.d
    tp = tp_preserving_verdict(0.0, *b1_partial_trace(p), (d,) * 3, tol)
    on = tp.image // d**3 % (d + 1) == 0  # i == j: the alpha images
    return DUTPVerdict(float(tp.deviation[on].max(initial=0.0)),
                       float(tp.deviation[~on].max(initial=0.0)), tp.unitality_deviation,
                       (tp.witness[3], *tp.witness[1:3]), np.einsum("jjii->ij", tp.mean).real,
                       np.where(np.eye(d, dtype=bool), 0, np.einsum("ijij->ij", tp.mean)), tol, tp)


class DUCPVerdict(NamedTuple):
    """Complete positivity from the sector spectrum, which also gives the
    Choi's Hermiticity deviation (left out of report())."""

    closed_form: bool
    offdiag_min_eigenvalue: float
    block_min_eigenvalue: float
    choi_min_eigenvalue: float
    hermiticity_deviation: float
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
                       float(s.evals.min()), float(s.hermiticity.max()), tol, witness)

