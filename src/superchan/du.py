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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channels import ChoiChannel, DUChannelParams, du_channel
from .linalg import (
    DEFAULT_TOL,
    MultipartiteOperator,
    charge_sectors,
    hermitian_eigenvalues,
    hermiticity_deviation,
    psd_accepts,
    psd_report,
)
from .positions import (
    check_table,
    choi_from_tables,
    principal_blocks,
    table_positions,
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


class OracleMismatchError(RuntimeError):
    """Closed-form verdict disagrees with the spectral oracle on the same input."""


@dataclass(frozen=True)
class DUSuperParams:
    """Coefficient tables of a diagonal-unitary covariant superchannel.

    A is real; B, C, D are complex.  Hermiticity of the assembled Choi holds
    iff B_{ia,jb} = conj(B_{ib,ja}), C_{ia,jb} = conj(C_{ja,ib}) and
    D_{ia,jb} = conj(D_{jb,ia}); see hermiticity_violation.
    """

    d: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self) -> None:
        d = self.d
        a = np.asarray(self.A, dtype=float)
        if a.shape != (d * d, d * d):
            raise ValueError(f"A must be {d * d}x{d * d}")
        tables = {"A": a}
        for name in ("B", "C", "D"):
            t = np.asarray(getattr(self, name), dtype=complex)
            if t.shape != (d * d, d * d):
                raise ValueError(f"{name} must be {d * d}x{d * d}")
            tables[name] = t
        for name, t in tables.items():
            check_table(d, name, t)
            t.setflags(write=False)
            object.__setattr__(self, name, t)

    def t4(self, name: str) -> np.ndarray:
        """A table as a 4-tensor [i, a, j, b]."""
        d = self.d
        return getattr(self, name).reshape(d, d, d, d)


def mask_tables(d: int, A, B, C, D) -> DUSuperParams:
    """Build params from unmasked arrays, zeroing out-of-support entries."""
    tables = (np.asarray(A, dtype=float), *(np.asarray(t, dtype=complex) for t in (B, C, D)))
    return DUSuperParams(
        d, *(np.where(table_positions(d, n).mask, t, 0.0) for n, t in zip("ABCD", tables))
    )


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


def build_choi(p: DUSuperParams) -> SuperChoi:
    """Assemble the superchannel Choi matrix on subsystems (A0, A1, B0, B1).

    Table entries land on the disjoint positions of positions.POSITIONS.
    """
    return super_choi(choi_from_tables(p, "ABCD"), (p.d,) * 4)


def from_choi(s: SuperChoi, tol: float = DEFAULT_TOL) -> DUSuperParams:
    """Read the tables off their Choi positions; reject off-pattern weight.

    Raises NotDUCovariantError when the reconstruction residual exceeds tol.
    """
    if not (s.dA0 == s.dA1 == s.dB0 == s.dB1):
        raise ValueError("extraction requires equal subsystem dimensions")
    d = s.dA0
    t = tables_from_choi(s.choi.mat, d, "ABCD")
    params = DUSuperParams(d, t["A"].real, t["B"], t["C"], t["D"])
    residual = float(np.abs(build_choi(params).choi.mat - s.choi.mat).max())
    if residual > tol:
        raise NotDUCovariantError(residual, tol)
    return params


@dataclass(frozen=True)
class DUTPWitness:
    """The b-independent fiber sums found by the trace-preservation check."""

    alpha: np.ndarray  # real d x d, rows sum to 1 when the check passes
    gamma: np.ndarray  # complex d x d, off-diagonal support


@dataclass(frozen=True)
class DUTPVerdict:
    alpha_fiber_deviation: float
    gamma_fiber_deviation: float
    row_sum_deviation: float
    worst_fiber: tuple[int, int, int]  # (i, j, b) with the largest fiber deviation
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


def du_tp_check(
    p: DUSuperParams, tol: float = DEFAULT_TOL
) -> tuple[DUTPVerdict, DUTPWitness]:
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
    verdict = DUTPVerdict(
        float(a_dev.max()),
        float(g_dev.max()),
        row_dev,
        tuple(int(w) for w in worst),
        tol,
    )
    return verdict, DUTPWitness(alpha, gamma)


def _cp_bases(d: int):
    """Choi basis indices of the closed form's principal blocks.

    Row a*d + b is M_ab, the block on {A1 = b, B1 = a} ordered (A0, B0); the
    coupled block is the one on {A1 = B1}, ordered (A1, A0, B0).
    """
    a, b, x, y = np.ogrid[:d, :d, :d, :d]
    k, x3, y3 = np.ogrid[:d, :d, :d]
    return (
        (((x * d + b) * d + y) * d + a).reshape(d * d, d * d),
        (((x3 * d + k) * d + y3) * d + k).reshape(1, d**3),
    )


def _cp_blocks(p: DUSuperParams):
    """The permuted-basis blocks M_ab (from A, C) and N_ab (from B, D).

    N_ab is the (a, b) block of the coupled block; N_aa is zero.
    """
    d = p.d
    m_basis, coupled = _cp_bases(d)
    m = principal_blocks(p, "AC", m_basis).reshape(d, d, d * d, d * d)
    n = principal_blocks(p, "BD", coupled).reshape(d, d * d, d, d * d)
    return m, n.transpose(0, 2, 1, 3)


def cp_block_matrix(p: DUSuperParams) -> np.ndarray:
    """The d^3 x d^3 coupled block sum_a e_aa (x) M_aa + sum_{a!=b} e_ab (x) N_ab."""
    return principal_blocks(p, "ABCD", _cp_bases(p.d)[1])[0]


@dataclass(frozen=True)
class DUCPVerdict:
    closed_form: bool
    oracle: bool
    offdiag_min_eigenvalue: float
    block_min_eigenvalue: float
    choi_min_eigenvalue: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.closed_form

    def report(self) -> dict:
        return {
            "cp": self.closed_form,
            "offdiag_min_eig": self.offdiag_min_eigenvalue,
            "block_min_eig": self.block_min_eigenvalue,
            "choi_min_eig": self.choi_min_eigenvalue,
        }


def du_cp_check(
    p: DUSuperParams, tol: float = DEFAULT_TOL, oracle: bool = True
) -> DUCPVerdict:
    """Complete positivity via the permuted-basis closed form.

    Requires every M_ab with a != b to be PSD together with the coupled
    d^3 x d^3 block matrix.  Those blocks hold exactly the Choi entries in a
    permuted basis, so together they carry the Choi spectrum and its scale:
    the closed form applies psd_accepts to their union, on the same scale as
    the oracle, without assembling the Choi.  With oracle=True the Choi
    spectrum is also read sector by sector, and a disagreement raises
    OracleMismatchError instead of being papered over.
    """
    d = p.d
    m, _ = _cp_blocks(p)
    off = m[~np.eye(d, dtype=bool)]  # the M_ab with a != b, stacked
    block = cp_block_matrix(p)
    off_evals, block_evals = hermitian_eigenvalues(off), hermitian_eigenvalues(block)
    closed = psd_accepts(
        np.concatenate([off_evals.reshape(-1), block_evals]),
        max(float(np.abs(off).max(initial=0.0)), float(np.abs(block).max())),
        max(hermiticity_deviation(off), hermiticity_deviation(block)),
        tol,
    )
    off_min = float(off_evals.min(initial=np.inf))
    block_min = float(block_evals[0])
    choi_min = np.nan
    oracle_ok = closed
    if oracle:
        oracle_ok, choi_min, _ = psd_report(
            build_choi(p).choi.mat, tol, charge_sectors(d, "ordered")
        )
        if oracle_ok != closed:
            raise OracleMismatchError(
                f"closed-form CP verdict {closed} disagrees with spectral oracle "
                f"{oracle_ok} (block min eig {block_min:.3e}, off-diag min eig "
                f"{off_min:.3e}, Choi min eig {choi_min:.3e})"
            )
    return DUCPVerdict(
        closed, oracle_ok, float(off_min), float(block_min), float(choi_min), tol
    )


def du_compose(p: DUSuperParams, q: DUSuperParams) -> DUSuperParams:
    """Tables of the composition (p after q).

    A multiplies as a matrix over the pair index, D multiplies entrywise, and
    B and C contract over one label each.  The Choi-level composition is the
    independent oracle for these formulas and is never bypassed in the tests.
    """
    if p.d != q.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {q.d}")
    d = p.d
    a = p.A @ q.A
    dd = p.D * q.D
    b = np.einsum("iakb,kajb->iajb", p.t4("B"), q.t4("B")).reshape(d * d, d * d)
    c = np.einsum("iajb,ibjc->iajc", p.t4("C"), q.t4("C")).reshape(d * d, d * d)
    return mask_tables(d, a, b, c, dd)


def du_block_action(p: DUSuperParams, x) -> MultipartiteOperator:
    """Fast path for the representing map: act blockwise on X = sum e_ij (x) X_ij.

    Diagonal blocks mix through A (their diagonals) and B (their off-diagonal
    entries); off-diagonal blocks mix through C (diagonals) and scale through
    D (entrywise).  Must agree with representing_apply on the assembled Choi.
    """
    d = p.d
    m = x.mat if isinstance(x, MultipartiteOperator) else np.asarray(x, dtype=complex)
    if m.shape != (d * d, d * d):
        raise ValueError(f"input side {m.shape} does not match d^2={d * d}")
    x4 = m.reshape(d, d, d, d)
    a4, b4, c4, d4 = (p.t4(n) for n in "ABCD")
    xdiag = np.einsum("jbjb->jb", x4)
    ydiag = np.einsum("iajb,jb->ia", a4, xdiag)
    w = np.einsum("jajb->jab", x4)
    yb = np.einsum("iajb,jab->iab", b4, w)
    v = np.einsum("ibjb->ijb", x4)
    yc = np.einsum("iajb,ijb->iaj", c4, v)

    # D scales every entry; then the i = j blocks take B's image, the a = b
    # entries C's and the diagonal A's, each write overriding the one before
    k = np.arange(d)
    i, a, b = k[:, None, None], k[:, None], k
    y4 = d4 * x4
    y4[i, a, i, b] = yb
    y4[i, a, b, a] = yc
    y4[k[:, None], k, k[:, None], k] = ydiag
    return MultipartiteOperator((d, d), y4.reshape(d * d, d * d))


def du_action_on_identity(p: DUSuperParams) -> ChoiChannel:
    """The channel produced by acting on the identity channel.

    Its tables are S_ij = sum_k A_{ji,kk} (column stochastic for valid params)
    and the off-diagonal slice D_{ii,jj}.
    """
    d = p.d
    a4, d4 = p.t4("A"), p.t4("D")
    s = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            s[i, j] = sum(a4[j, i, k, k] for k in range(d))
    b = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if i != j:
                b[i, j] = d4[i, i, j, j]
    return du_channel(DUChannelParams(d, s, b))


@dataclass(frozen=True)
class DOPreservationVerdict:
    """Result of probing the action on sign-symmetric (diagonal-orthogonal
    invariant) Choi patterns."""

    off_pattern_max: float
    coefficient_deviation: float
    samples: int
    tol: float

    @property
    def ok(self) -> bool:
        return self.off_pattern_max <= self.tol and self.coefficient_deviation <= self.tol

    def report(self) -> dict:
        return {
            "preserves_do_pattern": self.ok,
            "off_pattern_max": self.off_pattern_max,
            "coefficient_deviation": self.coefficient_deviation,
        }


def random_do_invariant(d: int, rng: np.random.Generator) -> MultipartiteOperator:
    """Random Hermitian operator with the sign-symmetric invariant pattern:
    weight on e_mm (x) e_nn (all m, n), e_mn (x) e_mn and e_mn (x) e_nm (m != n)."""
    pt = rng.normal(size=(d, d))
    qt = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rt = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m, n = np.ogrid[:d, :d]
    x4 = np.zeros((d, d, d, d), dtype=complex)
    x4[m, n, m, n] += pt
    x4[m, m, n, n] += np.where(m != n, qt, 0.0)
    x4[m, n, n, m] += np.where(m != n, rt, 0.0)
    mat = x4.reshape(d * d, d * d)
    return MultipartiteOperator((d, d), (mat + mat.conj().T) / 2)


def _do_pattern_split(x4: np.ndarray):
    """Split an operator on (d, d) into the sign-symmetric pattern components
    (P on e_mm (x) e_nn, Q on e_mn (x) e_mn, R on e_mn (x) e_nm) plus the
    maximal off-pattern magnitude."""
    m, n = np.ogrid[: x4.shape[0], : x4.shape[0]]
    on = np.zeros(x4.shape, dtype=bool)
    on[m, n, m, n] = on[m, m, n, n] = on[m, n, n, m] = True
    p = x4[m, n, m, n]
    q = np.where(m != n, x4[m, m, n, n], 0.0)
    r = np.where(m != n, x4[m, n, n, m], 0.0)
    return p, q, r, float(np.abs(x4[~on]).max(initial=0.0))


def du_preserves_do_check(
    p: DUSuperParams, n: int = 20, tol: float = DEFAULT_TOL, seed: int = 0
) -> DOPreservationVerdict:
    """Verify the image of sign-symmetric Chois keeps the pattern, with the
    three displayed coefficient maps: diagonal weights through A, the e_mn (x)
    e_mn weights scaled by D_{mm,nn}, and the e_mn (x) e_nm weights by D_{mn,nm}."""
    d = p.d
    rng = np.random.default_rng(seed)
    a4, d4 = p.t4("A"), p.t4("D")
    amat = p.A
    worst_off = 0.0
    worst_coeff = 0.0
    for _ in range(n):
        x = random_do_invariant(d, rng)
        x4 = x.mat.reshape(d, d, d, d)
        pin, qin, rin, _ = _do_pattern_split(x4)
        y = du_block_action(p, x)
        pout, qout, rout, off = _do_pattern_split(y.mat.reshape(d, d, d, d))
        worst_off = max(worst_off, off)
        expect_p = (amat @ pin.reshape(-1)).reshape(d, d)
        worst_coeff = max(worst_coeff, float(np.abs(pout - expect_p).max()))
        for i, j in product(range(d), repeat=2):
            if i != j:
                worst_coeff = max(
                    worst_coeff, abs(qout[i, j] - d4[i, i, j, j] * qin[i, j])
                )
                worst_coeff = max(
                    worst_coeff, abs(rout[i, j] - d4[i, j, j, i] * rin[i, j])
                )
    return DOPreservationVerdict(worst_off, worst_coeff, n, tol)
