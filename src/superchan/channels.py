"""Quantum channels as Choi matrices.

A channel Phi: M_{d_in} -> M_{d_out} is stored through its Choi matrix
C = sum_ij e_ij (x) Phi(e_ij) on subsystem dims (d_in, d_out).  Validity
(CP via positivity, TP via the input marginal) is checked on demand, never
at construction, so invalid Chois can be carried around for diagnostics.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Frozen,
    MultipartiteOperator,
    max_entangled_projector,
    partial_trace,
    psd_report,
    swap_operator,
)
from .positions import TableParams, choi_from_tables, sector_spectrum, table_positions

PARAM_EDGE_TOL = 1e-12  # slack for closed parameter intervals


class ChoiChannel(Frozen):
    """A linear map between matrix algebras, held as its Choi matrix."""

    __slots__ = ("d_in", "d_out", "choi")

    def __init__(self, d_in: int, d_out: int, choi: MultipartiteOperator) -> None:
        if choi.dims != (d_in, d_out):
            raise ValueError(f"choi dims {choi.dims} do not match ({d_in}, {d_out})")
        object.__setattr__(self, "d_in", d_in)
        object.__setattr__(self, "d_out", d_out)
        object.__setattr__(self, "choi", choi)

    def choi4(self) -> np.ndarray:
        """Choi as a 4-tensor [in, out, in', out']."""
        d0, d1 = self.d_in, self.d_out
        return self.choi.mat.reshape(d0, d1, d0, d1)


def choi_channel(mat, d_in: int, d_out: int) -> ChoiChannel:
    return ChoiChannel(d_in, d_out, MultipartiteOperator((d_in, d_out), np.asarray(mat, dtype=complex)))


def choi_from_kraus(kraus_ops) -> ChoiChannel:
    """Assemble the Choi matrix of X -> sum_k K X K^dag from Kraus operators,
    each d_out x d_in."""
    ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
    if not ops:
        raise ValueError("at least one Kraus operator is required")
    d_out, d_in = ops[0].shape
    c = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in ops:
        # vec_r(K) vec_r(K)^dag with row-major vec matches C = sum e_ij (x) K e_ij K^dag
        v = k.T.reshape(-1, 1)
        c += v @ v.conj().T
    return choi_channel(c, d_in, d_out)


def apply_channel(ch: ChoiChannel, rho) -> MultipartiteOperator:
    """Apply the channel: Phi(rho) = Tr_in[(rho^T (x) I) C]."""
    r = rho.mat if isinstance(rho, MultipartiteOperator) else np.asarray(rho, dtype=complex)
    if r.shape != (ch.d_in, ch.d_in):
        raise ValueError(f"state side {r.shape} does not match d_in={ch.d_in}")
    out = np.einsum("ij,iajb->ab", r, ch.choi4())
    return MultipartiteOperator((ch.d_out,), out)


def compose_channels(f: ChoiChannel, g: ChoiChannel) -> ChoiChannel:
    """Choi matrix of f o g, by pushing matrix units through g then f."""
    if g.d_out != f.d_in:
        raise ValueError(f"cannot compose: g.d_out={g.d_out} != f.d_in={f.d_in}")
    return choi_channel(compose_choi4(g.choi4(), f.choi4()), g.d_in, f.d_out)


def compose_choi4(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Choi matrix of (second o first) from the Choi 4-tensors [in, out, in', out'].

    Contracts out = in2 and out' = in2' (einsum "kmln,manb->kalb") as one
    matrix product of the operands realigned to [(k, l), (m, n)] and
    [(m, n), (a, b)].
    """
    k, m = first.shape[:2]
    a = second.shape[1]
    lhs = first.transpose(0, 2, 1, 3).reshape(k * k, m * m)
    rhs = second.transpose(0, 2, 1, 3).reshape(m * m, a * a)
    out = (lhs @ rhs).reshape(k, k, a, a).transpose(0, 2, 1, 3)
    return out.reshape(k * a, k * a)


class ChannelVerdict(NamedTuple):
    """Diagnostic result of a channel validity check."""

    is_cp: bool
    is_tp: bool
    min_eigenvalue: float
    marginal_deviation: float
    hermiticity_deviation: float

    @property
    def ok(self) -> bool:
        return self.is_cp and self.is_tp

    def report(self) -> dict:
        return {
            "is_cp": self.is_cp,
            "is_tp": self.is_tp,
            "min_eig": self.min_eigenvalue,
            "marginal_deviation": self.marginal_deviation,
            "hermiticity_deviation": self.hermiticity_deviation,
        }


def validate_channel(ch: ChoiChannel, tol: float = DEFAULT_TOL) -> ChannelVerdict:
    """CP iff the Choi is PSD; TP iff the output marginal equals the identity."""
    cp_ok, min_eig, herm = psd_report(ch.choi.mat, tol)
    marg = partial_trace(ch.choi, 1).mat - np.eye(ch.d_in)
    marg_dev = float(np.abs(marg).max())
    return ChannelVerdict(cp_ok, marg_dev <= tol, min_eig, marg_dev, herm)


def classical_channel_extract(ch: ChoiChannel) -> np.ndarray:
    """The stochastic matrix S[a, i] = <i a|C|i a> of diagonal Choi entries.

    For a valid channel S is column stochastic (columns indexed by the input).
    """
    return np.diagonal(ch.choi.mat).real.reshape(ch.d_in, ch.d_out).T.copy()


# ---------------------------------------------------------------------------
# Standard channels
# ---------------------------------------------------------------------------


def check_probability_vector(p: np.ndarray) -> None:
    """Reject p unless its entries are finite, nonnegative and sum to 1,
    each up to PARAM_EDGE_TOL."""
    if not np.isfinite(p).all():
        raise ValueError(f"{p} is not a probability vector: non-finite entries (NaN or Inf)")
    if p.min() < -PARAM_EDGE_TOL or abs(p.sum() - 1.0) > PARAM_EDGE_TOL:
        raise ValueError(f"{p} is not a probability vector")


def _check_unit_interval(name: str, value: float) -> float:
    if not -PARAM_EDGE_TOL <= value <= 1.0 + PARAM_EDGE_TOL:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def identity_channel(d: int) -> ChoiChannel:
    return ChoiChannel(d, d, max_entangled_projector(d))


def depolarizing(d: int) -> ChoiChannel:
    """Completely depolarizing channel X -> Tr(X) I/d."""
    return choi_channel(np.eye(d * d, dtype=complex) / d, d, d)


def transpose_map(d: int) -> ChoiChannel:
    """The transposition map (not CP); its Choi is the swap matrix."""
    return ChoiChannel(d, d, swap_operator(d))


def amplitude_damping(gamma: float) -> ChoiChannel:
    g = _check_unit_interval("gamma", gamma)
    s = math.sqrt(max(0.0, 1.0 - g))
    c = np.array(
        [
            [1, 0, 0, s],
            [0, 0, 0, 0],
            [0, 0, g, 0],
            [s, 0, 0, 1 - g],
        ],
        dtype=complex,
    )
    return choi_channel(c, 2, 2)


def bit_flip(p: float) -> ChoiChannel:
    q = _check_unit_interval("p", p)
    c = np.array(
        [
            [1 - q, 0, 0, 1 - q],
            [0, q, q, 0],
            [0, q, q, 0],
            [1 - q, 0, 0, 1 - q],
        ],
        dtype=complex,
    )
    return choi_channel(c, 2, 2)


PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli_channel(probs) -> ChoiChannel:
    """Mixture of Pauli conjugations X -> sum_a p_a sigma_a X sigma_a."""
    p = np.asarray(probs, dtype=float)
    if p.shape != (4,):
        raise ValueError("pauli_channel expects four probabilities")
    check_probability_vector(p)
    return choi_from_kraus([math.sqrt(max(v, 0.0)) * s for v, s in zip(p, PAULI)])


def check_covariance_matrix(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a dephasing covariance matrix: PSD with unit diagonal."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("covariance matrix must be square")
    ok, min_eig, _ = psd_report(m, tol)
    if not ok:
        raise ValueError(f"covariance matrix is not PSD (min eig {min_eig:.3e})")
    if np.abs(np.diagonal(m) - 1.0).max() > tol:
        raise ValueError("covariance matrix must have unit diagonal")
    return m


def dephasing_channel(m) -> ChoiChannel:
    """Schur-product channel X -> M o X for a covariance matrix M."""
    m = check_covariance_matrix(m)
    d = m.shape[0]
    c = np.zeros((d * d, d * d), dtype=complex)
    k = np.arange(d)
    c.reshape(d, d, d, d)[k[:, None], k[:, None], k, k] = m
    return choi_channel(c, d, d)


# ---------------------------------------------------------------------------
# Covariant channel families (group-symmetric one-parameter mixtures)
# ---------------------------------------------------------------------------


def _mix(coeffs_channels, d: int) -> ChoiChannel:
    c = sum(w * ch.choi.mat for w, ch in coeffs_channels)
    return choi_channel(c, d, d)


def unitary_covariant(lam: float, d: int) -> ChoiChannel:
    """lam * id + (1 - lam) * depolarizing; CP for lam in [-1/(d^2-1), 1]."""
    lo = -1.0 / (d * d - 1)
    if not lo - PARAM_EDGE_TOL <= lam <= 1.0 + PARAM_EDGE_TOL:
        raise ValueError(f"lambda={lam} outside CP range [{lo}, 1] for d={d}")
    return _mix([(lam, identity_channel(d)), (1 - lam, depolarizing(d))], d)


def conjugate_covariant(mu: float, d: int) -> ChoiChannel:
    """mu * transpose + (1 - mu) * depolarizing; CP for mu in [-1/(d-1), 1/(d+1)]."""
    lo, hi = -1.0 / (d - 1), 1.0 / (d + 1)
    if not lo - PARAM_EDGE_TOL <= mu <= hi + PARAM_EDGE_TOL:
        raise ValueError(f"mu={mu} outside CP range [{lo}, {hi}] for d={d}")
    return _mix([(mu, transpose_map(d)), (1 - mu, depolarizing(d))], d)


def holevo_werner(d: int) -> ChoiChannel:
    """rho -> (Tr(rho) I - rho^T)/(d-1), the extreme conjugate-covariant channel."""
    if d < 2:
        raise ValueError("holevo_werner requires d >= 2")
    c = (np.eye(d * d, dtype=complex) - swap_operator(d).mat) / (d - 1)
    return choi_channel(c, d, d)


def orthogonal_covariant(alpha: float, beta: float, d: int) -> ChoiChannel:
    """(1-a-b) id + a D + b T; CP for a >= d|b| and d(1-a-b) + a/d + b >= 0."""
    if alpha < d * abs(beta) - PARAM_EDGE_TOL:
        raise ValueError(f"need alpha >= d|beta|: alpha={alpha}, beta={beta}, d={d}")
    if d * (1 - alpha - beta) + alpha / d + beta < -PARAM_EDGE_TOL:
        raise ValueError(
            f"need d(1-a-b) + a/d + b >= 0: alpha={alpha}, beta={beta}, d={d}"
        )
    return _mix(
        [
            (1 - alpha - beta, identity_channel(d)),
            (alpha, depolarizing(d)),
            (beta, transpose_map(d)),
        ],
        d,
    )


# ---------------------------------------------------------------------------
# Channels covariant under diagonal groups: coefficient-table families
# ---------------------------------------------------------------------------


class DUChannelParams(TableParams):
    """Tables (A, B) of a diagonal-unitary covariant map.

    The map acts as X -> sum_ij A_ij e_ij X e_ji + sum_{i!=j} B_ij e_ii X e_jj.
    B has off-diagonal support only; the Choi positions are
    positions.CHANNEL_POSITIONS.
    """

    NAMES = ("A", "B")
    FAMILY = "channel"


class ConjDUChannelParams(TableParams):
    """Tables (A, C) of a conjugate diagonal-unitary covariant map.

    The map acts as X -> sum_ij A_ij e_ij X e_ji + sum_{i!=j} C_ij e_ii X^T e_jj.
    """

    NAMES = ("A", "C")
    FAMILY = "channel"


class DOChannelParams(TableParams):
    """Tables (A, B, C) of a diagonal-orthogonal covariant map (both terms)."""

    NAMES = ("A", "B", "C")
    FAMILY = "channel"


def du_identity_channel_params(d: int) -> DUChannelParams:
    ones = np.ones((d, d)) - np.eye(d)
    return DUChannelParams(d, np.eye(d), ones.astype(complex))


def table_channel(params: TableParams) -> ChoiChannel:
    """The channel of DUC, CDUC or DOC tables, their entries on the Choi
    positions of positions.CHANNEL_POSITIONS."""
    return choi_channel(choi_from_tables(params), params.d, params.d)


class DUChannelVerdict(NamedTuple):
    """Named closed-form checks for table-parameterized channels."""

    is_cp: bool
    a_nonnegative: bool
    b_psd: bool
    pair_condition: bool
    column_stochastic: bool
    min_a_entry: float
    b_min_eigenvalue: float
    pair_violation: float
    column_deviation: float

    @property
    def is_tp(self) -> bool:
        return self.column_stochastic

    @property
    def ok(self) -> bool:
        return self.is_cp and self.is_tp

    def report(self) -> dict:
        return {
            "a_nonnegative": self.a_nonnegative,
            "b_psd": self.b_psd,
            "pair_condition": self.pair_condition,
            "column_stochastic": self.column_stochastic,
            "min_a_entry": self.min_a_entry,
            "b_min_eig": self.b_min_eigenvalue,
            "pair_violation": self.pair_violation,
            "column_deviation": self.column_deviation,
        }


def table_channel_validate(p: TableParams, tol: float = DEFAULT_TOL) -> DUChannelVerdict:
    """CP and TP of table_channel(p) for DUC, CDUC or DOC tables, read off
    the tables by one positions.sector_spectrum call.

    The Choi's sectors are the {ii} block (B with A's diagonal), one block
    [[A_ij, C_ij], [C_ji, A_ji]] on (ji, ij) per pair i < j, and single A_ij.
    So the closed forms read
      DUC (A, B):     CP iff A >= 0 entrywise and B with A's diagonal is PSD;
      CDUC (A, C):    CP iff A >= 0, C is Hermitian and |C_ij|^2 <= A_ij A_ji;
      DOC (A, B, C):  CP iff both hold;
    and each is TP iff the columns of A sum to 1.  is_cp is the sector
    verdict, the one validate_channel reaches on the Choi.  The readouts
    a_nonnegative (A), b_psd ({ii}; true without B) and pair_condition (the
    pairs; true without C) judge eigenvalues on tol * max(1, spectral radius)
    and each sector's Hermiticity on tol * max(1, largest |entry|).
    """
    d, a, c = p.d, p.A, getattr(p, "C", None)
    s = sector_spectrum(p, tol)
    slack = tol * max(1.0, float(np.abs(s.evals).max()))

    def holds(where):  # every sector picked by where is PSD on the Choi's scales
        return bool(s.minimum.min(where=where, initial=np.inf) >= -slack
                    and s.hermiticity.max(where=where, initial=0.0) <= tol * max(1.0, s.max_entry))

    pair = s.first // d != s.first % d  # the pair sectors with C; without C, single A_ij
    min_a = float(a.min())
    b_min = float(s.minimum[~pair].min()) if "B" in p.NAMES else 0.0
    # worst violation of |C_ij|^2 <= A_ij A_ji over C's support i != j
    pair_violation = 0.0 if c is None else float(
        (np.abs(c) ** 2 - a * a.T).max(where=table_positions(d, "C", "channel").mask, initial=0.0))
    col_dev = float(np.abs(a.sum(axis=0) - 1.0).max())
    return DUChannelVerdict(
        is_cp=s.is_psd,
        a_nonnegative=min_a >= -slack,
        b_psd="B" not in p.NAMES or holds(~pair),
        pair_condition=c is None or holds(pair),
        column_stochastic=col_dev <= tol,
        min_a_entry=min_a,
        b_min_eigenvalue=b_min,
        pair_violation=pair_violation,
        column_deviation=col_dev,
    )
