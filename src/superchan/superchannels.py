"""Generic superchannels through the Choi matrix of their representing map.

A supermap sending maps M_{dA0} -> M_{dA1} to maps M_{dB0} -> M_{dB1} is
stored as the Choi matrix of the induced linear map on Choi matrices, an
operator on subsystems (A0, A1, B0, B1) in that fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiChannel, choi_channel, compose_choi4
from .linalg import (
    DEFAULT_TOL,
    MultipartiteOperator,
    kron,
    max_entangled_projector,
    permute_subsystems,
    psd_report,
)


@dataclass(frozen=True)
class SuperChoi:
    """Choi matrix of a supermap on subsystems (A0, A1, B0, B1)."""

    dA0: int
    dA1: int
    dB0: int
    dB1: int
    choi: MultipartiteOperator

    def __post_init__(self) -> None:
        expected = (self.dA0, self.dA1, self.dB0, self.dB1)
        if self.choi.dims != expected:
            raise ValueError(f"choi dims {self.choi.dims} do not match {expected}")

    @property
    def d_in(self) -> int:
        return self.dA0 * self.dA1

    @property
    def d_out(self) -> int:
        return self.dB0 * self.dB1

    def choi4(self) -> np.ndarray:
        """Choi as a 4-tensor [in, out, in', out'] over the grouped pair indices."""
        return self.choi.mat.reshape(self.d_in, self.d_out, self.d_in, self.d_out)


def super_choi(mat, dims) -> SuperChoi:
    dims = tuple(int(d) for d in dims)
    return SuperChoi(*dims, MultipartiteOperator(dims, np.asarray(mat, dtype=complex)))


def identity_superchannel(d0: int, d1: int) -> SuperChoi:
    """Choi of the identity map on M_{d0 d1}, refined to dims (d0, d1, d0, d1)."""
    p = max_entangled_projector(d0 * d1)
    return super_choi(p.mat, (d0, d1, d0, d1))


def representing_apply(s: SuperChoi, x) -> MultipartiteOperator:
    """Evaluate the representing map on an operator over (A0, A1).

    For a channel input this is exactly "apply the superchannel": feeding the
    Choi matrix of a channel returns the Choi matrix of the transformed
    channel, as an operator on (B0, B1).
    """
    m = x.mat if isinstance(x, MultipartiteOperator) else np.asarray(x, dtype=complex)
    if m.shape != (s.d_in, s.d_in):
        raise ValueError(f"input side {m.shape} does not match dA0*dA1={s.d_in}")
    out = np.einsum("ij,iajb->ab", m, s.choi4())
    return MultipartiteOperator((s.dB0, s.dB1), out)


def apply_to_channel(s: SuperChoi, ch: ChoiChannel) -> ChoiChannel:
    """Convenience wrapper: superchannel acting on a channel, Choi to Choi."""
    if (ch.d_in, ch.d_out) != (s.dA0, s.dA1):
        raise ValueError(
            f"channel dims ({ch.d_in}, {ch.d_out}) do not match ({s.dA0}, {s.dA1})"
        )
    out = representing_apply(s, ch.choi)
    return choi_channel(out.mat, s.dB0, s.dB1)


def compose_superchannels(s2: SuperChoi, s1: SuperChoi) -> SuperChoi:
    """Choi of the composition (s2 after s1) of the two representing maps."""
    if (s1.dB0, s1.dB1) != (s2.dA0, s2.dA1):
        raise ValueError(
            f"cannot compose: s1 output dims ({s1.dB0}, {s1.dB1}) != "
            f"s2 input dims ({s2.dA0}, {s2.dA1})"
        )
    c = compose_choi4(s1.choi4(), s2.choi4())
    return super_choi(c, (s1.dA0, s1.dA1, s2.dB0, s2.dB1))


def sandwich_superchannel(n0: ChoiChannel, n1: ChoiChannel) -> SuperChoi:
    """Superchannel Phi -> n1 o Phi o n0*, with n0: A0 -> B0 and n1: A1 -> B1.

    The representing map factorizes as (T o n0 o T) on the (A0, B0) pair
    tensored with n1 on the (A1, B1) pair; the transposed factor enters
    through the full transpose of the n0 Choi matrix.  The result is a valid
    superchannel whenever n1 is a channel and n0 is a unital CP map.
    """
    c0 = MultipartiteOperator((n0.d_in, n0.d_out), n0.choi.mat.T)  # Choi of T o n0 o T
    c1 = n1.choi
    prod = kron(c0, c1)  # dims (A0, B0, A1, B1)
    arranged = permute_subsystems(prod, (0, 2, 1, 3))
    return super_choi(arranged.mat, (n0.d_in, n1.d_in, n0.d_out, n1.d_out))


@dataclass(frozen=True)
class TPPreservingVerdict:
    """Result of the induced-map test for trace-preservation of outputs.

    The supermap preserves trace iff tracing the output pair factors through
    tracing the input pair via a map on (A0 -> B0) that is unital.
    """

    offdiagonal_leak: float
    fiber_deviation: float
    unitality_deviation: float
    induced: ChoiChannel
    tol: float

    @property
    def ok(self) -> bool:
        return (
            self.offdiagonal_leak <= self.tol
            and self.fiber_deviation <= self.tol
            and self.unitality_deviation <= self.tol
        )

    def report(self) -> dict:
        return {
            "tp_preserving": self.ok,
            "offdiagonal_leak": self.offdiagonal_leak,
            "fiber_deviation": self.fiber_deviation,
            "unitality_deviation": self.unitality_deviation,
        }


@dataclass(frozen=True)
class SuperchannelVerdict:
    """The superchannel conditions: the Choi spectrum and the trace check tp.

    The reduced operator C0 on (A0, B0) is tp's induced Choi, so the
    factorization residual || Tr_B1 C - C0 (x) I_A1 ||_max is
    max(offdiagonal_leak, fiber_deviation) and the marginal residual the
    unitality deviation.  ok requires tp.ok, which is stricter than is_tp
    only where a residual is NaN: max() can drop a NaN, tp.ok cannot.
    """

    is_cp: bool
    min_eigenvalue: float
    hermiticity_deviation: float
    tp: TPPreservingVerdict

    @property
    def factorization_deviation(self) -> float:
        return max(self.tp.offdiagonal_leak, self.tp.fiber_deviation)

    @property
    def marginal_deviation(self) -> float:
        return self.tp.unitality_deviation

    @property
    def tol(self) -> float:
        return self.tp.tol

    @property
    def is_tp(self) -> bool:
        return (
            self.factorization_deviation <= self.tol
            and self.marginal_deviation <= self.tol
        )

    @property
    def ok(self) -> bool:
        return self.is_cp and self.tp.ok

    def report(self) -> dict:
        return {
            "is_cp": self.is_cp,
            "is_tp": self.is_tp,
            "min_eig": self.min_eigenvalue,
            "factorization_deviation": self.factorization_deviation,
            "marginal_deviation": self.marginal_deviation,
            "hermiticity_deviation": self.hermiticity_deviation,
        }


def validate_superchannel(s: SuperChoi, tol: float = DEFAULT_TOL) -> SuperchannelVerdict:
    """Check positivity plus the two marginal conditions of a superchannel Choi."""
    cp_ok, min_eig, herm = psd_report(s.choi.mat, tol)
    return SuperchannelVerdict(cp_ok, min_eig, herm, tp_preserving_check(s, tol))


def tp_preserving_check(s: SuperChoi, tol: float = DEFAULT_TOL) -> TPPreservingVerdict:
    """Probe Tr_B1 after the representing map on the matrix-unit basis.

    Passing requires: images of e_ij (x) e_ab vanish for a != b, are
    a-independent for a = b, and the induced map on (A0 -> B0) is unital.
    The verdict carries the induced map assembled from the a-averaged images.
    """
    d0, d1 = s.dA0, s.dA1
    # L[i, j, a, b] = Tr_B1 Delta(e_ij (x) e_ab), each a b0 x b0 matrix
    c6 = s.choi.mat.reshape(d0, d1, s.dB0, s.dB1, d0, d1, s.dB0, s.dB1)
    # Delta(e_ij (x) e_ab)[pq, rs] = choi[(i,a,p,q), (j,b,r,s)]; trace q = s
    images = np.einsum("iapqjbrq->ijabpr", c6)
    leak = float(np.abs(images[:, :, ~np.eye(d1, dtype=bool)]).max(initial=0.0))
    return tp_preserving_verdict(leak, images[:, :, range(d1), range(d1)], tol)


def tp_preserving_verdict(leak: float, diag: np.ndarray, tol: float) -> TPPreservingVerdict:
    """The verdict of tp_preserving_check from the largest |image| with
    a != b and the images diag[i, j, a, p, r] with a = b.  Raises ValueError
    if their average over a, or its unitality sum, leaves the float range."""
    d0, d1, b0 = diag.shape[0], diag.shape[2], diag.shape[3]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = diag.mean(axis=2)
        unital = sum(mean[i, i] for i in range(d0))
    if not (np.isfinite(mean).all() and np.isfinite(unital).all()):
        raise ValueError("the partial trace over B1 overflows the float range")
    fiber = float(np.abs(diag - mean[:, :, None]).max()) if d1 > 1 else 0.0
    unit_dev = float(np.abs(unital - np.eye(b0)).max())
    # the induced Choi's (i, j) block is mean[i, j]
    choi = mean.transpose(0, 2, 1, 3).reshape(d0 * b0, d0 * b0)
    return TPPreservingVerdict(leak, fiber, unit_dev, choi_channel(choi, d0, b0), tol)


@dataclass(frozen=True)
class ClassicalSuperchannel:
    """Diagonal part of a superchannel Choi: the table acting on stochastic matrices.

    T[(j, b), (i, a)] reads the diagonal Choi entry at (i, a, j, b); for a valid
    superchannel each fiber sum over b is a-independent (t[j, i]) and t has
    unit column sums over i.
    """

    T: np.ndarray  # shape (dB0*dB1, dA0*dA1), indexed [(j,b), (i,a)]
    t: np.ndarray  # shape (dB0, dA0)
    fiber_deviation: float
    normalization_deviation: float


def classical_superchannel_extract(s: SuperChoi) -> ClassicalSuperchannel:
    d0, d1, b0, b1 = s.dA0, s.dA1, s.dB0, s.dB1
    # the diagonal Choi entry at (i, a, j, b) is T[(j, b), (i, a)]
    T = s.choi.mat.diagonal().real.reshape(d0 * d1, b0 * b1).T.copy()
    # fiber sums over b must be a-independent; then sum_i t[j, i] = 1
    fibers = T.reshape(b0, b1, d0, d1).sum(axis=1)  # [j, i, a]
    t = fibers.mean(axis=2)
    fiber_dev = float(np.abs(fibers - t[:, :, None]).max()) if d1 > 1 else 0.0
    norm_dev = float(np.abs(t.sum(axis=1) - 1.0).max())
    return ClassicalSuperchannel(T, t, fiber_dev, norm_dev)
