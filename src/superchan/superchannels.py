"""Generic superchannels through the Choi matrix of their representing map.

A supermap sending maps M_{dA0} -> M_{dA1} to maps M_{dB0} -> M_{dB1} is
stored as the Choi matrix of the induced linear map on Choi matrices, an
operator on subsystems (A0, A1, B0, B1) in that fixed order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channels import ChoiChannel, choi_channel, compose_choi4
from .linalg import (
    DEFAULT_TOL,
    Frozen,
    MultipartiteOperator,
    kron,
    max_entangled_projector,
    permute_subsystems,
    psd_report,
)
from .positions import TableParams, apply_tables


class SuperChoi(Frozen):
    """Choi matrix of a supermap on subsystems (A0, A1, B0, B1)."""

    __slots__ = ("dA0", "dA1", "dB0", "dB1", "choi")

    def __init__(self, dA0: int, dA1: int, dB0: int, dB1: int, choi: MultipartiteOperator) -> None:
        expected = (dA0, dA1, dB0, dB1)
        if choi.dims != expected:
            raise ValueError(f"choi dims {choi.dims} do not match {expected}")
        object.__setattr__(self, "dA0", dA0)
        object.__setattr__(self, "dA1", dA1)
        object.__setattr__(self, "dB0", dB0)
        object.__setattr__(self, "dB1", dB1)
        object.__setattr__(self, "choi", choi)

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


def apply_to_channel(s: SuperChoi | TableParams, ch: ChoiChannel) -> ChoiChannel:
    """The superchannel s acting on the channel ch, Choi to Choi: a SuperChoi
    through representing_apply, tables straight from their positions
    (positions.apply_tables), without assembling the Choi."""
    tables = isinstance(s, TableParams)
    pair = (s.d, s.d) if tables else (s.dA0, s.dA1)
    if (ch.d_in, ch.d_out) != pair:
        raise ValueError(
            f"channel dims ({ch.d_in}, {ch.d_out}) do not match superchannel "
            f"input pair {pair}"
        )
    if tables:
        return choi_channel(apply_tables(s, ch.choi.mat), s.d, s.d)
    return choi_channel(representing_apply(s, ch.choi).mat, s.dB0, s.dB1)


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


class TPPreservingVerdict(NamedTuple):
    """Result of the induced-map test for trace-preservation of outputs.

    The supermap preserves trace iff tracing the output pair factors through
    tracing the input pair via a map on (A0 -> B0) that is unital.  It keeps
    the images of Tr_B1 it read, their deviations and the worst as a witness.
    """

    offdiagonal_leak: float
    fiber_deviation: float
    unitality_deviation: float
    mean: np.ndarray  # mean[i, j, p, r]: the average over a of the images (i, j, a, p, r)
    tol: float
    image: np.ndarray
    deviation: np.ndarray
    witness: tuple[int, int, int, int, int, int]  # (i, j, a, p, r, a'): tp_preserving_verdict

    @property
    def induced(self) -> ChoiChannel:
        """The induced map on (A0 -> B0), whose Choi's (i, j) block is mean[i, j]."""
        d0, b0 = self.mean.shape[1:3]
        return choi_channel(self.mean.transpose(0, 2, 1, 3).reshape(d0 * b0, d0 * b0), d0, b0)

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


class SuperchannelVerdict(NamedTuple):
    """The superchannel conditions: the Choi spectrum and the trace check tp.

    The reduced operator C0 on (A0, B0) is tp's induced Choi, so the
    factorization residual || Tr_B1 C - C0 (x) I_A1 ||_max is
    max(offdiagonal_leak, fiber_deviation) and the marginal residual the
    unitality deviation, and is_tp is tp.ok: a fiber deviation is never NaN.
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
        return self.tp.ok

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
    diag = images[:, :, range(d1), range(d1)].reshape(-1)
    return tp_preserving_verdict(leak, np.arange(diag.size), diag, (d0, d1, s.dB0), tol)


def tp_preserving_verdict(leak: float, image: np.ndarray, sums: np.ndarray,
                          dims: tuple[int, int, int], tol: float) -> TPPreservingVerdict:
    """The verdict of tp_preserving_check from the largest |image| with a != b
    and the images with a = b: sums (complex), at the ascending flat indices
    image into (i, j, a, p, r) of shape (d0, d0, d1, b0, b0), dims = (d0, d1,
    b0).  An image left out is zero and each fiber (i, j, p, r) holds d1 or
    none; its average is one bincount over them divided by d1.  The witness is the first
    image within slack = tol * max(1, largest real or imaginary part of an
    image) of the largest deviation, then the first a' of its fiber as far
    from it, so roundoff among ties does not move it.  Raises ValueError if
    an average, or its unitality sum, leaves the float range."""
    d0, d1, b0 = dims
    fiber = image // (d1 * b0 * b0) * b0 * b0 + image % (b0 * b0)
    mean = np.empty(d0 * d0 * b0 * b0, dtype=complex)
    mean.real = np.bincount(fiber, sums.real, mean.size)
    mean.imag = np.bincount(fiber, sums.imag, mean.size)
    mean4 = mean.reshape(d0, d0, b0, b0)
    with np.errstate(over="ignore", invalid="ignore"):  # past the float maximum is inf
        mean /= d1
        unital = sum(mean4[i, i] for i in range(d0))
        if not (np.isfinite(mean).all() and np.isfinite(unital).all()):
            raise ValueError("the partial trace over B1 overflows the float range")
        dev = np.abs(sums - mean[fiber])
        slack = tol * max(1.0, np.abs(sums.view(float)).max())  # real and imaginary parts
        top, k = _first_near_max(dev, slack)
        far = _first_near_max(np.abs(sums[fiber == fiber[k]] - sums[k]), slack)[1]
    witness, flat = [far], int(image[k])
    for size in (b0, b0, d1, d0, d0):  # (i, j, a, p, r) from the last digit
        flat, digit = divmod(flat, size)
        witness.insert(0, digit)
    unital.reshape(-1)[:: b0 + 1] -= 1  # less the identity
    return TPPreservingVerdict(leak, float(top), float(np.abs(unital).max()), mean4, tol,
                               image, dev, tuple(witness))


def _first_near_max(x: np.ndarray, slack: float) -> tuple[float, int]:
    """The maximum of x and the first index within slack of it, or of its
    first inf."""
    top = x.max()
    return top, int(np.argmax(x == top if math.isinf(top) else x >= top - slack))


class ClassicalSuperchannel(NamedTuple):
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
