"""Dephasing superchannels: entrywise multiplication of Choi matrices.

The representing map is C -> M_big o C (Schur product), where M_big is a
d^2 x d^2 table over the pair flattening (i, a) -> i*d + a.  Complete
positivity is exactly positivity of M_big; trace preservation is the
a-independence of the fibers M_big[(i,a),(j,a)] together with a unit
diagonal of the resulting d x d covariance matrix.

M_big is one more table of the position map: M_big[K, L] sits at Choi row
e_K (x) e_K and column e_L (x) e_L (positions.POSITIONS["M_big"]), so the
Choi, the table checks, the partial trace over B1, the JSON codec, the
action (apply_to_channel), the composition and the action on DUC, CDUC and
DOC channel tables (positions.compose_tables) and the four DU tables
(du.from_choi) are the shared ones.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channels import PARAM_EDGE_TOL
from .linalg import DEFAULT_TOL, psd_report
from .positions import TableParams, b1_partial_trace
from .superchannels import TPPreservingVerdict, tp_preserving_verdict


class DephasingSuperParams(TableParams):
    """The Schur-multiplier table of a dephasing superchannel."""

    NAMES = ("M_big",)
    FAMILY = "super"


class DephasingVerdict(NamedTuple):
    """The three named dephasing validity checks.

    psd_ok covers complete positivity; fiber_deviation measures the worst
    a-dependence of M_big[(i,a),(j,a)] with its witness (i, j, a, a');
    diagonal_deviation measures | M_ii - 1 | of the induced covariance matrix
    M[i, j] = mean_a M_big[(i,a),(j,a)] (covariance, left out of report()).
    """

    psd_ok: bool
    min_eigenvalue: float
    fiber_deviation: float
    fiber_witness: tuple[int, int, int, int]
    diagonal_deviation: float
    covariance: np.ndarray  # d x d, unit diagonal when the check passes
    tol: float
    tp: TPPreservingVerdict  # the trace verdict the last four are read off

    @property
    def ok(self) -> bool:
        return self.psd_ok and self.tp.ok

    def report(self) -> dict:
        return {
            "valid": self.ok,
            "psd": self.psd_ok,
            "min_eig": self.min_eigenvalue,
            "fiber_deviation": self.fiber_deviation,
            "fiber_witness": self.fiber_witness,
            "diagonal_deviation": self.diagonal_deviation,
        }


def dephasing_validate(p: DephasingSuperParams, tol: float = DEFAULT_TOL) -> DephasingVerdict:
    """The three named checks: psd_report of M_big, and the trace half read
    off tp_preserving_verdict of the partial trace over B1, whose images are
    the fibers' entries, with covariance[i, j] = mean[i, j, i, j].  The test
    suite asserts that they are the generic checks of build_choi(p)."""
    psd_ok, min_eig, _ = psd_report(p.M_big, tol)
    tp = tp_preserving_verdict(0.0, *b1_partial_trace(p), (p.d,) * 3, tol)
    return DephasingVerdict(psd_ok, min_eig, tp.fiber_deviation, (*tp.witness[:3], tp.witness[5]),
                            tp.unitality_deviation, np.einsum("ijij->ij", tp.mean), tol, tp)


def dephasing_from_realization(u_list, v_list, psi) -> DephasingSuperParams:
    """Multiplier table of the block-diagonal-unitary dilation.

    With system-controlled environment unitaries U_i (before) and V_a (after)
    and environment state psi, the table is the cross Gram form

        M_big[(i,a),(j,b)] = <psi| U_j^dag V_b^dag V_a U_i |psi>,

    which is always a valid dephasing superchannel: M_big is the conjugate of
    a Gram matrix (hence PSD), its fibers collapse to <psi|U_j^dag U_i|psi>
    independently of a, and the diagonal is 1.  Symmetrizing the Gram
    product makes the table exactly Hermitian.
    """
    us = [np.asarray(u, dtype=complex) for u in u_list]
    vs = [np.asarray(v, dtype=complex) for v in v_list]
    d = len(us)
    if len(vs) != d:
        raise ValueError("need equally many U and V unitaries (one per level)")
    e = us[0].shape[0]
    for w in (*us, *vs):
        if w.shape != (e, e):
            raise ValueError("all unitaries must share the environment dimension")
        if np.abs(w.conj().T @ w - np.eye(e)).max() > PARAM_EDGE_TOL:
            raise ValueError("inputs must be unitary")
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (e,):
        raise ValueError(f"psi must have the environment dimension {e}")
    if abs(np.linalg.norm(psi) - 1.0) > PARAM_EDGE_TOL:
        raise ValueError("psi must be normalized")
    flat = np.array([v @ (u @ psi) for u in us for v in vs])  # row j*d + b: V_b U_j psi
    g = flat @ flat.conj().T
    return DephasingSuperParams(d, (g + g.conj().T) / 2)
