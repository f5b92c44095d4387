"""Superchannels covariant under conjugation by diagonal sign matrices.

The sign-symmetric class strictly contains the diagonal-unitary one: on top of
the four tables {A, B, C, D} it carries five more {E, P, Q, R, S} whose Choi
positions pick up phases under generic diagonal unitaries but are immune to
signs.  Validation never assembles the d^4 x d^4 Choi: the table positions
fill the sign-symmetric charge sectors (linalg.charge_sectors with unordered
pairs; blocks of side 4, 2d and d^2) exactly, so the spectrum is read off
the tables sector by sector, and every marginal is one partial trace over B1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .du import DUSuperParams
from .linalg import DEFAULT_TOL, charge_sectors
from .positions import (
    b1_partial_trace,
    choi_from_tables,
    extraction_residual,
    init_tables,
    sector_spectrum,
    table_positions,
    tables_from_choi,
)
from .superchannels import (
    SuperChoi,
    SuperchannelVerdict,
    TPPreservingVerdict,
    super_choi,
    tp_preserving_verdict,
)


class NotDOCovariantError(ValueError):
    """The Choi matrix has weight outside the sign-symmetric pattern."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"off-pattern residual {residual:.3e} exceeds tolerance {tol:.1e}"
        )


TABLE_NAMES = ("A", "B", "C", "D", "E", "P", "Q", "R", "S")


@dataclass(frozen=True)
class DOSuperParams:
    """Nine coefficient tables of a sign-symmetric superchannel.

    A is real and the remaining eight are complex, all d^2 x d^2 over the pair
    flattening (i, a) -> i*d + a.  Hermiticity of the assembled Choi has no
    tabulated closed form here; do_validate reads it off the sector blocks.
    """

    d: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray

    def __post_init__(self) -> None:
        init_tables(self, TABLE_NAMES)

    def t4(self, name: str) -> np.ndarray:
        d = self.d
        return getattr(self, name).reshape(d, d, d, d)


def do_mask_tables(d: int, **tables) -> DOSuperParams:
    """Build params from unmasked arrays, zeroing out-of-support entries.

    Missing tables default to zero.
    """
    out = {}
    for name in TABLE_NAMES:
        t = tables.get(name)
        if t is None:
            t = np.zeros((d * d, d * d))
        dtype = float if name == "A" else complex
        t = np.asarray(t, dtype=dtype)
        out[name] = np.where(table_positions(d, name).mask, t, 0.0)
    return DOSuperParams(d, **out)


def from_du_params(p: DUSuperParams) -> DOSuperParams:
    """Embed a diagonal-unitary covariant parameter set (extra tables zero)."""
    return do_mask_tables(p.d, A=p.A, B=p.B, C=p.C, D=p.D)


def do_build_choi(p: DOSuperParams) -> SuperChoi:
    """Assemble the nine-component Choi matrix on (A0, A1, B0, B1).

    The first four tables land exactly where the diagonal-unitary build puts
    them and the extra five on the further sign-symmetric positions, all as
    listed in positions.POSITIONS.
    """
    return super_choi(choi_from_tables(p, TABLE_NAMES), (p.d,) * 4)


def do_from_choi(s: SuperChoi, tol: float = DEFAULT_TOL) -> DOSuperParams:
    """Read the nine tables off their unique positions; reject off-pattern weight.

    The residual is the largest modulus in do_build_choi(params) - s.
    """
    if not (s.dA0 == s.dA1 == s.dB0 == s.dB1):
        raise ValueError("extraction requires equal subsystem dimensions")
    d = s.dA0
    t = tables_from_choi(s.choi.mat, d, TABLE_NAMES)
    params = DOSuperParams(d, **{**t, "A": t["A"].real})
    residual = extraction_residual(s.choi.mat, d, TABLE_NAMES)
    if residual > tol:
        raise NotDOCovariantError(residual, tol)
    return params


@dataclass(frozen=True)
class DOVerdict:
    """Generic Choi-level validity of a nine-table parameter set."""

    choi_verdict: SuperchannelVerdict
    tp_verdict: TPPreservingVerdict

    @property
    def ok(self) -> bool:
        return self.choi_verdict.ok and self.tp_verdict.ok

    def report(self) -> dict:
        out = self.choi_verdict.report()
        out.update(self.tp_verdict.report())
        return out


def do_validate(p: DOSuperParams, tol: float = DEFAULT_TOL) -> DOVerdict:
    """validate_superchannel and tp_preserving_check on the Choi of p, with
    the same values, read off the tables in O(d^6) time and O(d^5) memory.

    validate_superchannel's C0 is the induced Choi of the trace check, so its
    factorization residual is max(offdiagonal_leak, fiber_deviation) and its
    marginal residual the unitality deviation.
    """
    is_psd, evals, _, herm = sector_spectrum(
        p, TABLE_NAMES, charge_sectors(p.d, "unordered"), tol)
    leak, diag = b1_partial_trace(p, TABLE_NAMES)
    tp = tp_preserving_verdict(leak, diag, tol)
    fact_dev = max(leak, tp.fiber_deviation)
    return DOVerdict(SuperchannelVerdict(
        is_psd, float(evals.min()), fact_dev, tp.unitality_deviation, herm, tol), tp)
