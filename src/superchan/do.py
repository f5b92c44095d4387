"""Superchannels covariant under conjugation by diagonal sign matrices.

The sign-symmetric class strictly contains the diagonal-unitary one: on top of
the four tables {A, B, C, D} it carries five more {E, P, Q, R, S} whose Choi
positions pick up phases under generic diagonal unitaries but are immune to
signs.  Validation assembles the Choi and runs the generic Choi-level
checks, except that positivity is decided exactly from the charge sectors of
the sign-symmetric group (linalg.charge_sectors with unordered pairs): the
Choi is block diagonal over them, with blocks of side 4, 2d and d^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .du import DUSuperParams
from .linalg import DEFAULT_TOL, charge_sectors
from .positions import check_table, choi_from_tables, table_positions, tables_from_choi
from .superchannels import (
    SuperChoi,
    SuperchannelVerdict,
    TPPreservingVerdict,
    super_choi,
    tp_preserving_check,
    validate_superchannel,
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
    tabulated closed form here; check it numerically on the Choi when needed.
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
        d = self.d
        for name in TABLE_NAMES:
            t = np.asarray(
                getattr(self, name), dtype=float if name == "A" else complex
            )
            if t.shape != (d * d, d * d):
                raise ValueError(f"{name} must be {d * d}x{d * d}")
            check_table(d, name, t)
            t.setflags(write=False)
            object.__setattr__(self, name, t)

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
    """Read the nine tables off their unique positions; reject off-pattern weight."""
    if not (s.dA0 == s.dA1 == s.dB0 == s.dB1):
        raise ValueError("extraction requires equal subsystem dimensions")
    d = s.dA0
    t = tables_from_choi(s.choi.mat, d, TABLE_NAMES)
    params = DOSuperParams(d, **{**t, "A": t["A"].real})
    residual = float(np.abs(do_build_choi(params).choi.mat - s.choi.mat).max())
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
    """Positivity and trace conditions checked on the assembled Choi.

    The spectrum for positivity is read sector by sector over the
    sign-symmetric charge sectors, which gives the same verdict as a dense
    eigensolve of the whole Choi at a small fraction of its cost.
    """
    s = do_build_choi(p)
    verdict = validate_superchannel(s, tol, charge_sectors(p.d, "unordered"))
    tp, _ = tp_preserving_check(s, tol)
    return DOVerdict(verdict, tp)
