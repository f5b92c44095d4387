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
from itertools import product

import numpy as np

from .du import DUSuperParams, _support_masks, _check_table
from .linalg import DEFAULT_TOL, charge_sectors
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


def _do_support_masks(d: int):
    i, a, j, b = np.ogrid[:d, :d, :d, :d]
    masks = _support_masks(d)
    masks.update(
        {
            "E": np.broadcast_to(i != j, (d, d, d, d)),
            "P": np.broadcast_to((i != j) & (a != b), (d, d, d, d)),
            "Q": np.broadcast_to((i != j) & (a != b), (d, d, d, d)),
            "R": np.broadcast_to(a != b, (d, d, d, d)),
            "S": np.broadcast_to((i != j) & (a != b), (d, d, d, d)),
        }
    )
    return masks


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
        masks = _do_support_masks(d)
        for name in TABLE_NAMES:
            t = np.asarray(
                getattr(self, name), dtype=float if name == "A" else complex
            )
            if t.shape != (d * d, d * d):
                raise ValueError(f"{name} must be {d * d}x{d * d}")
            _check_table(name, t, masks[name])
            t.setflags(write=False)
            object.__setattr__(self, name, t)

    def t4(self, name: str) -> np.ndarray:
        d = self.d
        return getattr(self, name).reshape(d, d, d, d)


def do_mask_tables(d: int, **tables) -> DOSuperParams:
    """Build params from unmasked arrays, zeroing out-of-support entries.

    Missing tables default to zero.
    """
    masks = _do_support_masks(d)
    out = {}
    for name in TABLE_NAMES:
        t = tables.get(name)
        if t is None:
            t = np.zeros((d * d, d * d))
        dtype = float if name == "A" else complex
        t = np.asarray(t, dtype=dtype)
        out[name] = np.where(masks[name].reshape(d * d, d * d), t, 0.0)
    return DOSuperParams(d, **out)


def from_du_params(p: DUSuperParams) -> DOSuperParams:
    """Embed a diagonal-unitary covariant parameter set (extra tables zero)."""
    return do_mask_tables(p.d, A=p.A, B=p.B, C=p.C, D=p.D)


def do_build_choi(p: DOSuperParams) -> SuperChoi:
    """Assemble the nine-component Choi matrix on (A0, A1, B0, B1).

    The first four tables land exactly where the diagonal-unitary build puts
    them; the extra five occupy the additional sign-symmetric positions:
      E_{ia,jb} at ((i,a,j,b), (j,a,i,b))    P_{ia,jb} at ((i,a,j,a), (j,b,i,b))
      Q_{ia,jb} at ((i,a,j,b), (j,b,i,a))    R_{ia,jb} at ((i,a,j,b), (i,b,j,a))
      S_{ia,jb} at ((i,a,i,b), (j,b,j,a))
    """
    d = p.d
    a4, b4, c4, d4, e4, p4, q4, r4, s4 = (p.t4(n) for n in TABLE_NAMES)
    c = np.zeros((d**4, d**4), dtype=complex)
    c8 = c.reshape((d,) * 8)
    for i, a, j, b in product(range(d), repeat=4):
        c8[j, b, i, a, j, b, i, a] += a4[i, a, j, b]
        if a != b:
            c8[j, a, i, a, j, b, i, b] += b4[i, a, j, b]
            c8[i, a, j, b, i, b, j, a] += r4[i, a, j, b]
        if i != j:
            c8[i, b, i, a, j, b, j, a] += c4[i, a, j, b]
            c8[i, a, j, b, j, a, i, b] += e4[i, a, j, b]
            if a != b:
                c8[i, a, i, a, j, b, j, b] += d4[i, a, j, b]
                c8[i, a, j, a, j, b, i, b] += p4[i, a, j, b]
                c8[i, a, j, b, j, b, i, a] += q4[i, a, j, b]
                c8[i, a, i, b, j, b, j, a] += s4[i, a, j, b]
    return super_choi(c, (d, d, d, d))


def do_from_choi(s: SuperChoi, tol: float = DEFAULT_TOL) -> DOSuperParams:
    """Read the nine tables off their unique positions; reject off-pattern weight."""
    if not (s.dA0 == s.dA1 == s.dB0 == s.dB1):
        raise ValueError("extraction requires equal subsystem dimensions")
    d = s.dA0
    c8 = s.choi.mat.reshape((d,) * 8)
    t = {name: np.zeros((d, d, d, d), dtype=complex) for name in TABLE_NAMES}
    for i, a, j, b in product(range(d), repeat=4):
        t["A"][i, a, j, b] = c8[j, b, i, a, j, b, i, a]
        if a != b:
            t["B"][i, a, j, b] = c8[j, a, i, a, j, b, i, b]
            t["R"][i, a, j, b] = c8[i, a, j, b, i, b, j, a]
        if i != j:
            t["C"][i, a, j, b] = c8[i, b, i, a, j, b, j, a]
            t["E"][i, a, j, b] = c8[i, a, j, b, j, a, i, b]
            if a != b:
                t["D"][i, a, j, b] = c8[i, a, i, a, j, b, j, b]
                t["P"][i, a, j, b] = c8[i, a, j, a, j, b, i, b]
                t["Q"][i, a, j, b] = c8[i, a, j, b, j, b, i, a]
                t["S"][i, a, j, b] = c8[i, a, i, b, j, b, j, a]
    params = DOSuperParams(
        d, t["A"].reshape(d * d, d * d).real,
        *(t[name].reshape(d * d, d * d) for name in TABLE_NAMES[1:]),
    )
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
