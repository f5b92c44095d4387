"""Superchannels covariant under conjugation by diagonal sign matrices.

The sign-symmetric class strictly contains the diagonal-unitary one: on top of
the four tables {A, B, C, D} it carries five more {E, P, Q, R, S} whose Choi
positions pick up phases under generic diagonal unitaries but are immune to
signs.  Validation never assembles the d^4 x d^4 Choi: the nine tables'
positions connect the sign-symmetric charge sectors (positions.sectors;
blocks of side 4, 2d and d^2) and fill them, so the spectrum is read off the
tables sector by sector, and every marginal is one partial trace over B1.
"""

from __future__ import annotations

from .du import DUSuperParams, NotDUCovariantError
from .linalg import DEFAULT_TOL
from .positions import TableParams, b1_partial_trace, sector_spectrum
from .superchannels import SuperchannelVerdict, tp_preserving_verdict


class NotDOCovariantError(NotDUCovariantError):
    """The Choi matrix has weight outside the sign-symmetric pattern, and so
    outside the diagonal-unitary one too."""


class DOSuperParams(TableParams):
    """Nine coefficient tables of a sign-symmetric superchannel.

    A is real and the remaining eight are complex, all d^2 x d^2 over the pair
    flattening (i, a) -> i*d + a.  Hermiticity of the assembled Choi has no
    tabulated closed form here; do_validate reads it off the sector blocks.
    """

    NAMES = ("A", "B", "C", "D", "E", "P", "Q", "R", "S")
    FAMILY = "super"
    OFF_PATTERN_ERROR = NotDOCovariantError  # raised by from_choi


def from_du_params(p: DUSuperParams) -> DOSuperParams:
    """Embed a diagonal-unitary covariant parameter set (extra tables zero)."""
    return DOSuperParams.masked(p.d, A=p.A, B=p.B, C=p.C, D=p.D)


def do_validate(p: DOSuperParams, tol: float = DEFAULT_TOL) -> SuperchannelVerdict:
    """validate_superchannel on the Choi of p, with the same values, read off
    the tables in O(d^6) time and O(d^4) memory.
    """
    s = sector_spectrum(p, tol)
    tp = tp_preserving_verdict(0.0, *b1_partial_trace(p), (p.d,) * 3, tol)
    return SuperchannelVerdict(s.is_psd, float(s.evals.min()), float(s.hermiticity.max()), tp)
