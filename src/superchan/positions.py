"""Where the coefficient tables of DU and sign-symmetric superchannels sit.

Each table T is d^2 x d^2 over the pair index (i, a) -> i*d + a and is read
as T[i, a, j, b].  Entry T_{ia,jb} occupies one entry of the Choi matrix on
(A0, A1, B0, B1): POSITIONS spells its row and column as four labels each,
so "jbia" is the basis vector (A0, A1, B0, B1) = (j, b, i, a).  The support
string names the labels that must differ: "ij" requires i != j, "ab"
requires a != b.  Entries outside the support are exact zeros.

The nine positions are pairwise disjoint.  The first four tables make up a
diagonal-unitary covariant Choi, all nine a sign-symmetric one, and the
positions fill exactly the charge sectors of the respective group (block
structure as in Singh & Nechita, arXiv:2010.07898).  So assembling a Choi
is one scatter per table and reading the tables off it one gather.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

POSITIONS = {
    "A": ("jbia", "jbia", ""),
    "B": ("jaia", "jbib", "ab"),
    "C": ("ibia", "jbja", "ij"),
    "D": ("iaia", "jbjb", "ijab"),
    "E": ("iajb", "jaib", "ij"),
    "P": ("iaja", "jbib", "ijab"),
    "Q": ("iajb", "jbia", "ijab"),
    "R": ("iajb", "ibja", "ab"),
    "S": ("iaib", "jbja", "ijab"),
}


class TablePositions(NamedTuple):
    mask: np.ndarray  # (d^2, d^2) support of the table
    flat: np.ndarray  # flat table indices inside the support
    rows: np.ndarray  # Choi row of each of those entries
    cols: np.ndarray  # Choi column of each of those entries


@functools.lru_cache(maxsize=128)
def table_positions(d: int, name: str) -> TablePositions:
    """Support and Choi positions of table ``name`` at dimension d (read-only)."""
    row_digits, col_digits, support = POSITIONS[name]
    label = dict(zip("iajb", np.indices((d,) * 4).reshape(4, -1)))
    mask = np.ones(d**4, dtype=bool)
    if "i" in support:
        mask &= label["i"] != label["j"]
    if "a" in support:
        mask &= label["a"] != label["b"]

    def choi_index(digits):
        idx = 0
        for ch in digits:
            idx = idx * d + label[ch][mask]
        return idx

    out = TablePositions(
        mask.reshape(d * d, d * d),
        np.flatnonzero(mask),
        choi_index(row_digits),
        choi_index(col_digits),
    )
    for arr in out:
        arr.setflags(write=False)
    return out


def check_table(d: int, name: str, table: np.ndarray) -> None:
    """Reject non-finite entries and nonzero entries outside the support."""
    if not np.isfinite(table).all():
        raise ValueError(f"table {name} has non-finite entries (NaN or Inf)")
    off = table[~table_positions(d, name).mask]
    if off.size and np.abs(off).max() > 0:
        raise ValueError(f"table {name} has nonzero entries outside its support")


def choi_from_tables(p, names: Iterable[str]) -> np.ndarray:
    """The d^4 x d^4 Choi matrix holding the tables ``names`` of p.

    Each entry is added into zeros, as a sum over tables would, so a -0.0
    table entry lands as +0.0.
    """
    d = p.d
    c = np.zeros((d**4, d**4), dtype=complex)
    for name in names:
        pos = table_positions(d, name)
        c[pos.rows, pos.cols] += getattr(p, name).reshape(-1)[pos.flat]
    return c


def tables_from_choi(mat: np.ndarray, d: int, names: Iterable[str]) -> dict:
    """Each table of ``names`` read off its Choi positions, as complex d^2 x d^2."""
    out = {}
    for name in names:
        pos = table_positions(d, name)
        t = np.zeros(d**4, dtype=complex)
        t[pos.flat] = mat[pos.rows, pos.cols]
        out[name] = t.reshape(d * d, d * d)
    return out


@functools.lru_cache(maxsize=16)
def off_pattern_mask(d: int, names: Iterable[str]) -> np.ndarray:
    """The d^4 x d^4 Choi entries where none of the tables ``names`` sits (read-only)."""
    off = np.ones((d**4, d**4), dtype=bool)
    for name in names:
        pos = table_positions(d, name)
        off[pos.rows, pos.cols] = False
    off.setflags(write=False)
    return off


def extraction_residual(mat: np.ndarray, d: int, names: Iterable[str]) -> float:
    """max |rebuilt - mat|, with rebuilt the Choi holding the tables ``names``
    read off mat and table A taken real, in one masked pass over mat.

    Rebuilt agrees with mat exactly on the other table positions, so this is
    the largest |entry| off the positions or |imaginary part| on A's.  A NaN
    in either part is the residual, as it would be in the difference.
    """
    pos = table_positions(d, "A")
    off = np.abs(mat).max(where=off_pattern_mask(d, names), initial=0.0)
    imag = np.abs(mat[pos.rows, pos.cols].imag).max(initial=0.0)
    return float(np.max([off, imag]))


def principal_blocks(p, names: Iterable[str], basis: np.ndarray) -> np.ndarray:
    """Principal blocks of choi_from_tables(p, names), read straight off the tables.

    ``basis`` has shape (blocks, side): row k lists the Choi basis indices of
    block k in order, and no index appears twice.  Returns (blocks, side, side).
    """
    blocks, side = basis.shape
    slot = np.full(p.d**4, -1)
    slot[basis.reshape(-1)] = np.arange(basis.size)
    out = np.zeros(basis.size * side, dtype=complex)
    for name in names:
        pos = table_positions(p.d, name)
        r, c = slot[pos.rows], slot[pos.cols]
        keep = (r >= 0) & (c >= 0) & (r // side == c // side)
        out[r[keep] * side + c[keep] % side] += getattr(p, name).reshape(-1)[pos.flat[keep]]
    return out.reshape(blocks, side, side)
