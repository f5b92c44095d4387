"""Where the coefficient tables of the diagonal families sit in their Choi matrices.

Two families share one set of helpers, chosen by the FAMILY of a
TableParams class:

* "super": the nine tables of DU and sign-symmetric superchannels and the
  multiplier table M_big of a dephasing one.  Each table T is d^2 x d^2
  over the pair index (i, a) -> i*d + a and is read as T[i, a, j, b].  Entry
  T_{ia,jb} occupies one entry of the Choi matrix on (A0, A1, B0, B1), so
  "jbia" is the basis vector (A0, A1, B0, B1) = (j, b, i, a).  The first
  four tables make up a diagonal-unitary covariant Choi, all nine a
  sign-symmetric one; M_big alone sits where D does, on its full support.
* "channel": the tables (A, B, C) of DUC, CDUC and DOC channels in Singh &
  Nechita's notation.  Each is d x d, read as T[i, j], on the Choi of a map
  M_d -> M_d over (in, out).

POSITIONS spells each entry's Choi row and column as one label per
subsystem.  The support string names the labels that must differ: "ij"
requires i != j, "ab" requires a != b.  Entries outside the support are
exact zeros.  The positions of the tables of one TableParams class (its
NAMES) are pairwise disjoint; tables of different classes may share
positions.  They also give the block structure of the Choi (the charge
sectors of Singh & Nechita, arXiv:2010.07898, derived by sectors), so
assembling a Choi is one scatter per table, reading the tables off it one
gather, its spectrum one batched eigensolve per sector size, the action of
the assembled map one gather-multiply-add per table, and composing two sets
of tables one product (matrix, entrywise or einsum) per table triple of
composition_plan.  The same plan composes superchannel tables with channel
tables, giving the tables of the transformed channel.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import ClassVar, NamedTuple

import numpy as np

from .linalg import hermitian_eigenvalues, psd_accepts

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
    "M_big": ("iaia", "jbjb", ""),
}

CHANNEL_POSITIONS = {
    "A": ("ji", "ji", ""),
    "B": ("ii", "jj", "ij"),
    "C": ("ji", "ij", "ij"),
}

# family -> (the labels of a table entry in index order, its positions)
FAMILIES = {"super": ("iajb", POSITIONS), "channel": ("ij", CHANNEL_POSITIONS)}


class TablePositions(NamedTuple):
    mask: np.ndarray  # support of the table, in its shape
    flat: np.ndarray  # flat table indices inside the support
    rows: np.ndarray  # Choi row of each of those entries
    cols: np.ndarray  # Choi column of each of those entries


@functools.lru_cache(maxsize=128)
def table_positions(d: int, name: str, family: str = "super") -> TablePositions:
    """Support and Choi positions of table ``name`` at dimension d (read-only)."""
    if d < 1:
        raise ValueError(f"dimension d must be positive, got {d}")
    labels, positions = FAMILIES[family]
    row_digits, col_digits, support = positions[name]
    label = dict(zip(labels, np.indices((d,) * len(labels)).reshape(len(labels), -1)))
    mask = np.ones(d ** len(labels), dtype=bool)
    for s, t in zip(support[::2], support[1::2]):  # "ijab": i != j and a != b
        mask &= label[s] != label[t]

    def choi_index(digits):
        idx = 0
        for ch in digits:
            idx = idx * d + label[ch][mask]
        return idx

    side = d ** (len(labels) // 2)
    out = TablePositions(
        mask.reshape(side, side),
        np.flatnonzero(mask),
        choi_index(row_digits),
        choi_index(col_digits),
    )
    for arr in out:
        arr.setflags(write=False)
    return out


class TableParams:
    """Base of the frozen dataclasses that hold one family's coefficient tables.

    NAMES lists the tables in field order and FAMILY ("super" or "channel")
    selects their positions; every helper below that takes such an object,
    or its class, reads both from it.  Construction checks the tables
    (init_tables).
    """

    NAMES: ClassVar[tuple[str, ...]]
    FAMILY: ClassVar[str]

    def __post_init__(self) -> None:
        init_tables(self)

    @classmethod
    def masked(cls, d: int, *tables, **named):
        """Params from unmasked arrays, given in NAMES order or by name, with
        out-of-support entries zeroed; missing tables are zero."""
        given = {**dict(zip(cls.NAMES, tables)), **named}
        out = {}
        for name in cls.NAMES:
            t = np.asarray(given.get(name, 0.0), dtype=complex)
            out[name] = np.where(table_positions(d, name, cls.FAMILY).mask, t, 0.0)
        return cls(d, **out)

    def t4(self, name: str) -> np.ndarray:
        """A table with one axis per label: [i, a, j, b], or [i, j] for a channel."""
        return getattr(self, name).reshape((self.d,) * len(FAMILIES[self.FAMILY][0]))


def init_tables(p: TableParams) -> None:
    """Set each table of the frozen dataclass p to a read-only copy, real for
    A and complex otherwise, after checking d >= 1 and each table's shape and
    entries: non-finite entries, a nonzero imaginary part of A and nonzero
    entries outside the support are rejected.  The caller's arrays stay
    writable."""
    if p.d < 1:
        raise ValueError(f"dimension d must be positive, got {p.d}")
    side = p.d ** (len(FAMILIES[p.FAMILY][0]) // 2)
    for name in p.NAMES:
        t = np.array(getattr(p, name), dtype=complex)
        if t.shape != (side, side):
            raise ValueError(f"{name} must be {side}x{side}")
        if not np.isfinite(t).all():
            raise ValueError(f"table {name} has non-finite entries (NaN or Inf)")
        if name == "A":
            if t.imag.any():
                raise ValueError("table A must be real")
            t = t.real.copy()
        off = t[~table_positions(p.d, name, p.FAMILY).mask]
        if off.size and np.abs(off).max() > 0:
            raise ValueError(f"table {name} has nonzero entries outside its support")
        t.setflags(write=False)
        object.__setattr__(p, name, t)


def _entries(p: TableParams):
    """(Choi rows, Choi columns, values) of every table entry of p."""
    pos = [table_positions(p.d, name, p.FAMILY) for name in p.NAMES]
    rows, cols = (np.concatenate([getattr(x, f) for x in pos]) for f in ("rows", "cols"))
    vals = np.concatenate([getattr(p, n).reshape(-1)[x.flat] for n, x in zip(p.NAMES, pos)])
    return rows, cols, vals


def choi_from_tables(p: TableParams) -> np.ndarray:
    """The Choi matrix holding the tables of p.

    Each entry is added into zeros, as a sum over tables would, so a -0.0
    table entry lands as +0.0.
    """
    side = p.d ** len(FAMILIES[p.FAMILY][0])
    c = np.zeros((side, side), dtype=complex)
    for name in p.NAMES:
        pos = table_positions(p.d, name, p.FAMILY)
        c[pos.rows, pos.cols] += getattr(p, name).reshape(-1)[pos.flat]
    return c


def tables_from_choi(mat: np.ndarray, d: int, cls: type[TableParams]) -> dict:
    """Each table of cls read off its Choi positions, as a complex square array."""
    out = {}
    for name in cls.NAMES:
        pos = table_positions(d, name, cls.FAMILY)
        out[name] = np.zeros(pos.mask.shape, dtype=complex)
        out[name].flat[pos.flat] = mat[pos.rows, pos.cols]
    return out


@functools.lru_cache(maxsize=16)
def off_pattern_mask(d: int, cls: type[TableParams]) -> np.ndarray:
    """The Choi entries where no table of cls sits (read-only)."""
    side = d ** len(FAMILIES[cls.FAMILY][0])
    off = np.ones((side, side), dtype=bool)
    for name in cls.NAMES:
        pos = table_positions(d, name, cls.FAMILY)
        off[pos.rows, pos.cols] = False
    off.setflags(write=False)
    return off


def off_pattern_weight(mat: np.ndarray, d: int, cls: type[TableParams]) -> float:
    """Largest |entry| of mat off the positions of the tables of cls (0 if none)."""
    return float(np.abs(mat).max(where=off_pattern_mask(d, cls), initial=0.0))


def extraction_residual(mat: np.ndarray, d: int, cls: type[TableParams]) -> float:
    """max |rebuilt - mat|, with rebuilt the Choi holding the tables of cls
    read off mat and table A taken real, in one masked pass over mat.

    Rebuilt agrees with mat exactly on the other table positions, so this is
    the largest |entry| off the positions or |imaginary part| on A's.  A NaN
    in either part is the residual, as it would be in the difference.
    """
    pos = table_positions(d, "A", cls.FAMILY)
    imag = np.abs(mat[pos.rows, pos.cols].imag).max(initial=0.0)
    return float(np.max([off_pattern_weight(mat, d, cls), imag]))


def apply_tables(p: TableParams, x: np.ndarray) -> np.ndarray:
    """The representing map of choi_from_tables(p) applied to the
    d^2 x d^2 operator x, without assembling the Choi.

    As superchannels.representing_apply, y[a, b] = sum_ij x[i, j] C[ia, jb]
    over the pair indices of (A0, A1) and (B0, B1): each table entry at Choi
    (row, col) reads x at (row // d^2, col // d^2) and its product is added
    into y at (row % d^2, col % d^2), in O(d^4) time and memory.  Sums start
    from +0.0, and an entry of y fed by one product alone is that product, so
    a -0.0 from an entrywise scaling (table D) stays -0.0.
    """
    n = p.d * p.d
    rows, cols, vals = _entries(p)
    terms = vals * x[rows // n, cols // n]
    out = (rows % n) * n + cols % n
    y = np.empty(n * n, dtype=complex)
    y.real = np.bincount(out, terms.real, n * n)
    y.imag = np.bincount(out, terms.imag, n * n)
    single = np.bincount(out, minlength=n * n)[out] == 1
    y[out[single]] = terms[single]
    return y.reshape(n, n)


@functools.lru_cache(maxsize=32)
def sectors(d: int, cls: type[TableParams]) -> tuple[np.ndarray, ...]:
    """The charge sectors of the Choi of cls's tables at dimension d, the
    blocks its positions connect: one read-only (count, side) array per
    sector size, sizes ascending, each row a sector's indices in ascending
    order and rows ordered by their first index.

    The positions fill their blocks, so each index's least partner (one
    np.minimum.at per table) is its block's first index.  Raises ValueError
    if a position joins two blocks so found; principal_blocks would drop it.
    """
    root = np.arange(d ** len(FAMILIES[cls.FAMILY][0]))
    pos = [table_positions(d, name, cls.FAMILY) for name in cls.NAMES]
    for x in pos:
        np.minimum.at(root, x.rows, x.cols)
    if any((root[x.rows] != root[x.cols]).any() for x in pos):
        raise ValueError(f"a position of {cls.__name__} joins two blocks at d={d}")
    order = np.argsort(root, kind="stable")
    _, starts, counts = np.unique(root[order], return_index=True, return_counts=True)
    blocks = []
    for size in np.unique(counts):
        rows = order[starts[counts == size][:, None] + np.arange(size)]
        rows.setflags(write=False)
        blocks.append(rows)
    return tuple(blocks)


def principal_blocks(p: TableParams, basis: np.ndarray) -> np.ndarray:
    """Principal blocks of choi_from_tables(p), read straight off the tables.

    ``basis`` has shape (blocks, side): row k lists the Choi basis indices of
    block k in order, and no index appears twice.  Returns (blocks, side, side).
    """
    blocks, side = basis.shape
    slot = np.full(p.d ** len(FAMILIES[p.FAMILY][0]), -1)
    slot[basis.reshape(-1)] = np.arange(basis.size)
    out = np.zeros(basis.size * side, dtype=complex)
    for name in p.NAMES:
        pos = table_positions(p.d, name, p.FAMILY)
        r, c = slot[pos.rows], slot[pos.cols]
        keep = (r >= 0) & (c >= 0) & (r // side == c // side)
        out[r[keep] * side + c[keep] % side] += getattr(p, name).reshape(-1)[pos.flat[keep]]
    return out.reshape(blocks, side, side)


class SectorSpectrum(NamedTuple):
    """What sector_spectrum reads; per-sector arrays follow sectors(d, cls)."""

    is_psd: bool
    evals: np.ndarray  # every eigenvalue, sector by sector
    first: np.ndarray  # each sector's first index,
    minimum: np.ndarray  # its least eigenvalue
    hermiticity: np.ndarray  # and its Hermiticity deviation
    max_entry: float  # the Choi's largest |entry|


def sector_spectrum(p: TableParams, tol: float) -> SectorSpectrum:
    """The spectrum of choi_from_tables(p), read off the tables sector by
    sector (sectors(p.d, type(p))) in one batched eigensolve per sector size,
    1 x 1 sectors as their real part.  No position lies between sectors, so
    the entry maximum and the largest Hermiticity deviation over them are
    the Choi's, and psd_accepts decides on the Choi's own scale.
    """
    evals, first, minimum, herm = [], [], [], []
    max_entry = 0.0
    for rows in sectors(p.d, type(p)):
        stack = principal_blocks(p, rows)
        e = stack[:, :, 0].real if rows.shape[1] == 1 else hermitian_eigenvalues(stack)
        evals.append(e.reshape(-1))
        first.append(rows[:, 0])
        minimum.append(e[:, 0])
        herm.append(np.abs(stack - stack.transpose(0, 2, 1).conj()).max(axis=(1, 2)))
        max_entry = max(max_entry, float(np.abs(stack).max()))
    evals, herm = np.concatenate(evals), np.concatenate(herm)
    return SectorSpectrum(psd_accepts(evals, max_entry, float(herm.max()), tol), evals,
                          np.concatenate(first), np.concatenate(minimum), herm, max_entry)


def b1_partial_trace(p: TableParams) -> tuple[float, np.ndarray]:
    """Tr_B1 of choi_from_tables(p) as (largest |images| with a != b,
    diag[i, j, a, p, r] = images[i, j, a, a, p, r]), with images as in
    superchannels.tp_preserving_check, in O(d^5) memory.  The terms are the
    table entries whose row and column B1 digits agree, summed in increasing
    q from zero as the einsum there does, so both are bit-identical to it
    (the nine positions put every such term at a = b).
    """
    d = p.d
    rows, cols, vals = _entries(p)
    keep = rows % d == cols % d
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    # A0, A1, B0 digits: (i, a, p) of each row and (j, b, r) of each column
    (i, a, pr), (j, b, pc) = (np.unravel_index(x // d, (d,) * 3) for x in (rows, cols))
    key = np.ravel_multi_index((i, j, a, b, pr, pc), (d,) * 6)
    diag_index = np.ravel_multi_index((i, j, a, pr, pc), (d,) * 5)
    order = np.lexsort((rows % d, key))  # by image, then by q
    on, key, diag_index, vals = (x[order] for x in (a == b, key, diag_index, vals))
    diag = np.bincount(diag_index[on], vals[on].real, d**5)
    diag = diag + 1j * np.bincount(diag_index[on], vals[on].imag, d**5)
    k, v = key[~on], vals[~on]
    leak = np.abs(np.add.reduceat(v, np.flatnonzero(np.diff(k, prepend=-1)))).max(initial=0.0)
    return float(leak), diag.reshape((d,) * 5)


@functools.lru_cache(maxsize=None)
def composition_plan(pcls: type[TableParams], qcls: type[TableParams]) -> tuple:
    """(R, P, Q, einsum labels of P, Q and R) for each table triple through
    which compose_tables feeds table R of qcls from P of p and Q of q.

    p after q is the link product of the Chois (Chiribella, D'Ariano &
    Perinotti, arXiv:0804.0180): q's last digits, as many as p has
    in-digits, meet p's in-digits, and the result sits on q's other digits
    and p's out-digits, rows and columns alike.  Within one class those are
    q's out- and in-digits; for superchannel tables after channel tables
    they are all of q's (in, out) and none, so p acts on q's Choi
    (apply_tables) and the result sits on (B0, B1).  The labels ("Pi" is
    label i of P) are unified under those equalities; a triple that forces
    a support pair equal adds nothing.  Raises ValueError if the terms of a
    (P, Q) pair feed no table of qcls: the result is not of q's class.
    """
    (plabels, ppos), (qlabels, qpos) = FAMILIES[pcls.FAMILY], FAMILIES[qcls.FAMILY]
    labels, pos = {"P": plabels, "Q": qlabels, "R": qlabels}, {"P": ppos, "Q": qpos, "R": qpos}
    half = len(plabels) // 2  # p's in-digits: A0 A1 (of A0 A1 | B0 B1) or in (of in | out)
    rest = len(qlabels) - half  # q's digits p does not meet: its in-digits, or none

    def join(**roles):  # find() of the label classes, None if a support pair is forced equal
        parent = {}

        def find(k):  # a loop, not a recursion: a self-calling closure is a cycle
            while k in parent:
                k = parent[k]
            return k

        for side in (0, 1):
            p, q, r = ([x + c for c in pos[x][roles[x]][side]] if x in roles else [] for x in "PQR")
            for a, b in [*zip(q[rest:], p[:half]), *zip(r, q[:rest] + p[half:])]:
                if find(a) != find(b):
                    parent[find(a)] = find(b)
        support = [(x + s, x + t) for x, n in roles.items()
                   for s, t in zip(pos[x][n][2][::2], pos[x][n][2][1::2])]
        return None if any(find(s) == find(t) for s, t in support) else find

    plan = []
    for pn, qn in product(pcls.NAMES, qcls.NAMES):
        if not join(P=pn, Q=qn):
            continue  # no entry of p's table meets one of q's
        fed = [(rn, find) for rn in qcls.NAMES if (find := join(P=pn, Q=qn, R=rn))]
        if not fed:
            raise ValueError(f"{pcls.__name__} after {qcls.__name__} is not a {qcls.__name__}: "
                             f"{pn} after {qn} lands on none of its tables")
        for rn, find in fed:
            letter = {}  # label class -> einsum letter
            subs = ("".join(letter.setdefault(find(x + c), "klmnopqrstuv"[len(letter)])
                            for c in labels[x]) for x in "PQR")
            plan.append((rn, pn, qn, *subs))
    return tuple(plan)


def compose_tables(p: TableParams, q: TableParams) -> TableParams:
    """The tables of p after q, of q's class: one product per triple of
    composition_plan (O(d^6) time, O(d^4) memory), each table started from
    its first term.  p and q are of one class, or p holds superchannel
    tables and q channel tables (p acting on q's channel).  A matrix
    product over the pair index is x @ y; a term with no summed label is the
    product of transposed views, so an entrywise rule (D, M_big, channel B)
    keeps its bits and a -0.0 stays -0.0, as in apply_tables.
    """
    if type(p) is not type(q) and (p.FAMILY, q.FAMILY) != ("super", "channel"):
        raise ValueError(f"cannot compose {type(p).__name__} with {type(q).__name__}")
    if p.d != q.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {q.d}")
    out = {}
    for rn, pn, qn, sp, sq, sr in composition_plan(type(p), type(q)):
        h = len(sr) // 2
        if sp[:h] + sq[h:] == sr and sp[h:] == sq[:h]:
            term = getattr(p, pn) @ getattr(q, qn)
        elif set(sp + sq) == set(sr):
            term = np.einsum(f"{sp}->{sr}", p.t4(pn)) * np.einsum(f"{sq}->{sr}", q.t4(qn))
        else:
            term = np.einsum(f"{sp},{sq}->{sr}", p.t4(pn), q.t4(qn))
        out[rn] = out[rn] + term if rn in out else term
    return type(q).masked(q.d, **{n: t.reshape(getattr(q, n).shape) for n, t in out.items()})
