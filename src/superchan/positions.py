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
gather, its spectrum one batched eigensolve per sector size, and composing
two sets of tables one product (matrix, entrywise or einsum) per table
triple of composition_plan.  The same plan composes superchannel tables
with channel tables, giving the tables of the transformed channel.

The index arrays that depend only on (d, class) are built once, as cached
read-only plans: where each in-support entry, in the order of _values,
lands among the sector stacks (sector_plan), and, for superchannel tables
only, where it meets an operator under the assembled map (action_plan) and
the terms of the partial trace over B1, with their images (trace_plan).  A
call then gathers the table values and scatters, bincounts or multiplies
them by the plan.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import ClassVar, NamedTuple

import numpy as np

from .linalg import Frozen, hermitian_eigenvalues, psd_accepts

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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class TablePositions(NamedTuple):
    mask: np.ndarray  # support of the table, in its shape
    flat: np.ndarray  # flat table indices inside the support
    rows: np.ndarray  # Choi row of each of those entries
    cols: np.ndarray  # Choi column of each of those entries


@functools.lru_cache(maxsize=128)
def table_positions(d: int, name: str, family: str) -> TablePositions:
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
    return TablePositions(*_read_only(
        mask.reshape(side, side),
        np.flatnonzero(mask),
        choi_index(row_digits),
        choi_index(col_digits),
    ))


class TableParams(Frozen):
    """Base of the immutable classes that hold one family's coefficient tables.

    NAMES lists the tables and FAMILY ("super" or "channel") selects their
    positions; every helper below that takes such an object, or its class,
    reads both from it.  An instance holds d and one attribute per name.
    Construction takes d, then the tables in NAMES order or by name, and
    checks them (init_tables).
    """

    NAMES: ClassVar[tuple[str, ...]]
    FAMILY: ClassVar[str]

    def __init__(self, d: int, *tables, **named) -> None:
        given = dict(zip(self.NAMES, tables), **named)
        if len(tables) + len(named) != len(self.NAMES) or given.keys() != set(self.NAMES):
            raise TypeError(f"{type(self).__name__} takes d, then each of the tables "
                            f"{', '.join(self.NAMES)} once, in this order or by name; got "
                            f"{len(tables)} in order and {sorted(named)} by name")
        vars(self).update(given, d=d)
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
    """Set each table of p, a TableParams, to a read-only copy, real for
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


def _values(p: TableParams) -> np.ndarray:
    """Every in-support entry of the tables of p, table by table in NAMES
    order and in flat order within each, as complex: the order the plans
    below index."""
    return np.concatenate([getattr(p, n).reshape(-1)[table_positions(p.d, n, p.FAMILY).flat]
                           for n in p.NAMES], dtype=complex)


def _choi_indices(d: int, cls: type[TableParams]) -> tuple[np.ndarray, np.ndarray]:
    """The Choi rows and columns of the entries _values gives, in its order."""
    pos = [table_positions(d, name, cls.FAMILY) for name in cls.NAMES]
    return tuple(np.concatenate([getattr(x, f) for x in pos]) for f in ("rows", "cols"))


def require_super_family(cls: type[TableParams]) -> None:
    """Raise ValueError, naming cls, unless it holds superchannel tables."""
    if cls.FAMILY != "super":
        raise ValueError(f"{cls.__name__} holds channel tables, not superchannel tables")


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


@functools.lru_cache(maxsize=16)
def action_plan(d: int, cls: type[TableParams]) -> tuple[np.ndarray, ...]:
    """(gather, out, single) of apply_tables for cls at dimension d,
    read-only: for each entry of _values, the flat index into x of the entry
    it multiplies, the flat index into y its product is added to, and
    whether that product is the only one added there.  Raises ValueError for
    channel tables, which act on no operator."""
    require_super_family(cls)
    n = d * d
    rows, cols = _choi_indices(d, cls)
    out = (rows % n) * n + cols % n
    single = np.bincount(out, minlength=n * n)[out] == 1
    return _read_only((rows // n) * n + cols // n, out, single)


def apply_tables(p: TableParams, x: np.ndarray) -> np.ndarray:
    """The representing map of choi_from_tables(p) applied to the
    d^2 x d^2 operator x, without assembling the Choi.

    As superchannels.representing_apply, y[a, b] = sum_ij x[i, j] C[ia, jb]
    over the pair indices of (A0, A1) and (B0, B1): each table entry at Choi
    (row, col) reads x at (row // d^2, col // d^2) and its product is added
    into y at (row % d^2, col % d^2) (action_plan), in O(d^4) time and
    memory.  Sums start from +0.0, and an entry of y fed by one product
    alone is that product, so a -0.0 from an entrywise scaling (table D)
    stays -0.0.  Raises ValueError for channel tables, or unless x is
    d^2 x d^2.
    """
    gather, out, single = action_plan(p.d, type(p))
    n = p.d * p.d
    if x.shape != (n, n):
        raise ValueError(f"input side {x.shape} does not match d^2={n}")
    vals = _values(p)
    # numpy may compute a product in a temporary operand's buffer, swapping the factors,
    # and under FMA the swapped product's imaginary part rounds otherwise: keep this form
    terms = vals * np.take(x, gather)
    y = np.empty(n * n, dtype=complex)
    y.real = np.bincount(out, terms.real, n * n)
    y.imag = np.bincount(out, terms.imag, n * n)
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
    if a position joins two blocks so found: no sector stack would hold it.
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
    for size in sorted(set(counts.tolist())):  # np.unique(counts) would import numpy.ma
        rows = order[starts[counts == size][:, None] + np.arange(size)]
        rows.setflags(write=False)
        blocks.append(rows)
    return tuple(blocks)


@functools.lru_cache(maxsize=16)
def sector_plan(d: int, cls: type[TableParams]) -> np.ndarray:
    """Where each entry of _values lands in one buffer that holds the sector
    stacks of sectors(d, cls) in turn, each (count, side, side) and
    row-major (read-only)."""
    start, slot, side = (np.empty(d ** len(FAMILIES[cls.FAMILY][0]), dtype=np.intp)
                         for _ in range(3))
    offset = 0
    for rows in sectors(d, cls):
        flat = rows.reshape(-1)
        start[flat], slot[flat], side[flat] = offset, np.arange(flat.size), rows.shape[1]
        offset += flat.size * rows.shape[1]
    rows, cols = _choi_indices(d, cls)
    # row and col are rows[b, i] and rows[b, j] of one stack, at slots b * side + i
    # and b * side + j; entry (b, i, j) of the stack is at (b * side + i) * side + j
    dest = start[rows] + slot[rows] * side[rows] + slot[cols] % side[cols]
    dest.setflags(write=False)
    return dest


def sector_blocks(p: TableParams) -> list[np.ndarray]:
    """The principal blocks of choi_from_tables(p) on its sectors, one
    (count, side, side) stack per sector size in the order of
    sectors(p.d, type(p)), read off the tables by one scatter (sector_plan)
    into zeros; a -0.0 table entry lands as +0.0, as in choi_from_tables."""
    blocks = sectors(p.d, type(p))
    buf = np.zeros(sum(rows.size * rows.shape[1] for rows in blocks), dtype=complex)
    vals = _values(p)
    vals += 0.0  # no position repeats: this is adding each value into zeros
    buf[sector_plan(p.d, type(p))] = vals
    out, offset = [], 0
    for count, side in (rows.shape for rows in blocks):
        out.append(buf[offset:offset + count * side * side].reshape(count, side, side))
        offset += count * side * side
    return out


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
    for rows, stack in zip(sectors(p.d, type(p)), sector_blocks(p)):
        e = stack[:, :, 0].real if rows.shape[1] == 1 else hermitian_eigenvalues(stack)
        evals.append(e.reshape(-1))
        first.append(rows[:, 0])
        minimum.append(e[:, 0])
        with np.errstate(over="ignore"):  # a difference past the float maximum is inf
            herm.append(np.abs(stack - stack.transpose(0, 2, 1).conj()).max(axis=(1, 2)))
        max_entry = max(max_entry, float(np.abs(stack).max()))
    evals, herm = np.concatenate(evals), np.concatenate(herm)
    return SectorSpectrum(psd_accepts(evals, max_entry, float(herm.max()), tol), evals,
                          np.concatenate(first), np.concatenate(minimum), herm, max_entry)


@functools.lru_cache(maxsize=16)
def trace_plan(d: int, cls: type[TableParams]) -> tuple:
    """(image, slot, terms) of b1_partial_trace for cls at dimension d, read-only:
    the images that have terms, ascending; each term's index into image, terms
    by image and then by q; and per table with terms, (name, their flat table
    indices, their places in that order).  Raises ValueError for channel
    tables, and for a class whose images fill a fiber (i, j, p, r) in part."""
    require_super_family(cls)
    pos = [(name, table_positions(d, name, cls.FAMILY)) for name in cls.NAMES]
    keep = [x.rows % d == x.cols % d for _, x in pos]
    rows, cols = (np.concatenate([getattr(x, f)[k] for (_, x), k in zip(pos, keep)])
                  for f in ("rows", "cols"))
    # A0, A1, B0 digits: (i, a, p) of each row and (j, r) of each column
    (i, a, pr), (j, _, pc) = (np.unravel_index(x // d, (d,) * 3) for x in (rows, cols))
    image = np.ravel_multi_index((i, j, a, pr, pc), (d,) * 5)
    order = np.lexsort((rows % d, image))  # by image, then by q
    image, slot = np.unique(image[order], return_inverse=True)
    # tp_preserving_verdict averages each fiber (i, j, p, r) over all d images
    fiber = image // d**3 * d**2 + image % d**2
    if (np.bincount(fiber)[fiber] != d).any():
        raise ValueError(f"{cls.__name__} at d={d} holds some but not all images "
                         "of a fiber of the partial trace over B1")
    places = np.split(np.argsort(order), np.cumsum([k.sum() for k in keep])[:-1])
    terms = tuple((name, *_read_only(x.flat[k], at))
                  for (name, x), k, at in zip(pos, keep, places) if k.any())
    return (*_read_only(image, slot), terms)


def b1_partial_trace(p: TableParams) -> tuple[np.ndarray, np.ndarray]:
    """Tr_B1 of choi_from_tables(p) as (image, sums), in O(d^4) memory: the
    images[i, j, a, a, p, r] of superchannels.tp_preserving_check that have
    terms, as ascending flat indices into (i, j, a, p, r), and their values,
    bit-identical to the einsum's there: the terms, entries whose row and
    column B1 digits agree, are summed in increasing q from zero
    (trace_plan).  Equal B1 digits force equal A1 digits in every POSITIONS
    entry, so images with a != b are zero; each fiber (i, j, p, r) holds d
    images or none.  Raises ValueError for channel tables."""
    image, slot, terms = trace_plan(p.d, type(p))
    vals = np.empty(slot.size, dtype=complex)
    for name, flat, at in terms:
        vals[at] = getattr(p, name).reshape(-1)[flat]
    sums = np.empty(image.size, dtype=complex)
    sums.real = np.bincount(slot, vals.real, image.size)
    sums.imag = np.bincount(slot, vals.imag, image.size)
    return image, sums


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
