"""Group-covariance testing by sampled conjugation, and the fully
unitary-covariant superchannel families with their closed-form positivity
conditions.

Covariance is linear in the Choi matrix, so violations are generic: a small
number of seeded samples suffices, and the verdict is reproducible from the
seed.  Samplers own their generator and are not meant to be shared across
threads.  Conjugation by a diagonal group element only rephases each entry of
the Choi, so the diagonal groups (du, do) are tested on the entries the input
already holds: the nonzero entries of a Choi matrix, or the table entries of
a TableParams, whose Choi is never assembled.  All samples are drawn and
rephased in batches.  The Haar groups conjugate the whole matrix, one sample
at a time, and assemble the Choi of a TableParams.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channels import PARAM_EDGE_TOL
from .linalg import DEFAULT_TOL, Frozen, max_entangled_projector, swap_operator
from .positions import (
    TableParams,
    choi_from_tables,
    require_super_family,
    sector_blocks,
    sectors,
)
from .superchannels import SuperChoi, super_choi

DIAGONAL_KINDS = ("diagonal-unitary", "diagonal-orthogonal")
SAMPLER_KINDS = (*DIAGONAL_KINDS, "haar-unitary")


class GroupSampler:
    """Seeded stream of unitaries from one of the supported groups.

    Two samplers with equal (kind, d, seed) emit identical streams, which is
    how correlated representations (same group element on several subsystems)
    are expressed.  ``conjugate=True`` emits the entrywise conjugate stream.
    """

    __slots__ = ("kind", "d", "seed", "conjugate", "_rng")

    def __init__(self, kind: str, d: int, seed: int, conjugate: bool = False) -> None:
        if kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {kind!r}")
        self.kind, self.d, self.seed, self.conjugate = kind, d, seed, conjugate
        self._rng = np.random.default_rng(seed)

    def conjugated(self) -> "GroupSampler":
        """Fresh sampler emitting the conjugates of this sampler's stream."""
        return GroupSampler(self.kind, self.d, self.seed, not self.conjugate)

    def diagonals(self, n: int) -> np.ndarray:
        """The diagonals of the next n elements of a diagonal group, as an
        (n, d) array: the stream of n successive draw() calls."""
        if self.kind == "diagonal-unitary":
            u = np.exp(1j * self._rng.uniform(0.0, 2.0 * np.pi, (n, self.d)))
        elif self.kind == "diagonal-orthogonal":
            u = (self._rng.integers(0, 2, (n, self.d)) * 2 - 1).astype(complex)
        else:
            raise ValueError(f"{self.kind} elements are not diagonal")
        return u.conj() if self.conjugate else u

    def draw(self) -> np.ndarray:
        if self.kind in DIAGONAL_KINDS:
            return np.diag(self.diagonals(1)[0])
        # haar-unitary: QR of a complex Gaussian with phase-fixed diagonal
        z = self._rng.normal(size=(self.d, self.d)) + 1j * self._rng.normal(
            size=(self.d, self.d)
        )
        q, r = np.linalg.qr(z / np.sqrt(2.0))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        return u.conj() if self.conjugate else u


class CovarianceVerdict(NamedTuple):
    """Maximum conjugation deviation over the sampled group elements."""

    max_deviation: float
    worst_sample: int
    samples: int
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tol

    def report(self) -> dict:
        return {
            "covariant": self.ok,
            "max_deviation": self.max_deviation,
            "worst_sample": self.worst_sample,
            "samples": self.samples,
        }


# A chunk of samples is rephased at once while its temporaries hold no more
# entries than the input, or than this floor for small inputs.
_CHUNK_ENTRIES = 1 << 16


def _row_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of two stacks of vectors."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _diagonal_draws(samplers, n: int) -> list:
    """Per sampler, the (n, d) diagonals it yields in n rounds of one draw
    from each sampler in turn; a sampler passed twice alternates its stream."""
    slots: dict[int, list[int]] = {}
    for k, s in enumerate(samplers):
        slots.setdefault(id(s), []).append(k)
    out = [None] * len(samplers)
    for ks in slots.values():
        batch = samplers[ks[0]].diagonals(n * len(ks)).reshape(n, len(ks), -1)
        for t, k in enumerate(ks):
            out[k] = batch[:, t]
    return out


def _rephasing_deviations(w, x, rows, cols) -> np.ndarray:
    """max |w_r x_rc conj(w_c) - x_rc| for each row w of the stack w, over
    the entries x at (rows, cols), index arrays broadcast against x, or over
    every entry of the matrix x when rows is None."""
    if rows is None:
        t = w[:, :, None] * x
        t *= w.conj()[:, None, :]
    else:
        t = w[:, rows] * x
        t *= w[:, cols].conj()
    t -= x
    return np.abs(t).reshape(len(w), -1).max(axis=1, initial=0.0)


def _four_fold(kron, u, v, up, vp):
    """U (x) conj(V) (x) conj(U') (x) V' under the Kronecker product kron."""
    return kron(kron(u, v.conj()), kron(up.conj(), vp))


def _sampled_check(x, samplers, n, tol) -> CovarianceVerdict:
    """Worst deviation |W X W^dag - X| over n samples, W = U (x) conj(V) (x)
    conj(U') (x) V' with (U, V, U', V') one draw from each of the four
    samplers in order, for X the Choi matrix x or the Choi of the
    TableParams x.

    When every sampler is diagonal, W is diagonal and conjugation only
    rephases each entry, (W X W^dag)_rc = w_r x_rc conj(w_c).  All n
    diagonals are then drawn at once, combined row-wise by _row_kron, and
    applied in chunks of samples to the entries x holds: the sector stacks of
    its tables (positions.sector_blocks), the nonzero entries of a sparse
    Choi, or every entry of a dense one, which spares the gathers.  A zero
    entry cannot deviate, so skipping or including it is exact, and the
    products are those of one sample at a time, so the verdict is too.  Any
    other sampler makes W dense, and it is conjugated as a matrix.
    """
    if n < 1:  # a verdict over no samples would pass vacuously
        raise ValueError(f"the number of samples must be positive, got {n}")
    if not all(s.kind in DIAGONAL_KINDS for s in samplers):
        mat = choi_from_tables(x) if isinstance(x, TableParams) else x
        worst, worst_idx = 0.0, 0
        for k in range(n):
            w = _four_fold(np.kron, *(s.draw() for s in samplers))
            dev = float(np.abs(w @ mat @ w.conj().T - mat).max())
            if dev > worst:
                worst, worst_idx = dev, k
        return CovarianceVerdict(worst, worst_idx, n, tol)
    size = x.size if isinstance(x, np.ndarray) else 0
    if isinstance(x, TableParams):  # entry (b, i, j) of a stack is at (rows[b, i], rows[b, j])
        parts = [(stack, rows[:, :, None], rows[:, None, :])
                 for rows, stack in zip(sectors(x.d, type(x)), sector_blocks(x))]
    elif 2 * np.count_nonzero(x) < size:
        rows, cols = np.nonzero(x)
        parts = [(x[rows, cols], rows, cols)]
    else:
        parts = [(x, None, None)]
    # a sample's temporaries are about three arrays of the entries' size
    entries = sum(part[0].size for part in parts)
    chunk = max(1, max(size, entries, _CHUNK_ENTRIES) // max(1, 3 * entries))
    draws = _diagonal_draws(samplers, n)
    devs = []
    for lo in range(0, n, chunk):
        w = _four_fold(_row_kron, *(a[lo:lo + chunk] for a in draws))
        devs.append(np.max([_rephasing_deviations(w, *part) for part in parts], axis=0))
    devs = np.concatenate(devs)
    devs[np.isnan(devs)] = 0.0  # a NaN sample never beats a running maximum
    k = int(devs.argmax())  # the first worst sample
    return CovarianceVerdict(float(devs[k]), k, n, tol)


def superchannel_covariance_check(
    s: SuperChoi | TableParams,
    samplers,
    n: int = 50,
    tol: float = DEFAULT_TOL,
) -> CovarianceVerdict:
    """Test invariance of a superchannel Choi under the four-fold conjugation
    U (x) conj(V) (x) conj(U') (x) V' with (U, V, U', V') drawn per sample.

    s is a SuperChoi, or the tables of a superchannel (DU, sign-symmetric or
    dephasing), whose Choi only the Haar groups assemble.  Diagonal groups
    rephase the entries s holds, Haar groups conjugate the Choi densely (see
    _sampled_check).  Raises ValueError for channel tables and for samplers
    whose dimensions do not match s.
    """
    tables = isinstance(s, TableParams)
    if tables:
        require_super_family(type(s))
    dims, got = (s.d,) * 4 if tables else s.choi.dims, tuple(u.d for u in samplers)
    if got != dims:
        raise ValueError(f"sampler dims {got} do not match {dims}")
    return _sampled_check(s if tables else s.choi.mat, samplers, n, tol)


def covariance_sampler_tuple(group: str, d: int, seed: int = 0):
    """Canonical (U, V, U', V') sampler tuples for the named symmetry groups.

    du / do: all four diagonal, with U' = U and V' = V.
    haar: U' = U, V' = V (identity/depolarizing mixtures).
    conj-haar: U' = conj(U), V' = conj(V) (transpose/depolarizing mixtures).
    mixed: U' = U, V' = conj(V) (identity on the input pair, transpose on the
    output pair).
    """
    if group in ("du", "do"):
        kind = "diagonal-unitary" if group == "du" else "diagonal-orthogonal"
    elif group in ("haar", "conj-haar", "mixed"):
        kind = "haar-unitary"
    else:
        raise ValueError(f"unknown covariance group {group!r}")

    def fresh(offset: int, conj: bool) -> GroupSampler:
        return GroupSampler(kind, d, seed + offset, conjugate=conj)

    conj_u = group == "conj-haar"
    conj_v = group in ("conj-haar", "mixed")
    return (fresh(0, False), fresh(1, False), fresh(0, conj_u), fresh(1, conj_v))


# ---------------------------------------------------------------------------
# Fully unitary-covariant superchannel families
# ---------------------------------------------------------------------------

UU_VARIANTS = ("covariant", "conjugate", "mixed")


class UUFamilyParams(Frozen):
    """Mixing weights of a four-component unitary-covariant superchannel.

    The representing map is a weighted sum of tensor products of identity,
    depolarizing and transpose factors; the variant selects which.  The
    weights must sum to 1 (trace-preservation normalization, enforced here).
    """

    __slots__ = ("variant", "p0", "p1", "p2", "p3", "d")

    def __init__(self, variant: str, p0: float, p1: float, p2: float, p3: float, d: int) -> None:
        if variant not in UU_VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        for name, value in zip(self.__slots__, (variant, p0, p1, p2, p3, d)):
            object.__setattr__(self, name, value)
        if not np.isfinite(self.p).all():
            raise ValueError("weights must be finite")
        if abs(p0 + p1 + p2 + p3 - 1.0) > PARAM_EDGE_TOL:
            raise ValueError("weights must sum to 1")

    @property
    def p(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2, self.p3])


def _pair_factors(variant: str, d: int):
    """The (A0->B0, A1->B1) Choi factors of the four components."""
    p_plus = max_entangled_projector(d).mat
    eye = np.eye(d * d, dtype=complex) / d
    swap = swap_operator(d).mat
    if variant == "covariant":  # id(x)id, id(x)D, D(x)id, D(x)D
        return [(p_plus, p_plus), (p_plus, eye), (eye, p_plus), (eye, eye)]
    if variant == "conjugate":  # T(x)T, T(x)D, D(x)T, D(x)D
        return [(swap, swap), (swap, eye), (eye, swap), (eye, eye)]
    # mixed: id(x)T, id(x)D, D(x)T, D(x)D
    return [(p_plus, swap), (p_plus, eye), (eye, swap), (eye, eye)]


@lru_cache(maxsize=None)
def _component_chois(variant: str, d: int) -> tuple[np.ndarray, ...]:
    """Choi matrices of the four components on (A0, A1, B0, B1), cached."""
    out = []
    for c0, c1 in _pair_factors(variant, d):
        prod = np.kron(c0, c1).reshape((d,) * 8)  # (A0, B0, A1, B1) refined
        arranged = prod.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(d**4, d**4)
        arranged.setflags(write=False)
        out.append(arranged)
    return tuple(out)


def uu_superchannel(params: UUFamilyParams) -> SuperChoi:
    """Assemble the Choi matrix of the selected four-component mixture."""
    d = params.d
    components = _component_chois(params.variant, d)
    acc = sum(w * c for w, c in zip(params.p, components))
    return super_choi(acc, (d, d, d, d))


def uu_cp_closed_form(params: UUFamilyParams, tol: float = DEFAULT_TOL) -> bool:
    """Closed-form complete-positivity test for each variant's weight region."""
    p0, p1, p2, p3 = params.p
    d2 = float(params.d**2)
    d = float(params.d)
    if params.variant == "covariant":
        vals = (p3, p1 + p3 / d2, p2 + p3 / d2, p0 * d2 + p1 + p2 + p3 / d2)
    elif params.variant == "conjugate":
        vals = (
            p3 / d2 + p0 - abs(p1 + p2) / d,
            p3 / d2 - p0 - abs(p1 - p2) / d,
        )
    else:  # mixed
        vals = (p3 - d * abs(p2), d * p1 + p3 / d - abs(d2 * p0 + p2))
    return all(v >= -tol for v in vals)


def holevo_werner_superchannel_params(d: int) -> UUFamilyParams:
    """Weights of the extreme conjugate-covariant superchannel."""
    denom = d * d - 1.0
    return UUFamilyParams("conjugate", -1.0 / denom, 0.0, 0.0, d * d / denom, d)


def holevo_werner_superchannel(d: int) -> SuperChoi:
    return uu_superchannel(holevo_werner_superchannel_params(d))

