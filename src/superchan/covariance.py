"""Group-covariance testing by sampled conjugation, and the fully
unitary-covariant superchannel families with their closed-form positivity
conditions.

Covariance is linear in the Choi matrix, so violations are generic: a small
number of seeded samples suffices, and the verdict is reproducible from the
seed.  Conjugation by a diagonal group element only rephases each entry of
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
from .linalg import DEFAULT_TOL, Frozen, max_entangled_projector, psd_accepts, swap_operator
from .positions import (
    TableParams,
    choi_from_tables,
    choi_indices,
    require_super_family,
    table_values,
)
from .superchannels import SuperChoi

# group -> (what U and V are drawn as, U' = conj(U) rather than U, V' = conj(V)
# rather than V): phases and signs are diagonal elements, haar is Haar-random
GROUPS = {
    "du": ("phases", False, False),
    "do": ("signs", False, False),
    "haar": ("haar", False, False),  # identity/depolarizing mixtures
    "conj-haar": ("haar", True, True),  # transpose/depolarizing mixtures
    "mixed": ("haar", False, True),  # identity on the input pair, transpose on the output
}


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


def _diagonals(rng: np.random.Generator, kind: str, n: int, d: int) -> np.ndarray:
    """The diagonals of n elements of a diagonal group, as an (n, d) array."""
    if kind == "phases":
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, d)))
    return (rng.integers(0, 2, (n, d)) * 2 - 1).astype(complex)


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    """A Haar-random unitary: QR of a complex Gaussian with phase-fixed diagonal."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _row_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of two stacks of vectors."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _four_fold(kron, u, v, conj_u: bool, conj_v: bool):
    """U (x) conj(V) (x) conj(U') (x) V' under the Kronecker product kron,
    with U' = conj(U) if conj_u, else U, and V' = conj(V) if conj_v, else V."""
    return kron(kron(u, v.conj()), kron(u if conj_u else u.conj(), v.conj() if conj_v else v))


def _rephasing_deviations(w, x, rows, cols) -> np.ndarray:
    """max |w_r x_rc conj(w_c) - x_rc| for each row w of the stack w, over
    the entries x at (rows, cols), or over every entry of the matrix x when
    rows is None."""
    if rows is None:
        t = w[:, :, None] * x
        t *= w.conj()[:, None, :]
    else:  # take gathers faster than fancy indexing; conj(w) is smaller than a gather
        t = w.take(rows, axis=1)
        t *= x
        t *= w.conj().take(cols, axis=1)
    t -= x
    return np.abs(t).reshape(len(w), -1).max(axis=1, initial=0.0)


@np.errstate(over="ignore", invalid="ignore")  # a deviation past the float range is inf
def superchannel_covariance_check(
    s: SuperChoi | TableParams,
    group: str,
    n: int = 50,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> CovarianceVerdict:
    """Worst deviation |W X W^dag - X| over n samples of the named group
    (GROUPS), W = U (x) conj(V) (x) conj(U') (x) V', for X the Choi matrix of
    s: a SuperChoi, or the tables of a superchannel (DU, sign-symmetric or
    dephasing).  Each sample draws U from default_rng(seed) and V from
    default_rng(seed + 1); U' and V' are those draws or their conjugates.

    For du and do, W is diagonal and conjugation only rephases each entry,
    (W X W^dag)_rc = w_r x_rc conj(w_c).  All n diagonals are then drawn at
    once, combined row-wise by _row_kron, and applied in chunks of samples to
    the entries s holds: its table entries at their Choi positions, the
    nonzero entries of a sparse Choi, or every entry of a dense one, which
    spares the gathers.  A zero entry cannot deviate, so skipping or
    including it is exact, and the products are those of one sample at a
    time, so the verdict is too.  The Haar groups conjugate the Choi as a
    matrix, assembling it from tables.  A NaN deviation (inf - inf) counts
    as inf, so its sample fails.  Raises ValueError for an unknown group,
    channel tables, unequal subsystem dims, n < 1 and seed < 0.
    """
    if group not in GROUPS:
        raise ValueError(f"unknown covariance group {group!r}")
    kind, conj_u, conj_v = GROUPS[group]
    tables = isinstance(s, TableParams)
    if tables:
        require_super_family(type(s))
    dims = (s.d,) * 4 if tables else s.dims
    if len(set(dims)) > 1:
        raise ValueError("covariance groups are defined for equal subsystem dims")
    if n < 1:  # a verdict over no samples would pass vacuously
        raise ValueError(f"the number of samples must be positive, got {n}")
    if seed < 0:  # default_rng's own error names no seed
        raise ValueError(f"the seed must be non-negative, got {seed}")
    d = dims[0]
    rng_u, rng_v = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    if kind == "haar":
        mat = choi_from_tables(s) if tables else s.mat
        ws = (_four_fold(np.kron, _haar(rng_u, d), _haar(rng_v, d), conj_u, conj_v)
              for _ in range(n))
        devs = np.array([np.abs(w @ mat @ w.conj().T - mat).max() for w in ws])
    else:
        size = 0 if tables else s.mat.size
        if tables:
            x, (rows, cols) = table_values(s), choi_indices(d, type(s))
        elif 2 * np.count_nonzero(s.mat) < size:
            rows, cols = np.nonzero(s.mat)
            x = s.mat[rows, cols]
        else:
            x, rows, cols = s.mat, None, None
        # a sample's temporaries are about three arrays of the entries' size
        chunk = max(1, max(size, x.size, _CHUNK_ENTRIES) // max(1, 3 * x.size))
        u, v = _diagonals(rng_u, kind, n, d), _diagonals(rng_v, kind, n, d)
        devs = np.concatenate([
            _rephasing_deviations(_four_fold(_row_kron, u[lo:lo + chunk], v[lo:lo + chunk],
                                             conj_u, conj_v), x, rows, cols)
            for lo in range(0, n, chunk)])
    devs[np.isnan(devs)] = np.inf
    k = int(devs.argmax())  # the first worst sample
    return CovarianceVerdict(float(devs[k]), k, n, tol)


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


# variant -> its (A0->B0, A1->B1) factors other than the depolarizing D, whose
# Choi is I/d: the components are f0(x)f1, f0(x)D, D(x)f1 and D(x)D
_VARIANT_FACTORS = {"covariant": ("p_plus", "p_plus"),  # id(x)id, id(x)D, D(x)id, D(x)D
                    "conjugate": ("swap", "swap"),  # T(x)T, T(x)D, D(x)T, D(x)D
                    "mixed": ("p_plus", "swap")}  # id(x)T, id(x)D, D(x)T, D(x)D


def _pair_factors(variant: str, d: int):
    """The (A0->B0, A1->B1) Choi factors of the four components."""
    mats = {"p_plus": max_entangled_projector(d).mat, "swap": swap_operator(d).mat}
    f0, f1 = (mats[name] for name in _VARIANT_FACTORS[variant])
    eye = np.eye(d * d, dtype=complex) / d
    return [(f0, f1), (f0, eye), (eye, f1), (eye, eye)]


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
    return SuperChoi((d, d, d, d), acc)


def uu_cp_closed_form(params: UUFamilyParams, tol: float = DEFAULT_TOL) -> bool:
    """Closed-form complete-positivity test: psd_accepts on the exact spectrum
    of uu_superchannel(params) at Hermiticity deviation zero (its Choi is
    exactly symmetric), as is_psd judges the assembled Choi.

    The factors of each pair of subsystems share two eigenspaces: P+ is
    (d, 0) on (Phi+, its complement), the swap (1, -1) on (symmetric,
    antisymmetric) and I/d is 1/d on both.  Each product of an eigenspace
    of one pair and one of the other carries one eigenvalue of the Choi.
    At d = 1 the second eigenspaces are empty.
    """
    d = params.d
    x0, x1 = ({"p_plus": (d, 0.0), "swap": (1.0, -1.0)}[name][:1 if d == 1 else 2]
              for name in _VARIANT_FACTORS[params.variant])
    p0, p1, p2, p3 = params.p
    evals = [p0 * u * v + p1 * u / d + p2 * v / d + p3 / d**2 for u in x0 for v in x1]
    return psd_accepts(np.array(evals), 0.0, 0.0, tol)


def holevo_werner_superchannel_params(d: int) -> UUFamilyParams:
    """Weights of the extreme conjugate-covariant superchannel."""
    denom = d * d - 1.0
    return UUFamilyParams("conjugate", -1.0 / denom, 0.0, 0.0, d * d / denom, d)


def holevo_werner_superchannel(d: int) -> SuperChoi:
    return uu_superchannel(holevo_werner_superchannel_params(d))

