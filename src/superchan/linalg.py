"""Dense complex-matrix kernel with multipartite index bookkeeping.

Operators live on a tensor product of finite-dimensional subsystems.  The
composite index is big-endian: the leftmost subsystem is the most significant
digit of the flattened row/column index, which is exactly numpy's C-order
reshape of ``dims + dims``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-10


class NonHermitianMatrixError(ValueError):
    """Raised when a PSD test is asked about a clearly non-Hermitian matrix."""


class EigensolverError(RuntimeError):
    """Raised when the Hermitian eigensolver fails to converge."""


class DimsMismatchError(ValueError):
    """matrix_from_json's parsed dims, its argument, differ from those declared."""


class Frozen:
    """Base of the package's immutable classes: their __init__ sets each
    field with object.__setattr__, after which assigning or deleting any
    attribute raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class MultipartiteOperator(Frozen):
    """A square complex matrix tagged with an ordered list of subsystem dims.

    The matrix side must equal the product of ``dims``.  Instances are
    immutable (the backing array is marked read-only) and safe to share
    across threads.
    """

    __slots__ = ("dims", "mat")

    def __init__(self, dims: tuple[int, ...], mat: np.ndarray) -> None:
        dims = tuple(int(d) for d in dims)
        if any(d <= 0 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        mat = np.array(mat, dtype=np.complex128, order="C")
        side = math.prod(dims)
        if mat.shape != (side, side):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dims {dims} (side {side})"
            )
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)

    @property
    def side(self) -> int:
        return self.mat.shape[0]

    def tensor(self) -> np.ndarray:
        """View of the matrix with one row axis and one column axis per subsystem."""
        return self.mat.reshape(self.dims + self.dims)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def __repr__(self) -> str:  # keep huge matrices out of tracebacks
        return f"{type(self).__name__}(dims={self.dims}, side={self.side})"


def max_entangled_projector(d: int) -> MultipartiteOperator:
    """Unnormalized projector sum_ij e_ij (x) e_ij on dims (d, d)."""
    psi = np.eye(d, dtype=complex).reshape(d * d)
    return MultipartiteOperator((d, d), np.outer(psi, psi.conj()))


def swap_operator(d: int) -> MultipartiteOperator:
    """The swap matrix sum_ij e_ij (x) e_ji on dims (d, d)."""
    m = np.eye(d * d, dtype=complex).reshape(d, d, d, d).transpose(0, 1, 3, 2)
    return MultipartiteOperator((d, d), m.reshape(d * d, d * d))


def kron(a: MultipartiteOperator, b: MultipartiteOperator) -> MultipartiteOperator:
    """Kronecker product; dims concatenate, consistent with big-endian flattening."""
    return MultipartiteOperator(a.dims + b.dims, np.kron(a.mat, b.mat))


def _check_subsystem(x: MultipartiteOperator, s: int) -> int:
    s = int(s)
    if not 0 <= s < len(x.dims):
        raise ValueError(f"subsystem index {s} out of range for dims {x.dims}")
    return s


def partial_trace(
    x: MultipartiteOperator, subsystems: int | Iterable[int]
) -> MultipartiteOperator:
    """Trace out the given subsystems; remaining dims keep their original order."""
    if isinstance(subsystems, (int, np.integer)):
        subsystems = (subsystems,)
    traced = sorted({_check_subsystem(x, s) for s in subsystems})
    t = x.tensor()
    dims = list(x.dims)
    for s in reversed(traced):
        t = np.trace(t, axis1=s, axis2=s + len(dims))
        dims.pop(s)
    side = math.prod(dims)
    return MultipartiteOperator(tuple(dims), np.asarray(t).reshape(side, side))


def partial_transpose(x: MultipartiteOperator, subsystem: int) -> MultipartiteOperator:
    """Transpose one subsystem in the computational basis (an involution)."""
    s = _check_subsystem(x, subsystem)
    n = len(x.dims)
    t = x.tensor()
    axes = list(range(2 * n))
    axes[s], axes[s + n] = axes[s + n], axes[s]
    return MultipartiteOperator(x.dims, t.transpose(axes).reshape(x.side, x.side))


def permute_subsystems(
    x: MultipartiteOperator, perm: Sequence[int]
) -> MultipartiteOperator:
    """Reorder subsystems so output subsystem k is input subsystem perm[k].

    Acts as conjugation by the corresponding permutation matrix; the spectrum
    and the multiset of entries are preserved.
    """
    perm = tuple(int(p) for p in perm)
    n = len(x.dims)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"malformed permutation {perm} for {n} subsystems")
    t = x.tensor().transpose(perm + tuple(p + n for p in perm))
    dims = tuple(x.dims[p] for p in perm)
    return MultipartiteOperator(dims, t.reshape(x.side, x.side))


def _as_matrix(x) -> np.ndarray:
    """The square matrix, or stack of square matrices on the last two axes."""
    if isinstance(x, MultipartiteOperator):
        return x.mat
    m = np.asarray(x)
    if m.dtype != np.float64 and m.dtype != np.complex128:
        m = m.astype(complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2).conj()


def hermiticity_deviation(x) -> float:
    """Max-norm distance between a matrix (or a stack) and its conjugate transpose."""
    m = _as_matrix(x)
    with np.errstate(over="ignore"):  # a difference past the float maximum is inf
        return float(np.abs(m - _adjoint(m)).max()) if m.size else 0.0


def hermitian_eigenvalues(x) -> np.ndarray:
    """Eigenvalues of the symmetrization (x + x^dag)/2, ascending.

    A stack of matrices gives one ascending row per matrix.  Each term is
    halved before the sum, so finite entries near the float maximum do not
    overflow.
    """
    m = _as_matrix(x)
    try:
        h = m / 2
        return np.linalg.eigvalsh(h + _adjoint(h))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise EigensolverError(f"Hermitian eigensolver failed: {exc}") from exc


def is_hermitian(x, tol: float = DEFAULT_TOL) -> bool:
    m = _as_matrix(x)
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    return hermiticity_deviation(m) <= tol * scale


def is_psd(x, tol: float = DEFAULT_TOL) -> bool:
    """Positive-semidefiniteness test on the symmetrized matrix.

    Accepts iff the minimum eigenvalue is >= -tol * max(1, largest |eigenvalue|).
    Grossly non-Hermitian input is rejected with NonHermitianMatrixError rather
    than silently symmetrized.
    """
    m = _as_matrix(x)
    if not is_hermitian(m, tol):
        raise NonHermitianMatrixError(
            f"matrix is not Hermitian within tolerance {tol}"
        )
    return psd_report(m, tol)[0]


def psd_accepts(
    evals: np.ndarray, max_entry: float, hermiticity: float, tol: float
) -> bool:
    """The PSD rule shared by every route to one matrix's spectrum.

    Hermitian within tol * max(1, largest |entry|), and minimum eigenvalue at
    least -tol * max(1, spectral radius).  Callers that split the matrix into
    blocks pass the union of the block spectra and the whole-matrix entry
    maximum and Hermiticity deviation, so every route shares one scale.
    """
    hermitian_ok = hermiticity <= tol * max(1.0, max_entry)
    radius = float(np.abs(evals).max())
    return hermitian_ok and float(evals.min()) >= -tol * max(1.0, radius)


def psd_report(x, tol: float = DEFAULT_TOL) -> tuple[bool, float, float]:
    """(is_psd, min eigenvalue, Hermiticity deviation), never raising on
    non-Hermitian input.

    Hermiticity is folded into the verdict: a matrix further than tol from its
    adjoint is reported as not PSD.
    """
    m = _as_matrix(x)
    evals = hermitian_eigenvalues(m)
    herm = hermiticity_deviation(m)
    max_entry = float(np.abs(m).max()) if m.size else 0.0
    return psd_accepts(evals, max_entry, herm, tol), float(evals.min()), herm


def matrix_to_json(x: MultipartiteOperator) -> dict:
    """JSON form {"dims": [...], "data": pairs}, pairs being complex_pairs(x.mat):
    no Python object per number.  jsonio.dump_json writes the array as
    json.dumps writes its list twin, [[re, im], ...] row-major."""
    return {"dims": list(x.dims), "data": complex_pairs(x.mat)}


def complex_pairs(mat: np.ndarray) -> np.ndarray:
    """The entries of a matrix, row-major, as a read-only (size, 2) float64
    array of [re, im] rows: a view of a C-contiguous complex128 matrix's own
    buffer, and otherwise of a complex128 copy (a real table among them)."""
    pairs = np.ascontiguousarray(mat, dtype=np.complex128).reshape(-1)
    pairs = pairs.view(np.float64).reshape(-1, 2)
    pairs.setflags(write=False)
    return pairs


def matrix_from_json(obj: dict, cls: type = MultipartiteOperator,
                     declared: tuple[int, ...] | None = None) -> MultipartiteOperator:
    """Inverse of matrix_to_json, built as one cls(dims, matrix), whose
    constructor makes the one copy of the parsed numbers.  Every malformed
    input raises ValueError or TypeError, including numbers too large for a
    float; parsed dims other than declared (if given) raise
    DimsMismatchError, after any fault of the matrix itself.  Dims must be
    JSON integers and data entries [re, im] pairs of JSON numbers: booleans
    and strings are rejected, not converted.  obj is parsed JSON text, its
    data a list of lists: matrix_to_json's array data is refused."""
    if not isinstance(obj, dict) or "dims" not in obj or "data" not in obj:
        raise ValueError("matrix JSON must contain 'dims' and 'data'")
    dims = tuple(obj["dims"])
    if not {int}.issuperset(map(type, dims)):
        raise ValueError("matrix JSON dims must be integers")
    side = math.prod(dims)
    data = obj["data"]
    if len(data) != side * side:
        raise ValueError(f"matrix JSON data has {len(data)} entries, expected {side * side}")
    if set(map(len, data)) - {2}:
        raise ValueError("matrix JSON data entries must be [re, im] pairs")
    # a 2-character string or a 2-key object passes the length test, but
    # its characters or keys are strings, which the type test refuses
    flat = json_floats(itertools.chain.from_iterable(data),
                       "matrix JSON data entries must be [re, im] pairs of numbers")
    mat = flat.view(np.complex128).reshape(side, side)
    if declared is not None and dims != declared:
        MultipartiteOperator(dims, mat)  # a fault of the matrix itself is reported first
        raise DimsMismatchError(dims)
    return cls(dims, mat)


def json_floats(values, message: str) -> np.ndarray:
    """The JSON numbers in values as a float64 array.  Only int and float are
    numbers: anything else (a boolean or a string among them) raises
    ValueError(message), and so does an int beyond the float range."""
    values = list(values)
    if not {int, float}.issuperset(map(type, values)):
        raise ValueError(message)
    try:
        return np.fromiter(values, np.float64, count=len(values))
    except OverflowError as exc:
        raise ValueError(f"JSON number out of range: {exc}") from exc
