"""Shared random-instance generators for the test suite."""

from __future__ import annotations

from itertools import product
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from superchan.channels import (
    PAULI,
    ChoiChannel,
    DOChannelParams,
    DUChannelParams,
    choi_from_kraus,
    compose_channels,
    pauli_channel,
    table_channel,
)
from superchan.covariance import UUFamilyParams, uu_superchannel
from superchan.dephasing import DephasingSuperParams, dephasing_from_realization
from superchan.do import DOSuperParams
from superchan.du import DUSuperParams, NotDUCovariantError, build_choi, from_choi
from superchan.linalg import (
    DEFAULT_TOL,
    MultipartiteOperator,
    hermitian_eigenvalues,
    hermiticity_deviation,
    kron,
    max_entangled_projector,
    partial_trace,
    permute_subsystems,
    psd_accepts,
    psd_report,
    swap_operator,
)
from superchan.positions import FAMILIES, table_positions, tables_from_choi
from superchan.superchannels import (
    SuperChoi,
    sandwich_superchannel,
)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def diagonal_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def random_channel(rng: np.random.Generator, d_in: int, d_out: int | None = None,
                   kraus: int = 3) -> ChoiChannel:
    """Random CPTP map: Gaussian Kraus operators renormalized to sum to 1."""
    d_out = d_in if d_out is None else d_out
    ops = [
        rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in))
        for _ in range(kraus)
    ]
    s = sum(k.conj().T @ k for k in ops)
    evals, vecs = np.linalg.eigh(s)
    inv_sqrt = (vecs / np.sqrt(evals)) @ vecs.conj().T
    return choi_from_kraus([k @ inv_sqrt for k in ops])


def unitary_conjugation(u: np.ndarray) -> ChoiChannel:
    return choi_from_kraus([u])


def random_covariance_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    norm = np.sqrt(np.real(np.diagonal(m)))
    return m / np.outer(norm, norm)


def random_state_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def random_realization(rng: np.random.Generator, d: int, e: int):
    us = [haar_unitary(rng, e) for _ in range(d)]
    vs = [haar_unitary(rng, e) for _ in range(d)]
    return us, vs, random_state_vector(rng, e)


def full_eigvalsh_psd(mat: np.ndarray, tol: float = 1e-10) -> bool:
    """Independent PSD oracle for a Hermitian matrix: one dense eigvalsh of the
    whole matrix, accepted at -tol * max(1, spectral radius)."""
    evals = np.linalg.eigvalsh(mat)
    return bool(evals[0] >= -tol * max(1.0, float(np.abs(evals).max())))



def uu_shared_spectra(variant: str, d: int) -> np.ndarray:
    """The eigenvalues of the four components of a uu_superchannel variant in
    one shared eigenbasis, as a (4, d^4) array, so that the mixture with
    weights p has the spectrum p @ spectra.  Within a variant the components
    commute, so the eigh of a mixture with generic weights diagonalizes all
    four; that each is diagonal in its basis is asserted to 1e-12."""
    units = []
    for k in range(4):
        mat = uu_superchannel(UUFamilyParams(variant, *np.eye(4)[k], d)).mat
        assert not np.any(mat.imag)
        units.append(mat.real)
    _, q = np.linalg.eigh(sum(w * c for w, c in zip(np.sqrt([2.0, 3.0, 5.0, 7.0]), units)))
    rotated = np.stack([q.T @ c @ q for c in units])
    spectra = np.diagonal(rotated, axis1=1, axis2=2)
    assert np.abs(rotated - spectra[:, :, None] * np.eye(d**4)).max() <= 1e-12
    return spectra

@dataclass(frozen=True)
class ChargeSectors:
    """A partition of the basis of (A0, A1, B0, B1), each of dimension d, into
    charge sectors.

    ``blocks`` holds one read-only integer array per sector size s, of shape
    (number of sectors of that size, s); each row lists the flat basis indices
    of one sector in ascending order.
    """

    side: int
    blocks: tuple[np.ndarray, ...]


def charge_sectors(d: int, pairs: str) -> ChargeSectors:
    """Charge sectors of a diagonal-symmetric Choi matrix on (A0, A1, B0, B1),
    from digit labels alone: the independent oracle for positions.sectors.

    The basis vector (p, q, r, s) is labelled (p != r ? (p, r) : 0,
    q != s ? (q, s) : 0).  With pairs="ordered" the pairs are ordered and the
    sectors are those of a diagonal-unitary covariant Choi: d^2 (d-1)^2
    scalars, 2 d (d-1) blocks of side d and one block of side d^2.  With
    pairs="unordered" they are the sign-symmetric sectors: (d (d-1) / 2)^2
    blocks of side 4, d (d-1) blocks of side 2d and one of side d^2.  A Choi
    matrix covariant under the group has no weight between sectors.
    """
    if pairs not in ("ordered", "unordered"):
        raise ValueError(f"pairs must be 'ordered' or 'unordered', got {pairs!r}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    p, q, r, s = np.indices((d,) * 4).reshape(4, -1)

    def pair_label(x, y):
        if pairs == "unordered":
            x, y = np.minimum(x, y), np.maximum(x, y)
        return np.where(x != y, x * d + y + 1, 0)

    label = pair_label(p, r) * (d * d + 1) + pair_label(q, s)
    order = np.argsort(label, kind="stable")
    _, starts, counts = np.unique(label[order], return_index=True, return_counts=True)
    blocks = []
    for size in np.unique(counts):
        rows = order[starts[counts == size][:, None] + np.arange(size)]
        rows.setflags(write=False)
        blocks.append(rows)
    return ChargeSectors(d**4, tuple(blocks))


def sector_eigenvalues(m: np.ndarray, sectors: ChargeSectors) -> np.ndarray:
    """Spectrum of the symmetrized matrix, read sector by sector (unsorted).

    The principal blocks of each sector size are gathered at once and
    diagonalized in one batched call; 1 x 1 sectors are read off the diagonal.
    Raises ValueError if any entry between two different sectors is nonzero,
    since the block spectra would then not be the spectrum of the matrix.
    This is the byte-identity oracle for positions.sector_spectrum, which
    gathers the same blocks from the tables instead of the assembled Choi.
    """
    if m.shape != (sectors.side, sectors.side):
        raise ValueError(f"matrix shape {m.shape} does not match sector side {sectors.side}")
    parts = []
    inside = 0  # nonzero entries that lie within some sector
    for rows in sectors.blocks:
        if rows.shape[1] == 1:
            diag = m[rows[:, 0], rows[:, 0]]
            inside += np.count_nonzero(diag)
            parts.append(diag.real)
        else:
            stack = m[rows[:, :, None], rows[:, None, :]]
            inside += np.count_nonzero(stack)
            parts.append(hermitian_eigenvalues(stack).reshape(-1))
    if np.count_nonzero(m) != inside:
        off = np.array(m)
        for rows in sectors.blocks:
            off[rows[:, :, None], rows[:, None, :]] = 0
        raise ValueError(
            f"matrix has weight {np.abs(off).max():.3e} outside its charge sectors"
        )
    return np.concatenate(parts)


def sector_psd_report(m: np.ndarray, tol: float, sectors: ChargeSectors):
    """psd_report with the spectrum read by sector_eigenvalues: (is_psd, min
    eigenvalue, Hermiticity deviation) over the whole assembled matrix."""
    evals = sector_eigenvalues(m, sectors)
    herm = hermiticity_deviation(m)
    max_entry = float(np.abs(m).max()) if m.size else 0.0
    return psd_accepts(evals, max_entry, herm, tol), float(evals.min()), herm


def random_hermitian_du_params(rng: np.random.Generator, d: int) -> DUSuperParams:
    """Random tables satisfying the Hermiticity pairings (usually not CP/TP)."""
    n = d * d
    a = rng.normal(size=(n, n))

    def sym(axes):
        t = rng.normal(size=(d, d, d, d)) + 1j * rng.normal(size=(d, d, d, d))
        return ((t + t.transpose(axes).conj()) / 2).reshape(n, n)

    return DUSuperParams.masked(d, a, sym((0, 3, 2, 1)), sym((2, 1, 0, 3)), sym((2, 3, 0, 1)))


def random_do_params(rng: np.random.Generator, d: int) -> DOSuperParams:
    """Random nine tables on their supports (A real, the rest complex)."""
    n = d * d
    t = {name: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
         for name in DOSuperParams.NAMES}
    t["A"] = t["A"].real
    return DOSuperParams.masked(d, **t)


def classical_du_params(rng: np.random.Generator, d: int) -> DUSuperParams:
    """Valid params with only the stochastic table: alpha (x) w with row- and
    column-stochastic factors."""
    alpha = rng.dirichlet(np.ones(d), size=d)          # rows sum to 1
    w = rng.dirichlet(np.ones(d), size=d).T            # columns sum to 1
    a = np.einsum("ij,ab->iajb", alpha, w).reshape(d * d, d * d)
    z = np.zeros((d * d, d * d))
    return DUSuperParams.masked(d, a, z, z, z)


def du_sandwich_params(rng: np.random.Generator, d: int) -> DUSuperParams:
    """Valid params from a diagonal-unitary pre/post conjugation sandwich."""
    s = sandwich_superchannel(
        unitary_conjugation(diagonal_unitary(rng, d)),
        unitary_conjugation(diagonal_unitary(rng, d)),
    )
    return from_choi(s)


def dephasing_du_params(rng: np.random.Generator, d: int, e: int = 3) -> DUSuperParams:
    """The four DU tables of a random realization's multiplier table."""
    return from_choi(build_choi(dephasing_from_realization(*random_realization(rng, d, e))))


def random_valid_du_params(rng: np.random.Generator, d: int) -> DUSuperParams:
    """Random valid (CP and TP) parameter set: a convex mixture of classical,
    dephasing-derived and diagonal-unitary sandwich components."""
    parts = [
        classical_du_params(rng, d),
        dephasing_du_params(rng, d),
        du_sandwich_params(rng, d),
    ]
    weights = rng.dirichlet(np.ones(len(parts)))
    tables = {}
    for name in "ABCD":
        tables[name] = sum(w * getattr(p, name) for w, p in zip(weights, parts))
    return DUSuperParams.masked(d, tables["A"], tables["B"], tables["C"], tables["D"])


def random_valid_superchoi(rng: np.random.Generator, d0: int, d1: int,
                           terms: int = 3) -> SuperChoi:
    """Random valid superchannel: convex mixture of sandwiches with unitary
    pre-processing and random CPTP post-processing."""
    weights = rng.dirichlet(np.ones(terms))
    acc = None
    for w in weights:
        s = sandwich_superchannel(
            unitary_conjugation(haar_unitary(rng, d0)),
            random_channel(rng, d1),
        )
        acc = w * s.mat if acc is None else acc + w * s.mat
    return SuperChoi((d0, d1, d0, d1), acc)


def random_valid_do_params(rng: np.random.Generator, d: int) -> DOSuperParams:
    """A random valid superchannel averaged over diagonal signs: its nine
    tables read off the Choi of random_valid_superchoi (A taken real)."""
    t = tables_from_choi(random_valid_superchoi(rng, d, d).mat, d, DOSuperParams)
    return DOSuperParams(d, **{**t, "A": t["A"].real})


def du_compose_reference(p: DUSuperParams, q: DUSuperParams) -> DUSuperParams:
    """The paper's parameter-level rule for the tables of p after q: A
    multiplies as a matrix over the pair index, D entrywise, and B and C
    contract over one label each."""
    d = p.d
    b = np.einsum("iakb,kajb->iajb", p.t4("B"), q.t4("B")).reshape(d * d, d * d)
    c = np.einsum("iajb,ibjc->iajc", p.t4("C"), q.t4("C")).reshape(d * d, d * d)
    return DUSuperParams.masked(d, p.A @ q.A, b, c, p.D * q.D)


# ---------------------------------------------------------------------------
# per-entry reference for the table position map
# ---------------------------------------------------------------------------


def loop_build_choi(p: DUSuperParams) -> np.ndarray:
    """Reference DU Choi assembly, one table entry at a time."""
    d = p.d
    a4, b4, c4, d4 = (p.t4(n) for n in "ABCD")
    c = np.zeros((d**4, d**4), dtype=complex)
    c8 = c.reshape((d,) * 8)
    for i, a, j, b in product(range(d), repeat=4):
        c8[j, b, i, a, j, b, i, a] += a4[i, a, j, b]
        if a != b:
            c8[j, a, i, a, j, b, i, b] += b4[i, a, j, b]
        if i != j:
            c8[i, b, i, a, j, b, j, a] += c4[i, a, j, b]
            if a != b:
                c8[i, a, i, a, j, b, j, b] += d4[i, a, j, b]
    return c


def loop_do_build_choi(p: DOSuperParams) -> np.ndarray:
    """Reference nine-table Choi assembly, one table entry at a time."""
    d = p.d
    a4, b4, c4, d4, e4, p4, q4, r4, s4 = (p.t4(n) for n in DOSuperParams.NAMES)
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
    return c


def scatter_dephasing_choi(p: DephasingSuperParams) -> np.ndarray:
    """Reference dephasing Choi: M_big[K, L] assigned to e_KK, e_LL."""
    n = p.d * p.d
    c = np.zeros((n * n, n * n), dtype=complex)
    kk = np.arange(n) * (n + 1)  # the basis vectors e_K (x) e_K
    c[kk[:, None], kk] = p.M_big
    return c


def loop_do_tables(mat: np.ndarray, d: int) -> dict:
    """Reference extraction of the nine tables (complex, d^2 x d^2); the
    first four are the DU tables."""
    c8 = mat.reshape((d,) * 8)
    t = {name: np.zeros((d, d, d, d), dtype=complex) for name in DOSuperParams.NAMES}
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
    return {name: x.reshape(d * d, d * d) for name, x in t.items()}


def loop_cp_blocks(p: DUSuperParams):
    """Reference M_ab (from A, C), N_ab (from B, D) and the coupled block
    sum_a e_aa (x) M_aa + sum_{a!=b} e_ab (x) N_ab."""
    d = p.d
    a4, b4, c4, d4 = (p.t4(n) for n in "ABCD")
    m = np.zeros((d, d, d * d, d * d), dtype=complex)
    n = np.zeros((d, d, d * d, d * d), dtype=complex)
    m4 = m.reshape(d, d, d, d, d, d)
    n4 = n.reshape(d, d, d, d, d, d)
    for a, b in product(range(d), repeat=2):
        for i, j in product(range(d), repeat=2):
            m4[a, b, j, i, j, i] += a4[i, a, j, b]
            n4[a, b, j, i, j, i] += b4[i, a, j, b]
            if i != j:
                m4[a, b, i, i, j, j] += c4[i, a, j, b]
                n4[a, b, i, i, j, j] += d4[i, a, j, b]
    block = np.zeros((d * d * d, d * d * d), dtype=complex)
    blk4 = block.reshape(d, d * d, d, d * d)
    for a in range(d):
        for b in range(d):
            blk4[a, :, b, :] = m[a, a] if a == b else n[a, b]
    return m, n, block


def cp_bases(d: int):
    """Choi basis indices of the closed form's principal blocks.

    Row a*d + b is M_ab, the block on {A1 = b, B1 = a} ordered (A0, B0); the
    coupled block is the one on {A1 = B1}, ordered (A1, A0, B0).
    """
    a, b, x, y = np.ogrid[:d, :d, :d, :d]
    k, x3, y3 = np.ogrid[:d, :d, :d]
    return (
        (((x * d + b) * d + y) * d + a).reshape(d * d, d * d),
        (((x3 * d + k) * d + y3) * d + k).reshape(1, d**3),
    )


def principal_blocks(p, basis: np.ndarray) -> np.ndarray:
    """Principal blocks of choi_from_tables(p), read straight off the tables
    by one masked scatter per table: the reference for positions.sector_blocks.

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


def _tables_only(p: DUSuperParams, names: str) -> SimpleNamespace:
    """The tables ``names`` of p alone, as the positions helpers read them."""
    return SimpleNamespace(d=p.d, NAMES=tuple(names), FAMILY=p.FAMILY,
                           **{name: getattr(p, name) for name in names})


def cp_blocks(p: DUSuperParams):
    """The permuted-basis blocks M_ab (from A, C) and N_ab (from B, D), read
    off the tables by principal_blocks.  N_ab is the (a, b) block of the
    coupled block; N_aa is zero."""
    d = p.d
    m_basis, coupled = cp_bases(d)
    m = principal_blocks(_tables_only(p, "AC"), m_basis).reshape(d, d, d * d, d * d)
    n = principal_blocks(_tables_only(p, "BD"), coupled).reshape(d, d * d, d, d * d)
    return m, n.transpose(0, 2, 1, 3)


def cp_block_matrix(p: DUSuperParams) -> np.ndarray:
    """The d^3 x d^3 coupled block sum_a e_aa (x) M_aa + sum_{a!=b} e_ab (x) N_ab."""
    return principal_blocks(p, cp_bases(p.d)[1])[0]


def rebuild_residual(mat: np.ndarray, d: int, names) -> float:
    """Reference extraction residual: read the tables ``names`` ("ABCD" or
    DOSuperParams.NAMES) off mat with A taken real, rebuild the Choi entry by entry
    and take the largest modulus of the difference."""
    t = loop_do_tables(mat, d)
    t["A"] = t["A"].real
    if tuple(names) == tuple("ABCD"):
        rebuilt = loop_build_choi(DUSuperParams(d, *(t[n] for n in "ABCD")))
    else:
        rebuilt = loop_do_build_choi(DOSuperParams(d, **t))
    return float(np.abs(rebuilt - mat).max())


@dataclass(frozen=True)
class DenseSuperchannelVerdict:
    """What dense_validate_superchannel measures, under the names and with
    the report of the library's SuperchannelVerdict."""

    is_cp: bool
    min_eigenvalue: float
    factorization_deviation: float
    marginal_deviation: float
    hermiticity_deviation: float
    tol: float

    @property
    def is_tp(self) -> bool:
        return self.factorization_deviation <= self.tol and self.marginal_deviation <= self.tol

    @property
    def ok(self) -> bool:
        return self.is_cp and self.is_tp

    def report(self) -> dict:
        return {
            "is_cp": self.is_cp,
            "is_tp": self.is_tp,
            "min_eig": self.min_eigenvalue,
            "factorization_deviation": self.factorization_deviation,
            "marginal_deviation": self.marginal_deviation,
            "hermiticity_deviation": self.hermiticity_deviation,
        }


def dense_validate_superchannel(s: SuperChoi, tol: float) -> DenseSuperchannelVerdict:
    """Reference validate_superchannel: C0 on (A0, B0) averages the A1 blocks
    of Tr_B1 C through partial_trace, and the factorization residual is
    || Tr_B1 C - C0 (x) I_A1 ||_max with the product formed by kron and
    permute_subsystems, independently of tp_preserving_check, from which
    validate_superchannel and do_validate read both residuals."""
    cp_ok, min_eig, herm = psd_report(s.mat, tol)
    reduced = partial_trace(s, 3)  # on (A0, A1, B0)
    c0 = partial_trace(reduced, 1)      # on (A0, B0), trace over A1
    c0_mat = c0.mat / s.dA1
    target = kron(
        MultipartiteOperator((s.dA0, s.dB0), c0_mat),
        MultipartiteOperator((s.dA1,), np.eye(s.dA1, dtype=complex)),
    )
    target = permute_subsystems(target, (0, 2, 1))  # (A0, B0, A1) -> (A0, A1, B0)
    fact_dev = float(np.abs(reduced.mat - target.mat).max())
    marg = partial_trace(MultipartiteOperator((s.dA0, s.dB0), c0_mat), 0)
    marg_dev = float(np.abs(marg.mat - np.eye(s.dB0)).max())
    return DenseSuperchannelVerdict(cp_ok, min_eig, fact_dev, marg_dev, herm, tol)


# ---------------------------------------------------------------------------
# dense reference for the sampled covariance test
# ---------------------------------------------------------------------------


# group -> (element kind, U' = conj(U), V' = conj(V)), restated apart from
# covariance.GROUPS so that a change there shows against it
REFERENCE_GROUPS = {
    "du": ("diagonal-unitary", False, False),
    "do": ("diagonal-orthogonal", False, False),
    "haar": ("haar-unitary", False, False),
    "conj-haar": ("haar-unitary", True, True),
    "mixed": ("haar-unitary", False, True),
}


def _reference_draw(rng: np.random.Generator, kind: str, d: int) -> np.ndarray:
    """One group element as a d x d matrix, asserted unitary, and diagonal
    (with +-1 entries for the signs) for the diagonal kinds."""
    if kind == "diagonal-unitary":
        u = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d)))
    elif kind == "diagonal-orthogonal":
        u = np.diag((rng.integers(0, 2, d) * 2 - 1).astype(complex))
        assert set(np.diagonal(u).tolist()) <= {-1.0, 1.0}
    else:  # QR of a complex Gaussian with phase-fixed diagonal
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z / np.sqrt(2.0))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    if kind != "haar-unitary":
        assert np.count_nonzero(u - np.diag(np.diagonal(u))) == 0
    assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-12
    return u


def reference_draws(group: str, d: int, seed: int, n: int):
    """n samples (U, V, U', V') of the named group, one draw at a time from
    four generators of their own, seeded seed, seed + 1, seed and seed + 1,
    with U' and V' conjugated where the group says."""
    kind, conj_u, conj_v = REFERENCE_GROUPS[group]
    rngs = [np.random.default_rng(seed + k) for k in (0, 1, 0, 1)]
    conjugate = (False, False, conj_u, conj_v)
    for _ in range(n):
        draws = [_reference_draw(rng, kind, d) for rng in rngs]
        yield tuple(u.conj() if c else u for u, c in zip(draws, conjugate))


def dense_covariance_reference(mat: np.ndarray, group: str, d: int, seed: int, n: int):
    """(max deviation, worst sample) of |W X W^dag - X| over n samples of
    reference_draws, with W = U (x) conj(V) (x) conj(U') (x) V' formed densely."""
    worst, worst_idx = 0.0, 0
    for k, (u, v, up, vp) in enumerate(reference_draws(group, d, seed, n)):
        w = np.kron(np.kron(u, v.conj()), np.kron(up.conj(), vp))
        dev = float(np.abs(w @ mat @ w.conj().T - mat).max())
        if dev > worst:
            worst, worst_idx = dev, k
    return worst, worst_idx


def rephasing_covariance_reference(mat: np.ndarray, group: str, d: int, seed: int, n: int):
    """dense_covariance_reference for a diagonal group, with W X W^dag
    formed entrywise from the diagonal w of W, as (w_r x_rc) conj(w_c), one
    sample at a time.  A matrix product may round that triple product
    differently (fused or reordered operations in the BLAS kernel), so only
    products of +-1 are certain to agree with the dense reference bit for bit."""
    worst, worst_idx = 0.0, 0
    for k, draws in enumerate(reference_draws(group, d, seed, n)):
        u, v, up, vp = (np.diagonal(x) for x in draws)
        w = np.kron(np.kron(u, v.conj()), np.kron(up.conj(), vp))
        dev = float(np.abs(w[:, None] * mat * w.conj()[None, :] - mat).max())
        if dev > worst:
            worst, worst_idx = dev, k
    return worst, worst_idx


# ---------------------------------------------------------------------------
# per-entry references for loops the library replaced with array operations
# ---------------------------------------------------------------------------


def loop_tp_preserving_parts(s: SuperChoi, tol: float = DEFAULT_TOL):
    """(offdiagonal leak, induced Choi matrix, fiber deviation, unitality
    deviation, deviations, witness) of tp_preserving_check, by the double
    loops it used to run and image by image: each fiber's average is its sum
    over a divided by d1, and the witness is loop_fiber_witness's."""
    d0, d1, b0 = s.dA0, s.dA1, s.dB0
    c6 = s.mat.reshape(d0, d1, b0, s.dB1, d0, d1, b0, s.dB1)
    images = np.einsum("iapqjbrq->ijabpr", c6)
    leak = 0.0
    for a in range(d1):
        for b in range(d1):
            if a != b:
                leak = max(leak, float(np.abs(images[:, :, a, b]).max()))
    fibers = list(product(range(d0), range(d0), range(b0), range(b0)))
    mean = {(i, j, p, r): sum(images[i, j, a, a, p, r] for a in range(d1)) / d1
            for i, j, p, r in fibers}
    choi = np.zeros((d0 * b0, d0 * b0), dtype=complex)
    c4 = choi.reshape(d0, b0, d0, b0)
    for i, j, p, r in fibers:
        c4[i, p, j, r] = mean[i, j, p, r]
    flat = [((i, j, a, p, r), (i, j, p, r), images[i, j, a, a, p, r])
            for i, j, a, p, r in product(range(d0), range(d0), range(d1), range(b0), range(b0))]
    worst, deviation, witness = loop_fiber_witness(flat, mean, tol)
    unital = [sum(mean[i, i, p, r] for i in range(d0)) - (p == r)
              for p, r in product(range(b0), repeat=2)]
    return leak, choi, worst, np.abs(unital).max(), deviation, witness


def loop_fiber_witness(images, mean: dict, tol: float):
    """Reference fiber scan over images, a list of (index, fiber key, value)
    in row-major order of the index, mean[key] each fiber's average:
    (the largest deviation |value - mean[key]|, the array of deviations in
    order, the witness).  The witness is the index of the first image whose
    deviation is within tol * max(1, scale) of the largest, scale the largest
    real or imaginary part of a value, then the first position a' in its
    fiber whose value is within the same slack of the farthest from it.
    Moduli are taken by np.abs of arrays: numpy's SIMD complex abs rounds
    otherwise than the scalar one."""
    fibers: dict = {}
    for _, key, value in images:
        fibers.setdefault(key, []).append(value)
    deviation = np.abs([value - mean[key] for _, key, value in images])
    worst = deviation.max()
    slack = tol * max(1.0, *(max(abs(v.real), abs(v.imag)) for _, _, v in images))
    for (index, key, value), dev in zip(images, deviation):
        if dev >= worst - slack:
            far = np.abs(np.array(fibers[key]) - value)
            return worst, deviation, (*index, int(np.flatnonzero(far >= far.max() - slack)[0]))


def loop_classical_table(s: SuperChoi) -> np.ndarray:
    """T of classical_superchannel_extract, one diagonal Choi entry at a time."""
    d0, d1, b0, b1 = s.dA0, s.dA1, s.dB0, s.dB1
    c8 = s.mat.reshape(d0, d1, b0, b1, d0, d1, b0, b1)
    T = np.empty((b0 * b1, d0 * d1))
    for i in range(d0):
        for a in range(d1):
            for j in range(b0):
                for b in range(b1):
                    T[j * b1 + b, i * d1 + a] = c8[i, a, j, b, i, a, j, b].real
    return T


def loop_du_action_on_identity(p: DUSuperParams) -> ChoiChannel:
    """The channel of p acting on the identity channel, reading the tables one
    entry at a time: S_ij = sum_k A_{ji,kk} and the off-diagonal D_{ii,jj}."""
    d = p.d
    a4, d4 = p.t4("A"), p.t4("D")
    s = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            s[i, j] = sum(a4[j, i, k, k] for k in range(d))
    b = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if i != j:
                b[i, j] = d4[i, i, j, j]
    return table_channel(DUChannelParams(d, s, b))


def random_doc_params(rng: np.random.Generator, d: int) -> DOChannelParams:
    """Random DOC channel tables on their supports (A real, B and C complex)."""
    b, c = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2))
    return DOChannelParams.masked(d, rng.normal(size=(d, d)), b, c)


def scatter_doc_action(p: DUSuperParams, q: DOChannelParams) -> tuple[dict, float]:
    """The DOC tables (A, B, C) of the image of q's channel under p, and the
    image's largest off-pattern magnitude: the action taken by the scatter
    reference on the assembled Choi, the image split by a hand-built mask."""
    d = p.d
    y = scatter_block_action(p, table_channel(q).mat)
    pt, qt, rt, off = loop_do_pattern_split(y.reshape(d, d, d, d))
    return {"A": pt.T, "B": qt, "C": rt.T}, off


def loop_do_pattern_split(x4: np.ndarray):
    """Sign-symmetric pattern components of an operator on (d, d), P on
    e_mm (x) e_nn, Q on e_mn (x) e_mn and R on e_mn (x) e_nm (the DO channel
    tables A^T, B and C^T), plus the largest off-pattern magnitude, from a
    hand-built mask."""
    m, n = np.ogrid[: x4.shape[0], : x4.shape[0]]
    on = np.zeros(x4.shape, dtype=bool)
    on[m, n, m, n] = on[m, m, n, n] = on[m, n, n, m] = True
    p = x4[m, n, m, n]
    q = np.where(m != n, x4[m, m, n, n], 0.0)
    r = np.where(m != n, x4[m, n, n, m], 0.0)
    return p, q, r, float(np.abs(x4[~on]).max(initial=0.0))


def du_extraction_ok(s: SuperChoi, tol: float = 1e-10) -> bool:
    """Whether du.from_choi reads DU tables off the Choi s within tol."""
    try:
        from_choi(s, tol)
    except NotDUCovariantError:
        return False
    return True


def scatter_block_action(p: DUSuperParams, x: np.ndarray) -> np.ndarray:
    """apply_tables on DU tables by three einsum contractions and three scatters."""
    d = p.d
    x4 = np.asarray(x, dtype=complex).reshape(d, d, d, d)
    a4, b4, c4, d4 = (p.t4(n) for n in "ABCD")
    xdiag = np.einsum("jbjb->jb", x4)
    ydiag = np.einsum("iajb,jb->ia", a4, xdiag)
    w = np.einsum("jajb->jab", x4)
    yb = np.einsum("iajb,jab->iab", b4, w)
    v = np.einsum("ibjb->ijb", x4)
    yc = np.einsum("iajb,ijb->iaj", c4, v)
    # D scales every entry; then the i = j blocks take B's image, the a = b
    # entries C's and the diagonal A's, each write overriding the one before
    k = np.arange(d)
    i, a, b = k[:, None, None], k[:, None], k
    y4 = d4 * x4
    y4[i, a, i, b] = yb
    y4[i, a, b, a] = yc
    y4[k[:, None], k, k[:, None], k] = ydiag
    return y4.reshape(d * d, d * d)


def loop_channel_choi(d: int, a, b=None, c=None) -> np.ndarray:
    """Choi of the DUC (a, b), CDUC (a, c) or DOC (a, b, c) channel tables,
    one entry at a time."""
    choi = np.zeros((d * d, d * d), dtype=complex)
    c4 = choi.reshape(d, d, d, d)
    for k in range(d):
        for i in range(d):
            c4[k, i, k, i] = a[i, k]
    if b is not None:
        for k in range(d):
            for l in range(d):
                if k != l:
                    c4[k, k, l, l] = b[k, l]
    if c is not None:
        for k in range(d):
            for l in range(d):
                if k != l:
                    c4[k, l, l, k] = c[l, k]
    return choi


def loop_pair_violation(a: np.ndarray, c: np.ndarray) -> float:
    """Worst violation of |C_ij|^2 <= A_ij A_ji over i != j."""
    worst = 0.0
    d = a.shape[0]
    for i in range(d):
        for j in range(d):
            if i != j:
                worst = max(worst, abs(c[i, j]) ** 2 - a[i, j] * a[j, i])
    return worst


def loop_classical_channel_extract(ch: ChoiChannel) -> np.ndarray:
    """S[a, i] = <i a|C|i a>, one diagonal Choi entry at a time."""
    c4 = ch.choi4()
    s = np.empty((ch.d_out, ch.d_in))
    for i in range(ch.d_in):
        for a in range(ch.d_out):
            s[a, i] = c4[i, a, i, a].real
    return s


def loop_dephasing_choi(m: np.ndarray) -> np.ndarray:
    """Choi of the Schur-product channel X -> M o X, one entry at a time."""
    d = m.shape[0]
    c = np.zeros((d * d, d * d), dtype=complex)
    c4 = c.reshape(d, d, d, d)
    for i in range(d):
        for j in range(d):
            c4[i, i, j, j] = m[i, j]
    return c


def loop_realization_table(u_list, v_list, psi) -> np.ndarray:
    """M_big of dephasing_from_realization, one inner product at a time."""
    d = len(u_list)
    vectors = [[v @ (u @ psi) for v in v_list] for u in u_list]  # [j][b] = V_b U_j psi
    m = np.empty((d * d, d * d), dtype=complex)
    for i, a, j, b in product(range(d), repeat=4):
        m[i * d + a, j * d + b] = np.vdot(vectors[j][b], vectors[i][a])
    return m


def loop_pauli_super_choi(pi: np.ndarray) -> np.ndarray:
    """The Pauli superchannel Choi term by term: each conjugation
    w P+ w^dag, w = 1 (x) sigma_mu (x) sigma_nu, built from its krons and
    added in (mu, nu) order."""
    p_plus = max_entangled_projector(4).mat
    acc = np.zeros((16, 16), dtype=complex)
    for mu in range(4):
        for nu in range(4):
            w = np.kron(np.eye(4), np.kron(PAULI[mu], PAULI[nu]))
            acc += pi[mu, nu] * (w @ p_plus @ w.conj().T)
    return acc


def loop_pauli_bistochastic(pi: np.ndarray) -> np.ndarray:
    """The Pauli bistochastic matrix entry by entry: M[alpha, beta] the sum
    over mu of pi[mu, mu ^ alpha ^ beta], by Python's sum in mu order."""
    m = np.zeros((4, 4))
    for alpha in range(4):
        for beta in range(4):
            m[alpha, beta] = sum(pi[mu, mu ^ alpha ^ beta] for mu in range(4))
    return m


# ---------------------------------------------------------------------------
# oracles and fixtures that no command needs
# ---------------------------------------------------------------------------


def operator(mat, dims) -> MultipartiteOperator:
    """Wrap an array-like square matrix as a MultipartiteOperator."""
    return MultipartiteOperator(tuple(dims), np.asarray(mat, dtype=complex))


def apply_channel(ch: ChoiChannel, rho) -> MultipartiteOperator:
    """Apply the channel: Phi(rho) = Tr_in[(rho^T (x) I) C]."""
    r = rho.mat if isinstance(rho, MultipartiteOperator) else np.asarray(rho, dtype=complex)
    if r.shape != (ch.d_in, ch.d_in):
        raise ValueError(f"state side {r.shape} does not match d_in={ch.d_in}")
    out = np.einsum("ij,iajb->ab", r, ch.choi4())
    return MultipartiteOperator((ch.d_out,), out)


def identity_channel(d: int) -> ChoiChannel:
    return ChoiChannel((d, d), max_entangled_projector(d).mat)


def depolarizing(d: int) -> ChoiChannel:
    """Completely depolarizing channel X -> Tr(X) I/d."""
    return ChoiChannel((d, d), np.eye(d * d, dtype=complex) / d)


def transpose_map(d: int) -> ChoiChannel:
    """The transposition map (not CP); its Choi is the swap matrix."""
    return ChoiChannel((d, d), swap_operator(d).mat)


def identity_superchannel(d0: int, d1: int) -> SuperChoi:
    """Choi of the identity map on M_{d0 d1}, refined to dims (d0, d1, d0, d1)."""
    p = max_entangled_projector(d0 * d1)
    return SuperChoi((d0, d1, d0, d1), p.mat)


def du_identity(d: int) -> DUSuperParams:
    """Tables whose assembled Choi is the identity map on M_{d^2}."""
    if d < 2:
        raise ValueError("du_identity requires d >= 2")
    row, col = np.ogrid[:d * d, :d * d]  # the pair indices (i, a) and (j, b)
    same_i, same_a = row // d == col // d, row % d == col % d
    return DUSuperParams.masked(d, same_i & same_a, same_i, same_a, 1.0)


def du_identity_channel_params(d: int) -> DUChannelParams:
    """DUC tables of the identity channel."""
    ones = np.ones((d, d)) - np.eye(d)
    return DUChannelParams(d, np.eye(d), ones.astype(complex))


def from_du_params(p: DUSuperParams) -> DOSuperParams:
    """Embed a diagonal-unitary covariant parameter set (extra tables zero)."""
    return DOSuperParams.masked(p.d, A=p.A, B=p.B, C=p.C, D=p.D)


def as_lists(doc):
    """A copy of a document with every numpy array as its nested lists: what
    jsonio.dump_json's text of the document parses back to, and so what
    the jsonio readers read, and a copy a test may edit in place (matrix
    data are read-only arrays)."""
    if isinstance(doc, dict):
        return {k: as_lists(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [as_lists(v) for v in doc]
    return doc.tolist() if isinstance(doc, np.ndarray) else doc


def pauli_to_json(p) -> dict:
    """The JSON form of a PauliSuperParams that jsonio.pauli_from_json reads."""
    return {"pi": [[float(v) for v in row] for row in p.pi]}


def pauli_marginal_channel(p) -> ChoiChannel:
    """The qubit Pauli channel induced on input marginals, with weights the
    row sums of the table."""
    return pauli_channel(p.pi.sum(axis=1))


def uu_closed_form_action(params: UUFamilyParams, ch: ChoiChannel) -> ChoiChannel:
    """Channel-level evaluation of the mixture by explicit composition.

    Must agree with representing_apply on the assembled Choi; the two routes
    are kept independent on purpose.
    """
    d = params.d
    if (ch.d_in, ch.d_out) != (d, d):
        raise ValueError(f"channel dims do not match d={d}")
    dep = depolarizing(d)
    trans = transpose_map(d)
    if params.variant == "covariant":
        terms = [
            ch,
            compose_channels(dep, ch),
            compose_channels(ch, dep),
            compose_channels(dep, compose_channels(ch, dep)),
        ]
    elif params.variant == "conjugate":
        sandwich_t = compose_channels(trans, compose_channels(ch, trans))
        terms = [
            sandwich_t,
            compose_channels(dep, compose_channels(ch, trans)),
            compose_channels(trans, compose_channels(ch, dep)),
            compose_channels(dep, compose_channels(ch, dep)),
        ]
    else:  # mixed
        terms = [
            compose_channels(trans, ch),
            compose_channels(dep, ch),
            compose_channels(trans, compose_channels(ch, dep)),
            compose_channels(dep, compose_channels(ch, dep)),
        ]
    acc = sum(w * t.mat for w, t in zip(params.p, terms))
    return ChoiChannel((d, d), acc)


def uu_induced_map(params: UUFamilyParams) -> ChoiChannel:
    """The map the mixture induces on input marginals (identity-or-transpose
    with weight p0+p1, depolarizing with weight p2+p3)."""
    d = params.d
    first = transpose_map(d) if params.variant == "conjugate" else identity_channel(d)
    acc = (params.p0 + params.p1) * first.mat + (
        params.p2 + params.p3
    ) * depolarizing(d).mat
    return ChoiChannel((d, d), acc)
