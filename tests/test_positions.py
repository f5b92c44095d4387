"""The table position map against the per-entry reference and the charge sectors."""

import numpy as np
import pytest

from superchan.dephasing import DephasingSuperParams
from superchan.do import (
    TABLE_NAMES,
    DOSuperParams,
    NotDOCovariantError,
    do_build_choi,
    do_from_choi,
)
from superchan.du import (
    DUSuperParams,
    NotDUCovariantError,
    build_choi,
    from_choi,
)
from superchan.linalg import charge_sectors
from superchan.positions import apply_tables, extraction_residual, table_positions
from superchan.superchannels import representing_apply, super_choi

from helpers import (
    cp_block_matrix,
    cp_blocks,
    loop_build_choi,
    loop_cp_blocks,
    loop_do_build_choi,
    loop_do_tables,
    random_do_params,
    random_hermitian,
    random_hermitian_du_params,
    rebuild_residual,
    scatter_dephasing_choi,
)

rng = np.random.default_rng(53)


def _tables_with_negative_zeros(d, names):
    """Random tables, zero outside their supports, with -0.0 planted both
    inside the support and outside it (where it passes the support check)."""
    n = d * d
    out = {}
    for name in names:
        t = rng.normal(size=(n, n))
        if name != "A":
            t = t + 1j * rng.normal(size=(n, n))
        t = np.where(table_positions(d, name).mask, t, 0.0)
        t[rng.random(size=(n, n)) < 0.3] = -0.0
        out[name] = t
    return out


def _with_negative_zeros(mat):
    return np.where(mat == 0, complex(-0.0, -0.0), mat)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_du_map_is_bit_identical_to_the_per_entry_reference(d):
    p = DUSuperParams(d, **_tables_with_negative_zeros(d, "ABCD"))
    choi = build_choi(p).choi.mat
    assert choi.tobytes() == loop_build_choi(p).tobytes()

    mat = _with_negative_zeros(choi)
    q = from_choi(super_choi(mat, (d,) * 4))
    ref = loop_do_tables(mat, d)
    assert q.A.tobytes() == ref["A"].real.tobytes()
    for name in "BCD":
        assert getattr(q, name).tobytes() == ref[name].tobytes()

    m, n = cp_blocks(p)
    ref_m, ref_n, ref_block = loop_cp_blocks(p)
    assert m.tobytes() == ref_m.tobytes()
    assert n.tobytes() == ref_n.tobytes()
    assert cp_block_matrix(p).tobytes() == ref_block.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_do_map_is_bit_identical_to_the_per_entry_reference(d):
    p = DOSuperParams(d, **_tables_with_negative_zeros(d, TABLE_NAMES))
    choi = do_build_choi(p).choi.mat
    assert choi.tobytes() == loop_do_build_choi(p).tobytes()

    mat = _with_negative_zeros(choi)
    q = do_from_choi(super_choi(mat, (d,) * 4))
    ref = loop_do_tables(mat, d)
    assert q.A.tobytes() == ref["A"].real.tobytes()
    for name in TABLE_NAMES[1:]:
        assert getattr(q, name).tobytes() == ref[name].tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_dephasing_map_is_bit_identical_to_the_scatter_reference(d):
    m = _tables_with_negative_zeros(d, ("M_big",))["M_big"]
    m[-1, 0] = -0.0
    p = DephasingSuperParams(d, m)
    choi = build_choi(p).choi.mat
    ref = scatter_dephasing_choi(p)
    assert np.signbit(ref[ref == 0].real).any()
    # the scatter assigns each entry, the map adds it into zeros: a -0.0 lands as +0.0
    assert choi.tobytes() == (ref + 0.0).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "names, pairs, count",
    [
        ("ABCD", "ordered", lambda d: d**2 * (2 * d - 1) ** 2),
        (TABLE_NAMES, "unordered", lambda d: d**2 * (3 * d - 2) ** 2),
    ],
    ids=["du", "do"],
)
def test_positions_are_disjoint_and_fill_the_charge_sectors(d, names, pairs, count):
    owner = np.full((d**4, d**4), -1)
    for k, name in enumerate(names):
        pos = table_positions(d, name)
        assert (owner[pos.rows, pos.cols] == -1).all(), f"{name} overlaps an earlier table"
        owner[pos.rows, pos.cols] = k
        assert len(set(zip(pos.rows, pos.cols))) == pos.flat.size
    sector = np.empty(d**4, dtype=int)
    first = 0
    for rows in charge_sectors(d, pairs).blocks:
        sector[rows] = first + np.arange(len(rows))[:, None]
        first += len(rows)
    inside = sector[:, None] == sector[None, :]
    assert np.array_equal(owner >= 0, inside)
    assert int(inside.sum()) == count(d)


def _residual_inputs(d, names):
    """Generic matrices, covariant ones with planted off-pattern weight, and
    covariant ones with imaginary parts at the A positions (the diagonal)."""
    shape = (d**4, d**4)
    generic = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if names == DUSuperParams.NAMES:
        covariant = build_choi(random_hermitian_du_params(rng, d)).choi.mat
    else:
        covariant = do_build_choi(random_do_params(rng, d)).choi.mat
    planted = covariant.copy()
    zeros = np.argwhere(covariant == 0)
    r, c = zeros[rng.choice(len(zeros), size=5, replace=False)].T
    planted[r, c] = rng.normal(size=5) * 10.0 ** rng.uniform(-12, 0, size=5)
    imag_a = covariant + np.diag(1j * rng.normal(size=d**4) * 1e-9)
    return generic, planted, imag_a


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("cls", [DUSuperParams, DOSuperParams], ids=["du", "do"])
def test_extraction_residual_is_bit_identical_to_rebuild_and_subtract(d, cls):
    names = cls.NAMES
    extract, error = (from_choi, NotDUCovariantError) if cls is DUSuperParams else (
        do_from_choi, NotDOCovariantError)
    for mat in _residual_inputs(d, names):
        ref = rebuild_residual(mat, d, names)
        assert ref > 0
        assert extraction_residual(mat, d, cls) == ref
        with pytest.raises(error) as info:
            extract(super_choi(mat, (d,) * 4), tol=0.0)
        assert info.value.residual == ref


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cls", [DUSuperParams, DOSuperParams], ids=["du", "do"])
def test_apply_tables_matches_the_representing_map_of_the_choi(d, cls):
    # the Choi route stays the oracle; the sums run in another order
    n = d * d
    if cls is DUSuperParams:
        p, build = random_hermitian_du_params(rng, d), build_choi
    else:
        p, build = random_do_params(rng, d), do_build_choi
    s = build(p)
    generic = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    signed_zeros = _with_negative_zeros(np.where(rng.random((n, n)) < 0.5, generic, 0.0))
    for x in (random_hermitian(rng, n), generic, signed_zeros):
        got = apply_tables(p, x)
        ref = representing_apply(s, x).mat
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
