"""The table position map against the per-entry reference and the charge sectors."""

import numpy as np
import pytest

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
    _cp_blocks,
    build_choi,
    cp_block_matrix,
    from_choi,
)
from superchan.linalg import charge_sectors
from superchan.positions import extraction_residual, table_positions
from superchan.superchannels import super_choi

from helpers import (
    loop_build_choi,
    loop_cp_blocks,
    loop_do_build_choi,
    loop_do_tables,
    random_do_params,
    random_hermitian_du_params,
    rebuild_residual,
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

    m, n = _cp_blocks(p)
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
    if names == "ABCD":
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
@pytest.mark.parametrize("names", ["ABCD", TABLE_NAMES], ids=["du", "do"])
def test_extraction_residual_is_bit_identical_to_rebuild_and_subtract(d, names):
    extract, error = (from_choi, NotDUCovariantError) if names == "ABCD" else (
        do_from_choi, NotDOCovariantError)
    for mat in _residual_inputs(d, names):
        ref = rebuild_residual(mat, d, names)
        assert ref > 0
        assert extraction_residual(mat, d, names) == ref
        with pytest.raises(error) as info:
            extract(super_choi(mat, (d,) * 4), tol=0.0)
        assert info.value.residual == ref
