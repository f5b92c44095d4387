import re
from collections import Counter
from itertools import product

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from superchan import cli, jsonio
from superchan.channels import (
    ChoiChannel,
    ConjDUChannelParams,
    DOChannelParams,
    DUChannelParams,
    table_channel_validate,
    validate_channel,
)
from superchan.covariance import (
    UUFamilyParams,
    superchannel_covariance_check,
)
from superchan.dephasing import DephasingSuperParams, dephasing_from_realization, dephasing_validate
from superchan.do import DOSuperParams
from superchan.du import DUSuperParams, build_choi, du_cp_check, du_tp_check
from superchan.linalg import (
    MultipartiteOperator,
    NonHermitianMatrixError,
    hermitian_eigenvalues,
    hermiticity_deviation,
    is_hermitian,
    is_psd,
    kron,
    matrix_from_json,
    matrix_to_json,
    max_entangled_projector,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    psd_report,
    swap_operator,
)
from superchan.pauli import PauliSuperParams, pauli_du_check
from superchan.superchannels import (
    SuperChoi,
    classical_superchannel_extract,
    representing_apply,
    validate_superchannel,
)

from helpers import (
    charge_sectors,
    du_identity_channel_params,
    operator,
    random_channel,
    random_hermitian,
    random_realization,
    random_valid_du_params,
    random_valid_superchoi,
    sector_eigenvalues,
    sector_psd_report,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_operator_validation():
    with pytest.raises(ValueError):
        operator(np.eye(3), (2,))
    with pytest.raises(ValueError):
        operator(np.array([[np.nan, 0], [0, 1]]), (2,))
    with pytest.raises(ValueError):
        operator(np.eye(4), (2, -2))


def test_operator_immutable():
    x = operator(np.eye(2), (2,))
    with pytest.raises(ValueError):
        x.mat[0, 0] = 5.0
    assert repr(operator(np.eye(6), (2, 3))) == "MultipartiteOperator(dims=(2, 3), side=6)"
    assert not hasattr(x, "__dict__")  # built once per matrix: no dict per instance


@pytest.mark.parametrize("cls, dims, names, wrong", [
    (ChoiChannel, (2, 3), {"d_in": 2, "d_out": 3}, [(6,), (1, 2, 3), (1, 2, 3, 1)]),
    (SuperChoi, (2, 1, 3, 1), {"dA0": 2, "dA1": 1, "dB0": 3, "dB1": 1, "d_in": 2, "d_out": 3},
     [(6,), (2, 3), (2, 3, 1), (2, 1, 3, 1, 1)]),
])
def test_choi_records_are_operators_of_their_dims_length(cls, dims, names, wrong):
    rec = cls(dims, np.eye(6))
    assert isinstance(rec, MultipartiteOperator) and rec.dims == dims
    assert {name: getattr(rec, name) for name in names} == names
    assert repr(rec) == f"{cls.__name__}(dims={dims}, side=6)"
    assert not hasattr(rec, "choi") and not hasattr(rec, "__dict__")
    expected = "(d_in, d_out)" if cls is ChoiChannel else "(A0, A1, B0, B1)"
    for bad in wrong:
        with pytest.raises(ValueError, match=rf"a {cls.__name__} has dims {re.escape(expected)}, "
                                             rf"got {re.escape(str(bad))}$"):
            cls(bad, np.eye(6))


def test_choi_records_go_unwrapped_into_the_kernel():
    local = np.random.default_rng(43)
    ch, s = random_channel(local, 2), random_valid_superchoi(local, 2, 2)
    g = local.normal(size=(4, 4)) + 1j * local.normal(size=(4, 4))  # not Hermitian
    for rec in (ch, s, ChoiChannel((2, 2), g)):
        plain = MultipartiteOperator(rec.dims, rec.mat)
        assert psd_report(rec) == psd_report(rec.mat)
        assert hermiticity_deviation(rec) == hermiticity_deviation(rec.mat)
        results = [(partial_trace(rec, k), partial_trace(plain, k)) for k in range(len(rec.dims))]
        results.append((kron(rec, ch), kron(plain, MultipartiteOperator(ch.dims, ch.mat))))
        for got, ref in results:
            assert type(got) is MultipartiteOperator and got.dims == ref.dims
            assert got.mat.tobytes() == ref.mat.tobytes()
    got, ref = representing_apply(s, ch), representing_apply(s, ch.mat)
    assert got.dims == ref.dims == (2, 2) and got.mat.tobytes() == ref.mat.tobytes()


def _one_of_each_frozen_class():
    """name -> one instance of every immutable class of the package: the
    records (tuples) and the value and table classes (linalg.Frozen)."""
    local = np.random.default_rng(41)
    du = random_valid_du_params(local, 2)
    pauli = PauliSuperParams(np.full((4, 4), 1 / 16))
    s = build_choi(du)
    ch = random_channel(local, 2)
    tp = du_tp_check(du)
    out = {
        "ChannelVerdict": validate_channel(ch),
        "DUChannelVerdict": table_channel_validate(du_identity_channel_params(2)),
        "DephasingVerdict": dephasing_validate(
            dephasing_from_realization(*random_realization(local, 2, 2))),
        "DUTPVerdict": tp,
        "TPPreservingVerdict": tp.tp,
        "DUCPVerdict": du_cp_check(du),
        "PauliDUVerdict": pauli_du_check(pauli),
        "SuperchannelVerdict": validate_superchannel(s),
        "ClassicalSuperchannel": classical_superchannel_extract(s),
        "CovarianceVerdict": superchannel_covariance_check(
            du, "du", 3),
        "CommandResult": cli.CommandResult(0, {}),
        "MultipartiteOperator": partial_trace(s, 3),
        "ChoiChannel": ch,
        "SuperChoi": s,
        "PauliSuperParams": pauli,
        "UUFamilyParams": UUFamilyParams("covariant", 1.0, 0.0, 0.0, 0.0, 2),
    }
    for cls in (DUSuperParams, DOSuperParams, DephasingSuperParams, DUChannelParams,
                ConjDUChannelParams, DOChannelParams):
        side = 4 if cls.FAMILY == "super" else 2
        out[cls.__name__] = cls.masked(2, **{n: np.eye(side) for n in cls.NAMES})
    return out


def test_frozen_classes_refuse_assignment_and_deletion():
    objs = _one_of_each_frozen_class()
    assert ChoiChannel.__slots__ == SuperChoi.__slots__ == ()
    assert not hasattr(objs["SuperChoi"], "choi") and not hasattr(objs["ChoiChannel"], "choi")
    for name, obj in objs.items():
        assert type(obj).__name__ == name
        # a Choi record's own __slots__ is (): its fields are its operator's
        slots = next((c.__slots__ for c in type(obj).__mro__ if getattr(c, "__slots__", ())), ())
        fields = getattr(obj, "_fields", None) or slots or ("d", *obj.NAMES)
        for field in (fields[0], fields[-1]):
            value = getattr(obj, field)
            with pytest.raises(AttributeError):
                setattr(obj, field, value)
            with pytest.raises(AttributeError):
                delattr(obj, field)
            assert getattr(obj, field) is value, (name, field)
        with pytest.raises(AttributeError):
            obj.unknown_field = 0
        if isinstance(obj, tuple):  # a record unpacks in field order
            assert len(obj) == len(obj._fields)
            assert all(v is getattr(obj, f) for v, f in zip(obj, obj._fields)), name
    status, report, artifacts = cli.CommandResult(3, {"x": 1})
    assert (status, report, artifacts) == (3, {"x": 1}, ())


def test_kron_matrix_unit_against_identity():
    e01 = np.zeros((2, 2))
    e01[0, 1] = 1.0
    out = kron(operator(e01, (2,)), operator(np.eye(2), (2,)))
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = 1.0
    assert np.array_equal(out.mat, expected)
    assert out.dims == (2, 2)


def test_kron_identities():
    out = kron(operator(np.eye(2), (2,)), operator(np.eye(3), (3,)))
    assert np.array_equal(out.mat, np.eye(6))


def test_kron_sigma_x_moves_basis_index():
    xx = kron(operator(SIGMA_X, (2,)), operator(SIGMA_X, (2,)))
    v = np.zeros(4)
    v[0] = 1.0
    out = xx.mat @ v
    assert out[3] == 1.0 and np.abs(out).sum() == 1.0


def test_partial_trace_product_states():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = operator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), (2,))
        b = operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), (3,))
        prod = kron(a, b)
        left = partial_trace(prod, 1)
        right = partial_trace(prod, 0)
        assert np.allclose(left.mat, b.trace() * a.mat, atol=1e-13)
        assert np.allclose(right.mat, a.trace() * b.mat, atol=1e-13)
        assert left.dims == (2,) and right.dims == (3,)


def test_partial_trace_max_entangled_marginal():
    p = max_entangled_projector(3)
    assert np.allclose(partial_trace(p, 1).mat, np.eye(3))
    assert np.allclose(partial_trace(p, 0).mat, np.eye(3))


def test_partial_trace_everything():
    x = operator(np.diag([1.0, 2.0, 3.0, 4.0]), (2, 2))
    out = partial_trace(x, (0, 1))
    assert out.dims == ()
    assert out.mat.shape == (1, 1)
    assert out.mat[0, 0] == 10.0


def test_partial_trace_bad_subsystem():
    with pytest.raises(ValueError):
        partial_trace(operator(np.eye(4), (2, 2)), 2)


def test_partial_transpose_product_and_involution():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    prod = kron(operator(a, (2,)), operator(b, (2,)))
    assert np.allclose(partial_transpose(prod, 0).mat, np.kron(a.T, b))
    x = operator(rng.normal(size=(4, 4)), (2, 2))
    assert np.array_equal(partial_transpose(partial_transpose(x, 0), 0).mat, x.mat)


def test_partial_transpose_of_max_entangled_is_swap():
    # expanding sum e_ij (x) e_ij entrywise, transposing the second factor
    # turns it into sum e_ij (x) e_ji
    p = max_entangled_projector(2)
    assert np.array_equal(partial_transpose(p, 1).mat, swap_operator(2).mat)


def test_full_transpose_is_composition_over_subsystems():
    rng = np.random.default_rng(2)
    x = operator(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), (2, 3))
    out = partial_transpose(partial_transpose(x, 0), 1)
    assert np.array_equal(out.mat, x.mat.T)


def test_permute_identity_and_swap():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3))
    prod = kron(operator(a, (2,)), operator(b, (3,)))
    same = permute_subsystems(prod, (0, 1))
    assert np.array_equal(same.mat, prod.mat)
    swapped = permute_subsystems(prod, (1, 0))
    assert swapped.dims == (3, 2)
    assert np.allclose(swapped.mat, np.kron(b, a))


def test_permute_preserves_spectrum_and_norm():
    rng = np.random.default_rng(4)
    x = operator(random_hermitian(rng, 16), (2, 2, 2, 2))
    y = permute_subsystems(x, (2, 0, 3, 1))
    assert np.allclose(np.linalg.eigvalsh(x.mat), np.linalg.eigvalsh(y.mat), atol=1e-12)
    assert np.isclose(np.linalg.norm(x.mat), np.linalg.norm(y.mat))
    assert np.isclose(x.trace(), y.trace())
    # bit-identical multiset of entries
    assert np.array_equal(
        np.sort_complex(x.mat.reshape(-1)), np.sort_complex(y.mat.reshape(-1))
    )


def test_permute_malformed():
    with pytest.raises(ValueError):
        permute_subsystems(operator(np.eye(4), (2, 2)), (0, 0))


def test_is_hermitian_and_psd_basics():
    assert is_psd(np.eye(4))
    assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3 and -1
    assert is_hermitian(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_psd_rejects_non_hermitian():
    with pytest.raises(NonHermitianMatrixError):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_psd_amplitude_damping_choi():
    gamma = 0.3
    s = np.sqrt(1 - gamma)
    choi = np.array(
        [[1, 0, 0, s], [0, 0, 0, 0], [0, 0, gamma, 0], [s, 0, 0, 1 - gamma]]
    )
    assert is_psd(choi)


def test_is_psd_matches_two_by_two_closed_form():
    # 2x2 Hermitian closed form: PSD iff trace >= 0 and det >= 0
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = random_hermitian(rng, 2)
        closed = np.trace(m).real >= 0 and np.linalg.det(m).real >= -1e-12
        assert is_psd(m) == closed


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_flatten_round_trip(dims, seed):
    # big-endian flattening: tensor view and flat matrix agree on every
    # multi-index
    rng = np.random.default_rng(seed)
    side = int(np.prod(dims))
    x = operator(rng.normal(size=(side, side)), dims)
    t = x.tensor()
    for _ in range(5):
        row = [rng.integers(0, d) for d in dims]
        col = [rng.integers(0, d) for d in dims]
        flat_row = 0
        flat_col = 0
        for d, r, c in zip(dims, row, col):
            flat_row = flat_row * d + r
            flat_col = flat_col * d + c
        assert t[tuple(row) + tuple(col)] == x.mat[flat_row, flat_col]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_partial_trace_linear_and_trace_preserving(da, db, seed):
    rng = np.random.default_rng(seed)
    side = da * db
    x = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    y = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    ox, oy = operator(x, (da, db)), operator(y, (da, db))
    oxy = operator(2.0 * x - 0.5 * y, (da, db))
    lin = partial_trace(oxy, 0).mat
    assert np.allclose(lin, 2.0 * partial_trace(ox, 0).mat - 0.5 * partial_trace(oy, 0).mat)
    assert np.isclose(partial_trace(ox, 1).trace(), ox.trace())


def test_matrix_json_round_trip():
    rng = np.random.default_rng(8)
    x = operator(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), (2, 3))
    # read back from the written text, as the CLI reads an artifact
    again = matrix_from_json(orjson.loads(jsonio.dump_json(matrix_to_json(x))))
    assert again.dims == x.dims
    assert np.array_equal(again.mat, x.mat)


def test_matrix_json_errors():
    with pytest.raises(ValueError):
        matrix_from_json({"dims": [2]})
    with pytest.raises(ValueError):
        matrix_from_json({"dims": [2], "data": [[1.0, 0.0]]})


def test_hermiticity_deviation():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert hermiticity_deviation(m) == 1.0
    assert hermiticity_deviation(np.eye(3)) == 0.0


def test_hermitian_eigenvalues_halve_before_adding():
    # (m + m^dag) / 2 overflows for finite entries near the float maximum
    big = np.diag([1.7e308, 1.7e308, 1.0])
    assert np.array_equal(hermitian_eigenvalues(big), [1.0, 1.7e308, 1.7e308])
    # on ordinary entries halving first is exact, so the bytes do not move
    local = np.random.default_rng(5)
    m = local.normal(size=(6, 5, 5)) + 1j * local.normal(size=(6, 5, 5))
    expected = np.linalg.eigvalsh((m + m.conj().transpose(0, 2, 1)) / 2)
    assert hermitian_eigenvalues(m).tobytes() == expected.tobytes()


def sector_labels(d, pairs):
    """The charge label of every basis vector (p, q, r, s), written out from
    the definition: (p != r ? (p, r) : 0, q != s ? (q, s) : 0)."""

    def pair(x, y):
        if x == y:
            return 0
        return (x, y) if pairs == "ordered" else frozenset((x, y))

    return [(pair(p, r), pair(q, s)) for p, q, r, s in product(range(d), repeat=4)]


def random_sector_hermitian(rng, d, pairs):
    """Random Hermitian matrix with no weight between charge sectors."""
    labels = sector_labels(d, pairs)
    mask = np.array([[x == y for y in labels] for x in labels])
    return random_hermitian(rng, d**4) * mask


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_charge_sector_sizes(d):
    expected = {
        "ordered": [(1, d * d * (d - 1) ** 2), (d, 2 * d * (d - 1)), (d * d, 1)],
        "unordered": [(4, (d * (d - 1) // 2) ** 2), (2 * d, d * (d - 1)), (d * d, 1)],
    }
    for pairs, counts in expected.items():
        sectors = charge_sectors(d, pairs)
        sizes = Counter()
        for rows in sectors.blocks:
            sizes[rows.shape[1]] += rows.shape[0]
        want = Counter()
        for size, count in counts:  # at d = 2 the unordered sizes coincide
            want[size] += count
        assert sizes == want
        flat = np.concatenate([rows.reshape(-1) for rows in sectors.blocks])
        assert np.array_equal(np.sort(flat), np.arange(d**4))
        labels = sector_labels(d, pairs)
        sector_ids = [{labels[k] for k in row} for rows in sectors.blocks for row in rows]
        assert all(len(ids) == 1 for ids in sector_ids)
        assert len(set.union(*sector_ids)) == len(sector_ids)


@pytest.mark.parametrize("pairs", ["ordered", "unordered"])
def test_sector_spectrum_matches_full_eigvalsh(pairs):
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        h = random_sector_hermitian(rng, d, pairs)
        for m in (h, h @ h):  # indefinite, then PSD
            full = np.linalg.eigvalsh(m)
            scale = max(1.0, np.abs(full).max())
            sectors = charge_sectors(d, pairs)
            evals = np.sort(sector_eigenvalues(m, sectors))
            assert np.abs(evals - full).max() <= 1e-12 * scale
            ok, min_eig, herm = sector_psd_report(m, 1e-10, sectors)
            assert (ok, herm) == psd_report(m, 1e-10)[::2]
            assert min_eig == pytest.approx(full[0], abs=1e-12 * scale)


def test_planted_off_sector_weight_raises():
    rng = np.random.default_rng(12)
    d = 3
    sectors = charge_sectors(d, "ordered")
    m = random_sector_hermitian(rng, d, "ordered")
    sector_eigenvalues(m, sectors)
    i, j = sectors.blocks[0][0, 0], sectors.blocks[-1][0, 0]
    m[i, j] = m[j, i] = 1e-300
    with pytest.raises(ValueError, match="outside its charge sectors"):
        sector_eigenvalues(m, sectors)
    with pytest.raises(ValueError):
        charge_sectors(d, "sorted")
