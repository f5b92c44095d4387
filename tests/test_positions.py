"""The table position map against the per-entry reference and the charge sectors."""

import tracemalloc

import numpy as np
import pytest

from superchan.channels import (
    ConjDUChannelParams,
    DOChannelParams,
    DUChannelParams,
    compose_channels,
    table_channel,
)
from superchan.dephasing import DephasingSuperParams, dephasing_validate
from superchan.do import DOSuperParams, NotDOCovariantError, do_validate
from superchan.du import (
    DUSuperParams,
    NotDUCovariantError,
    build_choi,
    du_tp_check,
    from_choi,
)
from superchan.linalg import hermitian_eigenvalues
from superchan.positions import (
    FAMILIES,
    POSITIONS,
    TableParams,
    action_plan,
    apply_tables,
    b1_partial_trace,
    choi_from_tables,
    compose_tables,
    composition_plan,
    extraction_residual,
    off_pattern_weight,
    sector_blocks,
    sector_plan,
    sector_spectrum,
    sectors,
    table_positions,
    trace_plan,
)
from superchan.superchannels import (
    compose_superchannels,
    representing_apply,
    super_choi,
    tp_preserving_check,
    tp_preserving_verdict,
)

from helpers import (
    charge_sectors,
    cp_block_matrix,
    cp_blocks,
    du_compose_reference,
    loop_build_choi,
    loop_cp_blocks,
    loop_do_build_choi,
    loop_do_tables,
    principal_blocks,
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
        t = np.where(table_positions(d, name, "super").mask, t, 0.0)
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
    p = DOSuperParams(d, **_tables_with_negative_zeros(d, DOSuperParams.NAMES))
    choi = build_choi(p).choi.mat
    assert choi.tobytes() == loop_do_build_choi(p).tobytes()

    mat = _with_negative_zeros(choi)
    q = from_choi(super_choi(mat, (d,) * 4), cls=DOSuperParams)
    ref = loop_do_tables(mat, d)
    assert q.A.tobytes() == ref["A"].real.tobytes()
    for name in DOSuperParams.NAMES[1:]:
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
        (DOSuperParams.NAMES, "unordered", lambda d: d**2 * (3 * d - 2) ** 2),
    ],
    ids=["du", "do"],
)
def test_positions_are_disjoint_and_fill_the_charge_sectors(d, names, pairs, count):
    owner = np.full((d**4, d**4), -1)
    for k, name in enumerate(names):
        pos = table_positions(d, name, "super")
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


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("cls, pairs", [(DUSuperParams, "ordered"), (DOSuperParams, "unordered")],
                         ids=["du", "do"])
def test_sectors_are_the_charge_sectors_of_the_digit_labels(d, cls, pairs):
    # the same rows, size by size; derived rows come ordered by first index
    got, want = sectors(d, cls), charge_sectors(d, pairs).blocks
    assert [rows.shape[1] for rows in got] == [rows.shape[1] for rows in want]
    for rows, ref in zip(got, want):
        assert not rows.flags.writeable
        assert np.array_equal(rows, np.sort(rows, axis=1))
        assert np.array_equal(rows, ref[np.argsort(ref[:, 0])])
    assert sectors(d, cls) is got  # cached per (d, class)


TABLE_CLASSES = [DUSuperParams, DOSuperParams, DUChannelParams, ConjDUChannelParams,
                 DOChannelParams]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cls", TABLE_CLASSES, ids=["du", "do", "duc", "cduc", "doc"])
def test_positions_fill_their_sectors_and_never_cross_them(d, cls):
    side = d ** len(FAMILIES[cls.FAMILY][0])
    blocks = sectors(d, cls)
    flat = np.concatenate([rows.reshape(-1) for rows in blocks])
    assert np.array_equal(np.sort(flat), np.arange(side))  # a partition of the basis
    sector = np.empty(side, dtype=int)
    first = 0
    for rows in blocks:
        sector[rows] = first + np.arange(len(rows))[:, None]
        first += len(rows)
    held = np.zeros((side, side), dtype=bool)
    for name in cls.NAMES:
        pos = table_positions(d, name, cls.FAMILY)
        held[pos.rows, pos.cols] = True
    # every entry of a block is a position, and every position is in a block
    assert np.array_equal(held, sector[:, None] == sector[None, :])


def test_sectors_refuse_a_position_that_joins_two_blocks(monkeypatch):
    # L links ii to ij and R links ij to jj: the positions chain indices
    # together without filling the blocks they connect
    monkeypatch.setitem(FAMILIES, "chain", ("ij", {"L": ("ii", "ij", "ij"),
                                                   "R": ("ij", "jj", "ij")}))
    chain = type("Chain", (), {"NAMES": ("L", "R"), "FAMILY": "chain"})
    with pytest.raises(ValueError, match="a position of Chain joins two blocks at d=3"):
        sectors(3, chain)


def _residual_inputs(d, names):
    """Generic matrices, covariant ones with planted off-pattern weight, and
    covariant ones with imaginary parts at the A positions (the diagonal)."""
    shape = (d**4, d**4)
    generic = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if names == DUSuperParams.NAMES:
        covariant = build_choi(random_hermitian_du_params(rng, d)).choi.mat
    else:
        covariant = build_choi(random_do_params(rng, d)).choi.mat
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
    error = NotDUCovariantError if cls is DUSuperParams else NotDOCovariantError
    for mat in _residual_inputs(d, names):
        ref = rebuild_residual(mat, d, names)
        assert ref > 0
        assert extraction_residual(mat, d, cls) == ref
        with pytest.raises(error) as info:
            from_choi(super_choi(mat, (d,) * 4), tol=0.0, cls=cls)
        assert info.value.residual == ref


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cls", [DUSuperParams, DOSuperParams], ids=["du", "do"])
def test_apply_tables_matches_the_representing_map_of_the_choi(d, cls):
    # the Choi route stays the oracle; the sums run in another order
    n = d * d
    if cls is DUSuperParams:
        p, build = random_hermitian_du_params(rng, d), build_choi
    else:
        p, build = random_do_params(rng, d), build_choi
    s = build(p)
    generic = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    signed_zeros = _with_negative_zeros(np.where(rng.random((n, n)) < 0.5, generic, 0.0))
    for x in (random_hermitian(rng, n), generic, signed_zeros):
        got = apply_tables(p, x)
        ref = representing_apply(s, x).mat
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def _random_tables(cls, d):
    """Random tables of cls on their supports, A real and the rest complex."""
    n = d * d if cls.FAMILY == "super" else d
    t = {name: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for name in cls.NAMES}
    return cls.masked(d, **{n: t[n].real if n == "A" else t[n] for n in t})


def test_equal_b1_digits_force_equal_a1_digits():
    # why Tr_B1 of any table Choi has no image e_ij (x) e_ab with a != b: in
    # every entry whose row and column B1 digits may be equal (they are one
    # label, or two labels that no support pair keeps apart), setting them
    # equal makes the A1 digits equal too
    for name, (row, col, support) in POSITIONS.items():
        pairs = {support[k:k + 2] for k in range(0, len(support), 2)}
        if {row[3] + col[3], col[3] + row[3]} & pairs:
            continue  # the B1 digits always differ: no term
        unified = [c.replace(col[3], row[3]) for c in (row[1], col[1])]
        assert unified[0] == unified[1], name


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("cls", [DUSuperParams, DOSuperParams, DephasingSuperParams],
                         ids=["du", "do", "dephasing"])
def test_b1_partial_trace_is_the_dense_one_bit_for_bit(d, cls):
    tol = 1e-10
    for p in (_random_tables(cls, d), cls(d, **_tables_with_negative_zeros(d, cls.NAMES))):
        dense = tp_preserving_check(build_choi(p), tol)
        image, sums = b1_partial_trace(p)
        got = tp_preserving_verdict(0.0, image, sums, (d,) * 3, tol)
        assert dense.offdiagonal_leak == 0.0
        for key, value in dense.report().items():
            assert np.float64(got.report()[key]).tobytes() == np.float64(value).tobytes(), key
        assert got.induced.choi.mat.tobytes() == dense.induced.choi.mat.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("cls", [DUSuperParams, DOSuperParams, DephasingSuperParams],
                         ids=["du", "do", "dephasing"])
def test_b1_images_ascend_and_fill_their_fibers(d, cls):
    # what tp_preserving_verdict asks of its images: ascending, and every
    # fiber (i, j, p, r) touched holds all d of its images
    image, _ = b1_partial_trace(_random_tables(cls, d))
    assert (np.diff(image) > 0).all()
    fiber = image // d**3 * d**2 + image % d**2
    assert set(np.bincount(fiber)) <= {0, d}


def test_trace_plan_rejects_a_class_that_fills_a_fiber_in_part(monkeypatch):
    # A's positions less those with b = i: the fiber (j, j, i, i) of Tr_B1
    # then holds the d - 1 images with b != i, not all d
    monkeypatch.setitem(POSITIONS, "A_partial", ("jbia", "jbia", "bi"))

    class PartialFibers(TableParams):
        NAMES = ("A_partial",)
        FAMILY = "super"

    for d in (2, 3):
        with pytest.raises(ValueError, match=f"PartialFibers at d={d} holds some but not all"):
            trace_plan(d, PartialFibers)


def _trace_cases(cls, d):
    yield _random_tables(cls, d)
    yield cls(d, **_tables_with_negative_zeros(d, cls.NAMES))
    for _ in range(2):
        yield _edge_tables(cls, d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("cls", [DUSuperParams, DephasingSuperParams], ids=["du", "dephasing"])
def test_du_and_dephasing_trace_checks_are_the_choi_route_bit_for_bit(d, cls):
    # the oracle: tp_preserving_check on the assembled Choi, its deviations
    # taken from the einsum's images and the induced Choi's averages
    bits = np.float64
    k = np.arange(d) * (d + 1)  # induced Choi index (i, i)
    for p in _trace_cases(cls, d):
        s = build_choi(p)
        check = du_tp_check if cls is DUSuperParams else dephasing_validate
        with np.errstate(over="ignore", invalid="ignore"):  # sums past the float maximum
            try:
                dense = tp_preserving_check(s)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    check(p)
                continue
            images = np.einsum("iapqjbrq->ijabpr", s.choi.mat.reshape((d,) * 8))
            choi = dense.induced.choi.mat
            mean = choi.reshape((d,) * 4).transpose(0, 2, 1, 3)  # mean[i, j, p, r]
            dev = np.abs(images[:, :, range(d), range(d)] - mean[:, :, None])
        got = check(p)
        if cls is DUSuperParams:
            on = np.eye(d, dtype=bool)  # i == j: the alpha images
            assert bits(got.alpha_fiber_deviation).tobytes() == bits(dev[on].max()).tobytes()
            assert (bits(got.gamma_fiber_deviation).tobytes()
                    == bits(dev[~on].max(initial=0.0)).tobytes())
            assert (bits(got.row_sum_deviation).tobytes()
                    == bits(dense.unitality_deviation).tobytes())
            assert got.alpha.tobytes() == np.diagonal(choi).reshape(d, d).T.real.tobytes()
            gamma = choi[np.ix_(k, k)]
            gamma[range(d), range(d)] = 0.0
            assert got.gamma.tobytes() == gamma.tobytes()
        else:
            assert bits(got.fiber_deviation).tobytes() == bits(dev.max()).tobytes()
            assert (bits(got.diagonal_deviation).tobytes()
                    == bits(dense.unitality_deviation).tobytes())
            assert got.covariance.tobytes() == choi[np.ix_(k, k)].tobytes()
        assert bits(dense.fiber_deviation).tobytes() == bits(dev.max()).tobytes()


def test_b1_partial_trace_refuses_channel_tables():
    p = DOChannelParams.masked(2, A=np.eye(2), B=np.ones((2, 2)), C=0)
    with pytest.raises(ValueError, match="DOChannelParams holds channel tables, not superchannel"):
        b1_partial_trace(p)


EDGES = (-0.0, 5e-324, 1e308, -1e308)
ALL_TABLE_CLASSES = [DUSuperParams, DOSuperParams, DephasingSuperParams, DUChannelParams,
                     ConjDUChannelParams, DOChannelParams]
ALL_IDS = ["du", "do", "dephasing", "duc", "cduc", "doc"]
SUPER_CLASSES = [DUSuperParams, DOSuperParams, DephasingSuperParams]


def _edge_tables(cls, d):
    """Random tables of cls, A real, with -0.0, 5e-324 and +-1e308 planted in
    real and imaginary parts.  DU and sign-symmetric tables at d >= 2 also
    get two pairs of 1e308 whose terms of Tr_B1 meet: A[0, 0] and A[1, 0]
    (a real sum) and C[0, d] and C[1, d] (an imaginary one)."""
    n = d * d if cls.FAMILY == "super" else d
    t = {}
    for name in cls.NAMES:
        a = rng.normal(size=(n, n)) + (0 if name == "A" else 1j * rng.normal(size=(n, n)))
        k = rng.integers(0, n * n, size=2 * n)
        a.real.reshape(-1)[k] = rng.choice(EDGES, size=k.size)
        if name != "A":
            a.imag.reshape(-1)[k] = rng.choice(EDGES, size=k.size)
        t[name] = a
    if cls.FAMILY == "super" and "C" in t and d > 1:
        t["A"][[0, 1], 0] = 1e308
        t["C"][[0, 1], d] = 1e308j
    return cls.masked(d, **t)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cls", ALL_TABLE_CLASSES, ids=ALL_IDS)
def test_sector_spectrum_reads_the_dense_choi_bit_for_bit_at_the_edges(d, cls):
    # the oracle: the principal submatrices of the assembled Choi on each sector
    for _ in range(3):
        p = _edge_tables(cls, d)
        choi = choi_from_tables(p)
        evals, minimum, herm, max_entry = [], [], [], 0.0
        for rows, stack in zip(sectors(d, cls), sector_blocks(p)):
            ref = np.stack([choi[np.ix_(r, r)] for r in rows])
            assert stack.tobytes() == ref.tobytes()
            e = ref[:, :, 0].real if rows.shape[1] == 1 else hermitian_eigenvalues(ref)
            evals.append(e.reshape(-1))
            minimum.append(e[:, 0])
            with np.errstate(over="ignore"):
                herm.append(np.abs(ref - ref.transpose(0, 2, 1).conj()).max(axis=(1, 2)))
            max_entry = max(max_entry, float(np.abs(ref).max()))
        got = sector_spectrum(p, 1e-10)
        for key, value in (("evals", evals), ("minimum", minimum), ("hermiticity", herm)):
            assert getattr(got, key).tobytes() == np.concatenate(value).tobytes(), key
        assert np.float64(got.max_entry).tobytes() == np.float64(max_entry).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cls", SUPER_CLASSES, ids=["du", "do", "dephasing"])
def test_trace_and_action_plans_match_the_dense_choi_bit_for_bit_at_the_edges(d, cls):
    n = d * d
    saw_inf = False
    for _ in range(3):
        p = _edge_tables(cls, d)
        s = build_choi(p)
        with np.errstate(over="ignore", invalid="ignore"):  # sums past the float maximum
            images = np.einsum("iapqjbrq->ijabpr", s.choi.mat.reshape((d,) * 8))
        image, sums = b1_partial_trace(p)
        assert not images[:, :, ~np.eye(d, dtype=bool)].any()
        diag = np.zeros(d**5, dtype=complex)  # the images left out are zeros
        diag[image] = sums
        assert diag.tobytes() == images[:, :, range(d), range(d)].tobytes()
        saw_inf |= bool(np.isinf(diag.real).any() and np.isinf(diag.imag).any())
        if cls is DOSuperParams and d > 1:
            with pytest.raises(ValueError, match="the partial trace over B1 overflows"):
                do_validate(p)
        # x with one nonzero entry, real or imaginary: each entry of the image is
        # one product, the same in any summation or factor order; the assembled
        # Choi holds +0.0 where a table holds -0.0, so zeros compare unsigned
        for k in rng.choice(n * n, size=min(n * n, 12), replace=False):
            x = np.zeros(n * n, dtype=complex)
            (x.real, x.imag)[int(rng.integers(2))][k] = rng.choice((*EDGES, 1.0, -2.5))
            x = x.reshape(n, n)
            with np.errstate(over="ignore"):  # representing_apply's contraction, inf allowed
                got, ref = apply_tables(p, x), np.einsum("ij,iajb->ab", x, s.choi4())
            assert (got + 0.0).tobytes() == (ref + 0.0).tobytes()
    assert saw_inf == (cls is not DephasingSuperParams and d > 1)


def test_sector_blocks_are_the_reference_scatter_up_to_d8():
    for d in (6, 7, 8):
        for cls in ALL_TABLE_CLASSES:
            p = _random_tables(cls, d) if cls is not DephasingSuperParams else (
                DephasingSuperParams(d, random_hermitian(rng, d * d)))
            for rows, stack in zip(sectors(d, cls), sector_blocks(p)):
                assert stack.tobytes() == principal_blocks(p, rows).tobytes()


@pytest.mark.parametrize("cls", ALL_TABLE_CLASSES, ids=ALL_IDS)
def test_table_classes_take_d_then_each_table_once_in_order_or_by_name(cls):
    d = 3
    tables = [getattr(_random_tables(cls, d), n) for n in cls.NAMES]
    named = dict(zip(cls.NAMES, tables))
    last = cls.NAMES[-1]
    for p in (cls(d, *tables), cls(d, **named), cls(d=d, **named),
              cls(d, *tables[:-1], **{last: tables[-1]})):
        assert p.d == d
        for name, t in named.items():
            assert getattr(p, name).tobytes() == t.tobytes() and not getattr(p, name).flags.writeable
    wrong = {
        "missing": ((d, *tables[:-1]), {}),
        "missing by name": ((d,), {n: t for n, t in named.items() if n != last}),
        "unknown": ((d, *tables), {"Z": tables[0]}),
        "unknown in place of one": ((d, *tables[:-1]), {"Z": tables[-1]}),
        "doubled": ((d, *tables), {cls.NAMES[0]: tables[0]}),
        "one too many in order": ((d, *tables, tables[0]), {}),
    }
    for label, (args, kwargs) in wrong.items():
        with pytest.raises(TypeError, match=f"{cls.__name__} takes d, then each of the tables"):
            cls(*args, **kwargs)
    with pytest.raises(TypeError):
        cls(**named)  # no d


INDEX_PLANS = {"sector": sector_plan, "trace": trace_plan, "action": action_plan}


def _plan_arrays(plan):
    """Every array of a plan, nested tuples included (the names between them left out)."""
    if isinstance(plan, np.ndarray):
        return [plan]
    return [arr for part in plan if not isinstance(part, str) for arr in _plan_arrays(part)]


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("cls", ALL_TABLE_CLASSES, ids=ALL_IDS)
def test_plans_are_cached_read_only_and_per_family(d, cls):
    for kind, build in INDEX_PLANS.items():
        if cls.FAMILY == "channel" and kind != "sector":
            with pytest.raises(ValueError, match=f"{cls.__name__} holds channel tables"):
                build(d, cls)
            continue
        plan = build(d, cls)
        assert build(d, cls) is plan
        for arr in _plan_arrays(plan):
            assert not arr.flags.writeable and arr.dtype in (np.intp, np.bool_)
    # one position map, two families: the super and channel plans at one d differ
    other = DOChannelParams if cls.FAMILY == "super" else DOSuperParams
    assert sector_plan(d, cls) is not sector_plan(d, other)
    assert sector_plan(d, cls).size != sector_plan(d, other).size


def test_the_plans_of_d16_sign_symmetric_tables_fit_in_20_mb():
    d, cls = 16, DOSuperParams
    for name in cls.NAMES:  # cached apart, and not part of the plans
        table_positions(d, name, cls.FAMILY)
    sectors(d, cls)
    for build in INDEX_PLANS.values():
        build.cache_clear()
    tracemalloc.start()
    try:
        plans = [build(d, cls) for build in INDEX_PLANS.values()]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(arr.nbytes for plan in plans for arr in _plan_arrays(plan)) <= held
    assert held <= 20 * 2**20


@pytest.mark.parametrize("cls, dims", [
    (DUSuperParams, (2, 3, 4)), (DOSuperParams, (2, 3, 4)), (DephasingSuperParams, (2, 3, 4)),
    (DUChannelParams, (2, 3, 4, 5)), (DOChannelParams, (2, 3, 4, 5)),
], ids=["du", "do", "dephasing", "duc", "doc"])
def test_compose_tables_matches_the_choi_link_product(cls, dims):
    build, link = ((table_channel, compose_channels) if cls.FAMILY == "channel"
                   else (build_choi, compose_superchannels))
    for d in dims:
        p, q = _random_tables(cls, d), _random_tables(cls, d)
        got = build(compose_tables(p, q)).choi.mat
        ref = link(build(p), build(q)).choi.mat
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


# (R, P, Q, einsum labels of P, Q and R) of every triple of each closed class
PLANS = {
    DUSuperParams: """A A A klmn mnop klop | B B B klmn mlon klon | C C C klmn knmo klmo
        | D D D klmn klmn klmn""",
    DOSuperParams: """A A A klmn mnop klop | B B B klmn mlon klon | R B R klmn onml onkl
        | C C C klmn knmo klmo | E C E klmn mokn mokl | D D D klmn klmn klmn
        | P D P klmn mlkn mlkn | Q D Q klmn mnkl mnkl | S D S klmn knml knml
        | E E C klmn klmo komn | C E E klmn mokl mnko | P P D klmn klmn klmn
        | D P P klmn mlkn mlkn | S P Q klmn mnkl mnkl | Q P S klmn knml knml
        | Q Q D klmn klmn klmn | S Q P klmn mlkn mlkn | D Q Q klmn mnkl mnkl
        | P Q S klmn knml knml | R R B klmn klon olmn | B R R klmn onkl mnol
        | S S D klmn klmn klmn | Q S P klmn mlkn mlkn | P S Q klmn mnkl mnkl
        | D S S klmn knml knml""",
    DephasingSuperParams: "M_big M_big M_big klmn klmn klmn",
    DUChannelParams: "A A A kl lm km | B B B kl kl kl",
    DOChannelParams: """A A A kl lm km | B B B kl kl kl | C B C kl kl kl | C C B kl lk kl
        | B C C kl lk kl""",
}


def test_composition_plan_derives_the_papers_table_rules():
    # DU: A.A, B.B, C.C, D.D; dephasing: the Schur product; DUC: A @ A and B o B
    for cls, plan in PLANS.items():
        assert composition_plan(cls, cls) == tuple(tuple(t.split()) for t in plan.split("|"))
    # every (P, Q) pair of sign-symmetric tables whose entries meet feeds one table
    assert len({t[1:3] for t in composition_plan(DOSuperParams, DOSuperParams)}) == 25
    with pytest.raises(ValueError, match="C after C lands on none of its tables"):
        composition_plan(ConjDUChannelParams, ConjDUChannelParams)


@pytest.mark.parametrize("pcls, qcls", [
    (DUSuperParams, DUChannelParams), (DUSuperParams, ConjDUChannelParams),
    (DUSuperParams, DOChannelParams), (DOSuperParams, DOChannelParams),
    (DephasingSuperParams, DUChannelParams), (DephasingSuperParams, ConjDUChannelParams),
    (DephasingSuperParams, DOChannelParams),
], ids=["du-duc", "du-cduc", "du-doc", "do-doc", "dephasing-duc", "dephasing-cduc",
        "dephasing-doc"])
def test_compose_tables_acts_on_channel_tables_as_on_their_choi(pcls, qcls):
    for d in (2, 3, 4, 5):
        if pcls is DephasingSuperParams:  # Hermitian: the diagonal that feeds A is real
            p = DephasingSuperParams(d, random_hermitian(rng, d * d))
        else:
            p = _random_tables(pcls, d)
        q = _random_tables(qcls, d)
        got = compose_tables(p, q)
        assert type(got) is qcls
        ref = apply_tables(p, choi_from_tables(q))
        assert np.abs(choi_from_tables(got) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("qcls, first", [(DUChannelParams, "P after B"),
                                         (ConjDUChannelParams, "P after C")])
def test_sign_symmetric_tables_leave_the_unitary_channel_classes(qcls, first):
    # the plan refuses, and the Choi route lands off q's pattern
    for d in (2, 3, 4, 5):
        p, q = _random_tables(DOSuperParams, d), _random_tables(qcls, d)
        with pytest.raises(ValueError, match=f"is not a {qcls.__name__}: {first} lands"):
            compose_tables(p, q)
        assert off_pattern_weight(apply_tables(p, choi_from_tables(q)), d, qcls) > 1e-3


def test_compose_tables_takes_a_complex_a_as_an_error():
    # a non-Hermitian multiplier table has a complex diagonal, so channel A is complex
    d = 2
    m = np.ones((d * d, d * d), dtype=complex)
    m[0, 0] = 1j
    with pytest.raises(ValueError, match="table A must be real"):
        compose_tables(DephasingSuperParams(d, m), _random_tables(DUChannelParams, d))


@pytest.mark.parametrize("d", range(2, 9))
def test_compose_tables_follows_the_papers_four_table_rule(d):
    p, q = random_hermitian_du_params(rng, d), random_hermitian_du_params(rng, d)
    got, ref = compose_tables(p, q), du_compose_reference(p, q)
    for name in "ABCD":
        a, b = getattr(got, name), getattr(ref, name)
        assert np.all(np.abs(a - b) <= 1e-15 * np.maximum(1.0, np.abs(b))), name
    assert got.D.tobytes() == ref.D.tobytes()  # entrywise, so bit for bit


def test_compose_tables_keeps_a_negative_zero_of_an_entrywise_rule():
    # -0.0 times a positive real is -0.0; a sum starting from 0.0 would lose it
    d = 3
    p, q = random_hermitian_du_params(rng, d), random_hermitian_du_params(rng, d)
    pd, qd = p.D.copy(), q.D.copy()
    pd[0, 4], qd[0, 4] = -0.0, 2.0
    out = compose_tables(DUSuperParams(d, p.A, p.B, p.C, pd), DUSuperParams(d, q.A, q.B, q.C, qd))
    assert out.D[0, 4] == 0 and np.signbit(out.D[0, 4].real)
    m = DephasingSuperParams(d, np.where(rng.random((d * d, d * d)) < 0.3, -0.0, 1.0))
    assert compose_tables(m, m).M_big.tobytes() == (m.M_big * m.M_big).tobytes()


def test_compose_tables_refuses_a_class_it_cannot_close():
    # conjugate-covariant after conjugate-covariant is covariant: C o C lands on B
    p = _random_tables(ConjDUChannelParams, 3)
    with pytest.raises(ValueError, match="ConjDUChannelParams after ConjDUChannelParams is not "
                       "a ConjDUChannelParams: C after C lands on none of its tables"):
        compose_tables(p, p)
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        compose_tables(_random_tables(DUSuperParams, 2), _random_tables(DUSuperParams, 3))
    with pytest.raises(ValueError, match="cannot compose DUSuperParams with DOSuperParams"):
        compose_tables(_random_tables(DUSuperParams, 2), _random_tables(DOSuperParams, 2))
    with pytest.raises(ValueError, match="cannot compose DOSuperParams with DUSuperParams"):
        compose_tables(_random_tables(DOSuperParams, 2), _random_tables(DUSuperParams, 2))
    with pytest.raises(ValueError, match="cannot compose DUChannelParams with DOChannelParams"):
        compose_tables(_random_tables(DUChannelParams, 2), _random_tables(DOChannelParams, 2))
    # a channel after a superchannel is neither class
    with pytest.raises(ValueError, match="cannot compose DOChannelParams with DUSuperParams"):
        compose_tables(_random_tables(DOChannelParams, 2), _random_tables(DUSuperParams, 2))
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        compose_tables(_random_tables(DUSuperParams, 2), _random_tables(DOChannelParams, 3))
