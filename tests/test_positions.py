"""The table position map against the per-entry reference and the charge sectors."""

import numpy as np
import pytest

from superchan.channels import (
    ConjDUChannelParams,
    DOChannelParams,
    DUChannelParams,
    compose_channels,
    table_channel,
)
from superchan.dephasing import DephasingSuperParams
from superchan.do import DOSuperParams, NotDOCovariantError
from superchan.du import (
    DUSuperParams,
    NotDUCovariantError,
    build_choi,
    from_choi,
)
from superchan.positions import (
    FAMILIES,
    apply_tables,
    choi_from_tables,
    compose_tables,
    composition_plan,
    extraction_residual,
    off_pattern_weight,
    sectors,
    table_positions,
)
from superchan.superchannels import compose_superchannels, representing_apply, super_choi

from helpers import (
    charge_sectors,
    cp_block_matrix,
    cp_blocks,
    du_compose_reference,
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
