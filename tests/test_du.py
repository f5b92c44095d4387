import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superchan.channels import (
    DOChannelParams,
    DUChannelParams,
    amplitude_damping,
    bit_flip,
    du_identity_channel_params,
    pauli_channel,
    table_channel,
    table_channel_validate,
    validate_channel,
)
from superchan.covariance import covariance_sampler_tuple, superchannel_covariance_check
from superchan.du import (
    DUSuperParams,
    NotDUCovariantError,
    build_choi,
    du_cp_check,
    du_identity,
    du_tp_check,
    from_choi,
)
from superchan import du as du_module, positions
from superchan.positions import apply_tables, compose_tables, composition_plan
from superchan.linalg import hermiticity_deviation, max_entangled_projector
from superchan.superchannels import (
    apply_to_channel,
    classical_superchannel_extract,
    compose_superchannels,
    identity_superchannel,
    representing_apply,
    sandwich_superchannel,
    tp_preserving_check,
    validate_superchannel,
)

from helpers import (
    charge_sectors,
    cp_block_matrix,
    cp_blocks,
    full_eigvalsh_psd,
    haar_unitary,
    loop_cp_blocks,
    loop_du_action_on_identity,
    random_doc_params,
    random_hermitian,
    random_hermitian_du_params,
    random_valid_du_params,
    scatter_block_action,
    scatter_doc_action,
    sector_psd_report,
    unitary_conjugation,
)

rng = np.random.default_rng(23)

# transcription of the displayed d=2 sparsity grid (rows of 16 letters);
# used as an independent oracle for where each table may place weight
PATTERN_D2 = [
    "A....B....C....D",
    ".A.........C....",
    "..A....B........",
    "...A............",
    "....A.........C.",
    "B....A....D....C",
    "......A.........",
    "..B....A........",
    "........A....B..",
    ".........A......",
    "C....D....A....B",
    ".C.........A....",
    "............A...",
    "........B....A..",
    "....C.........A.",
    "D....C....B....A",
]

SENTINELS = {"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0}


def test_du_identity_is_identity_superchannel():
    for d in (2, 3):
        p = du_identity(d)
        assert np.array_equal(build_choi(p).choi.mat, identity_superchannel(d, d).choi.mat)
        x = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        assert np.allclose(representing_apply(build_choi(p), x).mat, x)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_du_identity_tables_are_the_four_indicator_tables(d):
    # A on i = j and a = b, B on i = j, C on a = b, D everywhere, each cut to
    # its support: real ones in A, complex ones in B, C and D, no -0.0
    i, a, j, b = (x.reshape(d * d, d * d) for x in np.indices((d,) * 4))
    expected = {"A": ((i == j) & (a == b)).astype(float),
                "B": ((i == j) & (a != b)).astype(complex),
                "C": ((i != j) & (a == b)).astype(complex),
                "D": ((i != j) & (a != b)).astype(complex)}
    p = du_identity(d)
    for name, table in expected.items():
        got = getattr(p, name)
        assert got.dtype == table.dtype and got.tobytes() == table.tobytes(), name


def test_du_identity_is_compose_unit():
    for d in (2, 3):
        unit = du_identity(d)
        p = random_valid_du_params(rng, d)
        for composed in (compose_tables(p, unit), compose_tables(unit, p)):
            for name in "ABCD":
                assert np.allclose(getattr(composed, name), getattr(p, name), atol=1e-14)


def test_du_identity_tp_witness():
    verdict = du_tp_check(du_identity(3))
    assert verdict.ok
    assert np.array_equal(verdict.alpha, np.eye(3))
    ones_off = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(verdict.gamma, ones_off)


def test_support_masks_enforced():
    d = 2
    bad = np.ones((4, 4))
    with pytest.raises(ValueError):
        DUSuperParams(d, np.ones((4, 4)), bad, np.zeros((4, 4)), np.zeros((4, 4)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_tables_rejected(value):
    p = du_identity(2)
    for name in "ABCD":
        tables = {n: getattr(p, n).copy() for n in "ABCD"}
        tables[name][0, 3] = value
        with pytest.raises(ValueError, match="non-finite"):
            DUSuperParams(2, **tables)


def test_an_imaginary_a_is_rejected_not_cast():
    z = np.zeros((4, 4))
    with pytest.raises(ValueError, match="table A must be real"):
        DUSuperParams(2, 1j * np.eye(4), z, z, z)
    with pytest.raises(ValueError, match="table A must be real"):
        DUSuperParams.masked(2, A=1j * np.eye(4))
    # a NaN imaginary part is non-finite, not dropped with the imaginary part
    with pytest.raises(ValueError, match="table A has non-finite entries"):
        DUSuperParams.masked(2, A=np.eye(4) + complex(0.0, np.nan))
    # a zero imaginary part is dropped, and A's real bits stay
    a = np.where(np.eye(4) > 0, -0.0, 0.5)
    assert DUSuperParams.masked(2, A=a.astype(complex)).A.tobytes() == a.tobytes()


def test_build_choi_sentinel_pattern_matches_displayed_grid():
    # Hermiticity-compatible sentinel fill: every in-support entry of table T
    # set to the real sentinel value(T) keeps the pairing symmetries intact
    d = 2
    filled = DUSuperParams.masked(
        d, *(np.full((4, 4), SENTINELS[n]) for n in "ABCD")
    )
    mat = build_choi(filled).choi.mat
    expected = np.zeros((16, 16), dtype=complex)
    for r, row in enumerate(PATTERN_D2):
        for c, letter in enumerate(row):
            if letter != ".":
                expected[r, c] = SENTINELS[letter]
    assert np.array_equal(mat, expected)


def test_from_choi_round_trip_exact():
    for d in (2, 3):
        p = random_hermitian_du_params(rng, d)
        again = from_choi(build_choi(p))
        for name in "ABCD":
            assert np.array_equal(getattr(p, name), getattr(again, name))


def test_from_choi_rejects_generic_sandwich():
    s = sandwich_superchannel(
        unitary_conjugation(haar_unitary(rng, 2)),
        unitary_conjugation(haar_unitary(rng, 2)),
    )
    with pytest.raises(NotDUCovariantError) as info:
        from_choi(s)
    assert info.value.residual > 1e-3


def test_du_covariance_of_patterned_choi():
    for d in (2, 3):
        p = random_hermitian_du_params(rng, d)
        v = superchannel_covariance_check(
            build_choi(p), covariance_sampler_tuple("du", d, 13), n=20
        )
        assert v.max_deviation <= 1e-12


def test_du_tp_check_constructed_instance():
    d = 3
    alpha = rng.dirichlet(np.ones(d), size=d)
    w = rng.dirichlet(np.ones(d), size=d).T
    a = np.einsum("ij,ab->iajb", alpha, w).reshape(d * d, d * d)
    z = np.zeros((d * d, d * d))
    p = DUSuperParams.masked(d, a, z, z, z)
    verdict = du_tp_check(p)
    assert verdict.ok
    assert np.allclose(verdict.alpha, alpha, atol=1e-13)


def test_du_tp_check_detects_perturbation():
    d = 2
    p = du_identity(d)
    a = np.array(p.A)
    a[0, 1] += 0.1  # pair (i,a)=(0,0), (j,b)=(0,1)
    perturbed = DUSuperParams(d, a, p.B, p.C, p.D)
    verdict = du_tp_check(perturbed)
    assert not verdict.ok
    assert verdict.alpha_fiber_deviation >= 0.04
    assert verdict.worst_fiber[:2] == (0, 0)


def test_du_tp_witness_is_the_first_of_tied_fibers():
    # images in (i, j, a, p, r) order: the alpha fiber (i, j, b) of A is the
    # image (j, j, b, i, i), the gamma fiber of C the image (i, j, b, i, j)
    d = 3
    unit = du_identity(d)
    a = np.array(unit.A)
    a[0 * d + 0, 1 * d + 0] = a[1 * d + 0, 0 * d + 0] = 0.5  # fibers (0, 1, 0), (1, 0, 0)
    v = du_tp_check(DUSuperParams(d, a, unit.B, unit.C, unit.D))
    assert v.alpha_fiber_deviation == pytest.approx(1 / 3) and v.worst_fiber == (1, 0, 0)
    a = np.array(unit.A)
    a[1 * d, 1 * d] = 1.5  # the alpha fiber (1, 1, 0) reads [1.5, 1, 1]
    c = np.array(unit.C)
    c[0, d] = c[d, 0] = 1.5  # so do the gamma fibers (0, 1, 0) and (1, 0, 0)
    v = du_tp_check(DUSuperParams(d, a, unit.B, c, unit.D))
    assert v.alpha_fiber_deviation == v.gamma_fiber_deviation > 0.3
    assert v.worst_fiber == (0, 1, 0)


def test_du_tp_witness_of_a_valid_table_ignores_the_summation_order():
    # relabelling the summed index a reorders every fiber sum, and so its
    # roundoff; the deviations stay within tolerance and the witness stays put
    moved = 0
    for d in (3, 4, 5, 6):
        for _ in range(4):
            p = random_valid_du_params(rng, d)
            perm = rng.permutation(d)
            q = DUSuperParams(d, p.t4("A")[:, perm].reshape(p.A.shape), p.B,
                              p.t4("C")[:, perm].reshape(p.C.shape), p.D)
            vp, vq = du_tp_check(p), du_tp_check(q)
            assert vp.ok and vq.ok and vp.worst_fiber == vq.worst_fiber == (0, 0, 0)
            moved += vp.alpha_fiber_deviation != vq.alpha_fiber_deviation
    assert moved  # the roundoff did move


def test_du_tp_witness_names_an_inf_deviation():
    # a finite partial trace whose deviation from its average is not: the first inf
    d = 3
    unit = du_identity(d)
    a = np.array(unit.A)
    a[0, 0:3] = (1.7e308, -1.7e308, 1.7e308)
    v = du_tp_check(DUSuperParams(d, a, unit.B, unit.C, unit.D))
    assert v.alpha_fiber_deviation == np.inf and v.worst_fiber == (0, 0, 1)


def test_du_tp_equivalence_with_choi_level_check():
    for d in (2, 3):
        for k in range(40):
            if k % 2 == 0:
                p = random_hermitian_du_params(rng, d)
            else:
                p = random_valid_du_params(rng, d)
            v_params = du_tp_check(p)
            v_choi = tp_preserving_check(build_choi(p))
            assert v_params.ok == v_choi.ok


def test_b_and_d_images_are_traceless_on_output_pair():
    # consistency behind the trace-preservation criterion: the components
    # driven by B and D never contribute to the traced output
    d = 3
    z = np.zeros((d * d, d * d))
    b_only = DUSuperParams.masked(d, z, random_hermitian_du_params(rng, d).B, z, z)
    d_only = DUSuperParams.masked(d, z, z, z, random_hermitian_du_params(rng, d).D)
    for p in (b_only, d_only):
        s = build_choi(p)
        for _ in range(5):
            x = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            out = representing_apply(s, x).mat.reshape(d, d, d, d)
            traced = np.einsum("iaja->ij", out)
            assert np.abs(traced).max() <= 1e-12


def test_du_cp_check_block_structure_d2():
    # the coupled block has the displayed 2x2-of-4x4 arrangement
    p = random_hermitian_du_params(rng, 2)
    m, n = cp_blocks(p)
    block = cp_block_matrix(p)
    assert np.array_equal(block[:4, :4], m[0, 0])
    assert np.array_equal(block[4:, 4:], m[1, 1])
    assert np.array_equal(block[:4, 4:], n[0, 1])
    assert np.array_equal(block[4:, :4], n[1, 0])


def test_du_cp_equivalence_with_spectral_oracle():
    for d in (2, 3):
        for k in range(40):
            p = random_hermitian_du_params(rng, d)
            if k % 2:
                evals, vecs = np.linalg.eigh(build_choi(p).choi.mat)
                psd = (vecs * np.clip(evals, 0.0, None)) @ vecs.conj().T
                from superchan.superchannels import super_choi

                p = from_choi(super_choi(psd, (d, d, d, d)), tol=1e-8)
            verdict = du_cp_check(p)
            assert verdict.closed_form == full_eigvalsh_psd(build_choi(p).choi.mat)
            if k % 2:
                assert verdict.ok


def test_cp_verdict_names_the_failing_m_ab():
    # A[i=1, a=2, j=0, b=0] lands on the diagonal of M_20 alone; every other
    # M_ab with a != b stays zero
    p = du_identity(3)
    a = p.A.copy()
    a[1 * 3 + 2, 0] = -0.5
    verdict = du_cp_check(DUSuperParams(3, a, p.B, p.C, p.D))
    assert not verdict.ok
    assert verdict.offdiag_min_eigenvalue == -0.5
    assert verdict.offdiag_witness == (2, 0)
    assert verdict.report()["offdiag_witness"] == (2, 0)
    one = DUSuperParams(1, np.ones((1, 1)), *(np.zeros((1, 1)),) * 3)
    assert du_cp_check(one).report()["offdiag_witness"] == "none"


def test_closed_form_and_oracle_share_the_choi_scale():
    # min eig -1.5e-10 sits on a 1 x 1 block of its own, while the Choi's
    # spectral radius is 4: the closed form must accept at tol = 1e-10, as
    # the full-Choi eigensolve does
    p = du_identity(2)
    a = p.A.copy()
    a[0, 3] = -1.5e-10
    q = DUSuperParams(2, a, p.B, p.C, p.D)
    verdict = du_cp_check(q, tol=1e-10)
    assert verdict.closed_form
    assert verdict.offdiag_min_eigenvalue == -1.5e-10
    assert full_eigvalsh_psd(build_choi(q).choi.mat, tol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.floats(min_value=0.5, max_value=2.0).filter(lambda c: abs(c - 1.0) > 1e-3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cp_verdict_at_the_tolerance_boundary(d, c, seed):
    # plant a min eigenvalue of -c * tol * scale on a 1 x 1 charge sector of
    # a Choi whose spectral radius (the scale) is d^2
    tol = 1e-10
    rng = np.random.default_rng(seed)
    i, j = rng.choice(d, size=2, replace=False)
    a_, b_ = rng.choice(d, size=2, replace=False)
    p = du_identity(d)
    a = p.A.copy()
    a[i * d + a_, j * d + b_] = -c * tol * d * d
    q = DUSuperParams(d, a, p.B, p.C, p.D)
    verdict = du_cp_check(q, tol=tol)
    assert verdict.closed_form == (c < 1.0)
    assert full_eigvalsh_psd(build_choi(q).choi.mat, tol=tol) == (c < 1.0)


def test_validity_equivalence_with_generic_superchannel_checks():
    for d in (2, 3):
        for k in range(200):
            p = random_valid_du_params(rng, d) if k % 3 == 0 else random_hermitian_du_params(rng, d)
            cp = du_cp_check(p)
            param_ok = du_tp_check(p).ok and cp.ok
            choi_ok = validate_superchannel(build_choi(p)).ok
            assert param_ok == choi_ok
            assert cp.closed_form == full_eigvalsh_psd(build_choi(p).choi.mat)


def _cp_corpus(rng, d):
    """Indefinite Hermitian tables, valid ones, and tables shifted by a
    multiple of the identity Choi (table A all ones, every position on the
    diagonal) so that the minimum eigenvalue sits at -c * tol * scale, with c
    at 0.5-0.95 and at 1.05-2."""
    out = [random_hermitian_du_params(rng, d), random_valid_du_params(rng, d)]
    for c in (rng.uniform(0.5, 0.95), rng.uniform(1.05, 2.0)):
        p = random_hermitian_du_params(rng, d)
        evals = np.linalg.eigvalsh(build_choi(p).choi.mat)
        t = -evals[0] - c * 1e-10 * max(1.0, evals[-1] - evals[0])
        out.append(DUSuperParams(d, p.A + t, p.B, p.C, p.D))
    return out


def _assert_block_minima(verdict, m, block):
    """offdiag_min_eig and block_min_eig against one eigvalsh of each M_ab
    (a != b) and of the coupled block, within 1e-12 * scale."""
    d = m.shape[0]
    off = np.linalg.eigvalsh(m[~np.eye(d, dtype=bool)])
    block_evals = np.linalg.eigvalsh(block)
    scale = max(1.0, float(np.abs(block_evals).max()), float(np.abs(off).max()))
    assert abs(verdict.offdiag_min_eigenvalue - off.min()) <= 1e-12 * scale
    assert abs(verdict.block_min_eigenvalue - block_evals[0]) <= 1e-12 * scale


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cp_check_reads_the_choi_spectrum_off_the_tables(d):
    tol = 1e-10
    for p in _cp_corpus(np.random.default_rng(100 + d), d):
        choi = build_choi(p).choi.mat
        verdict = du_cp_check(p, tol=tol)
        sector_route = sector_psd_report(choi, tol, charge_sectors(d, "ordered"))
        assert np.float64(verdict.choi_min_eigenvalue).tobytes() == np.float64(
            sector_route[1]).tobytes()
        assert verdict.closed_form == sector_route[0]
        if d <= 4:
            assert verdict.closed_form == full_eigvalsh_psd(choi, tol=tol)
        m, _, block = loop_cp_blocks(p)
        _assert_block_minima(verdict, m, block)


@pytest.mark.parametrize("d", [8, 12])
def test_cp_check_never_assembles_the_choi(d, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("du_cp_check assembled the Choi")

    monkeypatch.setattr(positions, "choi_from_tables", refuse)
    monkeypatch.setattr(du_module, "choi_from_tables", refuse)
    # the identity map's Choi: every M_ab with a != b is zero, and the coupled
    # block has eigenvalues 0 and d^2
    verdict = du_cp_check(du_identity(d))
    assert verdict.ok
    assert verdict.offdiag_min_eigenvalue == 0.0
    assert abs(verdict.block_min_eigenvalue) <= 1e-12 * d * d
    p = du_identity(d)
    a = p.A.copy()
    a[1 * d + 2, 0] = -0.5  # lands on the diagonal of M_20 alone
    verdict = du_cp_check(DUSuperParams(d, a, p.B, p.C, p.D))
    assert not verdict.ok
    assert verdict.offdiag_min_eigenvalue == verdict.choi_min_eigenvalue == -0.5
    assert verdict.offdiag_witness == (2, 0)
    if d == 8:
        q = random_hermitian_du_params(np.random.default_rng(8), d)
        _assert_block_minima(du_cp_check(q), cp_blocks(q)[0], cp_block_matrix(q))


@pytest.mark.parametrize("scaled", [False, True], ids=["unit", "scaled"])
def test_cp_check_uses_the_choi_hermiticity_and_entry_scale(scaled):
    # C_{01,12} without its partner C_{11,02} is a Hermiticity defect h in
    # the side-d sector of M_12, whose diagonal A_{i1,i2} is set to 1 so its
    # eigenvalues (1 +- h/2) pass.  At unit scale h = 1e-8 exceeds
    # tol = 1e-10 and the verdict is no.  With entries of 1000 on 1 x 1
    # sectors (A_{ia,jb}, i != j, a != b) the allowance is 1e-7 and the
    # verdict is yes.  Neither the defect nor the largest entry sits in the
    # side-d^2 sector.
    d, tol, h = 3, 1e-10, 1e-8
    p = du_identity(d)
    i, a, j, b = np.ogrid[:d, :d, :d, :d]
    big = np.where((i != j) & (a != b), 1000.0 * scaled, 0.0).reshape(d * d, d * d)
    a_table = p.A + big
    a_table[0 * d + 1, 0 * d + 2] = a_table[1 * d + 1, 1 * d + 2] = 1.0
    c = p.C.copy()
    c[0 * d + 1, 1 * d + 2] = h
    q = DUSuperParams(d, a_table, p.B, c, p.D)
    verdict = du_cp_check(q, tol=tol)
    assert verdict.closed_form == scaled
    assert verdict.closed_form == sector_psd_report(
        build_choi(q).choi.mat, tol, charge_sectors(d, "ordered"))[0]


def test_cp_witness_in_a_side_d_sector():
    # On the side-d sector {A0 = B0} of M_ab, A_{ia,ib} is the diagonal and
    # C_{ia,jb} the off-diagonal.  Plant [[1, 2], [2, 1]] (eigenvalues -1, 3)
    # there for M_21 and M_12: every diagonal Choi entry stays >= 0, so no
    # 1 x 1 sector shows the failure, and the tie goes to (1, 2).
    d = 3
    p = du_identity(d)
    a, c = p.A.copy(), p.C.copy()
    for x, y in ((2, 1), (1, 2)):
        a[0 * d + x, 0 * d + y] = a[1 * d + x, 1 * d + y] = 1.0
        c[0 * d + x, 1 * d + y] = c[1 * d + x, 0 * d + y] = 2.0
    q = DUSuperParams(d, a, p.B, c, p.D)
    verdict = du_cp_check(q)
    assert verdict.hermiticity_deviation == hermiticity_deviation(build_choi(q).choi) == 0.0
    assert not verdict.ok
    assert verdict.offdiag_witness == (1, 2)
    assert abs(verdict.offdiag_min_eigenvalue + 1.0) <= 1e-14
    m, _, _ = loop_cp_blocks(q)
    per_ab = np.linalg.eigvalsh(m).min(axis=-1)
    assert abs(per_ab[1, 2] + 1.0) <= 1e-14 and abs(per_ab[2, 1] + 1.0) <= 1e-14
    assert np.diagonal(build_choi(q).choi.mat).real.min() >= 0.0


def test_cp_witness_ignores_roundoff_among_tied_minima(monkeypatch):
    # A perfbench-style valid input: unitary sandwiches blended with
    # eps * I / d^2, twirled to DU.  Every M_ab then has eps / d^2 as its
    # minimum up to roundoff, so the witness is the first (a, b) with a != b.
    # Reordering the sectors and the basis within each sector changes the
    # eigensolver's input, and with it the roundoff, but not the witness.
    d = 4
    gen = np.random.default_rng(61)
    n, eps = d * d, 0.2
    x = np.eye(n * n, dtype=complex) * (eps / n)
    for w in gen.dirichlet(np.ones(3)):
        v = np.kron(haar_unitary(gen, d).T, haar_unitary(gen, d)).T.reshape(-1)
        x += ((1 - eps) * w) * np.outer(v, v.conj())
    t = positions.tables_from_choi(x, d, DUSuperParams)
    p = DUSuperParams(d, t["A"].real, t["B"], t["C"], t["D"])
    verdict = du_cp_check(p)
    assert verdict.ok and verdict.offdiag_witness == (0, 1)
    per_ab = np.linalg.eigvalsh(loop_cp_blocks(p)[0]).min(axis=-1)[~np.eye(d, dtype=bool)]
    assert np.ptp(per_ab) <= 1e-15 and len(set(per_ab.tolist())) > 1
    sectors = charge_sectors(d, "ordered")
    minima = set()
    for seed in range(6):
        perm = np.random.default_rng(seed)
        blocks = tuple(perm.permuted(perm.permutation(rows), axis=1) for rows in sectors.blocks)
        monkeypatch.setattr(positions, "sectors", lambda d_, cls: blocks)
        permuted = du_cp_check(p)
        assert permuted.offdiag_witness == (0, 1)
        minima.add(permuted.offdiag_min_eigenvalue)
    assert len(minima) > 1  # the permutations did move the roundoff


def test_du_compose_matches_choi_composition():
    for d in (2, 3):
        for _ in range(20):
            p = random_hermitian_du_params(rng, d)
            q = random_hermitian_du_params(rng, d)
            lhs = build_choi(compose_tables(p, q)).choi.mat
            rhs = compose_superchannels(build_choi(p), build_choi(q)).choi.mat
            assert np.abs(lhs - rhs).max() <= 1e-10


def test_du_compose_associative():
    d = 2
    a, b, c = (random_hermitian_du_params(rng, d) for _ in range(3))
    left = compose_tables(compose_tables(a, b), c)
    right = compose_tables(a, compose_tables(b, c))
    for name in "ABCD":
        assert np.abs(getattr(left, name) - getattr(right, name)).max() <= 1e-12


def test_component_orthogonality():
    # single-table supermaps of different type annihilate each other
    d = 2
    z = np.zeros((d * d, d * d))
    parts = {}
    base = random_hermitian_du_params(rng, d)
    parts["A"] = DUSuperParams.masked(d, base.A, z, z, z)
    parts["B"] = DUSuperParams.masked(d, z, base.B, z, z)
    parts["C"] = DUSuperParams.masked(d, z, z, base.C, z)
    parts["D"] = DUSuperParams.masked(d, z, z, z, base.D)
    for first in "ABCD":
        for second in "ABCD":
            if first == second:
                continue
            combined = compose_superchannels(
                build_choi(parts[first]), build_choi(parts[second])
            )
            assert np.abs(combined.choi.mat).max() <= 1e-14


def test_apply_tables_on_du_tables_matches_representing_map():
    for d in (2, 3):
        for _ in range(50):
            p = random_hermitian_du_params(rng, d)
            x = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            via_blocks = apply_tables(p, x)
            via_choi = representing_apply(build_choi(p), x).mat
            assert np.abs(via_blocks - via_choi).max() <= 1e-12


def test_apply_tables_keeps_block_diagonal_inputs_block_diagonal():
    d = 3
    p = random_hermitian_du_params(rng, d)
    x4 = np.zeros((d, d, d, d), dtype=complex)
    for j in range(d):
        x4[j, :, j, :] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    out4 = apply_tables(p, x4.reshape(d * d, d * d)).reshape(d, d, d, d)
    for i in range(d):
        for j in range(d):
            if i != j:
                assert np.abs(out4[i, :, j, :]).max() == 0.0


def test_apply_to_channel_amplitude_damping_entries():
    # the displayed qubit transformation: diagonal entries are A-sums against
    # (1, gamma, 1-gamma), corners scale by the outer D entries
    d = 2
    p = random_valid_du_params(rng, d)
    gamma = 0.3
    root = np.sqrt(1 - gamma)
    out = apply_to_channel(p, amplitude_damping(gamma)).choi.mat
    a4, d4 = p.t4("A"), p.t4("D")
    a_vals = [
        a4[i, a, 0, 0] + a4[i, a, 1, 0] * gamma + a4[i, a, 1, 1] * (1 - gamma)
        for (i, a) in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]
    assert np.allclose(np.diagonal(out), a_vals, atol=1e-13)
    assert np.isclose(out[0, 3], d4[0, 0, 1, 1] * root)
    assert np.isclose(out[3, 0], d4[1, 1, 0, 0] * root)
    zero_positions = [(0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3)]
    for r, c in zero_positions:
        assert out[r, c] == 0.0
    assert np.isclose(a_vals[0] + a_vals[1], 1.0, atol=1e-12)
    assert np.isclose(a_vals[2] + a_vals[3], 1.0, atol=1e-12)


def action_on_identity(p):
    """The channel of p acting on the identity channel's DUC tables."""
    return table_channel(compose_tables(p, du_identity_channel_params(p.d)))


def test_du_action_on_identity():
    for d in (2, 3):
        out = action_on_identity(du_identity(d))
        assert np.array_equal(out.choi.mat, max_entangled_projector(d).mat)
        p = random_valid_du_params(rng, d)
        ch = action_on_identity(p)
        direct = representing_apply(build_choi(p), max_entangled_projector(d))
        assert np.abs(ch.choi.mat - direct.mat).max() <= 1e-13
        assert validate_channel(ch).ok
        # the induced channel is itself of the two-table covariant form
        verdict = table_channel_validate(DUChannelParams(d, _s_table(p), _b_table(p)))
        assert verdict.ok


def _s_table(p):
    d = p.d
    a4 = p.t4("A")
    return np.array([[sum(a4[j, i, k, k] for k in range(d)) for j in range(d)] for i in range(d)])


def _b_table(p):
    d = p.d
    d4 = p.t4("D")
    b = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if i != j:
                b[i, j] = d4[i, i, j, j]
    return b


def test_du_action_on_identity_column_sums():
    for d in (2, 3):
        p = random_valid_du_params(rng, d)
        s = _s_table(p)
        assert np.abs(s.sum(axis=0) - 1.0).max() <= 1e-12


def _assert_matches_the_do_oracle(p, q):
    # the plan sums in another order than the scatter reference: 1e-12 relative
    got = compose_tables(p, q)
    ref, off = scatter_doc_action(p, q)
    assert off == 0.0
    for name in "ABC":
        a, b = getattr(got, name), ref[name]
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


def test_du_preserves_do_pattern():
    # the paper's three displayed maps: A through A, B by D_{mm,nn}, C by D_{nm,mn}
    plan = [t[:3] for t in composition_plan(DUSuperParams, DOChannelParams)]
    assert plan == [("A", "A", "A"), ("B", "D", "B"), ("C", "D", "C")]
    for _ in range(5):
        _assert_matches_the_do_oracle(random_valid_du_params(rng, 2), random_doc_params(rng, 2))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_action_on_identity_and_on_do_tables_match_the_per_entry_loops(d):
    # the array forms sum and round in another order: 1e-12 relative
    p = random_hermitian_du_params(np.random.default_rng(200 + d), d)
    got, ref = action_on_identity(p).choi.mat, loop_du_action_on_identity(p).choi.mat
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    _assert_matches_the_do_oracle(p, random_doc_params(np.random.default_rng(d), d))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_block_action_matches_the_scatter_reference(d):
    # the table action sums in another order than the einsum contractions
    n = d * d
    p = random_hermitian_du_params(rng, d)
    generic = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    signed_zeros = np.where(rng.random((n, n)) < 0.5, generic, complex(-0.0, -0.0))
    for x in (random_hermitian(rng, n), generic, signed_zeros):
        got = apply_tables(p, x)
        ref = scatter_block_action(p, x)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_block_action_is_bit_identical_to_the_scatters_on_the_qubit_examples():
    # `example` writes the output Choi, -0.0 included: an entry fed by one
    # product alone (table D) must be that product, the others sum from +0.0
    for _ in range(20):
        p = random_hermitian_du_params(rng, 2)
        q = rng.uniform()
        for ch in (amplitude_damping(q), bit_flip(q), pauli_channel(rng.dirichlet(np.ones(4)))):
            got = apply_to_channel(p, ch).choi.mat
            assert got.tobytes() == scatter_block_action(p, ch.choi.mat).tobytes()


def test_pauli_channel_pattern_is_preserved():
    from superchan.channels import pauli_channel

    p = random_valid_du_params(rng, 2)
    out4 = apply_to_channel(p, pauli_channel((0.4, 0.3, 0.2, 0.1))).choi4()
    # output keeps the sparsity pattern of a sign-symmetric qubit Choi
    for idx in np.ndindex(2, 2, 2, 2):
        m, n, mm, nn = idx
        on_pattern = (
            (m, n) == (mm, nn)
            or (m == n and mm == nn and m != mm)
            or (m == nn and n == mm and m != n)
        )
        if not on_pattern:
            assert abs(out4[idx]) <= 1e-14


def test_classical_extract_equals_table():
    for d in (2, 3):
        p = random_valid_du_params(rng, d)
        cs = classical_superchannel_extract(build_choi(p))
        assert np.abs(cs.T - p.A).max() <= 1e-13
        assert cs.fiber_deviation <= 1e-12
        assert cs.normalization_deviation <= 1e-12


def test_cp_check_reads_the_hermiticity_deviation():
    p = random_hermitian_du_params(rng, 2)
    assert du_cp_check(p).hermiticity_deviation <= 1e-14
    b = np.array(p.B)
    b[0, 1] += 1.0
    tweaked = DUSuperParams(2, p.A, b, p.C, p.D)
    assert du_cp_check(tweaked).hermiticity_deviation >= 0.4


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cp_check_hermiticity_deviation_is_the_dense_one_bit_for_bit(d):
    # the sectors hold every table entry, and |x - conj(y)| = |y - conj(x)|
    local = np.random.default_rng(500 + d)
    n = d * d
    for _ in range(8):
        hermitian = random_hermitian_du_params(local, d)
        generic = DUSuperParams.masked(d, local.normal(size=(n, n)), *(
            local.normal(size=(n, n)) + 1j * local.normal(size=(n, n)) for _ in "BCD"))
        perturbed = DUSuperParams.masked(d, hermitian.A, *(
            getattr(hermitian, t) + 1e-9 * local.normal(size=(n, n)) for t in "BCD"))
        for p in (hermitian, generic, perturbed):
            dense = hermiticity_deviation(build_choi(p).choi)
            assert du_cp_check(p).hermiticity_deviation == dense
