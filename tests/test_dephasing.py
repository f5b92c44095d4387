import numpy as np
import pytest

from superchan.channels import (
    PARAM_EDGE_TOL,
    ConjDUChannelParams,
    DUChannelParams,
    amplitude_damping,
    dephasing_channel,
    du_identity_channel_params,
    identity_channel,
    table_channel,
)
from superchan.dephasing import (
    DephasingSuperParams,
    dephasing_from_realization,
    dephasing_validate,
)
from superchan.du import build_choi, du_identity, from_choi
from superchan.linalg import DEFAULT_TOL
from superchan.positions import compose_tables
from superchan.superchannels import (
    apply_to_channel,
    tp_preserving_check,
    validate_superchannel,
)

from helpers import (
    loop_realization_table,
    random_channel,
    random_covariance_matrix,
    random_doc_params,
    random_realization,
)

rng = np.random.default_rng(37)


def all_ones_params(d):
    return DephasingSuperParams(d, np.ones((d * d, d * d), dtype=complex))


def dephasing_channel_params(m):
    """The DUC tables (A, B) of the dephasing channel with covariance matrix m."""
    d = m.shape[0]
    return DUChannelParams(d, np.diag(m.diagonal().real), m * (1 - np.eye(d)))


def transformed_matrix(q):
    """The covariance matrix of the dephasing channel with DUC tables q."""
    return q.B + np.diag(np.diagonal(q.A))


def random_psd_m_big(d, enforce_fibers):
    g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    m = g @ g.conj().T
    m /= np.abs(m).max()
    if enforce_fibers:
        us, vs, psi = random_realization(rng, d, d + 1)
        return dephasing_from_realization(us, vs, psi)
    return DephasingSuperParams(d, m)


def test_all_ones_is_identity_superchannel():
    p = all_ones_params(2)
    assert dephasing_validate(p).ok
    ch = amplitude_damping(0.4)
    assert np.array_equal(apply_to_channel(p, ch).choi.mat, ch.choi.mat)


def test_diagonal_multiplier_fully_superdecoheres():
    d = 2
    p = DephasingSuperParams(d, np.eye(d * d, dtype=complex))
    ch = amplitude_damping(0.4)
    out = apply_to_channel(p, ch)
    assert np.array_equal(out.choi.mat, np.diag(np.diagonal(ch.choi.mat)))


def test_schur_action_preserves_diagonal_scales_corners():
    us, vs, psi = random_realization(rng, 2, 3)
    p = dephasing_from_realization(us, vs, psi)
    gamma = 0.3
    ch = amplitude_damping(gamma)
    out = apply_to_channel(p, ch)
    assert np.allclose(np.diagonal(out.choi.mat), np.diagonal(ch.choi.mat), atol=1e-12)
    m4 = p.t4("M_big")
    assert np.isclose(out.choi.mat[0, 3], m4[0, 0, 1, 1] * np.sqrt(1 - gamma))


def test_realizations_always_validate():
    for d, e in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)):
        for _ in range(5):
            p = dephasing_from_realization(*random_realization(rng, d, e))
            verdict = dephasing_validate(p)
            assert verdict.ok, verdict.report()
            s = build_choi(p)
            assert validate_superchannel(s).ok


def test_compose_is_the_schur_product_of_the_tables():
    p, q = (dephasing_from_realization(*random_realization(rng, 2, 3)) for _ in range(2))
    assert np.array_equal(compose_tables(p, q).M_big, p.M_big * q.M_big)
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        compose_tables(p, all_ones_params(3))


def test_realization_input_validation():
    us, vs, psi = random_realization(rng, 2, 3)
    with pytest.raises(ValueError):
        dephasing_from_realization([us[0]], vs, psi)
    with pytest.raises(ValueError):
        dephasing_from_realization(us, vs, psi * 2.0)
    with pytest.raises(ValueError):
        dephasing_from_realization([us[0], np.ones((3, 3))], vs, psi)
    # unitarity and normalization are checked to the channels' edge slack
    dephasing_from_realization(us, vs, psi * (1 + 0.5 * PARAM_EDGE_TOL))
    with pytest.raises(ValueError, match="psi must be normalized"):
        dephasing_from_realization(us, vs, psi * (1 + 4 * PARAM_EDGE_TOL))


def test_realization_known_values():
    # trivial environment action gives the all-ones multiplier
    eye = np.eye(2)
    p = dephasing_from_realization([eye, eye], [eye, eye], np.array([1.0, 0.0]))
    assert np.allclose(p.M_big, np.ones((4, 4)))
    # a sign flip with psi = (1,1)/sqrt(2) kills the cross fiber
    u2 = np.diag([1.0, -1.0])
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    p = dephasing_from_realization([eye, u2], [eye, eye], psi)
    verdict = dephasing_validate(p)
    assert abs(verdict.covariance[0, 1]) <= 1e-15
    assert verdict.ok


def test_validator_equivalence_with_generic_checks():
    for d in (2, 3):
        for k in range(50):
            p = random_psd_m_big(d, enforce_fibers=bool(k % 2))
            named = dephasing_validate(p)
            s = build_choi(p)
            generic = validate_superchannel(s).ok and tp_preserving_check(s).ok
            assert named.ok == generic


def test_entrywise_diagonal_identity():
    # diagonal Choi entries always scale by the multiplier diagonal; for a
    # valid superchannel that diagonal is 1, so classical data is untouched
    d = 2
    for enforce in (False, True):
        p = random_psd_m_big(d, enforce_fibers=enforce)
        ch = amplitude_damping(0.45)
        out = apply_to_channel(p, ch)
        expected = np.diagonal(p.M_big) * np.diagonal(ch.choi.mat)
        assert np.array_equal(np.diagonal(out.choi.mat), expected)
        if enforce:
            assert np.allclose(np.diagonal(p.M_big), 1.0, atol=1e-12)
            assert np.allclose(
                np.diagonal(out.choi.mat), np.diagonal(ch.choi.mat), atol=1e-12
            )


def test_validator_fiber_witness():
    p = dephasing_from_realization(*random_realization(rng, 2, 3))
    m = np.array(p.M_big)
    m[0 * 2 + 1, 2 * 1 + 1] += 0.2  # perturb the (i=0, a=1), (j=1, b=1) fiber
    tweaked = DephasingSuperParams(2, m)
    verdict = dephasing_validate(tweaked)
    assert verdict.fiber_deviation > 0.05
    assert verdict.fiber_witness[:2] == (0, 1)


def _loop_fiber_witness(p, tol=DEFAULT_TOL):
    """Reference fiber scan: the largest deviation, then the first (i, j, a)
    in row-major order whose deviation is within tol * max(1, scale) of it,
    scale the largest real or imaginary part of a fiber entry, and the first
    a' whose entry is within the same slack of the farthest from that one."""
    d, m4 = p.d, p.t4("M_big")
    m = dephasing_validate(p, tol).covariance
    fibers = {(i, j): np.array([m4[i, aa, j, aa] for aa in range(d)])
              for i in range(d) for j in range(d)}
    worst = max(float(np.abs(f - m[ij]).max()) for ij, f in fibers.items())
    scale = max(1.0, *(float(np.abs(x).max()) for f in fibers.values() for x in (f.real, f.imag)))
    for (i, j), fiber in fibers.items():
        for a, dev in enumerate(np.abs(fiber - m[i, j])):
            if dev >= worst - tol * scale:
                far = np.abs(fiber - fiber[a])
                return worst, (i, j, a, int(np.flatnonzero(far >= far.max() - tol * scale)[0]))


def test_fiber_witness_is_the_first_of_tied_fibers():
    d = 3
    m4 = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        m4[i, :, i, :] = np.eye(d)  # constant diagonal fibers
    m4[2, :, 0, :] = np.diag([0.0, 1.0, 0.0])  # fiber (2, 0): deviation 2/3 at a=1
    m4[0, :, 2, :] = np.diag([1.0, 0.0, 0.0])  # fiber (0, 2): the same, at a=0
    m4[1, :, 0, :] = np.diag([1.0, -1.0, 0.0])  # fiber (1, 0): ties a=0, a=1 at 1.0
    m4[1, :, 2, :] = np.diag([0.0, 1.0, -1.0])  # fiber (1, 2): ties it, later in order
    p = DephasingSuperParams(d, m4.reshape(d * d, d * d))
    verdict = dephasing_validate(p)
    assert (verdict.fiber_deviation, verdict.fiber_witness) == (1.0, (1, 0, 0, 1))
    assert _loop_fiber_witness(p) == (1.0, (1, 0, 0, 1))
    m4[1, :, 0, :] = m4[1, :, 2, :] = 0
    verdict = dephasing_validate(DephasingSuperParams(d, m4.reshape(d * d, d * d)))
    assert verdict.fiber_witness == (0, 2, 0, 1)


def test_fiber_witness_of_tied_fibers_and_of_an_inf_deviation():
    d = 3
    m = np.ones((d * d, d * d), dtype=complex)
    m[1 * d, 2 * d] = m[2 * d, 1 * d] = 1.5  # fibers (1, 2) and (2, 1) fail alike at a = 0
    verdict = dephasing_validate(DephasingSuperParams(d, m))
    assert verdict.fiber_deviation == pytest.approx(1 / 3)
    assert verdict.fiber_witness == (1, 2, 0, 1)
    m[2 * d, 1 * d] += 1e-12  # within the tolerance scale of the first: still tied
    assert dephasing_validate(DephasingSuperParams(d, m)).fiber_witness == (1, 2, 0, 1)
    m = np.ones((d * d, d * d), dtype=complex)
    m[range(3), range(3)] = (1.7e308, -1.7e308, 1.7e308)  # a finite average, inf deviations
    verdict = dephasing_validate(DephasingSuperParams(d, m))
    assert verdict.fiber_deviation == np.inf and verdict.fiber_witness == (0, 0, 1, 0)


def test_fiber_witness_of_a_valid_table_ignores_the_summation_order():
    # relabelling a reorders each fiber's average, and so its roundoff
    moved = 0
    for d in (3, 4, 5):
        for _ in range(4):
            p = dephasing_from_realization(*random_realization(rng, d, 2))
            perm = rng.permutation(d)
            q = DephasingSuperParams(d, p.t4("M_big")[:, perm][:, :, :, perm].reshape(d * d, d * d))
            vp, vq = dephasing_validate(p), dephasing_validate(q)
            assert vp.ok and vq.ok and vp.fiber_witness == vq.fiber_witness == (0, 0, 0, 0)
            moved += vp.fiber_deviation != vq.fiber_deviation
    assert moved  # the roundoff did move


def test_fiber_witness_matches_the_per_fiber_scan():
    for d in (2, 3, 4):
        for _ in range(5):
            p = random_psd_m_big(d, enforce_fibers=False)
            verdict = dephasing_validate(p)
            assert (verdict.fiber_deviation, verdict.fiber_witness) == _loop_fiber_witness(p)
        p = dephasing_from_realization(*random_realization(rng, d, 2))
        assert dephasing_validate(p).fiber_witness == _loop_fiber_witness(p)[1]


def test_dephasing_on_dephasing_matches_schur_route():
    # the action on a dephasing channel's DUC tables scales its covariance
    # matrix fiberwise: out[i, j] = M_big[(i,i),(j,j)] * m_ij
    for d in (2, 3):
        for _ in range(10):
            p = dephasing_from_realization(*random_realization(rng, d, 3))
            m_chan = random_covariance_matrix(rng, d)
            q = compose_tables(p, dephasing_channel_params(m_chan))
            out = transformed_matrix(q)
            m4 = p.t4("M_big")
            formula = np.array([[m4[i, i, j, j] for j in range(d)] for i in range(d)]) * m_chan
            off = ~np.eye(d, dtype=bool)
            assert np.array_equal(out[off], formula[off])
            # the diagonal drops the roundoff imaginary part of m_chan's
            assert np.abs(np.diagonal(out - formula)).max() <= 1e-15
            via_schur = apply_to_channel(p, dephasing_channel(m_chan))
            c4 = via_schur.choi4()
            schur_m = np.array([[c4[i, i, j, j] for j in range(d)] for i in range(d)])
            assert np.abs(out - schur_m).max() <= 1e-14
            # the output is again a dephasing channel with that matrix
            assert np.allclose(
                via_schur.choi.mat, dephasing_channel(out).choi.mat, atol=1e-12
            )
            assert np.allclose(table_channel(q).choi.mat, via_schur.choi.mat, atol=1e-14)


def test_superdecoherence_on_identity_channel():
    d = 3
    p = dephasing_from_realization(*random_realization(rng, d, 2))
    out = apply_to_channel(p, identity_channel(d))
    m_tilde = transformed_matrix(compose_tables(p, du_identity_channel_params(d)))
    assert np.array_equal(
        m_tilde, transformed_matrix(compose_tables(p, dephasing_channel_params(np.ones((d, d)))))
    )
    m4 = p.t4("M_big")
    superdecoherence = np.array([[m4[i, i, j, j] for j in range(d)] for i in range(d)])
    assert np.allclose(m_tilde, superdecoherence)
    assert np.allclose(out.choi.mat, dephasing_channel(m_tilde).choi.mat, atol=1e-12)


def loop_du_tables(p):
    """The four DU tables of a multiplier table, one entry at a time: A takes
    the diagonal fibers (real), B the i = j fibers, C the a = b fibers and D
    the rest."""
    d, m4 = p.d, p.t4("M_big")
    t = {name: np.zeros((d,) * 4, dtype=complex) for name in "ABCD"}
    for i, a, j, b in np.ndindex(d, d, d, d):
        if i == j and a == b:
            t["A"][i, a, j, b] = m4[i, a, j, b].real
        elif i == j:
            t["B"][i, a, j, b] = m4[i, a, j, b]
        elif a == b:
            t["C"][i, a, j, b] = m4[i, a, j, b]
        else:
            t["D"][i, a, j, b] = m4[i, a, j, b]
    return {name: x.reshape(d * d, d * d) for name, x in t.items()}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_du_tables_of_a_multiplier_are_its_fibers(d):
    p = dephasing_from_realization(*random_realization(rng, d, 3))
    emb, ref = from_choi(build_choi(p)), loop_du_tables(p)
    for name in "ABCD":
        assert np.array_equal(getattr(emb, name), ref[name]), name


def test_embed_du_reproduces_superchannel():
    for d in (2, 3):
        p = dephasing_from_realization(*random_realization(rng, d, 3))
        emb = from_choi(build_choi(p))
        assert np.abs(build_choi(emb).choi.mat - build_choi(p).choi.mat).max() <= 1e-15


def test_embed_all_ones_is_du_identity():
    d = 2
    emb = from_choi(build_choi(all_ones_params(d)))
    unit = du_identity(d)
    for name in "ABCD":
        assert np.array_equal(getattr(emb, name), getattr(unit, name))


def test_embed_round_trips_through_extraction():
    p = dephasing_from_realization(*random_realization(rng, 2, 3))
    emb = from_choi(build_choi(p))
    again = from_choi(build_choi(emb))
    for name in "ABCD":
        assert np.array_equal(getattr(emb, name), getattr(again, name))


def test_closure_under_composition():
    # composing two entrywise multipliers multiplies the tables entrywise,
    # checked through the four DU tables and their composition rule
    for d in (2, 3):
        p1 = dephasing_from_realization(*random_realization(rng, d, 3))
        p2 = dephasing_from_realization(*random_realization(rng, d, 2))
        composed = compose_tables(from_choi(build_choi(p1)), from_choi(build_choi(p2)))
        expected = from_choi(build_choi(DephasingSuperParams(d, p1.M_big * p2.M_big)))
        for name in "ABCD":
            assert np.abs(getattr(composed, name) - getattr(expected, name)).max() <= 1e-13


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_table_rejected(value):
    m = np.ones((4, 4), dtype=complex)
    m[1, 2] = value
    with pytest.raises(ValueError, match="non-finite"):
        DephasingSuperParams(2, m)


def test_apply_dimension_mismatch():
    p = all_ones_params(2)
    with pytest.raises(ValueError, match=r"channel dims \(3, 3\) do not match superchannel "
                                         r"input pair \(2, 2\)"):
        apply_to_channel(p, identity_channel(3))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_apply_is_the_schur_product_bit_for_bit(d):
    n = d * d
    for _ in range(6):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        p = DephasingSuperParams(d, np.where(rng.random((n, n)) < 0.3, complex(-0.0, -0.0), m))
        ch = random_channel(rng, d)
        assert apply_to_channel(p, ch).choi.mat.tobytes() == (p.M_big * ch.choi.mat).tobytes()


def test_verdict_carries_the_averaged_fibers():
    for d in (1, 2, 3, 4):
        for enforce in (False, True):
            p = random_psd_m_big(d, enforce_fibers=enforce)
            m4 = p.t4("M_big")
            ref = np.array([[np.mean([m4[i, a, j, a] for a in range(d)]) for j in range(d)]
                            for i in range(d)])
            verdict = dephasing_validate(p)
            assert np.abs(verdict.covariance - ref).max() <= 1e-15
            assert "covariance" not in verdict.report()
            if enforce:
                assert np.allclose(np.diagonal(verdict.covariance), 1.0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_realization_tables_are_hermitian_and_act_on_channel_tables(d):
    # the Gram product alone left roundoff imaginary parts on the diagonal,
    # which the channel tables' real A refused
    p = dephasing_from_realization(*random_realization(rng, d, 3))
    assert np.array_equal(p.M_big, p.M_big.conj().T)
    a = rng.random((d, d))
    b, c = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2))
    for q in (DUChannelParams.masked(d, a, b), ConjDUChannelParams.masked(d, a, c),
              random_doc_params(rng, d)):
        got = table_channel(compose_tables(p, q)).choi.mat
        ref = apply_to_channel(p, table_channel(q)).choi.mat
        assert np.abs(got - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


def test_realization_table_matches_the_inner_product_loop():
    # one Gram product sums in another order than np.vdot: 1e-12 relative
    for d, e in ((1, 2), (2, 3), (3, 2), (4, 5)):
        us, vs, psi = random_realization(rng, d, e)
        got = dephasing_from_realization(us, vs, psi).M_big
        ref = loop_realization_table(us, vs, psi)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
