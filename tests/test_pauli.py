import numpy as np
import pytest

from superchan import pauli
from superchan.channels import depolarizing, identity_channel, pauli_channel
from superchan.covariance import covariance_sampler_tuple, superchannel_covariance_check
from superchan.do import DOSuperParams
from superchan.du import NotDUCovariantError, from_choi
from superchan.pauli import (
    PauliSuperParams,
    bell_vectors,
    bell_weights,
    pauli_apply,
    pauli_du_check,
    pauli_induced_bistochastic,
    pauli_marginal_channel,
    pauli_super_choi,
)
from superchan.superchannels import (
    apply_to_channel,
    identity_superchannel,
    tp_preserving_check,
    validate_superchannel,
)

from helpers import du_extraction_ok, loop_pauli_super_choi

rng = np.random.default_rng(41)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probability_vectors_reject_non_finite_entries(bad):
    # a NaN passes both comparisons of the range check, so it is named first
    uniform = PauliSuperParams(np.full((4, 4), 1 / 16))
    for build in (lambda q: pauli_apply(uniform, q), pauli_channel):
        with pytest.raises(ValueError, match=r"not a probability vector: non-finite entries"):
            build([bad, 0.0, 0.0, 1.0])


def random_pi():
    return PauliSuperParams(rng.dirichlet(np.ones(16)).reshape(4, 4))


def du_covariant_pi():
    # tie the middle rows and columns pairwise, as the covariance class needs
    raw = rng.dirichlet(np.ones(16)).reshape(4, 4)
    raw[:, 1] = raw[:, 2] = (raw[:, 1] + raw[:, 2]) / 2
    raw[1, :], raw[2, :] = ((raw[1, :] + raw[2, :]) / 2,) * 2
    return PauliSuperParams(raw / raw.sum())


def expected_blocks(pi):
    """Block transcription of the displayed 16x16 Choi structure."""
    s = [
        pi[0, 0] + pi[0, 3] + pi[3, 0] + pi[3, 3],
        pi[0, 1] + pi[0, 2] + pi[3, 1] + pi[3, 2],
        pi[1, 0] + pi[1, 3] + pi[2, 0] + pi[2, 3],
        pi[1, 1] + pi[1, 2] + pi[2, 1] + pi[2, 2],
    ]
    d = [
        pi[0, 0] - pi[0, 3] + pi[3, 0] - pi[3, 3],
        pi[0, 1] - pi[0, 2] + pi[3, 1] - pi[3, 2],
        pi[1, 0] - pi[1, 3] + pi[2, 0] - pi[2, 3],
        pi[1, 1] - pi[1, 2] + pi[2, 1] - pi[2, 2],
    ]
    e = [
        pi[0, 0] + pi[0, 3] - pi[3, 0] - pi[3, 3],
        pi[0, 1] + pi[0, 2] - pi[3, 1] - pi[3, 2],
        pi[1, 0] + pi[1, 3] - pi[2, 0] - pi[2, 3],
        pi[1, 1] + pi[1, 2] - pi[2, 1] - pi[2, 2],
    ]
    f = [
        pi[0, 0] - pi[0, 3] - pi[3, 0] + pi[3, 3],
        pi[0, 1] - pi[0, 2] - pi[3, 1] + pi[3, 2],
        pi[1, 0] - pi[1, 3] - pi[2, 0] + pi[2, 3],
        pi[1, 1] - pi[1, 2] - pi[2, 1] + pi[2, 2],
    ]

    def place(entries):
        block = np.zeros((4, 4), dtype=complex)
        for (r, c), value in entries:
            block[r, c] = value
        return block

    blocks = {
        (0, 0): np.diag(np.array([s[0], s[1], s[2], s[3]], dtype=complex)),
        (1, 1): np.diag(np.array([s[1], s[0], s[3], s[2]], dtype=complex)),
        (2, 2): np.diag(np.array([s[2], s[3], s[0], s[1]], dtype=complex)),
        (3, 3): np.diag(np.array([s[3], s[2], s[1], s[0]], dtype=complex)),
        (0, 1): place([((0, 1), d[0]), ((1, 0), d[1]), ((2, 3), d[2]), ((3, 2), d[3])]),
        (0, 2): place([((0, 2), e[0]), ((1, 3), e[1]), ((2, 0), e[2]), ((3, 1), e[3])]),
        (0, 3): place([((0, 3), f[0]), ((1, 2), f[1]), ((2, 1), f[2]), ((3, 0), f[3])]),
        (1, 2): place([((0, 3), f[1]), ((1, 2), f[0]), ((2, 1), f[3]), ((3, 0), f[2])]),
        (1, 3): place([((0, 2), e[1]), ((1, 3), e[0]), ((2, 0), e[3]), ((3, 1), e[2])]),
        (2, 3): place([((0, 1), d[2]), ((1, 0), d[3]), ((2, 3), d[0]), ((3, 2), d[1])]),
    }
    return blocks


def test_point_mass_is_identity_superchannel():
    pi = np.zeros((4, 4))
    pi[0, 0] = 1.0
    s = pauli_super_choi(PauliSuperParams(pi))
    assert np.allclose(s.choi.mat, identity_superchannel(2, 2).choi.mat)


def test_params_validation():
    with pytest.raises(ValueError):
        PauliSuperParams(np.full((4, 4), 1 / 15))
    bad = np.full((4, 4), 1 / 16)
    bad[0, 0] = -1 / 16
    bad[0, 1] = 3 / 16
    with pytest.raises(ValueError):
        PauliSuperParams(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite_entries(bad):
    # comparisons with NaN are false, so the range checks alone let it through
    with pytest.raises(ValueError, match="non-finite"):
        PauliSuperParams(np.full((4, 4), bad))
    pi = np.full((4, 4), 1 / 16)
    pi[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        PauliSuperParams(pi)


def test_choi_blocks_match_transcribed_structure():
    for _ in range(20):
        p = random_pi()
        mat = pauli_super_choi(p).choi.mat
        blocks = expected_blocks(p.pi)
        for (r, c), expected in blocks.items():
            actual = mat[4 * r : 4 * r + 4, 4 * c : 4 * c + 4]
            assert np.abs(actual - expected).max() <= 1e-15, (r, c)
            if r != c:
                mirror = mat[4 * c : 4 * c + 4, 4 * r : 4 * r + 4]
                assert np.abs(mirror - expected.conj().T).max() <= 1e-15


def test_super_choi_matches_the_kron_loop_byte_for_byte():
    # the cached terms must give the reference's float64 bytes: zero and
    # -0.0 weights included, and every term added in the same order
    local = np.random.default_rng(2024)
    tables = [np.diag([1.0, 0.0, 0.0, 0.0]), np.full((4, 4), 1 / 16)]
    for _ in range(40):
        pi = local.dirichlet(np.ones(16)).reshape(4, 4)
        zeros = local.random((4, 4)) < 0.4
        pi[zeros] = 0.0
        pi = pi / pi.sum()
        pi[zeros & (local.random((4, 4)) < 0.5)] = -0.0
        tables.append(pi)
    assert any(np.signbit(pi[pi == 0]).any() for pi in tables)
    for pi in tables:
        p = PauliSuperParams(pi)
        got = pauli_super_choi(p).choi.mat
        assert got.dtype == np.complex128
        assert got.tobytes() == loop_pauli_super_choi(p.pi).tobytes()


def test_conjugation_terms_are_cached_and_read_only():
    terms = pauli._conjugation_terms()
    assert terms is pauli._conjugation_terms()
    assert terms.shape == (16, 16, 16) and not terms.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        terms[0, 0, 0] = 1.0


def test_every_table_gives_valid_superchannel():
    for _ in range(20):
        s = pauli_super_choi(random_pi())
        assert validate_superchannel(s).ok


def test_bistochastic_matrix():
    pi = np.zeros((4, 4))
    pi[0, 0] = 1.0
    assert np.array_equal(
        pauli_induced_bistochastic(PauliSuperParams(pi)), np.eye(4)
    )
    uniform = PauliSuperParams(np.full((4, 4), 1 / 16))
    assert np.allclose(pauli_induced_bistochastic(uniform), np.full((4, 4), 0.25))
    pi = np.zeros((4, 4))
    pi[0, 1] = 1.0
    m = pauli_induced_bistochastic(PauliSuperParams(pi))
    perm = np.zeros((4, 4))
    perm[0, 1] = perm[1, 0] = perm[2, 3] = perm[3, 2] = 1.0
    assert np.array_equal(m, perm)


def test_bistochastic_row_and_column_sums():
    for _ in range(30):
        p = random_pi()
        m = pauli_induced_bistochastic(p)
        total = p.pi.sum()
        assert np.abs(m.sum(axis=0) - total).max() <= 1e-14
        assert np.abs(m.sum(axis=1) - total).max() <= 1e-14


def test_bell_vectors_are_orthogonal_norm_two():
    bs = bell_vectors()
    gram = np.array([[np.vdot(a, b) for b in bs] for a in bs])
    assert np.allclose(gram, 2 * np.eye(4))


def test_apply_matches_bell_oracle():
    for _ in range(30):
        p = random_pi()
        weights = rng.dirichlet(np.ones(4))
        q = pauli_apply(p, weights)
        out = apply_to_channel(pauli_super_choi(p), pauli_channel(weights))
        assert np.abs(q - bell_weights(out.choi)).max() <= 1e-14
        assert np.isclose(q.sum(), 1.0)


def test_apply_trivial_points():
    pi = np.zeros((4, 4))
    pi[0, 0] = 1.0
    weights = rng.dirichlet(np.ones(4))
    assert np.allclose(pauli_apply(PauliSuperParams(pi), weights), weights)
    uniform = PauliSuperParams(np.full((4, 4), 1 / 16))
    assert np.allclose(pauli_apply(uniform, weights), np.full(4, 0.25))


def test_apply_rejects_bad_vector():
    with pytest.raises(ValueError):
        pauli_apply(random_pi(), np.array([0.5, 0.5, 0.5, -0.5]))


def test_marginal_channel():
    pi = np.zeros((4, 4))
    pi[0, 0] = 1.0
    assert np.allclose(
        pauli_marginal_channel(PauliSuperParams(pi)).choi.mat,
        identity_channel(2).choi.mat,
    )
    uniform = PauliSuperParams(np.full((4, 4), 1 / 16))
    assert np.allclose(pauli_marginal_channel(uniform).choi.mat, depolarizing(2).choi.mat)
    for _ in range(10):
        p = random_pi()
        induced = tp_preserving_check(pauli_super_choi(p)).induced
        assert np.abs(pauli_marginal_channel(p).choi.mat - induced.choi.mat).max() <= 1e-12


def test_three_way_diagonal_unitary_agreement():
    cases = [random_pi() for _ in range(20)] + [du_covariant_pi() for _ in range(10)]
    uniform = PauliSuperParams(np.full((4, 4), 1 / 16))
    cases.append(uniform)
    for p in cases:
        verdict = pauli_du_check(p)
        s = pauli_super_choi(p)
        sampled = superchannel_covariance_check(
            s, covariance_sampler_tuple("du", 2, 3), n=50
        )
        assert verdict.ok == du_extraction_ok(s) == (sampled.max_deviation <= 1e-10)


def test_du_violating_table_fails_all_three_ways():
    pi = np.zeros((4, 4))
    pi[0, 1] = 0.5
    pi[0, 0] = 0.5
    p = PauliSuperParams(pi)
    verdict = pauli_du_check(p)
    assert not verdict.ok
    with pytest.raises(NotDUCovariantError):
        from_choi(pauli_super_choi(p))
    # conjugation by diag(1, i) is the natural witness
    u = np.diag([1.0, 1.0j])
    w = np.kron(np.kron(u, u.conj()), np.kron(u.conj(), u))
    mat = pauli_super_choi(p).choi.mat
    assert np.abs(w @ mat @ w.conj().T - mat).max() > 1e-3


def test_every_pauli_superchannel_is_sign_symmetric():
    for _ in range(10):
        p = random_pi()
        s = pauli_super_choi(p)
        from_choi(s, cls=DOSuperParams)  # extraction must succeed
        v = superchannel_covariance_check(s, covariance_sampler_tuple("do", 2, 9), n=50)
        assert v.max_deviation <= 1e-12
