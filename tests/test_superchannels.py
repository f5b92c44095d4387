import numpy as np
import pytest

from superchan.channels import (
    DOChannelParams,
    amplitude_damping,
    apply_channel,
    bit_flip,
    classical_channel_extract,
    depolarizing,
    identity_channel,
    validate_channel,
)
from superchan.linalg import DEFAULT_TOL, max_entangled_projector
from superchan.superchannels import (
    apply_to_channel,
    classical_superchannel_extract,
    compose_superchannels,
    identity_superchannel,
    representing_apply,
    sandwich_superchannel,
    super_choi,
    tp_preserving_check,
    validate_superchannel,
)

from superchan.dephasing import dephasing_from_realization
from superchan.du import build_choi, du_identity
from superchan.jsonio import TABLE_KINDS
from superchan.positions import apply_tables

from helpers import (
    dense_validate_superchannel,
    haar_unitary,
    loop_classical_table,
    loop_tp_preserving_parts,
    random_channel,
    random_density,
    random_do_params,
    random_hermitian_du_params,
    random_realization,
    random_valid_superchoi,
    unitary_conjugation,
)

rng = np.random.default_rng(7)


def test_identity_superchannel_acts_trivially():
    s = identity_superchannel(2, 3)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert np.allclose(representing_apply(s, x).mat, x, atol=1e-14)
    assert validate_superchannel(s).ok


def test_post_depolarize_sandwich_erases_everything():
    d = 3
    s = sandwich_superchannel(identity_channel(d), depolarizing(d))
    for _ in range(5):
        ch = random_channel(rng, d)
        out = apply_to_channel(s, ch)
        assert np.allclose(out.choi.mat, np.eye(d * d) / d, atol=1e-12)


def test_sandwich_with_unitaries_matches_direct_evaluation():
    d = 3
    u = haar_unitary(rng, d)
    v = haar_unitary(rng, d)
    s = sandwich_superchannel(unitary_conjugation(v), unitary_conjugation(u))
    ch = random_channel(rng, d)
    out = apply_to_channel(s, ch)
    for _ in range(5):
        rho = random_density(rng, d)
        direct = u @ apply_channel(ch, v.conj().T @ rho @ v).mat @ u.conj().T
        assert np.allclose(apply_channel(out, rho).mat, direct, atol=1e-12)


def test_sandwich_identity_is_identity_superchannel():
    s = sandwich_superchannel(identity_channel(2), identity_channel(2))
    assert np.allclose(s.choi.mat, identity_superchannel(2, 2).choi.mat)


def test_validate_superchannel_families():
    for _ in range(5):
        s = random_valid_superchoi(rng, 2, 2)
        assert validate_superchannel(s).ok
    s = random_valid_superchoi(rng, 2, 3)
    assert validate_superchannel(s).ok


def test_validate_superchannel_marginal_failures():
    # the normalized maximally entangled projector across the (A0 A1) | (B0 B1)
    # cut keeps the product form of the first marginal (it is a rescaled
    # identity superchannel) but fails the second marginal condition
    p = max_entangled_projector(4).mat / 4.0
    s = super_choi(p, (2, 2, 2, 2))
    verdict = validate_superchannel(s)
    assert verdict.factorization_deviation <= 1e-14
    assert verdict.marginal_deviation > 1e-3
    assert not verdict.ok

    # a rank-one A1 factor genuinely breaks the factorization
    proj = np.zeros((2, 2))
    proj[0, 0] = 1.0
    mat = np.kron(np.eye(2), np.kron(proj, np.eye(4))).astype(complex)
    verdict = validate_superchannel(super_choi(mat, (2, 2, 2, 2)))
    assert verdict.factorization_deviation > 1e-3
    assert not verdict.ok


def test_superchannels_send_channels_to_channels():
    for (d0, d1) in ((2, 2), (2, 3)):
        s = random_valid_superchoi(rng, d0, d1)
        for ch in (random_channel(rng, d0, d1), random_channel(rng, d0, d1, kraus=1)):
            out = apply_to_channel(s, ch)
            assert validate_channel(out).ok


def test_tp_preserving_check_matches_marginal_conditions():
    # the two trace-preservation criteria are equivalent characterizations
    agreements = 0
    for k in range(100):
        s = random_valid_superchoi(rng, 2, 2)
        if k % 2:
            # perturb while keeping positivity: mix with a random PSD matrix
            g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            psd = g @ g.conj().T
            psd /= np.trace(psd).real
            mat = 0.7 * s.choi.mat + 0.3 * psd * 4
            s = super_choi(mat, (2, 2, 2, 2))
        v1 = validate_superchannel(s)
        v2 = tp_preserving_check(s)
        assert v1.is_tp == v2.ok
        agreements += v1.is_tp == v2.ok
    assert agreements == 100


def test_all_families_send_channel_corpus_to_channels():
    # superchannels map channels to channels, across every family constructor
    from superchan.covariance import UUFamilyParams, uu_superchannel
    from superchan.dephasing import dephasing_from_realization
    from superchan.du import build_choi
    from superchan.pauli import PauliSuperParams, pauli_super_choi
    from superchan.channels import amplitude_damping, bit_flip, pauli_channel, table_channel

    from helpers import random_realization, random_valid_du_params

    local = np.random.default_rng(77)
    supers = [
        uu_superchannel(UUFamilyParams("covariant", 0.2, 0.3, 0.1, 0.4, 2)),
        uu_superchannel(UUFamilyParams("conjugate", 0.05, 0.1, 0.1, 0.75, 2)),
        uu_superchannel(UUFamilyParams("mixed", 0.02, 0.28, 0.1, 0.6, 2)),
        build_choi(random_valid_du_params(local, 2)),
        build_choi(dephasing_from_realization(*random_realization(local, 2, 3))),
        pauli_super_choi(PauliSuperParams(local.dirichlet(np.ones(16)).reshape(4, 4))),
    ]
    # random valid two-table channel: mix a dephasing part with a classical one
    from superchan.channels import DUChannelParams
    from helpers import random_covariance_matrix

    m = random_covariance_matrix(local, 2)
    b_table = 0.5 * m
    np.fill_diagonal(b_table, 0.0)
    a_table = 0.5 * np.eye(2) + 0.5 * local.dirichlet(np.ones(2), size=2).T
    corpus = [
        amplitude_damping(0.3),
        bit_flip(0.2),
        pauli_channel(local.dirichlet(np.ones(4))),
        table_channel(DUChannelParams(2, a_table, b_table)),
    ]
    for s in supers:
        assert validate_superchannel(s).ok
        for ch in corpus:
            assert validate_channel(apply_to_channel(s, ch)).ok


def test_tp_preserving_check_returns_induced_map():
    s = identity_superchannel(3, 2)
    verdict = tp_preserving_check(s)
    assert verdict.ok
    assert np.allclose(verdict.induced.choi.mat, identity_channel(3).choi.mat)


def test_compose_superchannels():
    s1 = random_valid_superchoi(rng, 2, 2)
    ident = identity_superchannel(2, 2)
    same = compose_superchannels(ident, s1)
    assert np.allclose(same.choi.mat, s1.choi.mat, atol=1e-13)
    same = compose_superchannels(s1, ident)
    assert np.allclose(same.choi.mat, s1.choi.mat, atol=1e-13)

    s2 = random_valid_superchoi(rng, 2, 2)
    ch = bit_flip(0.2)
    via_comp = apply_to_channel(compose_superchannels(s2, s1), ch)
    via_steps = apply_to_channel(s2, apply_to_channel(s1, ch))
    assert np.allclose(via_comp.choi.mat, via_steps.choi.mat, atol=1e-12)


def test_compose_superchannels_associative():
    for _ in range(10):
        a = random_valid_superchoi(rng, 2, 2)
        b = random_valid_superchoi(rng, 2, 2)
        c = random_valid_superchoi(rng, 2, 2)
        left = compose_superchannels(compose_superchannels(a, b), c)
        right = compose_superchannels(a, compose_superchannels(b, c))
        assert np.abs(left.choi.mat - right.choi.mat).max() <= 1e-12


def _einsum_compose(first4, second4):
    """The four-index contraction compose_superchannels used to run, as its oracle."""
    c = np.einsum("kmln,manb->kalb", first4, second4)
    side = c.shape[0] * c.shape[1]
    return c.reshape(side, side)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_compose_superchannels_matches_the_einsum_contraction(d):
    def random_super(dims):
        side = int(np.prod(dims))
        mat = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        return super_choi(mat, dims)

    s1 = random_super((d, d - 1, d, d))
    s2 = random_super((d, d, d - 1, d))
    ref = _einsum_compose(s1.choi4(), s2.choi4())
    got = compose_superchannels(s2, s1)
    assert got.choi.dims == (d, d - 1, d - 1, d)
    scale = np.abs(ref).max()
    assert np.abs(got.choi.mat - ref).max() <= 1e-12 * scale


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_superchannels(identity_superchannel(3, 3), identity_superchannel(2, 2))


def test_classical_superchannel_extract_identity():
    s = identity_superchannel(2, 2)
    cs = classical_superchannel_extract(s)
    expected = np.zeros((4, 4))
    for i in range(2):
        for a in range(2):
            expected[i * 2 + a, i * 2 + a] = 1.0
    assert np.array_equal(cs.T, expected)
    assert np.array_equal(cs.t, np.eye(2))
    assert cs.fiber_deviation == 0.0 and cs.normalization_deviation == 0.0


def test_classical_superchannel_extract_properties_on_valid_instances():
    for _ in range(10):
        s = random_valid_superchoi(rng, 2, 3)
        cs = classical_superchannel_extract(s)
        assert cs.fiber_deviation <= 1e-12
        assert cs.normalization_deviation <= 1e-12
        assert cs.T.min() >= -1e-13


_UNEQUAL_DIMS = [(2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (2, 3, 4, 2), (3, 1, 2, 4), (4, 2, 1, 3)]


def _generic_super(dims):
    side = int(np.prod(dims))
    return super_choi(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)), dims)


@pytest.mark.parametrize("dims", _UNEQUAL_DIMS)
def test_tp_preserving_check_is_bit_identical_to_the_loops(dims):
    for s in (_generic_super(dims), random_valid_superchoi(rng, dims[0], dims[1])):
        leak, choi = loop_tp_preserving_parts(s)
        verdict = tp_preserving_check(s)
        assert verdict.offdiagonal_leak == leak
        assert verdict.induced.choi.mat.tobytes() == choi.tobytes()


@pytest.mark.parametrize("dims", _UNEQUAL_DIMS)
def test_validate_and_tp_check_measure_the_same_marginals(dims):
    # the dense reference's C0 is tp_preserving_check's induced Choi, so its
    # factorization residual is max(leak, fiber) and its marginal residual the
    # unitality deviation: bit for bit, on generic, Hermitian and valid Chois
    def bits(report):
        return {key: np.float64(value).tobytes() for key, value in report.items()}

    g = _generic_super(dims)
    h = super_choi(g.choi.mat + g.choi.mat.conj().T, dims)
    for s in (g, h, random_valid_superchoi(rng, dims[0], dims[1])):
        verdict = validate_superchannel(s)
        ref = dense_validate_superchannel(s, DEFAULT_TOL)
        tp = tp_preserving_check(s)
        assert bits(verdict.report()) == bits(ref.report())
        assert verdict.ok == ref.ok
        assert ref.factorization_deviation == max(tp.offdiagonal_leak, tp.fiber_deviation)
        assert ref.marginal_deviation == tp.unitality_deviation


@pytest.mark.parametrize("dims", _UNEQUAL_DIMS)
def test_classical_superchannel_extract_is_bit_identical_to_the_loop(dims):
    s = _generic_super(dims)
    assert classical_superchannel_extract(s).T.tobytes() == loop_classical_table(s).tobytes()


def test_classical_superchannel_maps_stochastic_to_stochastic():
    s = random_valid_superchoi(rng, 2, 2)
    cs = classical_superchannel_extract(s)
    pin = classical_channel_extract(bit_flip(0.3))
    pout = (cs.T @ pin.T.reshape(-1)).reshape(2, 2).T
    assert np.allclose(pout.sum(axis=0), 1.0, atol=1e-12)


def test_representing_apply_dimension_mismatch():
    s = identity_superchannel(2, 2)
    with pytest.raises(ValueError):
        representing_apply(s, np.eye(3))


def _random_tables(kind, local, d):
    if kind == "du":
        return random_hermitian_du_params(local, d)
    if kind == "do":
        return random_do_params(local, d)
    return dephasing_from_realization(*random_realization(local, d, 3))


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_apply_to_channel_on_tables_is_apply_tables(kind, d):
    # bit for bit the table action; the Choi route sums in another order
    local = np.random.default_rng(40 + d)
    for _ in range(3):
        p = _random_tables(kind, local, d)
        ch = random_channel(local, d)
        out = apply_to_channel(p, ch)
        assert (out.d_in, out.d_out) == (d, d)
        assert out.choi.mat.tobytes() == apply_tables(p, ch.choi.mat).tobytes()
        ref = representing_apply(build_choi(p), ch.choi).mat
        assert np.abs(out.choi.mat - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_apply_to_channel_checks_the_input_pair_of_either_form():
    ch = bit_flip(0.2)
    for s, pair in ((du_identity(3), "(3, 3)"), (identity_superchannel(2, 3), "(2, 3)")):
        with pytest.raises(ValueError) as err:
            apply_to_channel(s, ch)
        assert str(err.value) == f"channel dims (2, 2) do not match superchannel input pair {pair}"


def test_apply_to_channel_refuses_channel_tables():
    # DOC tables hold a channel, not a superchannel: there is no map to apply
    p = DOChannelParams.masked(2, A=np.eye(2), B=np.ones((2, 2)), C=0)
    with pytest.raises(ValueError, match="DOChannelParams holds channel tables, not superchannel"):
        apply_to_channel(p, amplitude_damping(0.3))


def test_apply_tables_rejects_a_wrongly_shaped_operand():
    p = du_identity(2)
    for shape in ((4, 3), (9, 9), (16,)):
        with pytest.raises(ValueError, match="does not match d\\^2=4"):
            apply_tables(p, np.zeros(shape, dtype=complex))
