import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superchan.channels import (
    PARAM_EDGE_TOL,
    DOChannelParams,
    DUChannelParams,
    amplitude_damping,
    bit_flip,
    choi_channel,
    depolarizing,
    holevo_werner,
    identity_channel,
    pauli_channel,
    table_channel,
    transpose_map,
    unitary_covariant,
    validate_channel,
)
from superchan import covariance
from superchan.covariance import (
    GroupSampler,
    UUFamilyParams,
    channel_covariance_check,
    covariance_sampler_tuple,
    holevo_werner_superchannel,
    holevo_werner_superchannel_params,
    superchannel_covariance_check,
    uu_closed_form_action,
    uu_cp_closed_form,
    uu_induced_map,
    uu_superchannel,
)
from superchan.dephasing import DephasingSuperParams
from superchan.du import build_choi
from superchan.linalg import DEFAULT_TOL, is_psd
from superchan.superchannels import (
    apply_to_channel,
    identity_superchannel,
    sandwich_superchannel,
    super_choi,
    tp_preserving_check,
    validate_superchannel,
)

from helpers import (
    dense_covariance_reference,
    haar_unitary,
    random_channel,
    random_do_params,
    random_hermitian_du_params,
    rephasing_covariance_reference,
    unitary_conjugation,
)

rng = np.random.default_rng(19)



def test_superchannel_covariance_check_refuses_channel_tables():
    # DOC tables index a d^2 x d^2 channel Choi, not the superchannel's d^4 x d^4
    p = DOChannelParams.masked(2, A=np.eye(2), B=np.ones((2, 2)), C=0)
    for group in ("du", "haar"):
        with pytest.raises(ValueError, match="DOChannelParams holds channel tables, not "):
            superchannel_covariance_check(p, covariance_sampler_tuple(group, 2))

def random_uu_params(variant, d, rng):
    while True:
        p = rng.uniform(-0.75, 1.25, size=4)
        if abs(p.sum()) > 0.2:
            break
    p = p / p.sum()
    return UUFamilyParams(variant, *p, d)


def test_sampler_unitarity_and_determinism():
    for kind in ("diagonal-unitary", "diagonal-orthogonal", "haar-unitary"):
        s1 = GroupSampler(kind, 3, seed=5)
        s2 = GroupSampler(kind, 3, seed=5)
        for _ in range(10):
            u1, u2 = s1.draw(), s2.draw()
            assert np.array_equal(u1, u2)
            assert np.abs(u1.conj().T @ u1 - np.eye(3)).max() <= 1e-12


def test_conjugated_sampler_tracks_base_stream():
    base = GroupSampler("haar-unitary", 2, seed=9)
    conj = GroupSampler("haar-unitary", 2, seed=9).conjugated()
    assert np.array_equal(base.draw().conj(), conj.draw())


def test_diagonal_samplers_are_diagonal():
    for kind in ("diagonal-unitary", "diagonal-orthogonal"):
        u = GroupSampler(kind, 4, seed=0).draw()
        assert np.abs(u - np.diag(np.diagonal(u))).max() == 0.0
    signs = GroupSampler("diagonal-orthogonal", 4, seed=1).draw()
    assert set(np.diagonal(signs).real).issubset({-1.0, 1.0})


@pytest.mark.parametrize("kind", ["diagonal-unitary", "diagonal-orthogonal"])
@pytest.mark.parametrize("conjugate", [False, True])
def test_diagonals_are_the_stream_of_successive_draws(kind, conjugate):
    for d, n in ((1, 3), (3, 1), (4, 7)):
        batched = GroupSampler(kind, d, 11, conjugate)
        single = GroupSampler(kind, d, 11, conjugate)
        rows = batched.diagonals(n)
        assert rows.shape == (n, d)
        assert np.array_equal(rows, [np.diagonal(single.draw()) for _ in range(n)])
        assert np.array_equal(batched.draw(), single.draw())  # both streams moved on by n


def test_haar_sampler_has_no_diagonals():
    with pytest.raises(ValueError, match="not diagonal"):
        GroupSampler("haar-unitary", 2, 0).diagonals(3)


def test_channel_covariance_families():
    # fully covariant family is invariant when both representations coincide
    ch = unitary_covariant(0.4, 3)
    v = channel_covariance_check(
        ch, GroupSampler("haar-unitary", 3, 1), GroupSampler("haar-unitary", 3, 1), n=20
    )
    assert v.max_deviation <= 1e-12

    # amplitude damping is diagonal-unitary covariant but not fully covariant
    ad = amplitude_damping(0.3)
    v = channel_covariance_check(
        ad, GroupSampler("diagonal-unitary", 2, 2), GroupSampler("diagonal-unitary", 2, 2), n=20
    )
    assert v.max_deviation <= 1e-12
    v = channel_covariance_check(
        ad, GroupSampler("haar-unitary", 2, 3), GroupSampler("haar-unitary", 2, 3), n=20
    )
    assert v.max_deviation > 1e-3

    # the extreme conjugate-covariant channel needs the conjugate partner
    hw = holevo_werner(3)
    v = channel_covariance_check(
        hw,
        GroupSampler("haar-unitary", 3, 4),
        GroupSampler("haar-unitary", 3, 4).conjugated(),
        n=20,
    )
    assert v.max_deviation <= 1e-12


def test_channel_covariance_dimension_mismatch():
    with pytest.raises(ValueError):
        channel_covariance_check(
            amplitude_damping(0.1),
            GroupSampler("haar-unitary", 3, 0),
            GroupSampler("haar-unitary", 2, 0),
        )


def test_uu_superchannel_trivial_points():
    p = UUFamilyParams("covariant", 1.0, 0.0, 0.0, 0.0, 2)
    assert np.allclose(uu_superchannel(p).choi.mat, identity_superchannel(2, 2).choi.mat)
    assert uu_cp_closed_form(p)


def test_uu_params_normalization_enforced():
    with pytest.raises(ValueError):
        UUFamilyParams("covariant", 0.5, 0.0, 0.0, 0.0, 2)
    with pytest.raises(ValueError):
        UUFamilyParams("sideways", 1.0, 0.0, 0.0, 0.0, 2)
    # the weights' sum has the channels' edge slack, PARAM_EDGE_TOL
    UUFamilyParams("covariant", 1.0, 0.0, 0.0, 0.5 * PARAM_EDGE_TOL, 2)
    with pytest.raises(ValueError, match="sum to 1"):
        UUFamilyParams("covariant", 1.0, 0.0, 0.0, 2 * PARAM_EDGE_TOL, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_uu_params_reject_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        UUFamilyParams("covariant", bad, 0.0, 0.0, 1.0, 2)


def test_uu_cp_closed_form_matches_spectral_oracle():
    for variant in ("covariant", "conjugate", "mixed"):
        for d in (2, 3):
            for _ in range(150):
                p = random_uu_params(variant, d, rng)
                closed = uu_cp_closed_form(p)
                spectral = is_psd(uu_superchannel(p).choi.mat)
                assert closed == spectral, (variant, d, p.p)


def test_uu_families_pass_their_defining_covariance_group():
    groups = {"covariant": "haar", "conjugate": "conj-haar", "mixed": "mixed"}
    for variant, group in groups.items():
        p = UUFamilyParams(variant, 0.05, 0.1, 0.1, 0.75, 3)
        s = uu_superchannel(p)
        assert validate_superchannel(s).ok
        v = superchannel_covariance_check(s, covariance_sampler_tuple(group, 3, 7), n=20)
        assert v.max_deviation <= 1e-12, (variant, group, v.max_deviation)
        # and fails the other two groups
        for other in set(groups.values()) - {group}:
            v = superchannel_covariance_check(
                s, covariance_sampler_tuple(other, 3, 7), n=20
            )
            assert v.max_deviation > 1e-3, (variant, other)


def test_uu_closed_form_action_matches_representing_map():
    corpus = [
        amplitude_damping(0.3),
        bit_flip(0.2),
        pauli_channel((0.4, 0.3, 0.2, 0.1)),
        identity_channel(2),
        random_channel(rng, 2),
    ]
    for variant in ("covariant", "conjugate", "mixed"):
        for _ in range(10):
            p = random_uu_params(variant, 2, rng)
            s = uu_superchannel(p)
            for ch in corpus:
                via_formula = uu_closed_form_action(p, ch).choi.mat
                via_choi = apply_to_channel(s, ch).choi.mat
                assert np.abs(via_formula - via_choi).max() <= 1e-12


def test_uu_closed_form_action_trivial_point():
    p = UUFamilyParams("covariant", 1.0, 0.0, 0.0, 0.0, 2)
    ad = amplitude_damping(0.35)
    assert np.allclose(uu_closed_form_action(p, ad).choi.mat, ad.choi.mat)


def test_uu_induced_map_matches_tp_check():
    for variant in ("covariant", "conjugate", "mixed"):
        p = UUFamilyParams(variant, 0.05, 0.15, 0.1, 0.7, 3)
        s = uu_superchannel(p)
        verdict = tp_preserving_check(s)
        assert verdict.ok
        assert np.abs(verdict.induced.choi.mat - uu_induced_map(p).choi.mat).max() <= 1e-12


def test_uu_induced_map_displayed_mixture():
    # the induced map mixes identity (or transpose) with depolarizing
    p = UUFamilyParams("covariant", 0.3, 0.2, 0.4, 0.1, 2)
    expected = 0.5 * identity_channel(2).choi.mat + 0.5 * depolarizing(2).choi.mat
    assert np.allclose(uu_induced_map(p).choi.mat, expected)
    p = UUFamilyParams("conjugate", 0.3, 0.2, 0.4, 0.1, 2)
    expected = 0.5 * transpose_map(2).choi.mat + 0.5 * depolarizing(2).choi.mat
    assert np.allclose(uu_induced_map(p).choi.mat, expected)


def test_holevo_werner_superchannel():
    for d in (2, 3):
        params = holevo_werner_superchannel_params(d)
        s = holevo_werner_superchannel(d)
        assert validate_superchannel(s).ok
        assert uu_cp_closed_form(params)
        # sits on the boundary: one closed-form inequality is tight
        p0, p3 = params.p0, params.p3
        assert abs(p3 / d**2 + p0) <= 1e-12
        # covariance under the conjugate group
        v = superchannel_covariance_check(s, covariance_sampler_tuple("conj-haar", d, 3), n=20)
        assert v.max_deviation <= 1e-12


def test_holevo_werner_superchannel_on_identity():
    # acting on the identity channel lands inside the fully covariant family
    # at mixing weight -1/(d^2 - 1)
    for d in (2, 3):
        out = apply_to_channel(holevo_werner_superchannel(d), identity_channel(d))
        expected = unitary_covariant(-1.0 / (d * d - 1), d)
        assert np.abs(out.choi.mat - expected.choi.mat).max() <= 1e-12
        assert validate_channel(out).ok


def test_haar_sandwich_fails_diagonal_unitary_test():
    s = sandwich_superchannel(
        unitary_conjugation(haar_unitary(rng, 2)),
        unitary_conjugation(haar_unitary(rng, 2)),
    )
    v = superchannel_covariance_check(s, covariance_sampler_tuple("du", 2, 11), n=20)
    assert v.max_deviation > 1e-3


def test_superchannel_covariance_dimension_mismatch():
    s = identity_superchannel(2, 2)
    with pytest.raises(ValueError):
        superchannel_covariance_check(s, covariance_sampler_tuple("du", 3, 0))


def test_covariance_verdict_reporting():
    s = identity_superchannel(2, 2)
    v = superchannel_covariance_check(s, covariance_sampler_tuple("haar", 2, 0), n=5)
    rep = v.report()
    assert rep["covariant"] and rep["samples"] == 5


# ---------------------------------------------------------------------------
# diagonal groups: rephasing the nonzero entries against dense conjugation
# ---------------------------------------------------------------------------

KIND = {"du": "diagonal-unitary", "do": "diagonal-orthogonal"}


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _covariant_choi(rng, group, d, channel):
    """A Choi matrix invariant under the group, with generic nonzero entries."""
    if channel:
        off = np.where(np.eye(d, dtype=bool), 0.0, _complex(rng, (d, d)))
        if group == "du":
            return table_channel(DUChannelParams(d, rng.normal(size=(d, d)), off)).choi.mat
        c = np.where(np.eye(d, dtype=bool), 0.0, _complex(rng, (d, d)))
        return table_channel(DOChannelParams(d, rng.normal(size=(d, d)), off, c)).choi.mat
    if group == "du":
        return build_choi(random_hermitian_du_params(rng, d)).choi.mat
    return build_choi(random_do_params(rng, d)).choi.mat


def _samplers(group, d, seed, channel):
    if channel:  # two representations of the same group element
        return tuple(GroupSampler(KIND[group], d, seed) for _ in range(2))
    return covariance_sampler_tuple(group, d, seed)


def _check(mat, group, d, seed, channel, n):
    samplers = _samplers(group, d, seed, channel)
    if channel:
        return channel_covariance_check(choi_channel(mat, d, d), *samplers, n=n)
    return superchannel_covariance_check(super_choi(mat, (d,) * 4), samplers, n=n)


@settings(max_examples=60, deadline=None)
@given(
    group=st.sampled_from(["du", "do"]),
    d=st.integers(2, 4),
    channel=st.booleans(),
    kind=st.sampled_from(["covariant", "generic", "planted"]),
    scale=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**16),
)
def test_diagonal_route_matches_dense_conjugation(group, d, channel, kind, scale, seed):
    rng = np.random.default_rng(seed)
    mat = _covariant_choi(rng, group, d, channel).copy()
    if kind == "generic":
        mat = _complex(rng, mat.shape)
    elif kind == "planted":  # off-pattern weight at the tolerance boundary
        zeros = np.argwhere(mat == 0)
        r, c = zeros[rng.integers(len(zeros))]
        mat[r, c] = scale * DEFAULT_TOL * np.exp(1j * rng.uniform(0, 2 * np.pi))
    n = 8
    v = _check(mat, group, d, seed, channel, n)
    ref, ref_idx = dense_covariance_reference(mat, _samplers(group, d, seed, channel), n)
    assert v.ok == (ref <= DEFAULT_TOL)
    if group == "do":  # products of +-1 are exact, so both routes agree bit for bit
        assert (v.max_deviation, v.worst_sample) == (ref, ref_idx)
        return
    assert abs(v.max_deviation - ref) <= 1e-12 * max(1.0, float(np.abs(mat).max()))
    if kind != "covariant":
        assert v.worst_sample == ref_idx


@pytest.mark.parametrize("group", ["du", "do"])
@pytest.mark.parametrize("channel", [True, False])
def test_diagonal_route_on_an_all_zero_choi(group, channel):
    d = 3
    mat = np.zeros((d**2, d**2) if channel else (d**4, d**4), dtype=complex)
    v = _check(mat, group, d, 5, channel, 4)
    assert (v.ok, v.max_deviation, v.worst_sample) == (True, 0.0, 0)


def test_mixed_diagonal_and_haar_samplers_take_the_dense_route():
    d = 2
    mat = _complex(rng, (d**4, d**4))

    def samplers():
        kinds = ("diagonal-unitary", "haar-unitary", "diagonal-orthogonal", "haar-unitary")
        return tuple(GroupSampler(k, d, 3 + i) for i, k in enumerate(kinds))

    v = superchannel_covariance_check(super_choi(mat, (d,) * 4), samplers(), n=6)
    assert (v.max_deviation, v.worst_sample) == dense_covariance_reference(mat, samplers(), 6)

    def pair():
        return GroupSampler("diagonal-unitary", 4, 1), GroupSampler("haar-unitary", 4, 1)

    v = channel_covariance_check(choi_channel(mat[:16, :16], 4, 4), *pair(), n=6)
    assert (v.max_deviation, v.worst_sample) == dense_covariance_reference(mat[:16, :16], pair(), 6)


@pytest.mark.parametrize("group", ["du", "do"])
@pytest.mark.parametrize("channel", [True, False])
@pytest.mark.parametrize("kind", ["covariant", "generic", "planted", "zeros40", "zeros70"])
@pytest.mark.parametrize("floor", [True, False])
def test_batched_route_is_bit_identical_to_per_sample_conjugation(
    monkeypatch, group, channel, kind, floor
):
    """n runs from one sample to several chunks.  With the chunk floor a
    generic d=3 superchannel Choi takes three samples per chunk; without it
    the chunks of every input shrink to a few samples, so most n split them
    unevenly.  Zeroing 40 % of the entries mostly keeps the dense route,
    zeroing 70 % takes the gathers."""
    if not floor:
        monkeypatch.setattr(covariance, "_CHUNK_ENTRIES", 0)
    r = np.random.default_rng(5)
    for d in (2, 3):
        mat = _covariant_choi(r, group, d, channel).copy()
        if kind != "covariant":
            mat = _complex(r, mat.shape) if kind != "planted" else mat
        if kind == "planted":
            zeros = np.argwhere(mat == 0)
            mat[tuple(zeros[r.integers(len(zeros))])] = DEFAULT_TOL * np.exp(1j * r.uniform(0, 6))
        elif kind.startswith("zeros"):
            mat[r.random(mat.shape) < int(kind[5:]) / 100] = 0.0
        for n in (1, 2, 5, 8, 31):
            seed = 100 + n
            v = _check(mat, group, d, seed, channel, n)
            got = (v.max_deviation, v.worst_sample)
            assert got == rephasing_covariance_reference(mat, _samplers(group, d, seed, channel), n)
            if group == "do":  # products of +-1 are exact, so the matrix product agrees too
                assert got == dense_covariance_reference(mat, _samplers(group, d, seed, channel), n)


def test_a_sampler_passed_twice_alternates_its_stream():
    mat = _complex(rng, (9, 9))
    s, t = (GroupSampler("diagonal-unitary", 3, 4) for _ in range(2))
    v = channel_covariance_check(choi_channel(mat, 3, 3), s, s, n=6)
    assert (v.max_deviation, v.worst_sample) == rephasing_covariance_reference(mat, (t, t), 6)
    assert np.array_equal(s.draw(), t.draw())


@pytest.mark.parametrize("d", [2, 3, 4])
def test_table_route_is_bit_identical_to_the_choi_route(d):
    r = np.random.default_rng(d)
    m = _complex(r, (d * d, d * d))
    tables = (random_hermitian_du_params(r, d), random_do_params(r, d),
              DephasingSuperParams(d, np.where(r.random(m.shape) < 0.3, -0.0, m)))
    for p in tables:
        for group in ("du", "do") + (("haar", "mixed") if d == 2 else ()):
            on_tables, on_choi = (
                superchannel_covariance_check(x, covariance_sampler_tuple(group, d, 7), 9)
                for x in (p, build_choi(p))
            )
            assert on_tables == on_choi


def test_table_route_checks_the_sampler_dims():
    with pytest.raises(ValueError, match="do not match"):
        superchannel_covariance_check(random_do_params(rng, 2), covariance_sampler_tuple("du", 3))
