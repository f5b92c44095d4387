import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superchan.channels import (
    PARAM_EDGE_TOL,
    DOChannelParams,
    amplitude_damping,
    bit_flip,
    pauli_channel,
    validate_channel,
)
from superchan import covariance
from superchan.covariance import (
    UU_VARIANTS,
    UUFamilyParams,
    holevo_werner_superchannel,
    holevo_werner_superchannel_params,
    superchannel_covariance_check,
    uu_cp_closed_form,
    uu_superchannel,
)
from superchan.dephasing import DephasingSuperParams
from superchan.du import build_choi
from superchan.linalg import DEFAULT_TOL, is_psd
from superchan.superchannels import (
    SuperChoi,
    apply_to_channel,
    sandwich_superchannel,
    tp_preserving_check,
    validate_superchannel,
)

from helpers import (
    dense_covariance_reference,
    depolarizing,
    haar_unitary,
    identity_channel,
    identity_superchannel,
    random_channel,
    random_do_params,
    random_hermitian_du_params,
    reference_draws,
    rephasing_covariance_reference,
    transpose_map,
    unitary_conjugation,
    uu_closed_form_action,
    uu_induced_map,
    uu_shared_spectra,
)

rng = np.random.default_rng(19)


def test_superchannel_covariance_check_refuses_channel_tables():
    # DOC tables index a d^2 x d^2 channel Choi, not the superchannel's d^4 x d^4
    p = DOChannelParams.masked(2, A=np.eye(2), B=np.ones((2, 2)), C=0)
    for group in ("du", "haar"):
        with pytest.raises(ValueError, match="DOChannelParams holds channel tables, not "):
            superchannel_covariance_check(p, group)

def random_uu_params(variant, d, rng):
    while True:
        p = rng.uniform(-0.75, 1.25, size=4)
        if abs(p.sum()) > 0.2:
            break
    p = p / p.sum()
    return UUFamilyParams(variant, *p, d)


def test_uu_superchannel_trivial_points():
    p = UUFamilyParams("covariant", 1.0, 0.0, 0.0, 0.0, 2)
    assert np.allclose(uu_superchannel(p).mat, identity_superchannel(2, 2).mat)
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
                spectral = is_psd(uu_superchannel(p).mat)
                assert closed == spectral, (variant, d, p.p)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("variant", UU_VARIANTS)
def test_uu_cp_closed_form_matches_is_psd_at_the_tolerance_boundary(variant, d):
    # is_psd accepts iff min eig + tol * max(1, spectral radius) >= 0: the
    # margin, read off the shared spectra to about 1e-12.  Each variant's
    # unit weights and the covariant (1 + 2e-10, 0, 0, -2e-10), whose least
    # eigenvalue is -2e-10 / d^2; then, at d >= 2, weights whose margin is
    # +-0.5, 2 and 5 tol, on segments from D(x)D (every eigenvalue 1/d^2)
    # to random weights that are not CP.  At d = 1 every mixture is the
    # 1 x 1 Choi [1], so CP.
    tol = 1e-10
    spectra = uu_shared_spectra(variant, d)

    def margin(p):
        evals = p @ spectra
        return float(evals.min()) + tol * max(1.0, float(np.abs(evals).max()))

    cases = [*np.eye(4), np.array([1 + 2e-10, 0.0, 0.0, -2e-10])]
    inside, draw = np.eye(4)[3], np.random.default_rng(10 * d)
    outs = [q for q in (random_uu_params(variant, d, draw).p for _ in range(40))
            if margin(q) < -1e-3][:3] if d > 1 else []
    assert d == 1 or len(outs) == 3
    for out in outs:
        for target in (-5, -2, -0.5, 0.5, 2, 5):
            lo, hi = 0.0, 1.0  # margin - target * tol: positive at lo, negative at hi
            for _ in range(60):
                mid = (lo + hi) / 2
                if margin((1 - mid) * inside + mid * out) > target * tol:
                    lo = mid
                else:
                    hi = mid
            p = (1 - lo) * inside + lo * out
            assert (margin(p) >= 0) == (target > 0)
            cases.append(p)
    for p in cases:
        params = UUFamilyParams(variant, *p, d)
        assert uu_cp_closed_form(params, tol) == is_psd(uu_superchannel(params).mat, tol), p
        if d == 1:
            assert uu_cp_closed_form(params, tol)


def test_uu_families_pass_their_defining_covariance_group():
    groups = {"covariant": "haar", "conjugate": "conj-haar", "mixed": "mixed"}
    for variant, group in groups.items():
        p = UUFamilyParams(variant, 0.05, 0.1, 0.1, 0.75, 3)
        s = uu_superchannel(p)
        assert validate_superchannel(s).ok
        v = superchannel_covariance_check(s, group, seed=7, n=20)
        assert v.max_deviation <= 1e-12, (variant, group, v.max_deviation)
        # and fails the other two groups
        for other in set(groups.values()) - {group}:
            v = superchannel_covariance_check(s, other, seed=7, n=20)
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
                via_formula = uu_closed_form_action(p, ch).mat
                via_choi = apply_to_channel(s, ch).mat
                assert np.abs(via_formula - via_choi).max() <= 1e-12


def test_uu_closed_form_action_trivial_point():
    p = UUFamilyParams("covariant", 1.0, 0.0, 0.0, 0.0, 2)
    ad = amplitude_damping(0.35)
    assert np.allclose(uu_closed_form_action(p, ad).mat, ad.mat)


def test_uu_induced_map_matches_tp_check():
    for variant in ("covariant", "conjugate", "mixed"):
        p = UUFamilyParams(variant, 0.05, 0.15, 0.1, 0.7, 3)
        s = uu_superchannel(p)
        verdict = tp_preserving_check(s)
        assert verdict.ok
        assert np.abs(verdict.induced.mat - uu_induced_map(p).mat).max() <= 1e-12


def test_uu_induced_map_displayed_mixture():
    # the induced map mixes identity (or transpose) with depolarizing
    p = UUFamilyParams("covariant", 0.3, 0.2, 0.4, 0.1, 2)
    expected = 0.5 * identity_channel(2).mat + 0.5 * depolarizing(2).mat
    assert np.allclose(uu_induced_map(p).mat, expected)
    p = UUFamilyParams("conjugate", 0.3, 0.2, 0.4, 0.1, 2)
    expected = 0.5 * transpose_map(2).mat + 0.5 * depolarizing(2).mat
    assert np.allclose(uu_induced_map(p).mat, expected)


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
        v = superchannel_covariance_check(s, "conj-haar", seed=3, n=20)
        assert v.max_deviation <= 1e-12


def test_holevo_werner_superchannel_on_identity():
    # acting on the identity channel lands inside the fully covariant family
    # at mixing weight -1/(d^2 - 1)
    for d in (2, 3):
        out = apply_to_channel(holevo_werner_superchannel(d), identity_channel(d))
        lam = -1.0 / (d * d - 1)
        expected = lam * identity_channel(d).mat + (1 - lam) * depolarizing(d).mat
        assert np.abs(out.mat - expected).max() <= 1e-12
        assert validate_channel(out).ok


def test_haar_sandwich_fails_diagonal_unitary_test():
    s = sandwich_superchannel(
        unitary_conjugation(haar_unitary(rng, 2)),
        unitary_conjugation(haar_unitary(rng, 2)),
    )
    v = superchannel_covariance_check(s, "du", seed=11, n=20)
    assert v.max_deviation > 1e-3


@pytest.mark.parametrize("group", ["du", "haar"])
@pytest.mark.parametrize("n", [0, 3])
def test_superchannel_covariance_dimension_mismatch(group, n):
    # refused before the sample count is read
    s = identity_superchannel(2, 3)
    with pytest.raises(ValueError, match="^covariance groups are defined for equal subsystem dims$"):
        superchannel_covariance_check(s, group, n=n)


def test_superchannel_covariance_unknown_group():
    with pytest.raises(ValueError, match="unknown covariance group 'su2'"):
        superchannel_covariance_check(identity_superchannel(2, 2), "su2")


def test_a_nan_deviation_fails_its_sample_as_inf():
    # at this scale some conjugates give inf - inf = NaN, some only inf; the
    # first sample to leave the float range is the worst, NaN or not
    local = np.random.default_rng(2)
    m = 1e308 * (local.uniform(-1, 1, (16, 16)) + 1j * local.uniform(-1, 1, (16, 16)))
    firsts = []
    for group in ("du", "do", "haar", "conj-haar", "mixed"):
        with np.errstate(over="ignore", invalid="ignore"):
            devs = [np.abs(w @ m @ w.conj().T - m).max() for w in (
                np.kron(np.kron(u, v.conj()), np.kron(up.conj(), vp))
                for u, v, up, vp in reference_draws(group, 2, 0, 20))]
        first = int(np.argmin(np.isfinite(devs)))
        v = superchannel_covariance_check(SuperChoi((2,) * 4, m), group, n=20)
        assert (v.max_deviation, v.worst_sample, v.ok) == (np.inf, first, False), group
        firsts.append(devs[first])
    assert np.isnan(firsts).any() and np.isinf(firsts).any()


def test_covariance_verdict_reporting():
    s = identity_superchannel(2, 2)
    v = superchannel_covariance_check(s, "haar", seed=0, n=5)
    rep = v.report()
    assert rep["covariant"] and rep["samples"] == 5


# ---------------------------------------------------------------------------
# diagonal groups: rephasing the nonzero entries against dense conjugation
# ---------------------------------------------------------------------------

def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _covariant_choi(rng, group, d):
    """A superchannel Choi matrix invariant under the group, with generic
    nonzero entries."""
    if group == "du":
        return build_choi(random_hermitian_du_params(rng, d)).mat
    return build_choi(random_do_params(rng, d)).mat


def _check(mat, group, d, seed, n):
    return superchannel_covariance_check(SuperChoi((d,) * 4, mat), group, n=n, seed=seed)


@settings(max_examples=60, deadline=None)
@given(
    group=st.sampled_from(["du", "do"]),
    d=st.integers(2, 4),
    kind=st.sampled_from(["covariant", "generic", "planted"]),
    scale=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**16),
)
def test_diagonal_route_matches_dense_conjugation(group, d, kind, scale, seed):
    rng = np.random.default_rng(seed)
    mat = _covariant_choi(rng, group, d).copy()
    if kind == "generic":
        mat = _complex(rng, mat.shape)
    elif kind == "planted":  # off-pattern weight at the tolerance boundary
        zeros = np.argwhere(mat == 0)
        r, c = zeros[rng.integers(len(zeros))]
        mat[r, c] = scale * DEFAULT_TOL * np.exp(1j * rng.uniform(0, 2 * np.pi))
    n = 8
    v = _check(mat, group, d, seed, n)
    ref, ref_idx = dense_covariance_reference(mat, group, d, seed, n)
    assert v.ok == (ref <= DEFAULT_TOL)
    if group == "do":  # products of +-1 are exact, so both routes agree bit for bit
        assert (v.max_deviation, v.worst_sample) == (ref, ref_idx)
        return
    assert abs(v.max_deviation - ref) <= 1e-12 * max(1.0, float(np.abs(mat).max()))
    if kind != "covariant":
        assert v.worst_sample == ref_idx


@pytest.mark.parametrize("group", ["du", "do"])
@pytest.mark.parametrize("d", [2, 3])
def test_diagonal_route_on_an_all_zero_choi(group, d):
    mat = np.zeros((d**4, d**4), dtype=complex)
    v = _check(mat, group, d, 5, 4)
    assert (v.ok, v.max_deviation, v.worst_sample) == (True, 0.0, 0)


@pytest.mark.parametrize("group", ["haar", "conj-haar", "mixed"])
@pytest.mark.parametrize("d", [2, 3])
def test_haar_groups_are_bit_identical_to_four_generator_conjugation(group, d):
    # the library draws U' and V' as U and V or their conjugates, from two
    # generators; the reference replays four, as U, V, U' and V' each had
    mat = _complex(np.random.default_rng((7, d)), (d**4, d**4))
    for n in (1, 6):
        v = _check(mat, group, d, 40 + n, n)
        assert (v.max_deviation, v.worst_sample) == dense_covariance_reference(
            mat, group, d, 40 + n, n)


@pytest.mark.parametrize("group", ["du", "do"])
@pytest.mark.parametrize("kind", ["covariant", "generic", "planted", "zeros40", "zeros70"])
@pytest.mark.parametrize("floor", [True, False])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_route_is_bit_identical_to_per_sample_conjugation(monkeypatch, group, kind, floor, d):
    """n runs from one sample to several chunks.  With the chunk floor a
    generic d=3 superchannel Choi takes three samples per chunk; without it
    the chunks of every input shrink to a few samples, so most n split them
    unevenly.  Zeroing 40 % of the entries mostly keeps the dense route,
    zeroing 70 % takes the gathers."""
    if not floor:
        monkeypatch.setattr(covariance, "_CHUNK_ENTRIES", 0)
    r = np.random.default_rng((5, d))
    mat = _covariant_choi(r, group, d).copy()
    if kind != "covariant":
        mat = _complex(r, mat.shape) if kind != "planted" else mat
    if kind == "planted":
        zeros = np.argwhere(mat == 0)
        mat[tuple(zeros[r.integers(len(zeros))])] = DEFAULT_TOL * np.exp(1j * r.uniform(0, 6))
    elif kind.startswith("zeros"):
        mat[r.random(mat.shape) < int(kind[5:]) / 100] = 0.0
    for n in (1, 2, 5, 8, 31):
        seed = 100 + n
        v = _check(mat, group, d, seed, n)
        got = (v.max_deviation, v.worst_sample)
        assert got == rephasing_covariance_reference(mat, group, d, seed, n)
        if group == "do":  # products of +-1 are exact, so the matrix product agrees too
            assert got == dense_covariance_reference(mat, group, d, seed, n)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_table_route_is_bit_identical_to_the_choi_route(d):
    r = np.random.default_rng(d)
    m = _complex(r, (d * d, d * d))
    tables = (random_hermitian_du_params(r, d), random_do_params(r, d),
              DephasingSuperParams(d, np.where(r.random(m.shape) < 0.3, -0.0, m)))
    for p in tables:
        for group in ("du", "do") + (("haar", "mixed") if d == 2 else ()):
            on_tables, on_choi = (
                superchannel_covariance_check(x, group, 9, seed=7)
                for x in (p, build_choi(p))
            )
            assert on_tables == on_choi

