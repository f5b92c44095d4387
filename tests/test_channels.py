import numpy as np
import pytest

from superchan.channels import (
    ConjDUChannelParams,
    DOChannelParams,
    DUChannelParams,
    amplitude_damping,
    apply_channel,
    bit_flip,
    choi_channel,
    choi_from_kraus,
    classical_channel_extract,
    compose_channels,
    dephasing_channel,
    depolarizing,
    du_identity_channel_params,
    holevo_werner,
    identity_channel,
    orthogonal_covariant,
    pauli_channel,
    table_channel,
    table_channel_validate,
    transpose_map,
    unitary_covariant,
    validate_channel,
    conjugate_covariant,
)
from superchan.linalg import DEFAULT_TOL, is_psd, max_entangled_projector, swap_operator
from superchan.positions import compose_tables, off_pattern_weight, tables_from_choi

from helpers import (
    loop_channel_choi,
    loop_classical_channel_extract,
    loop_dephasing_choi,
    loop_do_pattern_split,
    loop_pair_violation,
    random_channel,
    random_covariance_matrix,
    random_density,
)


rng = np.random.default_rng(42)


def test_identity_channel_acts_trivially():
    ch = identity_channel(3)
    rho = random_density(rng, 3)
    assert np.allclose(apply_channel(ch, rho).mat, rho, atol=1e-14)


def test_depolarizing_action():
    ch = depolarizing(3)
    rho = random_density(rng, 3)
    assert np.allclose(apply_channel(ch, rho).mat, np.eye(3) / 3, atol=1e-14)


def test_amplitude_damping_choi_matches_display():
    gamma = 0.3
    s = np.sqrt(1 - gamma)
    expected = np.array(
        [[1, 0, 0, s], [0, 0, 0, 0], [0, 0, gamma, 0], [s, 0, 0, 1 - gamma]]
    )
    assert np.allclose(amplitude_damping(gamma).choi.mat, expected)


def test_amplitude_damping_kraus_oracle():
    # independent Kraus route: K0 = diag(1, sqrt(1-g)), K1 = sqrt(g) e_01
    for gamma in (0.0, 0.3, 1.0):
        k0 = np.diag([1.0, np.sqrt(1 - gamma)])
        k1 = np.zeros((2, 2))
        k1[0, 1] = np.sqrt(gamma)
        oracle = choi_from_kraus([k0, k1])
        assert np.allclose(amplitude_damping(gamma).choi.mat, oracle.choi.mat)


def test_choi_from_kraus_reads_the_dims_off_the_operators():
    # a 3 x 2 isometry embeds C^2 in C^3: a channel with dims (2, 3)
    v = np.eye(3, 2)
    ch = choi_from_kraus([v])
    assert (ch.d_in, ch.d_out) == (2, 3)
    units = [np.eye(2)[:, [i]] @ np.eye(2)[[j], :] for i in range(2) for j in range(2)]
    oracle = sum(np.kron(e, v @ e @ v.conj().T) for e in units)
    assert np.array_equal(ch.choi.mat, oracle)
    assert validate_channel(ch).ok


def test_amplitude_damping_full_decay_sends_excited_to_ground():
    out = apply_channel(amplitude_damping(1.0), np.diag([0.0, 1.0]))
    assert np.allclose(out.mat, np.diag([1.0, 0.0]))


def test_bit_flip_choi_matches_display():
    p = 0.2
    expected = np.array(
        [
            [1 - p, 0, 0, 1 - p],
            [0, p, p, 0],
            [0, p, p, 0],
            [1 - p, 0, 0, 1 - p],
        ]
    )
    assert np.allclose(bit_flip(p).choi.mat, expected)


def test_pauli_channel_corner_entries():
    p = (0.7, 0.1, 0.1, 0.1)
    c = pauli_channel(p).choi.mat
    assert np.isclose(c[0, 0], p[0] + p[3])
    assert np.isclose(c[0, 3], p[0] - p[3])
    assert np.isclose(c[1, 1], p[1] + p[2])
    assert np.isclose(c[1, 2], p[1] - p[2])


def test_constructor_range_checks():
    with pytest.raises(ValueError):
        amplitude_damping(1.5)
    with pytest.raises(ValueError):
        bit_flip(-0.2)
    with pytest.raises(ValueError):
        pauli_channel((0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValueError):
        dephasing_channel(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PSD


def test_validate_channel_on_families():
    for gamma in (0.0, 0.4, 1.0):
        assert validate_channel(amplitude_damping(gamma)).ok
    assert validate_channel(bit_flip(0.3)).ok
    assert validate_channel(pauli_channel((0.4, 0.3, 0.2, 0.1))).ok


def test_validate_channel_rejects_negative_choi():
    d = 2
    mat = np.eye(d * d) - 2.0 * max_entangled_projector(d).mat / d
    verdict = validate_channel(choi_channel(mat, d, d))
    assert not verdict.is_cp
    assert verdict.min_eigenvalue < -0.5


def test_transpose_map_cp_false_tp_true():
    verdict = validate_channel(transpose_map(2))
    assert not verdict.is_cp and verdict.is_tp
    assert np.isclose(verdict.min_eigenvalue, -1.0)


def test_compose_identity_and_depolarizing():
    f = random_channel(rng, 3)
    assert np.allclose(compose_channels(f, identity_channel(3)).choi.mat, f.choi.mat)
    assert np.allclose(compose_channels(identity_channel(3), f).choi.mat, f.choi.mat)
    dd = compose_channels(depolarizing(3), depolarizing(3))
    assert np.allclose(dd.choi.mat, depolarizing(3).choi.mat)


def test_compose_matches_pointwise_application():
    f = random_channel(rng, 2, 3)
    g = random_channel(rng, 4, 2)
    comp = compose_channels(f, g)
    assert (comp.d_in, comp.d_out) == (4, 3)
    for _ in range(5):
        rho = random_density(rng, 4)
        via_comp = apply_channel(comp, rho).mat
        via_steps = apply_channel(f, apply_channel(g, rho).mat).mat
        assert np.allclose(via_comp, via_steps, atol=1e-12)
    with pytest.raises(ValueError):
        compose_channels(g, f)


@pytest.mark.parametrize(
    "dims", [(2, 2, 2), (4, 2, 3), (3, 5, 1), (16, 16, 16)], ids=["2-2-2", "4-2-3", "3-5-1", "16-16-16"]
)
def test_compose_channels_matches_the_einsum_contraction(dims):
    d_in, d_mid, d_out = dims
    g = choi_channel(_random_matrix(d_in * d_mid), d_in, d_mid)
    f = choi_channel(_random_matrix(d_mid * d_out), d_mid, d_out)
    ref = np.einsum("kmln,manb->kalb", g.choi4(), f.choi4())  # the former kernel
    ref = ref.reshape(d_in * d_out, d_in * d_out)
    got = compose_channels(f, g).choi.mat
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _random_matrix(side):
    return rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))


def test_unitary_covariant_family():
    assert np.allclose(unitary_covariant(1.0, 3).choi.mat, identity_channel(3).choi.mat)
    assert np.allclose(unitary_covariant(0.0, 3).choi.mat, depolarizing(3).choi.mat)
    for d in (2, 3, 4):
        for lam in (-1.0 / (d * d - 1), 0.3, 1.0):
            assert validate_channel(unitary_covariant(lam, d)).ok
    with pytest.raises(ValueError):
        unitary_covariant(1.1, 2)
    with pytest.raises(ValueError):
        unitary_covariant(-1.0 / 3 - 1e-6, 2)


def test_conjugate_covariant_family():
    for d in (2, 3, 4):
        for mu in (-1.0 / (d - 1), 0.0, 1.0 / (d + 1)):
            assert validate_channel(conjugate_covariant(mu, d)).ok
    with pytest.raises(ValueError):
        conjugate_covariant(1.0 / 3 + 1e-6, 2)
    with pytest.raises(ValueError):
        conjugate_covariant(-1.0 - 1e-6, 2)


def test_holevo_werner_choi_and_validity():
    for d in (2, 3, 4):
        hw = holevo_werner(d)
        expected = (np.eye(d * d) - swap_operator(d).mat) / (d - 1)
        assert np.allclose(hw.choi.mat, expected)
        assert validate_channel(hw).ok
        # equals the extreme conjugate-covariant member
        assert np.allclose(hw.choi.mat, conjugate_covariant(-1.0 / (d - 1), d).choi.mat)


def test_orthogonal_covariant_family():
    # spectral oracle: CP whenever the two stated inequalities hold
    oracle_hits = 0
    for _ in range(200):
        alpha, beta = rng.uniform(-1, 2), rng.uniform(-1, 1)
        d = int(rng.integers(2, 5))
        stated = alpha >= d * abs(beta) and d * (1 - alpha - beta) + alpha / d + beta >= 0
        try:
            ch = orthogonal_covariant(alpha, beta, d)
            built = True
        except ValueError:
            built = False
        assert built == stated
        if built:
            oracle_hits += 1
            assert is_psd(ch.choi.mat)
    assert oracle_hits > 10


def test_du_channel_identity_and_validation():
    params = du_identity_channel_params(3)
    assert np.allclose(table_channel(params).choi.mat, identity_channel(3).choi.mat)
    verdict = table_channel_validate(params)
    assert verdict.ok and verdict.is_cp and verdict.is_tp


def test_amplitude_damping_is_du_channel():
    gamma = 0.35
    s = np.sqrt(1 - gamma)
    params = DUChannelParams(
        2,
        np.array([[1.0, gamma], [0.0, 1 - gamma]]),
        np.array([[0.0, s], [s, 0.0]], dtype=complex),
    )
    assert np.allclose(table_channel(params).choi.mat, amplitude_damping(gamma).choi.mat)
    assert table_channel_validate(params).ok


def test_dephasing_channel_is_du_channel_with_identity_table():
    m = random_covariance_matrix(rng, 3)
    b = np.array(m)
    np.fill_diagonal(b, 0.0)
    params = DUChannelParams(3, np.eye(3), b)
    assert np.allclose(table_channel(params).choi.mat, dephasing_channel(m).choi.mat)


def test_du_channel_cp_closed_form_matches_spectral_oracle():
    for d in (2, 3):
        for _ in range(100):
            a = rng.normal(size=(d, d)) + 0.5
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            b = (g + g.conj().T) / 2
            np.fill_diagonal(b, 0.0)
            params = DUChannelParams(d, a, b)
            closed = table_channel_validate(params).is_cp
            spectral = is_psd(table_channel(params).choi.mat)
            assert closed == spectral


def test_du_channel_compose_matches_choi_composition():
    for d in (2, 3):
        for _ in range(50):
            p = _random_du_channel_params(d)
            q = _random_du_channel_params(d)
            combined = compose_tables(p, q)
            direct = compose_channels(table_channel(p), table_channel(q))
            assert np.abs(table_channel(combined).choi.mat - direct.choi.mat).max() <= 1e-12


def _random_du_channel_params(d):
    a = rng.dirichlet(np.ones(d), size=d).T  # column stochastic
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = (g + g.conj().T) / 2
    np.fill_diagonal(b, 0.0)
    return DUChannelParams(d, a, 0.3 * b)


def test_du_channel_compose_identity_and_dephasings():
    d = 3
    p = _random_du_channel_params(d)
    unit = du_identity_channel_params(d)
    assert np.allclose(compose_tables(p, unit).A, p.A)
    assert np.allclose(compose_tables(p, unit).B, p.B)
    m1 = random_covariance_matrix(rng, d)
    m2 = random_covariance_matrix(rng, d)
    out = compose_channels(dephasing_channel(m1), dephasing_channel(m2))
    assert np.allclose(out.choi.mat, dephasing_channel(m1 * m2).choi.mat)


def test_conj_du_channel_closed_form():
    d = 3
    a = np.abs(rng.normal(size=(d, d))) + 0.1
    c = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            c[i, j] = 0.9 * np.sqrt(a[i, j] * a[j, i]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            c[j, i] = np.conj(c[i, j])
    params = ConjDUChannelParams(d, a, c)
    assert table_channel_validate(params).is_cp
    assert is_psd(table_channel(params).choi.mat)
    # violating the pair condition breaks positivity
    c_bad = 5.0 * c
    bad = ConjDUChannelParams(d, a, c_bad)
    assert not table_channel_validate(bad).is_cp
    assert not is_psd(table_channel(bad).choi.mat)


def test_do_channel_closed_form_matches_spectral():
    d = 3
    for _ in range(50):
        a = np.abs(rng.normal(size=(d, d)))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = 0.4 * (g + g.conj().T) / 2
        np.fill_diagonal(b, 0.0)
        g2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        c = 0.4 * (g2 + g2.conj().T) / 2
        np.fill_diagonal(c, 0.0)
        params = DOChannelParams(d, a, b, c)
        assert table_channel_validate(params).is_cp == is_psd(table_channel(params).choi.mat)


def test_classical_channel_extract():
    assert np.array_equal(classical_channel_extract(identity_channel(3)), np.eye(3))
    gamma = 0.25
    s = classical_channel_extract(amplitude_damping(gamma))
    assert np.allclose(s, [[1.0, gamma], [0.0, 1 - gamma]])
    assert np.allclose(classical_channel_extract(depolarizing(4)), np.full((4, 4), 0.25))
    # column stochastic for random channels
    for _ in range(10):
        s = classical_channel_extract(random_channel(rng, 3))
        assert np.allclose(s.sum(axis=0), 1.0, atol=1e-12)
        assert s.min() >= -1e-13


def test_apply_channel_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_channel(identity_channel(2), np.eye(3))


# ---------------------------------------------------------------------------
# the channel tables on the shared position map, against the per-entry loops
# ---------------------------------------------------------------------------

CHANNEL_FAMILIES = [
    (DUChannelParams, table_channel, "AB"),
    (ConjDUChannelParams, table_channel, "AC"),
    (DOChannelParams, table_channel, "ABC"),
]


def _plant_negative_zeros(x):
    """x with -0.0 in a random share of its real (and imaginary) parts."""
    x = np.array(x)
    parts = x.view(float)  # x itself, or its interleaved real and imaginary parts
    parts[rng.random(parts.shape) < 0.3] = -0.0
    return x


def _channel_tables(d, names):
    """Random tables, zero on the diagonal where the support excludes it, with
    -0.0 planted inside the support and, on the diagonal, outside it."""
    off = ~np.eye(d, dtype=bool)
    tables = {"A": _plant_negative_zeros(rng.normal(size=(d, d)))}
    for name in names[1:]:
        t = _plant_negative_zeros(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        tables[name] = np.where(off, t, complex(-0.0, -0.0))
    return tables


def _positive_zeros(x):
    """x with every -0.0 part turned to +0.0, as a scatter-add into zeros leaves it."""
    parts = x.view(float)
    return np.where(parts == 0, 0.0, parts).view(complex)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cls, build, names", CHANNEL_FAMILIES, ids=["duc", "cduc", "doc"])
def test_channel_map_is_bit_identical_to_the_per_entry_loops(d, cls, build, names):
    tables = _channel_tables(d, names)
    params = cls(d, **tables)
    choi = build(params).choi.mat
    ref = loop_channel_choi(d, tables["A"], tables.get("B"), tables.get("C"))
    # scatter-add turns a -0.0 table entry into +0.0; every other bit agrees
    assert choi.tobytes() == _positive_zeros(ref).tobytes()

    # extraction is a gather, so it keeps -0.0; A and C are P and R transposed
    mat = _plant_negative_zeros(rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d)))
    t = tables_from_choi(mat, d, DOChannelParams)
    p_ref, q_ref, r_ref, off_ref = loop_do_pattern_split(mat.reshape(d, d, d, d))
    assert t["A"].tobytes() == np.ascontiguousarray(p_ref.T).tobytes()
    assert t["B"].tobytes() == q_ref.tobytes()
    assert t["C"].tobytes() == np.ascontiguousarray(r_ref.T).tobytes()
    assert off_pattern_weight(mat, d, DOChannelParams) == off_ref


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_pair_violation_matches_the_loop(d):
    for scale in (0.5, 2.0):
        a = np.abs(rng.normal(size=(d, d)))
        c = scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        c = np.where(np.eye(d, dtype=bool), 0.0, (c + c.conj().T) / 2)
        got = table_channel_validate(ConjDUChannelParams(d, a, c)).pair_violation
        ref = loop_pair_violation(a, c)
        # |C_ij| rounds differently for an array than for a scalar
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("cls, build, names", CHANNEL_FAMILIES, ids=["duc", "cduc", "doc"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["A", "second"])
def test_channel_tables_reject_non_finite_entries(cls, build, names, bad, where):
    d = 2
    tables = {name: np.zeros((d, d)) for name in names}
    name = "A" if where == "A" else names[1]
    tables[name][0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cls(d, **tables)


def test_parameter_classes_copy_and_freeze_their_tables():
    from superchan.dephasing import DephasingSuperParams
    from superchan.do import DOSuperParams
    from superchan.du import DUSuperParams

    for cls, d, names in ((DUChannelParams, 2, "AB"), (ConjDUChannelParams, 2, "AC"),
                          (DOChannelParams, 2, "ABC"), (DUSuperParams, 2, "ABCD"),
                          (DOSuperParams, 2, DOSuperParams.NAMES),
                          (DephasingSuperParams, 2, ("M_big",))):
        side = d if cls.__module__.endswith("channels") else d * d
        given = {n: np.zeros((side, side), dtype=float if n == "A" else complex) for n in names}
        p = cls(d, **given)
        for n in names:
            assert given[n].flags.writeable and not getattr(p, n).flags.writeable
            given[n][0, 0] = 1.0  # the caller's array stays theirs
            assert getattr(p, n)[0, 0] == 0


@pytest.mark.parametrize("d", [0, -1])
def test_parameter_classes_reject_a_dimension_below_one(d):
    from superchan.dephasing import DephasingSuperParams
    from superchan.do import DOSuperParams
    from superchan.du import DUSuperParams

    for cls in (DUChannelParams, ConjDUChannelParams, DOChannelParams, DUSuperParams,
                DOSuperParams, DephasingSuperParams):
        with pytest.raises(ValueError, match=f"dimension d must be positive, got {d}"):
            cls(d, **{n: np.zeros((1, 1)) for n in cls.NAMES})
        with pytest.raises(ValueError, match=f"dimension d must be positive, got {d}"):
            cls.masked(d)


def test_closed_form_b_psd_uses_the_scale_of_the_choi():
    # the Hermiticity slack of the {ii} block scales with its largest entry,
    # here A's diagonal, as it does for the whole Choi; and so does that of
    # a pair block, where a defect of 1e-9 in C is large beside C's own
    # largest entry but within tol * 100
    a = 100.0 * np.eye(2)
    b = np.array([[0, 0], [1e-9, 0]], dtype=complex)
    ones, c, zero = 100.0 * np.ones((2, 2)), b.T, np.zeros((2, 2))
    for params in (DUChannelParams(2, a, b), DOChannelParams(2, a, b, zero),
                   ConjDUChannelParams(2, ones, c), DOChannelParams(2, ones, zero, c)):
        assert validate_channel(table_channel(params)).is_cp
        v = table_channel_validate(params)
        assert v.is_cp and v.b_psd and v.pair_condition
    # beyond tol * 100 a defect fails the readout of its own sector alone
    for params, b_ok in ((DOChannelParams(2, ones, 1e3 * b, zero), False),
                         (DOChannelParams(2, ones, zero, 1e3 * c), True)):
        assert not validate_channel(table_channel(params)).is_cp
        v = table_channel_validate(params)
        assert not v.is_cp and v.a_nonnegative and (v.b_psd, v.pair_condition) == (b_ok, not b_ok)


def test_closed_forms_judge_a_and_the_pair_condition_on_the_scale_of_the_choi():
    # roundoff-sized violations on large tables: the Choi check accepts both
    # and so do the closed forms, whose readouts stay unscaled
    p = DUChannelParams(2, np.array([[1e4, -1e-9], [0.0, 1e4]]), np.zeros((2, 2)))
    v = table_channel_validate(p)
    assert validate_channel(table_channel(p)).is_cp
    assert v.a_nonnegative and v.is_cp and v.min_a_entry == -1e-9
    c = (100 + 1e-9) * (np.ones((2, 2)) - np.eye(2))
    q = ConjDUChannelParams(2, 100.0 * np.ones((2, 2)), c)
    v = table_channel_validate(q)
    assert validate_channel(table_channel(q)).is_cp
    assert v.pair_condition and v.is_cp and v.pair_violation > 1e-7
    # a violation beyond tol * spectral radius still fails
    p = DUChannelParams(2, np.array([[1e4, -1e-5], [0.0, 1e4]]), np.zeros((2, 2)))
    assert not table_channel_validate(p).a_nonnegative
    assert not validate_channel(table_channel(p)).is_cp
    q = ConjDUChannelParams(2, 100.0 * np.ones((2, 2)), (100 + 1e-6) * (1 - np.eye(2)))
    assert not table_channel_validate(q).pair_condition
    assert not validate_channel(table_channel(q)).is_cp


def test_closed_forms_have_no_unscaled_pair_arm_and_judge_b_on_the_choi_scale():
    # |C_ij| = 1e-6 where A_ij A_ji = 0: the Choi has eigenvalue -1e-6
    q = ConjDUChannelParams(2, np.eye(2), 1e-6 * (np.ones((2, 2)) - np.eye(2)))
    assert validate_channel(table_channel(q)).min_eigenvalue < -9e-7
    assert not table_channel_validate(q).pair_condition
    assert not table_channel_validate(q).is_cp
    # a diagonal A entry of -5e-9 is roundoff on a Choi of spectral radius 1e3
    p = DUChannelParams(2, np.array([[1, 1e3], [0, -5e-9]]), np.zeros((2, 2)))
    assert validate_channel(table_channel(p)).is_cp
    v = table_channel_validate(p)
    assert v.b_psd and v.is_cp and v.b_min_eigenvalue == -5e-9


def test_closed_forms_agree_with_the_choi_check_at_the_boundary():
    """Tables of scale 1..1e4 with one A entry or every C pair off by about
    tol * scale, either way; then the same with a Hermiticity defect of about
    tol * scale in one entry of B and of C, half of them with C otherwise
    zero: the closed forms and validate_channel agree, and is_cp is the
    conjunction of the three readouts."""
    for seed, defect in ((23, False), (29, True)):
        r = np.random.default_rng(seed)
        for t in range(300):
            d = int(r.integers(2, 5))
            scale = 10 ** r.uniform(0, 4)
            a = (0.5 + r.random((d, d))) * scale
            if t % 2:
                i, j = r.choice(d, 2, replace=False)
                a[i, j] = -DEFAULT_TOL * scale * 10 ** r.uniform(-1, 1)
            c = np.sqrt(np.clip(a * a.T, 0, None)) * np.exp(1j * r.uniform(0, 2 * np.pi, (d, d)))
            c = np.triu(c, 1)
            c = (c + c.conj().T) * (1 + DEFAULT_TOL * 10 ** r.uniform(-1, 1) * r.choice([-1, 1]))
            b = np.zeros((d, d), dtype=complex)
            if defect:  # one entry without its conjugate partner, in B and in C
                c *= t % 4 < 2
                for x in (b, c):
                    i, j = r.choice(d, 2, replace=False)
                    x[i, j] += (DEFAULT_TOL * scale * 10 ** r.uniform(-2, 1)
                                * np.exp(1j * r.uniform(0, 2 * np.pi)))
            params = (DUChannelParams(d, a, b), ConjDUChannelParams(d, a, c),
                      DOChannelParams(d, a, b, c))[t % 3]
            v = table_channel_validate(params)
            assert v.is_cp == validate_channel(table_channel(params)).is_cp
            assert v.is_cp == (v.a_nonnegative and v.b_psd and v.pair_condition)


@pytest.mark.parametrize("cls, build, names", CHANNEL_FAMILIES, ids=["duc", "cduc", "doc"])
def test_channel_tables_reject_weight_off_their_support(cls, build, names):
    d = 3
    tables = {name: np.zeros((d, d)) for name in names}
    tables[names[1]][1, 1] = 0.5
    with pytest.raises(ValueError, match="outside its support"):
        cls(d, **tables)
    with pytest.raises(ValueError, match="must be 3x3"):
        cls(d, **{**tables, "A": np.zeros((2, 2))})


def test_classical_extract_and_dephasing_choi_match_the_loops():
    for d_in, d_out in ((1, 1), (2, 3), (3, 2), (4, 4)):
        ch = random_channel(rng, d_in, d_out)
        assert classical_channel_extract(ch).tobytes() == loop_classical_channel_extract(ch).tobytes()
    for d in (1, 2, 3, 5):
        m = random_covariance_matrix(rng, d)
        assert dephasing_channel(m).choi.mat.tobytes() == loop_dephasing_choi(m).tobytes()
