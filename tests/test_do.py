import numpy as np
import pytest

from superchan import du as du_module, positions
from superchan.covariance import superchannel_covariance_check
from superchan.do import (
    DOSuperParams,
    NotDOCovariantError,
    do_validate,
)
from superchan.du import build_choi, from_choi
from superchan.pauli import PauliSuperParams, pauli_super_choi
from superchan.superchannels import (
    SuperChoi,
    sandwich_superchannel,
    tp_preserving_check,
    validate_superchannel,
)

from helpers import (
    charge_sectors,
    dense_validate_superchannel,
    du_identity,
    from_du_params,
    full_eigvalsh_psd,
    haar_unitary,
    random_hermitian_du_params,
    random_valid_do_params,
    random_valid_du_params,
    sector_psd_report,
    unitary_conjugation,
)

rng = np.random.default_rng(31)

# transcription of the displayed d=2 sparsity grid for the nine-table family
PATTERN_DO_D2 = [
    "A....B....C....D",
    ".A..R......C..S.",
    "..A....BE....P..",
    "...A..R..E..Q...",
    ".R..A......S..C.",
    "B....A....D....C",
    "...R..A..Q..E...",
    "..B....AP....E..",
    "..E....PA....B..",
    "...E..Q..A..R...",
    "C....D....A....B",
    ".C..S......A..R.",
    "...Q..E..R..A...",
    "..P....EB....A..",
    ".S..C......R..A.",
    "D....C....B....A",
]

SENTINELS = dict(zip(DOSuperParams.NAMES, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)))


def random_do_params(d):
    tables = {}
    for name in DOSuperParams.NAMES:
        t = rng.normal(size=(d * d, d * d))
        if name != "A":
            t = t + 1j * rng.normal(size=(d * d, d * d))
        tables[name] = t
    return DOSuperParams.masked(d, **tables)


def test_embedded_du_params_build_identically():
    for d in (2, 3):
        for p in (du_identity(d), random_hermitian_du_params(rng, d)):
            emb = from_du_params(p)
            assert np.array_equal(build_choi(emb).mat, build_choi(p).mat)


def test_sentinel_pattern_matches_displayed_grid():
    filled = DOSuperParams.masked(
        2, **{n: np.full((4, 4), SENTINELS[n]) for n in DOSuperParams.NAMES})
    mat = build_choi(filled).mat
    expected = np.zeros((16, 16), dtype=complex)
    for r, row in enumerate(PATTERN_DO_D2):
        for c, letter in enumerate(row):
            if letter != ".":
                expected[r, c] = SENTINELS[letter]
    assert np.array_equal(mat, expected)


def test_round_trip_exact():
    for d in (2, 3):
        p = random_do_params(d)
        again = from_choi(build_choi(p), tol=1e-9, cls=DOSuperParams)
        for name in DOSuperParams.NAMES:
            assert np.array_equal(getattr(p, name), getattr(again, name)), name


def test_du_within_do_extraction():
    for d in (2, 3):
        p = random_valid_du_params(rng, d)
        extracted = from_choi(build_choi(p), cls=DOSuperParams)
        for name in "ABCD":
            assert np.array_equal(getattr(extracted, name), getattr(p, name))
        for name in ("E", "P", "Q", "R", "S"):
            assert np.abs(getattr(extracted, name)).max() == 0.0


def test_support_masks_enforced():
    d = 2
    bad = np.ones((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        DOSuperParams(
            d,
            np.zeros((4, 4)),
            *(np.zeros((4, 4), dtype=complex) for _ in range(7)),
            bad,  # S must vanish on i == j or a == b
        )


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_tables_rejected(value):
    tables = {name: np.zeros((4, 4)) for name in DOSuperParams.NAMES}
    tables["E"] = np.where(DOSuperParams.masked(2, E=np.ones((4, 4))).E != 0, value, 0)
    with pytest.raises(ValueError, match="non-finite"):
        DOSuperParams(2, **tables)


def test_pauli_superchannel_extracts_with_nonzero_extra_tables():
    pi = rng.dirichlet(np.ones(16)).reshape(4, 4)
    s = pauli_super_choi(PauliSuperParams(pi))
    p = from_choi(s, cls=DOSuperParams)
    extra_weight = sum(np.abs(getattr(p, n)).max() for n in ("E", "P", "Q", "R", "S"))
    assert extra_weight > 1e-3


def test_generic_sandwich_is_rejected():
    s = sandwich_superchannel(
        unitary_conjugation(haar_unitary(rng, 2)),
        unitary_conjugation(haar_unitary(rng, 2)),
    )
    with pytest.raises(NotDOCovariantError):
        from_choi(s, cls=DOSuperParams)


def test_do_covariance_sampling():
    for d in (2, 3):
        p = random_do_params(d)
        s = build_choi(p)
        v = superchannel_covariance_check(s, "do", seed=17, n=50)
        assert v.max_deviation <= 1e-12
        v = superchannel_covariance_check(s, "du", seed=17, n=20)
        assert v.max_deviation > 1e-3


def test_do_validate():
    # embedded valid diagonal-unitary parameters pass
    p = from_du_params(random_valid_du_params(rng, 2))
    assert do_validate(p).ok
    # every Pauli probability table passes
    pi = rng.dirichlet(np.ones(16)).reshape(4, 4)
    assert do_validate(from_choi(pauli_super_choi(PauliSuperParams(pi)), cls=DOSuperParams)).ok
    # generic sentinel tables fail positivity
    assert not do_validate(random_do_params(2)).ok


def hermitian_do_params(d, psd):
    """Random sign-symmetric tables with a Hermitian Choi; with psd=True the
    Choi is projected onto its positive part, which keeps the pattern."""
    m = build_choi(random_do_params(d)).mat
    m = (m + m.conj().T) / 2
    if psd:
        evals, vecs = np.linalg.eigh(m)
        m = (vecs * np.clip(evals, 0.0, None)) @ vecs.conj().T
    return from_choi(SuperChoi((d, d, d, d), m), tol=1e-8, cls=DOSuperParams)


def test_do_validate_matches_dense_generic_validation():
    # sector-spectrum verdicts against the whole-Choi eigensolve, on a corpus
    # of valid, CP-only and indefinite parameter sets
    outcomes = set()
    for d in (2, 3):
        for k in range(30):
            if k % 3 == 0:
                p = from_du_params(random_valid_du_params(rng, d))
            else:
                p = hermitian_do_params(d, psd=k % 3 == 1)
            verdict = do_validate(p)
            dense = validate_superchannel(build_choi(p))
            assert verdict.is_cp == dense.is_cp
            assert verdict.ok == dense.ok
            assert verdict.hermiticity_deviation == dense.hermiticity_deviation
            assert dense.is_cp == full_eigvalsh_psd(build_choi(p).mat)
            outcomes.add((dense.is_cp, verdict.ok))
    assert outcomes == {(True, True), (True, False), (False, False)}


def _replace(p, **tables):
    return DOSuperParams(p.d, **{n: tables.get(n, getattr(p, n)) for n in DOSuperParams.NAMES})


def _do_corpus(gen, d):
    """label -> (tables, expected (is_cp, ok)): valid (twirled and embedded
    DU), not CP, not TP, non-Hermitian (generic and one entry without its
    adjoint partner), indefinite Hermitian, and Hermitian tables shifted by a
    multiple of the identity Choi (table A all ones) so that the minimum
    eigenvalue sits at -c * tol * scale, c in 0.5-0.95 and in 1.05-2."""
    valid = random_valid_do_params(gen, d)
    a = valid.A.copy()
    a[gen.integers(d * d), gen.integers(d * d)] = -gen.uniform(0.02, 0.05)
    out = {
        "valid": (valid, (True, True)),
        "not-cp": (_replace(valid, A=a), (False, False)),
        "not-tp": (_replace(valid, **{n: 1.25 * getattr(valid, n) for n in DOSuperParams.NAMES}),
                   (True, False)),
        "hermitian": (hermitian_do_params(d, psd=False), (False, False) if d > 1 else None),
    }
    if d > 1:  # at d = 1 the Choi is 1 x 1
        e = valid.E.copy()
        e[0, d + 1] += 1e-7j  # E_{00,11} without its adjoint partner
        out["valid-du"] = (from_du_params(random_valid_du_params(gen, d)), (True, True))
        out["non-hermitian"] = (random_do_params(d), (False, False))
        out["noisy"] = (_replace(valid, E=e), (False, False))
    for label, c in (("planted-in", gen.uniform(0.5, 0.95)), ("planted-out", gen.uniform(1.05, 2))):
        p = hermitian_do_params(d, psd=False)
        evals = np.linalg.eigvalsh(build_choi(p).mat)
        t = -evals[0] - c * 1e-10 * max(1.0, evals[-1] - evals[0])
        out[label] = (_replace(p, A=p.A + t), (c < 1, False))
    return out


def _bytes(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_do_validate_matches_the_dense_route_byte_for_byte(d):
    # every report value against validate_superchannel + tp_preserving_check
    # on the assembled Choi, with the spectrum read sector by sector from the
    # assembled Choi by the reference sector_psd_report
    tol = 1e-10
    for label, (p, expected) in _do_corpus(np.random.default_rng(700 + d), d).items():
        s = build_choi(p)
        verdict = do_validate(p, tol)
        dense = dense_validate_superchannel(s, tol)
        tp = tp_preserving_check(s, tol)
        is_psd, min_eig, herm = sector_psd_report(
            s.mat, tol, charge_sectors(d, "unordered"))
        got = {**verdict.report(), **verdict.tp.report()}
        assert got["is_cp"] == is_psd, label
        assert _bytes(got["min_eig"]) == _bytes(min_eig), label
        assert _bytes(got["hermiticity_deviation"]) == _bytes(herm), label
        for key in ("factorization_deviation", "marginal_deviation", "hermiticity_deviation"):
            assert _bytes(got[key]) == _bytes(dense.report()[key]), (label, key)
        assert got["is_tp"] == dense.is_tp, label
        for key, value in tp.report().items():
            assert _bytes(got[key]) == _bytes(value), (label, key)
        assert np.array_equal(verdict.tp.induced.mat, tp.induced.mat), label
        if d <= 3 and herm <= tol:
            assert verdict.is_cp == full_eigvalsh_psd(s.mat, tol), label
        if expected is not None:
            assert (verdict.is_cp, verdict.ok) == expected, label


@pytest.mark.parametrize("d", [1, 2, 3])
def test_do_validate_is_validate_superchannel_on_the_choi(d):
    # one verdict class for both routes: every report and trace-report value
    # equal bit for bit, but the minimum eigenvalue, which the sector and the
    # whole-Choi eigensolves round differently
    tol = 1e-10
    for label, (p, _) in _do_corpus(np.random.default_rng(900 + d), d).items():
        verdict, dense = do_validate(p, tol), validate_superchannel(build_choi(p), tol)
        assert type(verdict) is type(dense)
        assert verdict.ok == dense.ok, label
        for got, want in ((verdict.report(), dense.report()),
                          (verdict.tp.report(), dense.tp.report())):
            assert got.keys() == want.keys()
            for key in got:
                if key == "min_eig":
                    assert abs(got[key] - want[key]) <= 1e-12 * d ** 4, label
                else:
                    assert _bytes(got[key]) == _bytes(want[key]), (label, key)


@pytest.mark.parametrize("d", [8, 12])
def test_do_validate_never_assembles_the_choi(d, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("do_validate assembled the Choi")

    monkeypatch.setattr(positions, "choi_from_tables", refuse)
    monkeypatch.setattr(du_module, "choi_from_tables", refuse)
    monkeypatch.setattr(du_module, "build_choi", refuse)
    # the identity map's Choi has eigenvalues 0 and d^2 and exact marginals
    p = from_du_params(du_identity(d))
    verdict = do_validate(p)
    assert verdict.ok
    assert abs(verdict.min_eigenvalue) <= 1e-12 * d * d
    report = {**verdict.report(), **verdict.tp.report()}
    for key in ("factorization_deviation", "marginal_deviation", "hermiticity_deviation",
                "offdiagonal_leak", "fiber_deviation", "unitality_deviation"):
        assert report[key] == 0.0, key
    a = p.A.copy()
    a[1 * d + 2, 0] = -0.5  # a diagonal Choi entry in a side-4 sector that is otherwise zero
    verdict = do_validate(_replace(p, A=a))
    assert not verdict.is_cp
    assert verdict.min_eigenvalue == -0.5
    scaled = do_validate(_replace(p, **{n: 1.25 * getattr(p, n) for n in DOSuperParams.NAMES}))
    assert scaled.is_cp and not scaled.ok
    assert scaled.marginal_deviation == scaled.tp.unitality_deviation > 0.2
