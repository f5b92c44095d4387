"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; tolerances
are pinned here and nowhere else.  The timed criteria (01 and 03) read
time.thread_time, the CPU time of the calling thread: other processes on the
host do not move it, nor do BLAS worker threads spinning while they wait, as
they move the wall clock and time.process_time.  Their work is numpy calls
on small matrices, done in the calling thread.
"""

import time

import numpy as np

from superchan.channels import (
    DOChannelParams,
    DUChannelParams,
    amplitude_damping,
    bit_flip,
    dephasing_channel,
    pauli_channel,
)
from superchan.covariance import (
    UUFamilyParams,
    holevo_werner_superchannel,
    superchannel_covariance_check,
    uu_cp_closed_form,
    uu_superchannel,
)
from superchan.dephasing import (
    DephasingSuperParams,
    dephasing_from_realization,
    dephasing_validate,
)
from superchan.do import DOSuperParams
from superchan.du import (
    DUSuperParams,
    build_choi,
    du_cp_check,
    du_tp_check,
    from_choi,
)
from superchan.linalg import is_psd
from superchan.positions import compose_tables, composition_plan
from superchan.pauli import (
    PauliSuperParams,
    bell_weights,
    pauli_apply,
    pauli_du_check,
    pauli_induced_bistochastic,
    pauli_super_choi,
)
from superchan.superchannels import (
    SuperChoi,
    apply_to_channel,
    classical_superchannel_extract,
    compose_superchannels,
    sandwich_superchannel,
    tp_preserving_check,
    validate_superchannel,
)

from helpers import (
    du_extraction_ok,
    full_eigvalsh_psd,
    haar_unitary,
    random_hermitian_du_params,
    random_realization,
    random_covariance_matrix,
    random_doc_params,
    random_valid_du_params,
    random_valid_superchoi,
    scatter_doc_action,
    unitary_conjugation,
    uu_shared_spectra,
)
from test_du import PATTERN_D2, SENTINELS as DU_SENTINELS
from test_do import PATTERN_DO_D2, SENTINELS as DO_SENTINELS
from test_pauli import expected_blocks


def record(n: int, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {n:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def mixed_hermitian_corpus(rng, d, count):
    """Half raw Hermitian draws, half PSD-projected (so both verdicts occur)."""
    out = []
    for k in range(count):
        p = random_hermitian_du_params(rng, d)
        if k % 2:
            evals, vecs = np.linalg.eigh(build_choi(p).mat)
            psd = (vecs * np.clip(evals, 0.0, None)) @ vecs.conj().T
            p = from_choi(SuperChoi((d, d, d, d), psd), tol=1e-8)
        out.append(p)
    return out


def mixed_tp_corpus(rng, d, count):
    """Half raw draws, half with the trace-preservation structure built in."""
    out = []
    for k in range(count):
        if k % 2 == 0:
            out.append(random_hermitian_du_params(rng, d))
        else:
            alpha = rng.dirichlet(np.ones(d), size=d)
            w = rng.dirichlet(np.ones(d), size=d).T
            a = np.einsum("ij,ab->iajb", alpha, w).reshape(d * d, d * d)
            gamma = rng.normal(size=(d, d))
            v = rng.dirichlet(np.ones(d), size=d).T
            c = np.einsum("ij,ab->iajb", gamma, v).reshape(d * d, d * d)
            base = random_hermitian_du_params(rng, d)
            out.append(DUSuperParams.masked(d, a, base.B, c, base.D))
    return out


def test_criterion_01_amplitude_damping_reproduction():
    rng = np.random.default_rng(101)
    param_sets = [random_valid_du_params(rng, 2) for _ in range(3)]
    from superchan.cli import default_du_params

    param_sets.append(default_du_params())
    worst = 0.0
    start = time.thread_time()
    for params in param_sets:
        a4, d4 = params.t4("A"), params.t4("D")
        for gamma in (0.0, 0.3, 1.0):
            root = np.sqrt(1.0 - gamma)
            out = apply_to_channel(params, amplitude_damping(gamma)).mat
            a_vals = [
                a4[i, a, 0, 0] + a4[i, a, 1, 0] * gamma + a4[i, a, 1, 1] * (1 - gamma)
                for (i, a) in ((0, 0), (0, 1), (1, 0), (1, 1))
            ]
            expected = np.zeros((4, 4), dtype=complex)
            expected[0, 0], expected[1, 1], expected[2, 2], expected[3, 3] = a_vals
            expected[0, 3] = d4[0, 0, 1, 1] * root
            expected[3, 0] = d4[1, 1, 0, 0] * root
            worst = max(worst, float(np.abs(out - expected).max()))
            worst = max(worst, abs(a_vals[0] + a_vals[1] - 1.0))
            worst = max(worst, abs(a_vals[2] + a_vals[3] - 1.0))
    elapsed = time.thread_time() - start
    record(
        1,
        worst <= 1e-12 and elapsed < 0.1,
        f"max deviation {worst:.2e}, elapsed {elapsed * 1e3:.1f} ms",
    )


def test_criterion_02_bit_flip_and_pauli_reproduction():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(3):
        params = random_valid_du_params(rng, 2)
        a4, d4 = params.t4("A"), params.t4("D")

        p = rng.uniform(0.0, 1.0)
        out = apply_to_channel(params, bit_flip(p)).mat
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[2 * i + j, 2 * i + j] = p * (
                    a4[i, j, 0, 1] + a4[i, j, 1, 0]
                ) + (1 - p) * (a4[i, j, 0, 0] + a4[i, j, 1, 1])
        expected[0, 3] = d4[0, 0, 1, 1] * (1 - p)
        expected[3, 0] = d4[1, 1, 0, 0] * (1 - p)
        expected[1, 2] = d4[0, 1, 1, 0] * p
        expected[2, 1] = d4[1, 0, 0, 1] * p
        worst = max(worst, float(np.abs(out - expected).max()))

        q = rng.dirichlet(np.ones(4))
        out = apply_to_channel(params, pauli_channel(q)).mat
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[2 * i + j, 2 * i + j] = (
                    a4[i, j, 0, 0] + a4[i, j, 1, 1]
                ) * (q[0] + q[3]) + (a4[i, j, 0, 1] + a4[i, j, 1, 0]) * (q[1] + q[2])
        expected[0, 3] = d4[0, 0, 1, 1] * (q[0] - q[3])
        expected[3, 0] = d4[1, 1, 0, 0] * (q[0] - q[3])
        expected[1, 2] = d4[0, 1, 1, 0] * (q[1] - q[2])
        expected[2, 1] = d4[1, 0, 0, 1] * (q[1] - q[2])
        worst = max(worst, float(np.abs(out - expected).max()))
    record(2, worst <= 1e-12, f"max entrywise deviation {worst:.2e}")


def test_criterion_03_cp_closed_form_equivalence():
    rng = np.random.default_rng(103)
    start = time.thread_time()
    agree = total = 0
    for d in (2, 3):
        for p in mixed_hermitian_corpus(rng, d, 200):
            verdict = du_cp_check(p, tol=1e-10)
            independent = full_eigvalsh_psd(build_choi(p).mat, tol=1e-10)
            agree += verdict.closed_form == independent
            total += 1
    elapsed = time.thread_time() - start
    record(
        3,
        agree == total and elapsed < 5.0,
        f"{agree}/{total} agreements, elapsed {elapsed:.2f} s",
    )


def test_criterion_04_tp_closed_form_equivalence():
    rng = np.random.default_rng(104)
    agree = total = 0
    for d in (2, 3):
        for p in mixed_tp_corpus(rng, d, 200):
            params_ok = du_tp_check(p, tol=1e-10).ok
            choi_ok = tp_preserving_check(build_choi(p), tol=1e-10).ok
            agree += params_ok == choi_ok
            total += 1
    record(4, agree == total, f"{agree}/{total} agreements")


def test_criterion_05_composition_rule():
    rng = np.random.default_rng(105)
    worst = 0.0
    witness = None
    for d in (2, 3):
        for _ in range(50):
            p = random_hermitian_du_params(rng, d)
            q = random_hermitian_du_params(rng, d)
            lhs = build_choi(compose_tables(p, q)).mat
            rhs = compose_superchannels(build_choi(p), build_choi(q)).mat
            dev = float(np.abs(lhs - rhs).max())
            if dev > worst:
                worst, witness = dev, (p, q)
    ok = worst <= 1e-10
    detail = f"100 pairs, max deviation {worst:.2e}"
    if not ok and witness is not None:
        # print both parameter tensors for the failing pair, as required
        p, q = witness
        for name, params in (("first", p), ("second", q)):
            print(f"--- {name} operand tables ---")
            for t in "ABCD":
                print(t, getattr(params, t))
    record(5, ok, detail)


def test_criterion_06_unitary_family_inequalities():
    rng = np.random.default_rng(106)
    agree = total = 0
    witness = None
    for variant in ("covariant", "conjugate", "mixed"):
        for d in (2, 3, 4):
            spectra = uu_shared_spectra(variant, d)
            for _ in range(1000):
                while True:
                    p = rng.uniform(-0.75, 1.25, size=4)
                    if abs(p.sum()) > 0.2:
                        break
                params = UUFamilyParams(variant, *(p / p.sum()), d)
                closed = uu_cp_closed_form(params, tol=1e-10)
                # the spectrum in the shared basis agrees with eigvalsh's to
                # about 1e-12, so only a verdict within 1e-9 of the threshold
                # needs the full eigensolve
                evals = params.p @ spectra
                scale = max(1.0, float(np.abs(evals).max()))
                if abs(float(evals.min()) + 1e-10 * scale) > 1e-9 * scale:
                    spectral = float(evals.min()) >= -1e-10 * scale
                else:
                    spectral = is_psd(uu_superchannel(params).mat.real, tol=1e-10)
                if closed != spectral and witness is None:
                    witness = (variant, d, params.p)
                agree += closed == spectral
                total += 1
    hw_ok = all(
        validate_superchannel(holevo_werner_superchannel(d), tol=1e-10).ok
        for d in (2, 3)
    )
    detail = f"{agree}/{total} agreements, extreme conjugate family valid: {hw_ok}"
    if witness is not None:
        detail += f"; first disagreeing weights: {witness}"
    record(6, agree == total and hw_ok, detail)


def test_criterion_07_covariance_suites():
    rng = np.random.default_rng(107)
    tol = 1e-10
    devs = {}

    for variant, group in (
        ("covariant", "haar"),
        ("conjugate", "conj-haar"),
        ("mixed", "mixed"),
    ):
        params = UUFamilyParams(variant, 0.05, 0.15, 0.1, 0.7, 3)
        v = superchannel_covariance_check(
            uu_superchannel(params), group, seed=7, n=50, tol=tol
        )
        devs[f"uu-{variant}"] = v.max_deviation

    for d in (2, 3):
        v = superchannel_covariance_check(
            build_choi(random_hermitian_du_params(rng, d)), "du", n=50, seed=11, tol=tol
        )
        devs[f"du-d{d}"] = v.max_deviation

    do_params = DOSuperParams.masked(
        2,
        **{
            n: rng.normal(size=(4, 4)) + (0 if n == "A" else 1j) * rng.normal(size=(4, 4))
            for n in DOSuperParams.NAMES
        },
    )
    v = superchannel_covariance_check(
        build_choi(do_params), "do", seed=13, n=50, tol=tol
    )
    devs["do"] = v.max_deviation

    deph = dephasing_from_realization(*random_realization(rng, 2, 3))
    v = superchannel_covariance_check(
        build_choi(deph), "du", seed=17, n=50, tol=tol
    )
    devs["dephasing"] = v.max_deviation

    pauli = PauliSuperParams(rng.dirichlet(np.ones(16)).reshape(4, 4))
    v = superchannel_covariance_check(
        pauli_super_choi(pauli), "do", seed=19, n=50, tol=tol
    )
    devs["pauli"] = v.max_deviation

    positive_ok = all(dev <= tol for dev in devs.values())

    negative = sandwich_superchannel(
        unitary_conjugation(haar_unitary(rng, 2)),
        unitary_conjugation(haar_unitary(rng, 2)),
    )
    v = superchannel_covariance_check(
        negative, "du", seed=23, n=50, tol=tol
    )
    negative_ok = v.max_deviation > 1e-3

    worst = max(devs.values())
    record(
        7,
        positive_ok and negative_ok,
        f"worst family deviation {worst:.2e}, negative control {v.max_deviation:.2e}",
    )


def test_criterion_08_pauli_pipeline():
    rng = np.random.default_rng(108)
    validity_ok = bistochastic_ok = oracle_ok = agreement_ok = True
    EPS = 1e-14

    def du_tied(rng):
        raw = rng.dirichlet(np.ones(16)).reshape(4, 4)
        raw[:, 1] = raw[:, 2] = (raw[:, 1] + raw[:, 2]) / 2
        tied = (raw[1, :] + raw[2, :]) / 2
        raw[1, :] = raw[2, :] = tied
        return PauliSuperParams(raw / raw.sum())

    cases = [PauliSuperParams(rng.dirichlet(np.ones(16)).reshape(4, 4)) for _ in range(85)]
    cases += [du_tied(rng) for _ in range(14)]
    cases.append(PauliSuperParams(np.full((4, 4), 1 / 16)))
    for p in cases:
        s = pauli_super_choi(p)
        validity_ok &= validate_superchannel(s, tol=1e-10).ok
        m = pauli_induced_bistochastic(p)
        total = p.pi.sum()
        bistochastic_ok &= np.abs(m.sum(axis=0) - total).max() <= EPS
        bistochastic_ok &= np.abs(m.sum(axis=1) - total).max() <= EPS
        weights = rng.dirichlet(np.ones(4))
        q = pauli_apply(p, weights)
        oracle = bell_weights(apply_to_channel(s, pauli_channel(weights)))
        oracle_ok &= np.abs(q - oracle).max() <= 1e-14
        constraint = pauli_du_check(p, tol=1e-10)
        sampled = superchannel_covariance_check(
            s, "du", seed=29, n=50, tol=1e-10
        )
        agreement_ok &= constraint.ok == du_extraction_ok(s, 1e-10) == sampled.ok
    record(
        8,
        validity_ok and bistochastic_ok and oracle_ok and agreement_ok,
        f"validity {validity_ok}, bistochastic {bistochastic_ok}, "
        f"bell oracle {oracle_ok}, three-way {agreement_ok}",
    )


def test_criterion_09_dephasing_pipeline():
    rng = np.random.default_rng(109)
    validity_ok = True
    dual_ok = True
    closure_ok = True
    count = 0
    for d, e in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        for _ in range(20):
            count += 1
            p = dephasing_from_realization(*random_realization(rng, d, e))
            validity_ok &= dephasing_validate(p).ok
            m_chan = random_covariance_matrix(rng, d)
            # the action on the dephasing channel's DUC tables: its B table and
            # A's diagonal are the transformed covariance matrix
            q = compose_tables(p, DUChannelParams(
                d, np.diag(m_chan.diagonal().real), m_chan * (1 - np.eye(d))))
            out = q.B + np.diag(np.diagonal(q.A))
            c4 = apply_to_channel(p, dephasing_channel(m_chan)).choi4()
            schur_m = np.array([[c4[i, i, j, j] for j in range(d)] for i in range(d)])
            dual_ok &= np.abs(out - schur_m).max() <= 1e-14
    for d in (2, 3):
        p1 = dephasing_from_realization(*random_realization(rng, d, 3))
        p2 = dephasing_from_realization(*random_realization(rng, d, 2))
        composed = compose_tables(from_choi(build_choi(p1)), from_choi(build_choi(p2)))
        product = from_choi(build_choi(DephasingSuperParams(d, p1.M_big * p2.M_big)))
        for name in "ABCD":
            closure_ok &= (
                np.abs(getattr(composed, name) - getattr(product, name)).max() <= 1e-12
            )
    record(
        9,
        validity_ok and dual_ok and closure_ok,
        f"{count} realizations valid: {validity_ok}, dual path: {dual_ok}, "
        f"closure: {closure_ok}",
    )


def test_criterion_10_sign_symmetric_preservation():
    # a DU superchannel maps DOC tables to DOC tables through the paper's
    # displayed maps: A through A, B scaled by D_{mm,nn}, C by D_{nm,mn}
    plan = [t[:3] for t in composition_plan(DUSuperParams, DOChannelParams)]
    maps_ok = plan == [("A", "A", "A"), ("B", "D", "B"), ("C", "D", "C")]
    rng = np.random.default_rng(110)
    worst_off = worst_coeff = 0.0
    for _ in range(50):
        p, q = random_valid_du_params(rng, 2), random_doc_params(rng, 2)
        got = compose_tables(p, q)
        ref, off = scatter_doc_action(p, q)
        worst_off = max(worst_off, off)
        for name in "ABC":
            dev = np.abs(getattr(got, name) - ref[name]).max() / np.abs(ref[name]).max()
            worst_coeff = max(worst_coeff, dev)
    record(
        10,
        maps_ok and worst_off == 0.0 and worst_coeff <= 1e-12,
        f"maps {plan}, off-pattern {worst_off:.2e}, relative deviation {worst_coeff:.2e}",
    )


def test_criterion_11_structural_goldens():
    du_filled = DUSuperParams.masked(2, *(np.full((4, 4), DU_SENTINELS[n]) for n in "ABCD"))
    expected = np.zeros((16, 16), dtype=complex)
    for r, row in enumerate(PATTERN_D2):
        for c, letter in enumerate(row):
            if letter != ".":
                expected[r, c] = DU_SENTINELS[letter]
    du_ok = np.array_equal(build_choi(du_filled).mat, expected)

    do_filled = DOSuperParams.masked(
        2, **{n: np.full((4, 4), DO_SENTINELS[n]) for n in DOSuperParams.NAMES}
    )
    expected = np.zeros((16, 16), dtype=complex)
    for r, row in enumerate(PATTERN_DO_D2):
        for c, letter in enumerate(row):
            if letter != ".":
                expected[r, c] = DO_SENTINELS[letter]
    do_ok = np.array_equal(build_choi(do_filled).mat, expected)

    rng = np.random.default_rng(111)
    blocks_ok = True
    for _ in range(20):
        p = PauliSuperParams(rng.dirichlet(np.ones(16)).reshape(4, 4))
        mat = pauli_super_choi(p).mat
        for (r, c), block in expected_blocks(p.pi).items():
            blocks_ok &= np.abs(mat[4 * r : 4 * r + 4, 4 * c : 4 * c + 4] - block).max() <= 1e-15
    record(
        11,
        du_ok and do_ok and blocks_ok,
        f"four-table grid {du_ok}, nine-table grid {do_ok}, qubit blocks {blocks_ok}",
    )


def test_criterion_12_classical_layer():
    rng = np.random.default_rng(112)
    prop_ok = True
    table_ok = True
    instances = []
    for _ in range(10):
        instances.append(random_valid_superchoi(rng, 2, 2))
        instances.append(random_valid_superchoi(rng, 2, 3))
        instances.append(pauli_super_choi(PauliSuperParams(rng.dirichlet(np.ones(16)).reshape(4, 4))))
        instances.append(build_choi(dephasing_from_realization(*random_realization(rng, 2, 3))))
    for s in instances:
        cs = classical_superchannel_extract(s)
        prop_ok &= cs.fiber_deviation <= 1e-12 and cs.normalization_deviation <= 1e-12
    for d in (2, 3):
        for _ in range(10):
            p = random_valid_du_params(rng, d)
            cs = classical_superchannel_extract(build_choi(p))
            table_ok &= np.abs(cs.T - p.A).max() <= 1e-13
    record(12, prop_ok and table_ok, f"table properties {prop_ok}, equality with stochastic table {table_ok}")
