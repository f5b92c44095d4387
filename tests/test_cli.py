import argparse
import gc
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from superchan import cli, covariance as covariance_module, du as du_module
from superchan import do as do_module, superchannels as superchannels_module
from superchan import jsonio, pauli as pauli_module, positions
from superchan.channels import ChoiChannel, amplitude_damping, bit_flip
from superchan.cli import default_du_params, main
from superchan.dephasing import DephasingSuperParams, dephasing_from_realization
from superchan.du import DUSuperParams, build_choi, du_cp_check, du_tp_check
from superchan.pauli import PauliSuperParams, pauli_super_choi
from superchan.superchannels import SuperChoi, apply_to_channel, compose_superchannels

from helpers import (
    as_lists,
    du_identity,
    from_du_params,
    identity_superchannel,
    pauli_to_json,
    random_channel,
    random_do_params,
    random_hermitian_du_params,
    random_realization,
    random_valid_du_params,
)

rng = np.random.default_rng(47)


@pytest.fixture
def paths(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        jsonio.dump_json(doc, p)
        return str(p)

    return tmp_path, write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def report_value(out, key):
    for line in out.splitlines():
        if line.startswith(f"{key}: "):
            return line.split(": ", 1)[1]
    raise KeyError(key)


def test_default_params_are_valid():
    p = default_du_params()
    assert du_tp_check(p).ok
    assert du_cp_check(p).ok


def test_validate_channel_ok_and_failed(paths, capsys):
    tmp, write = paths
    good = write("good.json", jsonio.channel_to_json(amplitude_damping(0.3)))
    code, out = run_cli(capsys, "validate", "channel", good)
    assert code == 0 and "is_cp: true" in out

    mat = np.eye(4, dtype=complex)
    mat[3, 3] = -0.01
    bad = write("bad.json", jsonio.channel_to_json(ChoiChannel((2, 2), mat)))
    code, out = run_cli(capsys, "validate", "channel", bad)
    assert code == 3
    assert float(report_value(out, "min_eig")) == pytest.approx(-0.01)


def test_validate_du_identity(paths, capsys):
    tmp, write = paths
    path = write("du.json", jsonio.params_to_json(du_identity(2)))
    code, out = run_cli(capsys, "validate", "du", path)
    assert code == 0 and "status: ok" in out


def test_validate_du_with_an_imaginary_a_entry_is_invalid_input(paths, capsys):
    tmp, write = paths
    doc = as_lists(jsonio.params_to_json(du_identity(2)))
    doc["A"]["data"][5] = [1.0, 1e-300]
    path = write("du.json", doc)
    code, out = run_cli(capsys, "validate", "du", path)
    assert code == 2
    assert out == "status: invalid-input\nerror: table A must be real\n"


def test_validate_du_tolerance_boundary_gives_a_verdict(paths, capsys):
    # closed form and oracle used to scale the tolerance differently here
    tmp, write = paths
    p = du_identity(2)
    a = p.A.copy()
    a[0, 3] = -1.5e-10
    path = write("du.json", jsonio.params_to_json(DUSuperParams(2, a, p.B, p.C, p.D)))
    code, out = run_cli(capsys, "validate", "du", path)
    assert code == 0 and "error:" not in out
    assert report_value(out, "cp") == "true"


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_malformed_tolerance_is_invalid_input(paths, capsys, tol):
    tmp, write = paths
    path = write("du.json", jsonio.params_to_json(du_identity(2)))
    code, out = run_cli(capsys, "validate", "du", path, "--tol", tol)
    assert code == 2 and "status: invalid-input" in out
    code, out = run_cli(capsys, "example", "bit-flip", "--tol", tol)
    assert code == 2 and "status: invalid-input" in out


def test_validate_pauli_reports_covariance(paths, capsys):
    tmp, write = paths
    path = write("pauli.json", pauli_to_json(PauliSuperParams(np.full((4, 4), 1 / 16))))
    code, out = run_cli(capsys, "validate", "pauli", path)
    assert code == 0
    assert report_value(out, "du_covariant") == "true"


_ONE_ZERO = [[1 / 8] + [1 / 16] * 3, [1 / 16] * 4, [1 / 16] * 4, [1 / 16] * 3 + [0.0]]


@pytest.mark.parametrize("pi", [
    pytest.param([[1.0, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4], id="identity"),
    pytest.param(_ONE_ZERO, id="one-zero-weight"),
])
def test_validate_pauli_accepts_zero_weights_at_zero_tolerance(tmp_path, capsys, pi):
    # the dense eigensolve read a zero weight as about -2e-16 and failed these
    path = tmp_path / "pi.json"
    path.write_text(json.dumps({"pi": pi}))
    code, out = run_cli(capsys, "validate", "pauli", str(path), "--tol", "0")
    assert code == 0
    assert out.splitlines()[2:8] == [
        "is_cp: true", "is_tp: true", "min_eig: 0.0", "factorization_deviation: 0.0",
        "marginal_deviation: 0.0", "hermiticity_deviation: 0.0"]


def test_validate_pauli_builds_no_choi(paths, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("validate pauli reached the dense route")

    for module, name in ((cli, "pauli_super_choi"), (pauli_module, "pauli_super_choi"),
                         (cli, "validate_superchannel"),
                         (superchannels_module, "validate_superchannel")):
        monkeypatch.setattr(module, name, refuse)
    tmp, write = paths
    path = write("pauli.json", pauli_to_json(PauliSuperParams(np.full((4, 4), 1 / 16))))
    code, out = run_cli(capsys, "validate", "pauli", path)
    assert code == 0 and report_value(out, "min_eig") == "0.25"


def test_apply_pauli_never_reaches_the_dense_route(paths, capsys, monkeypatch):
    tmp, write = paths
    p = PauliSuperParams(rng.dirichlet(np.ones(16)).reshape(4, 4))
    ch = random_channel(rng, 2)
    dense = apply_to_channel(pauli_super_choi(p), ch).mat  # before the patches

    def refuse(*args, **kwargs):
        raise AssertionError("apply pauli reached the dense route")

    for module, name in ((cli, "pauli_super_choi"), (pauli_module, "pauli_super_choi"),
                         (cli, "representing_apply"),
                         (superchannels_module, "representing_apply")):
        monkeypatch.setattr(module, name, refuse, raising=False)  # cli holds no representing_apply
    out_path = tmp / "out.json"
    code, _ = run_cli(capsys, "apply", write("pauli.json", pauli_to_json(p)),
                      write("c.json", jsonio.channel_to_json(ch)), "--out", str(out_path))
    assert code == 0
    written = jsonio.channel_from_json(json.loads(out_path.read_text()))
    assert np.abs(written.mat - dense).max() <= 1e-15


def test_apply_pauli_names_wrong_channel_dims(paths, capsys):
    # the dense route's text, which the parent printed for the same files
    tmp, write = paths
    sup = write("pauli.json", pauli_to_json(PauliSuperParams(np.full((4, 4), 1 / 16))))
    chan = write("c.json", jsonio.channel_to_json(random_channel(rng, 3)))
    assert run_cli(capsys, "apply", sup, chan) == (2, "status: invalid-input\nerror: channel "
                                                   "dims (3, 3) do not match superchannel "
                                                   "input pair (2, 2)\n")


def test_paths_name_the_files_pathlib_names(paths, capsys, monkeypatch):
    # a trailing slash is dropped, on reading and on writing, and "" reads as "."
    tmp, write = paths
    sup = write("pauli.json", pauli_to_json(PauliSuperParams(np.full((4, 4), 1 / 16))))
    chan = write("c.json", jsonio.channel_to_json(bit_flip(0.1)))
    out_path = tmp / "out.json"
    code, out = run_cli(capsys, "apply", f"{sup}/", f"{chan}/", "--out", f"{out_path}/")
    assert code == 0 and out.endswith(f"wrote: {out_path}/\n")
    assert jsonio.load_json(out_path) == jsonio.load_json(f"{out_path}/")
    monkeypatch.chdir(tmp)
    assert run_cli(capsys, "validate", "pauli", "") == (
        2, "status: invalid-input\nerror: [Errno 21] Is a directory: '.'\n")


_PI_ROWS = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]  # JSON integers are numbers


@pytest.mark.parametrize("pi", [
    pytest.param(_PI_ROWS, id="integers"),
    pytest.param([["1", 0, 0, 0], *_PI_ROWS[1:]], id="string-entry"),
    pytest.param([[True, False, False, False], *_PI_ROWS[1:]], id="boolean-entry"),
    pytest.param([[1, 0, 0, 0], [0, 0, 0], *_PI_ROWS[2:]], id="ragged"),
])
def test_validate_pauli_reads_numbers_only(tmp_path, capsys, pi):
    # a string or a boolean used to convert to 1.0, and such a table read ok
    path = tmp_path / "pi.json"
    path.write_text(json.dumps({"pi": pi}))
    code, out = run_cli(capsys, "validate", "pauli", str(path))
    if pi is _PI_ROWS:
        assert code == 0 and report_value(out, "du_covariant") == "true"
    else:
        assert code == 2
        assert out == "status: invalid-input\nerror: pi must be a 4x4 table of numbers\n"


def _planted_overflow(mat):
    """mat with 1.7e308 at (0, 1) and -1.7e308 at (1, 0): finite entries
    whose Hermiticity deviation lies past the float range."""
    mat = np.array(mat)
    mat[0, 1], mat[1, 0] = 1.7e308, -1.7e308
    return mat


_OVERFLOW_TAIL = (
    "hermiticity_deviation: inf\ntp_preserving: true\noffdiagonal_leak: 0.0\n"
    "fiber_deviation: 0.0\nunitality_deviation: 0.0\n"
)


@pytest.mark.parametrize("kind, expected", [
    ("superchannel", "is_cp: false\nis_tp: true\nmin_eig: -2.2204460492503136e-16\n"
                     "factorization_deviation: 0.0\nmarginal_deviation: 0.0\n" + _OVERFLOW_TAIL),
    ("du", "hermiticity_violation: inf\n"),
    ("do", "is_cp: false\nis_tp: true\nmin_eig: -0.5615528128088304\n"
           "factorization_deviation: 0.0\nmarginal_deviation: 0.0\n" + _OVERFLOW_TAIL),
], ids=["superchannel", "du", "do"])
def test_hermiticity_deviation_past_the_float_range_is_inf(paths, capsys, kind, expected):
    # no RuntimeWarning (an error under pytest) on the way to the inf
    _, write = paths
    unit = du_identity(2)
    if kind == "superchannel":
        doc = jsonio.superchannel_to_json(
            SuperChoi((2,) * 4, _planted_overflow(build_choi(unit).mat)))
    else:
        p = DUSuperParams(2, unit.A, _planted_overflow(unit.B), unit.C, unit.D)
        doc = jsonio.params_to_json(p if kind == "du" else from_du_params(p))
    code, out = run_cli(capsys, "validate", kind, write(f"{kind}.json", doc))
    assert code == 3
    assert out == f"status: check-failed\nkind: {kind}\n" + expected


def test_validate_kind_mismatch_is_invalid_input(paths, capsys):
    tmp, write = paths
    path = write("du.json", jsonio.params_to_json(du_identity(2)))
    code, out = run_cli(capsys, "validate", "pauli", path)
    assert code == 2 and "status: invalid-input" in out


def test_validate_parse_error_reports_position(paths, capsys):
    tmp, _ = paths
    bad = tmp / "broken.json"
    bad.write_text('{"pi": [[1,\n')
    code, out = run_cli(capsys, "validate", "pauli", str(bad))
    assert code == 2 and "line" in out


_DEEP = 100_000  # past json's recursion limit; orjson's reader has none


@pytest.mark.parametrize("body, message", [
    ("[" * _DEEP + "NaN" + "]" * _DEEP, "nested too deeply to parse"),  # json reads it
    ("[" * _DEEP + "]" * _DEEP, "expected a JSON object"),  # orjson reads it
    ('{"pi": ' + "[" * _DEEP + "]" * _DEEP + "}", "error: "),  # orjson reads it, numpy refuses it
])
def test_validate_deeply_nested_file_is_invalid_input(tmp_path, capsys, body, message):
    path = tmp_path / "deep.json"
    path.write_text(body)
    code, out = run_cli(capsys, "validate", "pauli", str(path))
    assert code == 2 and "status: invalid-input" in out and message in out


# integer fields must be JSON integers: these used to read as d=2 or d=1
NON_INTEGER_D = {
    "du-fractional-d": 2.7,
    "du-integral-float-d": 2.0,
    "du-string-d": "2",
    "du-bool-d": True,
}


def _malformed_number_text(case):
    huge = 10**400  # a float() or int() of it from JSON overflowed
    if case == "du-huge-table-entry":
        doc = as_lists(jsonio.params_to_json(du_identity(2)))
        doc["A"]["data"][0][0] = huge
    elif case in ("du-null-d", "du-infinite-d"):
        doc = jsonio.params_to_json(du_identity(2))
        doc["d"] = None if case == "du-null-d" else float("inf")
    elif case in NON_INTEGER_D:
        doc = jsonio.params_to_json(default_du_params())
        doc["d"] = NON_INTEGER_D[case]
    elif case == "channel-overflowing-dims":
        doc = jsonio.channel_to_json(amplitude_damping(0.3))
        doc["choi"]["dims"] = [2, "BIG"]
        return "channel", json.dumps(as_lists(doc)).replace('"BIG"', "1e999")
    elif case == "channel-fractional-d-in":
        doc = jsonio.channel_to_json(amplitude_damping(0.3))
        doc["d_in"] = 2.5
    else:
        doc = pauli_to_json(PauliSuperParams(np.full((4, 4), 1 / 16)))
        doc["pi"][0][0] = huge
    return case.split("-")[0], json.dumps(as_lists(doc))


@pytest.mark.parametrize(
    "case",
    [
        "du-huge-table-entry",
        "du-null-d",
        "du-infinite-d",
        "du-fractional-d",
        "du-integral-float-d",
        "du-string-d",
        "du-bool-d",
        "channel-overflowing-dims",
        "channel-fractional-d-in",
        "pauli-huge-pi-entry",
    ],
)
def test_malformed_number_is_invalid_input(paths, capsys, case):
    tmp, _ = paths
    kind, text = _malformed_number_text(case)
    path = tmp / "bad.json"
    path.write_text(text)
    code, out = run_cli(capsys, "validate", kind, str(path))
    assert code == 2 and "status: invalid-input" in out


def test_apply_identity_superchannel(paths, capsys):
    tmp, write = paths
    sup = write("s.json", jsonio.superchannel_to_json(identity_superchannel(2, 2)))
    chan = write("c.json", jsonio.channel_to_json(bit_flip(0.2)))
    out_path = str(tmp / "out.json")
    code, out = run_cli(capsys, "apply", sup, chan, "--out", out_path)
    assert code == 0
    result = jsonio.channel_from_json(json.loads((tmp / "out.json").read_text()))
    assert np.allclose(result.mat, bit_flip(0.2).mat)
    assert "input_classical" in out and "output_classical" in out


def test_apply_accepts_parameter_forms(paths, capsys):
    tmp, write = paths
    p = random_valid_du_params(rng, 2)
    sup = write("du.json", jsonio.params_to_json(p))
    chan = write("c.json", jsonio.channel_to_json(amplitude_damping(0.3)))
    out_path = str(tmp / "out.json")
    code, _ = run_cli(capsys, "apply", sup, chan, "--out", out_path)
    assert code == 0
    from superchan.superchannels import apply_to_channel

    expected = apply_to_channel(build_choi(p), amplitude_damping(0.3))
    written = jsonio.channel_from_json(json.loads((tmp / "out.json").read_text()))
    assert np.allclose(written.mat, expected.mat)


@pytest.mark.parametrize("kind", ["du", "do", "dephasing", "pauli", "superchannel"])
def test_apply_channel_must_hold_a_channel(paths, capsys, kind):
    tmp, write = paths
    docs = {
        "du": jsonio.params_to_json(du_identity(2)),
        "do": jsonio.params_to_json(from_du_params(du_identity(2))),
        "dephasing": jsonio.params_to_json(dephasing_from_realization(
            *random_realization(np.random.default_rng(3), 2, 2))),
        "pauli": pauli_to_json(PauliSuperParams(np.full((4, 4), 1 / 16))),
        "superchannel": jsonio.superchannel_to_json(identity_superchannel(2, 2)),
    }
    sup = write("s.json", docs["superchannel"])
    not_channel = write(f"{kind}.json", docs[kind])
    code, out = run_cli(capsys, "apply", sup, not_channel)
    assert code == 2
    assert out == f"status: invalid-input\nerror: {not_channel} holds a {kind} object, not channel\n"


def test_validate_superchannel_near_the_float_maximum_reports_a_status(paths, capsys):
    # finite entries whose B1 partial trace overflows: a named error, no numpy warning
    tmp, write = paths
    m = np.array(identity_superchannel(2, 2).mat)
    m[0, 0] = m[5, 5] = 1.7e308
    path = write("huge.json", jsonio.superchannel_to_json(SuperChoi((2, 2, 2, 2), m)))
    code = main(["validate", "superchannel", path])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ("status: invalid-input\n"
                   "error: the partial trace over B1 overflows the float range\n")
    assert err == ""


_B1_OVERFLOW = ("status: invalid-input\n"
                "error: the partial trace over B1 overflows the float range\n")


@pytest.mark.parametrize("kind, probe, code, expected", [
    ("du", "a", 2, _B1_OVERFLOW),
    ("du", "b", 3, "status: check-failed\nkind: du\nhermiticity_violation: 0.0\ntp: false\n"
                   "alpha_fiber_deviation: inf\ngamma_fiber_deviation: 0.0\n"
                   "row_sum_deviation: 5.666666666666666e+307\nworst_fiber: (0, 0, 1)\n"
                   "cp: false\noffdiag_min_eig: -1.7e+308\noffdiag_witness: (0, 1)\n"
                   "block_min_eig: -6.299336984475898e-16\nchoi_min_eig: -1.7e+308\n"),
    ("do", "a", 2, _B1_OVERFLOW),
    ("do", "b", 3, "status: check-failed\nkind: do\nis_cp: false\nis_tp: false\n"
                   "min_eig: -1.7e+308\nfactorization_deviation: inf\n"
                   "marginal_deviation: 5.666666666666666e+307\nhermiticity_deviation: 0.0\n"
                   "tp_preserving: false\noffdiagonal_leak: 0.0\nfiber_deviation: inf\n"
                   "unitality_deviation: 5.666666666666666e+307\n"),
    ("dephasing", "a", 2, _B1_OVERFLOW),
    ("dephasing", "b", 3, "status: check-failed\nkind: dephasing\nvalid: false\npsd: false\n"
                          "min_eig: -1.6999999999999995e+308\nfiber_deviation: inf\n"
                          "fiber_witness: (0, 0, 1, 0)\n"
                          "diagonal_deviation: 5.666666666666666e+307\n"),
], ids=["du-a", "du-b", "do-a", "do-b", "dephasing-a", "dephasing-b"])
def test_trace_checks_near_the_float_maximum(paths, capsys, kind, probe, code, expected):
    # the identity's tables with finite entries near the float maximum:
    # (a) the B1 partial trace overflows, an error in every kind; (b) it is
    # finite but its deviations are not, reported as inf; no numpy warning
    _, write = paths
    d = 2 if probe == "a" else 3
    if kind == "dephasing":
        m = np.ones((d * d, d * d), dtype=complex)
        if probe == "a":
            m[0:2, 0:2] = 1.7e308
        else:
            m[range(3), range(3)] = (1.7e308, -1.7e308, 1.7e308)
        p = DephasingSuperParams(d, m)
    else:
        unit = du_identity(d)
        a = np.array(unit.A)
        if probe == "a":
            a[[0, 1], 0] = 1.7e308
        else:
            a[0, 0:3] = (1.7e308, -1.7e308, 1.7e308)
        p = DUSuperParams(d, a, unit.B, unit.C, unit.D)
        p = p if kind == "du" else from_du_params(p)
    status = main(["validate", kind, write(f"{kind}.json", jsonio.params_to_json(p))])
    out, err = capsys.readouterr()
    assert (status, out, err) == (code, expected, "")


def test_apply_dimension_mismatch(paths, capsys):
    tmp, write = paths
    chan = write("c.json", jsonio.channel_to_json(bit_flip(0.1)))
    for name, doc in (
        ("s.json", jsonio.superchannel_to_json(identity_superchannel(3, 3))),
        ("du.json", jsonio.params_to_json(du_identity(3))),
        ("do.json", jsonio.params_to_json(from_du_params(du_identity(3)))),
    ):
        code, out = run_cli(capsys, "apply", write(name, doc), chan)
        assert code == 2
        assert "do not match superchannel input pair (3, 3)" in out


def refuse_choi_builders(monkeypatch, command):
    """Make every way to assemble a Choi from tables raise."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} assembled the Choi")

    for module, name in ((positions, "choi_from_tables"), (du_module, "choi_from_tables"),
                         (du_module, "build_choi"), (covariance_module, "choi_from_tables")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(cli, "build_choi", refuse, raising=False)  # if the CLI holds it


def identity_table_docs(d):
    """The identity superchannel as four and nine tables and as the all-ones
    multiplier, as (file name, JSON) pairs."""
    unit = du_identity(d)
    ones = DephasingSuperParams(d, np.ones((d * d, d * d)))
    return (("du.json", jsonio.params_to_json(unit)),
            ("do.json", jsonio.params_to_json(from_du_params(unit))),
            ("dephasing.json", jsonio.params_to_json(ones)))


@pytest.mark.parametrize("d", [8, 12])
def test_apply_on_tables_never_assembles_the_choi(paths, capsys, monkeypatch, d):
    refuse_choi_builders(monkeypatch, "apply")
    tmp, write = paths
    ch = random_channel(rng, d)
    chan = write("c.json", jsonio.channel_to_json(ch))
    # the identity superchannel echoes the channel
    for name, doc in identity_table_docs(d):
        out_path = tmp / "out.json"
        code, out = run_cli(capsys, "apply", write(name, doc), chan, "--out", str(out_path))
        assert code == 0
        assert report_value(out, "output_classical") == report_value(out, "input_classical")
        written = jsonio.channel_from_json(json.loads(out_path.read_text()))
        assert np.array_equal(written.mat, ch.mat)


@pytest.mark.parametrize("d", [8, 12])
def test_covariance_on_tables_never_assembles_the_choi(paths, capsys, monkeypatch, d):
    refuse_choi_builders(monkeypatch, "covariance")
    tmp, write = paths
    # the identity superchannel is covariant under both groups; generic
    # sign-symmetric tables are under do only
    docs = (*identity_table_docs(d), ("generic.json", jsonio.params_to_json(
        random_do_params(rng, d))))
    for name, doc in docs:
        path = write(name, doc)
        for group in ("du", "do"):
            code, out = run_cli(capsys, "covariance", path, "--group", group, "--samples", "20")
            assert code == (3 if (name, group) == ("generic.json", "du") else 0)
            assert report_value(out, "samples") == "20"


@pytest.mark.parametrize("d", [8, 12])
def test_compose_on_tables_never_assembles_the_choi(paths, capsys, monkeypatch, d):
    refuse_choi_builders(monkeypatch, "compose")
    tmp, write = paths
    # the identity superchannel composed with itself is itself, exactly
    for name, doc in identity_table_docs(d):
        path, out_path = write(name, doc), tmp / "out.json"
        code, _ = run_cli(capsys, "compose", name.split(".")[0], path, path, "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text()) == as_lists(doc)


def test_compose_do_is_the_choi_link_product(paths, capsys):
    tmp, write = paths
    p, q = random_do_params(rng, 3), random_do_params(rng, 3)
    out_path = tmp / "pq.json"
    code, out = run_cli(capsys, "compose", "do", write("p.json", jsonio.params_to_json(p)),
                        write("q.json", jsonio.params_to_json(q)), "--out", str(out_path))
    assert code == 0 and report_value(out, "kind") == "do"
    got = build_choi(jsonio.params_from_json(json.loads(out_path.read_text()), "do")).mat
    ref = compose_superchannels(build_choi(p), build_choi(q)).mat
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_apply_on_dephasing_is_the_schur_product(paths, capsys):
    tmp, write = paths
    for d in (2, 3):
        m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        p = DephasingSuperParams(d, np.where(rng.random(m.shape) < 0.3, -0.0, m))
        ch = random_channel(rng, d)
        out_path = tmp / "out.json"
        code, _ = run_cli(capsys, "apply", write("m.json", jsonio.params_to_json(p)),
                          write("c.json", jsonio.channel_to_json(ch)), "--out", str(out_path))
        assert code == 0
        written = jsonio.channel_from_json(json.loads(out_path.read_text()))
        # the Schur product, entry by entry: no sum, so the bits are fixed
        assert written.mat.tobytes() == (p.M_big * ch.mat).tobytes()


def test_compose_du_with_identity_echoes(paths, capsys):
    tmp, write = paths
    p = random_hermitian_du_params(rng, 2)
    first = write("p.json", jsonio.params_to_json(p))
    unit = write("unit.json", jsonio.params_to_json(du_identity(2)))
    out_path = str(tmp / "composed.json")
    code, _ = run_cli(capsys, "compose", "du", first, unit, "--out", out_path)
    assert code == 0
    composed = jsonio.params_from_json(json.loads((tmp / "composed.json").read_text()), "du")
    for name in "ABCD":
        assert np.allclose(getattr(composed, name), getattr(p, name), atol=1e-14)


def test_compose_dephasing_multiplies_tables(paths, capsys):
    tmp, write = paths
    p1 = dephasing_from_realization(*random_realization(rng, 2, 3))
    p2 = dephasing_from_realization(*random_realization(rng, 2, 2))
    f1 = write("m1.json", jsonio.params_to_json(p1))
    f2 = write("m2.json", jsonio.params_to_json(p2))
    out_path = str(tmp / "m.json")
    code, _ = run_cli(capsys, "compose", "dephasing", f1, f2, "--out", out_path)
    assert code == 0
    composed = jsonio.params_from_json(json.loads((tmp / "m.json").read_text()), "dephasing")
    assert np.allclose(composed.M_big, p1.M_big * p2.M_big)


@pytest.mark.parametrize("kind", ["du", "do", "dephasing"])
def test_table_dimension_below_one_is_invalid_input(paths, capsys, kind):
    # d = -1 asks for tables of side 1, so the parser passes them on and the
    # parameter class names d
    tmp, write = paths
    one = {"dims": [1, 1], "data": [[0.0, 0.0]]}
    path = write("t.json", {"d": -1, **{n: one for n in jsonio.TABLE_KINDS[kind].NAMES}})
    for argv in (("validate", kind, path), ("compose", kind, path, path),
                 ("covariance", path, "--group", "du")):
        code, out = run_cli(capsys, *argv)
        assert code == 2 and "status: invalid-input" in out
        assert "error: dimension d must be positive, got -1" in out


def test_compose_kind_mismatch(paths, capsys):
    tmp, write = paths
    du = write("du.json", jsonio.params_to_json(du_identity(2)))
    pauli = write("pi.json", pauli_to_json(PauliSuperParams(np.full((4, 4), 1 / 16))))
    code, _ = run_cli(capsys, "compose", "du", du, pauli)
    assert code == 2


@pytest.fixture
def compose_files(tmp_path):
    """A valid du file, a channel file and two du files whose tables the
    reader refuses: A of side 3 ("side") and B holding NaN ("nan"), written
    by json.dumps, which spells NaN."""
    doc = json.loads(jsonio.dump_json(jsonio.params_to_json(du_identity(2))))
    channel = json.loads(jsonio.dump_json(jsonio.channel_to_json(bit_flip(0.3))))
    docs = {"ok": doc, "channel": channel,
            "side": {**doc, "A": {"dims": [3], "data": [[1.0, 0.0]] * 9}},
            "nan": {**doc, "B": {"dims": [2, 2], "data": [[float("nan"), 0.0]] * 16}}}
    for label, d in docs.items():
        (tmp_path / f"{label}.json").write_text(json.dumps(d))
    return {label: str(tmp_path / f"{label}.json") for label in (*docs, "missing")}


@pytest.mark.parametrize("first, second, error", [
    ("side", "missing", "no such file: {missing}"),  # file 2's read error comes first
    ("side", "channel", "compose du: inputs are du and channel"),  # then the kind mismatch
    ("side", "nan", "table A must have side 4, got 3"),  # then file 1's parse error
    ("nan", "side", "bad matrix for table B: matrix entries must be finite (no NaN/Inf)"),
])
def test_compose_errors_keep_the_order_of_reading_both_files_first(
        compose_files, capsys, first, second, error):
    code, out = run_cli(capsys, "compose", "du", compose_files[first], compose_files[second])
    assert (code, out) == (2, f"status: invalid-input\nerror: {error.format(**compose_files)}\n")


@pytest.mark.parametrize("first, code", [("ok", 0), ("side", 2)])
def test_compose_frees_file_1_before_it_reads_file_2(compose_files, capsys, monkeypatch,
                                                      first, code):
    # each tree is a dict subclass, so a weak reference tells whether it is alive;
    # main pauses the cyclic collector, so only reference counts free it
    class Tree(dict):
        pass

    log, alive, read, from_json = [], [], cli._read, jsonio.from_json

    def logged_read(path):
        log.append(("read", path, sum(ref() is not None for ref in alive)))
        tree = Tree(read(path))
        alive.append(weakref.ref(tree))
        return tree

    def logged_from_json(obj, kind):
        log.append(("parse", len(alive)))
        return from_json(obj, kind)

    monkeypatch.setattr(cli, "_read", logged_read)
    monkeypatch.setattr(jsonio, "from_json", logged_from_json)
    path1, path2 = compose_files[first], compose_files["ok"]
    assert run_cli(capsys, "compose", "du", path1, path2)[0] == code
    assert log == [("read", path1, 0), ("parse", 1), ("read", path2, 0), ("parse", 2)]


def test_covariance_command(paths, capsys):
    tmp, write = paths
    du = write("du.json", jsonio.params_to_json(random_hermitian_du_params(rng, 2)))
    code, out = run_cli(capsys, "covariance", du, "--group", "du", "--seed", "5")
    assert code == 0
    assert float(report_value(out, "max_deviation")) <= 1e-12

    pi = np.zeros((4, 4))
    pi[0, 1] = 0.5
    pi[0, 0] = 0.5
    pauli = write("pi.json", pauli_to_json(PauliSuperParams(pi)))
    code, out = run_cli(capsys, "covariance", pauli, "--group", "du")
    assert code == 3
    assert float(report_value(out, "max_deviation")) > 1e-3
    code, _ = run_cli(capsys, "covariance", pauli, "--group", "do")
    assert code == 0


@pytest.mark.parametrize("group", ["du", "do", "haar", "conj-haar", "mixed"])
def test_covariance_past_the_float_range_fails_with_inf_and_no_warning(paths, capsys, group):
    # finite entries whose conjugates leave the float range: a dense Choi
    # whose Haar conjugation gives inf - inf = NaN in every sample, which
    # passed with max_deviation 0.0, and DU tables whose rephasing overflows
    tmp, write = paths
    local = np.random.default_rng(0)
    m = 1.5e308 * (local.uniform(-1, 1, (16, 16)) + 1j * local.uniform(-1, 1, (16, 16)))
    big = 1.5e308 + 1.5e308j
    tables = DUSuperParams.masked(2, **{n: np.full((4, 4), big.real if n == "A" else big)
                                        for n in DUSuperParams.NAMES})
    files = [write("choi.json", jsonio.superchannel_to_json(SuperChoi((2,) * 4, m)))]
    if group != "do":  # a sign flip of DU tables is exact
        files.append(write("du.json", jsonio.params_to_json(tables)))
    for path in files:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["covariance", path, "--group", group])
        out, err = capsys.readouterr()
        assert (code, err, caught) == (3, "", []), (path, out)
        assert "covariant: false\nmax_deviation: inf\n" in out, (path, out)


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_covariance_without_samples_is_invalid_input(paths, capsys, samples):
    tmp, write = paths
    du = write("du.json", jsonio.params_to_json(du_identity(2)))
    code, out = run_cli(capsys, "covariance", du, "--group", "du", "--samples", samples)
    assert code == 2 and "status: invalid-input" in out
    assert "covariant" not in out


@pytest.mark.parametrize("group", ["du", "haar"])
@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_covariance_negative_seed_is_invalid_input_that_names_the_seed(paths, capsys, group,
                                                                       seed):
    tmp, write = paths
    du = write("du.json", jsonio.params_to_json(du_identity(2)))
    code, out = run_cli(capsys, "covariance", du, "--group", group, "--seed", seed)
    assert (code, out) == (
        2, f"status: invalid-input\nerror: the seed must be non-negative, got {seed}\n")


@pytest.mark.parametrize("flags", [(), ("--samples", "0")])
@pytest.mark.parametrize("group", ["du", "haar"])
def test_covariance_of_unequal_dims_is_invalid_input(paths, capsys, flags, group):
    # the dims are refused before the sample count is read
    tmp, write = paths
    s = write("s.json", jsonio.superchannel_to_json(identity_superchannel(2, 3)))
    code, out = run_cli(capsys, "covariance", s, "--group", group, *flags)
    assert (code, out) == (
        2, "status: invalid-input\nerror: covariance groups are defined for equal subsystem dims\n")


@pytest.mark.parametrize("group, message", [("du", "Unable to allocate 4.37 TiB"),
                                            ("haar", "Unable to allocate 4.37 TiB"), ("du", "")])
def test_covariance_samples_beyond_memory_are_invalid_input(paths, capsys, monkeypatch,
                                                            group, message):
    # a --samples whose draw cannot be allocated (numpy raises a MemoryError
    # subclass) is a malformed flag, not a crash; nothing is allocated here
    def out_of_memory(*args):
        raise MemoryError(message) if message else MemoryError

    for name in ("_diagonals", "_haar"):
        monkeypatch.setattr(covariance_module, name, out_of_memory)
    tmp, write = paths
    du = write("du.json", jsonio.params_to_json(du_identity(2)))
    code, out = run_cli(capsys, "covariance", du, "--group", group, "--samples", "100000000000")
    assert (code, out) == (2, f"status: invalid-input\nerror: {message or 'MemoryError'}\n")


def test_example_amplitude_damping(paths, capsys):
    tmp, _ = paths
    out_path = str(tmp / "ad_out.json")
    code, out = run_cli(
        capsys, "example", "amplitude-damping", "--gamma", "0.3", "--out", out_path
    )
    assert code == 0
    assert float(report_value(out, "a1_plus_a2")) == pytest.approx(1.0, abs=1e-12)
    assert float(report_value(out, "a3_plus_a4")) == pytest.approx(1.0, abs=1e-12)
    assert report_value(out, "output_is_channel") == "true"


def test_example_bit_flip_and_pauli(capsys):
    code, out = run_cli(capsys, "example", "bit-flip", "--p", "0.2")
    assert code == 0
    assert "p_11" in out and "center_expected" in out
    code, out = run_cli(capsys, "example", "pauli", "--p", "0.7", "0.1", "0.1", "0.1")
    assert code == 0
    assert float(report_value(out, "input_corner")) == pytest.approx(0.6)


def test_example_holevo_werner(capsys):
    code, out = run_cli(capsys, "example", "holevo-werner", "--d", "3")
    assert code == 0
    assert report_value(out, "superchannel_is_cp") == "true"


def test_example_super_must_hold_du_tables(paths, capsys):
    # a sign-symmetric file is rejected as by validate du, not read as its
    # first four tables
    tmp, write = paths
    do_path = write("do.json", jsonio.params_to_json(from_du_params(default_du_params())))
    for argv in (("validate", "du", do_path), ("example", "bit-flip", "--super", do_path)):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == f"status: invalid-input\nerror: {do_path} holds a do object, not du\n"


def test_unreadable_input_and_unwritable_out_are_invalid_input(paths, capsys):
    tmp, write = paths
    code, out = run_cli(capsys, "validate", "du", str(tmp))
    assert code == 2 and out.startswith("status: invalid-input\nerror: ")
    code, out = run_cli(capsys, "validate", "du", str(tmp / "missing.json"))
    assert code == 2 and f"error: no such file: {tmp / 'missing.json'}" in out
    # a failed write prints no report
    code, out = run_cli(capsys, "example", "bit-flip", "--out", str(tmp))
    assert code == 2
    assert out.startswith("status: invalid-input\nerror: ") and out.count("\n") == 2


def test_example_rejects_bad_arguments(capsys):
    code, _ = run_cli(capsys, "example", "pauli", "--p", "0.5", "0.5")
    assert code == 2
    code, _ = run_cli(capsys, "example", "amplitude-damping", "--gamma", "1.5")
    assert code == 2


def test_example_pauli_names_a_non_finite_weight(capsys):
    code, out = run_cli(capsys, "example", "pauli", "--p", "nan", "0", "0", "1")
    assert code == 2
    assert out == ("status: invalid-input\nerror: [nan  0.  0.  1.] is not a probability "
                   "vector: non-finite entries (NaN or Inf)\n")


def test_cached_parser_answers_every_call_as_a_fresh_one(paths, capsys):
    # build_parser() is built once per process: no call may leave state in it
    # that changes the answer to a later one
    tmp, write = paths
    local = np.random.default_rng(11)
    du = write("du.json", jsonio.params_to_json(random_valid_du_params(local, 2)))
    chan = write("c.json", jsonio.channel_to_json(bit_flip(0.3)))
    ops = [
        ("example", "bit-flip"),
        ("example", "bit-flip", "--p", "0.4"),
        ("example", "pauli", "--p", "0.7", "0.1", "0.1", "0.1"),
        ("example", "pauli"),  # the one-entry default is refused: exit 2
        ("example", "bit-flip", "--tol", "nan"),  # malformed flag: exit 2
        ("validate", "nonsense", du),  # argparse error: SystemExit 2
        ("validate", "du", du),
        ("apply", du, chan),
        ("compose", "du", du, du),
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = f"SystemExit {exc.code}"
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = {}
    for argv in ops:
        cli.build_parser.cache_clear()
        fresh[argv] = run(argv)
    assert fresh[ops[3]][0] == fresh[ops[4]][0] == 2
    assert fresh[ops[5]][0] == "SystemExit 2"
    parser = cli.build_parser()
    for k in np.concatenate([local.permutation(len(ops)) for _ in range(4)]):
        assert run(ops[k]) == fresh[ops[k]], ops[k]
    assert cli.build_parser() is parser
    assert parser.parse_args(["example", "bit-flip"]).p == (0.2,)


PARSE_CORPUS = [
    # each command's valid forms
    ["validate", "du", "a.json"],
    ["validate", "pauli", "a.json", "--tol", "1e-3"],
    ["apply", "s.json", "c.json"],
    ["apply", "s.json", "c.json", "--out", "o.json"],
    ["compose", "du", "a.json", "b.json"],
    ["compose", "channel", "a.json", "b.json", "--out", "o.json"],
    ["covariance", "s.json", "--group", "du"],
    ["covariance", "s.json", "--group", "haar", "--samples", "5", "--seed", "3", "--tol", "1e-6"],
    ["example", "amplitude-damping", "--gamma", "0.4", "--super", "du.json", "--out", "o.json"],
    ["example", "bit-flip"],
    ["example", "bit-flip", "--p", "0.1"],
    ["example", "pauli", "--p", "0.7", "0.1", "0.1", "0.1"],
    ["example", "holevo-werner", "--d", "3"],
    # help and no command
    [], ["-h"], ["--help"], ["validate", "-h"], ["example", "pauli", "--p", "0.5", "-h"],
    # an unknown or abbreviated command, an option before the command
    ["nonsense"], ["val", "du", "a.json"], ["--tol", "1", "validate", "du", "a.json"],
    ["-x", "validate", "du", "a.json"],
    # leftovers
    ["validate", "du", "a.json", "b.json"], ["apply", "s.json", "c.json", "d.json"],
    ["validate", "du", "a.json", "--bogus"], ["example", "bit-flip", "--p", "0.1", "extra"],
    # spellings of flags and values
    ["validate", "du", "a.json", "--tol=1e-3"], ["validate", "du", "a.json", "--to", "1e-3"],
    ["example", "amplitude-damping", "--gam", "0.5"], ["validate", "du", "a.json", "--tol", "-1"],
    ["example", "bit-flip", "--p", "-0.1"], ["validate", "du", "--", "a.json"],
    ["apply", "--", "s.json", "c.json"], ["validate", "du", "a.json", "--", "--tol"],
    ["validate", "du", "a.json", "--tol", "1", "--tol", "2"],
    ["example", "pauli", "--p", "0.5", "--p", "0.1", "0.2", "0.3", "0.4"],
    # a bad choice, a bad type, a missing value or argument
    ["validate", "nonsense", "a.json"], ["covariance", "s.json", "--group", "u"],
    ["validate", "du", "a.json", "--tol", "abc"],
    ["apply", "s.json", "c.json", "--out", "o.json", "--tol", "0"],  # apply takes no --tol
    ["covariance", "s.json", "--group", "du", "--samples", "1.5"],
    ["validate", "du", "a.json", "--tol"], ["validate", "du"], ["covariance", "s.json"],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "no-argv")
def test_one_parse_answers_as_the_top_level_parser(argv, capsys, monkeypatch):
    def outcome(parse):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = f"SystemExit {exc.code}"
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    parser = cli.build_parser()
    oracle = outcome(parser.parse_args)
    assert outcome(cli.parse_argv) == oracle
    if isinstance(oracle[0], argparse.Namespace):  # a command line that parses: one pass
        def refuse(*args, **kwargs):
            raise AssertionError("a second argparse pass")

        monkeypatch.setattr(parser, "parse_args", refuse)
        assert outcome(cli.parse_argv) == oracle


def test_validate_superchannel_and_do_build_one_trace_verdict(paths, capsys, monkeypatch):
    # the trace check runs once and its verdict feeds both report blocks
    tmp, write = paths
    calls = []
    real = superchannels_module.tp_preserving_verdict

    def spy(*args):
        calls.append(args)
        return real(*args)

    for module in (superchannels_module, do_module):
        monkeypatch.setattr(module, "tp_preserving_verdict", spy)
    for kind, doc in (
        ("superchannel", jsonio.superchannel_to_json(identity_superchannel(2, 2))),
        ("do", jsonio.params_to_json(from_du_params(du_identity(2)))),
    ):
        calls.clear()
        code, out = run_cli(capsys, "validate", kind, write(f"{kind}.json", doc))
        assert code == 0 and "tp_preserving: true" in out
        assert len(calls) == 1, kind


def test_cli_output_is_byte_identical(paths, capsys):
    tmp, _ = paths
    out1, out2 = str(tmp / "o1.json"), str(tmp / "o2.json")
    texts = []
    for out_path in (out1, out2):
        code, out = run_cli(
            capsys, "example", "amplitude-damping", "--gamma", "0.3", "--out", out_path
        )
        assert code == 0
        texts.append(out.replace(out_path, "OUT"))
    assert texts[0] == texts[1]
    assert (tmp / "o1.json").read_bytes() == (tmp / "o2.json").read_bytes()


def test_example_outputs_match_committed_goldens(paths, capsys):
    import pathlib

    tmp, _ = paths
    golden_dir = pathlib.Path(__file__).parent / "data"
    cases = [
        (("example", "amplitude-damping", "--gamma", "0.3"), "golden_amplitude_damping_out.json"),
        (("example", "bit-flip", "--p", "0.2"), "golden_bit_flip_out.json"),
    ]
    for argv, golden_name in cases:
        out_path = tmp / golden_name
        code, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == (golden_dir / golden_name).read_bytes()


@pytest.fixture
def collector():
    """Put the cyclic collector back as it was after a test that switches it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(paths, capsys, monkeypatch, collector, enabled):
    tmp, write = paths
    du = write("du.json", jsonio.params_to_json(du_identity(2)))
    pi = np.zeros((4, 4))
    pi[0, 0] = pi[0, 1] = 0.5
    pauli = write("pi.json", pauli_to_json(PauliSuperParams(pi)))
    (gc.enable if enabled else gc.disable)()
    for code, argv in (
        (0, ["validate", "du", du]),
        (3, ["covariance", pauli, "--group", "du"]),
        (2, ["validate", "du", str(tmp / "missing.json")]),
        (2, ["example", "bit-flip", "--out", str(tmp)]),  # a directory: unwritable
    ):
        assert main(argv) == code, argv
        assert gc.isenabled() is enabled, argv
    with pytest.raises(SystemExit):  # argparse refuses before the pause
        main(["validate", "nonsense", du])
    assert gc.isenabled() is enabled

    seen = []
    real_load = cli._load

    def probe(*args):
        seen.append(gc.isenabled())
        return real_load(*args)

    monkeypatch.setattr(cli, "_load", probe)
    assert main(["validate", "du", du]) == 0
    assert seen == [False] and gc.isenabled() is enabled

    def broken(*args):
        raise RuntimeError("broken command")

    monkeypatch.setattr(cli, "_load", broken)
    with pytest.raises(RuntimeError, match="broken command"):
        main(["validate", "du", du])
    assert gc.isenabled() is enabled
    capsys.readouterr()


def test_commands_leave_no_cyclic_garbage(paths, capsys, collector):
    # main pauses the collector, so a cycle made by a command would stay in
    # memory until main returns: no command may make one
    tmp, write = paths
    local = np.random.default_rng(29)
    du = random_valid_du_params(local, 2)
    files = {
        "channel": jsonio.channel_to_json(random_channel(local, 2)),
        "superchannel": jsonio.superchannel_to_json(build_choi(du)),
        "du": jsonio.params_to_json(du),
        "do": jsonio.params_to_json(random_do_params(local, 2)),
        "dephasing": jsonio.params_to_json(
            dephasing_from_realization(*random_realization(local, 2, 2))),
        "pauli": pauli_to_json(PauliSuperParams(np.full((4, 4), 1 / 16))),
    }
    path = {kind: write(f"{kind}.json", doc) for kind, doc in files.items()}
    out = str(tmp / "out.json")
    ops = [(3 if kind == "do" else 0, ["validate", kind, path[kind]]) for kind in files]
    ops += [  # the random do tables are the check-failed case
        (0, ["apply", path["du"], path["channel"], "--out", out]),
        (0, ["apply", path["superchannel"], path["channel"], "--out", out]),
        (0, ["compose", "du", path["du"], path["du"], "--out", out]),
        (0, ["compose", "superchannel", path["superchannel"], path["superchannel"]]),
        (0, ["covariance", path["du"], "--group", "du"]),
        (0, ["example", "amplitude-damping", "--super", path["du"], "--out", out]),
        (2, ["apply", path["du"], path["pauli"]]),  # not a channel: schema error
    ]
    # once per process, outside any command's own work: argparse leaves cycles
    # while it builds the parser (before the pause)
    cli.build_parser()
    gc.disable()
    gc.collect()
    for code, argv in ops:
        assert main(argv) == code, argv
        assert gc.collect() == 0, argv
    capsys.readouterr()


IMPORT_PROBE = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from superchan import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[2:])
print(json.dumps([status, [m for m in ("numpy.ma", "dataclasses", "superchan.covariance")
                           if m in sys.modules]]))
"""


@pytest.fixture(scope="module")
def kind_files(tmp_path_factory):
    """One small file of each kind the CLI reads, by kind."""
    tmp = tmp_path_factory.mktemp("kinds")
    local = np.random.default_rng(31)
    du = random_valid_du_params(local, 2)
    docs = {
        "channel": jsonio.channel_to_json(random_channel(local, 2)),
        "superchannel": jsonio.superchannel_to_json(build_choi(du)),
        "du": jsonio.params_to_json(du),
        "do": jsonio.params_to_json(from_du_params(du)),
        "dephasing": jsonio.params_to_json(
            dephasing_from_realization(*random_realization(local, 2, 2))),
        "pauli": pauli_to_json(PauliSuperParams(np.full((4, 4), 1 / 16))),
    }
    path = {}
    for kind, doc in docs.items():
        path[kind] = str(tmp / f"{kind}.json")
        jsonio.dump_json(doc, path[kind])
    path["out"] = str(tmp / "out.json")
    return path


@pytest.mark.parametrize("argv", [
    *(["validate", kind, "{%s}" % kind]
      for kind in ("du", "do", "dephasing", "pauli", "superchannel", "channel")),
    ["compose", "du", "{du}", "{du}", "--out", "{out}"],
    ["apply", "{du}", "{channel}", "--out", "{out}"],
    ["apply", "{superchannel}", "{channel}", "--out", "{out}"],
    ["example", "bit-flip", "--super", "{du}", "--out", "{out}"],
    ["covariance", "{du}", "--group", "du"],
    ["example", "holevo-werner"],
], ids="-".join)
def test_commands_import_only_what_they_use(kind_files, argv):
    # a fresh interpreter per command: no command imports numpy.ma or
    # dataclasses, and only the sampling commands import covariance
    argv = [arg.format(**kind_files) for arg in argv]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    status, modules = json.loads(proc.stdout)
    assert status == 0
    sampling = argv[0] == "covariance" or argv[:2] == ["example", "holevo-werner"]
    assert modules == (["superchan.covariance"] if sampling else [])


def test_console_entry_point_runs():
    # the child finds the package under test first, whatever PYTHONPATH it inherits
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "superchan.cli", "example", "bit-flip", "--p", "0.1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "status: ok" in proc.stdout


def test_readme_quick_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A quick example:", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick example", "exec"), {})
    assert "[[" in capsys.readouterr().out  # it prints the output channel's Choi matrix
