import enum
import functools
import json
import math
import tempfile
import uuid
from collections import OrderedDict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from superchan import jsonio
from superchan.channels import amplitude_damping
from superchan.cli import main
from superchan.dephasing import dephasing_from_realization
from superchan.do import from_du_params
from superchan.du import du_identity
from superchan.jsonio import SchemaError
from superchan.linalg import MultipartiteOperator, matrix_from_json
from superchan.pauli import PauliSuperParams
from superchan.superchannels import identity_superchannel, super_choi

from helpers import (
    random_channel,
    random_do_params,
    random_hermitian_du_params,
    random_realization,
)

rng = np.random.default_rng(43)


def test_channel_round_trip():
    ch = amplitude_damping(0.3)
    again = jsonio.channel_from_json(jsonio.channel_to_json(ch))
    assert np.array_equal(again.choi.mat, ch.choi.mat)
    assert (again.d_in, again.d_out) == (2, 2)


def test_superchannel_round_trip():
    s = identity_superchannel(2, 3)
    again = jsonio.superchannel_from_json(jsonio.superchannel_to_json(s))
    assert again.choi.dims == (2, 3, 2, 3)
    assert np.array_equal(again.choi.mat, s.choi.mat)


def test_du_params_round_trip():
    p = random_hermitian_du_params(rng, 2)
    again = jsonio.params_from_json(jsonio.params_to_json(p), "du")
    for name in "ABCD":
        assert np.array_equal(getattr(again, name), getattr(p, name))


def test_du_params_support_mask_rejected_on_load():
    p = random_hermitian_du_params(rng, 2)
    doc = jsonio.params_to_json(p)
    doc["B"]["data"][0] = [1.0, 0.0]  # B may not have weight at (0, 0)
    with pytest.raises(SchemaError):
        jsonio.params_from_json(doc, "du")


def test_dephasing_round_trip():
    p = dephasing_from_realization(*random_realization(rng, 2, 3))
    again = jsonio.params_from_json(jsonio.params_to_json(p), "dephasing")
    assert np.array_equal(again.M_big, p.M_big)


def test_realization_parsing_feeds_the_constructor():
    us, vs, psi = random_realization(rng, 2, 3)
    doc = {
        "e": 3,
        "U": [jsonio.matrix_to_json(_wrap(u)) for u in us],
        "V": [jsonio.matrix_to_json(_wrap(v)) for v in vs],
        "psi": [[float(z.real), float(z.imag)] for z in psi],
    }
    parsed_us, parsed_vs, parsed_psi = jsonio.realization_from_json(doc)
    built = dephasing_from_realization(parsed_us, parsed_vs, parsed_psi)
    direct = dephasing_from_realization(us, vs, psi)
    assert np.array_equal(built.M_big, direct.M_big)
    with pytest.raises(SchemaError):
        jsonio.realization_from_json({"e": 3, "U": [], "V": [], "psi": [[1.0, 0.0]]})
    for psi in ([[1.0, 0.0], [True, 0.0], [0.0, 0.0]], [[1.0, 0.0], ["0", 0.0], [0.0, 0.0]],
                [[1.0, 0.0], [0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(SchemaError, match="psi must be 3 \\[re, im\\] pairs of numbers"):
            jsonio.realization_from_json({**doc, "psi": psi})


def _wrap(mat):
    from superchan.linalg import operator

    return operator(mat, (mat.shape[0],))


def test_pauli_round_trip_and_validation():
    p = PauliSuperParams(rng.dirichlet(np.ones(16)).reshape(4, 4))
    again = jsonio.pauli_from_json(jsonio.pauli_to_json(p))
    assert np.array_equal(again.pi, p.pi)
    with pytest.raises(SchemaError):
        jsonio.pauli_from_json({"pi": [[1.0] * 4] * 4})


def test_detect_kind():
    assert jsonio.detect_kind(jsonio.channel_to_json(amplitude_damping(0.1))) == "channel"
    assert (
        jsonio.detect_kind(jsonio.superchannel_to_json(identity_superchannel(2, 2)))
        == "superchannel"
    )
    p = random_hermitian_du_params(rng, 2)
    assert jsonio.detect_kind(jsonio.params_to_json(p)) == "du"
    assert jsonio.detect_kind({"pi": []}) == "pauli"
    assert jsonio.detect_kind({"d": 2, "M_big": {}}) == "dephasing"
    with pytest.raises(SchemaError):
        jsonio.detect_kind({"what": 1})


def test_dump_is_deterministic_and_exact(tmp_path):
    p = random_hermitian_du_params(rng, 2)
    doc = jsonio.params_to_json(p)
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    jsonio.dump_json(doc, path1)
    jsonio.dump_json(doc, path2)
    assert path1.read_bytes() == path2.read_bytes()
    again = jsonio.params_from_json(json.loads(path1.read_text()), "du")
    for name in "ABCD":
        assert np.array_equal(getattr(again, name), getattr(p, name))


def test_schema_errors_carry_context():
    with pytest.raises(SchemaError, match="missing keys"):
        jsonio.channel_from_json({"d_in": 2})
    with pytest.raises(SchemaError, match="do not match"):
        doc = jsonio.channel_to_json(amplitude_damping(0.1))
        doc["d_in"] = 3
        jsonio.channel_from_json(doc)


# Floats whose spelling is easy to get wrong: signed zero, the smallest
# subnormal, other subnormals, where repr switches to exponent form, and huge.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e-310, -2.5e-320, 1e16, -1e16, 1e300, 0.1, 1 / 3]


def _with_special_values(doc):
    """Overwrite the leading entries of every matrix in doc with SPECIAL_FLOATS."""
    if isinstance(doc, dict):
        if set(doc) == {"dims", "data"}:
            specials = SPECIAL_FLOATS + SPECIAL_FLOATS[::-1]
            for k, (re, im) in enumerate(zip(specials[::2], specials[1::2])):
                if k < len(doc["data"]):
                    doc["data"][k] = [re, im]
        for value in doc.values():
            _with_special_values(value)
    elif isinstance(doc, list):
        for value in doc:
            _with_special_values(value)
    return doc


_TO_JSON = {"superchannel": jsonio.superchannel_to_json, "channel": jsonio.channel_to_json,
            "du": jsonio.params_to_json, "do": jsonio.params_to_json,
            "dephasing": jsonio.params_to_json, "pauli": jsonio.pauli_to_json}


@pytest.mark.parametrize("kind", list(_TO_JSON))
def test_from_json_round_trips_every_detected_kind(kind):
    gen = np.random.default_rng(11)
    du = random_hermitian_du_params(gen, 2)
    mat = gen.normal(size=(16, 16)) + 1j * gen.normal(size=(16, 16))
    obj = {
        "superchannel": super_choi(mat, (2, 2, 2, 2)),
        "channel": random_channel(gen, 2, 3),
        "du": du,
        "do": from_du_params(du),
        "dephasing": dephasing_from_realization(*random_realization(gen, 2, 3)),
        "pauli": PauliSuperParams(gen.dirichlet(np.ones(16)).reshape(4, 4)),
    }[kind]
    doc = json.loads(jsonio.dump_json(_TO_JSON[kind](obj)))
    assert jsonio.detect_kind(doc) == kind
    again = jsonio.from_json(doc, kind)
    assert type(again) is type(obj)
    assert jsonio.dump_json(_TO_JSON[kind](again)) == jsonio.dump_json(doc)


def _every_document_kind():
    rng = np.random.default_rng(5)  # its own stream: also called at collection
    d = 2
    du = random_hermitian_du_params(rng, d)
    us, vs, psi = random_realization(rng, d, 3)
    mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    docs = {
        "superchannel": jsonio.superchannel_to_json(super_choi(mat, (2, 2, 2, 2))),
        "channel": jsonio.channel_to_json(random_channel(rng, 2, 3)),
        "du": jsonio.params_to_json(du),
        "do": jsonio.params_to_json(from_du_params(du)),
        "dephasing": jsonio.params_to_json(dephasing_from_realization(us, vs, psi)),
        "pauli": jsonio.pauli_to_json(PauliSuperParams(rng.dirichlet(np.ones(16)).reshape(4, 4))),
        "realization": {
            "e": 3,
            "U": [jsonio.matrix_to_json(_wrap(u)) for u in us],
            "V": [jsonio.matrix_to_json(_wrap(v)) for v in vs],
            "psi": [[float(z.real), float(z.imag)] for z in psi],
        },
    }
    docs["pauli"]["pi"][0] = SPECIAL_FLOATS[:4]
    docs = {kind: _with_special_values(doc) for kind, doc in docs.items()}
    docs["edge"] = {
        "empty_object": {},
        "empty_list": [],
        "nested_empty": [{}, [], [[]]],
        "name": "Choi \u03c8 \u2014 d\u00fcr \U0001d4aa \"q\"\\n\t\x00",
        "\u00e9t\u00e9": None,
        "flags": [True, False],
        "non_finite": [math.nan, math.inf, -math.inf],
        "pairs_with_non_finite": [[1.0, math.nan], [math.inf, -math.inf]],
        "pairs_of_ints": [[1, 2], [3, 4]],
        "pairs_mixed": [[1.0, 2], [True, 0.5], [None, 1.0], ["a", "b"]],
        "ragged_pairs": [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]],
        "tuple_pairs": ((1.0, -0.0), (5e-324, 1e300)),
        "integer_dims": [2, 3, 10**20],
    }
    return docs


@pytest.mark.parametrize("kind", list(_every_document_kind()))
def test_dump_equals_json_dumps_indent_2(kind, tmp_path):
    doc = _every_document_kind()[kind]
    assert jsonio.dump_json(doc) == json.dumps(doc, indent=2)
    path = tmp_path / "doc.json"
    jsonio.dump_json(doc, path)
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"


def _float_spelling_cases() -> np.ndarray:
    gen = np.random.default_rng(2024)
    bits = gen.integers(0, 2**64, size=220_000, dtype=np.uint64, endpoint=False).view(np.float64)
    bits = bits[np.isfinite(bits)]
    scaled = np.concatenate([gen.standard_normal(500) * 10.0**k for k in range(-20, 20)])
    boundary = []
    for b in (1e-10, 1e-9, 1e-5, 1e-4, 1e16):
        for x in (b, -b):
            below, above = x, x
            for _ in range(4):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                boundary += [below, above]
            boundary.append(x)
    extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 9999999999999998.0, 0.0, -0.0]
    values = np.concatenate([bits, -bits, scaled, boundary, extremes])
    assert len(bits) >= 200_000
    return values[: len(values) // 2 * 2]


def _dump_and_path(doc, monkeypatch) -> tuple[str, bool]:
    """dump_json's text for doc, and whether its json.dumps fallback wrote it."""
    calls = []

    def dumps(*args, **kwargs):
        calls.append(args)
        return json.dumps(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(jsonio, "json", SimpleNamespace(dumps=dumps))
        text = jsonio.dump_json(doc)
    return text, bool(calls)


def test_bulk_writer_spells_every_float_as_json_does(monkeypatch):
    # orjson writes the document and _respell fixes its spelling; a change
    # to orjson's float spelling in a later release must show here
    values = _float_spelling_cases()
    doc = {"dims": [len(values) // 2], "data": values.reshape(-1, 2).tolist()}
    text, fell_back = _dump_and_path(doc, monkeypatch)
    assert not fell_back
    ours = text.splitlines()
    theirs = json.dumps(doc, indent=2).splitlines()
    assert len(ours) == len(theirs)
    # a handful of differing lines, not a diff of two 10 MB texts
    assert [(a, b) for a, b in zip(ours, theirs) if a != b][:5] == []


def test_matrix_data_takes_the_bulk_path(monkeypatch):
    gen = np.random.default_rng(8)
    mat = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    mat.reshape(-1)[:5] = [3e-17 - 1e-17j, 2.5e-5 + 7e-5j, 1e16 - 3.2e17j,
                           complex(-0.0, 0.0), complex(0.0, -0.0)]
    doc = jsonio.matrix_to_json(MultipartiteOperator((4,), mat))
    assert _dump_and_path(doc, monkeypatch) == (json.dumps(doc, indent=2), False)
    assert doc["data"][3] == [-0.0, 0.0] and math.copysign(1, doc["data"][3][0]) < 0
    edge = _every_document_kind()["edge"]
    subclass = [[np.float64(1.5), 2.0], [0.5, 1e-7]]
    # ints and tuples are orjson's to write; null, NaN and float subclasses are json's
    for items, fallback in ((edge["pairs_with_non_finite"], True), (edge["pairs_of_ints"], False),
                            (edge["pairs_mixed"], True), (edge["tuple_pairs"], False),
                            (subclass, True)):
        doc = {"dims": [2], "data": items}
        assert _dump_and_path(doc, monkeypatch) == (json.dumps(doc, indent=2), fallback)


# Strings that read like the numbers _respell rewrites, as keys and values:
# a string holds no raw newline, so none of them ends a line as a number does.
_NUMBER_LIKE_STRINGS = ["1e-7", " 0.00001,", "10.00001", "x 1e5", "1e16", "-0.0000123",
                        "0.00001", "x 1e-7\n", " 0.00001\n", "e-7", "e16,", ".00001"]


def test_dump_leaves_number_like_strings_alone(monkeypatch):
    docs = [
        {s: s for s in _NUMBER_LIKE_STRINGS},
        {s: [1e-7, s, [2.5e-5, s], {s: 1e16}] for s in _NUMBER_LIKE_STRINGS},
        _NUMBER_LIKE_STRINGS + [1e-7, 2.5e-5, 1e16, 10.00001, -0.00001],
        *_NUMBER_LIKE_STRINGS,
    ]
    for doc in docs:
        assert _dump_and_path(doc, monkeypatch) == (json.dumps(doc, indent=2), False)


# a top-level scalar in each spelling: unchanged (< 1e-9, >= 1e-4 and
# < 1e16, signed zero), exponent zero-padded (1e-9 <= |x| < 1e-5), signed
# exponent (>= 1e16) and positional to exponent (1e-5 <= |x| < 1e-4)
_SPELLING_FORMS = [3e-17, 1e-10, 9.99e-10, 1e-9, 1e-7, 3.25e-6, 9.999e-6, 1e-5, 2.5e-5,
                   1.234567e-5, 9.99e-5, 1e-4, 0.5, 10.00001, 1e15, 9999999999999998.0,
                   1e16, 1.5e17, 1.7976931348623157e308, 5e-324, 0.0, -0.0, 7, -3, True]


@pytest.mark.parametrize("x", _SPELLING_FORMS + [-x for x in _SPELLING_FORMS if isinstance(x, float)])
def test_dump_spells_top_level_scalars_as_json_does(x, monkeypatch, tmp_path):
    assert _dump_and_path(x, monkeypatch) == (json.dumps(x, indent=2), False)
    path = tmp_path / "x.json"
    jsonio.dump_json(x, path)
    assert path.read_bytes() == json.dumps(x, indent=2).encode() + b"\n"


# documents orjson refuses, or writes otherwise than json: each goes to json
_FALLBACK_DOCUMENTS = {
    "nan": [1.0, math.nan], "infinity": {"x": [math.inf, -math.inf]}, "none": {"x": None},
    "non-ascii": {"name": "d\u00fcr"}, "non-ascii key": {"\u03c8": 1.0},
    "astral": ["\U0001d4aa"], "del": ["a\x7fb"], "lone surrogate": ["\ud800"],
    "int 2**64": [2**64], "int below -2**63": [-(2**63) - 1], "np.float64": [np.float64(2.5e-5)],
    "float subclass": {"x": type("F", (float,), {})(1e-7)},
    "int subclass": [type("I", (int,), {})(7)], "str subclass": [type("S", (str,), {})("a")],
    "dict subclass": [OrderedDict(x=1e-7)], "list subclass": {"x": type("L", (list,), {})([1e16])},
    "int keys": {1: 1e-7, 2: 2.5e-5},
    "float and bool keys": {1.5: 1e16, True: 0.0, None: 1.0}, "nested None": [[[[[[[[[[None]]]]]]]]]],
    "nested past orjson's limit": functools.reduce(lambda x, _: [x], range(300), 1e-7),
    "top-level nan": math.nan, "top-level none": None, "top-level non-ascii": "\u00e9",
}


@pytest.mark.parametrize("name", list(_FALLBACK_DOCUMENTS))
def test_dump_sends_what_orjson_cannot_write_to_json(name, monkeypatch, tmp_path):
    doc = _FALLBACK_DOCUMENTS[name]
    assert _dump_and_path(doc, monkeypatch) == (json.dumps(doc, indent=2), True)
    path = tmp_path / "doc.json"
    jsonio.dump_json(doc, path)
    assert path.read_bytes() == json.dumps(doc, indent=2).encode() + b"\n"


def test_dump_writes_enum_and_uuid_members_json_rejects():
    # the one declared difference from json.dumps: orjson writes these
    Color = enum.Enum("Color", {"RED": 1e-7})
    for doc, text in (({"x": Color.RED}, '{\n  "x": 1e-07\n}'),
                      ([uuid.UUID(int=5)], '[\n  "00000000-0000-0000-0000-000000000005"\n]')):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        assert jsonio.dump_json(doc) == text


_json_floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
_json_pair_lists = st.lists(st.lists(_json_floats, min_size=2, max_size=2), max_size=6)
_json_scalars = st.none() | st.booleans() | st.integers() | _json_floats | st.text(max_size=8)


@settings(max_examples=200, deadline=None)
@given(
    st.recursive(
        _json_scalars | _json_pair_lists,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=24,
    )
)
def test_dump_equals_json_dumps_on_random_documents(doc):
    assert jsonio.dump_json(doc) == json.dumps(doc, indent=2)


def test_dump_rejects_what_json_rejects():
    for doc in ({"x": np.int64(3)}, {(1, 2): 1.0}, [object()], {"x": {1j: 0}}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            jsonio.dump_json(doc)


def _strict(value, types):
    if type(value) not in types:  # type(True) is bool, not int
        raise ValueError(f"not a JSON {types}: {value!r}")
    return value


def _per_entry_matrix_from_json(obj):
    """The per-entry parser that matrix_from_json replaced, kept as its oracle,
    made strict: dims are JSON integers and each entry a list of two JSON
    numbers, so booleans, strings and objects are rejected, not converted."""
    if not isinstance(obj, dict) or "dims" not in obj or "data" not in obj:
        raise ValueError("matrix JSON must contain 'dims' and 'data'")
    dims = tuple(_strict(d, (int,)) for d in obj["dims"])
    side = math.prod(dims)
    data = obj["data"]
    if len(data) != side * side:
        raise ValueError("wrong entry count")
    pairs = [_strict(entry, (list,)) for entry in data]
    number = (int, float)
    flat = np.array(
        [complex(float(_strict(re, number)), float(_strict(im, number))) for re, im in pairs],
        dtype=complex,
    )
    return MultipartiteOperator(dims, flat.reshape(side, side))


_GOOD_ENTRIES = [[1.0, 0.0], [0.5, -0.0], [5e-324, 2], [-3, 1e300]]
_ENTRY_CORPUS = [
    [1.0],
    [],
    [1.0, 2.0, 3.0],
    None,
    7,
    1.5,
    True,
    "12",
    "1x",
    "1",
    "123",
    [True, False],
    ["1", "2.5"],
    ["nan", 0.0],
    [None, 1.0],
    [[1.0], [2.0]],
    [1e999, 0.0],
    [10**400, 0.0],
    {"1": 0.0, "2": 0.0},
    {"re": 1.0, "im": 0.0},
    {"1": 0.0},
]
_DOCUMENT_CORPUS = (
    [{"dims": [2], "data": _GOOD_ENTRIES}]
    + [{"dims": [2], "data": _GOOD_ENTRIES[:3] + [entry]} for entry in _ENTRY_CORPUS]
    + [
        {"dims": [2], "data": _GOOD_ENTRIES[:3]},
        {"dims": [2], "data": "abcd"},
        {"dims": [2], "data": {"12": 0, "34": 0, "56": 0, "78": 0}},
        {"dims": [2], "data": 4},
        {"dims": [1], "data": "12"},
        {"dims": ["2"], "data": _GOOD_ENTRIES},
        {"dims": [2.7], "data": _GOOD_ENTRIES},
        {"dims": [True, 2], "data": _GOOD_ENTRIES},
        {"dims": [0], "data": []},
        {"dims": [2, None], "data": _GOOD_ENTRIES},
        {"dims": [2, 1e999], "data": _GOOD_ENTRIES},
        {"dims": [math.nan], "data": _GOOD_ENTRIES},
        {"dims": 2, "data": _GOOD_ENTRIES},
        {"dims": [2]},
        [[1.0, 0.0]],
    ]
)


# the strict oracle rejects cases 8, 12, 13, 19, 24 and 27-29, which the
# lenient one accepted: "12" as 1+2j, booleans, numeric strings, an object's
# keys, and dims "2", 2.7 and true ("nan", case 14, was read and then refused
# as not finite)
@pytest.mark.parametrize("doc", _DOCUMENT_CORPUS, ids=range(len(_DOCUMENT_CORPUS)))
def test_matrix_from_json_accepts_exactly_what_the_per_entry_parser_did(doc):
    try:
        expected = _per_entry_matrix_from_json(doc)
    except (ValueError, TypeError, OverflowError):
        expected = None
    if expected is None:  # rejected, and as an error jsonio turns into SchemaError
        with pytest.raises((ValueError, TypeError)):
            matrix_from_json(doc)
        with pytest.raises(SchemaError):
            jsonio._matrix(doc, "corpus")
    else:
        got = matrix_from_json(doc)
        assert got.dims == expected.dims
        assert np.array_equal(got.mat, expected.mat)
        assert np.array_equal(np.signbit(got.mat.view(float)), np.signbit(expected.mat.view(float)))


def test_matrix_to_json_matches_per_entry_floats():
    mat = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    mat.reshape(-1)[: len(SPECIAL_FLOATS)] = np.array(SPECIAL_FLOATS) * (1 - 1j)
    x = MultipartiteOperator((3, 3), mat)
    per_entry = [[float(v.real), float(v.imag)] for v in x.mat.reshape(-1)]
    data = jsonio.matrix_to_json(x)["data"]
    assert json.dumps(data) == json.dumps(per_entry)
    assert all(type(v) is float for pair in data for v in pair)


# -- the reader: orjson, and json for what orjson refuses ---------------------


def _json_reader(path):
    """The reader load_json replaced: json alone, on the text."""
    return json.loads(Path(path).read_text())


def _assert_reads_like_json(path, expected=None):
    if expected is None:
        expected = _json_reader(path)
    # repr tells 1 from 1.0 and -0.0 from 0.0, and spells every float exactly
    assert repr(jsonio.load_json(path)) == repr(expected)


def _beyond_64_bits(v) -> bool:
    return type(v) is int and not -(2**63) <= v < 2**64


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0,
                       1.7976931348623157e308, -1.7976931348623157e308]),
    min_size=1, max_size=8,
))
def test_load_json_reads_every_finite_float_as_json_does(values):
    spellings = [spell % v for v in values for spell in ("%r", "%.17e", "%.25g")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "floats.json"
        path.write_text("[" + ", ".join(spellings) + "]")
        # %.25g spells a large integral float as an integer token; beyond
        # 64 bits orjson reads it as the nearest float, not as an int
        expected = [float(v) if _beyond_64_bits(v) else v for v in _json_reader(path)]
        _assert_reads_like_json(path, expected)


def test_load_json_reads_written_files_as_json_does(tmp_path):
    for path in sorted(Path(__file__).parent.joinpath("data").rglob("*.json")):
        _assert_reads_like_json(path)
    choi = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    docs = {
        "choi_d4.json": jsonio.superchannel_to_json(super_choi(choi, (4, 4, 4, 4))),
        "do_d6.json": jsonio.params_to_json(random_do_params(rng, 6)),
    }
    for name, doc in docs.items():
        jsonio.dump_json(doc, tmp_path / name)
        _assert_reads_like_json(tmp_path / name)


def test_integers_beyond_64_bits_read_as_floats(tmp_path, capsys):
    path = tmp_path / "ints.json"
    path.write_text("[18446744073709551615, 18446744073709551616,"
                    " -9223372036854775808, -9223372036854775809]")
    got = jsonio.load_json(path)
    assert [type(v) for v in got] == [int, float, int, float]
    assert got == [2**64 - 1, 2.0**64, -(2**63), -(2.0**63)]
    doc = jsonio.params_to_json(du_identity(2))
    doc["d"] = 2**64
    path.write_text(json.dumps(doc))
    assert main(["validate", "du", str(path)]) == 2
    assert capsys.readouterr().out.splitlines()[1] == "error: d must be a JSON integer, not float"


_CRLF_SYNTAX_ERROR = b'{\r\n  "pi": [\r\n    [1, 0,, 0]\r\n  ]\r\n}\r\n'
# inputs orjson refuses, each read by json as before
_REFUSED_BY_ORJSON = {
    "nan": b'{"pi": [[NaN, 0], [0, 1]]}',
    "infinity": b'{"pi": [[Infinity, 0], [0, -Infinity]]}',
    "overflow": b'{"pi": [[1e400, 0], [0, 1]]}',
    "lone-surrogate": b'{"pi": "\\ud800"}',
    "bom": b'\xef\xbb\xbf{"pi": [[1, 0], [0, 1]]}',
    "bad-utf8": b'{"pi": "\xff"}',
    "empty": b"",
    "trailing-data": b'{"pi": [[1, 0], [0, 1]]} []',
    "crlf-syntax-error": _CRLF_SYNTAX_ERROR,
}


@pytest.mark.parametrize("name", list(_REFUSED_BY_ORJSON))
def test_cli_reports_what_orjson_refuses_as_json_alone_did(name, tmp_path, capsys, monkeypatch):
    path = tmp_path / f"{name}.json"
    path.write_bytes(_REFUSED_BY_ORJSON[name])
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(path.read_bytes())
    code = main(["validate", "pauli", str(path)])
    out = capsys.readouterr().out
    monkeypatch.setattr(jsonio, "load_json", _json_reader)
    assert (code, out) == (main(["validate", "pauli", str(path)]), capsys.readouterr().out)


def test_crlf_parse_error_keeps_json_line_and_column(tmp_path, capsys):
    path = tmp_path / "crlf.json"
    path.write_bytes(_CRLF_SYNTAX_ERROR)
    assert main(["validate", "pauli", str(path)]) == 2
    assert capsys.readouterr().out.splitlines()[1] == (
        f"error: {path}: parse error at line 3, column 11"
    )
