import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from superchan import jsonio
from superchan.channels import (ChoiChannel, amplitude_damping, bit_flip, compose_channels,
                                holevo_werner, pauli_channel)
from superchan.cli import default_du_params, main
from superchan.dephasing import dephasing_from_realization
from superchan.do import DOSuperParams
from superchan.du import DUSuperParams
from superchan.jsonio import SchemaError
from superchan.linalg import MultipartiteOperator
from superchan.pauli import PauliSuperParams, pauli_super_choi
from superchan.positions import TableParams, compose_tables
from superchan.superchannels import SuperChoi, apply_to_channel, compose_superchannels

from helpers import (
    as_lists,
    du_identity,
    from_du_params,
    identity_superchannel,
    operator,
    pauli_to_json,
    random_channel,
    random_do_params,
    random_hermitian_du_params,
    random_realization,
)

rng = np.random.default_rng(43)


def _written(doc, tmp_path):
    """doc as the CLI reads it back: dump_json's file, parsed."""
    path = tmp_path / "doc.json"
    jsonio.dump_json(doc, path)
    return orjson.loads(path.read_bytes())


def test_channel_round_trip(tmp_path):
    ch = amplitude_damping(0.3)
    again = jsonio.channel_from_json(_written(jsonio.channel_to_json(ch), tmp_path))
    assert np.array_equal(again.mat, ch.mat)
    assert (again.d_in, again.d_out) == (2, 2)


def test_superchannel_round_trip(tmp_path):
    s = identity_superchannel(2, 3)
    again = jsonio.superchannel_from_json(_written(jsonio.superchannel_to_json(s), tmp_path))
    assert again.dims == (2, 3, 2, 3)
    assert np.array_equal(again.mat, s.mat)


def test_du_params_round_trip(tmp_path):
    p = random_hermitian_du_params(rng, 2)
    again = jsonio.params_from_json(_written(jsonio.params_to_json(p), tmp_path), "du")
    for name in "ABCD":
        assert np.array_equal(getattr(again, name), getattr(p, name))


def test_du_params_support_mask_rejected_on_load():
    p = random_hermitian_du_params(rng, 2)
    doc = as_lists(jsonio.params_to_json(p))
    doc["B"]["data"][0] = [1.0, 0.0]  # B may not have weight at (0, 0)
    with pytest.raises(SchemaError):
        jsonio.params_from_json(doc, "du")


def test_dephasing_round_trip(tmp_path):
    p = dephasing_from_realization(*random_realization(rng, 2, 3))
    again = jsonio.params_from_json(_written(jsonio.params_to_json(p), tmp_path), "dephasing")
    assert np.array_equal(again.M_big, p.M_big)


def test_pauli_round_trip_and_validation():
    p = PauliSuperParams(rng.dirichlet(np.ones(16)).reshape(4, 4))
    again = jsonio.pauli_from_json(pauli_to_json(p))
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


def test_schema_errors_carry_context(tmp_path):
    with pytest.raises(SchemaError, match="missing keys"):
        jsonio.channel_from_json({"d_in": 2})
    with pytest.raises(SchemaError, match="do not match"):
        doc = _written(jsonio.channel_to_json(amplitude_damping(0.1)), tmp_path)
        doc["d_in"] = 3
        jsonio.channel_from_json(doc)


def _record_doc(kind, dims, entries, declared):
    matrix = {"dims": list(dims), "data": [[x, 0.0] for x in entries]}
    if kind == "channel":
        return {"d_in": declared[0], "d_out": declared[1], "choi": matrix}
    return {"dims": dict(zip(("A0", "A1", "B0", "B1"), declared)), "choi": matrix}


@pytest.mark.parametrize("kind, dims, declared, fault, message", [
    ("channel", (2, 2), (2, 2), None, None),
    ("channel", (2, 2), (2, 3), None, "choi dims (2, 2) do not match d_in=2, d_out=3"),
    ("channel", (2, 2, 1), (2, 2), None, "choi dims (2, 2, 1) do not match d_in=2, d_out=2"),
    ("channel", (-2, -2), (2, 2), None, "bad matrix for channel choi: subsystem dimensions "
     "must be positive, got (-2, -2)"),
    ("channel", (4,), (2, 2), np.inf, "bad matrix for channel choi: matrix entries must be "
     "finite (no NaN/Inf)"),
    ("superchannel", (1, 2, 2, 1), (1, 2, 2, 1), None, None),
    ("superchannel", (2, 1, 1, 2), (1, 2, 2, 1), None,
     "choi dims (2, 1, 1, 2) do not match declared (1, 2, 2, 1)"),
    ("superchannel", (2, 2), (1, 2, 2, 1), None,
     "choi dims (2, 2) do not match declared (1, 2, 2, 1)"),
    ("superchannel", (2, 1, 1, 2), (1, 2, 2, 1), np.nan, "bad matrix for superchannel choi: "
     "matrix entries must be finite (no NaN/Inf)"),
])
def test_record_documents_report_their_first_fault(kind, dims, declared, fault, message):
    # the matrix's own faults come before a mismatch of its dims with the
    # declared ones, which comes before the record's check of its dims length
    entries = np.arange(16.0)
    if fault is not None:
        entries[5] = fault
    doc = _record_doc(kind, dims, entries.tolist(), declared)
    if message is None:
        rec = jsonio.from_json(doc, kind)
        assert type(rec).__name__ == ("ChoiChannel" if kind == "channel" else "SuperChoi")
        assert rec.dims == declared and rec.mat.tobytes() == entries.astype(complex).tobytes()
    else:
        with pytest.raises(SchemaError) as err:
            jsonio.from_json(doc, kind)
        assert str(err.value) == message


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
            "dephasing": jsonio.params_to_json, "pauli": pauli_to_json}


@pytest.mark.parametrize("kind", list(_TO_JSON))
def test_from_json_round_trips_every_detected_kind(kind):
    gen = np.random.default_rng(11)
    du = random_hermitian_du_params(gen, 2)
    mat = gen.normal(size=(16, 16)) + 1j * gen.normal(size=(16, 16))
    obj = {
        "superchannel": SuperChoi((2, 2, 2, 2), mat),
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
        "superchannel": jsonio.superchannel_to_json(SuperChoi((2, 2, 2, 2), mat)),
        "channel": jsonio.channel_to_json(random_channel(rng, 2, 3)),
        "du": jsonio.params_to_json(du),
        "do": jsonio.params_to_json(from_du_params(du)),
        "dephasing": jsonio.params_to_json(dephasing_from_realization(us, vs, psi)),
        "pauli": pauli_to_json(PauliSuperParams(rng.dirichlet(np.ones(16)).reshape(4, 4))),
        "realization": {
            "e": 3,
            "U": [jsonio._matrix_doc(u.shape[:1], u) for u in us],
            "V": [jsonio._matrix_doc(v.shape[:1], v) for v in vs],
            "psi": [[float(z.real), float(z.imag)] for z in psi],
        },
    }
    docs["pauli"]["pi"][0] = SPECIAL_FLOATS[:4]
    docs = {kind: _with_special_values(as_lists(doc)) for kind, doc in docs.items()}
    docs["edge"] = {
        "empty_object": {},
        "empty_list": [],
        "nested_empty": [{}, [], [[]]],
        "name": "Choi \"q\"\\n\t\x00",
        "flags": [True, False],
        "pairs_of_ints": [[1, 2], [3, 4]],
        "pairs_mixed": [[1.0, 2], [True, 0.5], ["a", "b"]],
        "ragged_pairs": [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]],
        "integer_dims": [2, 3, 2**63 - 1, -(2**63)],
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


@functools.cache
def _valid_table_params() -> dict:
    """d = 6 DU and sign-symmetric tables of valid superchannels, drawn by
    tools/cli_identity.superchannel_tables (seed 5).  Some of their numbers,
    and thousands of their compositions', lie in 1e-9 <= |x| < 1e-4, which
    the writer respells."""
    tools = Path(__file__).resolve().parent.parent / "tools"
    # the module pins BLAS threads in os.environ and puts perfbench on sys.path
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(tools), *sys.path]):
        import cli_identity
        from inputs import DO_TABLES, DU_TABLES
    gen = np.random.default_rng(5)
    return {cls.__name__: cls(6, **cli_identity.superchannel_tables(gen, 6, names))
            for cls, names in ((DUSuperParams, DU_TABLES), (DOSuperParams, DO_TABLES))}


def _class_boundaries() -> np.ndarray:
    """Each edge of the writer's spelling classes, 1e-9, 1e-5, 1e-4 and
    1e16, with both signs, beside its two neighbouring floats: a class bound
    one ulp off, or a mask that leaves one of them out, spells one of them
    otherwise than json does."""
    edges = np.array([1e-9, 1e-5, 1e-4, 1e16])
    edges = np.concatenate([edges, -edges])
    return np.stack([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)], 1).ravel()


def _spelling_document(case: str) -> dict:
    if case == "random bits":
        values = _float_spelling_cases()
        return {"dims": [len(values) // 2], "data": values.reshape(-1, 2)}
    if case == "class boundaries":  # repeated, so they are spelled in bulk, not by repr
        values = np.tile(_class_boundaries(), 5)
        a = np.abs(values)
        assert np.count_nonzero((a >= 1e-9) & (a < 1e-4) | (a >= 1e16)) > jsonio._FEW
        return {"dims": [len(values) // 2], "data": values.reshape(-1, 2), "row": values.copy()}
    p = _valid_table_params()[case.split()[0]]
    # composed with itself, as `compose` writes it: thousands of small numbers
    return jsonio.params_to_json(compose_tables(p, p) if case.endswith("composed") else p)


def _line_differences(ours: str, theirs: str) -> list:
    """The first few differing lines of two texts, and their line counts if
    they differ: a handful of lines, not a diff of two 10 MB texts."""
    ours, theirs = ours.splitlines(), theirs.splitlines()
    counts = [(len(ours), len(theirs))] if len(ours) != len(theirs) else []
    return [(a, b) for a, b in zip(ours, theirs) if a != b][:5] + counts


@pytest.mark.parametrize("case", ["random bits", "class boundaries", "DUSuperParams",
                                  "DOSuperParams", "DUSuperParams composed",
                                  "DOSuperParams composed"])
def test_bulk_writer_spells_every_float_as_json_does(case):
    # the writer spells each number by the class of its value, and orjson
    # writes the rest; a change to orjson's float spelling in a later
    # release must show here.  Each document is written as lists and as
    # float64 arrays, from their buffer
    arrays = _spelling_document(case)
    doc = as_lists(arrays)
    if case not in ("random bits", "class boundaries"):
        numbers = np.concatenate([m["data"].reshape(-1) for m in arrays.values()
                                  if isinstance(m, dict)])
        assert np.count_nonzero((np.abs(numbers) >= 1e-9) & (np.abs(numbers) < 1e-4)) > 50
    theirs = json.dumps(doc, indent=2)
    for written in (doc, arrays):
        assert _line_differences(jsonio.dump_json(written), theirs) == []


_ARRAY_SPECIALS = np.concatenate([
    [-0.0, 5e-324, 1e-5, 9.99e-5, 1e16, 1.7976931348623157e308, -1.7976931348623157e308,
     0.0, 1e-7, -2.5e-5, 0.1],
    _class_boundaries(),
])


@pytest.mark.parametrize("doc", [
    _ARRAY_SPECIALS,
    _ARRAY_SPECIALS[:-1].reshape(-1, 2),
    {"dims": [17], "data": _ARRAY_SPECIALS[:-1].reshape(-1, 2),
     "rows": [_ARRAY_SPECIALS[::-1].copy()]},
    _ARRAY_SPECIALS[:8].reshape(2, 2, 2),
    np.zeros((0, 2)),
    np.zeros((3, 0)),
], ids=["1-d", "pairs", "nested", "3-d", "empty", "empty rows"])
def test_float64_arrays_dump_as_their_lists(doc, tmp_path):
    twin = as_lists(doc) if isinstance(doc, dict) else doc.tolist()
    assert jsonio.dump_json(doc) == json.dumps(twin, indent=2)
    path = tmp_path / "doc.json"
    jsonio.dump_json(doc, path)
    assert path.read_bytes() == json.dumps(twin, indent=2).encode() + b"\n"


# fillers of lines k and k + 1 bytes long: numbers the writer leaves alone,
# so the text holds a few nulls and the splice finds them by numpy; or
# mostly respelled ones, whose lines read "  null,\n", so the splice splits
# the text chunk by chunk
_FILLERS = {"sparse": (0.1234567890123456, 0.12345678901234568), "dense": (3e-7, 0.125)}
_RESPELLED = [1e-7, 1e16, 1.23e-5, 3e-7]  # the probes, and the dense filler


def _chunk_boundary_values(layout: str) -> tuple[np.ndarray, list]:
    """A float64 array whose indent=2 text, with the numbers the writer
    respells written as null, spans ten chunks of the splice: a number of
    each respelled class (a zero-padded exponent, a "+" exponent, positional
    to exponent) just after a cut, ending the chunk before a cut (the cut's
    search starting inside its null or on its newline), and one line before
    a cut.  Returns the values and the planned (null offset, cut offset)
    pairs."""
    short, long = _FILLERS[layout]
    values, plan = [], []
    offset = 2  # after "[\n"

    def line(v):  # "  <token>,\n", the token of a respelled number being null
        return len("null" if v in _RESPELLED else repr(v)) + 4

    k = line(short)
    assert line(long) == k + 1

    def fill_to(start):  # filler lines that end exactly at start
        nonlocal offset
        gap = start - offset
        longs = gap % k
        values.extend([long] * longs + [short] * ((gap - (k + 1) * longs) // k))
        offset = start

    def put(v):
        nonlocal offset
        values.append(v)
        offset += line(v)
        return offset - line(v)

    # whatever rule cuts the text, its first cut is searched for from
    # _CHUNK, so the first case puts that byte inside a null
    cases = [(1e-7, "on", 4), (1e-7, "before", 3), (1e-7, "after", 0),
             (1e16, "before", 3), (1e16, "on", 2), (1e16, "after", 0),
             (1.23e-5, "before", 3), (1.23e-5, "on", 7), (1.23e-5, "after", 0)]
    pos = 0
    for number, where, shift in cases:
        # the byte at pos + _CHUNK is where the search for the cut's newline starts
        target = pos + jsonio._CHUNK
        if where == "before":  # target on the filler line just before the number
            fill_to(target - shift)
            put(long)
            start = cut = put(number)
        elif where == "on":  # target on byte `shift` of the number's own line
            fill_to(target - shift)
            start = put(number)
            cut = offset
        else:  # target on the first byte of the line after the number's
            fill_to(target - line(number))
            start = put(number)
            put(long)
            cut = offset
        plan.append((start, cut))
        pos = cut
    fill_to(offset + jsonio._CHUNK // 2)
    return np.array(values), plan


@pytest.mark.parametrize("layout", list(_FILLERS))
def test_splice_cuts_fall_around_every_spelling_class(layout):
    values, plan = _chunk_boundary_values(layout)
    marked = np.where(np.isin(values, _RESPELLED), np.nan, values)
    raw = orjson.dumps(marked, option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY)
    cuts, pos = [], 0  # the rule the splice cuts by, on the text orjson writes
    while pos < len(raw):
        pos = raw.find(b"\n", pos + jsonio._CHUNK) + 1 or len(raw)
        cuts.append(pos)
    assert [cut for _, cut in plan] == cuts[:-1]
    assert [raw[start:raw.index(b"\n", start)] for start, _ in plan] == [b"  null,"] * 9
    # one null per 8 to 9 bytes, or fewer than one per 100,000
    assert (len(raw) < 9 * np.isnan(marked).sum()) == (layout == "dense")
    twin = values.tolist()
    assert _line_differences(jsonio.dump_json(values), json.dumps(twin, indent=2)) == []
    # where a string holds "null", the nulls are told apart first; and a
    # "u" in the text's last bytes starts no null
    doc = {"null": values, "menu": "nu"}
    assert _line_differences(jsonio.dump_json(doc), json.dumps({**doc, "null": twin}, indent=2)) == []


def test_matrix_data_takes_the_bulk_path():
    gen = np.random.default_rng(8)
    mat = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    mat.reshape(-1)[:5] = [3e-17 - 1e-17j, 2.5e-5 + 7e-5j, 1e16 - 3.2e17j,
                           complex(-0.0, 0.0), complex(0.0, -0.0)]
    doc = jsonio._matrix_doc((4,), mat)
    twin = as_lists(doc)
    assert jsonio.dump_json(doc) == json.dumps(twin, indent=2)
    assert twin["data"][3] == [-0.0, 0.0] and math.copysign(1, twin["data"][3][0]) < 0


# Strings that read like the numbers the writer respells, as keys and values.
_NUMBER_LIKE_STRINGS = ["1e-7", " 0.00001,", "10.00001", "x 1e5", "1e16", "-0.0000123",
                        "0.00001", "x 1e-7\n", " 0.00001\n", "e-7", "e16,", ".00001"]


def test_dump_leaves_number_like_strings_alone():
    docs = [
        {s: s for s in _NUMBER_LIKE_STRINGS},
        {s: [1e-7, s, [2.5e-5, s], {s: 1e16}] for s in _NUMBER_LIKE_STRINGS},
        _NUMBER_LIKE_STRINGS + [1e-7, 2.5e-5, 1e16, 10.00001, -0.00001],
        *_NUMBER_LIKE_STRINGS,
    ]
    for doc in docs:
        assert jsonio.dump_json(doc) == json.dumps(doc, indent=2)


# a top-level scalar in each spelling: unchanged (< 1e-9, >= 1e-4 and
# < 1e16, signed zero), exponent zero-padded (1e-9 <= |x| < 1e-5), signed
# exponent (>= 1e16) and positional to exponent (1e-5 <= |x| < 1e-4)
_SPELLING_FORMS = [3e-17, 1e-10, 9.99e-10, 1e-9, 1e-7, 3.25e-6, 9.999e-6, 1e-5, 2.5e-5,
                   1.234567e-5, 9.99e-5, 1e-4, 0.5, 10.00001, 1e15, 9999999999999998.0,
                   1e16, 1.5e17, 1.7976931348623157e308, 5e-324, 0.0, -0.0, 7, -3, True]


def test_dump_cuts_only_at_null_tokens():
    # keys and strings that hold "null", beside respelled numbers: the
    # splice cuts only at the null tokens it wrote
    arrays = {
        "null": "a null, b",
        "null,": ["null", 1e-7, "null,", 2.5e-5, "x null", 1e16, "nullnull\n", -3e-6],
        "data": np.array([[1e-5, 0.5], [-7.5e-7, 1.5e17], [0.25, -9.99e-5]]),
        "nested": [{"null": 2.5e-5, "\x00null": "\x00"}, {"a": [1e-7, "null"]}],
        "last": "null",
    }
    doc = as_lists(arrays)
    for written in (doc, arrays):
        assert jsonio.dump_json(written) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("x", _SPELLING_FORMS + [-x for x in _SPELLING_FORMS if isinstance(x, float)])
def test_dump_spells_top_level_scalars_as_json_does(x, tmp_path):
    assert jsonio.dump_json(x) == json.dumps(x, indent=2)
    path = tmp_path / "x.json"
    jsonio.dump_json(x, path)
    assert path.read_bytes() == json.dumps(x, indent=2).encode() + b"\n"


# a document of dump_json's contract: finite floats, ints within 64 bits,
# booleans, printable-ASCII strings and keys, lists, dicts, and (n, 2)
# float64 arrays, which orjson writes from their buffers
_finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)
_ascii = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e), max_size=8)
_pairs = st.lists(st.lists(_finite_floats, min_size=2, max_size=2), max_size=6)
_pair_arrays = _pairs.map(lambda rows: np.array(rows, dtype=np.float64).reshape(-1, 2))
_scalars = st.booleans() | st.integers(-(2**63), 2**63 - 1) | _finite_floats | _ascii


@settings(max_examples=200, deadline=None)
@given(
    st.recursive(
        _scalars | _pairs | _pair_arrays,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_ascii, inner, max_size=4),
        max_leaves=24,
    )
)
def test_dump_equals_json_dumps_on_random_documents(doc):
    assert jsonio.dump_json(doc) == json.dumps(as_lists(doc), indent=2)


def _cli_outputs() -> dict:
    """What each command that writes an artifact builds it from: every
    compose route, apply on the Choi route (a Choi file, a Pauli table) and
    on the table route, and the example channels."""
    gen = np.random.default_rng(17)
    du = random_hermitian_du_params(gen, 2)
    do = from_du_params(du)
    dephasing = dephasing_from_realization(*random_realization(gen, 2, 3))
    s = SuperChoi((2, 2, 2, 2), gen.normal(size=(16, 16)) + 1j * gen.normal(size=(16, 16)))
    pauli = pauli_super_choi(PauliSuperParams(gen.dirichlet(np.ones(16)).reshape(4, 4)))
    ch = random_channel(gen, 2)
    default = default_du_params()
    return {
        "compose du": compose_tables(du, du),
        "compose do": compose_tables(do, do),
        "compose dephasing": compose_tables(dephasing, dephasing),
        "compose superchannel": compose_superchannels(s, s),
        "compose channel": compose_channels(ch, ch),
        "apply choi": apply_to_channel(s, ch),
        "apply pauli": apply_to_channel(pauli, ch),
        "apply du": apply_to_channel(du, ch),
        "apply do": apply_to_channel(do, ch),
        "apply dephasing": apply_to_channel(dephasing, ch),
        "example holevo-werner": holevo_werner(3),
        "example amplitude-damping": apply_to_channel(default, amplitude_damping(0.3)),
        "example bit-flip": apply_to_channel(default, bit_flip(0.2)),
        "example pauli": apply_to_channel(default, pauli_channel([0.4, 0.3, 0.2, 0.1])),
    }


def _leaves(doc):
    if isinstance(doc, dict):
        assert all(type(k) is str and k.isascii() for k in doc), list(doc)
        for value in doc.values():
            yield from _leaves(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value)
    else:
        yield doc


def _document(out) -> dict:
    """The artifact document a command writes for out."""
    if isinstance(out, TableParams):
        return jsonio.params_to_json(out)
    return {ChoiChannel: jsonio.channel_to_json, SuperChoi: jsonio.superchannel_to_json}[type(out)](out)


@pytest.mark.parametrize("name", list(_cli_outputs()))
def test_cli_documents_hold_only_what_dump_json_writes(name):
    # dump_json's contract: a numpy scalar or a None here would be written
    # as a number or as null, not refused
    doc = _document(_cli_outputs()[name])
    leaves = list(_leaves(doc))
    arrays = [v for v in leaves if type(v) is np.ndarray]
    assert arrays
    for a in arrays:
        assert a.dtype == np.float64 and a.ndim and a.flags.c_contiguous
        assert np.isfinite(a).all()
    ints = [v for v in leaves if type(v) is not np.ndarray]
    assert all(type(v) is int and -(2**63) <= v < 2**63 for v in ints), ints


@pytest.mark.parametrize("name", list(_cli_outputs()))
def test_cli_documents_round_trip_through_their_files(name, tmp_path):
    # written, read back and parsed as the CLI does, each artifact gives back
    # the same object: the same kind, and the same bytes when written again
    out = _cli_outputs()[name]
    path = tmp_path / "artifact.json"
    text = jsonio.dump_json(_document(out), path)
    back = jsonio.load_json(path)
    kind = "channel" if isinstance(out, ChoiChannel) else "superchannel"
    if isinstance(out, TableParams):
        kind = next(k for k, cls in jsonio.TABLE_KINDS.items() if type(out) is cls)
    assert jsonio.detect_kind(back) == kind
    again = jsonio.from_json(back, kind)
    assert type(again) is type(out)
    assert jsonio.dump_json(_document(again)) == text
    assert path.read_bytes() == text.encode() + b"\n"


@pytest.mark.parametrize("kind", ["channel", "superchannel", "du", "do", "dephasing"])
def test_readers_refuse_array_data_not_read_from_text(kind):
    # a document as built, its matrix data float64 arrays, is not parsed
    # JSON: its entries are numpy floats, not JSON numbers
    gen = np.random.default_rng(3)
    du = random_hermitian_du_params(gen, 2)
    obj = {
        "channel": random_channel(gen, 2),
        "superchannel": identity_superchannel(2, 2),
        "du": du,
        "do": from_du_params(du),
        "dephasing": dephasing_from_realization(*random_realization(gen, 2, 3)),
    }[kind]
    doc = _document(obj)
    assert jsonio.detect_kind(doc) == kind
    with pytest.raises(SchemaError, match="pairs of numbers"):
        jsonio.from_json(doc, kind)
    assert type(jsonio.from_json(orjson.loads(jsonio.dump_json(doc)), kind)) is type(obj)


# documents outside dump_json's contract: each raises TypeError before the
# file is opened, so an existing artifact is kept
_REFUSED_DOCUMENTS = {
    "int keys": {1: 1e-7, 2: 2.5e-5},
    "tuple key": {(1, 2): 1.0},
    "int 2**64": [2**64],
    "int below -2**63": [-(2**63) - 1],
    "lone surrogate": ["\ud800"],
    "object": [object()],
    "complex array": {"x": np.zeros(2, dtype=complex)},
    "not contiguous": (np.arange(12.0) * 1e-7).reshape(3, 4)[:, ::2],
    "0-d array": np.array(2.5e-5),
    "nested past orjson's limit": functools.reduce(lambda x, _: [x], range(300), 1e-7),
    "nested past Python's recursion limit": functools.reduce(lambda x, _: [x], range(5000), 1.0),
    "set": {"x": {1.0}},
    "big-endian": {"data": np.array([[1e-7, 0.5]], dtype=">f8")},
    "float32": {"data": np.array([[0.1, 2.5e-5]], dtype=np.float32)},
    "int64": {"dims": np.array([2, 2])},
    "F-ordered": np.asfortranarray(np.arange(6.0).reshape(3, 2)),
    "NaN": [0.5, float("nan")],
    "NaN in an array": np.array([0.5, np.nan]),
    "infinity": {"x": -math.inf},
    "infinity in an array": np.array([[1.0, np.inf]]),
    "None": {"d": None},
}


@pytest.mark.parametrize("name", list(_REFUSED_DOCUMENTS))
def test_dump_refuses_what_orjson_cannot_write_and_keeps_the_file(name, tmp_path):
    path = tmp_path / "artifact.json"
    path.write_bytes(b"{}\n")
    with pytest.raises(TypeError):
        jsonio.dump_json(_REFUSED_DOCUMENTS[name], path)
    assert path.read_bytes() == b"{}\n"


def _strict(value, types):
    if type(value) not in types:  # type(True) is bool, not int
        raise ValueError(f"not a JSON {types}: {value!r}")
    return value


def _per_entry_matrix_from_json(obj):
    """The per-entry parser that jsonio._matrix replaced, kept as its oracle,
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
        {"dims": [-2], "data": _GOOD_ENTRIES},
        {"dims": [-2, -2], "data": _GOOD_ENTRIES * 4},
    ]
)


# the strict oracle rejects cases 8, 12, 13, 19, 24 and 27-29, which the
# lenient one accepted: "12" as 1+2j, booleans, numeric strings, an object's
# keys, and dims "2", 2.7 and true ("nan", case 14, was read and then refused
# as not finite)
@pytest.mark.parametrize("doc", _DOCUMENT_CORPUS, ids=range(len(_DOCUMENT_CORPUS)))
def test_matrix_reader_accepts_exactly_what_the_per_entry_parser_did(doc):
    try:
        expected = _per_entry_matrix_from_json(doc)
    except (ValueError, TypeError, OverflowError):
        expected = None
    if expected is None:
        with pytest.raises(SchemaError):
            jsonio._matrix(doc, "corpus")
    else:
        dims, mat = jsonio._matrix(doc, "corpus")
        assert dims == expected.dims
        assert np.array_equal(mat, expected.mat)
        assert np.array_equal(np.signbit(mat.view(float)), np.signbit(expected.mat.view(float)))


def test_matrix_writer_matches_per_entry_floats():
    mat = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    mat.reshape(-1)[: len(SPECIAL_FLOATS)] = np.array(SPECIAL_FLOATS) * (1 - 1j)
    x = MultipartiteOperator((3, 3), mat)
    per_entry = [[float(v.real), float(v.imag)] for v in x.mat.reshape(-1)]
    data = jsonio._matrix_doc(x.dims, x.mat)["data"].tolist()
    assert json.dumps(data) == json.dumps(per_entry)
    assert all(type(v) is float for pair in data for v in pair)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(8)
    x = operator(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), (2, 3))
    # read back from the written text, as the CLI reads an artifact
    dims, mat = jsonio._matrix(orjson.loads(jsonio.dump_json(jsonio._matrix_doc(x.dims, x.mat))),
                               "round trip")
    assert dims == x.dims
    assert np.array_equal(mat, x.mat)


def test_matrix_json_errors():
    with pytest.raises(ValueError):
        jsonio._matrix({"dims": [2]}, "errors")
    with pytest.raises(ValueError):
        jsonio._matrix({"dims": [2], "data": [[1.0, 0.0]]}, "errors")


_PAIRS = "matrix JSON data entries must be [re, im] pairs"
_NUMBERS = "matrix JSON data entries must be [re, im] pairs of numbers"
_DIMS = "matrix JSON dims must be integers"
_KEYS = "matrix JSON must contain 'dims' and 'data'"
# the fault each _DOCUMENT_CORPUS document reports, read as any matrix (None:
# the document is a valid matrix)
_CORPUS_FAULTS = [
    None, _PAIRS, _PAIRS, _PAIRS, "object of type 'NoneType' has no len()",
    "object of type 'int' has no len()", "object of type 'float' has no len()",
    "object of type 'bool' has no len()", _NUMBERS, _NUMBERS, _PAIRS, _PAIRS, _NUMBERS,
    _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS, "matrix entries must be finite (no NaN/Inf)",
    "JSON number out of range: int too large to convert to float", _NUMBERS, _NUMBERS,
    _PAIRS, "matrix JSON data has 3 entries, expected 4", _PAIRS, _NUMBERS,
    "object of type 'int' has no len()", "matrix JSON data has 2 entries, expected 1",
    _DIMS, _DIMS, _DIMS, "subsystem dimensions must be positive, got (0,)", _DIMS, _DIMS,
    _DIMS, "'int' object is not iterable", _KEYS, _KEYS,
    "can only specify one unknown dimension",
    "subsystem dimensions must be positive, got (-2, -2)",
]
_ZEROS = {"dims": [2, 2], "data": [[0.0, 0.0]] * 16}


@pytest.mark.parametrize("doc, fault", list(zip(_DOCUMENT_CORPUS, _CORPUS_FAULTS, strict=True)),
                         ids=range(len(_DOCUMENT_CORPUS)))
def test_corpus_documents_report_their_exact_schema_error(doc, fault):
    # each document as the choi of a channel and of a superchannel, and as
    # table A of DU tables: a fault of the matrix is reported before the
    # declared dims or the table side are compared
    reads = {
        "channel": ({"d_in": 1, "d_out": 2, "choi": doc}, "channel choi",
                    "choi dims (2,) do not match d_in=1, d_out=2"),
        "superchannel": ({"dims": {"A0": 1, "A1": 1, "B0": 1, "B1": 2}, "choi": doc},
                         "superchannel choi", "choi dims (2,) do not match declared (1, 1, 1, 2)"),
        "du": ({"d": 2, "A": doc, "B": _ZEROS, "C": _ZEROS, "D": _ZEROS}, "table A",
               "table A must have side 4, got 2"),
    }
    for kind, (obj, what, valid_message) in reads.items():
        with pytest.raises(SchemaError) as err:
            jsonio.from_json(obj, kind)
        assert str(err.value) == (valid_message if fault is None else
                                  f"bad matrix for {what}: {fault}")


@pytest.mark.parametrize("name, built", [
    ("compose du", 0), ("compose do", 0), ("compose dephasing", 0),
    ("compose channel", 1), ("compose superchannel", 1),
])
def test_documents_are_read_with_one_operator_per_record_and_none_per_table(
        name, built, monkeypatch):
    # a record is built once from the parsed matrix; tables go straight to
    # their class, whose constructor makes the one copy of each
    doc = orjson.loads(jsonio.dump_json(_document(_cli_outputs()[name])))
    kind = jsonio.detect_kind(doc)
    calls, init = [], MultipartiteOperator.__init__
    monkeypatch.setattr(MultipartiteOperator, "__init__",
                        lambda self, dims, mat: calls.append(type(self)) or init(self, dims, mat))
    out = jsonio.from_json(doc, kind)
    assert len(calls) == built and calls == [type(out)] * built


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
        "choi_d4.json": jsonio.superchannel_to_json(SuperChoi((4, 4, 4, 4), choi)),
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
    doc = as_lists(jsonio.params_to_json(du_identity(2)))
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
