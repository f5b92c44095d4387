"""JSON schemas and file handling for every object the toolbox exchanges.

All matrices use one format: {"dims": [d1, ..., dn], "data": [[re, im], ...]}
with data row-major over the flattened index, read by _matrix and built by
_matrix_doc, this package's one codec of it.  Files are decoded by orjson,
and by json for what orjson refuses (see load_json).  The documents built
here hold each matrix's data as the read-only (side², 2) float64 view of its
buffer, not as lists.  dump_json writes a document of ASCII str keys, ints
within 64 bits, finite floats, lists, dicts and C-contiguous native float64
arrays, which is every document built here, as
``json.dumps(obj, indent=2)`` writes its list twin: each float in its
shortest round-trip digits, so dump -> load is exact.  orjson writes the
text; the few numbers it spells otherwise than repr are known by their
values, marked before it writes and spelled apart.  NaN, None and arrays of
another dtype, byte order or layout raise TypeError, as they would
otherwise be written wrong.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from .channels import ChoiChannel
from .dephasing import DephasingSuperParams
from .do import DOSuperParams
from .du import DUSuperParams
from .pauli import PauliSuperParams
from .positions import TableParams
from .superchannels import SuperChoi


class SchemaError(ValueError):
    """Input JSON does not match the expected schema."""


def _require(obj: dict, keys, what: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"{what} is missing keys {missing}")


def _int(value, what: str) -> int:
    """A JSON integer field; floats (even 2.0), booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be a JSON integer, not {type(value).__name__}")
    return value


def _matrix(obj, what: str) -> tuple[tuple[int, ...], np.ndarray]:
    """The dims and the complex matrix of a matrix object of parsed JSON
    text, the matrix a view of the one float64 array its numbers are read
    into.  Dims must be JSON integers and data a list of [re, im] pairs of
    JSON numbers: booleans, strings and the array data of a built document
    are refused, not converted.  Each fault raises SchemaError naming what,
    checked in this order: the keys, integer dims, the entry count, pairs,
    numbers (an int beyond the float range is a fault), positive dims and
    finite entries, the last two worded as MultipartiteOperator words them.
    Dims with a negative product fail the reshape, with numpy's message,
    before the sign check."""
    try:
        if not isinstance(obj, dict) or "dims" not in obj or "data" not in obj:
            raise ValueError("matrix JSON must contain 'dims' and 'data'")
        dims = tuple(obj["dims"])
        if not {int}.issuperset(map(type, dims)):
            raise ValueError("matrix JSON dims must be integers")
        side = math.prod(dims)
        data = obj["data"]
        if len(data) != side * side:
            raise ValueError(f"matrix JSON data has {len(data)} entries, expected {side * side}")
        if set(map(len, data)) - {2}:
            raise ValueError("matrix JSON data entries must be [re, im] pairs")
        # a 2-character string or a 2-key object passes the length test, but
        # its characters or keys are strings, which the type test refuses
        flat = _floats(chain.from_iterable(data),
                       "matrix JSON data entries must be [re, im] pairs of numbers")
        mat = flat.view(np.complex128).reshape(side, side)
        if any(d <= 0 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        if not np.isfinite(flat).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bad matrix for {what}: {exc}") from exc
    return dims, mat


def _matrix_doc(dims, mat: np.ndarray) -> dict:
    """{"dims": [...], "data": pairs}, the inverse of _matrix: pairs are the
    entries of mat, row-major, as a read-only (size, 2) float64 array of
    [re, im] rows, a view of a C-contiguous complex128 matrix's own buffer
    and otherwise of a complex128 copy (a real table A among them), so no
    Python object is made per number."""
    pairs = np.ascontiguousarray(mat, dtype=np.complex128).view(np.float64).reshape(-1, 2)
    pairs.setflags(write=False)
    return {"dims": list(dims), "data": pairs}


def _floats(values, message: str) -> np.ndarray:
    """The JSON numbers in values as a float64 array.  Only int and float are
    numbers: anything else (a boolean or a string among them) raises
    ValueError(message), and so does an int beyond the float range."""
    values = list(values)
    if not {int, float}.issuperset(map(type, values)):
        raise ValueError(message)
    try:
        return np.fromiter(values, np.float64, count=len(values))
    except OverflowError as exc:
        raise ValueError(f"JSON number out of range: {exc}") from exc


def _numbers(rows, shape: tuple[int, int], message: str) -> np.ndarray:
    """A JSON list of shape[0] lists of shape[1] numbers as a float64 array,
    under _matrix's rule: booleans and strings are not numbers.  Anything
    else raises SchemaError(message)."""
    if not (isinstance(rows, list) and len(rows) == shape[0]
            and all(isinstance(r, list) and len(r) == shape[1] for r in rows)):
        raise SchemaError(message)
    try:
        return _floats(chain.from_iterable(rows), message).reshape(shape)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def channel_to_json(ch: ChoiChannel) -> dict:
    return {"d_in": ch.d_in, "d_out": ch.d_out, "choi": _matrix_doc(ch.dims, ch.mat)}


def channel_from_json(obj: dict) -> ChoiChannel:
    _require(obj, ("d_in", "d_out", "choi"), "channel")
    d_in, d_out = _int(obj["d_in"], "d_in"), _int(obj["d_out"], "d_out")
    dims, mat = _matrix(obj["choi"], "channel choi")
    if dims != (d_in, d_out):
        raise SchemaError(f"choi dims {dims} do not match d_in={d_in}, d_out={d_out}")
    return ChoiChannel(dims, mat)


def superchannel_to_json(s: SuperChoi) -> dict:
    return {
        "dims": {"A0": s.dA0, "A1": s.dA1, "B0": s.dB0, "B1": s.dB1},
        "choi": _matrix_doc(s.dims, s.mat),
    }


def superchannel_from_json(obj: dict) -> SuperChoi:
    _require(obj, ("dims", "choi"), "superchannel")
    _require(obj["dims"], ("A0", "A1", "B0", "B1"), "superchannel dims")
    declared = tuple(_int(obj["dims"][k], f"dims {k}") for k in ("A0", "A1", "B0", "B1"))
    dims, mat = _matrix(obj["choi"], "superchannel choi")
    if dims != declared:
        raise SchemaError(f"choi dims {dims} do not match declared {declared}")
    return SuperChoi(dims, mat)


# the superchannel table kinds and the parameter class each one holds
TABLE_KINDS = {"du": DUSuperParams, "do": DOSuperParams, "dephasing": DephasingSuperParams}


def params_to_json(p: TableParams) -> dict:
    """du, do or dephasing parameters: d, then each table as a matrix on dims (d, d)."""
    return {"d": p.d, **{name: _matrix_doc((p.d, p.d), getattr(p, name)) for name in p.NAMES}}


def params_from_json(obj: dict, kind: str) -> TableParams:
    """Parameters of the table kind (a key of TABLE_KINDS): each table's
    matrix, of side d², goes as parsed to the class, which copies and checks
    it, a table A being real among the checks."""
    cls = TABLE_KINDS[kind]
    _require(obj, ("d", *cls.NAMES), f"{kind} parameters")
    d = _int(obj["d"], "d")
    tables = {}
    for name in cls.NAMES:
        mat = tables[name] = _matrix(obj[name], f"table {name}")[1]
        if len(mat) != d * d:
            raise SchemaError(f"table {name} must have side {d * d}, got {len(mat)}")
    try:
        return cls(d, **tables)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def pauli_from_json(obj: dict) -> PauliSuperParams:
    _require(obj, ("pi",), "pauli parameters")
    pi = _numbers(obj["pi"], (4, 4), "pi must be a 4x4 table of numbers")
    try:
        return PauliSuperParams(pi)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


_KIND_KEYS = {
    "superchannel": {"dims", "choi"},
    "channel": {"d_in", "d_out", "choi"},
    **{kind: {"d", *cls.NAMES} for kind, cls in TABLE_KINDS.items()},
    "pauli": {"pi"},
}


def detect_kind(obj: dict) -> str:
    """Identify which schema a parsed JSON object matches (largest match wins)."""
    if not isinstance(obj, dict):
        raise SchemaError("expected a JSON object")
    keys = set(obj)
    for kind in ("do", "du", "dephasing", "pauli", "channel", "superchannel"):
        if _KIND_KEYS[kind] <= keys:
            return kind
    raise SchemaError(f"cannot identify object with keys {sorted(keys)}")


_PARSERS = {"superchannel": superchannel_from_json, "channel": channel_from_json,
            "pauli": pauli_from_json}


def from_json(obj: dict, kind: str):
    """Parse obj as a ``kind`` object, for each kind detect_kind returns."""
    if kind in TABLE_KINDS:
        return params_from_json(obj, kind)
    return _PARSERS[kind](obj)


def load_json(path) -> dict:
    """Parse a JSON file; decode errors carry line/column positions.

    orjson decodes the bytes, with floats equal to json's.  What orjson
    refuses goes to json: its NaN and Infinity literals, numbers beyond the
    float range, lone surrogates, a byte order mark, and every malformed
    file, whose error then carries json's line and column.
    """
    try:
        return orjson.loads(Path(path).read_bytes())
    except orjson.JSONDecodeError:
        return json.loads(Path(path).read_text())


def dump_json(obj: dict, path=None) -> str:
    """Deterministic serialization (fixed key order, shortest round-trip floats).

    obj holds ASCII str keys and strings (no DEL), ints within 64 bits,
    finite floats, lists, dicts and C-contiguous native float64 arrays of
    one or more axes, as every document of this module does; its text then
    equals ``json.dumps(obj, indent=2)`` byte for byte, where an array reads
    as its list twin, ``arr.tolist()``.  A NaN, an infinity, None, or an
    array of another dtype, byte order or layout raises TypeError.

    The numbers orjson spells otherwise than repr are known by their values
    (_EDGES), so _mark swaps them for markers that orjson writes as null,
    and orjson writes the document in one call, each array from its buffer
    with no Python object per number.  _spell writes the marked values as
    repr does, in a few bulk passes per spelling class, and _splice puts
    them in at the null tokens.  With a path, the text and a newline are
    written to the file in binary mode; whatever raises does so before the
    file is opened.
    """
    marked, strings = [], []
    try:  # the marked copies of the arrays are freed once orjson has written them
        data = orjson.dumps(_mark(obj, marked, strings),
                            option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY)
    except RecursionError as exc:  # in _mark, far past orjson's own nesting limit
        raise TypeError("dump_json: document nested too deeply") from exc
    if marked:
        values = np.concatenate(marked)
        if not np.isfinite(values).all():  # every NaN and infinity is marked
            raise TypeError("dump_json writes finite floats only")
        data = _splice(data, values, any("null" in s for s in strings))
    if path is not None:
        with Path(path).open("wb") as f:
            f.write(data)
            f.write(b"\n")
    return data.decode()


def array_as_list(obj) -> list:
    """json.dumps's default hook: a numpy array as its nested lists; anything
    else raises the TypeError json raises without the hook."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(values: np.ndarray) -> bytes:
    return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)


def _positional(values: np.ndarray) -> bytes:
    """The text [D.Re-05,...] of floats with 1e-5 <= |x| < 1e-4, with their
    signs, from orjson's text of |x|, [0.0000DR,...]: D is the first
    significant digit and R the rest.

    Each token is rewritten right-aligned in its own span, so the commas
    stay put: "0.0000DR" is one byte longer than "D.Re-05" (two longer than
    "De-05", whose dot is dropped), which leaves room for the sign.  Moving
    the whole text four bytes left puts R in place.
    """
    old = np.frombuffer(_dumps(np.abs(values)), np.uint8)
    dots = np.flatnonzero(old == ord("."))  # one per token, after its "0"
    ends = np.append(dots[1:] - 2, len(old) - 1)  # each token's "," and the last one's "]"
    new = np.empty_like(old)
    new[:-4] = old[4:]
    new[dots] = old[dots + 5]
    new[dots + 1] = ord(".")
    for k, byte in enumerate(b"e-05"):
        new[ends - 4 + k] = byte
    new[0], new[ends] = old[0], old[ends]
    new[dots - 1] = ord("-")
    keep = np.ones(len(old), dtype=bool)
    keep[(dots - 1)[values >= 0]] = False
    keep[(dots + 1)[ends - dots == 6]] = False
    return new[keep].tobytes()


# orjson prints each float in its shortest round-trip digits (Ryu), the digits
# repr prints, and spells them otherwise in three ranges of |x|, which the
# value alone decides.  The spelling class of x is the number of _EDGES that
# |x| reaches, and _SPELLINGS[class] writes floats of that class as
# [token,...] in repr's spelling: orjson spells classes 0 and 3 as repr does.
_EDGES = (1e-9, 1e-5, 1e-4, 1e16)
_SPELLINGS = (
    _dumps,
    lambda values: _dumps(values).replace(b"e-", b"e-0"),  # "1e-7" for "1e-07"
    _positional,  # "0.0000123" for "1.23e-05"
    _dumps,
    lambda values: _dumps(values).replace(b"e", b"e+"),  # "1e16" for "1e+16"
)
_CHUNK = 1 << 20  # bytes of text _splice splits and joins at a time
_SPARSE = 256  # bytes of text per null token above which _splice finds them by numpy
_FEW = 64  # values below which repr's cost per number is less than numpy's per call


def _mark(obj, marked: list, strings: list):
    """obj rebuilt with each float outside an array, and each array value
    of a class orjson spells otherwise, swapped for a marker orjson writes
    as null (None, and NaN in a copy of the array).  The swapped values are
    appended to marked in the order of the text, and the keys and strings
    to strings.  An array orjson would write wrong, or None, raises
    TypeError; what else orjson cannot write is left for it to refuse."""
    if isinstance(obj, dict):
        strings += obj
        return {key: _mark(value, marked, strings) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_mark(value, marked, strings) for value in obj]
    if isinstance(obj, float):
        marked.append((obj,))
        return None
    if type(obj) is np.ndarray:
        if obj.dtype != np.float64 or not obj.flags.c_contiguous:
            raise TypeError(f"dump_json writes C-contiguous native float64 arrays, not "
                            f"{'non-contiguous ' * (not obj.flags.c_contiguous)}{obj.dtype.str}")
        a = np.abs(obj)
        kept = (a < _EDGES[0]) | (a >= _EDGES[2]) & (a < _EDGES[3])  # classes 0 and 3
        if np.count_nonzero(kept) < kept.size:  # and NaN is marked, to be refused
            marked.append(obj[~kept])
            return np.where(kept, obj, np.nan)
        return obj
    if isinstance(obj, str):
        strings.append(obj)
    elif obj is None:
        raise TypeError("dump_json writes no None: a null in its text is a marker")
    return obj


def _spell(values: np.ndarray):
    """The token of each value as repr spells it, as bytes: one compact
    orjson pass per spelling class, respelled in bulk, in an object array;
    or, for fewer than _FEW values, by repr itself."""
    if len(values) < _FEW:
        return [repr(x).encode() for x in values.tolist()]
    a = np.abs(values)
    classes = sum((a >= edge).view(np.int8) for edge in _EDGES)
    tokens = np.empty(len(values), dtype=object)
    for cls in np.flatnonzero(np.bincount(classes, minlength=len(_SPELLINGS))):
        members = classes == cls
        tokens[members] = _SPELLINGS[cls](values[members])[1:-1].split(b",")
    return tokens


def _splice(data: bytes, values: np.ndarray, strings_hold_null: bool) -> bytes | bytearray:
    """orjson's text with its null tokens replaced in order by the tokens of
    values.

    A text longer than a chunk with more than _SPARSE bytes per token is
    scanned faster by numpy than by bytes.split: _null_tokens finds the
    tokens, and the text between them is joined from a view.  Any other
    text is split at its nulls and joined one chunk of about _CHUNK bytes
    at a time, each cut just after a newline, so no token spans two chunks
    and no list of parts spans the whole text.  There, where no string
    holds "null", every "null" is a token; else the null tokens are first
    swapped for NUL, which no string holds raw (orjson writes "\\u0000").
    """
    if len(data) > max(_CHUNK, _SPARSE * len(values)):
        view, parts, last = memoryview(data), [], 0
        for start, token in zip(_null_tokens(data).tolist(), _spell(values), strict=True):
            parts += (view[last:start], token)
            last = start + 4
        parts.append(view[last:])
        return b"".join(parts)
    marker = b"null"
    if strings_hold_null:
        data = data.replace(b"null,\n", b"\0,\n").replace(b"null\n", b"\0\n")
        marker = b"\0"
    out = bytearray()
    pos, size, spliced = 0, len(data), 0
    while pos < size:
        end = data.find(b"\n", pos + _CHUNK) + 1 or size
        pieces = data[pos:end].split(marker)
        parts = [None] * (2 * len(pieces) - 1)
        parts[::2] = pieces
        parts[1::2] = _spell(values[spliced:spliced + len(pieces) - 1])
        out += b"".join(parts)
        spliced += len(pieces) - 1
        pos = end
    return out


def _null_tokens(data: bytes) -> np.ndarray:
    """Where each null token of orjson's indent=2 text of a container starts.

    A token ends its line, and a string holds no raw newline, so a null
    token is a "null" followed by "\\n" or ",\\n", and then by more text: a
    container's text ends in ] or }.
    """
    text = np.frombuffer(data, np.uint8)
    at = np.flatnonzero(text == ord("u")) - 1
    at = at[(at >= 0) & (at + 5 < len(text))]
    after = text[at + 4]
    return at[(text[at] == ord("n")) & (text[at + 2] == ord("l")) & (text[at + 3] == ord("l"))
              & ((after == ord("\n")) | (after == ord(",")) & (text[at + 5] == ord("\n")))]
