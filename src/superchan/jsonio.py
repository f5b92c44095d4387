"""JSON schemas and file handling for every object the toolbox exchanges.

All matrices use one format: {"dims": [d1, ..., dn], "data": [[re, im], ...]}
with data row-major over the flattened index.  Files are decoded by orjson,
and by json for what orjson refuses (see load_json).  Serialization writes
each float in its shortest round-trip digits, so dump -> load is exact.
dump_json's output equals ``json.dumps(obj, indent=2)`` byte for byte; it
writes the whole document with orjson, whose float digits are repr's, and
respells the few numbers orjson writes in another form (see _respell).  What
orjson refuses, or would write otherwise than json, goes to json itself.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from .channels import ChoiChannel
from .dephasing import DephasingSuperParams
from .do import DOSuperParams
from .du import DUSuperParams
from .linalg import MultipartiteOperator, json_floats, matrix_from_json, matrix_to_json
from .pauli import PauliSuperParams
from .positions import TableParams
from .superchannels import SuperChoi, super_choi


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


def _matrix(obj, what: str) -> MultipartiteOperator:
    try:
        return matrix_from_json(obj)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bad matrix for {what}: {exc}") from exc


def _numbers(rows, shape: tuple[int, int], message: str) -> np.ndarray:
    """A JSON list of shape[0] lists of shape[1] numbers as a float64 array,
    under matrix_from_json's rule: booleans and strings are not numbers.
    Anything else raises SchemaError(message)."""
    if not (isinstance(rows, list) and len(rows) == shape[0]
            and all(isinstance(r, list) and len(r) == shape[1] for r in rows)):
        raise SchemaError(message)
    try:
        return json_floats(chain.from_iterable(rows), message).reshape(shape)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _table(obj, d: int, what: str) -> np.ndarray:
    m = _matrix(obj, what)
    if m.side != d * d:
        raise SchemaError(f"{what} must have side {d * d}, got {m.side}")
    return m.mat


def channel_to_json(ch: ChoiChannel) -> dict:
    return {"d_in": ch.d_in, "d_out": ch.d_out, "choi": matrix_to_json(ch.choi)}


def channel_from_json(obj: dict) -> ChoiChannel:
    _require(obj, ("d_in", "d_out", "choi"), "channel")
    d_in, d_out = _int(obj["d_in"], "d_in"), _int(obj["d_out"], "d_out")
    choi = _matrix(obj["choi"], "channel choi")
    if choi.dims != (d_in, d_out):
        raise SchemaError(
            f"choi dims {choi.dims} do not match d_in={d_in}, d_out={d_out}"
        )
    return ChoiChannel(d_in, d_out, choi)


def superchannel_to_json(s: SuperChoi) -> dict:
    return {
        "dims": {"A0": s.dA0, "A1": s.dA1, "B0": s.dB0, "B1": s.dB1},
        "choi": matrix_to_json(s.choi),
    }


def superchannel_from_json(obj: dict) -> SuperChoi:
    _require(obj, ("dims", "choi"), "superchannel")
    _require(obj["dims"], ("A0", "A1", "B0", "B1"), "superchannel dims")
    dims = tuple(_int(obj["dims"][k], f"dims {k}") for k in ("A0", "A1", "B0", "B1"))
    choi = _matrix(obj["choi"], "superchannel choi")
    if choi.dims != dims:
        raise SchemaError(f"choi dims {choi.dims} do not match declared {dims}")
    return super_choi(choi.mat, dims)


# the superchannel table kinds and the parameter class each one holds
TABLE_KINDS = {"du": DUSuperParams, "do": DOSuperParams, "dephasing": DephasingSuperParams}


def params_to_json(p: TableParams) -> dict:
    """du, do or dephasing parameters: d, then each table as a matrix on dims (d, d)."""
    out = {"d": p.d}
    for name in p.NAMES:
        out[name] = matrix_to_json(MultipartiteOperator((p.d, p.d), getattr(p, name)))
    return out


def params_from_json(obj: dict, kind: str) -> TableParams:
    """Parameters of the table kind (a key of TABLE_KINDS); the class checks
    the tables, a table A being real among them."""
    cls = TABLE_KINDS[kind]
    _require(obj, ("d", *cls.NAMES), f"{kind} parameters")
    d = _int(obj["d"], "d")
    tables = {name: _table(obj[name], d, f"table {name}") for name in cls.NAMES}
    try:
        return cls(d, **tables)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def realization_from_json(obj: dict):
    """Block-unitary dilation data: environment unitaries and state."""
    _require(obj, ("e", "U", "V", "psi"), "realization")
    e = _int(obj["e"], "e")
    us = [_matrix(u, "U").mat for u in obj["U"]]
    vs = [_matrix(v, "V").mat for v in obj["V"]]
    for w in (*us, *vs):
        if w.shape != (e, e):
            raise SchemaError(f"realization unitaries must be {e}x{e}")
    psi = _numbers(obj["psi"], (e, 2), f"psi must be {e} [re, im] pairs of numbers")
    return us, vs, psi.view(np.complex128).reshape(e)


def pauli_to_json(p: PauliSuperParams) -> dict:
    return {"pi": [[float(v) for v in row] for row in p.pi]}


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

    The text equals ``json.dumps(obj, indent=2)`` byte for byte.  orjson
    writes the document in one call and _respell fixes the few numbers it
    spells differently.  A document orjson refuses (ints beyond 64 bits,
    non-str keys, float or other subclasses, dataclasses, dates), or whose
    text holds ``null`` (None, NaN, infinity), a non-ASCII byte or DEL,
    which json escapes, is written by ``json.dumps`` itself.  One difference
    is left: orjson writes an ``enum.Enum`` member as its value and a
    ``uuid.UUID`` as a string, where json raises TypeError; no document this
    package builds holds either.  With a path, the text and a newline are
    written to the file in binary mode.
    """
    try:
        data = orjson.dumps(obj, option=_ORJSON_OPTIONS)
    except orjson.JSONEncodeError:
        data = None
    # b"n" first: a one-byte search runs as memchr, and most texts hold no "n";
    # the four-byte search is an order of magnitude slower on digit-heavy text
    if (data is None or (b"n" in data and b"null" in data)
            or not data.isascii() or b"\x7f" in data):
        text = json.dumps(obj, indent=2)
        data = text.encode()
    else:
        data = _respell(data)
        text = data.decode()
    if path is not None:
        with Path(path).open("wb") as f:
            f.write(data)
            f.write(b"\n")
    return text


_ORJSON_OPTIONS = (orjson.OPT_INDENT_2 | orjson.OPT_PASSTHROUGH_SUBCLASS
                   | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME)
# In indent=2 text a number token ends its line, and a string cannot hold a
# raw newline, so these patterns never match inside a key or a string value.
_TOKEN_END = rb"(?=,?\n|\Z)"
_EXPONENT = re.compile(rb"e(?:-(\d)|(\d+))" + _TOKEN_END)
_POSITIONAL = re.compile(
    rb"\.0000(?:(?<=[^0-9]0\.0000)|(?<=\A0\.0000))([1-9])(\d*)" + _TOKEN_END
)


def _respell(data: bytes) -> bytes:
    """orjson's text with each number respelled as repr spells it.

    orjson prints each float in its shortest round-trip digits (Ryu), the
    digits repr gives, and spells three ranges differently: it drops the
    exponent's leading zero for 1e-9 <= |x| < 1e-5 ("1e-7" for "1e-07") and
    its "+" for |x| >= 1e16 ("1e16" for "1e+16"), and writes
    1e-5 <= |x| < 1e-4 positionally ("0.0000123" for "1.23e-05").  The
    edits are collected from both scans and applied in one join.
    """
    edits = [(m.start(), m.end(), b"e-0" + m[1] if m[1] else b"e+" + m[2])
             for m in _EXPONENT.finditer(data)]
    edits += [(m.start() - 1, m.end(), m[1] + (b"." + m[2] if m[2] else b"") + b"e-05")
              for m in _POSITIONAL.finditer(data)]  # from the "0" before the "."
    if not edits:
        return data
    edits.sort()
    view = memoryview(data)  # slices of a view copy nothing
    parts, last = [], 0
    for start, end, token in edits:
        parts += (view[last:start], token)
        last = end
    parts.append(view[last:])
    return b"".join(parts)
