"""JSON schemas and file handling for every object the toolbox exchanges.

All matrices use one format: {"dims": [d1, ..., dn], "data": [[re, im], ...]}
with data row-major over the flattened index.  Files are decoded by orjson,
and by json for what orjson refuses (see load_json).  Serialization writes
each float in its shortest round-trip digits, so dump -> load is exact.
dump_json's output equals ``json.dumps(obj, indent=2)`` byte for byte; it
renders each list of finite [float, float] pairs in bulk with orjson's float
formatter, whose digits are repr's, and respells with repr the few numbers
that orjson writes in another form (see _pairs).  Everything else goes
through a pure-Python encoder like the one ``json`` falls back to whenever
``indent`` is set.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
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

    The text equals ``json.dumps(obj, indent=2)`` byte for byte.  Object keys
    must be strings, as in every document this package writes.  Matrix data
    is written by _pairs, the rest by _encode.
    """
    chunks: list[str] = []
    _encode(obj, 0, chunks)
    text = "".join(chunks)
    if path is not None:
        with Path(path).open("w") as f:  # two writes spare a copy of a large text
            f.write(text)
            f.write("\n")
    return text


def _encode(o, level: int, out: list) -> None:
    """Append json's indent=2 encoding of ``o``, nested ``level`` deep, to out."""
    newline = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if isinstance(o, (list, tuple)) and o:
        out.append("[" + newline)
        if not _pairs(o, level + 1, out):
            for i, v in enumerate(o):
                if i:
                    out.append("," + newline)
                _encode(v, level + 1, out)
        out.append(close + "]")
    elif isinstance(o, dict) and o:
        out.append("{" + newline)
        for i, (k, v) in enumerate(o.items()):
            if i:
                out.append("," + newline)
            out.append(encode_basestring_ascii(k) + ": ")
            _encode(v, level + 1, out)
        out.append(close + "}")
    else:
        out.append(_scalar(o))


def _scalar(o) -> str:
    """json's spelling of a scalar or an empty list or object."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    if isinstance(o, (list, tuple)):
        return "[]"
    if isinstance(o, dict):
        return "{}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _pairs(items, level: int, out: list) -> bool:
    """Append the items of a list of [float, float] pairs nested ``level``
    deep, in bulk, if every number is a finite float; for any other list
    append nothing and return False.

    orjson prints each float in its shortest round-trip digits (Ryu), the
    digits repr gives (Gay's dtoa), and only spells some of them differently:
    it writes 1e-5 <= |x| < 1e-4 positionally, and drops the exponent's "+"
    and leading zero ("1e-7" and "1e16" where repr writes "1e-07" and
    "1e+16").  So each nonzero |x| < 1e-4 and each |x| >= 1e16 is respelled
    with repr, and the tokens are joined with two fixed separators in C.
    """
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return False
    flat = list(chain.from_iterable(items))
    if set(map(type, flat)) != {float}:  # ints, bools and float subclasses
        return False
    size = np.abs(np.fromiter(flat, np.float64, len(flat)))
    if not np.isfinite(size).all():  # orjson writes NaN and infinity as null
        return False
    tokens = orjson.dumps(flat)[1:-1].decode().split(",")
    for i in np.flatnonzero(((size < 1e-4) & (size > 0)) | (size >= 1e16)).tolist():
        tokens[i] = float.__repr__(flat[i])
    # the per-float and per-pair strings are the writer's peak memory, so
    # each list is dropped as soon as the next one is built
    del flat, size
    pad = "\n" + "  " * level
    inner = pad + "  "
    it = iter(tokens)
    rows = list(map(("," + inner).join, zip(it, it)))
    del tokens, it
    out += ("[" + inner, (pad + "]," + pad + "[" + inner).join(rows), pad + "]")
    return True
