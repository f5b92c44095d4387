"""JSON schemas and file handling for every object the toolbox exchanges.

All matrices use one format: {"dims": [d1, ..., dn], "data": [[re, im], ...]}
with data row-major over the flattened index.  Serialization uses Python's
shortest round-trip float printing, so dump -> load is exact.  dump_json's
output equals ``json.dumps(obj, indent=2)`` byte for byte; it renders each
list of [float, float] pairs in bulk instead of through the pure-Python
encoder that ``json`` falls back to whenever ``indent`` is set.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .channels import ChoiChannel
from .dephasing import DephasingSuperParams
from .do import DOSuperParams
from .du import DUSuperParams
from .linalg import MultipartiteOperator, matrix_from_json, matrix_to_json
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
    try:
        psi = np.array([complex(re, im) for re, im in obj["psi"]])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad psi: {exc}") from exc
    if psi.shape != (e,):
        raise SchemaError(f"psi must have {e} entries")
    return us, vs, psi


def pauli_to_json(p: PauliSuperParams) -> dict:
    return {"pi": [[float(v) for v in row] for row in p.pi]}


def pauli_from_json(obj: dict) -> PauliSuperParams:
    _require(obj, ("pi",), "pauli parameters")
    try:
        return PauliSuperParams(np.asarray(obj["pi"], dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:
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
    """Parse a JSON file; decode errors carry line/column positions."""
    text = Path(path).read_text()
    return json.loads(text)


def dump_json(obj: dict, path=None) -> str:
    """Deterministic serialization (fixed key order, shortest-float repr).

    The text equals ``json.dumps(obj, indent=2)`` byte for byte.  Object keys
    must be strings, as in every document this package writes.
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
    """Append the items of a list of finite [float, float] pairs nested
    ``level`` deep, in bulk: one repr per float, then two fixed separators
    joined in C.  For any other list append nothing and return False.
    """
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return False
    pad = "\n" + "  " * level
    inner = pad + "  "
    reprs = map(float.__repr__, chain.from_iterable(items))
    try:  # float.__repr__ rejects ints, bools, None, strings and lists
        body = (pad + "]," + pad + "[" + inner).join(map(("," + inner).join, zip(reprs, reprs)))
    except TypeError:
        return False
    if "n" in body:  # nan or inf, which json spells NaN and Infinity
        return False
    out += ("[" + inner, body, pad + "]")
    return True
