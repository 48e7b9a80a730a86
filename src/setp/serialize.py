"""Instance file format: versioned JSON documents ("setp/1").

Four kinds are supported: original, simplified, tsp and the vertex_map
sidecar written by `reduce`. Numbers round-trip losslessly (shortest-repr
JSON floats); NaN and infinities are neither written nor read.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import Any

import numpy as np
import orjson

from .core import OriginalInstance, SimplifiedInstance, TspInstance, validate_original, validate_simplified, validate_tsp

FORMAT = "setp/1"


class FormatError(ValueError):
    """Raised for documents that do not parse as a setp/1 instance."""


def _id(x) -> int:
    """A vertex or edge id: an integer or integral float, not a bool
    (`int()` alone would read 1.9 and `true` as 1)."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError("id %r is not an integer" % (x,))
    return x


def _numbers(x):
    """`x`, checked to be a JSON number or nested lists of them (`float()` and
    NumPy would also read `true` as 1.0 and "2" as 2.0)."""
    kinds = set(map(type, x)) if isinstance(x, list) else {type(x)}
    if list in kinds:
        for item in x:
            _numbers(item)
    bad = kinds - {int, float, list}
    if bad:
        raise ValueError("%s entry is not a number" % min(t.__name__ for t in bad))
    return x


def _ids(x) -> tuple[int, ...]:
    return tuple(map(_id, x))


def _id_pairs(x) -> tuple[tuple[int, int], ...]:
    return tuple((_id(u), _id(v)) for u, v in x)


def _floats(x) -> tuple[float, ...]:
    return tuple(map(float, _numbers(x)))


Kind = namedtuple("Kind", "type validate fields")

# Every instance kind a document may hold: its type, its validator, and its
# document fields in order, each with the reader that checks it. A field is
# written from the attribute of its name, as the instance holds it (json
# writes a tuple as a list), and read into the keyword argument of its name.
KINDS = {
    "original": Kind(OriginalInstance, validate_original, {"vertices": _ids, "edges": _id_pairs, "dist": _floats,
                                                           "depot": _id, "required": _ids, "prob": _floats}),
    "simplified": Kind(SimplifiedInstance, validate_simplified, {"D": _numbers, "R": _id_pairs, "p": _numbers}),
    "tsp": Kind(TspInstance, validate_tsp, {"C": _numbers}),
}


def to_document(obj) -> dict[str, Any]:
    if isinstance(obj, dict):  # a VertexMap
        return {"format": FORMAT, "kind": "vertex_map", "map": {str(k): int(v) for k, v in obj.items()}}
    for kind, row in KINDS.items():
        if isinstance(obj, row.type):
            return {"format": FORMAT, "kind": kind, **{name: getattr(obj, name) for name in row.fields}}
    raise TypeError("cannot serialize %r" % type(obj))


def from_document(doc: dict[str, Any]):
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise FormatError("not a %s document" % FORMAT)
    kind = doc.get("kind")
    try:
        if kind == "vertex_map":  # dict.items rejects a map that is not an object
            vmap = {int(k): _id(v) for k, v in dict.items(doc["map"])}
            if list(map(str, vmap)) != list(doc["map"]):  # int() also reads "01", " 2 ", "+3", "1_0"
                raise ValueError("a key is not an integer as str() writes it")
            return vmap
        if isinstance(kind, str) and kind in KINDS:  # a list or object kind is unhashable
            return KINDS[kind].type(**{name: read(doc[name]) for name, read in KINDS[kind].fields.items()})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError("malformed %s document: %s" % (kind, exc)) from exc
    raise FormatError("unknown kind %r" % kind)


def _array_parts(a: np.ndarray) -> list[str]:
    """`a`, a non-empty square float matrix, as json.dumps(a.tolist(), indent=1)
    writes it one level deep, in parts: each row's text is one part, so the
    matrix's text is never built as one string. The finiteness check comes
    first: orjson would write NaN and the infinities as null."""
    if not np.isfinite(a).all():
        raise ValueError("Out of range float values are not JSON compliant")
    parts = []
    for row in _square_rows(a):
        parts += [",\n  ", row]
    parts[0] = "[\n  "
    parts.append("\n ]")
    return parts


def _square_rows(a: np.ndarray):
    """The rows of the square float array `a` as `_array_parts` writes them.

    orjson formats each row. For 0 and every magnitude in [1e-4, 1e16) its
    text is float.__repr__'s, the shortest that reads back to the same float;
    outside that range the digits agree but the layout does not (orjson
    writes 1e-5 where repr writes 1e-05), so a row holding such an entry has
    those entries formatted by float.__repr__. orjson reads only C-ordered
    native float64, so `a` is handed over as that.
    """
    for row in np.ascontiguousarray(a, dtype=np.float64):
        text = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
        mag = np.abs(row)
        exponent_form = np.flatnonzero(((mag < 1e-4) & (mag != 0)) | (mag >= 1e16))
        if exponent_form.size:
            texts = text.split(",")
            for j in exponent_form.tolist():
                texts[j] = float.__repr__(row[j])
            text = ",".join(texts)
        yield "[\n   " + text.replace(",", ",\n   ") + "\n  ]"


def _parts(obj) -> list[str]:
    """The JSON text of `obj`'s document, as json.dumps(indent=1, allow_nan=False,
    default=np.ndarray.tolist) writes it, in parts. The pure-Python encoder
    that indent=1 selects is slow on a matrix, so each non-empty square matrix
    is written by `_array_parts`, row by row through orjson; every other value
    goes through json.dumps."""
    parts = []
    for key, value in to_document(obj).items():
        parts += [",\n ", json.dumps(key), ": "]
        if isinstance(value, np.ndarray) and value.ndim == 2 and value.shape[0] == value.shape[1] > 0:
            parts += _array_parts(value)
        else:  # json writes no raw newline inside a string
            parts.append(json.dumps(value, indent=1, allow_nan=False, default=np.ndarray.tolist).replace("\n", "\n "))
    parts[0] = "{\n "
    parts.append("\n}\n")
    return parts


def dumps(obj) -> str:
    """The JSON text of `obj`'s document (see `_parts`), joined once."""
    return "".join(_parts(obj))


def save(obj, path) -> None:
    """Write `obj`'s document to `path` part by part, never as one string."""
    parts = _parts(obj)
    with open(path, "w") as fh:
        fh.writelines(parts)


def _reject_constant(token: str):
    raise ValueError("%s is not a finite number" % token)


def _read(path):
    """The JSON document in a file; OSError if the file cannot be read.

    json's scanner reads the document, and orjson.loads each numeral with a
    fraction or exponent: the same float as json's own float(), about twice as
    fast. orjson rejects a numeral past the double range, which float() reads
    as an infinity, so such a document is read again by json alone. It then
    loads, and the validators report the infinity as a violation of the
    instance, not as a file that does not parse.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            return json.loads(text, parse_float=orjson.loads, parse_constant=_reject_constant)
        except orjson.JSONDecodeError:
            return json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 and JSON errors are ValueErrors
        raise FormatError("invalid JSON: %s" % exc) from exc


def load(path):
    return from_document(_read(path))
