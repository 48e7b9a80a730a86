"""Instance file format: versioned JSON documents ("setp/1").

Four kinds are supported: original, simplified, tsp and the vertex_map
sidecar written by `reduce`. Numbers round-trip losslessly (shortest-repr
JSON floats); NaN and infinities are neither written nor read.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .core import OriginalInstance, SimplifiedInstance
from .transforms import TspInstance

FORMAT = "setp/1"


class FormatError(ValueError):
    """Raised for documents that do not parse as a setp/1 instance."""


def to_document(obj) -> dict[str, Any]:
    if isinstance(obj, OriginalInstance):
        return {
            "format": FORMAT,
            "kind": "original",
            "vertices": list(obj.vertices),
            "edges": [list(e) for e in obj.edges],
            "dist": list(obj.dist),
            "depot": obj.depot,
            "required": list(obj.required),
            "prob": list(obj.prob),
        }
    if isinstance(obj, SimplifiedInstance):
        return {
            "format": FORMAT,
            "kind": "simplified",
            "D": obj.D,
            "R": [list(e) for e in obj.R],
            "p": obj.p,
        }
    if isinstance(obj, TspInstance):
        return {"format": FORMAT, "kind": "tsp", "C": obj.C}
    if isinstance(obj, dict):  # a VertexMap
        return {"format": FORMAT, "kind": "vertex_map", "map": {str(k): int(v) for k, v in obj.items()}}
    raise TypeError("cannot serialize %r" % type(obj))


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


def from_document(doc: dict[str, Any]):
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise FormatError("not a %s document" % FORMAT)
    kind = doc.get("kind")
    try:
        if kind == "original":
            return OriginalInstance(
                vertices=tuple(_id(v) for v in doc["vertices"]),
                edges=tuple((_id(u), _id(v)) for u, v in doc["edges"]),
                dist=tuple(float(d) for d in _numbers(doc["dist"])),
                depot=_id(doc["depot"]),
                required=tuple(_id(e) for e in doc["required"]),
                prob=tuple(float(q) for q in _numbers(doc["prob"])),
            )
        if kind == "simplified":
            return SimplifiedInstance(
                D=_numbers(doc["D"]),
                R=tuple((_id(u), _id(v)) for u, v in doc["R"]),
                p=_numbers(doc["p"]),
            )
        if kind == "tsp":
            return TspInstance(_numbers(doc["C"]))
        if kind == "vertex_map":  # dict.items rejects a map that is not an object
            vmap = {int(k): _id(v) for k, v in dict.items(doc["map"])}
            if list(map(str, vmap)) != list(doc["map"]):  # int() also reads "01", " 2 ", "+3", "1_0"
                raise ValueError("a key is not an integer as str() writes it")
            return vmap
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError("malformed %s document: %s" % (kind, exc)) from exc
    raise FormatError("unknown kind %r" % kind)


def _array_text(a: np.ndarray, level: int) -> str:
    """`a` as json.dumps(a.tolist(), indent=1) writes it `level` levels deep,
    with each innermost row joined from float.__repr__ in one call."""
    if a.ndim == 0:
        return float.__repr__(float(a))
    if len(a) == 0:
        return "[]"
    inner = ",\n" + " " * (level + 1)
    if a.ndim == 1:
        items = map(float.__repr__, a.tolist())
    else:
        items = (_array_text(row, level + 1) for row in a)
    return "[" + inner[1:] + inner.join(items) + "\n" + " " * level + "]"


def dumps(obj) -> str:
    """The JSON text of `obj`'s document, as json.dumps(indent=1, allow_nan=False,
    default=np.ndarray.tolist) writes it. The pure-Python encoder that indent=1
    selects is slow on a matrix, so each array is written by `_array_text`."""
    parts = []  # joined once, so a large array's text is copied only into the result
    for key, value in to_document(obj).items():
        if isinstance(value, np.ndarray):
            if not np.isfinite(value).all():
                raise ValueError("Out of range float values are not JSON compliant")
            text = _array_text(value, 1)
        else:  # json writes no raw newline inside a string
            text = json.dumps(value, indent=1, allow_nan=False).replace("\n", "\n ")
        parts += [",\n ", json.dumps(key), ": ", text]
    parts[0] = "{\n "
    parts.append("\n}\n")
    return "".join(parts)


def save(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def _reject_constant(token: str):
    raise ValueError("%s is not a finite number" % token)


def _read(path):
    """The JSON document in a file; OSError if the file cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 and JSON errors are ValueErrors
        raise FormatError("invalid JSON: %s" % exc) from exc


def load(path):
    return from_document(_read(path))
