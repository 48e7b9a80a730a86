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

from .core import OriginalInstance, SimplifiedInstance, validate_original, validate_simplified, validate_tsp
from .evaluate import _blocks
from .transforms import TspInstance

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


def _bracketed(items, level: int) -> str:
    """The texts `items` as json.dumps(indent=1) writes a list of them `level` levels deep."""
    inner = ",\n" + " " * (level + 1)
    return "[" + inner[1:] + inner.join(items) + "\n" + " " * level + "]"


def _array_text(a: np.ndarray) -> str:
    """`a`, a non-empty vector or square matrix, as json.dumps(a.tolist(), indent=1)
    writes it one level deep, with each row joined from float.__repr__ in one call."""
    if not np.isfinite(a).all():
        raise ValueError("Out of range float values are not JSON compliant")
    if a.ndim == 1:
        return _bracketed(map(float.__repr__, a.tolist()), 1)
    return _bracketed(_square_rows(a), 1)


_repr = np.frompyfunc(float.__repr__, 1, 1)  # float.__repr__ of each entry, as an object array


def _square_rows(a: np.ndarray):
    """The rows of the square float array `a` as `_array_text` writes them,
    formatting each mirrored pair once.

    Rows are made in `_blocks(n, n)` blocks. The texts that later blocks read
    are kept as tiles by (row block, column block); a tile is dropped once its
    column block's rows are written, and a row's texts once it is written, so
    no more than about a quarter of the texts is kept at once.
    """
    n = len(a)
    blocks = list(_blocks(n, n))
    kept = {}
    for s, rows in enumerate(blocks):
        texts = _block_texts(a, rows, [kept.pop((t, s)) for t in range(s)])
        for u in range(s + 1, len(blocks)):
            kept[s, u] = texts[:, blocks[u]].copy()
        for r, row in enumerate(texts):
            yield _bracketed(row.tolist(), 2)
            texts[r] = None


def _block_texts(a: np.ndarray, rows: slice, above: list) -> np.ndarray:
    """The texts of a[rows] as an object array. `above` holds the texts of
    a[:rows.start, rows] in row-block tiles. An entry below the diagonal takes
    its mirror's text when the two have the same bits (so -0.0 and 0.0, or
    floats one ulp apart, are each formatted); the others are formatted."""
    lo, hi = rows.start, rows.stop
    texts = np.empty((hi - lo, len(a)), dtype=object)
    below = np.tri(hi - lo, len(a), lo - 1, dtype=bool)  # column < row
    texts[~below] = _repr(a[rows][~below])
    mirror = np.concatenate(above + [texts[:, rows]]).T  # mirror[i, j]: the text of a[j, lo + i]
    below, part = below[:, :hi], texts[:, :hi]
    bits = a.view(np.int64)
    same = below & (bits[rows, :hi] == bits[:hi, rows].T)
    part[same] = mirror[same]
    below &= ~same
    part[below] = _repr(a[rows, :hi][below])
    return texts


def dumps(obj) -> str:
    """The JSON text of `obj`'s document, as json.dumps(indent=1, allow_nan=False,
    default=np.ndarray.tolist) writes it. The pure-Python encoder that indent=1
    selects is slow on a matrix, so each non-empty vector or square matrix is
    written by `_array_text`, which formats each mirrored pair of a symmetric
    matrix once; every other value goes through json.dumps."""
    parts = []  # joined once, so a large array's text is copied only into the result
    for key, value in to_document(obj).items():
        if isinstance(value, np.ndarray) and value.ndim in (1, 2) and value.size and len(set(value.shape)) == 1:
            text = _array_text(value)
        else:  # json writes no raw newline inside a string
            text = json.dumps(value, indent=1, allow_nan=False, default=np.ndarray.tolist).replace("\n", "\n ")
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
