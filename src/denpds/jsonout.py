"""The one writer of pretty-printed JSON.

``dumps(doc)`` is ``json.dumps(plain(doc), sort_keys=True, indent=2) + "\\n"``
byte for byte.  A document may hold integer numpy arrays, which stand for
(nested) lists of ints, and ``RowStrings``, an integer matrix that stands
for one string per row.  Those are the large parts of set files and of the
``code`` and ``geometry`` documents, and they are rendered straight from
numpy: each value is looked up in a table of the strings of its symbols,
and the separators between values in a table indexed by how many lists end
at that value.  The pure-Python encoder that ``json.dumps`` falls back to
with ``indent`` sees only the rest of the document.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RowStrings:
    """An integer matrix that a document holds as one JSON string per row:
    the row's entries in decimal, joined by single spaces."""

    rows: np.ndarray


def _walk(doc, leaf):
    """doc with every array and ``RowStrings`` in it replaced by leaf(it)."""
    if isinstance(doc, (np.ndarray, RowStrings)):
        return leaf(doc)
    if isinstance(doc, dict):
        return {k: _walk(v, leaf) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_walk(v, leaf) for v in doc]
    return doc


def _plain_leaf(x):
    if isinstance(x, RowStrings):
        return [" ".join(map(str, row)) for row in np.asarray(x.rows).tolist()]
    return x.tolist()


def plain(doc):
    """The JSON value doc stands for: arrays as nested lists of Python ints,
    ``RowStrings`` as lists of strings."""
    return _walk(doc, _plain_leaf)


# An array's stand-in while json.dumps lays out the rest of the document.
# json.dumps escapes the NUL characters, so only a document string that
# holds NUL can read the same in the output; such a document is refused.
_STAND_IN = "\0%d\0"
_STAND_IN_TEXT = re.compile(r'(?m)^( *)(.*?)"\\u0000(\d+)\\u0000"')


def dumps(doc) -> str:
    """``json.dumps(plain(doc), sort_keys=True, indent=2) + "\\n"``."""
    arrays = []

    def stand_in(x):
        arrays.append(x)
        return _STAND_IN % (len(arrays) - 1)

    text = json.dumps(_walk(doc, stand_in), sort_keys=True, indent=2)
    found = []

    def render(match):
        pad, head, i = match.groups()
        found.append(int(i))
        return pad + head + _render(arrays[int(i)], pad)

    text = _STAND_IN_TEXT.sub(render, text)
    if sorted(found) != list(range(len(arrays))):
        raise ValueError("a string of the document reads like an array's stand-in")
    return text + "\n"


def _symbol_strings(a: np.ndarray) -> np.ndarray:
    """The decimal strings of the int64 array a, as an object array."""
    lo, hi = int(a.min()), int(a.max())
    if hi - lo > 2 * a.size + 1024:  # too sparse for a table of every value
        return a.astype(str).astype(object)
    return np.array([str(v) for v in range(lo, hi + 1)], dtype=object)[a - lo]


def _render(x, pad: str) -> str:
    """The text of the array or ``RowStrings`` x as the value of a line
    indented by pad."""
    spaced = isinstance(x, RowStrings)
    a = np.asarray(x.rows if spaced else x)
    if a.dtype.kind not in "iu" or (spaced and a.ndim != 2):
        raise TypeError("cannot write a %d-dimensional %s array" % (a.ndim, a.dtype))
    if a.size == 0 or a.ndim == 0:  # no values to tabulate: json.dumps, re-indented
        return json.dumps(_plain_leaf(x), indent=2).replace("\n", "\n" + pad)
    a = a.astype(np.int64, copy=False)
    n = a.ndim
    # ends[index] = how many of the lists around the value end with it
    ends = np.zeros(a.shape, dtype=np.intp)
    last = np.ones(a.shape, dtype=bool)
    for axis in reversed(range(n)):
        at_end = np.arange(a.shape[axis]) == a.shape[axis] - 1
        last = last & at_end.reshape([-1 if j == axis else 1 for j in range(n)])
        ends += last
    ind = [pad + "  " * d for d in range(n + 1)]  # ind[d]: items of a depth-d list at d + 1
    if spaced:
        head = "[\n" + ind[1] + '"'
        seps = [" ", '",\n' + ind[1] + '"', '"\n' + pad + "]"]
    else:
        head = "[\n" + "".join(ind[d] + "[\n" for d in range(1, n)) + ind[n]
        seps = []
        for t in range(n + 1):
            close = "".join("\n" + ind[d] + "]" for d in range(n - 1, n - 1 - t, -1))
            reopen = ",\n" + "".join(ind[d] + "[\n" for d in range(n - t, n)) + ind[n]
            seps.append(close if t == n else close + reopen)
    out = np.empty(2 * a.size, dtype=object)
    out[0::2] = _symbol_strings(a).ravel()
    out[1::2] = np.array(seps, dtype=object)[ends.ravel()]
    return head + "".join(out.tolist())
