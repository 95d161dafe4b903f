"""The one writer of pretty-printed JSON.

``dumps(doc)`` is ``json.dumps(plain(doc), sort_keys=True, indent=2) + "\\n"``
byte for byte, written in one recursive pass: dict keys sorted, strings
escaped by ``json``'s own ASCII encoder, ints by ``int.__repr__``.  A
document may hold integer numpy arrays, which stand for (nested) lists of
ints, and ``RowStrings``, an integer matrix that stands for one string per
row.  Those are the large parts of set files and of the ``code`` and
``geometry`` documents, and they are rendered straight from numpy: every
element becomes one token, its decimal string followed by the separator
that the number of lists ending at it calls for, looked up in one table of
(value, separator) strings; the tokens are joined once.  No document holds
a float: the writer refuses one with TypeError, as it refuses every object
that json.dumps refuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string

import numpy as np


@dataclass(frozen=True)
class RowStrings:
    """An integer matrix that a document holds as one JSON string per row:
    the row's entries in decimal, joined by single spaces."""

    rows: np.ndarray


def _plain_leaf(x):
    if isinstance(x, RowStrings):
        return [" ".join(map(str, row)) for row in np.asarray(x.rows).tolist()]
    return x.tolist()


def plain(doc):
    """The JSON value doc stands for: arrays as nested lists of Python ints,
    ``RowStrings`` as lists of strings."""
    if isinstance(doc, (np.ndarray, RowStrings)):
        return _plain_leaf(doc)
    if isinstance(doc, dict):
        return {k: plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain(v) for v in doc]
    return doc


def dumps(doc) -> str:
    """``json.dumps(plain(doc), sort_keys=True, indent=2) + "\\n"``."""
    out = []
    _emit(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _key(k) -> str:
    """A dict key as json.dumps writes it."""
    text = k if isinstance(k, str) else _literal(k)
    if text is None:
        raise TypeError("keys must be str, int, bool or None, not %s" % type(k).__name__)
    return text


def _literal(x) -> str | None:
    """The text of a JSON literal or int, None for any other object."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    return None


def _emit(x, nl: str, out: list) -> None:
    """Append the text of x, the value on a line that nl (a newline and the
    line's indent) begins, to out."""
    if isinstance(x, str):
        out.append(_string(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner, sep = nl + "  ", "["
        for item in x:
            out.append(sep + inner)
            _emit(item, inner, out)
            sep = ","
        out.append(nl + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner, sep = nl + "  ", "{"
        for k, item in sorted(x.items()):
            out.append(sep + inner + _string(_key(k)) + ": ")
            _emit(item, inner, out)
            sep = ","
        out.append(nl + "}")
    elif isinstance(x, (np.ndarray, RowStrings)):
        _render(x, nl, out)
    else:
        text = _literal(x)
        if text is None:
            raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)
        out.append(text)


def _render(x, nl: str, out: list) -> None:
    """Append the text of the array or ``RowStrings`` x, the value on a
    line that nl begins, to out."""
    spaced = isinstance(x, RowStrings)
    a = np.asarray(x.rows if spaced else x)
    if a.dtype.kind not in "iu" or (spaced and a.ndim != 2):
        raise TypeError("cannot write a %d-dimensional %s array" % (a.ndim, a.dtype))
    if a.size == 0 or a.ndim == 0:  # no values to tabulate
        _emit(_plain_leaf(x), nl, out)
        return
    a = a.astype(np.int64, copy=False)
    n = a.ndim
    # ends[index] = how many of the lists around the value end with it
    ends = np.zeros(a.shape, dtype=np.intp)
    for t in range(1, n + 1):  # the innermost t lists end where their t axes do
        ends[(...,) + (-1,) * t] += 1
    ind = [nl + "  " * d for d in range(n + 1)]  # ind[d]: items of a depth-d list at d + 1
    if spaced:
        head = "[" + ind[1] + '"'
        seps = [" ", '",' + ind[1] + '"', '"' + nl + "]"]
    else:
        head = "[" + "".join(ind[d] + "[" for d in range(1, n)) + ind[n]
        seps = []
        for t in range(n + 1):
            close = "".join(ind[d] + "]" for d in range(n - 1, n - 1 - t, -1))
            reopen = "," + "".join(ind[d] + "[" for d in range(n - t, n)) + ind[n]
            seps.append(close if t == n else close + reopen)
    lo, hi = int(a.min()), int(a.max())
    if hi - lo > 2 * a.size + 1024:  # too sparse for a table of every value
        tokens = a.astype(str).astype(object) + np.array(seps, dtype=object)[ends]
    else:
        table = [s + sep for s in map(str, range(lo, hi + 1)) for sep in seps]
        tokens = np.array(table, dtype=object)[(a - lo) * (n + 1) + ends]
    out.append(head)
    out.append("".join(tokens.ravel().tolist()))
