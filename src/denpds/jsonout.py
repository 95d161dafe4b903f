"""The one writer of pretty-printed JSON.

``dumps(doc)`` is ``json.dumps(plain(doc), sort_keys=True, indent=2) + "\\n"``
byte for byte, written in one recursive pass: dict keys sorted, strings
escaped by ``json``'s own ASCII encoder, ints by ``int.__repr__``.  A
document may hold integer numpy arrays, which stand for (nested) lists of
ints, and ``RowStrings``, an integer matrix that stands for one string per
row.  Those are the large parts of set files and of the ``code`` and
``geometry`` documents, and they are rendered straight from numpy, in
slices of a bounded number of values (``_blocks``): every element becomes
its decimal string followed by the separator that the number of lists
ending at it calls for, looked up in one table of (value, separator)
strings when the array's values span less than a slice, else written by
one printf-style format per slice.  ``dump(doc, fp)`` writes each slice of
an array of several slices as soon as it is rendered, so a file never
waits on the whole document; ``dumps`` is ``dump`` into a ``StringIO``.  No
document holds a float: the writer refuses one with TypeError, as it
refuses every object that json.dumps refuses.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .ff import chunks

# What one value of an array costs while its slice is rendered, in bytes:
# its token or int object, the pointer arrays around it and its text.  The
# chunker's CHUNK_BYTES at this rate gives slices of 32,768 values.
VALUE_BYTES = 256


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
    buf = io.StringIO()
    dump(doc, buf)
    return buf.getvalue()


def dump(doc, fp) -> None:
    """Write ``dumps(doc)`` to the text file fp, each slice of a large
    array as soon as it is rendered; a document of one slice or less is
    one write."""
    out: list[str] = []

    def flush() -> None:
        fp.write("".join(out))
        out.clear()

    _emit(doc, "\n", out, flush)
    out.append("\n")
    flush()


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


def _emit(x, nl: str, out: list, flush) -> None:
    """Append the text of x, the value on a line that nl (a newline and the
    line's indent) begins, to out; flush() hands out's text on."""
    if isinstance(x, str):
        out.append(_string(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner, sep = nl + "  ", "["
        for item in x:
            out.append(sep + inner)
            _emit(item, inner, out, flush)
            sep = ","
        out.append(nl + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner, sep = nl + "  ", "{"
        for k, item in sorted(x.items()):
            out.append(sep + inner + _string(_key(k)) + ": ")
            _emit(item, inner, out, flush)
            sep = ","
        out.append(nl + "}")
    elif isinstance(x, (np.ndarray, RowStrings)):
        _render(x, nl, out, flush)
    else:
        text = _literal(x)
        if text is None:
            raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)
        out.append(text)


def _render(x, nl: str, out: list, flush) -> None:
    """Append the text of the array or ``RowStrings`` x, the value on a
    line that nl begins, to out, one slice of ``_blocks`` at a time; when x
    has more than one slice, flush() follows each."""
    spaced = isinstance(x, RowStrings)
    a = np.asarray(x.rows if spaced else x)
    if a.dtype.kind not in "iu" or (spaced and a.ndim != 2):
        raise TypeError("cannot write a %d-dimensional %s array" % (a.ndim, a.dtype))
    if a.size == 0 or a.ndim == 0:  # no values to slice
        _emit(_plain_leaf(x), nl, out, flush)
        return
    n = a.ndim
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
    rows = a.reshape(-1, a.shape[-1])
    blocks = list(_blocks(*rows.shape))
    r0, r1, c0, c1 = blocks[0]  # the longest slice
    lo = int(a.min())
    width = int(a.max()) - lo + 1
    if width * len(seps) <= (r1 - r0) * (c1 - c0):  # a table of every token, no longer than a slice
        table = np.array([s + sep for s in map(str, range(lo, lo + width)) for sep in seps], dtype=object)
        render = functools.partial(_table_text, table, lo, len(seps))
    else:
        render = functools.partial(_format_text, [s.replace("%", "%%") for s in seps])
    out.append(head)
    for r0, r1, c0, c1 in blocks:
        # the slice's tokens are gone when render returns, before any write
        out.append(render(rows[r0:r1, c0:c1], _row_ends(a.shape, r0, r1) if c1 == rows.shape[1] else None))
        if len(blocks) > 1:
            flush()


def _blocks(nrows: int, ncols: int):
    """(r0, r1, c0, c1) of each slice of an nrows x ncols array, in order:
    the chunker's runs of whole rows at VALUE_BYTES a value, and, where one
    row alone is longer than that, the chunker's pieces of the row."""
    for r0, r1 in chunks(nrows, ncols * VALUE_BYTES):
        for c0, c1 in chunks(ncols, VALUE_BYTES):
            yield r0, r1, c0, c1


def _row_ends(shape: tuple, r0: int, r1: int) -> np.ndarray:
    """For rows r0..r1-1 of the last axis: how many lists end with each, the
    row itself and the outer lists whose axes end there."""
    r = np.arange(r0 + 1, r1 + 1)
    ends = np.ones(r1 - r0, dtype=np.intp)
    period = 1
    for d in reversed(shape[:-1]):
        period *= d
        ends += r % period == 0
    return ends


def _table_text(table: np.ndarray, lo: int, nsep: int, block: np.ndarray, ends) -> str:
    """The text of block, a value's token at (value - lo) nsep + ends in
    table; ends (one per row) is None when no row ends in the block."""
    key = block.astype(np.int64)
    key -= lo
    key *= nsep
    if ends is not None:
        key[:, -1] += ends
    return "".join(table[key].ravel().tolist())


def _format_text(seps: list, block: np.ndarray, ends) -> str:
    """The text of block by one printf-style format: each value's %d and
    its separator, seps[0] inside a row and seps[ends] after its last."""
    nrows, ncols = block.shape
    inner = ("%d" + seps[0]) * (ncols - 1) + "%d"
    if ends is None:
        fmt = inner + seps[0]
    elif nrows == 1:
        fmt = inner + seps[int(ends[0])]
    else:
        fmt = "".join(np.array([inner + s for s in seps], dtype=object)[ends].tolist())
    return fmt % tuple(block.ravel().tolist())
