"""The one writer of pretty-printed JSON, and the one renderer of integer
arrays as text.

``dumps(doc)`` is ``json.dumps(plain(doc), sort_keys=True, indent=2) + "\\n"``
byte for byte, written in one recursive pass: dict keys sorted, strings
escaped by ``json``'s own ASCII encoder, ints by ``int.__repr__``.  A
document may hold integer numpy arrays, which stand for (nested) lists of
ints, and ``RowStrings``, an integer matrix that stands for one string per
row.  Those are the large parts of set files and of the ``code`` and
``geometry`` documents, all 2-D, and ``slices`` renders them straight from
numpy, in slices of a bounded number of values (``_blocks``): a head, then
every value's decimal string followed by one of three separators (inside
a row, at a row's end, at the last row's end).  An array whose values are
all single digits 0..9, as every GF(q) symbol matrix with q <= 10 is,
renders each slice as one byte array from a row template; any other
array takes a table of (value, separator) tokens or a %d format.  The
CLI writes the ``--matrix-out`` text and the edge lists of
``export-graph`` through the same function.  ``dump(doc, fp)`` writes
each slice of an array of several slices as soon as it is rendered, so a
file never waits on the whole document; ``dumps`` is ``dump`` into a
``StringIO``.  No document holds a float: the writer refuses one with
TypeError, as it refuses every object that json.dumps refuses.
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
    line that nl begins, to out, one slice of ``slices`` at a time; when x
    has more than one slice, flush() follows each.  No output holds an
    array that is empty or not 2-D; one takes the list path."""
    spaced = isinstance(x, RowStrings)
    a = np.asarray(x.rows if spaced else x)
    if a.dtype.kind not in "iu" or (spaced and a.ndim != 2):
        raise TypeError("cannot write a %d-dimensional %s array" % (a.ndim, a.dtype))
    if a.ndim != 2 or a.size == 0:
        _emit(_plain_leaf(x), nl, out, flush)
        return
    row, item = nl + "  ", nl + "    "
    if spaced:
        parts = slices(a, "[" + row + '"', (" ", '",' + row + '"', '"' + nl + "]"))
    else:
        parts = slices(a, "[" + row + "[" + item,
                       ("," + item, row + "]," + row + "[" + item, row + "]" + nl + "]"))
    for part in parts:  # a slice's tokens are gone when part() returns, before any write
        out.append(part())
        if len(parts) > 1:
            flush()


def slices(a: np.ndarray, head: str, seps: tuple[str, str, str]) -> list:
    """The text of the nonempty 2-D integer array a: head, then each value
    in decimal followed by seps[0] inside a row, seps[1] at a row's end and
    seps[2] at the last row's end, as one callable per slice of ``_blocks``
    that returns the slice's text; so a caller knows the slice count before
    it renders one.  When every value is one digit, 0..9, a slice is one
    byte array (``_digit_text``); otherwise a value's token comes from one
    table of (value, separator) strings when that table is no longer than
    a slice, else from one printf-style format per slice."""
    nrows, ncols = a.shape
    blocks = list(_blocks(nrows, ncols))
    r0, r1, c0, c1 = blocks[0]  # the longest slice
    lo, hi = int(a.min()), int(a.max())
    width = hi - lo + 1
    if 0 <= lo and hi <= 9:
        text = functools.partial(_digit_text, [s.encode() for s in seps])
    elif width * len(seps) <= (r1 - r0) * (c1 - c0):
        table = np.array([s + sep for s in map(str, range(lo, lo + width)) for sep in seps], dtype=object)
        text = functools.partial(_table_text, table, lo)
    else:
        text = functools.partial(_format_text, [s.replace("%", "%%") for s in seps])
    parts = []
    for r0, r1, c0, c1 in blocks:
        # the separators after each row of the slice but its last, and after its last
        mid, end = (0, 0) if c1 < ncols else (1, 1 + (r1 == nrows))
        parts.append(functools.partial(text, "" if parts else head, a[r0:r1, c0:c1], mid, end))
    return parts


def _blocks(nrows: int, ncols: int):
    """(r0, r1, c0, c1) of each slice of an nrows x ncols array, in order:
    the chunker's runs of whole rows at VALUE_BYTES a value, and, where one
    row alone is longer than that, the chunker's pieces of the row."""
    for r0, r1 in chunks(nrows, ncols * VALUE_BYTES):
        for c0, c1 in chunks(ncols, VALUE_BYTES):
            yield r0, r1, c0, c1


def _digit_text(seps: list, head: str, block: np.ndarray, mid: int, end: int) -> str:
    """head and the text of block, whose values are 0..9, with seps[mid]
    after each row but the last and seps[end] after that, as one uint8
    array decoded once: head, then every row from one template of digit
    places and separators, value + 48 written into the places, and
    seps[end] over the last row's seps[mid]; seps are UTF-8 bytes."""
    nrows, ncols = block.shape
    head = head.encode()
    step = 1 + len(seps[0])
    row = (b"0" + seps[0]) * (ncols - 1) + b"0" + seps[mid]
    size = len(head) + nrows * len(row)  # the text with seps[mid] after the last row
    n = size - len(seps[mid]) + len(seps[end])
    buf = np.empty(max(size, n), dtype=np.uint8)
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    rows = buf[len(head) : size].reshape(nrows, len(row))
    rows[:] = np.frombuffer(row, dtype=np.uint8)
    np.add(block, 48, out=rows[:, : (ncols - 1) * step + 1 : step], casting="unsafe")
    buf[size - len(seps[mid]) : n] = np.frombuffer(seps[end], dtype=np.uint8)
    return str(buf.data[:n], "utf-8")


def _table_text(table: np.ndarray, lo: int, head: str, block: np.ndarray, mid: int, end: int) -> str:
    """head and the text of block, with seps[mid] after each row but the
    last and seps[end] after that: a value's token followed by seps[j] is
    table[3 (value - lo) + j]."""
    key = block.astype(np.int64)
    key -= lo
    key *= 3
    key[:-1, -1] += mid
    key[-1, -1] += end
    return head + "".join(table[key].ravel().tolist())


def _format_text(seps: list, head: str, block: np.ndarray, mid: int, end: int) -> str:
    """``_table_text`` by one printf-style format of %d and separators."""
    inner = ("%d" + seps[0]) * (block.shape[1] - 1) + "%d"
    fmt = (inner + seps[mid]) * (block.shape[0] - 1) + inner + seps[end]
    return head + fmt % tuple(block.ravel().tolist())
