"""Property tests of the JSON writer against json.dumps on random integer
arrays inside random documents, of ``dump`` against ``dumps`` in every
slicing, and of the slice renderer against a naive join, each on arrays
of single digits (the byte route) beside arrays of mixed width (the token
table and the format)."""

import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from denpds import ff, jsonout  # noqa: E402
from denpds.jsonout import RowStrings, dump, dumps, plain, slices  # noqa: E402

from conftest import assert_same_text  # noqa: E402

SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5)
VALUES = st.one_of(st.integers(-3, 40), st.integers(-(2**63), 2**63 - 1))
# nonempty matrices, single rows and single columns drawn as often as the rest
MATRICES = st.one_of(
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    st.integers(1, 6).map(lambda n: (1, n)),
    st.integers(1, 6).map(lambda n: (n, 1)),
)
DIGITS = st.integers(0, 9)


@settings(max_examples=200, deadline=None)
@given(
    a=hnp.arrays(np.int64, SHAPES, elements=VALUES),
    rows=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
                    elements=st.integers(0, 10**6)),
    digits=hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
                      elements=DIGITS),
    extra=st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    ),
)
def test_writer_matches_json_dumps_on_random_documents(a, rows, digits, extra):
    docs = (a, {"a": a, "x": extra}, [extra, a, {"r": RowStrings(rows)}],
            {"d": digits, "x": [RowStrings(digits.reshape(len(digits), -1)), extra]})
    for doc in docs:
        assert_same_text(dumps(doc), json.dumps(plain(doc), sort_keys=True, indent=2) + "\n")


@settings(max_examples=200, deadline=None)
@given(
    a=hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
                 elements=VALUES),
    rows=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                    elements=st.integers(0, 10**6)),
    digits=hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
                      elements=DIGITS),
    signs=hnp.arrays(np.int64, MATRICES, elements=st.integers(-1, 1)),
    slice_values=st.sampled_from([1, 2, 3, 5, 16, None]),
)
def test_dump_writes_what_dumps_returns_in_every_slicing(a, rows, digits, signs, slice_values):
    """Slices of 1 to 16 values split rows longer than a slice (and, with
    None, the default bound leaves every array one slice); empty and 0-d
    arrays have no slices.  Single digits 0..9 take the byte route, wide
    values the format route, and the values -1..1 in slices of 9 or more
    the token table.  The text is dumps's, and so json.dumps's."""
    docs = (a, {"a": a, "r": RowStrings(rows), "t": a.T, "s": signs},
            [rows, a, {"x": [digits, RowStrings(digits.reshape(len(digits), -1))]}])
    saved = jsonout.VALUE_BYTES
    if slice_values is not None:  # the chunker gives slices of slice_values values
        jsonout.VALUE_BYTES = ff.CHUNK_BYTES // slice_values
    try:
        for doc in docs:
            sink = io.StringIO()
            dump(doc, sink)
            assert_same_text(sink.getvalue(), dumps(doc), slice_values)
            assert_same_text(dumps(doc), json.dumps(plain(doc), sort_keys=True, indent=2) + "\n")
    finally:
        jsonout.VALUE_BYTES = saved


def joined(a: np.ndarray, head: str, seps) -> str:
    """head, then each value of the 2-D array a followed by seps[0] inside
    a row, seps[1] after a row and seps[2] after the last row."""
    return head + seps[1].join(seps[0].join(map(str, row)) for row in a.tolist()) + seps[2]


SEPARATORS = st.text(alphabet="%d ,e\n\u00e9", max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    a=hnp.arrays(np.int64, MATRICES, elements=VALUES),
    signs=hnp.arrays(np.int64, MATRICES, elements=st.integers(-1, 1)),
    digits=hnp.arrays(np.int64, MATRICES, elements=DIGITS),
    head=SEPARATORS,
    seps=st.tuples(SEPARATORS, SEPARATORS, SEPARATORS),
    slice_values=st.integers(1, 16),
)
# a row end shorter than the separator inside a row, one value a slice
@example(a=np.array([[-5]]), signs=np.array([[1]]), digits=np.array([[0]]), head="",
         seps=("d", "", ""), slice_values=1)
def test_slices_join_to_the_naive_text(a, signs, digits, head, seps, slice_values):
    """Slices of 1 to 16 values cut rows and split them; single digits 0..9
    take the byte route, wide values the format route, and the values -1..1
    in slices of 9 or more the token table.  A separator may hold the
    format's own '%' or a character of more than one UTF-8 byte."""
    saved = jsonout.VALUE_BYTES
    jsonout.VALUE_BYTES = ff.CHUNK_BYTES // slice_values
    try:
        for arr in (a, signs, digits):
            parts = slices(arr, head, seps)
            assert len(parts) >= arr.size / slice_values
            assert_same_text("".join(part() for part in parts), joined(arr, head, seps), slice_values)
    finally:
        jsonout.VALUE_BYTES = saved
