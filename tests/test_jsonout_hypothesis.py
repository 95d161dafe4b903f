"""Property tests of the JSON writer against json.dumps on random integer
arrays inside random documents, of ``dump`` against ``dumps`` in every
slicing, and of the slice renderer against a naive join."""

import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from denpds import ff, jsonout  # noqa: E402
from denpds.jsonout import RowStrings, dump, dumps, plain, slices  # noqa: E402

from conftest import assert_same_text  # noqa: E402

SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5)
VALUES = st.one_of(st.integers(-3, 40), st.integers(-(2**63), 2**63 - 1))


@settings(max_examples=200, deadline=None)
@given(
    a=hnp.arrays(np.int64, SHAPES, elements=VALUES),
    rows=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
                    elements=st.integers(0, 10**6)),
    extra=st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    ),
)
def test_writer_matches_json_dumps_on_random_documents(a, rows, extra):
    for doc in (a, {"a": a, "x": extra}, [extra, a, {"r": RowStrings(rows)}]):
        assert_same_text(dumps(doc), json.dumps(plain(doc), sort_keys=True, indent=2) + "\n")


@settings(max_examples=200, deadline=None)
@given(
    a=hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
                 elements=VALUES),
    rows=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                    elements=st.integers(0, 10**6)),
    digits=hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
                      elements=st.integers(0, 2)),
    slice_values=st.sampled_from([1, 2, 3, 5, 16, None]),
)
def test_dump_writes_what_dumps_returns_in_every_slicing(a, rows, digits, slice_values):
    """Slices of 1 to 16 values split rows longer than a slice (and, with
    None, the default bound leaves every array one slice); empty and 0-d
    arrays have no slices.  Wide values take the format route, and the
    digits 0..2 in slices of 16 the token table.  The text is dumps's, and
    so json.dumps's."""
    docs = (a, {"a": a, "r": RowStrings(rows), "t": a.T},
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


SEPARATORS = st.text(alphabet="%d ,e\n", max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    a=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                 elements=VALUES),
    digits=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                      elements=st.integers(-1, 1)),
    head=SEPARATORS,
    seps=st.tuples(SEPARATORS, SEPARATORS, SEPARATORS),
    slice_values=st.integers(1, 16),
)
def test_slices_join_to_the_naive_text(a, digits, head, seps, slice_values):
    """Slices of 1 to 16 values cut rows and split them; wide values take
    the format route, and the digits -1..1 in slices of 9 or more the token
    table.  A separator may hold the format's own '%'."""
    saved = jsonout.VALUE_BYTES
    jsonout.VALUE_BYTES = ff.CHUNK_BYTES // slice_values
    try:
        for arr in (a, digits):
            parts = slices(arr, head, seps)
            assert len(parts) >= arr.size / slice_values
            assert_same_text("".join(part() for part in parts), joined(arr, head, seps), slice_values)
    finally:
        jsonout.VALUE_BYTES = saved
