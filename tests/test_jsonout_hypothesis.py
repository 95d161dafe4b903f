"""Property test of the JSON writer against json.dumps on random integer
arrays inside random documents."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from denpds.jsonout import RowStrings, dumps, plain  # noqa: E402

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
