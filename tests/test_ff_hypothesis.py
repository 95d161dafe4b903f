"""Property tests of the vectorized field operations against polynomial
arithmetic, on fields too large to check exhaustively pair by pair."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from denpds import ff  # noqa: E402

from conftest import poly_mul  # noqa: E402

FIELDS = [(2, 10), (7, 4)]


@pytest.mark.parametrize("p,n", FIELDS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_vectorized_ops_match_polynomial_arithmetic(p, n, data):
    f = ff.build_field(p, n)
    elems = st.lists(st.integers(0, f.size - 1), min_size=1, max_size=40)
    x = np.array(data.draw(elems), dtype=np.int64)
    y = np.array(data.draw(st.lists(st.integers(0, f.size - 1), min_size=len(x), max_size=len(x))))
    want_mul = [poly_mul(f, int(a), int(b)) for a, b in zip(x, y)]
    want_add = [f.pack(a + b for a, b in zip(f.digits(int(u)), f.digits(int(w)))) for u, w in zip(x, y)]
    assert f.mul(x, y).tolist() == want_mul
    assert f.add(x, y).tolist() == want_add
    # broadcasting: one scalar against the whole array
    c = int(y[0])
    assert f.mul(c, x).tolist() == [poly_mul(f, c, int(a)) for a in x]
    nonzero = x[x != 0]
    assert all(poly_mul(f, int(a), int(b)) == 1 for a, b in zip(nonzero, f.inv(nonzero)))
