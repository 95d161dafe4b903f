"""Field engine tests. Expected values come from independent references:
schoolbook polynomial arithmetic on digit strings (``poly_mul`` and
``poly_pow`` in conftest, which share no code with ``denpds.ff``),
digit-by-digit addition, irreducibility by sympy's test and root
enumeration, orders by repeated polynomial multiplication, traces as sums
of conjugates, subfields by Frobenius fixed points.  The packed operations
under test (``add``, ``sub``, ``neg``, ``mul``, ``inv``, the modulus and
generator searches, the trace and coordinate tables, the embeddings,
``rank``) are never their own reference."""

import itertools
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from denpds import ff
from denpds.construct import TowerParams, _upack
from denpds.errors import (
    NonPrimeError,
    NotADivisorError,
    NotASubfieldError,
    TableCapExceededError,
)

from conftest import GRID_G1, poly_mul, poly_pow

# every (p, n) with p in {2, 3, 5, 7} and p^n <= 2^10, and the fields of the
# large towers that are not among them
SMALL_FIELDS = [(p, n) for p in (2, 3, 5, 7) for n in range(1, 11) if p**n <= 1 << 10]
REFERENCE_FIELDS = [*SMALL_FIELDS, (7, 4)]


def brute_irreducible_quadratics_gf2():
    """Monic quadratics over GF(2) without roots (degree 2: rootless == irreducible)."""
    out = []
    for c0, c1 in itertools.product((0, 1), repeat=2):
        f = [c0, c1, 1]
        has_root = any(
            (c0 + c1 * x + x * x) % 2 == 0 for x in (0, 1)
        )
        if not has_root:
            out.append(tuple(f))
    return out


def brute_add(f, x: int, y: int) -> int:
    """Packed sum by adding coefficient digits mod p."""
    return f.pack(a + b for a, b in zip(f.digits(x), f.digits(y)))


def brute_sum(f, terms) -> int:
    acc = 0
    for t in terms:
        acc = brute_add(f, acc, t)
    return acc


def brute_trace(f, x: int, d: int) -> int:
    """Trace onto the degree-d subfield: the sum of the conjugates
    x^(p^(d i)), each the one before raised to p^d."""
    conj = [x]
    for _ in range(f.n // d - 1):
        conj.append(poly_pow(f, conj[-1], f.p**d))
    return brute_sum(f, conj)


def brute_order(f, x: int) -> int:
    cur, k = x, 1
    while cur != 1:
        cur, k = poly_mul(f, cur, x), k + 1
    return k


def pairs(f):
    """Every (x, y) of the field, as two broadcast int64 arrays."""
    x = np.arange(f.size, dtype=np.int64)
    return x[:, None], x[None, :]


def test_gf2_trivial_structure():
    f = ff.build_field(2, 1)
    assert f.size == 2 and f.order == 1
    assert f.primitive_packed == 1
    assert f.describe()["primitive"] == [1]
    assert (f.add(1, 1), f.mul(1, 1), f.inv(1), f.neg(1)) == (0, 1, 1, 1)


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    quads = brute_irreducible_quadratics_gf2()
    assert quads == [(1, 1, 1)]
    f4 = ff.build_field(2, 2)
    assert f4.modulus == (1, 1, 1)
    w = f4.primitive_packed
    assert f4.mul(w, w) == f4.add(w, 1) == poly_mul(f4, w, w) == 3  # w^2 = w + 1


def test_gf9_primitive_has_order_eight_by_repeated_multiplication():
    f9 = ff.build_field(3, 2)
    g = f9.primitive_packed
    seen = []
    cur = 1
    for _ in range(8):
        cur = poly_mul(f9, cur, g)
        seen.append(cur)
    assert cur == 1 and len(set(seen)) == 8


def test_build_field_rejections():
    with pytest.raises(NonPrimeError):
        ff.build_field(6, 1)
    with pytest.raises(TableCapExceededError):
        ff.build_field(2, 8, table_cap=100)


def test_is_prime_is_exact_below_two_to_the_64():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if ff.is_prime(n)] == [n for n in range(3000) if trial(n)]
    primes = [2**31 - 1, 2**61 - 1, 10**18 + 9, 2**64 - 59]
    # Carmichael numbers and strong pseudoprimes to every prime base up to 23
    composites = [561, 41041, 3215031751, 3825123056546413051, (2**32 + 15) * (2**31 - 1), 2**64 - 1]
    assert all(ff.is_prime(n) for n in primes)
    assert not any(ff.is_prime(n) for n in composites)
    with pytest.raises(ValueError):
        ff.is_prime(2**64 + 13)
    with pytest.raises(ValueError):
        TowerParams(2**64 + 13, 1, 2, 1, 1)


def test_dlog_antilog_roundtrip():
    for p, n in [(2, 4), (3, 2), (5, 2), (2, 6)]:
        f = ff.build_field(p, n)
        for k in range(f.order):
            assert f.dlog[f.antilog[k]] == k
        assert sorted(f.antilog) == list(range(1, f.size))


def test_field_tables_are_shared_read_only_arrays():
    """Every table of a field is a read-only int64 array that is built once:
    repeated access, and repeated build_field/embed calls, return the same
    objects.  dlog inverts antilog and marks zero with -1."""
    for p, n in [(2, 1), (2, 4), (3, 2), (5, 2), (2, 6)]:
        f = ff.build_field(p, n)
        assert ff.build_field(p, n) is f
        getters = [lambda: f.antilog, lambda: f.dlog, lambda: f.x_powers, lambda: f.trace_table]
        getters += [lambda d=d: f.coords_table(d) for d in range(1, n + 1) if n % d == 0]
        for get in getters:
            table = get()
            assert isinstance(table, np.ndarray) and table.dtype == np.int64
            assert not table.flags.writeable
            assert get() is table
        with pytest.raises(ValueError):
            f.dlog[1] = 0
        assert np.array_equal(f.dlog[f.antilog], np.arange(f.order))
        assert f.dlog[0] == -1
        assert ff.embed(ff.build_field(p, 1), f) is ff.embed(ff.build_field(p, 1), f)


def test_field_axioms_and_operator_laws():
    """add/sub/neg/mul/inv on every pair against digit addition and
    polynomial multiplication, and the field axioms on every triple."""
    for p, n in [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2)]:
        f = ff.build_field(p, n)
        x, y = pairs(f)
        add_ref = np.array([[brute_add(f, a, b) for b in range(f.size)] for a in range(f.size)])
        mul_ref = np.array([[poly_mul(f, a, b) for b in range(f.size)] for a in range(f.size)])
        assert np.array_equal(f.add(x, y), add_ref)
        assert np.array_equal(f.mul(x, y), mul_ref)
        assert np.array_equal(f.add(f.sub(x, y), y), np.broadcast_to(x, add_ref.shape))
        assert not f.add(x, f.neg(x)).any()
        xs = x.ravel()
        assert f.inv(0) == 0
        assert all(poly_mul(f, int(a), int(b)) == 1 for a, b in zip(xs[1:], f.inv(xs[1:])))
        z = xs[:, None, None]
        assert np.array_equal(f.mul(z, f.add(x, y)), f.add(f.mul(z, x), f.mul(z, y)))
        # Python ints in, Python ints out
        assert all(type(op(1, 1)) is int for op in (f.add, f.sub, f.mul))
        assert type(f.inv(1)) is int and type(f.neg(1)) is int


def test_exponent_arithmetic_of_mul():
    f = ff.build_field(3, 2)
    g = f.primitive_packed
    powers = np.array([poly_pow(f, g, k) for k in range(f.order)])
    a, b = np.arange(f.order)[:, None], np.arange(f.order)[None, :]
    assert np.array_equal(f.mul(powers[a], powers[b]), powers[(a + b) % f.order])


def vector_pow(f, x, e: int):
    """x^e on an array, by square and multiply with the vectorized mul."""
    result, acc = np.ones_like(x), x
    while e:
        if e & 1:
            result = f.mul(result, acc)
        acc = f.mul(acc, acc)
        e >>= 1
    return result


def test_frobenius_closure_exhaustive():
    for p, n in [(2, 4), (3, 2), (2, 6), (5, 2)]:
        f = ff.build_field(p, n)
        x = np.arange(f.size, dtype=np.int64)
        frob = vector_pow(f, x, p)
        assert frob.tolist() == [poly_pow(f, int(a), p) for a in x]
        assert np.array_equal(vector_pow(f, x, p**n), x)
        # x -> x^p is additive
        xx, yy = pairs(f)
        assert np.array_equal(frob[f.add(xx, yy)], f.add(frob[xx], frob[yy]))


def test_trace_examples_and_linearity():
    f4 = ff.build_field(2, 2)
    assert f4.trace_table[1] == 0  # 1 + 1 in characteristic 2
    for p, n in [(2, 4), (3, 2), (2, 3), (5, 2)]:
        f = ff.build_field(p, n)
        tr = f.trace_table
        # additivity and GF(p)-linearity, exhaustive
        x, y = pairs(f)
        assert np.array_equal(tr[f.add(x, y)], (tr[x] + tr[y]) % p)
        for c in range(p):
            assert np.array_equal(tr[f.mul(c, x)], (c * tr[x]) % p)
    f16 = ff.build_field(2, 4)
    with pytest.raises(NotADivisorError):
        f16.coords_table(3)


def test_trace_table_is_the_sum_of_conjugates():
    for p, n in SMALL_FIELDS:
        f = ff.build_field(p, n)
        assert f.trace_table.tolist() == [brute_trace(f, x, 1) for x in range(f.size)], (p, n)


def test_trace_table_memory(monkeypatch):
    """A fresh GF(2^16) build, its trace table and its trace labels peak
    well under the 8 MB of one (size, 16) int64 digit array: with 1 MB
    chunks, what is held at once is the tables themselves (0.5 MB each for
    antilog, dlog, trace and labels; mul keeps no table of its own), one
    chunk of digit rows and a temporary of the size of a table, about
    3.5 MB."""
    monkeypatch.setattr(ff, "CHUNK_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        f = ff.FiniteField(2, 16)
        trace, labels = f.trace_table, _upack(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    shared = ff.build_field(2, 16)
    assert np.array_equal(trace, shared.trace_table)
    assert np.array_equal(labels, _upack(shared))
    assert peak < 9 << 19, peak  # 4.5 MB


def test_linear_map_is_the_digit_row_product(monkeypatch):
    """linear_map(x, mat, p) = packed(digits(x) @ mat mod p) against
    digits taken one by one, for square and non-square matrices, with
    chunks of one row, of a few rows (the last one short) and the
    default, and on an empty input."""
    rng = np.random.default_rng(12)
    for p in (2, 3, 5, 7):
        for n_in, n_out in ((4, 4), (5, 2), (2, 5), (3, 1)):
            x = rng.integers(0, p**n_in, 50)
            mat = rng.integers(0, p, (n_in, n_out))
            digits = np.array([[v // p**i % p for i in range(n_in)] for v in x.tolist()])
            want = (digits @ mat % p) @ p ** np.arange(n_out)
            for bound in (1, 7 * 8 * (n_in + n_out), ff.CHUNK_BYTES):
                monkeypatch.setattr(ff, "CHUNK_BYTES", bound)
                got = ff.linear_map(x, mat, p)
                assert got.dtype == np.int64 and np.array_equal(got, want), (p, n_in, n_out, bound)
            assert ff.linear_map(np.zeros(0, dtype=np.int64), mat, p).shape == (0,)


def test_import_leaves_out_concurrent_futures():
    """A cold ``import denpds`` (and of the CLI, which imports every module)
    does not import concurrent.futures, about 7 ms of start-up: every sweep
    runs serially, so nothing in the package uses a thread pool."""
    code = "import sys, denpds, denpds.cli; print('concurrent.futures' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout == "False\n"


def test_trace_transitivity_through_the_middle_field():
    f16 = ff.build_field(2, 4)
    f4 = ff.build_field(2, 2)
    emb = ff.embed(f4, f16)
    preimage = {y: x for x, y in enumerate(emb.forward.tolist())}
    for x in range(f16.size):
        inner = preimage[brute_trace(f16, x, 2)]
        # Tr_{16/2} = Tr_{4/2} o Tr_{16/4}, both in GF(2): compare constants
        assert brute_trace(f4, inner, 1) == f4.trace_table[inner] == f16.trace_table[x]


def brute_norm(f, x: int, d: int) -> int:
    return poly_pow(f, x, f.order // (f.p**d - 1))


def test_norm_examples():
    f16 = ff.build_field(2, 4)
    pi = f16.primitive_packed
    assert brute_norm(f16, 0, 2) == 0
    nrm = brute_norm(f16, pi, 2)
    assert f16.dlog[nrm] == 5
    assert brute_order(f16, nrm) == 3  # generates the GF(4) copy
    # norm of a generator is a generator of the subfield
    for p, n, d in [(2, 4, 2), (2, 6, 3), (3, 2, 1), (2, 6, 2)]:
        f = ff.build_field(p, n)
        assert brute_order(f, brute_norm(f, f.primitive_packed, d)) == p**d - 1


def test_norm_multiplicative_exhaustive():
    for p, n, d in [(2, 4, 2), (3, 2, 1), (2, 6, 2)]:
        f = ff.build_field(p, n)
        norm = np.array([brute_norm(f, x, d) for x in range(f.size)])
        x, y = pairs(f)
        assert np.array_equal(norm[f.mul(x, y)], f.mul(norm[x], norm[y]))
        # every norm lies in the degree-d subfield
        assert np.array_equal(vector_pow(f, norm, p**d), norm)


def test_embed_identity_and_image():
    f4 = ff.build_field(2, 2)
    ident = ff.embed(f4, f4)
    assert ident.forward.tolist() == list(range(4))
    f16 = ff.build_field(2, 4)
    emb = ff.embed(f4, f16)
    fixed = {x for x in range(f16.size) if poly_pow(f16, x, 4) == x}
    assert set(emb.forward.tolist()) == fixed
    assert len(fixed) == 4
    with pytest.raises(NotASubfieldError):
        ff.embed(ff.build_field(2, 3), f16)
    with pytest.raises(NotASubfieldError):
        ff.embed(ff.build_field(3, 2), f16)


def test_embed_homomorphism_exhaustive_gf9_into_gf81():
    f9, f81 = ff.build_field(3, 2), ff.build_field(3, 4)
    emb = ff.embed(f9, f81)
    fwd = emb.forward
    for u in range(f9.size):
        for v in range(f9.size):
            assert fwd[brute_add(f9, u, v)] == brute_add(f81, int(fwd[u]), int(fwd[v]))
            assert fwd[poly_mul(f9, u, v)] == poly_mul(f81, int(fwd[u]), int(fwd[v]))
    u, v = pairs(f9)
    assert np.array_equal(fwd[f9.mul(u, v)], f81.mul(fwd[u], fwd[v]))
    assert len(set(fwd.tolist())) == f9.size  # injective


def test_embedding_exponent_is_the_power_map():
    """forward(g^k) = G^(t w k) for every k, by polynomial powers of the two
    generators, with w a unit mod |small*|; also for the prime subfield and
    the identity."""
    for p, d, n in [(2, 2, 4), (3, 2, 4), (2, 3, 6), (2, 2, 6), (3, 1, 2), (5, 1, 2), (2, 2, 2)]:
        small, big = ff.build_field(p, d), ff.build_field(p, n)
        emb = ff.embed(small, big)
        t = big.order // small.order
        assert math.gcd(emb.w, small.order) == 1
        for k in range(small.order):
            image = emb.forward[poly_pow(small, small.primitive_packed, k)]
            assert image == poly_pow(big, big.primitive_packed, t * emb.w * k)


def from_coords(f, coords, d: int) -> int:
    """sum_j emb(c_j) g^j by polynomial arithmetic, g the generator."""
    emb = ff.embed(ff.build_field(f.p, d), f)
    g = f.primitive_packed
    return brute_sum(f, [poly_mul(f, int(emb.forward[c]), poly_pow(f, g, j)) for j, c in enumerate(coords)])


def check_coordinate_keys(f, d: int) -> None:
    """coords_table(d) is a bijection onto [0, size); the base-p^d digits
    of a key, that of g^0 most significant, are coordinates that give x
    back; and the keys of a sum are the digit-wise sums of the keys."""
    table, q = f.coords_table(d), f.p**d
    assert table.shape == (f.size,)
    assert np.array_equal(np.sort(table), np.arange(f.size))
    places = q ** np.arange(f.n // d - 1, -1, -1)
    for x in range(f.size):
        assert from_coords(f, table[x] // places % q, d) == x
    x, y = pairs(f)
    assert np.array_equal(table[f.add(x, y)], ff.digitwise(table[x], table[y], 1, f.p, f.n))


def test_coords_additive_bijection():
    for p, n in [(2, 4), (3, 2), (5, 2)]:
        f = ff.build_field(p, n)
        assert f.coords_table(1)[0] == 0
        check_coordinate_keys(f, 1)


def test_coords_over_intermediate_subfield():
    for p, n, d in [(2, 4, 2), (2, 6, 3), (2, 6, 2), (3, 4, 2), (2, 4, 4)]:
        check_coordinate_keys(ff.build_field(p, n), d)


def test_field_construction_needs_no_row_reduction(monkeypatch):
    """The modulus search and the coordinate keys are forward maps: with
    the row reduction broken they still succeed."""

    def broken(*args):
        raise AssertionError("rank_from_keys called")

    monkeypatch.setattr(ff, "rank_from_keys", broken)
    assert ff._find_modulus(2, 8) == ff.build_field(2, 8).modulus
    assert ff._find_modulus(3, 4) == ff.build_field(3, 4).modulus
    fresh = ff.FiniteField(3, 4)
    assert np.array_equal(fresh.coords_table(2), ff.build_field(3, 4).coords_table(2))


def test_json_description_roundtrip():
    f = ff.build_field(3, 2)
    doc = json.loads(json.dumps(f.describe(), sort_keys=True))
    assert doc == {"p": 3, "n": 2, "modulus": [1, 0, 1], "primitive": [1, 1]}


def test_build_field_is_cached_and_deterministic():
    a = ff.build_field(2, 4)
    b = ff.build_field(2, 4)
    assert a is b
    assert a.describe() == {
        "p": 2,
        "n": 4,
        "modulus": [1, 0, 0, 1, 1],
        "primitive": [0, 0, 1, 0],
    }


def test_grid_moduli_are_the_smallest_irreducibles():
    """The modulus of every grid and reference field is the first monic
    polynomial of its degree, in constant-first lexicographic order, that
    sympy's test finds irreducible."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    degrees = {(p, s * d) for p, s, m, ell in GRID_G1 for d in (1, m, m * ell, m * (ell + 1))}
    for p, n in sorted(degrees | set(REFERENCE_FIELDS)):
        first = next(
            coeffs + (1,)
            for coeffs in itertools.product(range(p), repeat=n)
            if galoistools.gf_irreducible_p([1, *reversed(coeffs)], p, ZZ)
        )
        assert ff.build_field(p, n).modulus == first, (p, n)


def test_primitive_is_the_first_generator():
    """The primitive element of every reference field is the first nonzero
    digit vector, in constant-first lexicographic order, whose order counted
    by repeated polynomial products is the whole group."""
    for p, n in REFERENCE_FIELDS:
        f = ff.build_field(p, n)
        candidates = (sum(c * p**i for i, c in enumerate(vec)) for vec in itertools.product(range(p), repeat=n))
        first = next(x for x in candidates if x and brute_order(f, x) == f.order)
        assert f.primitive_packed == first, (p, n)


def test_antilog_by_doubling_matches_repeated_products():
    """The doubled antilog and dlog tables equal the ones built by one
    polynomial product per power, on every field of the grid and large
    towers (2,1,2,4) and (7,1,2,1)."""
    towers = [*GRID_G1, (2, 1, 2, 4), (7, 1, 2, 1)]
    degrees = {(p, s * d) for p, s, m, ell in towers for d in (1, m, m * ell, m * (ell + 1))}
    for p, n in sorted(degrees):
        f = ff.build_field(p, n)
        want, cur = [], 1
        for _ in range(f.order):
            want.append(cur)
            cur = poly_mul(f, cur, f.primitive_packed)
        assert cur == 1
        assert f.antilog.tolist() == want, (p, n)
        dlog = [-1] * f.size
        for k, x in enumerate(want):
            dlog[x] = k
        assert f.dlog.tolist() == dlog, (p, n)


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(5)
    for size, hi in ((0, 1), (1, 3), (50, 7), (1000, 10**12)):
        a = rng.integers(-hi, hi, size=size)
        got = ff.sorted_unique(a)
        assert got.dtype == np.int64 and np.array_equal(got, np.unique(a))
    assert ff.sorted_unique([3, 1, 3, 2, 1]).tolist() == [1, 2, 3]
