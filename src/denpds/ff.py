"""Exact finite field arithmetic backed by full discrete-log tables.

GF(p^n) is GF(p)[x] / (modulus), and it has one arithmetic.  An element is
its digit row (c_0, ..., c_(n-1)) over the polynomial basis
{1, x, ..., x^(n-1)}, or the packed integer sum(c_i * p^i); multiplication
by y is the n x n matrix whose row i holds the digits of y x^i
(``_mul_matrix``), so a product is a row times a matrix mod p.  On whole
arrays of packed values every GF(p)-linear map is one function,
``linear_map(x, mat, p)`` = packed(digits(x) @ mat mod p), which unpacks
the digit rows one chunk at a time on the ranges of ``chunks``, the
package's one chunker (every literal sweep loops over it).  No
table of digit rows is kept, and no other module unpacks digits.
Everything about the field is found on that representation,
deterministically:

* modulus: the lexicographically smallest monic irreducible polynomial of
  degree n over GF(p), coefficients compared constant term first.  A root
  in GF(p) rules a candidate out; from degree 4 Rabin's test reads x^(p^k)
  off the Frobenius matrix (row i: the digits of x^(p i)) and asks that
  h = x^(p^(n/t)) - x be a unit, h^(p^n - 1) = 1 as a matrix power;
* primitive element: the multiplicative generator whose coefficient vector
  (same constant-first order) is lexicographically smallest, tested by
  matrix powers g^(order/t) != 1;
* ``antilog``: the powers of g, by doubling: the packed block
  g^L .. g^(2L-1) is the linear map of g^L on the block before, and
  ``dlog`` its inverse;
* ``trace_table``: the linear map of T, the sum of the first n powers of
  the Frobenius matrix, on every packed value;
* ``coords_table(d)``: the coordinates over GF(p^d) as one base-p^d key
  per element, the inverse permutation of the linear map of the basis
  matrix, which sends each key to its element.

There is no element object.  ``FiniteField.add``, ``sub`` and ``neg`` work
digit by digit (``digitwise``, XOR for p = 2) and ``mul`` and ``inv``
through the discrete-log tables of the chosen primitive element g, on
Python ints or int64 arrays alike.  Every table of a field is a read-only
int64 array and an attribute of the field: ``antilog`` and ``dlog`` are
built with it, ``x_powers``, ``trace_table`` and ``coords_table(d)`` on
first use.  ``build_field`` and ``embed`` intern their results, so each
table is built once per process.  A map that holds one factor fixed is
one gather from ``product_table(c)``, the products by c of every packed
value, which ``mul`` builds for the caller.  All multiplicative structure
(norms, coset indexing, order computations) is plain exponent arithmetic
on those tables: a ``SubfieldEmbedding`` is the linear map of the digit rows of the
powers of its root, and records the exponent ``w`` with which it maps the
small generator's powers, checked on every power, so the norm onto a
subfield is a multiplication of discrete logs.  Every table is built by a
forward map; ``rank_from_keys``, elimination on distinct row keys, serves
only the rank of a code.  Everything is exact integer work;
there is no floating point and no randomness anywhere.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property

import numpy as np

from .errors import (
    InternalError,
    NonPrimeError,
    NotADivisorError,
    NotASubfieldError,
    TableCapExceededError,
)

DEFAULT_TABLE_CAP = 1 << 22


# Miller-Rabin with the first twelve prime bases decides every n below
# 3.18e23 (Sorenson and Webster, Math. Comp. 86 (2017)), so all of [0, 2^64).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact primality for n < 2^64; larger n is a ValueError."""
    if n >= 1 << 64:
        raise ValueError("primality is decided only below 2^64, got %d" % n)
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending (trial division; desk scale)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# -- the one arithmetic: digit rows times multiplication matrices mod p --


def _mul_matrix(modulus, p: int, y) -> np.ndarray:
    """The GF(p)-linear map z -> z y of GF(p)[x] / (modulus) on digit rows,
    y given by its digits: row i holds the digits of y x^i, so
    digits(z y) = digits(z) @ matrix mod p."""
    rows = [[int(c) for c in y]]
    for _ in range(len(modulus) - 2):
        row = rows[-1]  # times x: shift up, then x^n = -(the low coefficients)
        rows.append([(a - row[-1] * c) % p for a, c in zip([0, *row[:-1]], modulus)])
    return np.array(rows, dtype=np.int64)


def _mat_pow(mat: np.ndarray, e: int, p: int) -> np.ndarray:
    """mat^e mod p, by square and multiply."""
    out = np.eye(len(mat), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ mat % p
        mat = mat @ mat % p
        e >>= 1
    return out


def _frobenius(modulus, p: int) -> np.ndarray:
    """The p-th power map z -> z^p on digit rows, GF(p)-linear in
    characteristic p: row i holds the digits of x^(p i), each row the one
    before times the matrix of x^p."""
    n = len(modulus) - 1
    step = _mat_pow(_mul_matrix(modulus, p, np.eye(1, n, 1, dtype=np.int64)[0]), p, p)
    out = np.empty((n, n), dtype=np.int64)
    row = np.eye(1, n, dtype=np.int64)[0]
    for i in range(n):
        out[i] = row
        row = row @ step % p
    return out


def _find_modulus(p: int, n: int) -> tuple[int, ...]:
    """The first monic irreducible of degree n in constant-first
    lexicographic order.  A root in GF(p) rules a candidate out, and its
    absence alone decides degrees 2 and 3; above that, Rabin's test
    (SIAM J. Comput. 9, 1980) reads x^(p^k) off the Frobenius matrix:
    x^(p^n) = x, and h = x^(p^(n/t)) - x is a unit for every prime t | n.
    Once x^(p^n) = x, GF(p)[x] / (f) is a product of subfields of GF(p^n),
    so h is a unit exactly when h^(p^n - 1) = 1, a matrix power."""
    if n == 1:
        return (0, 1)
    # column a of powers holds a^0 .. a^n mod p, so f @ powers are the values
    powers = np.ones((n + 1, p), dtype=np.int64)
    for i in range(1, n + 1):
        powers[i] = powers[i - 1] * np.arange(p) % p
    one = np.eye(1, n, dtype=np.int64)[0]
    # constant term 0 would make the polynomial divisible by x
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=n - 1):
            f = (c0, *rest, 1)
            if not (np.array(f) @ powers % p).all():
                continue  # a root in GF(p)
            if n <= 3:
                return f
            x_pk = [np.eye(1, n, 1, dtype=np.int64)[0]]  # digits of x^(p^k)
            frob = _frobenius(f, p)
            for _ in range(n):
                x_pk.append(x_pk[-1] @ frob % p)
            if (x_pk[n] != x_pk[0]).any():
                continue
            # row 0 of the matrix of h^e holds the digits of h^e
            if all(
                (_mat_pow(_mul_matrix(f, p, (x_pk[n // t] - x_pk[0]) % p), p**n - 1, p)[0] == one).all()
                for t in prime_factors(n)
            ):
                return f
    raise InternalError("no irreducible polynomial found for GF(%d^%d)" % (p, n))


def readonly(a: np.ndarray) -> np.ndarray:
    """a, marked read-only; every shared table is."""
    a.setflags(write=False)
    return a


def sorted_unique(a) -> np.ndarray:
    """The distinct values of the integer sequence a, ascending, as a new
    int64 array: one sort, then a mask of the entries that differ from their
    predecessor (1-D ``np.unique`` hashes, which is slower)."""
    out = np.sort(np.asarray(a, dtype=np.int64).ravel())
    keep = np.ones(len(out), dtype=bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


def in_sorted(x, table: np.ndarray) -> np.ndarray:
    """Whether each entry of x is in table, a sorted duplicate-free int64
    array, by binary search (``np.isin`` may sort through ``np.unique``,
    whose first call imports ``numpy.ma``)."""
    x = np.asarray(x)
    if not len(table):
        return np.zeros(x.shape, dtype=bool)
    return table[np.searchsorted(table, x).clip(max=len(table) - 1)] == x


def digitwise(a, b, sign: int, p: int, n: int):
    """a + sign * b on strings of n base-p digits, one digit per pass mod p
    (the XOR for p = 2): the sum of packed field elements, or of group
    indices.  a and b are Python ints or int64 arrays, with broadcasting."""
    if p == 2:
        return a ^ b
    out, w = 0, 1
    for _ in range(n):
        out = out + ((a // w + sign * (b // w)) % p) * w
        w *= p
    return out


# -- whole arrays in chunks: the one chunker and the one linear map --

# the most bytes one chunk of a sweep may hold
CHUNK_BYTES = 8 << 20


def chunks(total: int, row_bytes: int):
    """Consecutive ranges (lo, hi) covering range(total), lazily, each of
    as many rows as CHUNK_BYTES holds at ``row_bytes`` a row (at least one)."""
    chunk = max(1, CHUNK_BYTES // max(row_bytes, 1))
    return ((lo, min(lo + chunk, total)) for lo in range(0, total, chunk))


@cache
def _place_values(p: int, k: int) -> np.ndarray:
    """p^0 .. p^(k-1), the weights of k packed base-p digits."""
    return readonly(p ** np.arange(k, dtype=np.int64))


def linear_map(x, mat, p: int) -> np.ndarray:
    """packed(digits(x) @ mat mod p) for a 1-D int64 array x of packed
    values and an (n_in, n_out) matrix over GF(p): every GF(p)-linear map
    on field elements (products by a fixed element, the trace, coordinates,
    embeddings).  The digit rows exist one chunk at a time."""
    x, mat = np.asarray(x, dtype=np.int64), np.asarray(mat, dtype=np.int64)
    w_in, w_out = (_place_values(p, k) for k in mat.shape)
    out = np.empty(len(x), dtype=np.int64)
    for lo, hi in chunks(len(x), 8 * sum(mat.shape)):
        digits = x[lo:hi, None] // w_in
        digits %= p
        image = digits @ mat
        image %= p
        out[lo:hi] = image @ w_out
    return out


def _require_table_cap(p: int, n: int, table_cap: int) -> None:
    if p**n > table_cap:
        raise TableCapExceededError(
            "GF(%d^%d) has %d elements, above the table cap %d" % (p, n, p**n, table_cap)
        )


class FiniteField:
    """Fully tabulated GF(p^n) with deterministic modulus and generator:
    ``antilog[k]`` is g^k packed for 0 <= k < order, and ``dlog`` its
    inverse over the packed values, with dlog[0] = -1.  These two arrays
    are the only tables of products: ``mul`` gathers in ``antilog`` at the
    sum of two logs."""

    def __init__(self, p: int, n: int, table_cap: int = DEFAULT_TABLE_CAP):
        if not is_prime(p):
            raise NonPrimeError("characteristic %r is not prime" % (p,))
        if n < 1:
            raise ValueError("degree must be >= 1")
        _require_table_cap(p, n, table_cap)
        if n * (p - 1) ** 2 >= 1 << 63:
            raise TableCapExceededError("GF(%d^%d): digit products overflow int64" % (p, n))
        size = p**n
        self.p = p
        self.n = n
        self.size = size
        self.order = size - 1
        self.modulus: tuple[int, ...] = _find_modulus(p, n)
        self.primitive_packed = self._find_primitive()
        self.antilog = readonly(self._powers(self.primitive_packed))
        exps = np.arange(self.order, dtype=np.int64)
        dlog = np.full(size, -1, dtype=np.int64)
        dlog[self.antilog] = exps
        if (dlog[self.antilog] != exps).any():
            raise InternalError("antilog table is not injective")
        if (dlog[1:] < 0).any():
            raise InternalError("antilog table does not cover the field")
        self.dlog = readonly(dlog)

    # -- packed-representation helpers --

    def digits(self, packed: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.n):
            packed, d = divmod(packed, p)
            out.append(d)
        return tuple(out)

    def pack(self, digits) -> int:
        return sum((int(d) % self.p) * self.p**i for i, d in enumerate(digits))

    def digit_rows(self, packed) -> np.ndarray:
        """The digit rows of a few packed values, as a (len, n) int64 array."""
        rows = [self.digits(int(x)) for x in packed]
        return np.array(rows, dtype=np.int64).reshape(len(rows), self.n)

    def _powers(self, g: int) -> np.ndarray:
        """g^k packed for 0 <= k < order, by doubling: g^L .. g^(2L-1) are
        g^0 .. g^(L-1) times g^L, a linear map whose matrix squares from
        step to step."""
        p, order = self.p, self.order
        out = np.empty(order, dtype=np.int64)
        out[0] = 1
        mul_g = _mul_matrix(self.modulus, p, self.digits(g))
        step, filled = mul_g, 1
        while filled < order:
            take = min(filled, order - filled)
            out[filled : filled + take] = linear_map(out[:take], step, p)
            step, filled = step @ step % p, filled + take
        if linear_map(out[-1:], mul_g, p)[0] != 1:
            raise InternalError("primitive element order mismatch")
        return out

    def _find_primitive(self) -> int:
        """The first generator in constant-first lexicographic order of digit
        vectors: g^(order / t) != 1, as a matrix power, for every prime
        t | order."""
        p, n, order = self.p, self.n, self.order
        one, fac = np.eye(n, dtype=np.int64), prime_factors(order)
        for vec in itertools.product(range(p), repeat=n):
            if not any(vec):
                continue
            mat = _mul_matrix(self.modulus, p, vec)
            if all((_mat_pow(mat, order // t, p) != one).any() for t in fac):
                return self.pack(vec)
        raise InternalError("no generator found (impossible for a field)")

    # -- arithmetic on packed values: Python ints or int64 arrays, broadcast --

    def add(self, x, y):
        return digitwise(x, y, 1, self.p, self.n)

    def sub(self, x, y):
        return digitwise(x, y, -1, self.p, self.n)

    def neg(self, x):
        return digitwise(0, x, -1, self.p, self.n)

    def mul(self, x, y):
        """x y = antilog[(dlog x + dlog y) mod order], the mask zeroing a
        zero factor; take's wrap mode reduces the sum faster than %."""
        out = self.antilog.take(self.dlog[x] + self.dlog[y], mode="wrap")
        out *= (x != 0) & (y != 0)
        return out if out.ndim else int(out)

    def product_table(self, c) -> np.ndarray:
        """c x for every packed value x, indexed by x: a map that holds one
        factor fixed, as one gather."""
        return self.mul(np.arange(self.size, dtype=np.int64), c)

    def inv(self, x):
        """The inverse of a nonzero x; zero maps to zero."""
        x = np.asarray(x)
        out = np.where(x == 0, 0, self.antilog[-self.dlog[x] % self.order])
        return out if out.ndim else int(out)

    def horner(self, coeffs, x):
        """sum_i coeffs[..., i] x^i for coefficients in the prime field
        (packed constants), broadcast against x."""
        acc = 0
        for c in np.moveaxis(np.asarray(coeffs), -1, 0)[::-1]:
            acc = self.add(self.mul(acc, x), c)
        return acc

    # -- derived tables: read-only int64 arrays, built on first use --

    @property
    def x_powers(self) -> np.ndarray:
        """The packed polynomial basis 1, x, ..., x^(n-1): the powers of p."""
        return _place_values(self.p, self.n)

    @cached_property
    def trace_table(self) -> np.ndarray:
        """Absolute trace to GF(p) as an integer in [0, p), indexed packed:
        digits(Tr z) = digits(z) @ T, T the sum of the first n powers of
        the Frobenius matrix."""
        p, n = self.p, self.n
        frob, power = _frobenius(self.modulus, p), np.eye(n, dtype=np.int64)
        total = power.copy()
        for _ in range(n - 1):
            power = power @ frob % p
            total += power
        total %= p
        # a trace value lies in GF(p): only the constant digit survives
        if total[:, 1:].any():
            raise InternalError("trace left the prime subfield")
        return readonly(linear_map(np.arange(self.size), total[:, :1], p))

    # -- coordinates over a subfield --

    # the cache keeps the field alive, as build_field's interning does anyway
    @cache
    def coords_table(self, base_degree: int) -> np.ndarray:
        """Coordinates of every element over the subfield GF(q), q =
        p^base_degree, with respect to the power basis {1, g, ..., g^(n/d -
        1)} of the field's primitive element g, as one key per element: the
        coordinates as base-q digits, that of g^0 most significant; index =
        packed.  The keys invert the linear map from a key to its element,
        as ``dlog`` inverts ``antilog``."""
        d = base_degree
        if self.n % d:
            raise NotADivisorError("%d does not divide field degree %d" % (d, self.n))
        # base-p digit t of a key is the coefficient of g^j rho_i, j = n/d - 1
        # - t // d and i = t % d, rho_i the image of x^i of the subfield
        small = build_field(self.p, d)
        powers = self.antilog[np.arange(self.n // d - 1, -1, -1) % self.order]
        rho = embed(small, self).forward[small.x_powers]
        basis = self.mul(powers[:, None], rho[None, :]).ravel()
        keys = np.arange(self.size, dtype=np.int64)
        table = np.full(self.size, -1, dtype=np.int64)
        table[linear_map(keys, self.digit_rows(basis), self.p)] = keys
        if (table < 0).any():
            raise InternalError("the subfield basis does not span GF(%d^%d)" % (self.p, self.n))
        return readonly(table)

    # -- descriptions --

    def describe(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "modulus": list(self.modulus),
            "primitive": list(self.digits(self.primitive_packed)),
        }

    def __repr__(self) -> str:
        return "FiniteField(p=%d, n=%d)" % (self.p, self.n)


# -- linear algebra over a field --


def rank_from_keys(field: FiniteField, keys: np.ndarray, cols: int) -> int:
    """The rank of a matrix of packed elements of ``field`` with ``cols``
    columns, each row given as one base-q int64 key, q = field.size, its
    columns in any order (the order does not change the rank); as q = p^n,
    a key is also the row's packed digit string over GF(p), so rows add by
    ``digitwise``.  Each step clears the column of the least significant
    digit with the first row that has a nonzero entry there (only the q
    multiples of that row's tail are ever subtracted), drops the column,
    and keeps the distinct nonzero rows.  Every step keeps the row space,
    and after it at most q^c rows of c columns remain."""
    q, found = field.size, 0
    for c in range(cols - 1, -1, -1):  # c columns are left after this step
        lead, keys = keys % q, keys // q
        nz = np.flatnonzero(lead)
        if len(nz):
            w = _place_values(q, c)
            tail = field.mul(field.inv(int(lead[nz[0]])), keys[nz[0]] // w % q)
            multiples = field.mul(np.arange(q)[:, None], tail) @ w
            keys = digitwise(keys, multiples[lead], -1, field.p, field.n * c)
            found += 1
        keys = sorted_unique(keys)
        keys = keys[keys != 0]
        if not len(keys):
            break
    return found


class SubfieldEmbedding:
    """Injective ring homomorphism from a small field into a big one.

    The image of the small field's polynomial generator is the root of the
    small modulus inside the big field with the smallest discrete log; the
    whole map is evaluation of coefficient vectors at that root, the linear
    map whose row i is the digit row of root^i.
    ``forward`` is the read-only array of images, indexed by packed small
    element.  On exponents the map is multiplication: the image of g^k is
    G^(t w k) for the two generators g and G, t = |big*| / |small*| and the
    recorded exponent ``w``, a unit mod |small*|.
    """

    def __init__(self, small: FiniteField, big: FiniteField):
        if small.p != big.p:
            raise NotASubfieldError("different characteristics")
        if big.n % small.n:
            raise NotASubfieldError(
                "GF(%d^%d) is not a subfield of GF(%d^%d)"
                % (small.p, small.n, big.p, big.n)
            )
        self.small = small
        self.big = big
        t = big.order // small.order
        if small is big or small.n == 1:
            # the identity, or the prime subfield: packed constants coincide
            forward = np.arange(small.size, dtype=np.int64)
        else:
            # the conjugate roots lie in the subgroup of order |small*|
            exps = t * np.arange(small.order) % big.order
            roots = exps[big.horner(small.modulus, big.antilog[exps]) == 0]
            if len(roots) != small.n:
                raise InternalError(
                    "expected %d conjugate roots, found %d" % (small.n, len(roots))
                )
            # a small element maps to the sum of its digits times root^i
            root_pows = big.antilog[roots.min() * np.arange(small.n) % big.order]
            forward = linear_map(np.arange(small.size), big.digit_rows(root_pows), big.p)
        self.forward = readonly(forward)
        self.w = int(big.dlog[forward[small.primitive_packed]]) // t
        # every power, hence injective: G^(t w k) for g^k, and 0 for 0
        k = np.arange(small.order, dtype=np.int64)
        if (
            forward[0] != 0
            or math.gcd(self.w, small.order) != 1
            or (big.dlog[forward[small.antilog]] != t * self.w * k % big.order).any()
        ):
            raise InternalError("embedding is not the power map of its generator")


def build_field(p: int, n: int, table_cap: int = DEFAULT_TABLE_CAP) -> FiniteField:
    """Deterministic GF(p^n); identical calls share one immutable instance."""
    _require_table_cap(p, n, table_cap)
    return _interned(p, n)


def embed(small: FiniteField, big: FiniteField) -> SubfieldEmbedding:
    if small.p != big.p:
        raise NotASubfieldError("different characteristics")
    return _interned(big.p, big.n, small.n)


@cache
def _interned(p: int, n: int, small_n: int | None = None):
    """The one GF(p^n), or with ``small_n`` the one embedding of
    GF(p^small_n) into it; the table cap is checked by the callers."""
    if small_n is None:
        return FiniteField(p, n, table_cap=p**n)
    return SubfieldEmbedding(_interned(p, small_n), _interned(p, n))
