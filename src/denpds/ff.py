"""Exact finite field arithmetic backed by full discrete-log tables.

A field GF(p^n) is built deterministically:

* modulus: the lexicographically smallest monic irreducible polynomial of
  degree n over GF(p), coefficients compared constant term first;
* primitive element: the multiplicative generator whose coefficient vector
  (same constant-first order) is lexicographically smallest.

Elements are packed as integers sum(c_i * p^i) over the polynomial basis
{1, x, ..., x^(n-1)} and, after table construction, live in discrete-log
form: ``Zero`` or ``g^k`` for the chosen primitive element g.  All
multiplicative structure (norms, coset indexing, order computations) is
then plain exponent arithmetic, and addition goes through the antilog /
dlog tables.  Everything is exact integer work; there is no floating point
and no randomness anywhere.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np

from . import modp
from .errors import (
    FieldMismatchError,
    InternalError,
    NonPrimeError,
    NotADivisorError,
    NotASubfieldError,
    TableCapExceededError,
)

DEFAULT_TABLE_CAP = 1 << 22


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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


# -- dense polynomial arithmetic over GF(p), coefficients low degree first --


def _trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a or [0]


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_rem(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f where f need not be monic."""
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while a and len(a) - 1 >= df and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - df
        c = (a[-1] * inv_lead) % p
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fi) % p
        a.pop()
    return _trim(a)


def _poly_pow_mod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    acc = _poly_rem(list(base), f, p)
    while e:
        if e & 1:
            result = _poly_rem(_poly_mul(result, acc, p), f, p)
        acc = _poly_rem(_poly_mul(acc, acc, p), f, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b != [0]:
        a, b = b, _poly_rem(a, b, p)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test: x^(p^n) == x mod f and gcd(x^(p^(n/t)) - x, f) trivial."""
    n = len(f) - 1
    if n == 1:
        return True
    x = [0, 1]
    if _poly_pow_mod(x, p**n, f, p) != x:
        return False
    for t in prime_factors(n):
        g = _poly_pow_mod(x, p ** (n // t), f, p)
        g = _trim([(gi - xi) % p for gi, xi in itertools.zip_longest(g, x, fillvalue=0)])
        if len(_poly_gcd(f, g, p)) > 1:
            return False
    return True


def _find_modulus(p: int, n: int) -> tuple[int, ...]:
    if n == 1:
        return (0, 1)
    # constant term 0 would make the polynomial divisible by x
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=n - 1):
            f = [c0, *rest, 1]
            if _is_irreducible(f, p):
                return tuple(f)
    raise InternalError("no irreducible polynomial found for GF(%d^%d)" % (p, n))


class FieldElement:
    """Zero or a power of the field's primitive element.

    ``exp`` is the discrete log (0 <= exp < p^n - 1) or -1 for zero.
    """

    __slots__ = ("field", "exp")

    def __init__(self, field: "FiniteField", exp: int):
        self.field = field
        self.exp = exp

    @property
    def is_zero(self) -> bool:
        return self.exp < 0

    @property
    def packed(self) -> int:
        return 0 if self.exp < 0 else self.field.antilog[self.exp]

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.digits(self.packed)

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise FieldMismatchError("elements belong to different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        f = self.field
        return f.from_packed(f.add_packed(self.packed, other.packed))

    def __neg__(self) -> "FieldElement":
        f = self.field
        if f.p == 2 or self.exp < 0:
            return self
        return FieldElement(f, (self.exp + f.order // 2) % f.order)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        if self.exp < 0 or other.exp < 0:
            return self.field.zero
        return FieldElement(self.field, (self.exp + other.exp) % self.field.order)

    def inv(self) -> "FieldElement":
        if self.exp < 0:
            raise ZeroDivisionError("inverse of zero")
        return FieldElement(self.field, (-self.exp) % self.field.order)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return self * other.inv()

    def __pow__(self, e: int) -> "FieldElement":
        if self.exp < 0:
            if e == 0:
                return self.field.one
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return self
        return FieldElement(self.field, (self.exp * e) % self.field.order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and other.field is self.field
            and other.exp == self.exp
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.n, self.exp))

    def __repr__(self) -> str:
        tag = "GF(%d^%d)" % (self.field.p, self.field.n)
        if self.exp < 0:
            return "<%s 0>" % tag
        return "<%s g^%d=%s>" % (tag, self.exp, list(self.coeffs))

    def multiplicative_order(self) -> int:
        if self.exp < 0:
            raise ZeroDivisionError("order of zero")
        if self.exp == 0:
            return 1
        return self.field.order // math.gcd(self.exp, self.field.order)

    def trace_to(self, target_degree: int) -> "FieldElement":
        """Trace onto the subfield of degree ``target_degree``: sum of
        x^(q^i) for q = p^target_degree; the result is fixed by x -> x^q."""
        f = self.field
        if f.n % target_degree:
            raise NotADivisorError(
                "%d does not divide field degree %d" % (target_degree, f.n)
            )
        if self.exp < 0:
            return f.zero
        q = f.p**target_degree
        acc = 0
        for i in range(f.n // target_degree):
            term_exp = (self.exp * pow(q, i, f.order)) % f.order
            acc = f.add_packed(acc, f.antilog[term_exp])
        return f.from_packed(acc)

    def norm_to(self, target_degree: int) -> "FieldElement":
        """Norm onto the subfield of degree ``target_degree``:
        x^((p^n - 1) / (p^d - 1)); multiplicative, zero maps to zero."""
        f = self.field
        if f.n % target_degree:
            raise NotADivisorError(
                "%d does not divide field degree %d" % (target_degree, f.n)
            )
        if self.exp < 0:
            return f.zero
        t = f.order // (f.p**target_degree - 1)
        return FieldElement(f, (self.exp * t) % f.order)


class FiniteField:
    """Fully tabulated GF(p^n) with deterministic modulus and generator."""

    def __init__(self, p: int, n: int, table_cap: int = DEFAULT_TABLE_CAP):
        if not is_prime(p):
            raise NonPrimeError("characteristic %r is not prime" % (p,))
        if n < 1:
            raise ValueError("degree must be >= 1")
        size = p**n
        if size > table_cap:
            raise TableCapExceededError(
                "GF(%d^%d) has %d elements, above the table cap %d"
                % (p, n, size, table_cap)
            )
        self.p = p
        self.n = n
        self.size = size
        self.order = size - 1
        self.modulus: tuple[int, ...] = _find_modulus(p, n)
        self._pows = tuple(p**i for i in range(n + 1))
        self.primitive_packed = self._find_primitive()
        self.antilog: list[int] = [0] * self.order
        cur = 1
        for k in range(self.order):
            self.antilog[k] = cur
            cur = self._mul_poly(cur, self.primitive_packed)
        if cur != 1:
            raise InternalError("primitive element order mismatch")
        self.dlog: list[int] = [-1] * self.size
        for k in range(self.order):
            v = self.antilog[k]
            if self.dlog[v] != -1:
                raise InternalError("antilog table is not injective")
            self.dlog[v] = k
        if any(self.dlog[v] == -1 for v in range(1, self.size)):
            raise InternalError("antilog table does not cover the field")
        self._np_cache: dict = {}
        self._coords_cache: dict[int, tuple] = {}

    # -- packed-representation helpers --

    def digits(self, packed: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.n):
            packed, d = divmod(packed, p)
            out.append(d)
        return tuple(out)

    def pack(self, digits) -> int:
        acc = 0
        for i, d in enumerate(digits):
            acc += (d % self.p) * self._pows[i]
        return acc

    def add_packed(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        p = self.p
        acc, mult = 0, 1
        for _ in range(self.n):
            acc += ((x + y) % p) * mult
            x //= p
            y //= p
            mult *= p
        return acc

    def neg_packed(self, x: int) -> int:
        if self.p == 2:
            return x
        p = self.p
        acc, mult = 0, 1
        for _ in range(self.n):
            acc += ((p - x % p) % p) * mult
            x //= p
            mult *= p
        return acc

    def _mul_poly(self, x: int, y: int) -> int:
        """Packed multiplication by polynomial arithmetic (table build only)."""
        a = list(self.digits(x))
        b = list(self.digits(y))
        prod = _poly_rem(_poly_mul(a, b, self.p), list(self.modulus), self.p)
        return self.pack(prod)

    def mul_packed(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.antilog[(self.dlog[x] + self.dlog[y]) % self.order]

    def _pow_poly(self, x: int, e: int) -> int:
        result, acc = 1, x
        while e:
            if e & 1:
                result = self._mul_poly(result, acc)
            acc = self._mul_poly(acc, acc)
            e >>= 1
        return result

    def _find_primitive(self) -> int:
        fac = prime_factors(self.order) if self.order > 1 else []
        for vec in itertools.product(range(self.p), repeat=self.n):
            cand = self.pack(vec)
            if cand == 0:
                continue
            if all(self._pow_poly(cand, self.order // t) != 1 for t in fac):
                return cand
        raise InternalError("no generator found (impossible for a field)")

    # -- element constructors --

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, -1)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def primitive(self) -> FieldElement:
        return FieldElement(self, 1 % self.order)

    def element(self, exp: int) -> FieldElement:
        if exp < 0:
            return self.zero
        return FieldElement(self, exp % self.order)

    def from_packed(self, packed: int) -> FieldElement:
        if packed == 0:
            return self.zero
        return FieldElement(self, self.dlog[packed])

    def from_coeffs(self, coeffs) -> FieldElement:
        return self.from_packed(self.pack(coeffs))

    def from_int_scalar(self, c: int) -> FieldElement:
        """The prime-subfield element c * 1 for an integer c."""
        return self.from_packed(c % self.p)

    def elements(self):
        """All elements, in packed order (zero first)."""
        for v in range(self.size):
            yield self.from_packed(v)

    def eval_poly_ints(self, coeffs, point: FieldElement) -> FieldElement:
        """Evaluate a GF(p)-coefficient polynomial at a field element."""
        acc = self.zero
        for c in reversed(list(coeffs)):
            acc = acc * point + self.from_int_scalar(c)
        return acc

    # -- numpy views (cached, treated as immutable) --

    def antilog_array(self) -> np.ndarray:
        a = self._np_cache.get("antilog")
        if a is None:
            a = np.array(self.antilog, dtype=np.int64)
            a.setflags(write=False)
            self._np_cache["antilog"] = a
        return a

    def dlog_array(self) -> np.ndarray:
        a = self._np_cache.get("dlog")
        if a is None:
            a = np.array(self.dlog, dtype=np.int64)
            a.setflags(write=False)
            self._np_cache["dlog"] = a
        return a

    def digit_matrix(self) -> np.ndarray:
        """Base-p digit rows for every packed value 0..size-1."""
        a = self._np_cache.get("digits")
        if a is None:
            vals = np.arange(self.size, dtype=np.int64)
            a = np.empty((self.size, self.n), dtype=np.int64)
            for i in range(self.n):
                a[:, i] = (vals // self._pows[i]) % self.p
            a.setflags(write=False)
            self._np_cache["digits"] = a
        return a

    def trace_table(self) -> np.ndarray:
        """Absolute trace to GF(p) as an integer in [0, p), indexed packed."""
        a = self._np_cache.get("trace")
        if a is None:
            anti = self.antilog_array()
            exps = np.arange(self.order, dtype=np.int64)
            dig = np.zeros((self.order, self.n), dtype=np.int64)
            for i in range(self.n):
                idx = (exps * pow(self.p, i, self.order)) % self.order
                dig += self.digit_matrix()[anti[idx]]
            dig %= self.p
            # a trace value lies in GF(p): only the constant digit survives
            if self.n > 1 and np.any(dig[:, 1:]):
                raise InternalError("trace left the prime subfield")
            a = np.zeros(self.size, dtype=np.int64)
            a[anti] = dig[:, 0]
            a.setflags(write=False)
            self._np_cache["trace"] = a
        return a

    # -- coordinates over a subfield --

    def _coords_ctx(self, d: int):
        if self.n % d:
            raise NotADivisorError("%d does not divide field degree %d" % (d, self.n))
        ctx = self._coords_cache.get(d)
        if ctx is None:
            small = build_field(self.p, d)
            emb = embed(small, self)
            n, blocks = self.n, self.n // d
            cols = np.zeros((n, n), dtype=np.int64)
            pi = self.primitive
            for j in range(blocks):
                pj = pi**j
                for i in range(d):
                    rho_i = self.from_packed(emb.apply_packed(small._pows[i]))
                    cols[:, j * d + i] = self.digits((pj * rho_i).packed)
            binv = modp.inverse(cols, self.p)
            ctx = (small, emb, binv)
            self._coords_cache[d] = ctx
        return ctx

    def to_coords(self, x: FieldElement, base_degree: int) -> tuple:
        """Coordinates of x over the degree-``base_degree`` subfield with
        respect to the power basis {1, g, ..., g^(n/d - 1)} of the field's
        primitive element g.  Returns a tuple of subfield elements."""
        if x.field is not self:
            raise FieldMismatchError("element from another field")
        small, _, binv = self._coords_ctx(base_degree)
        vec = np.array(self.digits(x.packed), dtype=np.int64)
        u = (binv @ vec) % self.p
        d = base_degree
        out = []
        for j in range(self.n // d):
            out.append(small.from_packed(small.pack(u[j * d : (j + 1) * d])))
        return tuple(out)

    def from_coords(self, coords, base_degree: int) -> FieldElement:
        small, emb, _ = self._coords_ctx(base_degree)
        acc = self.zero
        pi = self.primitive
        for j, c in enumerate(coords):
            if c.field is not small:
                raise FieldMismatchError("coordinate from the wrong subfield")
            acc = acc + self.from_packed(emb.apply_packed(c.packed)) * (pi**j)
        return acc

    def coords_table(self, base_degree: int) -> np.ndarray:
        """Packed subfield coordinates for every element; row index = packed."""
        key = ("coords", base_degree)
        a = self._np_cache.get(key)
        if a is None:
            small, _, binv = self._coords_ctx(base_degree)
            u = (self.digit_matrix() @ binv.T) % self.p
            d = base_degree
            blocks = self.n // d
            a = np.zeros((self.size, blocks), dtype=np.int64)
            for j in range(blocks):
                for i in range(d):
                    a[:, j] += u[:, j * d + i] * small._pows[i]
            a.setflags(write=False)
            self._np_cache[key] = a
        return a

    # -- descriptions --

    def describe(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "modulus": list(self.modulus),
            "primitive": list(self.digits(self.primitive_packed)),
        }

    def to_json(self) -> str:
        return json.dumps(self.describe(), sort_keys=True)

    def __repr__(self) -> str:
        return "FiniteField(p=%d, n=%d)" % (self.p, self.n)


class SubfieldEmbedding:
    """Injective ring homomorphism from a small field into a big one.

    The image of the small field's polynomial generator is the root of the
    small modulus inside the big field with the smallest discrete log; the
    whole map is evaluation of coefficient vectors at that root.
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
        if small is big:
            self.root_packed = big._pows[1] if big.n > 1 else 1
            forward = list(range(small.size))
        elif small.n == 1:
            # prime subfield: c |-> c * 1, packed constants coincide
            self.root_packed = 0
            forward = list(range(small.p))
        else:
            t = big.order // small.order
            roots = []
            for i in range(small.order):
                cand = big.from_packed(big.antilog[(t * i) % big.order])
                if big.eval_poly_ints(small.modulus, cand).is_zero:
                    roots.append(cand.exp)
            if len(roots) != small.n:
                raise InternalError(
                    "expected %d conjugate roots, found %d" % (small.n, len(roots))
                )
            rho = big.element(min(roots))
            forward = []
            for s in range(small.size):
                forward.append(big.eval_poly_ints(small.digits(s), rho).packed)
            self.root_packed = rho.packed
        self._forward = tuple(forward)
        if len(set(self._forward)) != small.size:
            raise InternalError("embedding is not injective")
        self._inverse = {v: s for s, v in enumerate(self._forward)}

    def apply_packed(self, small_packed: int) -> int:
        return self._forward[small_packed]

    def apply(self, x: FieldElement) -> FieldElement:
        if x.field is not self.small:
            raise FieldMismatchError("element not from the embedding source")
        return self.big.from_packed(self._forward[x.packed])

    def preimage_packed(self, big_packed: int):
        """Packed small element, or None when outside the image."""
        return self._inverse.get(big_packed)

    def preimage(self, y: FieldElement):
        if y.field is not self.big:
            raise FieldMismatchError("element not from the embedding target")
        s = self._inverse.get(y.packed)
        return None if s is None else self.small.from_packed(s)

    @property
    def image(self) -> frozenset:
        return frozenset(self._forward)


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def build_field(p: int, n: int, table_cap: int = DEFAULT_TABLE_CAP) -> FiniteField:
    """Deterministic GF(p^n); identical calls share one immutable instance."""
    key = (p, n)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = FiniteField(p, n, table_cap=table_cap)
        _FIELD_CACHE[key] = field
    elif field.size > table_cap:
        raise TableCapExceededError(
            "GF(%d^%d) has %d elements, above the table cap %d"
            % (p, n, field.size, table_cap)
        )
    return field


@lru_cache(maxsize=None)
def _embed_cached(p: int, d: int, n: int) -> SubfieldEmbedding:
    return SubfieldEmbedding(build_field(p, d), build_field(p, n))


def embed(small: FiniteField, big: FiniteField) -> SubfieldEmbedding:
    if small.p != big.p:
        raise NotASubfieldError("different characteristics")
    return _embed_cached(small.p, small.n, big.n)
