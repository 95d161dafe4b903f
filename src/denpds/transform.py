"""Exact transform over Z_p^n, in one of two forms chosen by p.

A function on Z_p^n takes values in Z[zeta_p]; the group element whose
base-p digit string is g, first digit least significant, has index g.

    forward(f)[g] = sum_x f[x] zeta^<g,x>      inverse(F)[h] = sum_g F[g] zeta^-<g,h>

with <g,x> the dot product of the digit strings mod p, so that
inverse(forward(f)) = v f.

* p = 2, value form.  Z[zeta_2] = Z, so f is an integer vector of length v
  and both directions are the Walsh-Hadamard transform: one in-place
  butterfly (x, y) -> (x + y, x - y) per digit (Fino and Algazi, IEEE
  Trans. Comput. 1976).
* Odd p, count form.  An element of Z[zeta_p] is an integer vector a of
  length p, standing for sum_j a[j] zeta^j.  Since 1 + zeta + ... +
  zeta^(p-1) = 0 it is fixed only up to adding one constant to every entry;
  it is a rational integer exactly when a[1] = ... = a[p-1], and then equals
  a[0] - a[1].  f is a (p, v) array whose column g is the vector of element
  g, so multiplying by zeta^s moves whole rows, row j to row j + s mod p.

``forward`` and ``inverse`` hold two arrays of the input's size at a time
and may overwrite their argument; the result is the returned array.  No
floating point is used; every entry of a result is a signed sum of input
entries, and each width is checked before an array is allocated:

* ``indicator`` and ``forward``: the transform of the indicator of a k-set.
  In value form it is int64 and bounded by k.  In count form it is int32:
  every entry counts set elements, so it is at most k, and ``indicator``
  refuses k >= 2^31.
* ``difference_counts``: int64.  chi * conj(chi) totals k^2 per character,
  so every entry of its inverse is at most v k^2, and the function refuses
  v k^2 >= 2^63.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError, InternalError

INT32_LIMIT = 1 << 31
INT64_LIMIT = 1 << 63


def indicator(idx: np.ndarray, v: int, p: int) -> np.ndarray:
    """The 0/1 indicator of the indices idx: an int64 vector for p = 2, the
    (p, v) int32 count vectors for odd p."""
    if p == 2:
        f = np.zeros(v, dtype=np.int64)
        f[idx] = 1
        return f
    if len(idx) >= INT32_LIMIT:
        raise CapExceededError("int32 transform: k = %d is not below 2^31" % len(idx))
    counts = np.zeros((p, v), dtype=np.int32)
    counts[0, idx] = 1
    return counts


def _by_digit(f: np.ndarray, p: int, step) -> np.ndarray:
    """Run ``step(f, spare, block)`` once per digit, block being the digit's
    place value in the last axis; a step returns (result, free buffer).  The
    digits from the middle up go first; a transpose then brings the low
    digits to the top, and a second one restores the order, so that no
    pass walks the arrays in blocks shorter than about sqrt(v)."""
    f = np.ascontiguousarray(f)
    spare = np.empty_like(f)
    lead, v = f.shape[:-1], f.shape[-1]
    low = 1
    while low * low < v:
        low *= p
    for first in (low, v // low):
        block = first
        while block < v:
            f, spare = step(f, spare, block)
            block *= p
        below = f.reshape(lead + (v // first, first))
        spare.reshape(lead + (first, v // first))[...] = below.swapaxes(-1, -2)
        f, spare = spare, f
    return f


def _walsh_hadamard_step(f: np.ndarray, spare: np.ndarray, half: int):
    """In place: (x, y) -> (x + y, x - y) on the pairs one digit apart."""
    pairs = f.reshape(-1, 2, half)
    x, y = pairs[:, 0], pairs[:, 1]
    x += y
    y *= -2
    y += x
    return f, spare


def _butterfly(counts: np.ndarray, sign: int) -> np.ndarray:
    """The output at digit c is sum_d zeta^(sign c d) times the input at
    digit d: two row-slice adds per (c, d), from one buffer into the other."""
    p = counts.shape[0]

    def step(src, dst, block):
        a, b = src.reshape(p, -1, p, block), dst.reshape(p, -1, p, block)
        for c in range(p):
            out = b[:, :, c]
            out[...] = a[:, :, 0]
            for d in range(1, p):
                s = sign * c * d % p
                out[s:] += a[: p - s, :, d]
                out[:s] += a[p - s :, :, d]
        return dst, src

    return _by_digit(counts, p, step)


def forward(f: np.ndarray) -> np.ndarray:
    return _by_digit(f, 2, _walsh_hadamard_step) if f.ndim == 1 else _butterfly(f, 1)


def inverse(f: np.ndarray) -> np.ndarray:
    return _by_digit(f, 2, _walsh_hadamard_step) if f.ndim == 1 else _butterfly(f, -1)


def times_conjugate(f: np.ndarray) -> np.ndarray:
    """The product a * conj(a) in Z[zeta_p] for every element, as int64.
    In value form conj is the identity, so this is a^2; in count form,
    conj(a)[j] = a[-j] and the product is the cyclic convolution
    sum_j a[j] a[j - t] for every t.  For the spectrum of D this is
    chi_g(D) chi_{-g}(D)."""
    if f.ndim == 1:
        return np.square(f, dtype=np.int64)
    a = f.astype(np.int64)
    p = a.shape[0]
    out = np.zeros_like(a)
    term = np.empty_like(a[0])
    for t in range(p):
        for j in range(p):
            out[t] += np.multiply(a[j], a[j - t], out=term)
    return out


def values(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, rational) per element; the value is meaningful where rational."""
    if f.ndim == 1:
        return f, np.ones(len(f), dtype=bool)
    rational = (f[2:] == f[1]).all(axis=0)
    return np.subtract(f[0], f[1], dtype=np.int64), rational


def difference_counts(spectrum: np.ndarray, k: int) -> np.ndarray:
    """For every h, the number of ordered pairs (x, y) in D x D with
    x - y = h, index 0 included, from the forward transform of the
    indicator of a k-set D: inverse(chi * conj(chi)) / v."""
    v = spectrum.shape[-1]
    if v * k * k >= INT64_LIMIT:
        raise CapExceededError("difference transform: v*k^2 = %d is not below 2^63" % (v * k * k))
    vals, rational = values(inverse(times_conjugate(spectrum)))
    if not rational.all():
        raise InternalError("difference counts must be rational")
    if (vals % v).any():
        raise InternalError("difference counts must be divisible by v")
    return vals // v
