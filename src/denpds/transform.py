"""Exact transform over Z_p^n on root-of-unity count vectors.

An element of Z[zeta_p] is held as an integer vector a of length p, standing
for sum_j a[j] zeta^j.  Since 1 + zeta + ... + zeta^(p-1) = 0 the vector is
fixed only up to adding one constant to every entry; the element is a
rational integer exactly when a[1] = ... = a[p-1], and then equals
a[0] - a[1].  A function on Z_p^n is a (v, p) array of such vectors, row g
belonging to the group element whose base-p digit string is g, first digit
least significant.

    forward(f)[g] = sum_x f[x] zeta^<g,x>      inverse(F)[h] = sum_g F[g] zeta^-<g,h>

with <g,x> the dot product of the digit strings mod p, so that
inverse(forward(f)) = v f.  No floating point is used: every entry of a
result is a sum of input entries, so int64 holds a result exactly when it
holds the sum of all input entries.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError, InternalError

INT64_LIMIT = 1 << 63


def indicator(idx: np.ndarray, v: int, p: int) -> np.ndarray:
    """The (v, p) count vectors of the 0/1 indicator of the indices idx."""
    counts = np.zeros((v, p), dtype=np.int64)
    counts[idx, 0] = 1
    return counts


def _butterfly(counts: np.ndarray, sign: int) -> np.ndarray:
    """One pass per digit: multiplying by zeta^t rotates a vector by t."""
    v, p = counts.shape
    block = 1
    while block < v:
        high = v // (block * p)
        a4 = counts.reshape(high, p, block, p)
        out = np.empty_like(a4)
        for c in range(p):
            acc = np.zeros((high, block, p), dtype=np.int64)
            for d in range(p):
                acc += np.roll(a4[:, d], shift=(sign * c * d) % p, axis=-1)
            out[:, c] = acc
        counts = out.reshape(v, p)
        block *= p
    return counts


def forward(counts: np.ndarray) -> np.ndarray:
    return _butterfly(counts, 1)


def inverse(counts: np.ndarray) -> np.ndarray:
    return _butterfly(counts, -1)


def times_conjugate(counts: np.ndarray) -> np.ndarray:
    """Row-wise product a * conj(a) in Z[zeta_p], conj(a)[j] = a[-j]: the
    cyclic convolution sum_j a[j] a[j - t] for every t.  For the spectrum of
    D this is chi_g(D) chi_{-g}(D)."""
    out = np.empty_like(counts)
    for t in range(counts.shape[1]):
        out[:, t] = (counts * np.roll(counts, t, axis=1)).sum(axis=1)
    return out


def values(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, rational) per row; the value is meaningful where rational."""
    rational = (counts[:, 1:] == counts[:, 1:2]).all(axis=1)
    return counts[:, 0] - counts[:, 1], rational


def difference_counts(spectrum: np.ndarray, k: int) -> np.ndarray:
    """For every h, the number of ordered pairs (x, y) in D x D with
    x - y = h, index 0 included, from the forward transform of the
    indicator of a k-set D: inverse(chi * conj(chi)) / v."""
    v = spectrum.shape[0]
    # the product's entries total k^2 per row, the inverse's v k^2 per row
    if v * k * k >= INT64_LIMIT:
        raise CapExceededError("difference transform: v*k^2 = %d is not below 2^63" % (v * k * k))
    vals, rational = values(inverse(times_conjugate(spectrum)))
    if not rational.all():
        raise InternalError("difference counts must be rational")
    if (vals % v).any():
        raise InternalError("difference counts must be divisible by v")
    return vals // v
