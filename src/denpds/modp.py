"""Dense linear algebra over GF(p) for small matrices.

Everything works on integer numpy arrays with entries reduced mod p and is
exact; sizes here are tiny (matrix dimension = field degree), so clarity
beats asymptotics.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalError


def _rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p. Returns (rref matrix, pivot columns)."""
    m = mat.astype(np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    rank = 0
    for c in range(cols):
        pivot = None
        for rr in range(rank, rows):
            if m[rr, c] % p:
                pivot = rr
                break
        if pivot is None:
            continue
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        inv = pow(int(m[rank, c]), p - 2, p)
        m[rank] = (m[rank] * inv) % p
        for rr in range(rows):
            if rr != rank and m[rr, c]:
                m[rr] = (m[rr] - m[rr, c] * m[rank]) % p
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return m % p, pivots


def inverse(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p; raises if singular."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise InternalError("inverse needs a square matrix")
    aug = np.concatenate([mat.astype(np.int64) % p, np.eye(n, dtype=np.int64)], axis=1)
    red, pivots = _rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise InternalError("matrix is singular mod %d" % p)
    return red[:, n:].copy()


def kernel_basis(mat: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of {x : mat @ x == 0 mod p} as length-ncols vectors."""
    m = mat.astype(np.int64) % p
    rows, cols = m.shape
    red, pivots = _rref(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = np.zeros(cols, dtype=np.int64)
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = (-red[i, f]) % p
        basis.append(vec)
    return basis

