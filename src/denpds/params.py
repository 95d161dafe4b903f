"""Closed-form parameter calculators for both set families.

All arithmetic is unbounded-integer and every division is asserted exact;
a remainder anywhere means an implementation bug, never a user error.
"""

from __future__ import annotations

import math

from .errors import DeltaNotSquareError, IdentityViolatedError


def exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise IdentityViolatedError("non-exact division %d / %d" % (num, den))
    return q


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    s = math.isqrt(n)
    return s * s == n


class SrgParams:
    """A (v, k, lam, mu) tuple with its derived spectral data; read-only,
    equal and hashed by value."""

    __slots__ = ("v", "k", "lam", "mu")

    def __init__(self, v: int, k: int, lam: int, mu: int):
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.v, self.k, self.lam, self.mu) == (other.v, other.k, other.lam, other.mu)

    def __hash__(self):
        return hash((self.v, self.k, self.lam, self.mu))

    def __repr__(self) -> str:
        # IdentityViolatedError messages show it
        return "SrgParams(v=%r, k=%r, lam=%r, mu=%r)" % (self.v, self.k, self.lam, self.mu)

    @property
    def beta(self) -> int:
        return self.lam - self.mu

    @property
    def delta(self) -> int:
        return self.beta * self.beta + 4 * (self.k - self.mu)

    @property
    def sqrt_delta(self) -> int:
        if not is_perfect_square(self.delta):
            raise DeltaNotSquareError("delta %d is not a perfect square" % self.delta)
        return math.isqrt(self.delta)

    @property
    def eigenvalues(self) -> tuple[int, int]:
        """Restricted eigenvalues (positive first), roots of
        x^2 + (mu - lam) x + (mu - k)."""
        s = self.sqrt_delta
        return exact_div(self.beta + s, 2), exact_div(self.beta - s, 2)

    def identity_holds(self) -> bool:
        """k^2 == k - mu + (lam - mu) k + mu v."""
        return self.k * self.k == self.k - self.mu + self.beta * self.k + self.mu * self.v

    def validate(self) -> "SrgParams":
        if not self.identity_holds():
            raise IdentityViolatedError("parameter identity fails for %s" % (self,))
        if not is_perfect_square(self.delta):
            raise DeltaNotSquareError("delta %d is not a perfect square" % self.delta)
        return self

    def as_dict(self) -> dict:
        return {"v": self.v, "k": self.k, "lambda": self.lam, "mu": self.mu}


def denniston_params(q: int, m: int, ell: int, r: int) -> SrgParams:
    """Primal family parameters for the tower (q, m, ell) at subspace rank r."""
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    qm, qml, qml1 = q**m, q ** (m * ell), q ** (m * (ell + 1))
    v = q ** (m * (2 * ell + 1))
    a = exact_div((q**r - 1) * (qml - 1), qm - 1)
    b = exact_div((q**r - 1) * (qml1 - 1), qm - 1)
    k = a * (qml1 - 1) + qml - 1
    lam = b * (a - 1) + qml - 2
    mu = a * (b + 1)
    return SrgParams(v, k, lam, mu).validate()


def dual_denniston_params(q: int, m: int, ell: int, r: int) -> SrgParams:
    """Dual family parameters; equals the complement of the primal family at
    rank m - r, which is asserted."""
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    qm, qml, qml1 = q**m, q ** (m * ell), q ** (m * (ell + 1))
    v = q ** (m * (2 * ell + 1))
    c = qm - q ** (m - r)
    k = exact_div(c * (qml - 1) * (qml1 - 1), qm - 1) + qml1 - 1
    core = exact_div(
        c * (qml1 - 1) * (qml1 - q ** (m * (ell + 1) - r) + q ** (m - r) - 1),
        (qm - 1) ** 2,
    )
    extra = exact_div(
        q ** (m * (ell + 2) - r)
        + q ** (m * (ell + 1) - r)
        - 2 * qml1
        - 2 * q ** (m - r)
        + 2,
        qm - 1,
    )
    out = SrgParams(v, k, core + extra, core).validate()
    alt = complement_params(denniston_params(q, m, ell, m - r))
    if out != alt:
        raise IdentityViolatedError(
            "dual parameters disagree with the complement route: %s vs %s" % (out, alt)
        )
    return out


def complement_params(sp: SrgParams) -> SrgParams:
    return SrgParams(
        sp.v,
        sp.v - sp.k - 1,
        sp.v - 2 - 2 * sp.k + sp.mu,
        sp.v - 2 * sp.k + sp.lam,
    ).validate()


def delsarte_dual_params(sp: SrgParams) -> SrgParams:
    """Parameters of the dual set living on the character group."""
    s = sp.sqrt_delta
    v, k, beta = sp.v, sp.k, sp.beta
    kd = exact_div((s - beta) * (v - 1) - 2 * k, 2 * s)
    t = v - 2 * k + beta - s
    quad = exact_div(t * t - v * v, 4 * sp.delta)
    lamd = kd + quad + exact_div(t, s)
    mud = kd + quad
    return SrgParams(v, kd, lamd, mud).validate()


def projective_params(
    q: int, m: int, ell: int, r: int, family: str = "primal"
) -> tuple[int, int, int, int]:
    """(n, dim, h1, h2) of the two-intersection point set in PG(dim-1, q)."""
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    qm, qml, qml1 = q**m, q ** (m * ell), q ** (m * (ell + 1))
    dim = m * (2 * ell + 1)
    den = (q - 1) * (qm - 1)
    if family == "primal":
        n = exact_div((q**r - 1) * (qml - 1) * (qml1 - 1), den) + exact_div(
            qml - 1, q - 1
        )
        h1 = exact_div(
            (q ** (m * ell - 1) - 1) * (q ** (m * (ell + 1) + r) - qml1 + qm - q**r),
            den,
        )
        h2 = exact_div(
            (qml - 1)
            * (q ** (m * (ell + 1) + r - 1) - q ** (m * (ell + 1) - 1) + qm - q**r),
            den,
        )
    elif family == "dual":
        n = exact_div(
            (qm - q ** (m - r)) * (qml - 1) * (qml1 - 1), den
        ) + exact_div(qml1 - 1, q - 1)
        h1 = exact_div(
            (q ** (m * (ell + 1) - 1) - 1)
            * (qml1 - q ** (m * (ell + 1) - r) + q ** (m - r) - 1),
            den,
        )
        h2 = exact_div(
            (qml1 - 1)
            * (
                q ** (m * (ell + 1) - 1)
                - q ** (m * (ell + 1) - r - 1)
                + q ** (m - r)
                - 1
            ),
            den,
        )
    else:
        raise ValueError("family must be 'primal' or 'dual'")
    return n, dim, h1, h2


def code_params(
    q: int, m: int, ell: int, r: int, family: str = "primal"
) -> tuple[int, int, int, int]:
    """(n, dim, w1, w2) of the two-weight [n, dim]_q code.

    Cross-identities asserted: h_i == n - w_i against the point-set
    parameters, k == n (q - 1), and the weight/parameter dictionary
    reproduces the set family's (v, k, lam, mu) exactly.
    """
    qm, qml, qml1 = q**m, q ** (m * ell), q ** (m * (ell + 1))
    n, dim, h1, h2 = projective_params(q, m, ell, r, family)
    if family == "primal":
        w1 = exact_div(
            q ** (m * ell - 1) * (q ** (m * (ell + 1) + r) - qml1 + qm - q**r),
            qm - 1,
        )
        w2 = exact_div(q ** (m * (ell + 1) - 1) * (q**r - 1) * (qml - 1), qm - 1)
        sp = denniston_params(q, m, ell, r)
    else:
        w1 = exact_div(
            q ** (m * (ell + 1) - r - 1)
            * (q ** (m * (ell + 1) + r) - qml1 + qm - q**r),
            qm - 1,
        )
        w2 = exact_div(
            (q**r - 1)
            * (qml1 - 1)
            * (q ** (m * (ell + 1) - r) - q ** (m * (ell + 1) - r - 1)),
            (q - 1) * (qm - 1),
        )
        sp = dual_denniston_params(q, m, ell, r)
    if h1 != n - w1 or h2 != n - w2:
        raise IdentityViolatedError("hyperplane/weight pairing h = n - w fails")
    if sp.k != n * (q - 1):
        raise IdentityViolatedError("k != n (q - 1)")
    if lemma_dictionary_params(q, dim, n, w1, w2) != sp:
        raise IdentityViolatedError("weight dictionary disagrees with set parameters")
    return n, dim, w1, w2


def lemma_dictionary_params(q: int, dim: int, n: int, w1: int, w2: int) -> SrgParams:
    """(v, k, lam, mu) determined by a projective two-weight [n, dim]_q code."""
    v = q**dim
    k = n * (q - 1)
    lam = k * k + 3 * k - q * (w1 + w2) - k * q * (w1 + w2) + q * q * w1 * w2
    mu = k * k + k - k * q * (w1 + w2) + q * q * w1 * w2
    return SrgParams(v, k, lam, mu)


class Classification:
    """A match against the Latin / negative Latin square templates;
    read-only, equal and hashed by value."""

    __slots__ = ("kind", "n", "r")

    def __init__(self, kind: str, n: int | None = None, r: int | None = None):
        object.__setattr__(self, "kind", kind)  # "latin" | "negative-latin" | "neither"
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.n, self.r) == (other.kind, other.n, other.r)

    def __hash__(self):
        return hash((self.kind, self.n, self.r))

    def describe(self) -> str:
        if self.kind == "neither":
            return "neither"
        return "%s(n=%d, r=%d)" % (self.kind, self.n, self.r)


def classify_type(sp: SrgParams) -> Classification:
    """Match against the Latin / negative Latin square parameter templates."""
    if not is_perfect_square(sp.v):
        return Classification("neither")
    nn = math.isqrt(sp.v)
    if nn > 1 and sp.k % (nn - 1) == 0:
        rr = sp.k // (nn - 1)
        if sp.lam == nn + rr * rr - 3 * rr and sp.mu == rr * rr - rr:
            return Classification("latin", nn, rr)
    if sp.k % (nn + 1) == 0:
        rr = sp.k // (nn + 1)
        if sp.lam == -nn + rr * rr + 3 * rr and sp.mu == rr * rr + rr:
            return Classification("negative-latin", nn, rr)
    return Classification("neither")
