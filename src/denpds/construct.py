"""Construction of both set families inside a two-field tower.

The ambient group is G = (K1 x K2, +) for K1 = GF(q^(m*ell)) and
K2 = GF(q^(m*(ell+1))), realized over a concrete middle field GF(q^m) that
embeds into both.  A set is stored as a sorted array of group indices: the
element (a, b) has index packed(a) + |K1| packed(b).  Each ``Tower`` owns
one ``GroupIndexer``, ``Tower.indexer``, whose ``split`` and ``join`` are
the only code that applies this encoding; the tower's own tables (norm
pullbacks, compatible generators, representatives of the orbits of the
multiplier group) and the indexer's (trace pairing) are built on first use,
once per instance, as read-only arrays.
Set files and witnesses name an element by its pair (i, j) of discrete
logs with respect to the two deterministic field generators, with -1 for
the zero coordinate.

Norms are exponent arithmetic: each embedding of the middle field maps its
generator's powers g^k to G^(t w k) (``ff.SubfieldEmbedding.w``), so the
norm of pi^i pulls back to g^(i / w).  The trace pairing has one table per
field, the labels (Tr(a x^i))_i of ``_upack``, which is ``ff.linear_map`` of
the Gram matrix (Tr(x^i x^j)) on every packed value: the indexer's
character labels and R-perp (``dual_subspace``, the labels that one more
linear map sends to zero) both read it.  This module does no digit
arithmetic of its own; only ``ff`` knows the packed <-> digit encoding.  A
``Subspace``, like a ``PdsSet``, holds its elements as a sorted read-only
int64 array.

Two independent routes build the primal set:

* ``build_D``: the norm-ratio membership test.  Both coordinate norms are
  pulled back through the subfield embeddings into the middle field and
  their ratio is tested against the materialized subspace R.
* ``build_D_cosets``: the multiplicative-coset union over compatible
  generators alpha, beta whose norms agree on a common middle-field
  generator gamma.

Their set equality is a core oracle and is never assumed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import params as pm
from .errors import (
    FieldMismatchError,
    InternalError,
    NotASubspaceError,
    TableCapExceededError,
)
from .ff import (
    DEFAULT_TABLE_CAP,
    FiniteField,
    build_field,
    digitwise,
    embed,
    is_prime,
    linear_map,
    readonly,
    sorted_unique,
)
from .jsonout import dumps

# How the family tag of a set transforms under complementation and under
# the character-group dual.  The four families are closed under both maps:
# the complement of the rank-r dual family is the rank-(m-r) primal family
# realized at the same stored parameters, and vice versa.
COMPLEMENT_TAG = {
    "primal": "complement",
    "complement": "primal",
    "dual": "complement-dual",
    "delsarte-dual": "complement-dual",
    "complement-dual": "dual",
}
DELSARTE_TAG = {
    "primal": "delsarte-dual",
    "dual": "primal",
    "delsarte-dual": "primal",
    "complement": "complement-dual",
    "complement-dual": "complement",
}


@dataclass(frozen=True)
class TowerParams:
    """The tuple (p, s, m, ell, r) plus everything derived from it."""

    p: int
    s: int
    m: int
    ell: int
    r: int

    def __post_init__(self):
        if self.p >= 1 << 64:
            raise ValueError("p must be below 2^64")
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        if self.s < 1 or self.m < 1 or self.ell < 1:
            raise ValueError("s, m, ell must be >= 1")
        if not 0 <= self.r <= self.m:
            raise ValueError("need 0 <= r <= m")

    @property
    def q(self) -> int:
        return self.p**self.s

    @property
    def e(self) -> int:
        return (self.q**self.m - 1) // (self.q - 1)

    @property
    def deg_base(self) -> int:
        return self.s

    @property
    def deg_mid(self) -> int:
        return self.s * self.m

    @property
    def deg1(self) -> int:
        return self.s * self.m * self.ell

    @property
    def deg2(self) -> int:
        return self.s * self.m * (self.ell + 1)

    @property
    def dim_p(self) -> int:
        return self.s * self.m * (2 * self.ell + 1)

    @property
    def dim_q(self) -> int:
        return self.m * (2 * self.ell + 1)

    @property
    def v(self) -> int:
        return self.p**self.dim_p

    @property
    def degenerate(self) -> bool:
        return self.r in (0, self.m)

    def primal_params(self) -> pm.SrgParams:
        return pm.denniston_params(self.q, self.m, self.ell, self.r)

    def dual_params(self) -> pm.SrgParams:
        return pm.dual_denniston_params(self.q, self.m, self.ell, self.r)

    def spectrum_values(self) -> tuple[int, int]:
        """(positive, negative) nonprincipal character values of the primal set."""
        q, m, ell, r = self.q, self.m, self.ell, self.r
        pos = pm.exact_div((q**m - q**r) * (q ** (m * ell) - 1), q**m - 1)
        neg = -pm.exact_div((q**r - 1) * (q ** (m * (ell + 1)) - 1), q**m - 1) - 1
        return pos, neg

    def as_dict(self) -> dict:
        return {"p": self.p, "s": self.s, "m": self.m, "ell": self.ell, "r": self.r}


@dataclass(frozen=True, eq=False)
class Subspace:
    """A GF(q)-subspace of the middle field, fully materialized: ``elements``
    is the sorted, read-only int64 array of its packed values."""

    mid: FiniteField
    base: FiniteField
    basis: tuple[int, ...]  # packed middle-field elements, GF(q)-independent
    elements: np.ndarray
    dim: int  # over GF(q)

    def basis_coeff_rows(self) -> list[list[int]]:
        return [list(self.mid.digits(b)) for b in self.basis]


def _extend_span(mid: FiniteField, scalars: np.ndarray, span: np.ndarray, b: int) -> np.ndarray:
    """span + scalars * b as an array, one entry per (element, scalar)."""
    return mid.add(span[:, None], mid.mul(scalars, b)[None, :]).ravel()


def subspace_from_basis(
    mid: FiniteField, base: FiniteField, basis_packed: list[int]
) -> Subspace:
    """Span the given vectors over GF(q); reject dependent input."""
    basis = tuple(int(b) for b in basis_packed)  # a set file's basis is Python ints
    scalars, span = embed(base, mid).forward, np.zeros(1, dtype=np.int64)
    for b in basis:
        span = _extend_span(mid, scalars, span, b)
    elems = sorted_unique(span)
    if len(elems) != base.size ** len(basis):
        raise NotASubspaceError("basis vectors are GF(q)-dependent")
    return Subspace(mid, base, basis, readonly(elems), len(basis))


def subspace_from_elements(
    mid: FiniteField, base: FiniteField, elements
) -> Subspace:
    """Extract a greedy GF(q)-basis of an explicit element set, smallest
    elements first, and require that it spans exactly that set."""
    elems = sorted_unique(elements)
    if len(elems) and not (0 <= elems[0] and elems[-1] < mid.size):
        raise NotASubspaceError("elements must be packed values below %d" % mid.size)
    basis: list[int] = []
    scalars, span = embed(base, mid).forward, np.zeros(1, dtype=np.int64)
    for x in elems.tolist():
        if x not in span:
            basis.append(x)
            span = _extend_span(mid, scalars, span, x)
    if not np.array_equal(sorted_unique(span), elems):
        raise NotASubspaceError("%d elements that are not a GF(q)-subspace" % len(elems))
    return Subspace(mid, base, tuple(basis), readonly(elems), len(basis))


def dual_subspace(R: Subspace) -> Subspace:
    """R-perp under (x, y) -> Tr(x y) into GF(p): the y whose trace label
    (``_upack``, the digits of (Tr(y x^i))_i) is orthogonal mod p to the
    digits of every vector of a GF(p)-spanning set of R, since Tr(x y) is
    that dot product; the labels the transposed spanning rows map to zero.
    The basis is extracted greedily from the elements."""
    mid, base = R.mid, R.base
    # GF(p)-spanning vectors of R: the embedded polynomial basis of GF(q)
    # times the basis of R
    scalars = embed(base, mid).forward[base.x_powers]
    spanning = mid.mul(scalars[:, None], np.array(R.basis, dtype=np.int64)[None, :]).ravel()
    # the pairings of y with the spanning set, packed: zero when all are
    elems = np.flatnonzero(linear_map(_upack(mid), mid.digit_rows(spanning).T, mid.p) == 0)
    if len(elems) != base.size ** (mid.n // base.n - R.dim):
        raise InternalError("dual space has %d elements" % len(elems))
    return subspace_from_elements(mid, base, elems)


@dataclass(frozen=True)
class CompatiblePrimitives:
    """Generators of the two big fields whose norms pull back to one
    middle-field generator gamma: K1's own generator, and K2's generator
    raised to beta_adjust."""

    beta_adjust: int
    gamma_exp: int  # dlog of gamma w.r.t. the middle field's own generator
    gamma: int  # packed


@cache  # keyed by an interned field, which lives as long as the process anyway
def _upack(fld: FiniteField) -> np.ndarray:
    """For every packed value a of ``fld``, the packed digit vector of
    (Tr(a x^i))_i, i.e. the character label of a in dot-index space; a
    permutation of the packed values."""
    x_pows = fld.x_powers
    gram = fld.trace_table[fld.mul(x_pows[:, None], x_pows[None, :])]
    u = linear_map(np.arange(fld.size), gram, fld.p)
    if len(sorted_unique(u)) != fld.size:
        raise InternalError("trace pairing is degenerate")
    return readonly(u)


class GroupIndexer:
    """The group G = K1 x K2 as the integers [0, v).

    The element (a, b) has index packed(a) + |K1| packed(b): the base-p digit
    string of the two packed coordinates, first coordinate least
    significant, so group addition is digit-wise addition mod p (the XOR of
    the indices for p = 2).  ``split`` and ``join`` are the only code that
    applies this rule.  Pairs of discrete logs, the names set files and
    witnesses use, convert through ``dlog_pairs`` and ``from_dlog_pairs``.
    Each tower owns one indexer, ``Tower.indexer``, and with it the table
    of the trace pairing.
    """

    def __init__(self, tower: "Tower"):
        self.f1, self.f2 = tower.f1, tower.f2
        self.p = tower.params.p
        self.n = tower.params.dim_p
        self.v = tower.params.v
        self.sz1 = tower.f1.size
        self.sz2 = tower.f2.size

    # -- the encoding --

    def split(self, idx):
        """The packed coordinates (a, b) of the indices idx."""
        return idx % self.sz1, idx // self.sz1

    def join(self, a, b):
        """The indices of the packed coordinates (a, b); inverts ``split``."""
        return a + self.sz1 * b

    # -- group law on indices, elementwise with broadcasting --

    def add(self, a, b):
        return digitwise(a, b, 1, self.p, self.n)

    def sub(self, a, b):
        return digitwise(a, b, -1, self.p, self.n)

    def neg(self, a):
        return digitwise(0, a, -1, self.p, self.n)

    # -- discrete-log pairs: set files and witnesses --

    def dlog_pairs(self, idx: np.ndarray) -> np.ndarray:
        """Discrete-log pairs of the indices idx, along a last axis of
        length 2; -1 for a zero coordinate."""
        a, b = self.split(idx)
        return np.stack([self.f1.dlog[a], self.f2.dlog[b]], axis=-1)

    def from_dlog_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Indices of the (k, 2) discrete-log pairs; the inverse of ``dlog_pairs``."""
        i, j = pairs[:, 0], pairs[:, 1]
        return self.join(
            np.where(i < 0, 0, self.f1.antilog[i]), np.where(j < 0, 0, self.f2.antilog[j])
        )

    # -- trace pairing between group elements and characters --

    @cached_property
    def char_index_table(self) -> np.ndarray:
        """Group index of (a, b) -> dot-space index of the character
        zeta^(Tr1(a x) + Tr2(b y)).  A permutation of [0, v), since both
        coordinate label tables are."""
        # row b, column a holds the label of the index join(a, b)
        return readonly(self.join(_upack(self.f1)[None, :], _upack(self.f2)[:, None]).ravel())


@dataclass(frozen=True, eq=False)
class PdsSet:
    """A candidate partial difference set with its provenance.

    ``elements`` is a sorted, duplicate-free, read-only int64 array of
    group indices (see ``GroupIndexer``); any integer sequence given here
    is normalized to that form."""

    params: TowerParams
    provenance: str  # primal | dual | complement | delsarte-dual
    elements: np.ndarray
    claimed: pm.SrgParams
    subspace_rows: tuple = ()  # GF(p) coefficient rows of the R basis used

    def __post_init__(self):
        elems = sorted_unique(self.elements)
        if len(elems) and (elems[0] < 0 or elems[-1] >= self.params.v):
            raise ValueError("set elements must be group indices below %d" % self.params.v)
        object.__setattr__(self, "elements", readonly(elems))

    @property
    def k(self) -> int:
        return len(self.elements)

    @property
    def degenerate(self) -> bool:
        return self.params.degenerate

    def _json_doc(self, tower: "Tower") -> dict:
        """The set file, with the sorted (k, 2) array of dlog pairs as
        ``elements``."""
        pairs = tower.indexer.dlog_pairs(self.elements)
        # lexicographic order: the second log lies in [-1, |K2| - 1)
        pairs = pairs[np.argsort(pairs[:, 0] * tower.f2.size + pairs[:, 1])]
        return {
            "type": "pds-set",
            "version": 1,
            "tower": self.params.as_dict(),
            "provenance": self.provenance,
            "degenerate": self.params.degenerate,
            "claimed": self.claimed.as_dict(),
            "fields": tower.describe_fields(),
            "pairing": "zeta_p^(Tr1(a x) + Tr2(b y))",
            "subspace_rows": [list(r) for r in self.subspace_rows],
            "elements": pairs,
        }

    def to_json(self, tower: "Tower") -> str:
        return dumps(self._json_doc(tower))


def _dlog_pair_array(raw) -> np.ndarray:
    """The set file's element list as a (k, 2) int64 array, (0, 2) for the
    empty list; every exponent must be a JSON integer (true and 1.0 are
    not)."""
    flat = itertools.chain.from_iterable
    try:
        # one C-level pass each: the leaf types, the pair lengths, the values
        if type(raw) is list and set(map(type, flat(raw))) <= {int} and set(map(len, raw)) <= {2}:
            return np.fromiter(flat(raw), np.int64, 2 * len(raw)).reshape(-1, 2)
    except (TypeError, OverflowError):
        pass
    raise ValueError("elements must be pairs of integer exponents")


def _json_integers(doc: dict, section: str, keys=None) -> dict:
    """The object doc[section], whose values under keys (default: all) are
    JSON integers; true and 18.0 are not."""
    part = doc[section]
    if not isinstance(part, dict):
        raise ValueError("%s must be an object" % section)
    for key in part if keys is None else keys:
        if type(part[key]) is not int:
            shown = json.dumps(part[key])
            raise ValueError("%s.%s must be an integer, got %s" % (section, key, shown))
    return part


def pds_from_json_dict(doc: dict, table_cap: int = DEFAULT_TABLE_CAP) -> tuple["Tower", PdsSet]:
    """Read a set file; malformed content raises ValueError, KeyError or
    TypeError, a different field model FieldMismatchError."""
    if not isinstance(doc, dict):
        raise ValueError("a set file is a JSON object")
    tp = TowerParams(**_json_integers(doc, "tower"))
    tower = Tower(tp, table_cap=table_cap)
    if doc["fields"] != tower.describe_fields():
        raise FieldMismatchError(
            "set file uses a different field model than this build constructs"
        )
    pairs = _dlog_pair_array(doc["elements"])
    i, j = pairs[:, 0], pairs[:, 1]
    if not ((-1 <= i) & (i < tower.f1.order) & (-1 <= j) & (j < tower.f2.order)).all():
        raise ValueError("element exponents out of range")
    if doc["provenance"] not in COMPLEMENT_TAG:
        raise ValueError("unknown provenance %r" % (doc["provenance"],))
    c = _json_integers(doc, "claimed", ("v", "k", "lambda", "mu"))
    claimed = pm.SrgParams(c["v"], c["k"], c["lambda"], c["mu"])
    pds = PdsSet(
        tp,
        doc["provenance"],
        tower.indexer.from_dlog_pairs(pairs),
        claimed,
        tuple(tuple(r) for r in doc.get("subspace_rows", [])),
    )
    return tower, pds


class Tower:
    """All fields, embeddings and norm tables for one parameter tuple."""

    def __init__(self, tp: TowerParams, table_cap: int = DEFAULT_TABLE_CAP):
        # v = p^dim_p >= 2^dim_p: an exponent of the cap's bit length or more
        # is over the cap without computing v, however large it is
        if tp.dim_p >= table_cap.bit_length() or tp.v > table_cap:
            raise TableCapExceededError(
                "group of order %d^%d exceeds the table cap %d" % (tp.p, tp.dim_p, table_cap)
            )
        self.params = tp
        self.base = build_field(tp.p, tp.deg_base, table_cap)
        self.mid = build_field(tp.p, tp.deg_mid, table_cap)
        self.f1 = build_field(tp.p, tp.deg1, table_cap)
        self.f2 = build_field(tp.p, tp.deg2, table_cap)
        self.emb_mid1 = embed(self.mid, self.f1)
        self.emb_mid2 = embed(self.mid, self.f2)

    @cached_property
    def indexer(self) -> GroupIndexer:
        """The tower's group-index encoding and trace-pairing tables."""
        return GroupIndexer(self)

    def describe_fields(self) -> dict:
        """The field model a set file records and is checked against."""
        return {
            "base": self.base.describe(),
            "middle": self.mid.describe(),
            "left": self.f1.describe(),
            "right": self.f2.describe(),
        }

    # -- compatible generators --

    @cached_property
    def compatible(self) -> CompatiblePrimitives:
        """With w1, w2 the exponents of the two embeddings of the middle
        field, Norm(alpha) pulls back to gamma = g^(1/w1) and
        Norm(beta0^d) to g^(d/w2), so d = w2/w1 mod |mid*|, stepped by
        |mid*| until beta = beta0^d generates K2."""
        ordm, ord2 = self.mid.order, self.f2.order
        w1, w2 = self.emb_mid1.w, self.emb_mid2.w
        g = pow(w1, -1, ordm)
        d = w2 * g % ordm or ordm
        while math.gcd(d, ord2) != 1:
            d += ordm
            if d >= ord2:
                raise InternalError("no compatible exponent below the field order")
        # postcondition through the tables: both norms are the image of gamma
        gamma = int(self.mid.antilog[g])
        t1, t2 = self.f1.order // ordm, ord2 // ordm
        if (
            self.f1.antilog[t1 % self.f1.order] != self.emb_mid1.forward[gamma]
            or self.f2.antilog[d * t2 % ord2] != self.emb_mid2.forward[gamma]
        ):
            raise InternalError("norms of alpha and beta do not match gamma")
        return CompatiblePrimitives(beta_adjust=d, gamma_exp=g, gamma=gamma)

    # -- norm pullback tables (middle-field dlogs, indexed by coordinate dlog) --

    @cached_property
    def _norm_exponents(self) -> tuple[int, int]:
        """c1, c2 with c_i = 1 / w_i mod |mid*|: Norm(pi^i) = pi^(t i) is
        the image of g^j with t w j = t i, so j = c i mod |mid*|."""
        ordm = self.mid.order
        return pow(self.emb_mid1.w, -1, ordm), pow(self.emb_mid2.w, -1, ordm)

    @cached_property
    def norm_dlogs(self) -> tuple[np.ndarray, np.ndarray]:
        """For each coordinate field, K1 then K2: the array over exponents i
        of dlog_mid(pullback(Norm(pi^i))) = c i mod |mid*|."""
        ordm = self.mid.order
        return tuple(
            readonly(np.arange(big.order, dtype=np.int64) * c % ordm)
            for big, c in zip((self.f1, self.f2), self._norm_exponents)
        )

    # -- the multiplier group H = {(lam, mu) : N1(lam) / N2(mu) in GF(q)*} --

    @cached_property
    def multiplier_generators(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Exponent pairs (a, b) of generators (alpha^a, beta^b) of H, alpha
        and beta the generators of K1 and K2.  The norm ratio of
        (alpha^a, beta^b) pulls back to g^(a c1 - b c2), and GF(q)* is the
        subgroup of e-th powers of g, so (a, b) lies in H exactly when
        a c1 = b c2 mod e: H is generated by (1, c1 / c2 mod e) and (0, e).
        Both constructions test only which coordinates are zero and the
        ratio class mod e, so H fixes every set of either family."""
        e = self.params.e
        c1, c2 = self._norm_exponents
        return (1, c1 * pow(c2, -1, e) % e), (0, e)

    def multiply(self, idx, a: int, b: int) -> np.ndarray:
        """The indices of (alpha^a x, beta^b y) for the indices idx of (x, y)."""
        x, y = self.indexer.split(idx)
        f1, f2 = self.f1, self.f2
        return self.indexer.join(
            f1.mul(x, f1.antilog[a % f1.order]), f2.mul(y, f2.antilog[b % f2.order])
        )

    @cached_property
    def orbit_representatives(self) -> np.ndarray:
        """One index per H-orbit on G minus 0, e + 2 in all: (1, 0) for
        K1* x 0, (0, 1) for 0 x K2*, then (1, beta^j) with j c2 = t mod e
        for each ratio class t = 0 .. e - 1.  H acts on K1* x K2* without
        fixed points, so each ratio class is one orbit of |H| = |K1*| |K2*| / e
        elements."""
        e = self.params.e
        ord1, ord2 = self.f1.order, self.f2.order
        if ord1 * ord2 % e or ord1 + ord2 + e * (ord1 * ord2 // e) != self.params.v - 1:
            raise InternalError("the H-orbit sizes do not add up to v - 1")
        t = np.arange(e, dtype=np.int64)
        j = t * pow(self._norm_exponents[1], -1, e) % e
        # the norm table of K2 puts (1, beta^j) in ratio class t
        if (self.norm_dlogs[1][j] % e != t).any():
            raise InternalError("orbit representative in the wrong ratio class")
        ix = self.indexer
        heads = np.array([ix.join(1, 0), ix.join(0, 1)], dtype=np.int64)
        return readonly(np.concatenate([heads, ix.join(1, self.f2.antilog[j])]))

    def _ratio_membership(self, space: Subspace) -> np.ndarray:
        """Boolean array over middle-field dlogs t: antilog(t) in space."""
        return readonly(np.isin(self.mid.antilog, space.elements))

    # -- subspace constructors --

    def default_subspace(self) -> Subspace:
        """Span of the first r powers of the middle field's own generator."""
        return self.subspace_from_exponents(range(self.params.r))

    def subspace_from_exponents(self, exps) -> Subspace:
        basis = [self.mid.antilog[e % self.mid.order] for e in exps]
        return subspace_from_basis(self.mid, self.base, basis)

    def subspace_from_coeff_rows(self, rows) -> Subspace:
        n, p = self.mid.n, self.params.p
        for row in rows:
            # a GF(p) digit is an int in [0, p); true, 1.0 and p + 1 are not
            if len(row) > n or not all(type(c) is int and 0 <= c < p for c in row):
                raise NotASubspaceError(
                    "a basis row is at most %d integer coefficients in 0..%d" % (n, p - 1)
                )
        basis = [self.mid.pack(row) for row in rows]
        if any(b == 0 for b in basis):
            raise NotASubspaceError("zero vector cannot be a basis element")
        return subspace_from_basis(self.mid, self.base, basis)

    def index_set_T(self, R: Subspace) -> tuple[int, ...]:
        """T = { 0 <= i < e : gamma^i in R } for the construction gamma."""
        if R.mid is not self.mid:
            raise FieldMismatchError("subspace lives in a different field")
        tp = self.params
        gamma_pows = self.mid.antilog[self.compatible.gamma_exp * np.arange(tp.e) % self.mid.order]
        T = tuple(np.flatnonzero(np.isin(gamma_pows, R.elements)).tolist())
        want = (tp.q ** R.dim - 1) // (tp.q - 1)
        if len(T) != want:
            raise InternalError("|T| = %d but expected %d" % (len(T), want))
        return T

    # -- set construction --

    def check_rank(self, R: Subspace | None) -> Subspace:
        """R (the default subspace for None); a rank other than r is a
        NotASubspaceError."""
        R = self.default_subspace() if R is None else R
        if R.dim != self.params.r:
            raise NotASubspaceError(
                "subspace has rank %d but the tower expects r=%d"
                % (R.dim, self.params.r)
            )
        return R

    def _finish(self, idx: np.ndarray, provenance: str, claimed: pm.SrgParams, R: Subspace) -> PdsSet:
        pds = PdsSet(
            self.params,
            provenance,
            idx,
            claimed,
            tuple(tuple(row) for row in R.basis_coeff_rows()),
        )
        if pds.k and pds.elements[0] == 0:
            raise InternalError("constructed set contains the identity")
        if pds.k != claimed.k:
            raise InternalError(
                "constructed size %d but closed form says %d" % (pds.k, claimed.k)
            )
        if not self.is_symmetric(pds):
            raise InternalError("constructed set is not inversion-symmetric")
        return pds

    def is_symmetric(self, pds: PdsSet) -> bool:
        if self.params.p == 2:
            return True
        negated = np.sort(self.indexer.neg(pds.elements))
        return bool(np.array_equal(negated, pds.elements))

    def _ratio_indices(self, ratio_ok: np.ndarray) -> np.ndarray:
        """Indices of the elements with both coordinates nonzero whose norm
        ratio t (a middle-field dlog) has ratio_ok[t]."""
        g1, g2 = self.norm_dlogs
        i, j = np.nonzero(ratio_ok[(g2[None, :] - g1[:, None]) % self.mid.order])
        return self.indexer.join(self.f1.antilog[i], self.f2.antilog[j])

    def build_D(self, R: Subspace | None = None) -> PdsSet:
        """Norm-ratio construction of the primal set."""
        R = self.check_rank(R)
        ratio = self._ratio_indices(self._ratio_membership(R))
        axis = self.indexer.join(np.arange(1, self.f1.size), 0)  # (a, 0), a != 0
        return self._finish(np.concatenate([ratio, axis]), "primal", self.params.primal_params(), R)

    def build_D_cosets(self, R: Subspace | None = None) -> PdsSet:
        """Coset-union construction; independent of the norm-ratio route."""
        R = self.check_rank(R)
        comp = self.compatible
        tp = self.params
        e = tp.e
        ord1, ord2 = self.f1.order, self.f2.order
        d = comp.beta_adjust
        T = self.index_set_T(R)
        size1, size2 = ord1 // e, ord2 // e
        # for each i < e: the coset alpha^(i + e u) of K1 times the union over
        # t in T of the cosets beta^(i + t + e w) of K2, as dlog pairs
        i = np.arange(e, dtype=np.int64)[:, None]
        left = (i + e * np.arange(size1)) % ord1
        shifts = (np.array(T, dtype=np.int64)[:, None] + e * np.arange(size2)).ravel()
        right = d * (i + shifts) % ord2
        a, b = np.broadcast_arrays(left[:, :, None], right[:, None, :])
        axis = np.stack([np.arange(ord1), np.full(ord1, -1)], axis=1)  # (a, 0), a != 0
        pairs = np.concatenate([np.stack([a.ravel(), b.ravel()], axis=1), axis])
        idx = self.indexer.from_dlog_pairs(pairs)
        return self._finish(idx, "primal", tp.primal_params(), R)

    def build_D_dual(self, R: Subspace | None = None) -> PdsSet:
        """Norm-ratio construction of the dual set (complement membership)."""
        R = self.check_rank(R)
        ratio = self._ratio_indices(~self._ratio_membership(dual_subspace(R)))
        axis = self.indexer.join(0, np.arange(1, self.f2.size))  # (0, b), b != 0
        return self._finish(np.concatenate([ratio, axis]), "dual", self.params.dual_params(), R)

    def complement(self, pds: PdsSet) -> PdsSet:
        elems = np.setdiff1d(np.arange(1, self.params.v), pds.elements, assume_unique=True)
        claimed = pm.complement_params(pds.claimed)
        if pds.provenance not in COMPLEMENT_TAG:
            raise ValueError("cannot complement provenance %r" % pds.provenance)
        out = PdsSet(
            self.params, COMPLEMENT_TAG[pds.provenance], elems, claimed, pds.subspace_rows
        )
        if out.k != claimed.k:
            raise InternalError("complement has the wrong size")
        return out
