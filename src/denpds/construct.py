"""Construction of both set families inside a two-field tower.

The ambient group is G = (K1 x K2, +) for K1 = GF(q^(m*ell)) and
K2 = GF(q^(m*(ell+1))), realized over a concrete middle field GF(q^m) that
embeds into both.  A set is stored as a sorted array of group indices: the
element (a, b) has index packed(a) + |K1| packed(b).  Each ``Tower`` owns
one ``GroupIndexer``, ``Tower.indexer``, whose ``split`` and ``join`` are
the only code that applies this encoding; the tower's tables (norm
pullbacks, compatible generators, multiplier-group orbits) and the
indexer's (trace pairing) are built on first use, once per instance, as
read-only arrays.  A set's indicator, ``PdsSet.member``, is built with the
set, and its ``elements`` are read off it.
Set files and witnesses name an element by its pair (i, j) of discrete
logs with respect to the two deterministic field generators, with -1 for
the zero coordinate; ``read_set_file`` decodes them from a file's bytes in
bounded slices, each number by place value.  Every map of a set's
elements that holds one operand fixed (logs to indices, and products by a
fixed factor: the generators of the multiplier group, -1 for odd p and the
generator of GF(q)*, all through ``GroupIndexer.multiply``) is one gather
per coordinate from a table over that coordinate's field, built with the
field's own arithmetic (``FiniteField.product_table``), so no step does
digit or log arithmetic once per element.

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

The multiplier group H = {(lam, mu) : N1(lam) / N2(mu) in GF(q)*} has
e + 2 orbits on G minus 0: the two axes and the e norm-ratio classes.
Every map between orbits and indices (``Tower.orbit_union``,
``Tower.by_orbit``) is one gather from ``Tower.orbit_table``.

Two independent routes build the primal set:

* ``build_D``: the norm-ratio membership test.  Both coordinate norms are
  pulled back through the subfield embeddings into the middle field, the
  ratio classes are tested against the materialized subspace R
  (``ratio_classes``), and the set is the union of one axis and those
  classes (``orbit_union`` of ``Tower.family_orbits``, the one statement
  of which orbits each family's set holds).
* ``build_D_cosets``: the multiplicative-coset union over compatible
  generators alpha, beta whose norms agree on a common middle-field
  generator gamma.

Their set equality is a core oracle and is never assumed.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import re
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
    chunks,
    digitwise,
    embed,
    in_sorted,
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
# The family whose construction builds a set of each provenance: the
# Delsarte dual of a primal set is the dual family's set.
FAMILY = {"primal": "primal", "dual": "dual", "delsarte-dual": "dual"}


class TowerParams(pm.ValueRecord):
    """The tuple (p, s, m, ell, r) plus everything derived from it;
    read-only, equal and hashed by value."""

    __slots__ = ("p", "s", "m", "ell", "r")

    def __init__(self, p: int, s: int, m: int, ell: int, r: int):
        if p >= 1 << 64:
            raise ValueError("p must be below 2^64")
        if not is_prime(p):
            raise ValueError("p must be prime")
        if s < 1 or m < 1 or ell < 1:
            raise ValueError("s, m, ell must be >= 1")
        if not 0 <= r <= m:
            raise ValueError("need 0 <= r <= m")
        super().__init__(p, s, m, ell, r)

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


class Subspace(pm.ReadOnly):
    """A GF(q)-subspace of the middle field ``mid`` over its subfield
    ``base``, fully materialized: ``basis`` is a tuple of packed,
    GF(q)-independent middle-field elements and ``elements`` the sorted,
    read-only int64 array of the packed values they span.  Read-only, and
    equal only to itself."""

    __slots__ = ("mid", "base", "basis", "elements")

    @property
    def dim(self) -> int:
        """The dimension over GF(q)."""
        return len(self.basis)

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
    return Subspace(mid, base, basis, readonly(elems))


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
    return Subspace(mid, base, tuple(basis), readonly(elems))


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


class CompatiblePrimitives(pm.ValueRecord):
    """Generators of the two big fields whose norms pull back to one
    middle-field generator gamma: K1's own generator, and K2's generator
    raised to beta_adjust.  ``gamma_exp`` is the dlog of gamma with respect
    to the middle field's own generator, and ``gamma`` is packed.
    Read-only, equal and hashed by value."""

    __slots__ = ("beta_adjust", "gamma_exp", "gamma")


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
        b, a = np.divmod(idx, self.sz1)
        return a, b

    def join(self, a, b):
        """The indices of the packed coordinates (a, b); inverts ``split``."""
        return a + self.sz1 * b

    # -- group law on indices, elementwise with broadcasting --

    def add(self, a, b):
        return digitwise(a, b, 1, self.p, self.n)

    def sub(self, a, b):
        return digitwise(a, b, -1, self.p, self.n)

    def neg(self, a):
        """-a: for odd p the product by (alpha^(|K1*|/2), beta^(|K2*|/2)),
        as each generator's half-order power is -1."""
        if self.p == 2:
            return digitwise(0, a, -1, self.p, self.n)
        return self.multiply(a, self.f1.order // 2, self.f2.order // 2)

    def multiply(self, idx, a: int, b: int) -> np.ndarray:
        """The indices of (alpha^a x, beta^b y) for the indices idx of (x, y),
        alpha and beta the generators of K1 and K2: one gather per
        coordinate from the field's table of products by the fixed factor;
        a factor alpha^0 or beta^0 = 1 is skipped.  Every map that holds a
        factor fixed is this one: the generators of the multiplier group,
        -1 and the generator of GF(q)*."""
        x, y = self.split(idx)
        f1, f2 = self.f1, self.f2
        if a % f1.order:
            x = f1.product_table(f1.antilog[a % f1.order])[x]
        if b % f2.order:
            y = f2.product_table(f2.antilog[b % f2.order])[y]
        return self.join(x, y)

    # -- discrete-log pairs: set files and witnesses --

    def dlog_pairs(self, idx: np.ndarray) -> np.ndarray:
        """Discrete-log pairs of the indices idx, along a last axis of
        length 2; -1 for a zero coordinate."""
        a, b = self.split(idx)
        return np.stack([self.f1.dlog[a], self.f2.dlog[b]], axis=-1)

    def from_dlog_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Indices of the (k, 2) discrete-log pairs; the inverse of
        ``dlog_pairs``.  The index of (a, b) is that of (a, 0) plus that of
        (0, b), so the second gather is added into the first: one array
        beside one temporary."""
        first, second = self._log_indices
        out = first[pairs[:, 0]]
        out += second[pairs[:, 1]]
        return out

    @cached_property
    def _log_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """The indices of (g1^i, 0) and of (0, g2^j) for every log, with 0
        appended, which the log -1 of zero reads."""
        exp1, exp2 = (np.append(f.antilog, 0) for f in (self.f1, self.f2))
        return readonly(self.join(exp1, 0)), readonly(self.join(0, exp2))

    # -- trace pairing between group elements and characters --

    def char_index(self, idx):
        """The dot-space index of the character of (a, b) for the indices
        idx: ``char_index_table[idx]`` without building the table."""
        a, b = self.split(idx)
        return self.join(_upack(self.f1)[a], _upack(self.f2)[b])

    @cached_property
    def char_index_table(self) -> np.ndarray:
        """Group index of (a, b) -> dot-space index of the character
        zeta^(Tr1(a x) + Tr2(b y)).  A permutation of [0, v), since both
        coordinate label tables are."""
        # row b, column a holds the label of the index join(a, b)
        return readonly(self.join(_upack(self.f1)[None, :], _upack(self.f2)[:, None]).ravel())


class PdsSet(pm.ReadOnly):
    """A candidate partial difference set with its provenance; read-only,
    and equal only to itself.

    ``elements`` is a sorted, duplicate-free, read-only int64 array of
    group indices (see ``GroupIndexer``); any integer sequence given here
    is normalized to that form by marking it in ``member``, the read-only
    indicator of the set over the v group indices, and reading the marks
    back, in O(k + v)."""

    __slots__ = ("params", "provenance", "elements", "claimed", "subspace_rows", "member")

    def __init__(
        self,
        params: TowerParams,
        provenance: str,  # primal | dual | complement | delsarte-dual
        elements,
        claimed: pm.SrgParams,
        subspace_rows: tuple = (),  # GF(p) coefficient rows of the R basis used
    ):
        elems = np.asarray(elements, dtype=np.int64)
        # checked before marking: a negative index would mark from the end
        if len(elems) and (elems.min() < 0 or elems.max() >= params.v):
            raise ValueError("set elements must be group indices below %d" % params.v)
        member = np.zeros(params.v, dtype=bool)
        member[elems] = True
        super().__init__(
            params, provenance, readonly(np.flatnonzero(member)), claimed, subspace_rows, readonly(member)
        )

    @property
    def k(self) -> int:
        return len(self.elements)

    def json_doc(self, tower: "Tower") -> dict:
        """The set file, with the (k, 2) array of dlog pairs in
        lexicographic order as ``elements``.  Each log lies in [-1, |K| - 1),
        so the key (i + 1) |K2| + (j + 1) of the pair (i, j) is a distinct
        number below v that orders the pairs: marking the keys in a table
        of v flags and reading them back sorts them in O(v)."""
        a, b = tower.indexer.split(self.elements)
        key = tower.f1.dlog[a]
        key += 1
        key *= tower.f2.size
        key += tower.f2.dlog[b]
        key += 1
        marked = np.zeros(self.params.v, dtype=bool)
        marked[key] = True
        pairs = np.empty((self.k, 2), np.int64)
        np.divmod(np.flatnonzero(marked), tower.f2.size, out=(pairs[:, 0], pairs[:, 1]))
        pairs -= 1
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
        return dumps(self.json_doc(tower))


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


# the whitespace JSON allows between tokens
_JSON_WS = b" \t\n\r"
_SPACES = re.compile(rb"[ \t\n\r]*")

# the value of each byte as a decimal digit, 0 for every other byte
_DIGIT_VALUES = np.zeros(256, np.int64)
_DIGIT_VALUES[48:58] = np.arange(10)
readonly(_DIGIT_VALUES)

# What one byte of element text costs while its slice is decoded, in bytes:
# its copies, the uint8 and bool arrays over it, the number edges and the
# values.  The chunker's CHUNK_BYTES at this rate gives slices of 256 KiB.
TEXT_BYTES = 32


def _split_elements(data: bytes) -> tuple[dict, tuple[int, int]] | None:
    """A set file's bytes as its header, the document parsed with NaN in
    place of the top-level ``elements`` value, and the (start, end) offsets
    of that value in data; None where the split is not sure of both.

    The value is taken to run from the colon after the first
    ``"elements"`` to the next quote or brace, less trailing whitespace and
    one comma.  The split holds only if the NaN put there is the one JSON
    constant in the header and is the header's own ``elements``: the file
    is then the header with the value in place of that NaN, so a nested,
    repeated or quoted "elements" is never taken for the member.  A header
    that is not ASCII is left to the whole-file route, which decodes it as
    ``open`` does (and so refuses a UTF-8 byte-order mark).
    """
    key = data.find(b'"elements"')
    start = data.find(b":", key + 10) + 1
    if key < 0 or not start:
        return None
    ends = [i for i in (data.find(b'"', start), data.find(b"}", start)) if i >= 0]
    if not ends:
        return None
    end = min(ends)
    while end > start and data[end - 1] in _JSON_WS:
        end -= 1
    end -= data.startswith(b",", end - 1, end)
    header = data[:start] + b"NaN" + data[end:]
    stand_in, constants = object(), []

    def constant(name):
        constants.append(name)
        return stand_in

    try:
        doc = json.loads(header.decode("ascii"), parse_constant=constant)
    except ValueError:  # not ASCII, or not JSON
        return None
    if constants != ["NaN"] or not isinstance(doc, dict) or doc.get("elements") is not stand_in:
        return None
    return doc, (start, end)


def _pairs_from_json_text(data: bytes, start: int, end: int) -> np.ndarray | None:
    """What ``_dlog_pair_array(json.loads(data[start:end]))`` gives, read
    straight from the bytes, or None where this reader declines and leaves
    the value to ``json``.  It reads only ``[[n,n],...]`` with JSON
    whitespace between tokens, each n an integer of at most 18 digits (so
    it fits int64), the form every set file is written in; a number split
    by whitespace, a leading zero, a misplaced minus, a fraction, an
    exponent, a literal or a string is declined.

    The pairs between the outer brackets are decoded one slice at a time
    (``_pair_slices``) into one (k, 2) array, k one less than the count of
    closing brackets, so no copy of the whole text is ever made."""
    head = _SPACES.match(data, start, end).end()  # the outer [
    close = data.rfind(b"]", head, end)  # the outer ]
    if not data.startswith(b"[", head, end) or close < 0 or _SPACES.match(data, close + 1, end).end() != end:
        return None
    k = data.count(b"]", head, close)
    last = max(data.rfind(b"]", head, close) + 1, head + 1)  # just after the last pair
    if _SPACES.match(data, last, close).end() != close:
        return None  # something but whitespace after the last pair, or in []
    # a slice's pairs are its ]s, and the k ]s before the outer one are all in slices
    columns = np.empty((2, k), np.int64)  # the pairs' first and second logs
    row = 0
    for lo, hi in _pair_slices(data, head + 1, last):
        pairs = _decode_pairs(data[lo:hi], b"" if lo == head + 1 else b",")
        if pairs is None:
            return None
        columns[:, row:row + len(pairs)] = pairs.T
        row += len(pairs)
    return columns.T


def _pair_slices(data: bytes, lo: int, hi: int):
    """Consecutive ranges covering data[lo:hi], each cut just after a ``]``:
    the chunker's ranges at TEXT_BYTES a byte, each stretched to the next
    ``]`` at or after its end (hi ends just after one)."""
    pos = lo
    for _, end in chunks(hi - lo, TEXT_BYTES):
        if lo + end > pos:
            cut = data.find(b"]", lo + end - 1, hi) + 1
            yield pos, cut
            pos = cut


def _decode_pairs(text: bytes, lead: bytes) -> np.ndarray | None:
    """The (n, 2) pairs of a slice of element text, or None where it is not
    lead followed by ``[n,n],...,[n,n]`` with JSON whitespace between
    tokens; ``_pairs_from_json_text`` names what is declined.  The first
    slice has no lead, every other one a comma."""
    compact = text.translate(None, _JSON_WS)
    skeleton = compact.translate(None, b"-0123456789")
    k = (len(skeleton) - len(lead) + 1) // 4
    if skeleton != lead + (b"[,]," * k)[:-1]:
        return None
    # past the skeleton check every byte is JSON whitespace, a bracket, a
    # comma, a minus (45) or a digit (48..57): 45..57 are the number bytes
    numeric = (np.frombuffer(text, np.uint8) - np.uint8(45)) < 13
    if np.count_nonzero(numeric[1:] > numeric[:-1]) != 2 * k:
        return None  # more numbers than the compact text has: one was split
    c = np.frombuffer(compact, np.uint8)
    # the structural bytes past the lead, one row [ , ] , per pair, the last
    # row's comma standing at the end of the text: slot j of a pair is the
    # number between its marks j and j + 1, kept in row j of (2, n) arrays
    marks = np.append(np.flatnonzero((c - np.uint8(45)) >= 13)[len(lead):], len(c)).reshape(k, 4)
    opens, ends = np.ascontiguousarray(marks[:, :2].T), np.ascontiguousarray(marks[:, 1:3].T)
    size = ends - opens
    size -= 1
    minus = c[opens + 1] == 45
    digits = size - minus
    if not (
        size.sum() == len(c) - 4 * k - len(lead) + 1  # every number byte is in a slot
        and compact.count(b"-") == np.count_nonzero(minus)  # a minus leads its slot
        and digits.min() >= 1
        and digits.max() <= 18  # so the value fits int64
        and not ((c[ends - digits] == 48) & (digits > 1)).any()  # no leading zero
    ):
        return None
    # by place value: the byte t + 1 places before each slot's end, or the
    # slot's opening mark, worth 0, where the slot is shorter
    values, at = np.zeros((2, k), np.int64), np.empty((2, k), np.int64)
    for t in range(int(digits.max())):
        np.subtract(ends, t + 1, out=at)
        np.maximum(at, opens, out=at)
        values += (_DIGIT_VALUES * 10**t).take(c.take(at))
    np.negative(values, out=values, where=minus)
    return values.T


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


def _check_header(doc, table_cap: int) -> "Tower":
    """The tower of a set file, after the checks that need no element, in
    this order: a JSON object, its type and version, the tower (its table
    cap included), the field model, the provenance."""
    if not isinstance(doc, dict):
        raise ValueError("a set file is a JSON object")
    if doc["type"] != "pds-set":
        raise ValueError('type must be "pds-set", got %s' % json.dumps(doc["type"]))
    if type(doc["version"]) is not int or doc["version"] != 1:
        raise ValueError("version must be the integer 1, got %s" % json.dumps(doc["version"]))
    given = _json_integers(doc, "tower")
    if set(given) != set(TowerParams.__slots__):
        raise ValueError("tower must have exactly the keys %s" % ", ".join(TowerParams.__slots__))
    tower = Tower(TowerParams(**given), table_cap=table_cap)
    if doc["fields"] != tower.describe_fields():
        raise FieldMismatchError(
            "set file uses a different field model than this build constructs"
        )
    if not isinstance(doc["provenance"], str) or doc["provenance"] not in COMPLEMENT_TAG:
        raise ValueError("unknown provenance %r" % (doc["provenance"],))
    return tower


def _set_from_pairs(doc: dict, tower: "Tower", pairs: np.ndarray) -> PdsSet:
    """The set of a checked header and its (k, 2) element pairs, after the
    checks of the exponents, the claimed parameters and the subspace rows."""
    for logs, f in zip(pairs.T, (tower.f1, tower.f2)):
        if logs.min(initial=-1) < -1 or logs.max(initial=-1) >= f.order:
            raise ValueError("element exponents out of range")
    c = _json_integers(doc, "claimed", ("v", "k", "lambda", "mu"))
    return PdsSet(
        tower.params,
        doc["provenance"],
        tower.indexer.from_dlog_pairs(pairs),
        pm.SrgParams(c["v"], c["k"], c["lambda"], c["mu"]),
        tuple(tuple(r) for r in doc.get("subspace_rows", [])),
    )


def pds_from_json_dict(doc: dict, table_cap: int = DEFAULT_TABLE_CAP) -> tuple["Tower", PdsSet]:
    """Read a parsed set file; malformed content raises ValueError, KeyError
    or TypeError, a different field model FieldMismatchError."""
    tower = _check_header(doc, table_cap)
    return tower, _set_from_pairs(doc, tower, _dlog_pair_array(doc["elements"]))


def read_set_file(data: bytes, table_cap: int = DEFAULT_TABLE_CAP, check=None) -> tuple["Tower", PdsSet]:
    """Read a set file from its bytes, header first: the header's checks
    (those of ``pds_from_json_dict``, in its order) and then
    check(tower, provenance), if given, run before any element is decoded.

    The elements are decoded from the bytes by numpy, in slices of a
    bounded number of bytes (``TEXT_BYTES`` a byte of text), into one
    (k, 2) array.  Where that reader declines on any slice, the file is
    read as ``open`` and ``json.load`` read it and its elements as
    ``pds_from_json_dict`` reads them, so every refusal is theirs, down to
    the message."""
    split = _split_elements(data)
    doc = split[0] if split else _parse_text(data)
    tower = _check_header(doc, table_cap)
    if check is not None:
        check(tower, doc["provenance"])
    pairs = _pairs_from_json_text(data, *split[1]) if split else None
    if pairs is None:
        if split:  # the whole file has the header just checked
            doc = _parse_text(data)
        pairs = _dlog_pair_array(doc["elements"])
    return tower, _set_from_pairs(doc, tower, pairs)


def _parse_text(data: bytes):
    """json.load of the bytes as a file opened in text mode reads them."""
    return json.loads(io.TextIOWrapper(io.BytesIO(data)).read())


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
        field, Norm(alpha) pulls back to gamma = g^c1, c1 = 1/w1
        (``_norm_exponents``), and Norm(beta0^d) to g^(d/w2), so
        d = w2/w1 mod |mid*|, stepped by |mid*| until beta = beta0^d
        generates K2."""
        ordm, ord2 = self.mid.order, self.f2.order
        g = self._norm_exponents[0]
        d = self.emb_mid2.w * g % ordm or ordm
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

    @cached_property
    def orbit_representatives(self) -> np.ndarray:
        """One index per H-orbit on G minus 0, e + 2 in all: (1, 0) for
        K1* x 0, (0, 1) for 0 x K2*, then (1, beta^j) with j c2 = t mod e
        for each ratio class t = 0 .. e - 1.  H acts on K1* x K2* without
        fixed points, so each ratio class is one orbit of |H| = |K1*| |K2*| / e
        elements."""
        e = self.params.e
        if self.orbit_sizes.sum() != self.params.v - 1:
            raise InternalError("the H-orbit sizes do not add up to v - 1")
        t = np.arange(e, dtype=np.int64)
        j = t * pow(self._norm_exponents[1], -1, e) % e
        # the norm table of K2 puts (1, beta^j) in ratio class t
        if (self.norm_dlogs[1][j] % e != t).any():
            raise InternalError("orbit representative in the wrong ratio class")
        ix = self.indexer
        heads = np.array([ix.join(1, 0), ix.join(0, 1)], dtype=np.int64)
        return readonly(np.concatenate([heads, ix.join(1, self.f2.antilog[j])]))

    @cached_property
    def orbit_sizes(self) -> np.ndarray:
        """The size of each orbit of ``orbit_representatives``: |K1*|, |K2*|,
        then |K1*| |K2*| / e for each ratio class."""
        e = self.params.e
        ord1, ord2 = self.f1.order, self.f2.order
        if ord1 * ord2 % e:
            raise InternalError("e does not divide |K1*| |K2*|")
        return readonly(np.array([ord1, ord2] + [ord1 * ord2 // e] * e, dtype=np.int64))

    @cached_property
    def orbit_table(self) -> np.ndarray:
        """The position in ``orbit_representatives`` of the H-orbit of every
        index: 0 for K1* x 0, 1 for 0 x K2*, 2 + t for the ratio class
        t = n2(y) - n1(x) mod e of the norm dlogs; e + 2 at index 0."""
        e = self.params.e
        # norm dlogs mod e of the packed coordinates (dlog[0] = -1 reads an entry overwritten below)
        n1, n2 = (n[f.dlog] % e for n, f in zip(self.norm_dlogs, (self.f1, self.f2)))
        # row y, column x; row y is row n2(y) of the e possible rows
        table = (np.subtract.outer(np.arange(e), n1, dtype=np.intp) % e + 2)[n2]
        table[0], table[:, 0], table[0, 0] = 0, 1, e + 2
        table = readonly(table.ravel())
        sizes, at_reps = np.bincount(table[1:], minlength=e + 2), table[self.orbit_representatives]
        if not (np.array_equal(sizes, self.orbit_sizes) and np.array_equal(at_reps, np.arange(e + 2))):
            raise InternalError("the orbit table disagrees with the orbit sizes or representatives")
        return table

    def orbit_union(self, mask) -> np.ndarray:
        """The ascending indices of the union of the H-orbits i with mask[i],
        mask running over the e + 2 orbits in ``orbit_representatives`` order."""
        return np.flatnonzero(np.append(np.asarray(mask, dtype=bool), False)[self.orbit_table])

    def by_orbit(self, per_orbit: np.ndarray, at_zero: int) -> np.ndarray:
        """The length-v vector holding at_zero at index 0 and per_orbit[i]
        at every index of the i-th H-orbit."""
        return np.append(per_orbit, at_zero)[self.orbit_table]

    def ratio_classes(self, space: Subspace) -> np.ndarray:
        """Over the ratio classes t = 0 .. e - 1: g^t in space.  g^e
        generates GF(q)*, so membership in a GF(q)-subspace depends only on
        t mod e."""
        return in_sorted(self.mid.antilog[: self.params.e], space.elements)

    def family_orbits(self, provenance: str, R: Subspace) -> np.ndarray:
        """The mask over the e + 2 orbits of ``orbit_representatives`` of
        the set that ``FAMILY[provenance]`` builds from R: K1* x 0 and the
        ratio classes in R for the primal family, 0 x K2* and the ratio
        classes outside R-perp for the dual family."""
        if FAMILY[provenance] == "primal":
            return np.concatenate([[True, False], self.ratio_classes(R)])
        return np.concatenate([[False, True], ~self.ratio_classes(dual_subspace(R))])

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
        T = tuple(np.flatnonzero(in_sorted(gamma_pows, R.elements)).tolist())
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
        return bool(pds.member[self.indexer.neg(pds.elements)].all())

    def build_D(self, R: Subspace | None = None) -> PdsSet:
        """Norm-ratio construction of the primal set: K1* x 0 and the ratio
        classes in R."""
        R = self.check_rank(R)
        idx = self.orbit_union(self.family_orbits("primal", R))
        return self._finish(idx, "primal", self.params.primal_params(), R)

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
        """Norm-ratio construction of the dual set: 0 x K2* and the ratio
        classes outside R-perp."""
        R = self.check_rank(R)
        idx = self.orbit_union(self.family_orbits("dual", R))
        return self._finish(idx, "dual", self.params.dual_params(), R)

    def complement(self, pds: PdsSet) -> PdsSet:
        elems = np.flatnonzero(~pds.member[1:]) + 1
        claimed = pm.complement_params(pds.claimed)
        if pds.provenance not in COMPLEMENT_TAG:
            raise ValueError("cannot complement provenance %r" % pds.provenance)
        out = PdsSet(
            self.params, COMPLEMENT_TAG[pds.provenance], elems, claimed, pds.subspace_rows
        )
        if out.k != claimed.k:
            raise InternalError("complement has the wrong size")
        return out
