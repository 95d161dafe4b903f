"""Projective two-intersection sets and two-weight codes from a set family.

Group elements are coordinatized over GF(q) by the power bases of the two
deterministic field generators: an element (a, b) has one base-q key, the
coordinates of a then those of b, first coordinate most significant.  A
scale-closed set collapses to one projective point per GF(q)* orbit, the
orbit's one element whose leading base-q digit is 1.  Each scalar is
applied by one product table per field, and the points' coordinates are
gathered from a table of the coordinates of every key of each field, one
byte a coordinate for q <= 256.

The hyperplane profile and the weight enumerator are histograms of one
quantity, s(u) = |S meet u-perp| for every nonzero u in GF(q)^dim: the
hyperplane u-perp meets S in s(u) points, and the message u has weight
n - s(u) (Calderbank-Kantor, Bull. LMS 18 (1986), section 2).  Three routes
give the distinct sizes s and the number of messages attaining each, and
all end in the same two histogram tails, ``_profile`` and ``_enumerator``:

* literal: ``_literal_sizes`` sweeps all q^dim messages, and ``np.unique``
  counts the sizes (``hyperplane_profile``, ``weight_enumerator``);
* transform and orbits: ``_intersection_sizes`` reads s off a
  ``verify.Spectrum``, since a scale-closed set D of n(q - 1) elements has
  s(u) = (n + chi_u(D)) / q, each value with the number of characters
  attaining it, summed over the spectrum's classes
  (``spectral_hyperplane_profile``, ``spectral_weight_enumerator``).  Its
  classes are the q^dim characters on the transform route
  (``verify.character_spectrum``) and the e + 2 orbits of the multiplier
  group on the orbit route (``verify.orbit_spectrum``).

The CLI reads the orbit route for a set the multiplier group fixes and
the transform route otherwise (``verify.spectrum_of``); the tests compare
every route with the literal one.
"""

from __future__ import annotations

import numpy as np

from . import ff, params as pm
from .construct import PdsSet, Tower
from .errors import CapExceededError, DenpdsError, InternalError, NotScaleClosedError
from .ff import FiniteField, chunks, embed
from .verify import CheckItem, Spectrum

DEFAULT_ENUM_CAP = 1 << 16


def _key_digits(q: int, width: int) -> np.ndarray:
    """The width base-q digits of every key below q^width, most significant
    first, as a (width, q^width) table, of one byte a digit where q <= 256."""
    keys = np.arange(q**width, dtype=np.int64)
    table = np.empty((width, len(keys)), dtype=np.uint8 if q <= 256 else np.int64)
    for row, place in zip(table, q ** np.arange(width - 1, -1, -1, dtype=np.int64)):
        row[:] = keys // place % q
    return table


class CodingContext:
    """Coordinate keys and scalar action for one tower; GF(q) symbols are
    packed elements of ``base``.  The key of (a, b) is keys1[a] * shift +
    keys2[b]."""

    def __init__(self, tower: Tower):
        self.tower = tower
        self.base = tower.base
        tp = tower.params
        self.q = tp.q
        self.dim = tp.dim_q
        self.keys1 = tower.f1.coords_table(tp.s)
        self.keys2 = tower.f2.coords_table(tp.s)
        self.shift = self.q ** (tp.deg2 // tp.s)
        # the GF(q) coordinates of every key of each field, most significant first
        self.digits1, self.digits2 = (_key_digits(self.q, f.n // tp.s) for f in (tower.f1, tower.f2))

    def check_scale_closed(self, pds: PdsSet) -> None:
        """The diagonal GF(q)* action must permute the set; a violation
        names the element of smallest index that some scalar moves out.
        GF(2)* = {1} moves nothing."""
        if self.base.size == 2:
            return
        f1, f2, ix = self.tower.f1, self.tower.f2, self.tower.indexer
        a, b = ix.split(pds.elements)
        leaves = np.zeros(pds.k, dtype=bool)
        # each embedded scalar of GF(q)* but 1, which fixes every set, as
        # one product table per field
        for s1, s2 in zip(*(embed(self.base, f).forward[2:] for f in (f1, f2))):
            leaves |= ~pds.member[ix.join(f1.product_table(s1)[a], f2.product_table(s2)[b])]
        if leaves.any():
            g = pds.elements[leaves.argmax()]
            raise NotScaleClosedError(
                "element %s leaves the set under scaling" % (tuple(ix.dlog_pairs(g).tolist()),)
            )


class ProjectiveSet(pm.ReadOnly):
    """Distinct normalized points (first nonzero coordinate 1) in PG(dim-1, q)
    with their base-q keys (first coordinate most significant), one int64
    each; ``to_projective_set`` lists them in ascending key order, the
    lexicographic column order ``build_code`` requires.  Read-only, and
    equal only to itself."""

    __slots__ = ("q", "dim", "points", "keys")

    @property
    def n(self) -> int:
        return len(self.points)


def to_projective_set(pds: PdsSet, ctx: CodingContext) -> ProjectiveSet:
    """Collapse a scale-closed set by the GF(q)* action: each orbit has
    exactly one element whose leading base-q digit is 1, its point.
    Ascending keys are points in lexicographic order."""
    if ctx.q**ctx.dim >= 1 << 63:
        raise CapExceededError("point keys of %d^%d do not fit int64" % (ctx.q, ctx.dim))
    ctx.check_scale_closed(pds)
    a, b = ctx.tower.indexer.split(pds.elements)
    keys = ctx.keys1[a] * ctx.shift + ctx.keys2[b]
    if not keys.all():
        raise DenpdsError("the set holds the identity (-1, -1), which is no projective point")
    places = ctx.q ** np.arange(ctx.dim, dtype=np.int64)
    # the leading digit is 1 when the key is below twice its top place value
    top = places[np.searchsorted(places, keys, side="right") - 1]
    points = np.sort(keys[keys < 2 * top])
    want, rem = divmod(pds.k, ctx.q - 1)
    if rem or len(points) != want:
        raise InternalError(
            "collapse gave %d points, expected %d" % (len(points), want)
        )
    # the coordinates of each field's part of the key, gathered from its
    # table one coordinate at a time: the (n, dim) points are the transpose
    # of a (dim, n) array
    digits = np.empty((ctx.dim, len(points)), dtype=ctx.digits1.dtype)
    cut = len(ctx.digits1)
    np.take(ctx.digits1, points // ctx.shift, axis=1, out=digits[:cut], mode="clip")
    np.take(ctx.digits2, points % ctx.shift, axis=1, out=digits[cut:], mode="clip")
    return ProjectiveSet(ctx.q, ctx.dim, digits.T, points)


def _literal_sizes(points: np.ndarray, base: FiniteField, cap: int) -> np.ndarray:
    """s(u) = #{x in points : u . x = 0} for every nonzero message u, in the
    order of u's base-q key (first coordinate most significant).

    The q^dim messages are swept in blocks of q^c: the span of the last c
    rows of G = points.T, plus one codeword of the first dim - c rows; c is
    the largest whose block fits a chunk.  u . x is zero exactly where the
    head codeword equals the negated block codeword, so the block is built
    once, negated, by extension over the negated rows."""
    n, dim = points.shape
    q = base.size
    if q**dim > cap:
        raise CapExceededError("message sweep above cap %d" % cap)
    G = points.T.astype(np.int64)  # digitwise on narrow digits would wrap for odd p
    c = 0
    while c < dim and q ** (c + 1) * n * 8 <= ff.CHUNK_BYTES:
        c += 1
    scalars = np.arange(q, dtype=np.int64)[:, None]
    minus_block = np.zeros((1, n), dtype=np.int64)
    for row in base.neg(G[dim - c :]):
        minus_block = base.add(minus_block[:, None, :], base.mul(scalars, row)[None, :, :]).reshape(-1, n)
    heads = G[: dim - c]
    sizes = []
    for lo, hi in chunks(q ** (dim - c), q**c * n * 8):
        # the codewords of the first dim - c rows for head keys lo..hi-1
        keys = np.arange(lo, hi, dtype=np.int64)
        head = np.zeros((len(keys), n), dtype=np.int64)
        for t, row in enumerate(heads):
            digit = keys // q ** (dim - c - 1 - t) % q
            head = base.add(head, base.mul(digit[:, None], row))
        sizes.append((head[:, None, :] == minus_block[None, :, :]).sum(axis=2).ravel())
    return np.concatenate(sizes)[1:]


def _profile(sizes: np.ndarray, mult: np.ndarray, q: int, dim: int, n: int) -> dict[int, int]:
    """Hyperplanes by intersection size, from the distinct sizes s(u) and
    the number of nonzero messages u attaining each: each hyperplane u-perp
    is met in s(u) points and belongs to the q - 1 nonzero multiples of u."""
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[sizes] = mult
    if (counts % (q - 1)).any():
        raise InternalError("each hyperplane belongs to q - 1 characters")
    counts //= q - 1
    if counts.sum() != (q**dim - 1) // (q - 1):
        raise InternalError("hyperplane count mismatch")
    return {int(i): int(counts[i]) for i in np.flatnonzero(counts)}


def hyperplane_profile(
    S: ProjectiveSet, ctx: CodingContext, cap: int = DEFAULT_ENUM_CAP
) -> dict[int, int]:
    """Map: intersection size -> number of hyperplanes attaining it."""
    sizes, mult = np.unique(_literal_sizes(S.points, ctx.base, cap), return_counts=True)
    return _profile(sizes, mult, S.q, S.dim, S.n)


class GeneratorMatrix(pm.ReadOnly):
    """dim x n matrix over GF(q); columns are the sorted normalized points.
    Read-only, and equal only to itself."""

    __slots__ = ("q", "mat", "rank")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def n(self) -> int:
        return self.mat.shape[1]


def build_code(S: ProjectiveSet, ctx: CodingContext) -> GeneratorMatrix:
    """Columns in lexicographic coordinate order, the order of S.points;
    distinct normalized points are pairwise independent by construction, so
    asserting that the points strictly ascend re-asserts both.  They ascend
    as their keys S.keys do, so no (n, dim) difference array is built.  The
    rank is found from the same keys."""
    if not (np.diff(S.keys) > 0).all():
        raise InternalError("generator columns are not distinct and sorted")
    return GeneratorMatrix(S.q, S.points.T, ff.rank_from_keys(ctx.base, S.keys, S.dim))


def _enumerator(sizes: np.ndarray, mult: np.ndarray, gm: GeneratorMatrix) -> dict[int, int]:
    """Codewords by weight, from the distinct sizes s(u) and the number of
    nonzero messages u attaining each: u has weight n - s(u), and the zero
    message weight 0."""
    counts = np.zeros(gm.n + 1, dtype=np.int64)
    counts[gm.n - sizes] = mult
    counts[0] += 1
    if counts[0] != gm.q ** (gm.dim - gm.rank):
        raise InternalError("zero-weight count must equal the kernel size")
    return {int(i): int(counts[i]) for i in np.flatnonzero(counts)}


def weight_enumerator(
    gm: GeneratorMatrix, ctx: CodingContext, cap: int = DEFAULT_ENUM_CAP
) -> dict[int, int]:
    """Exhaustive weight counts over all q^dim messages."""
    sizes, mult = np.unique(_literal_sizes(gm.mat.T, ctx.base, cap), return_counts=True)
    return _enumerator(sizes, mult, gm)


def _intersection_sizes(
    spectrum: Spectrum, q: int, dim: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """|S meet H_u| = (n + chi_u(D)) / q for the nonzero characters u, as
    the distinct sizes and the number of characters attaining each."""
    if spectrum.v != q**dim or spectrum.k != n * (q - 1):
        raise InternalError("spectrum does not belong to this point set")
    if not spectrum.all_rational():
        raise InternalError("a scale-closed set has rational character sums")
    values, mult = spectrum.nonprincipal_values()
    shifted = n + values
    if (shifted % q).any():
        raise InternalError("n + chi must be divisible by q")
    return shifted // q, mult


def spectral_hyperplane_profile(spectrum: Spectrum, S: ProjectiveSet) -> dict[int, int]:
    """``hyperplane_profile`` from the spectrum of the set S collapses."""
    return _profile(*_intersection_sizes(spectrum, S.q, S.dim, S.n), S.q, S.dim, S.n)


def spectral_weight_enumerator(spectrum: Spectrum, gm: GeneratorMatrix) -> dict[int, int]:
    """``weight_enumerator`` from the spectrum of the set whose points are
    the columns of gm."""
    return _enumerator(*_intersection_sizes(spectrum, gm.q, gm.dim, gm.n), gm)


# -- checks tying geometry, code and set parameters together --


def check_two_intersection(
    profile: dict[int, int], expected: tuple[int, int, int, int]
) -> CheckItem:
    n, _, h1, h2 = expected
    sizes = sorted(profile)
    want = sorted({h1, h2})
    ok = sizes == want
    details = {"observed": {str(a): b for a, b in sorted(profile.items())}, "expected": want}
    return CheckItem("two-intersection", ok, details=details)


def check_two_weight(
    enum: dict[int, int], expected: tuple[int, int, int, int], kernel: int
) -> CheckItem:
    """Nonzero weights must be exactly the closed-form pair; a zero value in
    the pair (degenerate ranks) folds into the kernel count."""
    n, _, w1, w2 = expected
    nonzero = sorted(w for w in enum if w)
    want = sorted({w for w in (w1, w2) if w})
    ok = nonzero == want and enum.get(0, 0) == kernel
    details = {
        "observed": {str(a): b for a, b in sorted(enum.items())},
        "expected": want,
        "kernel": kernel,
    }
    return CheckItem("two-weight", ok, details=details)


def check_pairing(
    profile: dict[int, int],
    enum: dict[int, int],
    expected_pts: tuple[int, int, int, int],
    expected_code: tuple[int, int, int, int],
    q: int,
) -> CheckItem:
    """h = n - w pointwise and (q - 1) * #hyperplanes(h) = #codewords(n - h)."""
    n, _, h1, h2 = expected_pts
    _, _, w1, w2 = expected_code
    ok = h1 == n - w1 and h2 == n - w2
    details = {}
    for h, cnt in profile.items():
        w = n - h
        if w == 0:
            continue  # these hyperplanes pair with kernel messages
        if enum.get(w, 0) != (q - 1) * cnt:
            ok = False
            details[str(h)] = {"hyperplanes": cnt, "codewords": enum.get(w, 0)}
    return CheckItem("weight-hyperplane-pairing", ok, details=details)


def check_dictionary(
    sp: pm.SrgParams, n: int, w1: int, w2: int, q: int, dim: int
) -> CheckItem:
    """The code parameters must reproduce (v, k, lam, mu) exactly."""
    derived = pm.lemma_dictionary_params(q, dim, n, w1, w2)
    ok = derived == sp
    return CheckItem(
        "parameter-dictionary",
        ok,
        details={"derived": derived.as_dict(), "expected": sp.as_dict()},
    )
