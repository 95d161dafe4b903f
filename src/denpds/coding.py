"""Projective two-intersection sets and two-weight codes from a set family.

Group elements are coordinatized over GF(q) by the power bases of the two
deterministic field generators: an element (a, b) has one base-q key, the
coordinates of a then those of b, first coordinate most significant.  A
scale-closed set collapses to one projective point per GF(q)* orbit, the
orbit's one element whose leading base-q digit is 1.

The hyperplane profile and the weight enumerator are histograms of one
vector, s(u) = |S meet u-perp| for every nonzero u in GF(q)^dim: the
hyperplane u-perp meets S in s(u) points, and the message u has weight
n - s(u) (Calderbank-Kantor, Bull. LMS 18 (1986), section 2).  The literal
route, ``_literal_sizes``, sweeps all q^dim messages; ``hyperplane_profile``
and ``weight_enumerator`` take it.  The transform route,
``_intersection_sizes``, reads s off the exact character spectrum: a
scale-closed set D of n(q - 1) elements has s(u) = (n + chi_u(D)) / q;
``spectral_hyperplane_profile`` and ``spectral_weight_enumerator`` take it.
Both routes end in the same two histograms, ``_profile`` and
``_enumerator``.  The CLI takes the transform route; the tests compare it
with the literal one.
"""

from __future__ import annotations

import numpy as np

from . import ff, params as pm
from .construct import PdsSet, Tower
from .errors import CapExceededError, InternalError, NotScaleClosedError
from .ff import FiniteField, embed, row_reduce, sweep
from .verify import CharacterSpectrum, CheckItem

DEFAULT_ENUM_CAP = 1 << 16


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

    def check_scale_closed(self, pds: PdsSet) -> None:
        """The diagonal GF(q)* action must permute the set; a violation
        names the element of smallest index that some scalar moves out."""
        f1, f2, ix = self.tower.f1, self.tower.f2, self.tower.indexer
        a, b = ix.split(pds.elements)
        # one row per embedded scalar of GF(q)*
        s1, s2 = (embed(self.base, f).forward[1:, None] for f in (f1, f2))
        leaves = ~np.isin(ix.join(f1.mul(s1, a), f2.mul(s2, b)), pds.elements).all(axis=0)
        if leaves.any():
            g = pds.elements[leaves.argmax()]
            raise NotScaleClosedError(
                "element %s leaves the set under scaling" % (tuple(ix.dlog_pairs(g).tolist()),)
            )


class ProjectiveSet:
    """Distinct normalized points (first nonzero coordinate 1) in PG(dim-1, q);
    ``to_projective_set`` lists them in lexicographic order, the column order
    ``build_code`` requires."""

    def __init__(self, q: int, dim: int, points: np.ndarray):
        self.q = q
        self.dim = dim
        self.points = points

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
        raise InternalError("cannot normalize a zero vector")
    places = ctx.q ** np.arange(ctx.dim, dtype=np.int64)
    # the leading digit is 1 when the key is below twice its top place value
    top = places[np.searchsorted(places, keys, side="right") - 1]
    points = np.sort(keys[keys < 2 * top])
    want, rem = divmod(pds.k, ctx.q - 1)
    if rem or len(points) != want:
        raise InternalError(
            "collapse gave %d points, expected %d" % (len(points), want)
        )
    return ProjectiveSet(ctx.q, ctx.dim, points[:, None] // places[::-1] % ctx.q)


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
    G = points.T
    c = 0
    while c < dim and q ** (c + 1) * n * 8 <= ff.CHUNK_BYTES:
        c += 1
    scalars = np.arange(q, dtype=np.int64)[:, None]
    minus_block = np.zeros((1, n), dtype=np.int64)
    for row in base.neg(G[dim - c :]):
        minus_block = base.add(minus_block[:, None, :], base.mul(scalars, row)[None, :, :]).reshape(-1, n)
    heads = G[: dim - c]

    def one(rng):
        # the codewords of the first dim - c rows for head keys lo..hi-1
        keys = np.arange(*rng, dtype=np.int64)
        head = np.zeros((len(keys), n), dtype=np.int64)
        for t, row in enumerate(heads):
            digit = keys // q ** (dim - c - 1 - t) % q
            head = base.add(head, base.mul(digit[:, None], row))
        return (head[:, None, :] == minus_block[None, :, :]).sum(axis=2).ravel()

    return np.concatenate(sweep(q ** (dim - c), q**c * n * 8, one))[1:]


def _profile(sizes: np.ndarray, q: int, dim: int, n: int) -> dict[int, int]:
    """Hyperplanes by intersection size: each hyperplane u-perp is met in
    s(u) points and belongs to the q - 1 nonzero multiples of u."""
    counts = np.bincount(sizes, minlength=n + 1)
    if (counts % (q - 1)).any():
        raise InternalError("each hyperplane belongs to q - 1 characters")
    counts //= q - 1
    if counts.sum() != (q**dim - 1) // (q - 1):
        raise InternalError("hyperplane count mismatch")
    return {int(h): int(c) for h, c in enumerate(counts) if c}


def hyperplane_profile(
    S: ProjectiveSet, ctx: CodingContext, cap: int = DEFAULT_ENUM_CAP
) -> dict[int, int]:
    """Map: intersection size -> number of hyperplanes attaining it."""
    return _profile(_literal_sizes(S.points, ctx.base, cap), S.q, S.dim, S.n)


class GeneratorMatrix:
    """dim x n matrix over GF(q); columns are the sorted normalized points."""

    def __init__(self, q: int, mat: np.ndarray, rank: int):
        self.q = q
        self.mat = mat
        self.rank = rank

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def n(self) -> int:
        return self.mat.shape[1]

    def row_strings(self) -> list[str]:
        return [" ".join(str(int(c)) for c in row) for row in self.mat]


def build_code(S: ProjectiveSet, ctx: CodingContext) -> GeneratorMatrix:
    """Columns in lexicographic coordinate order, the order of S.points;
    distinct normalized points are pairwise independent by construction, so
    asserting that the points strictly ascend re-asserts both."""
    cols = S.points
    step = np.diff(cols, axis=0)
    first = (step != 0).argmax(axis=1)  # first coordinate in which two neighbours differ
    if not (step[np.arange(len(step)), first] > 0).all():
        raise InternalError("generator columns are not distinct and sorted")
    return GeneratorMatrix(S.q, cols.T, len(row_reduce(ctx.base, cols)[1]))


def _enumerator(sizes: np.ndarray, gm: GeneratorMatrix) -> dict[int, int]:
    """Codewords by weight: the message u has weight n - s(u), and the zero
    message weight 0."""
    counts = np.bincount(gm.n - sizes, minlength=gm.n + 1)
    counts[0] += 1
    if counts[0] != gm.q ** (gm.dim - gm.rank):
        raise InternalError("zero-weight count must equal the kernel size")
    return {int(w): int(c) for w, c in enumerate(counts) if c}


def weight_enumerator(
    gm: GeneratorMatrix, ctx: CodingContext, cap: int = DEFAULT_ENUM_CAP
) -> dict[int, int]:
    """Exhaustive weight counts over all q^dim messages."""
    return _enumerator(_literal_sizes(gm.mat.T, ctx.base, cap), gm)


def _intersection_sizes(spectrum: CharacterSpectrum, q: int, dim: int, n: int) -> np.ndarray:
    """|S meet H_u| = (n + chi_u(D)) / q for every nonzero character u."""
    if spectrum.v != q**dim or spectrum.k != n * (q - 1):
        raise InternalError("spectrum does not belong to this point set")
    if not spectrum.all_rational():
        raise InternalError("a scale-closed set has rational character sums")
    shifted = n + spectrum.values[1:]
    if (shifted % q).any():
        raise InternalError("n + chi must be divisible by q")
    return shifted // q


def spectral_hyperplane_profile(spectrum: CharacterSpectrum, S: ProjectiveSet) -> dict[int, int]:
    """``hyperplane_profile`` from the spectrum of the set S collapses."""
    return _profile(_intersection_sizes(spectrum, S.q, S.dim, S.n), S.q, S.dim, S.n)


def spectral_weight_enumerator(spectrum: CharacterSpectrum, gm: GeneratorMatrix) -> dict[int, int]:
    """``weight_enumerator`` from the spectrum of the set whose points are
    the columns of gm."""
    return _enumerator(_intersection_sizes(spectrum, gm.q, gm.dim, gm.n), gm)


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
