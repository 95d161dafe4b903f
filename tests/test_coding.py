"""Projective sets, generator matrices and weight enumerators."""

import itertools
import tracemalloc

import numpy as np
import pytest

from denpds import coding as C
from denpds import ff
from denpds import params as P
from denpds import verify as V
from denpds.construct import PdsSet, Tower, TowerParams
from denpds.errors import CapExceededError, InternalError, NotScaleClosedError

from conftest import digit_table, poly_mul


def key_digits(ctx, keys):
    """The base-q digits of coordinate keys, first coordinate first."""
    return np.asarray(keys)[..., None] // ctx.q ** np.arange(ctx.dim - 1, -1, -1) % ctx.q


def coords_of_pair(ctx, pair):
    """GF(q) coordinates of the element with dlog pair (i, j), read off its
    key."""
    i, j = pair
    a = 0 if i < 0 else ctx.tower.f1.antilog[i]
    b = 0 if j < 0 else ctx.tower.f2.antilog[j]
    return key_digits(ctx, ctx.keys1[a] * ctx.shift + ctx.keys2[b])


@pytest.fixture(scope="module")
def setup64():
    tower = Tower(TowerParams(2, 1, 2, 1, 1))
    ctx = C.CodingContext(tower)
    D = tower.build_D()
    return tower, ctx, D


@pytest.fixture(scope="module")
def setup729():
    tower = Tower(TowerParams(3, 1, 2, 1, 1))
    ctx = C.CodingContext(tower)
    D = tower.build_D()
    return tower, ctx, D


def test_pair_coords_linearity(setup64):
    tower, ctx, _ = setup64
    assert (coords_of_pair(ctx, (-1, -1)) == 0).all()
    ix = V.GroupIndexer(tower)
    digits, weights = digit_table(2, 6)
    # additivity: coords of the group sum is the GF(q) sum of coords
    pairs = [(i, j) for i in range(-1, 3) for j in range(-1, 15)]
    index = dict(zip(pairs, ix.from_dlog_pairs(np.array(pairs)).tolist()))
    for x in pairs:
        for y in pairs:
            gx, gy = index[x], index[y]
            gz = int(((digits[gx] + digits[gy]) % 2) @ weights)
            z = tuple(ix.dlog_pairs(gz).tolist())
            cz = coords_of_pair(ctx, z)
            want = (coords_of_pair(ctx, x) + coords_of_pair(ctx, y)) % 2
            assert (cz == want).all()


def test_scalar_action_on_coords():
    tower = Tower(TowerParams(3, 1, 2, 1, 1))
    ctx = C.CodingContext(tower)
    # scaling an element scales its coordinate vector by the same scalar
    ord1, ord2 = tower.f1.order, tower.f2.order
    for c in range(1, tower.base.size):
        # discrete logs of the scalar c embedded into each big field
        s1 = int(tower.f1.dlog[ff.embed(tower.base, tower.f1).forward[c]])
        s2 = int(tower.f2.dlog[ff.embed(tower.base, tower.f2).forward[c]])
        for pair in [(0, 0), (3, 7), (5, -1), (-1, 4)]:
            i, j = pair
            scaled = (
                i if i < 0 else (i + s1) % ord1,
                j if j < 0 else (j + s2) % ord2,
            )
            got = coords_of_pair(ctx, scaled)
            want = (c * coords_of_pair(ctx, pair)) % 3
            assert (got == want).all()


def test_projective_collapse_sizes(setup64, setup729):
    _, ctx2, D2 = setup64
    S2 = C.to_projective_set(D2, ctx2)
    assert S2.n == 18  # q = 2: trivial collapse
    _, ctx3, D3 = setup729
    S3 = C.to_projective_set(D3, ctx3)
    assert S3.n == 168 // 2 == 84


def test_projective_points_by_integer_key_on_grid(grid):
    """The collapse by orbit representatives gives the rows of a 2-D
    np.unique on the coordinates, each row scaled by the inverse of its
    first nonzero coordinate, on every grid set; the generator columns keep
    that order."""
    for tower, pds, _, family in grid.instances():
        ctx = C.CodingContext(tower)
        a, b = tower.indexer.split(pds.elements)
        rows = key_digits(ctx, ctx.keys1[a] * ctx.shift + ctx.keys2[b])
        lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
        want = np.unique(ctx.base.mul(ctx.base.inv(lead)[:, None], rows), axis=0)
        S = C.to_projective_set(pds, ctx)
        assert np.array_equal(S.points, want), (tower.params, family)
        assert np.array_equal(C.build_code(S, ctx).mat, want.T)


def test_identity_in_the_set_is_refused(setup729):
    """The identity is scale-closed but no projective point: the collapse
    refuses it rather than dropping it."""
    _, ctx, D = setup729
    with_zero = PdsSet(D.params, D.provenance, np.append(D.elements, 0), D.claimed, D.subspace_rows)
    with pytest.raises(InternalError, match="zero vector"):
        C.to_projective_set(with_zero, ctx)


def test_build_code_requires_sorted_distinct_points(setup64):
    _, ctx, D = setup64
    S = C.to_projective_set(D, ctx)
    for points in (S.points[::-1], np.concatenate([S.points, S.points[-1:]])):
        with pytest.raises(InternalError):
            C.build_code(C.ProjectiveSet(S.q, S.dim, points), ctx)


def test_scale_closure_violation_detected(setup729):
    tower, ctx, D = setup729
    broken = PdsSet(
        D.params,
        D.provenance,
        D.elements[1:],
        D.claimed,
        D.subspace_rows,
    )
    with pytest.raises(NotScaleClosedError):
        C.to_projective_set(broken, ctx)
    # q = 4: three nontrivial scalars; the message names the violator of
    # smallest index, found here by exponent arithmetic on dlog pairs
    tower = Tower(TowerParams(2, 2, 2, 1, 1))
    ctx = C.CodingContext(tower)
    D = tower.build_D()
    ix = tower.indexer
    ord1, ord2 = tower.f1.order, tower.f2.order
    scalars = [
        (int(tower.f1.dlog[ff.embed(tower.base, tower.f1).forward[c]]),
         int(tower.f2.dlog[ff.embed(tower.base, tower.f2).forward[c]]))
        for c in range(1, tower.base.size)
    ]
    for drop in (0, D.k // 2, D.k - 1):
        kept = np.delete(D.elements, drop)
        pairs = [tuple(x) for x in ix.dlog_pairs(kept).tolist()]
        members = set(pairs)
        leaving = [
            g
            for g, (i, j) in zip(kept.tolist(), pairs)
            if any(
                (i if i < 0 else (i + s1) % ord1, j if j < 0 else (j + s2) % ord2) not in members
                for s1, s2 in scalars
            )
        ]
        assert len(leaving) == 2  # the rest of the dropped element's GF(4)* orbit
        want = tuple(ix.dlog_pairs(min(leaving)).tolist())
        broken = PdsSet(D.params, D.provenance, kept, D.claimed, D.subspace_rows)
        with pytest.raises(NotScaleClosedError, match=r"element \(%d, %d\) leaves" % want):
            C.to_projective_set(broken, ctx)


def test_hyperplane_profile_64(setup64):
    _, ctx, D = setup64
    S = C.to_projective_set(D, ctx)
    prof = C.hyperplane_profile(S, ctx)
    assert prof == {6: 18, 10: 45}
    assert sum(prof.values()) == 63
    assert C.check_two_intersection(prof, P.projective_params(2, 2, 1, 1)).passed


def test_hyperplane_profile_complement_inside_pg(setup64):
    """The complementary point set meets hyperplanes in complementary sizes."""
    _, ctx, D = setup64
    S = C.to_projective_set(D, ctx)
    have = {tuple(r) for r in S.points.tolist()}
    # the 63 points of PG(5, 2): the nonzero binary 6-tuples
    rest = np.array([r for r in itertools.product(range(2), repeat=6) if any(r) and r not in have])
    Sc = C.ProjectiveSet(2, 6, rest)
    prof = C.hyperplane_profile(Sc, ctx)
    # hyperplane has (q^(dim-1)-1)/(q-1) = 31 points; sizes complement to 31
    assert prof == {31 - 6: 18, 31 - 10: 45}


def test_degenerate_r0_profile_is_flat_geometry():
    tower = Tower(TowerParams(2, 1, 2, 1, 0))
    ctx = C.CodingContext(tower)
    S = C.to_projective_set(tower.build_D(), ctx)
    assert S.n == 3
    prof = C.hyperplane_profile(S, ctx)
    assert prof == {1: 48, 3: 15}  # subflat or full containment
    assert C.check_two_intersection(prof, P.projective_params(2, 2, 1, 0)).passed


def test_generator_matrix(setup64):
    _, ctx, D = setup64
    S = C.to_projective_set(D, ctx)
    gm = C.build_code(S, ctx)
    assert gm.n == 18 and gm.dim == 6
    assert gm.rank == 6
    cols = [tuple(gm.mat[:, i]) for i in range(gm.n)]
    assert cols == sorted(cols)  # deterministic lexicographic order
    assert len(set(cols)) == gm.n  # pairwise independent (normalized, distinct)


class Tables:
    """GF(q) operation tables from polynomial arithmetic and digit addition."""

    def __init__(self, f):
        self.q = f.size
        elems = range(f.size)
        self.add = np.array([[f.pack(a + b for a, b in zip(f.digits(x), f.digits(y))) for y in elems] for x in elems])
        self.mul = np.array([[poly_mul(f, x, y) for y in elems] for x in elems])
        self.inv = np.array([0] + [self.mul[x].tolist().index(1) for x in elems if x])
        self.neg = np.array([self.add[x].tolist().index(0) for x in elems])

    def dot(self, rows, cols):
        acc = np.zeros((rows.shape[0], cols.shape[1]), dtype=np.int64)
        for t in range(rows.shape[1]):
            acc = self.add[acc, self.mul[rows[:, t][:, None], cols[t][None, :]]]
        return acc


def reference_rank(mat, qa):
    """The seed's elimination: one Python pass over the rows per pivot."""
    m = mat.copy()
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        pivot = next((rr for rr in range(rank, rows) if m[rr, c]), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = qa.mul[qa.inv[m[rank, c]], m[rank]]
        for rr in range(rows):
            if rr != rank and m[rr, c]:
                m[rr] = qa.add[m[rr], qa.mul[qa.neg[m[rr, c]], m[rank]]]
        rank += 1
        if rank == rows:
            break
    return rank


def test_rank_matches_the_row_loop():
    """Random matrices over GF(2), GF(3), GF(4) and GF(9), full rank and
    not, tall and wide."""
    rng = np.random.default_rng(3)
    for p, s in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        base = ff.build_field(p, s)
        qa = Tables(base)
        for rows, cols, rank in [(9, 4, 4), (9, 6, 3), (4, 9, 2), (5, 5, 5), (12, 6, 1)]:
            mat = qa.dot(rng.integers(0, qa.q, (rows, rank)), rng.integers(0, qa.q, (rank, cols)))
            assert len(ff.row_reduce(base, mat)[1]) == reference_rank(mat, qa), (p, s, rows, cols)


def random_points(rng, q, dim, count):
    """Distinct normalized points of PG(dim - 1, q): zeros, a leading 1,
    then random symbols."""
    points = set()
    while len(points) < count:
        first = int(rng.integers(dim))
        points.add((0,) * first + (1,) + tuple(rng.integers(0, q, dim - first - 1).tolist()))
    return np.array(sorted(points), dtype=np.int64)


def test_literal_sizes_match_brute_force(monkeypatch):
    """s(u) = #{x : u . x = 0} for every nonzero message u, in base-q key
    order, against dot products from polynomial arithmetic; the chunk
    bounds force one message a block, blocks of q^2 one or two a chunk,
    and the default."""
    rng = np.random.default_rng(9)
    for p, s, dim, count in [(2, 1, 7, 40), (3, 1, 5, 30), (2, 2, 4, 25), (2, 1, 3, 7)]:
        base = ff.build_field(p, s)
        qa = Tables(base)
        points = random_points(rng, qa.q, dim, count)
        messages = np.array(list(itertools.product(range(qa.q), repeat=dim)), dtype=np.int64)
        want = (qa.dot(messages, points.T) == 0).sum(axis=1)[1:]
        for bound in (8, qa.q**2 * count * 8, 2 * qa.q**2 * count * 8, ff.CHUNK_BYTES):
            monkeypatch.setattr(ff, "CHUNK_BYTES", bound)
            got = C._literal_sizes(points, base, 1 << 16)
            assert np.array_equal(got, want), (p, s, dim, bound)


def test_literal_routes_stay_under_32_mb():
    """2,1,4,1,3 dual: 4096 messages of 3825 symbols, a 125 MB codeword array
    if held at once."""
    tower = Tower(TowerParams(2, 1, 4, 1, 3))
    ctx = C.CodingContext(tower)
    S = C.to_projective_set(tower.build_D_dual(), ctx)
    gm = C.build_code(S, ctx)
    assert (S.n, S.dim) == (3825, 12)
    for fn in (lambda: C.weight_enumerator(gm, ctx), lambda: C.hyperplane_profile(S, ctx)):
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20, peak


def test_weight_enumerator_64(setup64):
    _, ctx, D = setup64
    S = C.to_projective_set(D, ctx)
    gm = C.build_code(S, ctx)
    enum = C.weight_enumerator(gm, ctx)
    assert enum == {0: 1, 8: 45, 12: 18}
    assert sum(enum.values()) == 64
    expected = P.code_params(2, 2, 1, 1)
    assert C.check_two_weight(enum, expected, kernel=1).passed
    prof = C.hyperplane_profile(S, ctx)
    assert C.check_pairing(prof, enum, P.projective_params(2, 2, 1, 1), expected, 2).passed
    assert C.check_dictionary(P.denniston_params(2, 2, 1, 1), 18, 12, 8, 2, 6).passed


def test_weight_enumerator_ternary(setup729):
    _, ctx, D = setup729
    S = C.to_projective_set(D, ctx)
    gm = C.build_code(S, ctx)
    enum = C.weight_enumerator(gm, ctx)
    assert enum == {0: 1, 54: 560, 63: 168}
    assert C.check_two_weight(enum, P.code_params(3, 2, 1, 1), kernel=1).passed


def test_degenerate_weight_enumerator():
    tower = Tower(TowerParams(2, 1, 2, 1, 0))
    ctx = C.CodingContext(tower)
    S = C.to_projective_set(tower.build_D(), ctx)
    gm = C.build_code(S, ctx)
    assert gm.rank == 2  # spans only the left block
    enum = C.weight_enumerator(gm, ctx)
    assert enum == {0: 16, 2: 48}
    assert C.check_two_weight(enum, P.code_params(2, 2, 1, 0), kernel=16).passed


def test_enumeration_caps(setup64):
    _, ctx, D = setup64
    S = C.to_projective_set(D, ctx)
    gm = C.build_code(S, ctx)
    with pytest.raises(CapExceededError):
        C.weight_enumerator(gm, ctx, cap=32)
    with pytest.raises(CapExceededError):
        C.hyperplane_profile(S, ctx, cap=32)


def test_prime_power_q_arithmetic():
    """GF(4) symbols: the base field operations agree with polynomial
    arithmetic."""
    tower = Tower(TowerParams(2, 2, 2, 1, 1))
    ctx = C.CodingContext(tower)
    ref = Tables(ctx.base)
    x, y = np.arange(4)[:, None], np.arange(4)[None, :]
    assert np.array_equal(ctx.base.add(x, y), ref.add)
    assert np.array_equal(ctx.base.mul(x, y), ref.mul)
    D = tower.build_D()
    S = C.to_projective_set(D, ctx)
    assert S.n == D.k // 3
    gm = C.build_code(S, ctx)
    enum = C.weight_enumerator(gm, ctx)
    assert C.check_two_weight(
        enum, P.code_params(4, 2, 1, 1), kernel=4 ** (6 - gm.rank)
    ).passed
