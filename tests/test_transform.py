"""The exact transform route against the literal routes it replaces in the
CLI (difference profile, common neighbours, hyperplane profile and weight
enumerator), and both transform kernels against the seed's (v, p) count
butterfly."""

import random
import tracemalloc

import numpy as np
import pytest

from denpds import coding as C
from denpds import transform as T
from denpds import verify as V
from denpds.errors import CapExceededError, InternalError

from conftest import GRID_G1, digit_table, pair_set, with_pairs


def mutants(pds, tower, seed, count):
    """Single-element swaps: one element out, one non-element in."""
    rng = random.Random(seed)
    pairs = pair_set(tower, pds)
    universe = sorted(
        {(i, j) for i in range(-1, tower.f1.order) for j in range(-1, tower.f2.order)}
        - {(-1, -1)}
        - pairs
    )
    members = sorted(pairs)
    for _ in range(count):
        yield with_pairs(tower, pds, pairs - {rng.choice(members)} | {rng.choice(universe)})


def old_common_neighbors(pds, indexer):
    """The seed's route: for each target g, the digit difference h - g of
    every group element h, then the membership dot product."""
    v, p = indexer.v, indexer.p
    exp = V.expected_params(pds)
    member = np.zeros(v, dtype=np.int64)
    member[pds.elements] = 1
    targets = np.arange(1, v, dtype=np.int64)
    digits, weights = digit_table(p, indexer.n)
    cn = np.array(
        [member[((digits - digits[g]) % p) @ weights] @ member for g in targets], dtype=np.int64
    )
    want = np.where(member[targets] == 1, exp.lam, exp.mu)
    bad = np.flatnonzero(cn != want)
    witnesses = [
        {"vertex": indexer.dlog_pairs(targets[b]).tolist(), "count": int(cn[b]), "want": int(want[b])}
        for b in bad[:5]
    ]
    details = {"pairs_checked": int(len(targets)), "degree": int(member.sum())}
    ok = len(bad) == 0 and int(member.sum()) == exp.k
    return V.CheckItem("common-neighbors", ok, details=details, witnesses=witnesses)


def reference_butterfly(counts, sign):
    """The seed's transform of (v, p) count vectors, row g the vector of
    element g: one pass per digit, multiplying by zeta^t as a rotation of
    every vector by t."""
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


def reference_values(counts):
    return counts[:, 0] - counts[:, 1], (counts[:, 1:] == counts[:, 1:2]).all(axis=1)


def reference_spectrum(idx, v, p):
    """(counts, values, rational) of the indicator of idx, by the seed's route."""
    counts = np.zeros((v, p), dtype=np.int64)
    counts[idx, 0] = 1
    counts = reference_butterfly(counts, 1)
    return (counts, *reference_values(counts))


def reference_profile(counts):
    """inverse(chi * conj(chi)) / v with the self-differences removed, by
    the seed's route."""
    v, p = counts.shape
    product = np.empty_like(counts)
    for t in range(p):
        product[:, t] = (counts * np.roll(counts, t, axis=1)).sum(axis=1)
    vals, rational = reference_values(reference_butterfly(product, -1))
    assert rational.all() and not (vals % v).any()
    vals //= v
    vals[0] = 0
    return vals


def assert_matches_reference(pds, indexer):
    """character_spectrum and transform_profile equal the seed's route:
    values, rational flags, odd-p count vectors and difference counts."""
    spec = V.character_spectrum(pds, indexer)
    counts, vals, rational = reference_spectrum(pds.elements, indexer.v, indexer.p)
    assert spec.values.dtype == vals.dtype and np.array_equal(spec.values, vals)
    assert np.array_equal(spec.rational, rational)
    assert spec.counts.dtype == (np.int16 if pds.k < 2**15 else np.int32)
    if indexer.p == 2:
        assert np.array_equal(spec.counts, vals)
    else:
        assert np.array_equal(spec.counts.T, counts)
    assert np.array_equal(V.transform_profile(spec), reference_profile(counts))
    return spec


def test_inverse_undoes_forward():
    """inverse(forward(f)) = v f in Z[zeta_p]: exactly in value form (p = 2);
    in count form the two count vectors differ by a constant in every
    column.  Both directions may overwrite their argument, hence the copy."""
    rng = np.random.default_rng(7)
    f = rng.integers(-3, 4, size=2**5)
    assert np.array_equal(T.inverse(T.forward(f.copy())), 2**5 * f)
    for p, n in ((3, 3), (5, 2)):
        f = rng.integers(0, 4, size=(p, p**n))
        diff = T.inverse(T.forward(f.copy())) - p**n * f
        assert (diff == diff[:1]).all(), p


@pytest.mark.parametrize("p, n", [(2, 7), (3, 4), (5, 3), (7, 2)])
def test_kernels_match_the_reference_butterfly(p, n):
    """Both directions on random count vectors: the Walsh-Hadamard value
    form gives the reference's values, the row-layout butterfly its count
    vectors entry for entry, in the dtype it was given."""
    rng = np.random.default_rng(p)
    f = rng.integers(-3, 4, size=(p**n, p))
    for sign, kernel in ((1, T.forward), (-1, T.inverse)):
        want = reference_butterfly(f, sign)
        if p == 2:
            got = kernel(f[:, 0] - f[:, 1])
            assert np.array_equal(got, reference_values(want)[0]), sign
            continue
        for dtype in (np.int32, np.int64):
            got = kernel(f.T.astype(dtype))
            assert got.dtype == dtype and np.array_equal(got.T, want), (sign, dtype)


def test_spectrum_and_profile_match_the_reference_on_grid(grid):
    """Every grid set, and two mutants of each (3,1,2,1,1) and (2,2,2,1,1)
    set; the odd-p mutants have irrational sums."""
    for tower, pds, R, family in grid.instances():
        assert_matches_reference(pds, grid.indexer(tower))
    for tp in ((3, 1, 2, 1, 1), (2, 2, 2, 1, 1)):
        tower = grid.tower(*tp)
        for family in ("primal", "dual"):
            pds, _ = grid.pds(*tp, family)
            for bad in mutants(pds, tower, seed=len(family), count=2):
                spec = assert_matches_reference(bad, grid.indexer(tower))
                assert spec.all_rational() == (tower.params.p == 2), (tp, family)


@pytest.mark.parametrize("tp", [(2, 1, 2, 4, 1), (7, 1, 2, 1, 1)])
def test_spectrum_and_profile_match_the_reference_on_large(grid, tp):
    """The two towers of the benchmark's large workload, v = 2^18 and 7^6."""
    tower = grid.tower(*tp)
    for family in ("primal", "dual"):
        pds, _ = grid.pds(*tp, family)
        assert assert_matches_reference(pds, grid.indexer(tower)).all_rational(), family


@pytest.mark.parametrize("tp, limit_mb", [((2, 1, 2, 4, 1), 8), ((7, 1, 2, 1, 1), 12)])
def test_spectrum_peak_memory(grid, tp, limit_mb):
    """Both kernels hold two buffers of the input's size, in the narrowest
    width that holds k: int32 vectors of length v for p = 2 (k = 87,210),
    (p, v) int16 arrays for odd p (k = 14,448), and values() adds one int64
    vector of length v.  The seed's (v, p) int64 rolls peaked at 16.0 MB and
    20.7 MB here."""
    pds, _ = grid.pds(*tp, "primal")
    indexer = grid.indexer(grid.tower(*tp))
    tracemalloc.start()
    try:
        V.character_spectrum(pds, indexer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20, peak / 2**20


def test_transform_profile_matches_literal_on_grid(grid):
    for tower, pds, R, family in grid.instances():
        fast = V.transform_profile(grid.spectrum(pds, tower))
        slow = grid.profile(pds, tower)
        assert np.array_equal(fast, slow), (tower.params, family)


@pytest.mark.parametrize("tp", [(3, 1, 2, 1, 1), (2, 2, 2, 1, 1)])
def test_transform_profile_matches_literal_on_mutants(grid, tp):
    """Single-element mutants are not PDSs; the profiles still agree."""
    tower = grid.tower(*tp)
    indexer = grid.indexer(tower)
    for family in ("primal", "dual"):
        pds, _ = grid.pds(*tp, family)
        for bad in mutants(pds, tower, seed=len(family), count=1):
            fast = V.transform_profile(V.character_spectrum(bad, indexer))
            slow = V.difference_profile(bad, indexer)
            assert np.array_equal(fast, slow), (tp, family)
            assert not V.check_pds(bad, indexer, fast).passed


def test_int64_guard_raises():
    # zero-stride views, in value form (p = 2) and in (p, v) count form:
    # the guard must refuse before touching any data
    v, k = 1 << 22, 1 << 21
    for spectrum in (
        np.broadcast_to(np.zeros(1, dtype=np.int64), (v,)),
        np.broadcast_to(np.zeros((3, 1), dtype=np.int64), (3, v)),
    ):
        with pytest.raises(CapExceededError, match="2\\^63"):
            T.difference_counts(spectrum, k)


def test_int32_guard_raises(grid, monkeypatch):
    """The forward refuses k >= 2^31 before it allocates, in both forms: a
    zero-stride index view of that length, and a lowered limit on a real
    odd-p set and a real p = 2 set."""
    idx = np.broadcast_to(np.zeros(1, dtype=np.int64), (T.INT32_LIMIT,))
    for p, v in ((3, 3**20), (2, 2**32)):
        with pytest.raises(CapExceededError, match="2\\^31"):
            T.indicator(idx, v, p)
    monkeypatch.setattr(T, "INT32_LIMIT", 168)
    pds, _ = grid.pds(3, 1, 2, 1, 1, "primal")
    with pytest.raises(CapExceededError, match="k = 168"):
        V.character_spectrum(pds, grid.indexer(grid.tower(3, 1, 2, 1, 1)))
    pds, _ = grid.pds(2, 2, 2, 1, 1, "primal")
    with pytest.raises(CapExceededError, match="k = %d" % pds.k):
        V.character_spectrum(pds, grid.indexer(grid.tower(2, 2, 2, 1, 1)))


@pytest.mark.parametrize("k, dtype", [(2**15 - 1, np.int16), (2**15, np.int32)])
def test_value_form_width_at_the_int16_boundary(k, dtype):
    """A random k-set of Z_2^16 on each side of 2^15: the principal value k
    fits int16 only below the boundary, and every value equals the int64
    reference."""
    v = 2**16
    idx = np.sort(np.random.default_rng(k).choice(v, size=k, replace=False))
    f = T.indicator(idx, v, 2)
    assert f.dtype == dtype
    vals, rational = T.values(T.forward(f))
    want = reference_spectrum(idx, v, 2)
    assert vals.dtype == np.int64 and np.array_equal(vals, want[1]) and rational.all()
    assert vals[0] == k


@pytest.mark.parametrize("above", [False, True])
def test_count_form_width_at_a_lowered_int16_boundary(grid, monkeypatch, above):
    """An odd-p set on each side of a lowered int16 limit (k = 168): the
    count vectors and values equal the int64 reference in either width."""
    pds, _ = grid.pds(3, 1, 2, 1, 1, "primal")
    monkeypatch.setattr(T, "INT16_LIMIT", pds.k if above else pds.k + 1)
    spec = V.character_spectrum(pds, grid.indexer(grid.tower(3, 1, 2, 1, 1)))
    assert spec.counts.dtype == (np.int32 if above else np.int16)
    counts, vals, rational = reference_spectrum(pds.elements, spec.v, 3)
    assert np.array_equal(spec.counts.T, counts)
    assert spec.values.dtype == np.int64 and np.array_equal(spec.values, vals)
    assert np.array_equal(spec.rational, rational)


def test_common_neighbors_match_the_digit_route(grid):
    """Every target wherever the digit route is cheap, on the grid sets and
    on non-PDS mutants; under a cap of 16, below v, the check is skipped."""
    for p, s, m, ell in GRID_G1:
        for r in (0, 1, m):
            tower = grid.tower(p, s, m, ell, r)
            indexer = grid.indexer(tower)
            pds, _ = grid.pds(p, s, m, ell, r, "primal")
            sets = [pds, *mutants(pds, tower, seed=r, count=1)]
            for one in sets:
                assert V.srg_common_neighbors(one, indexer, cap=16).skipped == "cap"
                if tower.params.v <= 1024:
                    new = V.srg_common_neighbors(one, indexer)
                    assert new.as_dict() == old_common_neighbors(one, indexer).as_dict(), tower.params
            assert V.srg_common_neighbors(pds, indexer).passed


def test_spectral_coding_matches_literal_on_grid(grid):
    """Every grid set and its complement, r = 0 and r = m included."""
    contexts = {}
    for tower, pds, R, family in grid.instances():
        if tower.params not in contexts:
            contexts[tower.params] = C.CodingContext(tower)
        ctx = contexts[tower.params]
        indexer = grid.indexer(tower)
        for one in (pds, tower.complement(pds)):
            spectrum = V.character_spectrum(one, indexer)
            S = C.to_projective_set(one, ctx)
            assert C.spectral_hyperplane_profile(spectrum, S) == C.hyperplane_profile(S, ctx), (
                tower.params, one.provenance)
            gm = C.build_code(S, ctx)
            assert C.spectral_weight_enumerator(spectrum, gm) == C.weight_enumerator(gm, ctx), (
                tower.params, one.provenance)


@pytest.mark.parametrize(
    "tp, message",
    [((3, 1, 2, 1, 1), "rational"), ((2, 2, 2, 1, 1), "divisible by q")],
)
def test_spectral_coding_rejects_a_foreign_spectrum(grid, tp, message):
    """The spectrum of a mutant, which is not scale-closed, has irrational
    sums (odd p) or sums n + chi that q does not divide (q = 4)."""
    tower = grid.tower(*tp)
    pds, _ = grid.pds(*tp, "primal")
    ctx = C.CodingContext(tower)
    S = C.to_projective_set(pds, ctx)
    bad = next(mutants(pds, tower, seed=1, count=1))
    spectrum = V.character_spectrum(bad, grid.indexer(tower))
    with pytest.raises(InternalError, match=message):
        C.spectral_hyperplane_profile(spectrum, S)
    with pytest.raises(InternalError, match=message):
        C.spectral_weight_enumerator(spectrum, C.build_code(S, ctx))
