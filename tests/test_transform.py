"""The exact transform route against the literal routes it replaces in the
CLI: difference profile, common neighbours, hyperplane profile and weight
enumerator."""

import random

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


def old_common_neighbors(pds, indexer, cap):
    """The seed's route: for each target g, the digit difference h - g of
    every group element h, then the membership dot product."""
    v, p = indexer.v, indexer.p
    exp = V.expected_params(pds)
    member = np.zeros(v, dtype=np.int64)
    member[pds.elements] = 1
    sampled = v > cap
    stride = (v + cap - 1) // cap if sampled else 1
    targets = np.arange(1, v, stride, dtype=np.int64)
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
    details = {"pairs_checked": int(len(targets)), "degree": int(member.sum()), "sampled": sampled}
    ok = len(bad) == 0 and int(member.sum()) == exp.k
    return V.CheckItem("common-neighbors", ok, details=details, witnesses=witnesses)


def test_inverse_undoes_forward():
    """inverse(forward(f)) = v f in Z[zeta_p]: the two count vectors differ
    by a constant in every row."""
    rng = np.random.default_rng(7)
    for p, n in ((2, 5), (3, 3), (5, 2)):
        f = rng.integers(0, 4, size=(p**n, p))
        diff = T.inverse(T.forward(f)) - p**n * f
        assert (diff == diff[:, :1]).all(), p


def test_transform_profile_matches_literal_on_grid(grid):
    for tower, pds, R, family in grid.instances():
        fast = V.transform_profile(grid.spectrum(pds, tower))
        slow = grid.profile(pds, tower)
        assert (fast.k, fast.v) == (slow.k, slow.v)
        assert np.array_equal(fast.counts, slow.counts), (tower.params, family)


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
            assert np.array_equal(fast.counts, slow.counts), (tp, family)
            assert not V.check_pds(bad, indexer, fast).passed


def test_int64_guard_raises():
    # a zero-stride view: the guard must refuse before touching any data
    v, k = 1 << 22, 1 << 21
    spectrum = np.broadcast_to(np.zeros((1, 2), dtype=np.int64), (v, 2))
    with pytest.raises(CapExceededError):
        T.difference_counts(spectrum, k)


def test_common_neighbors_match_the_digit_route(grid):
    """Full mode wherever the digit route is cheap, sampled mode (cap 16)
    everywhere, on the grid sets and on non-PDS mutants."""
    for p, s, m, ell in GRID_G1:
        for r in (0, 1, m):
            tower = grid.tower(p, s, m, ell, r)
            indexer = grid.indexer(tower)
            pds, _ = grid.pds(p, s, m, ell, r, "primal")
            sets = [pds, *mutants(pds, tower, seed=r, count=1)]
            caps = [16] + ([V.DEFAULT_NEIGHBOR_CAP] if tower.params.v <= 1024 else [])
            for cap in caps:
                for one in sets:
                    new = V.srg_common_neighbors(one, indexer, cap=cap)
                    old = old_common_neighbors(one, indexer, cap)
                    assert new.as_dict() == old.as_dict(), (tower.params, cap)
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
