"""Verification oracles: difference profiles, exact character transforms,
case splits, cliques, duals, and their failure modes."""

import ast
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from denpds import coding as C
from denpds import params as P
from denpds import verify as V
from denpds.construct import PdsSet, Tower, TowerParams
from denpds.jsonout import dumps
from denpds.errors import CapExceededError, DenpdsError, InternalError, SpectrumNotTwoValuedError

from conftest import (
    GRID_G1,
    digit_table,
    exchange_bits_0_and_2,
    pair_set,
    transform_items,
    with_pairs,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "denpds"


@pytest.fixture(scope="module")
def t64():
    return Tower(TowerParams(2, 1, 2, 1, 1))


@pytest.fixture(scope="module")
def d64(t64):
    R = t64.default_subspace()
    return t64.build_D(R), R


@pytest.fixture(scope="module")
def ix64(t64):
    return V.GroupIndexer(t64)


def swap_one(pds, tower, rng):
    """Remove one element, add one non-element; size is preserved."""
    ord1, ord2 = tower.f1.order, tower.f2.order
    universe = {
        (i, j) for i in range(-1, ord1) for j in range(-1, ord2)
    } - {(-1, -1)}
    pairs = pair_set(tower, pds)
    gone = rng.choice(sorted(pairs))
    added = rng.choice(sorted(universe - pairs))
    return with_pairs(tower, pds, pairs - {gone} | {added})


def test_group_indexer_bijection(ix64, t64):
    pairs = np.array([(i, j) for i in range(-1, t64.f1.order) for j in range(-1, t64.f2.order)])
    idx = ix64.from_dlog_pairs(pairs)
    assert sorted(idx.tolist()) == list(range(64))
    assert np.array_equal(ix64.dlog_pairs(idx), pairs)
    for g, pair in zip(idx.tolist(), pairs.tolist()):
        assert ix64.dlog_pairs(g).tolist() == pair


def test_index_arithmetic_matches_group_law(ix64, t64):
    # index addition is coordinate-wise field addition
    f1, f2 = t64.f1, t64.f2
    digits, weights = digit_table(2, 6)
    rng = random.Random(11)
    for _ in range(100):
        g, h = rng.randrange(64), rng.randrange(64)
        s = int(((digits[g] + digits[h]) % 2) @ weights)
        ga, gb = g % 4, g // 4
        ha, hb = h % 4, h // 4
        assert s == f1.add(ga, ha) + 4 * f2.add(gb, hb)
        assert ix64.add(g, h) == s and ix64.sub(s, h) == g


def test_index_arithmetic_odd_characteristic():
    """add, sub and neg on indices, elementwise and broadcast, are the
    digit-wise group law mod 3, which is coordinate-wise field arithmetic."""
    tower = Tower(TowerParams(3, 1, 2, 1, 1))
    ix = V.GroupIndexer(tower)
    digits, weights = digit_table(3, 6)
    g = np.arange(729, dtype=np.int64)
    h = np.random.default_rng(5).permutation(729)
    assert np.array_equal(ix.add(g, h), ((digits[g] + digits[h]) % 3) @ weights)
    assert np.array_equal(ix.sub(g, h), ((digits[g] - digits[h]) % 3) @ weights)
    assert np.array_equal(ix.neg(g), ((3 - digits[g]) % 3) @ weights)
    assert np.array_equal(ix.sub(g[:, None], h[None, :5]), ix.add(g[:, None], ix.neg(h[None, :5])))
    # coordinate-wise: digit sums in GF(9) and in GF(81)
    d1, w1 = digit_table(3, 2)
    d2, w2 = digit_table(3, 4)
    for a, b in zip(g[:50].tolist(), h[:50].tolist()):
        want = ((d1[a % 9] + d1[b % 9]) % 3) @ w1 + 9 * (((d2[a // 9] + d2[b // 9]) % 3) @ w2)
        assert ix.add(a, b) == want


def test_two_element_set_profile():
    """For D = {g, -g} with g != -g the only differences are +-2g, once each."""
    tower = Tower(TowerParams(3, 1, 2, 1, 1))
    ix = V.GroupIndexer(tower)
    g = int(ix.from_dlog_pairs(np.array([(0, 1)]))[0])
    neg = ix.neg(g)
    assert neg != g
    claimed = P.SrgParams(729, 2, 0, 0)  # placeholder claim; profile only
    pds = PdsSet(tower.params, "primal", [g, neg], claimed)
    prof = V.difference_profile(pds, ix)
    assert prof.sum() == 2
    nz = np.flatnonzero(prof)
    assert len(nz) == 2
    dd, weights = digit_table(3, 6)
    double = int(((dd[g] * 2) % 3) @ weights)
    assert set(nz) == {double, int(((3 - dd[g] * 2) % 3) @ weights)}
    assert all(prof[z] == 1 for z in nz)


def test_profile_spot_values(d64, ix64):
    D, _ = d64
    prof = V.difference_profile(D, ix64)
    idx = D.elements
    member = np.zeros(64, dtype=bool)
    member[idx] = True
    assert set(prof[member].tolist()) == {2}
    off = ~member
    off[0] = False
    assert set(prof[off].tolist()) == {6}
    assert prof.sum() == 18 * 17 == 2 * 18 + 6 * 45
    # symmetry c(g) = c(-g)
    assert (prof == prof[ix64.neg(np.arange(64))]).all()


def test_profile_cap():
    tower = Tower(TowerParams(2, 1, 2, 1, 1))
    ix = V.GroupIndexer(tower)
    D = tower.build_D()
    with pytest.raises(CapExceededError):
        V.difference_profile(D, ix, cap=32)


def test_check_pds_passes_and_catches_corruption(d64, ix64, t64):
    D, _ = d64
    prof = V.difference_profile(D, ix64)
    assert V.check_pds(D, ix64, prof).passed
    bad = swap_one(D, t64, random.Random(3))
    prof_bad = V.difference_profile(bad, ix64)
    item = V.check_pds(bad, ix64, prof_bad)
    assert not item.passed
    assert item.witnesses  # a concrete offending element is reported


def test_spectrum_spot_values(d64, ix64):
    D, _ = d64
    spec = V.character_spectrum(D, ix64)
    assert int(spec.values[0]) == 18
    assert spec.nonprincipal_value_counts() == {2: 45, -6: 18}
    assert spec.all_rational()
    # orthogonality: nonprincipal sums total -|D|
    assert int(spec.values[1:].sum()) == -18


def test_spectrum_exact_rationality_odd_characteristic():
    tower = Tower(TowerParams(3, 1, 2, 1, 1))
    ix = V.GroupIndexer(tower)
    D = tower.build_D()
    spec = V.character_spectrum(D, ix)
    assert spec.all_rational()
    assert spec.nonprincipal_value_counts() == {6: 560, -21: 168}
    # (p, v) count vectors: every character's counts total |D|
    assert spec.counts.shape == (3, 729)
    assert (spec.counts.sum(axis=0) == D.k).all()


def test_two_valued_and_eigen_checks(d64, ix64):
    D, _ = d64
    exp = V.expected_params(D)
    spec = V.character_spectrum(D, ix64)
    assert V.check_two_valued(spec, exp).passed
    assert V.eigen_check(exp, spec).passed
    # multiplicity of the negative value is v - 1 - k_plus
    assert spec.nonprincipal_value_counts()[-6] == 64 - 1 - 45


def test_degenerate_spectrum_is_clique_union():
    tower = Tower(TowerParams(2, 1, 2, 1, 0))
    ix = V.GroupIndexer(tower)
    D = tower.build_D()
    spec = V.character_spectrum(D, ix)
    assert set(spec.nonprincipal_value_counts()) == {3, -1}
    assert V.check_two_valued(spec, V.expected_params(D)).passed


def test_case_split(d64, t64, ix64):
    D, R = d64
    spec = V.character_spectrum(D, ix64)
    item = V.check_case_split(D, t64, ix64, spec, R)
    assert item.passed
    assert item.details == {"special": 18, "other": 45}
    # dual family split
    Dd = t64.build_D_dual(R)
    specd = V.character_spectrum(Dd, ix64)
    assert V.check_case_split(Dd, t64, ix64, specd, R).passed
    # a subspace other than the set's: each witness names a character, by
    # the dlog pair of its label, whose value is not the predicted one
    wrong = V.check_case_split(D, t64, ix64, spec, t64.subspace_from_exponents([1]))
    assert not wrong.passed and len(wrong.witnesses) == 5
    for w in wrong.witnesses:
        label = int(ix64.from_dlog_pairs(np.array([w["character"]]))[0])
        assert int(spec.values[ix64.char_index_table[label]]) == w["value"] != w["want"]


def test_case_split_branch_counts_odd_characteristic():
    tower = Tower(TowerParams(3, 1, 2, 1, 1))
    ix = V.GroupIndexer(tower)
    R = tower.default_subspace()
    D = tower.build_D(R)
    spec = V.character_spectrum(D, ix)
    item = V.check_case_split(D, tower, ix, spec, R)
    assert item.passed
    assert item.details["special"] == 168  # negative-value characters


def test_case_split_skip_reasons(d64, t64):
    """A complement set skips case-split because the split describes only
    the primal and dual families, also when R is supplied; without R every
    family skips it for want of a subspace."""
    D, R = d64

    def case_split(pds, R):
        return next(it for it in V.verify_pds(pds, t64, R).items if it.name == "case-split")

    for pds in (t64.complement(D), t64.complement(t64.build_D_dual(R))):
        assert case_split(pds, R).skipped == "only defined for primal/dual provenance"
        assert case_split(pds, None).skipped == "no subspace supplied"
    assert case_split(D, None).skipped == "no subspace supplied"
    assert case_split(D, R).skipped is None and case_split(D, R).passed


def test_common_neighbors(d64, ix64):
    D, _ = d64
    item = V.srg_common_neighbors(D, ix64)
    assert item.passed
    assert item.details == {"pairs_checked": 63, "degree": 18, "sampled": False}
    assert V.srg_common_neighbors(D, ix64, cap=64).as_dict() == item.as_dict()
    # above the cap the check is skipped, not sampled
    for cap in (63, 16, 0):
        assert V.srg_common_neighbors(D, ix64, cap=cap).skipped == "cap"


DENSE = [(2, 1, 4, 1, 2), (2, 1, 4, 1, 3)]


def _with_complement_and_dual(tower, pds):
    spectrum = V.character_spectrum(pds, tower.indexer)
    return [pds, tower.complement(pds), V.delsarte_dual(pds, tower.indexer, spectrum)]


def test_orbit_counts_equal_the_transform_profile(grid):
    """The literal counts at the e + 2 orbit representatives, spread over
    their orbits, are the transform profile at every nonzero element: for
    every grid and dense set of both families, its complement and its
    Delsarte dual, and for the primal 3,1,2,2,1 set (odd p, e = 4)."""
    towers = [tp + (r,) for tp in GRID_G1 for r in range(tp[2] + 1)] + DENSE
    cases = [(tp, fam) for tp in towers for fam in ("primal", "dual")]
    sets = []
    for tp, fam in cases:
        tower = grid.tower(*tp)
        sets += [(tower, pds) for pds in _with_complement_and_dual(tower, grid.pds(*tp, fam)[0])]
    big = grid.tower(3, 1, 2, 2, 1)
    sets.append((big, big.build_D()))
    assert len(sets) == 3 * len(cases) + 1
    for tower, pds in sets:
        assert V.check_multiplier_invariance(pds, tower).passed, (tower.params, pds.provenance)
        counts = V._common_counts(pds, tower.orbit_representatives, tower.indexer)
        profile = V.transform_profile(V.character_spectrum(pds, tower.indexer))
        assert np.array_equal(tower.by_orbit(counts, 0), profile), (tower.params, pds.provenance)


def test_orbit_route_runs_unsampled_above_the_neighbor_cap():
    """3,1,2,2,1 (v = 3^10, above the neighbor cap of 4096) certifies
    common-neighbors for all v - 1 targets in both families, with e + 2 = 6
    counts."""
    tower = Tower(TowerParams(3, 1, 2, 2, 1))
    R = tower.default_subspace()
    assert len(tower.orbit_representatives) == 6
    for pds in (tower.build_D(R), tower.build_D_dual(R)):
        report = V.verify_pds(pds, tower, R)
        assert report.verdict == "PASS" and all(it.skipped is None for it in report.items)
        cn = report.items[-1]
        assert cn.name == "common-neighbors"
        assert cn.details == {"pairs_checked": 3**10 - 1, "degree": pds.k, "sampled": False}


LARGE = [(2, 1, 2, 4, 1), (7, 1, 2, 1, 1)]


def test_orbit_spectrum_is_the_spectrum(grid):
    """The e + 2 orbit sums, expanded to every group element, are the
    transform's sum at that element's label, element by element: for every
    grid and dense set of both families, its complement and its Delsarte
    dual, and for the primal sets of the two large towers (v = 2^18 and
    7^6) with theirs; so is the support of each value on both routes.  The
    Delsarte dual, the weight enumerator and the hyperplane profile read
    off the orbits are the transform route's."""
    towers = [tp + (r,) for tp in GRID_G1 for r in range(tp[2] + 1)] + DENSE
    cases = [(tp, fam) for tp in towers for fam in ("primal", "dual")]
    cases += [(tp, "primal") for tp in LARGE]
    for tp, fam in cases:
        tower = grid.tower(*tp)
        ix = tower.indexer
        ctx = C.CodingContext(tower)
        for pds in _with_complement_and_dual(tower, grid.pds(*tp, fam)[0]):
            where = (tp, pds.provenance)
            assert V.check_multiplier_invariance(pds, tower).passed, where
            transform = V.character_spectrum(pds, ix)
            orbits = V.orbit_spectrum(pds, tower)
            assert transform.all_rational(), where
            by_label = transform.values[ix.char_index_table]
            assert np.array_equal(orbits.by_element(), by_label), where
            assert np.array_equal(transform.by_element(), by_label), where
            for value in np.unique(orbits.values).tolist():
                support = orbits.support(value)
                assert np.array_equal(support, transform.support(value)), (where, value)
                assert np.array_equal(support, np.flatnonzero(by_label[1:] == value) + 1), (where, value)
            assert orbits.nonprincipal_value_counts() == transform.nonprincipal_value_counts()
            assert orbits.nonprincipal_sum() == transform.nonprincipal_sum()
            dual, want = (V.delsarte_dual(pds, ix, one) for one in (orbits, transform))
            assert dual.provenance == want.provenance, where
            assert np.array_equal(dual.elements, want.elements), where
            S = C.to_projective_set(pds, ctx)
            gm = C.build_code(S, ctx)
            for fn, arg in ((C.spectral_hyperplane_profile, S), (C.spectral_weight_enumerator, gm)):
                assert fn(orbits, arg) == fn(transform, arg), (where, fn.__name__)


@pytest.mark.parametrize("tp", [(3, 1, 2, 1, r) for r in range(3)] + [(7, 1, 2, 1, 1)])
def test_odd_orbit_sums_are_the_transform_at_the_labels(grid, tp):
    """For odd p, the sums that ``_orbit_sums`` reads from per-field trace
    tables are the transform's sums at the labels of the orbit
    representatives and of 200 random group elements, for both families
    and the complements of the grid towers (p = 3, every r) and of the odd
    ``large`` tower (v = 7^6)."""
    tower = grid.tower(*tp)
    ix = tower.indexer
    rng = np.random.default_rng(sum(tp))
    elements = np.concatenate([tower.orbit_representatives, rng.integers(0, ix.v, 200)])
    for family in ("primal", "dual"):
        D = grid.pds(*tp, family)[0]
        for pds in (D, tower.complement(D)):
            want = V.character_spectrum(pds, ix).values[ix.char_index(elements)]
            assert np.array_equal(V._orbit_sums(pds.elements, elements, ix), want), (tp, pds.provenance)


def _invariant_sets(grid):
    """(tower, set, R) for every H-invariant set the tests build: the grid
    sets with their complements and Delsarte duals, the 56 ratio-set
    mutants of ``test_mutants_only_the_counts_catch`` with R, and the empty
    set and the set with 0 added, at p = 2 and p = 3."""
    for tower, pds, R, _ in grid.instances():
        for one in _with_complement_and_dual(tower, pds):
            yield tower, one, R
    for family, r in (("primal", 2), ("dual", 1)):
        tower = grid.tower(2, 1, 3, 1, r)
        for triple in itertools.combinations(range(7), 3):
            yield tower, _ratio_set_mutant(tower, triple, family), tower.default_subspace()
    for tp in ((2, 1, 2, 1, 1), (3, 1, 2, 1, 1)):
        tower = grid.tower(*tp)
        for fam in ("primal", "dual"):
            D, R = grid.pds(*tp, fam)
            for elements in ([], np.append(D.elements, 0)):
                yield tower, PdsSet(D.params, D.provenance, elements, D.claimed, D.subspace_rows), R


def test_orbit_route_reports_equal_the_transform_reports(grid):
    """On every H-invariant set, ``verify_pds``'s pds-differences, which
    reads the e + 2 orbit counts, and its spectral items, which read the
    orbit spectrum, and the check functions given the orbit spectrum print
    what the same functions print on the transform's profile and spectrum,
    failures, witnesses and counts included."""
    failed = 0
    for tower, pds, R in _invariant_sets(grid):
        where = (tower.params, pds.provenance, pds.k)
        assert V.check_multiplier_invariance(pds, tower).passed, where
        want = {name: dumps(it.as_dict()) for name, it in transform_items(pds, tower, R).items()}
        report = V.verify_pds(pds, tower, R)
        got = {it.name: dumps(it.as_dict()) for it in report.items if it.name in want}
        assert got == want, where
        orbits = V.orbit_spectrum(pds, tower)
        exp = V.expected_params(pds)
        direct = {
            "two-valued-spectrum": V.check_two_valued(orbits, exp),
            "case-split": V.check_case_split(pds, tower, tower.indexer, orbits, R),
            "eigenvalues": V.eigen_check(exp, orbits),
        }
        assert {name: dumps(it.as_dict()) for name, it in direct.items()} == {
            name: want[name] for name in direct
        }, where
        failed += not direct["case-split"].passed
    assert failed >= 2 * 28 + 8  # the non-line mutants and the empty and 0-holding sets


def _ratio_set_mutant(tower, classes, family):
    """The set of ``family`` whose ratio part is the union of the ratio
    classes ``classes`` (t mod e) for the primal family, and of the other
    classes for the dual family, instead of those R or R-perp gives, with the
    family's axis: H-invariant and of the family's size whenever
    ``classes`` has the size of R or R-perp."""
    ratio = np.zeros(tower.params.e, dtype=bool)
    ratio[list(classes)] = True
    tp = tower.params
    if family == "primal":
        mask, claimed = np.concatenate([[True, False], ratio]), tp.primal_params()
    else:
        mask, claimed = np.concatenate([[False, True], ~ratio]), tp.dual_params()
    return PdsSet(tp, family, tower.orbit_union(mask), claimed)


def _orbit_union_sets(grid):
    """(tower, set, mask) for every mask over the e + 2 H-orbits of the
    grid towers with e + 2 <= 7, and 64 seeded masks on 2,1,3,1 (e = 7),
    each as the union of its orbits (strictly ascending, as
    ``Tower.orbit_union`` returns it) and with 0 added: 640 sets."""
    rng = random.Random(20)
    for p, s, m, ell in GRID_G1:
        tower = grid.tower(p, s, m, ell, 1)
        width = tower.params.e + 2
        if width <= 7:
            masks = list(itertools.product((False, True), repeat=width))
        else:
            masks = [[rng.random() < 0.5 for _ in range(width)] for _ in range(64)]
        for mask in masks:
            union = tower.orbit_union(mask)
            assert (np.diff(union) > 0).all(), (tower.params, mask)
            for elements in (union, np.append(union, 0)):
                yield tower, PdsSet(tower.params, "primal", elements, tower.params.primal_params()), mask


def test_every_orbit_union_is_certified_from_its_orbits(grid):
    """On every union of H-orbits of ``_orbit_union_sets``, most of them not
    a PDS: it is exactly the orbits of its mask (``Tower.orbit_table``), H
    fixes it, the e + 2 literal counts at the orbit representatives, spread
    by ``Tower.by_orbit``, are its difference profile (literal for
    v <= 1024, else from the transform), and its orbit spectrum, spread to
    every element, is the transform's sum at each element's label."""
    sets = 0
    for tower, pds, mask in _orbit_union_sets(grid):
        ix, where = tower.indexer, (tower.params, mask, pds.k)
        assert V.check_multiplier_invariance(pds, tower).passed, where
        # the nonzero elements lie in the mask's orbits and fill them
        nonzero = pds.elements[pds.elements != 0]
        assert np.array(mask)[tower.orbit_table[nonzero]].all(), where
        assert len(nonzero) == tower.orbit_sizes[np.array(mask, dtype=bool)].sum(), where
        counts = V._common_counts(pds, tower.orbit_representatives, ix)
        spectrum = V.character_spectrum(pds, ix)
        if tower.params.v <= 1024:
            profile = V.difference_profile(pds, ix)
        else:
            profile = V.transform_profile(spectrum)
        assert np.array_equal(tower.by_orbit(counts, 0), profile), where
        by_label = spectrum.values[ix.char_index_table]
        assert np.array_equal(V.orbit_spectrum(pds, tower).by_element(), by_label), where
        sets += 1
    assert sets == 640


def test_mutants_only_the_counts_catch():
    """On 2,1,3,1 the ratio classes are the 7 points of PG(2,2).  A ratio
    set of 3 points builds a primal set at r = 2 (R is a line) and, by
    complement, a dual set at r = 1 (R-perp is a line).  The 7 lines give
    certified sets; each of the 28 other 3-subsets gives a set with the
    right size, D = -D and H-invariance, which pds-differences,
    two-valued-spectrum and the orbit-route common-neighbors must reject."""
    towers = {fam: Tower(TowerParams(2, 1, 3, 1, r)) for fam, r in (("primal", 2), ("dual", 1))}
    mid = towers["primal"].mid
    points = mid.antilog
    lines = {
        triple for triple in itertools.combinations(range(7), 3)
        if mid.add(points[triple[0]], points[triple[1]]) == points[triple[2]]
    }
    assert len(lines) == 7
    failed = 0
    for family, tower in towers.items():
        for triple in itertools.combinations(range(7), 3):
            pds = _ratio_set_mutant(tower, triple, family)
            assert pds.k == pds.claimed.k
            assert V.check_multiplier_invariance(pds, tower).passed
            report = V.verify_pds(pds, tower)  # no R: case-split is skipped
            status = {it.name: it.status for it in report.items}
            assert "multiplier-invariance" not in status  # listed only when it fails
            cn = report.items[-1]
            assert cn.details == {"pairs_checked": 511, "degree": pds.k, "sampled": False}
            if triple in lines:
                assert report.verdict == "PASS", (family, triple)
                continue
            assert report.verdict == "FAIL"
            for name in ("pds-differences", "two-valued-spectrum", "common-neighbors"):
                assert status[name] == "fail", (family, triple, name)
            # each witness is an orbit representative
            assert {tuple(w["vertex"]) for w in cn.witnesses} <= {
                tuple(p) for p in tower.indexer.dlog_pairs(tower.orbit_representatives).tolist()
            }
            failed += 1
    assert failed == 2 * 28


def test_a_swap_fails_invariance_and_skips_common_neighbors():
    """A single swapped element breaks H-invariance: the check names an
    element of D whose image under a generator is not in D, and the report
    lists it and skips common-neighbors, also under a raised neighbor
    cap."""
    tower = Tower(TowerParams(2, 1, 3, 1, 2))
    R = tower.default_subspace()
    bad = swap_one(tower.build_D(R), tower, random.Random(7))
    item = V.check_multiplier_invariance(bad, tower)
    assert not item.passed and item.witnesses
    for w in item.witnesses:
        d, image = tower.indexer.from_dlog_pairs(np.array([w["element"], w["image"]]))
        assert w["multiplier"] in item.details["generators"]
        assert tower.multiply(d, *w["multiplier"]) == image
        assert d in bad.elements and image not in bad.elements
    for caps in (V.Caps(), V.Caps(neighbor=1 << 16)):
        report = V.verify_pds(bad, tower, R, caps=caps)
        names = [it.name for it in report.items]
        assert names[-2:] == ["multiplier-invariance", "common-neighbors"]
        assert report.items[-2].as_dict() == item.as_dict()
        assert report.items[-1].skipped == "set not H-invariant"
        assert report.verdict == "FAIL"


def test_a_moved_set_is_reported_not_swept(grid, d64, t64, monkeypatch):
    """verify_pds counts common neighbours at no more than the e + 2 orbit
    representatives, at the default caps and under a neighbor cap of 2^16:
    a set the multiplier group moves fails multiplier-invariance and its
    common-neighbors is skipped.  The sets are the moved (64,18,2,6) set and
    3,1,2,2,1 with its smallest element swapped for the smallest nonzero
    non-member (v = 3^10)."""
    D, R = d64
    moved = PdsSet(D.params, D.provenance, exchange_bits_0_and_2(D.elements), D.claimed)
    big = grid.tower(3, 1, 2, 2, 1)
    B = big.build_D()
    outsider = np.setdiff1d(np.arange(1, big.params.v), B.elements)[0]
    swapped = PdsSet(B.params, B.provenance, np.append(B.elements[1:], outsider), B.claimed)
    counts = V._common_counts
    for tower, pds, R in ((t64, moved, R), (big, swapped, big.default_subspace())):
        limit = len(tower.orbit_representatives)

        def bounded(one, targets, indexer, limit=limit):
            assert len(targets) <= limit, "%d targets swept" % len(targets)
            return counts(one, targets, indexer)

        monkeypatch.setattr(V, "_common_counts", bounded)
        for caps in (V.Caps(), V.Caps(neighbor=1 << 16)):
            report = V.verify_pds(pds, tower, R, caps=caps)
            items = {it.name: it for it in report.items}
            assert report.verdict == "FAIL", tower.params
            assert not items["multiplier-invariance"].passed
            assert items["common-neighbors"].skipped == "set not H-invariant"


def test_clique_certificates(d64, t64):
    D, R = d64
    assert V.clique_certificate(D, t64).details["clique_size"] == 4
    assert V.clique_certificate(D, t64).passed
    Dd = t64.build_D_dual(R)
    item = V.clique_certificate(Dd, t64)
    assert item.passed and item.details["clique_size"] == 16
    # a set containing a forbidden axis element fails the bound
    bad = with_pairs(t64, D, pair_set(t64, D) | {(-1, 0)})
    assert not V.clique_certificate(bad, t64).passed
    # so does a set missing one element of the designated clique
    bad = with_pairs(t64, D, pair_set(t64, D) - {(0, -1)})
    assert not V.clique_certificate(bad, t64).details["differences_inside"]
    bad = with_pairs(t64, Dd, pair_set(t64, Dd) - {(-1, 0)})
    assert not V.clique_certificate(bad, t64).passed


def test_delsarte_dual_matches_construction(d64, t64, ix64):
    D, R = d64
    dd = V.delsarte_dual(D, ix64)
    assert dd.provenance == "delsarte-dual"
    assert dd.claimed == P.SrgParams(64, 45, 32, 30)
    assert np.array_equal(dd.elements, t64.build_D_dual(R).elements)
    # double dual returns the original set, correctly relabelled
    dd2 = V.delsarte_dual(dd, ix64)
    assert dd2.provenance == "primal"
    assert np.array_equal(dd2.elements, D.elements)
    assert dd2.claimed == P.SrgParams(64, 18, 2, 6)
    assert V.expected_params(dd2) == dd2.claimed


def test_family_tags_close_under_complement_and_dual(t64):
    """Complementing a dual-family set yields the complement-dual family,
    which verifies against its own closed forms."""
    R = t64.default_subspace()
    Dd = t64.build_D_dual(R)
    Cd = t64.complement(Dd)
    assert Cd.provenance == "complement-dual"
    assert V.expected_params(Cd) == Cd.claimed
    assert V.verify_pds(Cd, t64, R).ok
    assert t64.complement(Cd).provenance == "dual"
    # the complement of the primal family is the dual family one rank over
    t512 = Tower(TowerParams(2, 1, 3, 1, 1))
    comp = t512.complement(t512.build_D())
    assert comp.claimed == P.dual_denniston_params(2, 3, 1, 3 - 1)


def test_delsarte_dual_rejects_non_two_valued(t64, ix64):
    D, _ = t64.build_D(), None
    bad = swap_one(D, t64, random.Random(5))
    with pytest.raises(SpectrumNotTwoValuedError):
        V.delsarte_dual(bad, ix64)


def test_verify_pds_full_report(d64, t64):
    D, R = d64
    report = V.verify_pds(D, t64, R)
    assert report.ok
    names = [it.name for it in report.items]
    assert names == [
        "pds-differences",
        "two-valued-spectrum",
        "case-split",
        "eigenvalues",
        "clique",
        "common-neighbors",
    ]
    text = report.to_text()
    assert "RESULT: PASS" in text
    doc = report.as_dict()
    assert doc["ok"] and all(c["status"] in ("pass", "skip") for c in doc["checks"])


def test_verify_pds_cap_skips(d64, t64):
    D, R = d64
    caps = V.Caps(profile=8, spectrum=8, neighbor=8)
    report = V.verify_pds(D, t64, R, caps=caps)
    # nothing executed failed, but nothing substantive ran either
    assert not report.ok and report.verdict == "INCONCLUSIVE"
    statuses = {it.name: it.status for it in report.items}
    assert statuses["pds-differences"] == "skip"
    assert statuses["two-valued-spectrum"] == "skip"
    assert statuses["clique"] == "pass"  # set-level check still runs


def test_parallel_results_identical(d64, t64):
    """``threads`` is accepted and ignored: a set the multiplier group moves
    gives byte-identical reports at 0 and 4."""
    D, R = d64
    moved = PdsSet(D.params, D.provenance, exchange_bits_0_and_2(D.elements), D.claimed)
    rep0 = V.verify_pds(moved, t64, R, threads=0)
    rep4 = V.verify_pds(moved, t64, R, threads=4)
    names = [it.name for it in rep0.items]
    assert names[-2:] == ["multiplier-invariance", "common-neighbors"]
    assert rep0.items[-1].skipped == "set not H-invariant" and rep0.verdict == "FAIL"
    assert rep0.to_json() == rep4.to_json()


def test_mutation_sensitivity(d64, t64):
    """Any single swapped element must trip at least one oracle."""
    D, R = d64
    rng = random.Random(0xD5)
    for _ in range(20):
        bad = swap_one(D, t64, rng)
        report = V.verify_pds(bad, t64, R)
        assert not report.ok


def reference_edges(pds, indexer):
    """The seed's route: for each generator d, the digit sum u + d of every
    vertex u, then one lexicographic sort."""
    digits, weights = digit_table(indexer.p, indexer.n)
    u = np.arange(indexer.v)
    us, ws = [], []
    for d in pds.elements:
        w = ((digits + digits[d]) % indexer.p) @ weights
        us.append(u[u < w])
        ws.append(w[u < w])
    u, w = np.concatenate(us), np.concatenate(ws)
    order = np.lexsort((w, u))
    return np.stack([u[order], w[order]], axis=1)


def test_cayley_edges(d64, ix64):
    D, _ = d64
    edges = V.cayley_edges(D, ix64)
    assert len(edges) == 64 * 18 // 2
    assert (edges[:, 0] < edges[:, 1]).all()
    # sorted and unique
    as_tuples = [tuple(e) for e in edges]
    assert as_tuples == sorted(set(as_tuples))
    assert np.array_equal(edges, reference_edges(D, ix64))
    tower = Tower(TowerParams(3, 1, 2, 1, 1))
    ix = V.GroupIndexer(tower)
    D3 = tower.build_D()
    assert np.array_equal(V.cayley_edges(D3, ix), reference_edges(D3, ix))


def test_cayley_edges_refuse_zero_and_asymmetry_first():
    """A set holding 0, or with D != -D, is refused as a fault of the input
    when its chunks are asked for, before any edge is built; {1, 6} in
    3,1,2,1,1 is refused although its directed count, 486 + 243, is v k / 2,
    and so is {1, 2, 6}, which holds -1 and -2 but not -6.  The refusal
    names the identity, or the first element whose negative is missing,
    as dlog pairs."""
    tower = Tower(TowerParams(3, 1, 2, 1, 1))
    ix = tower.indexer
    D = tower.build_D()
    chunks = V.cayley_edge_chunks(D, tower.indexer)
    assert np.array_equal(np.concatenate(list(chunks)), V.cayley_edges(D, tower.indexer))
    for elements, first in (([1, 6], 1), ([1, 2, 6], 6), (np.append(D.elements, 0), None)):
        bad = PdsSet(D.params, "primal", elements, D.claimed)
        if first is None:
            want = "the set holds the identity (-1, -1), which is no edge of a simple graph"
        else:
            d, minus_d = ix.dlog_pairs(np.array([first, ix.neg(first)])).tolist()
            want = "the set holds (%d, %d) but not its negative (%d, %d)" % (*d, *minus_d)
        with pytest.raises(DenpdsError) as info:
            V.cayley_edge_chunks(bad, ix)
        assert str(info.value) == want and not isinstance(info.value, InternalError)


@pytest.mark.parametrize("family", ["primal", "dual"])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_cayley_graph_against_networkx(r, family):
    """An oracle that shares no code with denpds: networkx finds the Cayley
    graph of every v = 64 set strongly regular with the closed-form
    parameters or, for mu = 0, a disjoint union of (k+1)-cliques."""
    nx = pytest.importorskip("networkx")
    tower = Tower(TowerParams(2, 1, 2, 1, r))
    pds = tower.build_D() if family == "primal" else tower.build_D_dual()
    closed_form = P.denniston_params if family == "primal" else P.dual_denniston_params
    sp = closed_form(2, 2, 1, r)
    v, k, lam, mu = sp.v, sp.k, sp.lam, sp.mu
    G = nx.Graph()
    G.add_nodes_from(range(v))
    G.add_edges_from(V.cayley_edges(pds, tower.indexer).tolist())
    if mu > 0:
        assert nx.is_strongly_regular(G)
        assert nx.intersection_array(G) == ([k, k - lam - 1], [1, mu])
    else:
        cliques = [G.subgraph(c) for c in nx.connected_components(G)]
        assert len(cliques) == v // (k + 1)
        assert all(c.number_of_nodes() == k + 1 for c in cliques)
        assert all(c.number_of_edges() == k * (k + 1) // 2 for c in cliques)


def _named(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def test_one_read_only_base():
    """Only ``params.ReadOnly`` refuses assignment and only
    ``params.ValueRecord`` compares and hashes records by value; the one
    other equality is ``jsonout.RowStrings``', which compares arrays and
    leaves the record unhashable.  No other class of the package defines
    ``__setattr__``, ``__eq__`` or ``__hash__``.  Only ``ReadOnly.__init__``
    stores fields with ``object.__setattr__``, and only the records that
    validate, normalize or default their fields define an ``__init__``."""
    allowed = {
        ("params.py", "ReadOnly"): {"__setattr__"},
        ("params.py", "ValueRecord"): {"__eq__", "__hash__"},
        ("jsonout.py", "RowStrings"): {"__eq__", "__hash__"},
    }
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        stores = set()
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if (path.name, cls.name) == ("params.py", "ReadOnly"):
                stores = {id(n) for n in ast.walk(cls)}
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = {node.name}
                else:
                    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                    names = {t.id for t in targets if isinstance(t, ast.Name)}
                names &= {"__setattr__", "__eq__", "__hash__"}
                if names - allowed.get((path.name, cls.name), set()):
                    offenders.append("%s:%d %s" % (path.name, node.lineno, cls.name))
        offenders += [
            "%s:%d object.__setattr__" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and _named(node.value, "object") and id(node) not in stores
        ]
    own_init = {"ReadOnly", "TowerParams", "PdsSet", "Caps", "Classification"}
    records, stack = [], [P.ReadOnly]
    while stack:
        records.append(stack.pop())
        stack.extend(records[-1].__subclasses__())
    offenders += [r.__name__ for r in records if "__init__" in vars(r) and r.__name__ not in own_init]
    assert offenders == []


def test_one_chunker():
    """Only ff.chunks divides CHUNK_BYTES, and nothing in the package,
    ff.chunks included, names ThreadPoolExecutor or concurrent.futures:
    every literal sweep, every linear map and the graph export take their
    chunk ranges from it and run them serially."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "ff.py":
            chunker = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "chunks")
            allowed = {id(n) for n in ast.walk(chunker)}
        for node in ast.walk(tree):
            divides = (
                id(node) not in allowed
                and isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Div, ast.FloorDiv))
                and _named(node.left, "CHUNK_BYTES")
            )
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                modules.append(node.module or "")
            pooled = _named(node, "ThreadPoolExecutor") or any(m.startswith("concurrent") for m in modules)
            if divides or pooled:
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []
