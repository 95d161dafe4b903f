"""Tower construction: subspaces, index sets, compatible generators, and
the two independent set builds."""

import json
import math

import numpy as np
import pytest

from denpds import params as P
from denpds.coding import CodingContext, build_code, to_projective_set
from denpds.construct import (
    CompatiblePrimitives,
    PdsSet,
    Tower,
    TowerParams,
    dual_subspace,
    pds_from_json_dict,
    subspace_from_basis,
    subspace_from_elements,
)
from denpds.errors import (
    FieldMismatchError,
    NotASubspaceError,
    TableCapExceededError,
)
from denpds.ff import build_field, digitwise, prime_factors
from denpds.jsonout import RowStrings
from denpds.verify import (
    Caps,
    CheckItem,
    GroupIndexer,
    SrgCheckReport,
    character_spectrum,
    delsarte_dual,
    orbit_spectrum,
    verify_pds,
)

from conftest import GRID_G1, digit_table, pair_set, poly_mul, poly_pow


@pytest.fixture(scope="module")
def t64():
    return Tower(TowerParams(2, 1, 2, 1, 1))


@pytest.fixture(scope="module")
def t729():
    return Tower(TowerParams(3, 1, 2, 1, 1))


def test_tower_params_validation():
    with pytest.raises(ValueError):
        TowerParams(4, 1, 2, 1, 1)
    with pytest.raises(ValueError):
        TowerParams(2, 1, 2, 1, 3)
    with pytest.raises(ValueError):
        TowerParams(2, 0, 2, 1, 1)
    with pytest.raises(TableCapExceededError):
        Tower(TowerParams(2, 1, 3, 2, 1), table_cap=1 << 10)


def test_default_subspace_boundaries(t64):
    r0 = Tower(TowerParams(2, 1, 2, 1, 0)).default_subspace()
    assert r0.elements.tolist() == [0] and r0.dim == 0
    rm = Tower(TowerParams(2, 1, 2, 1, 2)).default_subspace()
    assert rm.elements.tolist() == [0, 1, 2, 3] and rm.dim == 2
    r1 = t64.default_subspace()
    assert r1.elements.tolist() == [0, 1]
    assert r1.elements.dtype == np.int64 and not r1.elements.flags.writeable
    assert t64.index_set_T(r1) == (0,)


def test_index_set_sizes_and_boundaries(t729):
    tp = t729.params
    assert tp.e == 4
    assert t729.index_set_T(t729.default_subspace()) == (0,)
    t0 = Tower(TowerParams(3, 1, 2, 1, 0))
    assert t0.index_set_T(t0.default_subspace()) == ()
    t2 = Tower(TowerParams(3, 1, 2, 1, 2))
    assert t2.index_set_T(t2.default_subspace()) == tuple(range(4))
    # |T| = (q^r - 1)/(q - 1) for every grid-ish tower
    for p, s, m, ell in [(2, 1, 3, 1), (2, 2, 2, 1), (3, 1, 2, 1)]:
        for r in range(m + 1):
            tw = Tower(TowerParams(p, s, m, ell, r))
            q = tw.params.q
            assert len(tw.index_set_T(tw.default_subspace())) == (q**r - 1) // (q - 1)


def test_subspace_closure_rejections(t64):
    with pytest.raises(NotASubspaceError):
        t64.subspace_from_exponents([0, 0])  # dependent
    with pytest.raises(NotASubspaceError):
        t64.subspace_from_coeff_rows([[0, 0]])  # zero vector
    with pytest.raises(NotASubspaceError):
        subspace_from_elements(t64.mid, t64.base, [0, 1, 2])  # not q-power size
    with pytest.raises(NotASubspaceError):
        subspace_from_elements(t64.mid, t64.base, [0, 1, 2, 3, 4, 5, 6, 8])


def test_dual_subspace_properties():
    for p, s, m, ell in [(2, 1, 2, 1), (3, 1, 2, 1), (2, 1, 3, 1), (2, 2, 2, 1)]:
        for r in range(m + 1):
            tw = Tower(TowerParams(p, s, m, ell, r))
            R = tw.default_subspace()
            Rp = dual_subspace(R)
            q = tw.params.q
            assert len(Rp.elements) == q ** (m - r)
            assert Rp.dim == m - r
            assert np.array_equal(dual_subspace(Rp).elements, R.elements)  # double dual
            Tp = tw.index_set_T(Rp) if True else None
            assert len(Tp) == (q ** (m - r) - 1) // (q - 1)
    # R = {0}: dual is everything
    t0 = Tower(TowerParams(2, 1, 2, 1, 0))
    assert dual_subspace(t0.default_subspace()).elements.tolist() == [0, 1, 2, 3]


def all_subspaces(mid, base):
    """Every GF(q)-subspace of the middle field, rank by rank: a subspace of
    rank k + 1 is one of rank k plus a vector outside it."""
    levels = [[subspace_from_basis(mid, base, [])]]
    for _ in range(mid.n // base.n):
        found = {}
        for R in levels[-1]:
            for x in np.setdiff1d(np.arange(1, mid.size), R.elements).tolist():
                S = subspace_from_basis(mid, base, list(R.basis) + [x])
                found.setdefault(tuple(S.elements.tolist()), S)
        levels.append(list(found.values()))
    return levels


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p, s, m", [(2, 1, 4), (3, 1, 2), (2, 2, 2), (3, 1, 3)])
def test_dual_subspace_is_the_trace_annihilator(p, s, m):
    """R-perp = {y : Tr(x y) = 0 for every x in R}, with the absolute trace
    the sum of the conjugates z^(p^i) by polynomial powers, for every
    subspace of every rank of GF(q^m) over GF(q)."""
    mid, base = build_field(p, s * m), build_field(p, s)
    q = base.size
    trace = [
        mid.pack(np.sum([mid.digits(poly_pow(mid, z, p**i)) for i in range(mid.n)], axis=0))
        for z in range(mid.size)
    ]
    zero_pairing = np.array(
        [[trace[poly_mul(mid, x, y)] == 0 for y in range(mid.size)] for x in range(mid.size)]
    )
    levels = all_subspaces(mid, base)
    assert [len(level) for level in levels] == [gaussian_binomial(m, k, q) for k in range(m + 1)]
    for level in levels:
        for R in level:
            Rp = dual_subspace(R)
            want = np.flatnonzero(zero_pairing[R.elements].all(axis=0))
            assert np.array_equal(Rp.elements, want), (p, s, m, R.basis)
            assert Rp.dim == m - R.dim
            assert np.array_equal(subspace_from_basis(mid, base, Rp.basis).elements, want)


def test_norm_dlogs_match_polynomial_norms(grid):
    """Norm(pi^i) = (pi^i)^((|K| - 1) / (|mid| - 1)) by polynomial powers,
    pulled back by inverting the embedding and read as a power of the middle
    field's generator, for every exponent of both fields of every grid tower."""
    for p, s, m, ell in GRID_G1:
        tw = grid.tower(p, s, m, ell, 1)
        mid = tw.mid
        mid_log = {poly_pow(mid, mid.primitive_packed, j): j for j in range(mid.order)}
        for big, emb, table in zip((tw.f1, tw.f2), (tw.emb_mid1, tw.emb_mid2), tw.norm_dlogs):
            preimage = {y: x for x, y in enumerate(emb.forward.tolist())}
            t = big.order // mid.order
            powers = (poly_pow(big, big.primitive_packed, i) for i in range(big.order))
            want = [mid_log[preimage[poly_pow(big, x, t)]] for x in powers]
            assert table.tolist() == want, (p, s, m, ell, big)


def test_compatible_primitives_postconditions():
    """alpha = K1's generator and beta = K2's generator^beta_adjust, with
    norms and orders by polynomial arithmetic."""
    for p, s, m, ell in [(2, 1, 2, 1), (2, 1, 3, 1), (3, 1, 2, 1), (2, 2, 2, 1), (2, 1, 2, 2)]:
        tw = Tower(TowerParams(p, s, m, ell, 1))
        comp = tw.compatible
        f1, f2, mid = tw.f1, tw.f2, tw.mid
        assert math.gcd(comp.beta_adjust, f2.order) == 1
        beta = poly_pow(f2, f2.primitive_packed, comp.beta_adjust)
        # beta generates: beta^(order / t) != 1 for every prime t | order
        assert all(poly_pow(f2, beta, f2.order // t) != 1 for t in prime_factors(f2.order))
        # both norms pull back to the same middle-field element gamma
        na = poly_pow(f1, f1.primitive_packed, f1.order // mid.order)
        nb = poly_pow(f2, beta, f2.order // mid.order)
        assert tw.emb_mid1.forward.tolist().index(na) == comp.gamma
        assert tw.emb_mid2.forward.tolist().index(nb) == comp.gamma
        assert poly_pow(mid, mid.primitive_packed, comp.gamma_exp) == comp.gamma
    # when the norm of the field generator already lands on gamma, no
    # adjustment happens and beta is the generator itself
    tw = Tower(TowerParams(2, 1, 2, 1, 1))
    assert tw.compatible.beta_adjust == 1


@pytest.mark.parametrize(
    "tp", [(2, 1, 2, 1, 1), (3, 1, 2, 1, 1), (2, 2, 2, 1, 1), (2, 1, 3, 1, 1), (2, 1, 1, 1, 1)]
)
def test_multiplier_orbits_are_the_ratio_classes(tp):
    """The orbit the two generators of H sweep out from each representative
    is exactly its class: the e + 2 orbits are the two axes and the norm
    ratio classes, and they partition the v - 1 nonzero indices."""
    tw = Tower(TowerParams(*tp))
    table, e = tw.orbit_table, tw.params.e
    labels = table[1:]
    reps = tw.orbit_representatives
    assert len(reps) == e + 2 and not reps.flags.writeable
    assert tw.orbit_table is table and not table.flags.writeable
    assert table[0] == e + 2
    assert np.array_equal(table[reps], np.arange(e + 2))
    for label, rep in enumerate(reps.tolist()):
        orbit = np.array([rep])
        while True:
            images = [tw.indexer.multiply(orbit, a, b) for a, b in tw.multiplier_generators]
            grown = np.unique(np.concatenate([orbit, *images]))
            if len(grown) == len(orbit):
                break
            orbit = grown
        assert np.array_equal(orbit, np.flatnonzero(labels == label) + 1), (tp, label)


@pytest.mark.parametrize(
    "tp", [(p, s, m, ell, 1) for p, s, m, ell in GRID_G1] + [(2, 1, 2, 4, 1), (7, 1, 2, 1, 1)]
)
def test_the_multiplier_group_fixes_every_orbit_label(tp):
    """Both generators of H map every index into its own class of
    ``orbit_table``, and the classes have the ``orbit_sizes``.  H acts
    freely on K1* x K2* and transitively on each axis, so each class is
    exactly one orbit."""
    tw = Tower(TowerParams(*tp))
    table, g = tw.orbit_table, np.arange(tw.params.v)
    for a, b in tw.multiplier_generators:
        assert np.array_equal(table[tw.indexer.multiply(g, a, b)], table), (tp, a, b)
    assert np.array_equal(np.bincount(table[1:]), tw.orbit_sizes)


# every grid tower and both large towers (r = 1; the maps below do not depend on r)
GATHER_TOWERS = [(p, s, m, ell, 1) for p, s, m, ell in GRID_G1] + [(2, 1, 2, 4, 1), (7, 1, 2, 1, 1)]


@pytest.mark.parametrize("tp", GATHER_TOWERS)
def test_index_maps_are_the_per_element_field_arithmetic(tp):
    """The gathers from per-field tables equal the literal arithmetic they
    replace, on every index of G: ``GroupIndexer.multiply`` by both
    generators of H is ``FiniteField.mul`` by alpha^a and beta^b coordinate
    by coordinate, ``from_dlog_pairs`` inverts ``dlog_pairs``, and ``neg``
    is the digit-wise negation."""
    tw = Tower(TowerParams(*tp))
    ix, f1, f2 = tw.indexer, tw.f1, tw.f2
    g = np.arange(ix.v, dtype=np.int64)
    x, y = g % ix.sz1, g // ix.sz1
    for a, b in tw.multiplier_generators:
        want = f1.mul(x, f1.antilog[a % f1.order]) + ix.sz1 * f2.mul(y, f2.antilog[b % f2.order])
        assert np.array_equal(ix.multiply(g, a, b), want), (tp, a, b)
    assert np.array_equal(ix.from_dlog_pairs(ix.dlog_pairs(g)), g)
    assert np.array_equal(ix.neg(g), digitwise(0, g, -1, ix.p, ix.n))


def test_member_is_the_read_only_indicator(grid):
    for tower, pds, _, _ in grid.instances():
        member = pds.member
        assert pds.member is member and not member.flags.writeable
        assert len(member) == tower.params.v
        assert np.array_equal(np.flatnonzero(member), pds.elements)


def test_tower_owns_one_indexer_and_the_encoding(grid):
    """One indexer and one set of tables per tower; split and join invert
    each other on every index, and split reads the two coordinates off the
    base-p digit string (first coordinate least significant)."""
    for tp in [(2, 1, 2, 1, 1), (3, 1, 2, 1, 1)]:
        tower = grid.tower(*tp)
        ix = tower.indexer
        assert tower.indexer is ix
        assert tower.compatible is tower.compatible
        assert tower.norm_dlogs is tower.norm_dlogs
        assert ix.char_index_table is ix.char_index_table
        assert not ix.char_index_table.flags.writeable
        g = np.arange(ix.v, dtype=np.int64)
        a, b = ix.split(g)
        assert np.array_equal(ix.join(a, b), g)
        digits, weights = digit_table(ix.p, ix.n)
        d1 = tower.f1.n
        assert np.array_equal(a, digits[:, :d1] @ weights[:d1])
        assert np.array_equal(b, digits[:, d1:] @ weights[: ix.n - d1])
        aa, bb = np.meshgrid(np.arange(ix.sz1), np.arange(ix.sz2), indexing="ij")
        back = ix.split(ix.join(aa.ravel(), bb.ravel()))
        assert np.array_equal(back[0], aa.ravel()) and np.array_equal(back[1], bb.ravel())
        # names that reach set files, JSON and stderr stay Python ints
        R = tower.default_subspace()
        assert all(type(x) is int for x in R.basis + tower.index_set_T(R))
        assert all(type(x) is int for row in tower.build_D(R).subspace_rows for x in row)
        assert all(type(getattr(tower.compatible, f)) is int for f in CompatiblePrimitives.__slots__)
        R = subspace_from_basis(tower.mid, tower.base, tower.mid.antilog[:1])  # numpy input
        assert type(R.basis[0]) is int
        assert json.loads(tower.build_D(R).to_json(tower))["subspace_rows"] == R.basis_coeff_rows()


def test_build_sizes_and_invariants(t64, t729):
    D = t64.build_D()
    assert D.k == 18 and D.claimed == P.SrgParams(64, 18, 2, 6)
    assert (-1, -1) not in pair_set(t64, D)
    D3 = t729.build_D()
    assert D3.k == 168
    assert t729.is_symmetric(D3)
    assert not t729.is_symmetric(PdsSet(D3.params, "primal", [1, 2, 6], D3.claimed))  # -6 is 3
    # no element of the primal set has first coordinate zero
    assert not any(a == -1 for a, _ in pair_set(t64, D))
    # r = 0 boundary
    t0 = Tower(TowerParams(2, 1, 2, 1, 0))
    D0 = t0.build_D()
    assert pair_set(t0, D0) == frozenset((i, -1) for i in range(3))


def test_two_constructions_agree_spot(t64, t729):
    for tw in (t64, t729):
        R = tw.default_subspace()
        assert np.array_equal(tw.build_D(R).elements, tw.build_D_cosets(R).elements)


@pytest.mark.parametrize("ell, r", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_middle_field_gf2(ell, r):
    """q^m = 2: the middle field's multiplicative group is trivial, every
    norm is 1, and both families still build and certify."""
    tw = Tower(TowerParams(2, 1, 1, ell, r))
    assert tw.compatible.gamma == 1 and not any(t.any() for t in tw.norm_dlogs)
    R = tw.default_subspace()
    assert np.array_equal(tw.build_D(R).elements, tw.build_D_cosets(R).elements)
    for pds in (tw.build_D(R), tw.build_D_dual(R)):
        assert verify_pds(pds, tw, R).ok


@pytest.mark.parametrize("tp", [(2, 1, 2, 4, 1), (7, 1, 2, 1, 1)])
def test_two_constructions_agree_on_the_large_towers(tp):
    tw = Tower(TowerParams(*tp))
    R = tw.default_subspace()
    assert np.array_equal(tw.build_D(R).elements, tw.build_D_cosets(R).elements)


def test_build_independent_of_basis_choice(t729):
    R1 = t729.default_subspace()  # span{1}
    R2 = t729.subspace_from_coeff_rows([[2, 0]])  # span{2}: same GF(3)-line
    assert np.array_equal(R1.elements, R2.elements)
    assert np.array_equal(t729.build_D(R1).elements, t729.build_D(R2).elements)
    # a genuinely different subspace gives a different set of the same size
    t512 = Tower(TowerParams(2, 1, 3, 1, 2))
    Ra = t512.default_subspace()
    Rb = t512.subspace_from_exponents([1, 2])
    assert not np.array_equal(Ra.elements, Rb.elements)
    Da, Db = t512.build_D(Ra), t512.build_D(Rb)
    assert Da.k == Db.k and not np.array_equal(Da.elements, Db.elements)


def test_rank_mismatch_rejected(t64):
    R_full = t64.subspace_from_exponents([0, 1])
    with pytest.raises(NotASubspaceError):
        t64.build_D(R_full)  # tower has r=1 but the subspace has rank 2


def test_dual_set_and_boundaries(t64):
    Dd = t64.build_D_dual()
    assert Dd.k == 45 and Dd.claimed == P.SrgParams(64, 45, 32, 30)
    assert not any(b == -1 for _, b in pair_set(t64, Dd))
    # r = m: the dual is everything with nonzero second coordinate
    tm = Tower(TowerParams(2, 1, 2, 1, 2))
    Dm = tm.build_D_dual()
    assert pair_set(tm, Dm) == frozenset(
        (i, j) for i in range(-1, 3) for j in range(15)
    )
    # and equals the complement of the r=0 primal set
    t0 = Tower(TowerParams(2, 1, 2, 1, 0))
    assert np.array_equal(Dm.elements, tm.complement(t0.build_D()).elements)


def test_complement_involution(t64):
    D = t64.build_D()
    C = t64.complement(D)
    assert C.k == 64 - 18 - 1
    assert np.array_equal(t64.complement(C).elements, D.elements)
    assert C.claimed == P.SrgParams(64, 45, 32, 30)


def test_pds_json_roundtrip(t64):
    D = t64.build_D()
    doc = json.loads(D.to_json(t64))
    tower2, D2 = pds_from_json_dict(doc)
    assert np.array_equal(D2.elements, D.elements)
    assert D2.claimed == D.claimed
    assert tower2.params == t64.params
    # tampered field model is rejected
    doc_bad = json.loads(D.to_json(t64))
    doc_bad["fields"]["right"]["modulus"] = [1, 1, 0, 0, 1]
    with pytest.raises(FieldMismatchError):
        pds_from_json_dict(doc_bad)


def test_coset_class_sizes(t729):
    """Each coset product block contributes |C1| * |C2| pairs."""
    tp = t729.params
    q, e = tp.q, tp.e
    size1 = (q ** (tp.m * tp.ell) - 1) // e
    size2 = (q ** (tp.m * (tp.ell + 1)) - 1) // e
    assert size1 == (q - 1) * (q ** (tp.m * tp.ell) - 1) // (q**tp.m - 1)
    assert size2 == (q - 1) * (q ** (tp.m * (tp.ell + 1)) - 1) // (q**tp.m - 1)
    D = t729.build_D_cosets()
    T = t729.index_set_T(t729.default_subspace())
    nonaxis = sum(1 for a, b in pair_set(t729, D) if b != -1)
    assert nonaxis == e * len(T) * size1 * size2


def test_set_file_boundary_on_grid(grid):
    """Every grid set, its complement and its Delsarte dual: the set file
    reads back to the same index array and re-serialises byte for byte;
    elements are sorted, unique, nonzero and read-only; the file lists the
    dlog pairs in lexicographic order."""
    for tower, pds, R, family in grid.instances():
        dual = delsarte_dual(pds, grid.indexer(tower), grid.spectrum(pds, tower))
        for one in (pds, tower.complement(pds), dual):
            text = one.to_json(tower)
            doc = json.loads(text)
            _, back = pds_from_json_dict(doc)
            assert np.array_equal(back.elements, one.elements), (tower.params, one.provenance)
            assert back.to_json(tower) == text
            assert doc["elements"] == sorted(doc["elements"])
            e = one.elements
            assert e.dtype == np.int64 and (np.diff(e) > 0).all() and e[0] > 0
            assert not e.flags.writeable
            with pytest.raises(ValueError):
                e[0] = 0


def test_set_normalizes_its_elements(t729):
    """Any integer sequence becomes a sorted unique array; duplicates
    collapse and indices outside the group are refused."""
    D = t729.build_D()
    again = PdsSet(D.params, D.provenance, list(D.elements[::-1]) + [int(D.elements[0])], D.claimed)
    assert np.array_equal(again.elements, D.elements)
    with pytest.raises(ValueError):
        PdsSet(D.params, D.provenance, [729], D.claimed)
    ix = GroupIndexer(t729)
    assert np.array_equal(ix.from_dlog_pairs(ix.dlog_pairs(D.elements)), D.elements)


def test_set_normalization_matches_np_unique(t729):
    """Sort and adjacent-duplicate mask: the same array as np.unique, also
    for a shuffled index array with repeats."""
    D = t729.build_D()
    rng = np.random.default_rng(7)
    raw = rng.choice(D.elements, size=3 * D.k)
    again = PdsSet(D.params, D.provenance, raw, D.claimed)
    assert np.array_equal(again.elements, np.unique(raw))
    assert again.elements.dtype == np.int64 and not again.elements.flags.writeable
    assert PdsSet(D.params, D.provenance, [], D.claimed).k == 0
    with pytest.raises(ValueError):
        PdsSet(D.params, D.provenance, [-1, 5], D.claimed)


@pytest.mark.parametrize("outside", [[-1], [5, -1], [729], [5, 729], [-729]])
def test_set_refuses_indices_outside_the_group(t729, outside):
    """-1 would mark index v - 1 and -729 index 0, so the range is checked
    before any element is marked."""
    D = t729.build_D()
    with pytest.raises(ValueError, match="^set elements must be group indices below 729$"):
        PdsSet(D.params, D.provenance, outside, D.claimed)


def test_records_keep_value_or_identity_equality_and_stay_read_only(t64):
    """Parameter records are equal and hashed by value, a row matrix is
    equal by its rows and unhashable, sets and subspaces are equal only to
    themselves; no field of a read-only record can be assigned, and the
    mutable check records get a fresh default list or dict each.  A record
    takes each field once, in order or by name, and ``as_dict`` lists its
    fields in order."""
    D, R, c = t64.build_D(), t64.default_subspace(), t64.compatible
    values = [
        (TowerParams(2, 1, 2, 1, 1), TowerParams(2, 1, 2, 1, 1), TowerParams(2, 1, 2, 1, 0)),
        (P.SrgParams(64, 18, 2, 6), P.SrgParams(64, 18, 2, 6), P.SrgParams(64, 45, 32, 30)),
        (P.classify_type(D.claimed), P.Classification("negative-latin", 8, 2), P.Classification("neither")),
        (c, CompatiblePrimitives(c.beta_adjust, c.gamma_exp, c.gamma), CompatiblePrimitives(-1, -1, -1)),
        (Caps(), Caps(), Caps(profile=8)),
        (RowStrings(R.elements), RowStrings(R.elements), RowStrings(D.elements)),
    ]
    for a, same, other in values[:-1]:
        assert a == same and hash(a) == hash(same) and a != other, a
    rows, same_rows, _ = values[-1]
    assert rows == same_rows and not isinstance(rows, tuple)
    assert rows == RowStrings(R.elements.copy())
    assert rows != RowStrings(R.elements + 1) and rows != RowStrings(R.elements[None, :])
    with pytest.raises(TypeError):
        hash(rows)
    again = PdsSet(D.params, D.provenance, D.elements, D.claimed, D.subspace_rows)
    assert D == D and D != again and R != subspace_from_basis(R.mid, R.base, list(R.basis))
    ctx = CodingContext(t64)
    S = to_projective_set(D, ctx)
    derived = [character_spectrum(D, t64.indexer), orbit_spectrum(D, t64), S, build_code(S, ctx)]
    assert [s.route for s in derived[:2]] == ["transform", "orbit"]
    for record in [v[0] for v in values] + [D, R] + derived:
        for name in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
    assert P.SrgParams(v=64, k=18, lam=2, mu=6) == P.SrgParams(64, 18, mu=6, lam=2) == values[1][0]
    assert CompatiblePrimitives(beta_adjust=c.beta_adjust, gamma_exp=c.gamma_exp, gamma=c.gamma) == c
    fields = "SrgParams takes one value for each of its fields v, k, lam, mu"
    for args, named in [((64, 18, 2), {}), ((64, 18, 2, 6, 0), {}), ((64, 18, 2), {"v": 64}),
                        ((64, 18, 2), {"nu": 6}), ((64, 18, 2, 6), {"mu": 6})]:
        with pytest.raises(TypeError, match=fields):
            P.SrgParams(*args, **named)
    with pytest.raises(TypeError):
        Caps(prof=8)
    tower = TowerParams(2, 1, 2, 1, 1).as_dict()
    assert list(tower.items()) == [("p", 2), ("s", 1), ("m", 2), ("ell", 1), ("r", 1)]
    assert list(Caps().as_dict().items()) == [("profile", 1 << 16), ("spectrum", 1 << 20), ("neighbor", 1 << 12)]
    assert repr(D.claimed) == "SrgParams(v=64, k=18, lam=2, mu=6)"
    items = [CheckItem("a", True), CheckItem("b", True)]
    assert items[0].details is not items[1].details and items[0].witnesses is not items[1].witnesses
    reports = [SrgCheckReport(), SrgCheckReport()]
    assert reports[0].items is not reports[1].items and reports[0].meta is not reports[1].meta
    items[0].passed = False
    reports[0].add(items[0])
    assert reports[0].verdict == "FAIL" and reports[1].items == []
