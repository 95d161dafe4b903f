"""Acceptance suite.

One test per criterion, exact integer equality throughout (no tolerances
anywhere: every oracle is exhaustive and arithmetic is unbounded).  The
terminal summary prints one PASS/FAIL line per criterion.
"""

import random
import subprocess
import sys

import numpy as np

from denpds import coding as C
from denpds import params as P
from denpds import verify as V
from denpds.construct import dual_subspace

from conftest import GRID_G1, digit_table, pair_set, with_pairs

CLI = [sys.executable, "-m", "denpds.cli"]


def _cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def test_criterion_01_grid_certification(grid):
    """Both families pass the exact difference-count check with the
    closed-form parameters on every grid tower and every 0 <= r <= m."""
    checked = 0
    for tower, pds, R, family in grid.instances():
        profile = grid.profile(pds, tower)
        item = V.check_pds(pds, grid.indexer(tower), profile)
        assert item.passed, (tower.params, family, item.details)
        expected = (
            tower.params.primal_params()
            if family == "primal"
            else tower.params.dual_params()
        )
        assert pds.claimed == expected
        assert pds.k == expected.k
        checked += 1
    assert checked == 2 * sum(m + 1 for _, _, m, _ in GRID_G1)


def test_criterion_02_two_construction_agreement(grid):
    """Norm-ratio and coset-union builds produce identical element sets."""
    for p, s, m, ell in GRID_G1:
        for r in range(m + 1):
            tower = grid.tower(p, s, m, ell, r)
            pds, R = grid.pds(p, s, m, ell, r, "primal")
            assert np.array_equal(tower.build_D_cosets(R).elements, pds.elements), tower.params


def test_criterion_03_character_spectrum(grid):
    """Exact nonprincipal spectrum, multiplicities, and the per-character
    case split on every primal grid instance."""
    for p, s, m, ell in GRID_G1:
        for r in range(m + 1):
            tower = grid.tower(p, s, m, ell, r)
            pds, R = grid.pds(p, s, m, ell, r, "primal")
            spec = grid.spectrum(pds, tower)
            assert spec.all_rational()
            pos, neg = tower.params.spectrum_values()
            kplus = P.delsarte_dual_params(tower.params.primal_params()).k
            v = tower.params.v
            want = {val: mult for val, mult in ((pos, kplus), (neg, v - 1 - kplus)) if mult}
            assert spec.nonprincipal_value_counts() == want, tower.params
            item = V.check_case_split(pds, tower, grid.indexer(tower), spec, R)
            assert item.passed, (tower.params, item.witnesses)


def test_criterion_04_triple_route_dual(grid):
    """delsarte_dual(build_D) = build_D_dual = complement of the primal
    build at (m - r, R-perp), as element sets."""
    for p, s, m, ell in GRID_G1:
        for r in range(m + 1):
            tower = grid.tower(p, s, m, ell, r)
            primal, R = grid.pds(p, s, m, ell, r, "primal")
            dual, _ = grid.pds(p, s, m, ell, r, "dual")
            spec = grid.spectrum(primal, tower)
            route1 = V.delsarte_dual(primal, grid.indexer(tower), spec)
            assert np.array_equal(route1.elements, dual.elements), tower.params
            tower_mr = grid.tower(p, s, m, ell, m - r)
            route3 = tower_mr.complement(tower_mr.build_D(dual_subspace(R)))
            assert np.array_equal(route3.elements, dual.elements), tower.params
            assert route1.claimed == dual.claimed == route3.claimed


def test_criterion_05_spot_values(grid):
    """The (2,1,2,1,1) instance: parameters, spectrum, dual, classification."""
    tower = grid.tower(2, 1, 2, 1, 1)
    pds, R = grid.pds(2, 1, 2, 1, 1, "primal")
    assert pds.claimed == P.SrgParams(64, 18, 2, 6)
    assert pds.k == 18
    spec = grid.spectrum(pds, tower)
    assert set(spec.nonprincipal_value_counts()) == {2, -6}
    dual, _ = grid.pds(2, 1, 2, 1, 1, "dual")
    assert dual.claimed == P.SrgParams(64, 45, 32, 30)
    cls = P.classify_type(pds.claimed)
    assert (cls.kind, cls.n, cls.r) == ("negative-latin", 8, 2)


def test_criterion_06_coding_dictionary(grid):
    """For every grid instance with q^dim <= 2^16 and both families: the
    weight enumerator and hyperplane profile match the closed forms, the
    n - w = h pairing holds, and the dictionary reproduces (v,k,lam,mu)."""
    for tower, pds, R, family in grid.instances():
        tp = tower.params
        if tp.q**tp.dim_q > 1 << 16:
            continue
        ctx = C.CodingContext(tower)
        S = C.to_projective_set(pds, ctx)
        exp_pts = P.projective_params(tp.q, tp.m, tp.ell, tp.r, family)
        exp_code = P.code_params(tp.q, tp.m, tp.ell, tp.r, family)
        assert S.n == exp_pts[0], (tp, family)
        profile = C.hyperplane_profile(S, ctx)
        assert C.check_two_intersection(profile, exp_pts).passed, (tp, family, profile)
        gm = C.build_code(S, ctx)
        if 1 <= tp.r <= tp.m and family == "primal":
            assert gm.rank == tp.dim_q
        enum = C.weight_enumerator(gm, ctx)
        kernel = tp.q ** (gm.dim - gm.rank)
        assert C.check_two_weight(enum, exp_code, kernel).passed, (tp, family, enum)
        assert C.check_pairing(profile, enum, exp_pts, exp_code, tp.q).passed
        assert C.check_dictionary(
            V.expected_params(pds), S.n, exp_code[2], exp_code[3], tp.q, tp.dim_q
        ).passed


def test_criterion_07_clique_certificates(grid):
    """Designated cliques verify and the emptiness bound holds everywhere."""
    for tower, pds, R, family in grid.instances():
        item = V.clique_certificate(pds, tower)
        assert item.passed, (tower.params, family)
        want = tower.f1.size if family == "primal" else tower.f2.size
        assert item.details["clique_size"] == want


def _edge_count_and_structure(tower, pds, indexer, check_structure):
    """Count undirected edges per generator; verify block predicates."""
    v, p = indexer.v, indexer.p
    sz1 = indexer.sz1
    digits, weights = digit_table(p, indexer.n)
    idx = pds.elements
    total = 0
    for d in idx:
        w = ((digits + digits[d]) % p) @ weights
        u = np.arange(v, dtype=np.int64)
        keep = u < w
        total += int(keep.sum())
        if check_structure is not None:
            uu, ww = u[keep], w[keep]
            if check_structure == "same-right":
                assert (uu // sz1 == ww // sz1).all()
            elif check_structure == "cross-left":
                assert (uu % sz1 != ww % sz1).all()
            elif check_structure == "same-left":
                assert (uu % sz1 == ww % sz1).all()
            elif check_structure == "cross-right":
                assert (uu // sz1 != ww // sz1).all()
    return total


def test_criterion_08_degenerate_boundaries(grid):
    """r = 0 and r = m verify as set families and the exported graphs are
    the clique union / complete multipartite structures, by edge count and
    (for the smaller towers) by literal block predicates."""
    for p, s, m, ell in GRID_G1:
        for r in (0, m):
            tower = grid.tower(p, s, m, ell, r)
            indexer = grid.indexer(tower)
            sz1, sz2 = tower.f1.size, tower.f2.size
            small = tower.params.v <= 1024
            for family in ("primal", "dual"):
                pds, _ = grid.pds(p, s, m, ell, r, family)
                assert V.check_pds(pds, indexer, grid.profile(pds, tower)).passed
                if family == "primal":
                    structure = ("same-right" if r == 0 else "cross-left")
                    want = (
                        sz2 * (sz1 * (sz1 - 1) // 2)
                        if r == 0
                        else (sz1 * (sz1 - 1) // 2) * sz2 * sz2
                    )
                else:
                    structure = ("same-left" if r == 0 else "cross-right")
                    want = (
                        sz1 * (sz2 * (sz2 - 1) // 2)
                        if r == 0
                        else (sz2 * (sz2 - 1) // 2) * sz1 * sz1
                    )
                got = _edge_count_and_structure(
                    tower, pds, indexer, structure if small else None
                )
                assert got == want == tower.params.v * pds.k // 2, (
                    tower.params,
                    family,
                )
                if small:
                    edges = V.cayley_edges(pds, indexer)
                    assert len(edges) == want


def test_criterion_09_determinism(tmp_path):
    """Re-running commands, and parallel on vs off, is byte-identical."""
    tower_args = ["-p", "2", "-m", "2", "-l", "1", "-r", "1"]
    for cmd, extra in (
        (["params"], []),
        (["construct"], []),
        (["verify"], []),
        (["code"], []),
        (["geometry"], []),
        (["export-graph"], []),
    ):
        a = _cli(*cmd, *tower_args, *extra)
        b = _cli(*cmd, *tower_args, *extra)
        assert a.returncode == b.returncode == 0, (cmd, a.stderr)
        assert a.stdout == b.stdout, cmd
    for cmd in (["verify"], ["code"], ["geometry"]):
        seq = _cli(*cmd, *tower_args, "--parallel", "0")
        par = _cli(*cmd, *tower_args, "--parallel", "4")
        assert seq.stdout == par.stdout, cmd


def test_criterion_10_mutation_sensitivity(grid):
    """Twenty seeded single-element swaps of the passing (64,18,2,6) set
    each trip at least one oracle."""
    tower = grid.tower(2, 1, 2, 1, 1)
    pds, R = grid.pds(2, 1, 2, 1, 1, "primal")
    rng = random.Random(0xD5)
    universe = {
        (i, j)
        for i in range(-1, tower.f1.order)
        for j in range(-1, tower.f2.order)
    } - {(-1, -1)}
    pairs = pair_set(tower, pds)
    for trial in range(20):
        gone = rng.choice(sorted(pairs))
        added = rng.choice(sorted(universe - pairs))
        mutated = with_pairs(tower, pds, pairs - {gone} | {added})
        report = V.verify_pds(mutated, tower, R)
        assert not report.ok, (trial, gone, added)
