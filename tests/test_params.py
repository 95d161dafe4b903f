"""Closed-form calculators: frozen spot values plus identity sweeps.

The sweep range goes far beyond anything the construction caps allow; the
formulas must stay integral and mutually consistent everywhere."""

import pytest

from denpds import params as P
from denpds.errors import DeltaNotSquareError

SWEEP = [
    (q, m, ell)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for m in (1, 2, 3, 4)
    for ell in (1, 2, 3)
]


def test_primal_spot_values():
    assert P.denniston_params(2, 2, 1, 1) == P.SrgParams(64, 18, 2, 6)
    assert P.denniston_params(3, 2, 1, 1) == P.SrgParams(729, 168, 27, 42)
    assert P.denniston_params(2, 2, 1, 1).eigenvalues == (2, -6)
    assert P.denniston_params(3, 2, 1, 1).eigenvalues == (6, -21)


def test_dual_spot_values():
    assert P.dual_denniston_params(2, 2, 1, 1) == P.SrgParams(64, 45, 32, 30)
    # r = m reduces to the complement of the r = 0 degenerate family
    for q, m, ell in [(2, 2, 1), (3, 2, 1), (2, 3, 1)]:
        dual = P.dual_denniston_params(q, m, ell, m)
        comp = P.complement_params(P.denniston_params(q, m, ell, 0))
        assert dual == comp


def test_complement_spot_values_and_involution():
    sp = P.denniston_params(2, 2, 1, 1)
    assert P.complement_params(sp) == P.SrgParams(64, 45, 32, 30)
    sp3 = P.denniston_params(3, 2, 1, 1)
    comp3 = P.complement_params(sp3)
    # cross-check by eigenvalues: complement spectrum is {-1-tau, -1-theta}
    theta, tau = sp3.eigenvalues
    assert set(comp3.eigenvalues) == {-1 - tau, -1 - theta}
    assert comp3 == P.SrgParams(729, 560, 433, 420)
    for q, m, ell in SWEEP:
        for r in range(m + 1):
            sp = P.denniston_params(q, m, ell, r)
            assert P.complement_params(P.complement_params(sp)) == sp


def test_delsarte_dual_spot_values():
    sp = P.denniston_params(2, 2, 1, 1)
    assert P.delsarte_dual_params(sp) == P.SrgParams(64, 45, 32, 30)
    with pytest.raises(DeltaNotSquareError):
        P.delsarte_dual_params(P.SrgParams(5, 2, 0, 1))  # pentagon: delta = 5


def test_identity_and_square_delta_on_sweep():
    for q, m, ell in SWEEP:
        for r in range(m + 1):
            for sp in (
                P.denniston_params(q, m, ell, r),
                P.dual_denniston_params(q, m, ell, r),
            ):
                assert sp.identity_holds()
                assert P.is_perfect_square(sp.delta)


def test_three_routes_one_answer():
    for q, m, ell in SWEEP:
        for r in range(m + 1):
            primal = P.denniston_params(q, m, ell, r)
            dual = P.dual_denniston_params(q, m, ell, r)
            assert P.delsarte_dual_params(primal) == dual
            assert P.complement_params(P.denniston_params(q, m, ell, m - r)) == dual
            assert P.delsarte_dual_params(dual) == primal


def test_projective_and_code_spot_values():
    assert P.projective_params(2, 2, 1, 1) == (18, 6, 6, 10)
    assert P.code_params(2, 2, 1, 1) == (18, 6, 12, 8)
    assert P.projective_params(2, 2, 1, 1, "dual") == (45, 6, 21, 25)
    assert P.code_params(2, 2, 1, 1, "dual") == (45, 6, 24, 20)
    assert P.projective_params(3, 2, 1, 1) == (84, 6, 21, 30)
    with pytest.raises(ValueError):
        P.projective_params(2, 2, 1, 1, "other")


def test_code_cross_identities_on_sweep():
    for q, m, ell in SWEEP:
        for r in range(m + 1):
            for fam in ("primal", "dual"):
                n, dim, w1, w2 = P.code_params(q, m, ell, r, fam)
                np_, _, h1, h2 = P.projective_params(q, m, ell, r, fam)
                assert np_ == n and h1 == n - w1 and h2 == n - w2


def test_dictionary_formula_on_spot_instance():
    got = P.lemma_dictionary_params(2, 6, 18, 12, 8)
    assert got == P.SrgParams(64, 18, 2, 6)
    # mu = k^2 + k - k q (w1 + w2) + q^2 w1 w2 with the spot numbers
    assert 18 * 18 + 18 - 18 * 2 * 20 + 4 * 96 == 6
    assert 18 * 18 + 3 * 18 - 2 * 20 - 18 * 2 * 20 + 4 * 96 == 2


def test_classification():
    assert P.classify_type(P.denniston_params(2, 2, 1, 1)).describe() == (
        "negative-latin(n=8, r=2)"
    )
    assert P.classify_type(P.denniston_params(2, 3, 1, 1)).kind == "neither"
    latin = P.SrgParams(16, 6, 2, 2)  # n=4, r=2 Latin square template
    assert P.classify_type(latin).describe() == "latin(n=4, r=2)"


def test_half_rank_closed_forms_and_negative_latin():
    # k at r = m/2 for even m, both families
    for q, m, ell in [(2, 2, 1), (3, 2, 1), (2, 4, 1), (4, 2, 1), (2, 2, 2), (3, 4, 1)]:
        r = m // 2
        qm = q**m
        k = P.denniston_params(q, m, ell, r).k
        want = (q ** (m * ell) - 1) * (qm - q ** (m // 2)) * (
            q ** ((m // 2) * (2 * ell + 1)) + 1
        ) // (qm - 1)
        assert k == want
        kd = P.dual_denniston_params(q, m, ell, r).k
        want_d = (q ** (m * (ell + 1)) - 1) * (q ** (m // 2) - 1) * (
            q ** ((m // 2) * (2 * ell + 1)) + 1
        ) // (qm - 1)
        assert kd == want_d
        assert P.classify_type(P.denniston_params(q, m, ell, r)).kind == "negative-latin"
        assert P.classify_type(P.dual_denniston_params(q, m, ell, r)).kind == (
            "negative-latin"
        )


def test_ell_one_families_match_published_displays():
    # point-set size at ell=1, 1 <= r <= m-1
    for q in (2, 3, 4, 5):
        for m in (2, 3, 4):
            for r in range(1, m):
                n, _, h1, h2 = P.projective_params(q, m, 1, r)
                qm = q**m
                assert n == (qm - 1) * (q ** (m + r) - qm + q**r) // (q - 1)
                assert h1 == (q ** (m - 1) - 1) * (q ** (m + r) - qm + q**r) // (q - 1)
                assert h2 == (q ** (2 * m + r - 1) - q ** (2 * m - 1) + qm - q**r) // (
                    q - 1
                )
                _, _, w1, w2 = P.code_params(q, m, 1, r)
                assert w1 == q ** (m + r - 1) * (qm - q ** (m - r) + 1)
                assert w2 == q ** (2 * m + r - 1) - q ** (2 * m - 1)


def test_binary_ell_one_family_matches_the_arc_display():
    for m in (2, 3, 4, 5):
        for r in range(1, m):
            sp = P.denniston_params(2, m, 1, r)
            a = 2 ** (m + r) - 2**m + 2**r
            assert sp.k == a * (2**m - 1)
            assert sp.lam == 2**m - 2**r + a * (2**r - 2)
            assert sp.mu == a * (2**r - 1)


def test_spectrum_values_from_towers():
    from denpds.construct import TowerParams

    tp = TowerParams(2, 1, 2, 1, 1)
    assert tp.spectrum_values() == (2, -6)
    assert TowerParams(3, 1, 2, 1, 1).spectrum_values() == (6, -21)
    # degenerate boundaries: disjoint cliques and complete multipartite
    assert TowerParams(2, 1, 2, 1, 0).spectrum_values() == (3, -1)
    assert TowerParams(2, 1, 2, 1, 2).spectrum_values() == (0, -16)
