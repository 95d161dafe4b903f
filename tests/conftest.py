"""Shared fixtures: cached towers, constructed sets and spectra.

Construction is deterministic, so everything can be memoized for the whole
session; the acceptance module reuses these caches heavily.
"""

from __future__ import annotations

import numpy as np
import pytest

from denpds import verify as vf
from denpds.construct import PdsSet, Tower, TowerParams

# towers used by the certification grid: (p, s, m, ell)
GRID_G1 = [
    (2, 1, 2, 1),
    (2, 1, 3, 1),
    (2, 1, 2, 2),
    (3, 1, 2, 1),
    (2, 2, 2, 1),
]


def pair_set(tower: Tower, pds: PdsSet) -> frozenset:
    """The set's elements as (dlog1, dlog2) pairs, converted as set files are."""
    pairs = vf.GroupIndexer(tower).dlog_pairs(pds.elements)
    return frozenset(map(tuple, pairs.tolist()))


def with_pairs(tower: Tower, pds: PdsSet, pairs) -> PdsSet:
    """pds with its elements replaced by the given (dlog1, dlog2) pairs."""
    arr = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    idx = vf.GroupIndexer(tower).from_dlog_pairs(arr)
    return PdsSet(pds.params, pds.provenance, idx, pds.claimed, pds.subspace_rows)


def exchange_bits_0_and_2(g: np.ndarray) -> np.ndarray:
    """Group indices of 2,1,2,1,1 with index bits 0 and 2 exchanged: an
    additive automorphism that swaps a digit of K1 and one of K2.  It maps
    the (64,18,2,6) set to a PDS with the same parameters that the
    multiplier group moves, so ``verify_pds`` fails it on
    multiplier-invariance."""
    flip = (g ^ (g >> 2)) & 1
    return g ^ (flip | flip << 2)


def assert_same_text(got: str, want: str, *context) -> None:
    """got == want, asserted on a bool so that pytest builds no diff of two
    long documents: a failure names the first differing offset and shows
    about 80 characters of each side from just before it."""
    same = got == want
    if same:
        return
    lo, hi = 0, min(len(got), len(want))
    while lo < hi:  # the longest common prefix, by bisection in C-speed slices
        mid = (lo + hi + 1) // 2
        if got[:mid] == want[:mid]:
            lo = mid
        else:
            hi = mid - 1
    start = max(lo - 20, 0)
    assert same, "%sfirst difference at offset %d (lengths %d, %d): got %r, want %r" % (
        "%s: " % (context,) if context else "", lo, len(got), len(want),
        got[start : start + 80], want[start : start + 80],
    )


def transform_items(pds: PdsSet, tower: Tower, R) -> dict:
    """The items of the transform route, by name: the check functions on
    ``character_spectrum`` and on the profile derived from it."""
    spectrum = vf.character_spectrum(pds, tower.indexer)
    exp = vf.expected_params(pds)
    return {
        "pds-differences": vf.check_pds(pds, tower.indexer, vf.transform_profile(spectrum)),
        "two-valued-spectrum": vf.check_two_valued(spectrum, exp),
        "case-split": vf.check_case_split(pds, tower, tower.indexer, spectrum, R),
        "eigenvalues": vf.eigen_check(exp, spectrum),
    }


def digit_table(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Base-p digits of every index below p^n, first digit least
    significant, and the weights p^i that pack them back."""
    vals = np.arange(p**n, dtype=np.int64)
    weights = p ** np.arange(n, dtype=np.int64)
    return (vals[:, None] // weights) % p, weights


def poly_mul(f, x: int, y: int) -> int:
    """x y in the field f by schoolbook multiplication of the two digit
    strings as polynomials over GF(p), then long division by the monic
    modulus: the reference the field tables are tested against."""
    p, n = f.p, f.n
    a = [x // p**i % p for i in range(n)]
    b = [y // p**i % p for i in range(n)]
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for top in range(2 * n - 2, n - 1, -1):
        c = prod[top] % p
        for i, fi in enumerate(f.modulus):
            prod[top - n + i] -= c * fi
    return sum(prod[i] % p * p**i for i in range(n))


def poly_pow(f, x: int, e: int) -> int:
    """x^e in the field f by square and multiply with ``poly_mul``."""
    result = 1
    while e:
        if e & 1:
            result = poly_mul(f, result, x)
        x = poly_mul(f, x, x)
        e >>= 1
    return result


class GridCache:
    def __init__(self):
        self._towers: dict = {}
        self._sets: dict = {}
        self._indexers: dict = {}
        self._spectra: dict = {}
        self._profiles: dict = {}

    def tower(self, p, s, m, ell, r) -> Tower:
        key = (p, s, m, ell, r)
        if key not in self._towers:
            self._towers[key] = Tower(TowerParams(p, s, m, ell, r))
        return self._towers[key]

    def indexer(self, tower: Tower) -> vf.GroupIndexer:
        key = tower.params
        if key not in self._indexers:
            self._indexers[key] = vf.GroupIndexer(tower)
        return self._indexers[key]

    def pds(self, p, s, m, ell, r, family="primal"):
        key = (p, s, m, ell, r, family)
        if key not in self._sets:
            tower = self.tower(p, s, m, ell, r)
            R = tower.default_subspace()
            build = tower.build_D if family == "primal" else tower.build_D_dual
            self._sets[key] = (build(R), R)
        return self._sets[key]

    def spectrum(self, pds, tower):
        key = (tower.params, pds.provenance)
        if key not in self._spectra:
            self._spectra[key] = vf.character_spectrum(pds, self.indexer(tower))
        return self._spectra[key]

    def profile(self, pds, tower):
        key = (tower.params, pds.provenance)
        if key not in self._profiles:
            self._profiles[key] = vf.difference_profile(pds, self.indexer(tower))
        return self._profiles[key]

    def instances(self):
        """Every (tower, R, family) of the certification grid."""
        for p, s, m, ell in GRID_G1:
            for r in range(m + 1):
                for family in ("primal", "dual"):
                    tower = self.tower(p, s, m, ell, r)
                    pds, R = self.pds(p, s, m, ell, r, family)
                    yield tower, pds, R, family


@pytest.fixture(scope="session")
def grid() -> GridCache:
    return GridCache()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if rep.when != "call" or "test_acceptance" not in rep.nodeid:
                continue
            name = rep.nodeid.split("::")[-1]
            if name.startswith("test_criterion_"):
                rows.append((name[len("test_criterion_") :], outcome))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for label, outcome in sorted(rows):
            pretty = label.replace("_", " ")
            terminalreporter.write_line(
                "CRITERION %s: %s" % (pretty, "PASS" if outcome == "passed" else "FAIL")
            )
