"""Exact verification oracles for candidate sets.

Nothing here trusts the construction: expected parameters are recomputed
from the closed forms, membership is re-tested, and every count is an
exact integer.  No floating point is used anywhere.

Character sums have two routes, and both give one ``Spectrum``: one sum
per class of characters, with the class sizes, read by every spectral
check, the Delsarte dual and ``denpds.coding`` through the same methods
(``principal``, ``all_rational``, ``nonprincipal_values``,
``nonprincipal_sum``; by group element, ``by_element`` and ``support``):

* ``character_spectrum``, the transform route: all v sums by the
  dimension-wise transform of ``denpds.transform``, one class per
  character.  For p = 2 every sum is an integer, computed as one; for odd
  p the transform keeps, for every character, the counts of each p-th root
  of unity, and a sum is a rational integer exactly when all nonzero root
  powers occur equally often.
* ``orbit_spectrum``, the orbit route: for a set that the multiplier group
  H (``Tower.multiplier_generators``) fixes, the spectrum is constant on
  the e + 2 H-orbits, the classes, so one literal sum per orbit, in O(k),
  gives all of it.  For odd p each element's exponent is two gathers from
  tables over the two fields (``_orbit_sums``).  The CLI reads it for a
  set H fixes and the transform's for a set H moves (``spectrum_of``).

A difference profile is an int64 array of v counts, with two routes:
``transform_profile`` derives it from the transform's spectrum, and
``difference_profile`` counts it literally, with the kernel of the
common-neighbour count: c(g) = #{d in D : d - g in D} for every g.
``srg_common_neighbors`` is the literal sweep of all v - 1
common-neighbour targets, for v up to its cap.

``verify_pds`` takes one route per set.  The multiplier group H fixes
every set of both families, and ``check_multiplier_invariance`` tests
hD = D for both generators.  When it holds, the set is certified from its
e + 2 orbits alone: one literal count per orbit representative gives the
whole difference profile and the common-neighbour count for all v - 1
targets, and the spectral checks read the e + 2 orbit sums, spread over
the group by one gather from ``Tower.orbit_table`` (``Tower.by_orbit``).
A set that H moves has already failed that check: its profile and
spectrum come from the transform, and its common-neighbour count is
skipped.  Literal counts read ``PdsSet.member``.  No check samples, and
every sweep runs serially, one chunk at a time (``ff.chunks``).
"""

from __future__ import annotations

import json

import numpy as np

from . import params as pm, transform as tf
from .construct import DELSARTE_TAG, GroupIndexer, PdsSet, Subspace, Tower, dual_subspace
from .errors import (
    CapExceededError,
    DeltaNotSquareError,
    DenpdsError,
    InternalError,
    SpectrumNotTwoValuedError,
)
from .ff import chunks
from .jsonout import dumps

DEFAULT_PROFILE_CAP = 1 << 16
DEFAULT_SPECTRUM_CAP = 1 << 20
DEFAULT_NEIGHBOR_CAP = 1 << 12


class Caps(pm.ValueRecord):
    """The caps of ``--profile-cap``, ``--spectrum-cap`` and
    ``--neighbor-cap``; read-only, equal and hashed by value."""

    __slots__ = ("profile", "spectrum", "neighbor")

    def __init__(
        self,
        profile: int = DEFAULT_PROFILE_CAP,
        spectrum: int = DEFAULT_SPECTRUM_CAP,
        neighbor: int = DEFAULT_NEIGHBOR_CAP,
    ):
        super().__init__(profile, spectrum, neighbor)


def _common_counts(pds: PdsSet, targets: np.ndarray, indexer: GroupIndexer) -> np.ndarray:
    """c(g) = #{d in D : d - g in D} for every g in targets, counted
    literally from the membership indicator of D, one chunk of targets at a
    time."""
    idx, member = pds.elements, pds.member
    # int64 bytes per target: k indices; for odd p, n bounds the digit-wise temporaries
    per_target = len(idx) * 8 * (1 if indexer.p == 2 else indexer.n)
    counts = np.empty(len(targets), dtype=np.int64)
    for lo, hi in chunks(len(targets), per_target):
        counts[lo:hi] = member[indexer.sub(idx[None, :], targets[lo:hi, None])].sum(axis=1)
    return counts


def difference_profile(
    pds: PdsSet,
    indexer: GroupIndexer,
    cap: int = DEFAULT_PROFILE_CAP,
) -> np.ndarray:
    """The difference profile, counted literally: c(g), the number of
    ordered pairs of distinct set elements with difference g, for every
    group index g, as int64."""
    v = indexer.v
    if v > cap:
        raise CapExceededError("profile oracle: v=%d above cap %d" % (v, cap))
    counts = _common_counts(pds, np.arange(v, dtype=np.int64), indexer)
    if counts[0] != pds.k:
        raise InternalError("self-differences must account for index 0 exactly")
    counts[0] = 0
    return counts


def _require_spectrum_cap(v: int, cap: int) -> None:
    if v > cap:
        raise CapExceededError("spectrum oracle: v=%d above cap %d" % (v, cap))


class Spectrum(pm.ReadOnly):
    """Exact character sums, one per class of characters, on either route:
    ``route`` is "transform" or "orbit".

    Class i holds ``sizes[i]`` characters, each of which sums to
    ``values[i]``, a rational integer when ``rational[i]``; class ``zero``
    is the principal character alone, whose sum is k = |D|.  ``table()``
    is the class of the character that each group index labels (the trace
    pairing), a table built on first use.  On the transform route
    (``character_spectrum``) each of the v labels is a class, ``sizes`` is
    a broadcast 1, ``table()`` is ``GroupIndexer.char_index_table`` and
    ``counts`` is the transform's raw form (``denpds.transform``).  On the
    orbit route (``orbit_spectrum``) the classes are the e + 2 H-orbits,
    then the principal class, ``table()`` is ``Tower.orbit_table`` and
    ``counts`` is None.  Read-only, and equal only to itself.
    """

    __slots__ = ("values", "rational", "sizes", "k", "zero", "route", "table", "counts")

    @property
    def v(self) -> int:
        return int(self.sizes.sum())

    @property
    def principal(self) -> int:
        return int(self.values[self.zero])

    def _nonprincipal(self) -> tuple[np.ndarray, np.ndarray]:
        """The values and sizes of the rational nonprincipal classes."""
        keep = self.rational.copy()
        keep[self.zero] = False
        return self.values[keep], self.sizes[keep]

    def nonprincipal_values(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rational nonprincipal sums, and how many characters
        attain each."""
        values, sizes = self._nonprincipal()
        uniq, counts = np.unique(values, return_counts=True)
        # that counts each class once; a class of s characters adds s - 1
        more = sizes != 1
        np.add.at(counts, np.searchsorted(uniq, values[more]), sizes[more] - 1)
        return uniq, counts

    def nonprincipal_value_counts(self) -> dict[int, int]:
        """Rational nonprincipal sum -> number of characters attaining it."""
        return {int(a): int(b) for a, b in zip(*self.nonprincipal_values())}

    def nonprincipal_sum(self) -> int:
        values, sizes = self._nonprincipal()
        return int(values @ sizes)

    def all_rational(self) -> bool:
        return bool(self.rational.all())

    def by_element(self) -> np.ndarray:
        """The sum at the label of every group index, k at index 0."""
        return self.values[self.table()]

    def support(self, value: int) -> np.ndarray:
        """The nonzero group indices whose character attains value."""
        mask = self.values == value
        mask[self.zero] = False
        return np.flatnonzero(mask[self.table()])


def character_spectrum(
    pds: PdsSet,
    indexer: GroupIndexer,
    cap: int = DEFAULT_SPECTRUM_CAP,
) -> Spectrum:
    """All v character sums by the transform, one class per label."""
    v, p = indexer.v, indexer.p
    _require_spectrum_cap(v, cap)
    idx = pds.elements
    counts = tf.forward(tf.indicator(idx, v, p))
    values, rational = tf.values(counts)
    # in count form every column totals |D|, so a rational principal sum of
    # |D| leaves no count for the nonzero powers
    if values[0] != len(idx) or not rational[0]:
        raise InternalError("principal character must sum to |D|")
    sizes, table = np.broadcast_to(1, v), lambda: indexer.char_index_table
    return Spectrum(values, rational, sizes, len(idx), 0, "transform", table, counts)


def _orbit_sums(idx: np.ndarray, reps: np.ndarray, indexer: GroupIndexer) -> np.ndarray:
    """chi_g(D) = sum over d in D of zeta_p^(Tr1(g1 d1) + Tr2(g2 d2)) for each
    group element g = (g1, g2) of reps, the character of label
    ``char_index(g)``, one chunk of D at a time.  For p = 2 it is
    k - 2 #{d : popcount(l & d) odd}, l the label and the exponent the dot
    product <l, d> of the digit strings.  For odd p each trace term is read
    from a table over its field (the trace of the product by g_i), and the
    sum is counted by residue mod p: the counts must agree over the nonzero
    residues."""
    c, p = len(reps), indexer.p
    if p == 2:
        labels = indexer.char_index(reps)
        odd = np.zeros(c, dtype=np.int64)
        for lo, hi in chunks(len(idx), 8 * c):
            odd += np.count_nonzero(np.bitwise_count(labels[:, None] & idx[lo:hi]) & 1, axis=1)
        return len(idx) - 2 * odd
    a, b = indexer.split(idx)
    # row i of each table: Tr(g x) for the coordinate g of reps[i] in that field and every x
    tables = [
        np.stack([f.trace_table[f.product_table(g)] for g in part.tolist()])
        for f, part in zip((indexer.f1, indexer.f2), indexer.split(reps))
    ]
    # a sum of two traces lies in [0, 2p - 2]; rep i counts it from i (2p - 1) on
    offsets = (2 * p - 1) * np.arange(c, dtype=np.int64)[:, None]
    counts = np.zeros(c * (2 * p - 1), dtype=np.int64)
    for lo, hi in chunks(len(idx), 16 * c):
        exps = tables[0][:, a[lo:hi]]
        exps += tables[1][:, b[lo:hi]]
        exps += offsets
        counts += np.bincount(exps.ravel(), minlength=c * (2 * p - 1))
    counts = counts.reshape(c, 2 * p - 1)
    counts[:, : p - 1] += counts[:, p:]  # a sum r + p is the residue r
    if (counts[:, 2:p] != counts[:, 1:2]).any():
        raise InternalError("a set that H fixes has an irrational character sum")
    return counts[:, 0] - counts[:, 1]


def orbit_spectrum(pds: PdsSet, tower: Tower) -> Spectrum:
    """chi_l(D) at the label l = ``char_index_table[rep]`` of each H-orbit
    representative, literally in O(k) each (``_orbit_sums``), and k for the
    principal class.

    Sound only for a set that H fixes (``check_multiplier_invariance``):
    each h in H is an additive automorphism of G, self-adjoint under the
    trace form, so hD = D gives chi_hg(D) = chi_g(D).  H contains the
    diagonal GF(p)*, which permutes the nonzero powers of zeta_p, so every
    sum of such a set is rational; an irrational one is an InternalError."""
    values = np.append(_orbit_sums(pds.elements, tower.orbit_representatives, tower.indexer), pds.k)
    rational, sizes = np.ones(len(values), dtype=bool), np.append(tower.orbit_sizes, 1)
    table, zero = lambda: tower.orbit_table, len(values) - 1
    return Spectrum(values, rational, sizes, pds.k, zero, "orbit", table, None)


def spectrum_of(pds: PdsSet, tower: Tower, cap: int = DEFAULT_SPECTRUM_CAP) -> Spectrum:
    """The spectrum the CLI's dual, code and geometry read: the
    ``orbit_spectrum`` of a set the multiplier group fixes, else the
    transform's.  Refused above the cap on either route."""
    _require_spectrum_cap(tower.params.v, cap)
    if check_multiplier_invariance(pds, tower).passed:
        return orbit_spectrum(pds, tower)
    return character_spectrum(pds, tower.indexer, cap)


def transform_profile(spectrum: Spectrum) -> np.ndarray:
    """The difference profile of the set whose transform-route spectrum is
    given, by the convolution theorem: c(h) = inverse(chi * conj(chi))(h) / v,
    less the k self-differences at h = 0.  Equal to ``difference_profile``."""
    counts = tf.difference_counts(spectrum.counts, spectrum.k)
    if counts[0] != spectrum.k:
        raise InternalError("self-differences must account for index 0 exactly")
    counts[0] = 0
    return counts


class CheckItem:
    __slots__ = ("name", "passed", "skipped", "details", "witnesses")

    def __init__(
        self,
        name: str,
        passed: bool,
        skipped: str | None = None,
        details: dict | None = None,
        witnesses: list | None = None,
    ):
        self.name = name
        self.passed = passed
        self.skipped = skipped
        self.details = {} if details is None else details
        self.witnesses = [] if witnesses is None else witnesses

    @property
    def status(self) -> str:
        if self.skipped is not None:
            return "skip"
        return "pass" if self.passed else "fail"

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "details": self.details}
        if self.skipped is not None:
            out["reason"] = self.skipped
        if self.witnesses:
            out["witnesses"] = self.witnesses
        return out


def _skip(name: str, reason: str) -> CheckItem:
    return CheckItem(name, True, skipped=reason)


def expected_params(pds: PdsSet) -> pm.SrgParams:
    """Closed-form parameters for the set's provenance; the claim on the
    set itself is never used."""
    tp = pds.params
    if pds.provenance == "primal":
        return tp.primal_params()
    if pds.provenance == "dual":
        return tp.dual_params()
    if pds.provenance == "delsarte-dual":
        return pm.delsarte_dual_params(tp.primal_params())
    if pds.provenance == "complement":
        return pm.complement_params(tp.primal_params())
    if pds.provenance == "complement-dual":
        return pm.complement_params(tp.dual_params())
    raise ValueError("unknown provenance %r" % pds.provenance)


def check_pds(
    pds: PdsSet,
    indexer: GroupIndexer,
    profile: np.ndarray,
    expected: pm.SrgParams | None = None,
) -> CheckItem:
    """Exact difference-count test of a difference profile against the
    expected parameters."""
    exp = expected_params(pds) if expected is None else expected
    details: dict = {"expected": exp.as_dict()}
    witnesses: list = []
    ok = True
    if pds.claimed != exp:
        ok = False
        details["claim_mismatch"] = pds.claimed.as_dict()
    idx = pds.elements
    if len(idx) != exp.k:
        ok = False
        details["size"] = len(idx)
    member = pds.member
    c = profile
    bad_in = np.flatnonzero(member & (c != exp.lam))
    off = ~member
    off[0] = False
    bad_out = np.flatnonzero(off & (c != exp.mu))
    sym_bad = np.flatnonzero(c != c[indexer.neg(np.arange(indexer.v))])
    total = int(c.sum())
    if total != exp.k * (exp.k - 1):
        ok = False
        details["total"] = total
    for g in bad_in[:5]:
        witnesses.append({"element": indexer.dlog_pairs(g).tolist(), "count": int(c[g]), "want": exp.lam})
    for g in bad_out[:5]:
        witnesses.append({"element": indexer.dlog_pairs(g).tolist(), "count": int(c[g]), "want": exp.mu})
    if len(bad_in) or len(bad_out) or len(sym_bad):
        ok = False
        details["bad_inside"] = int(len(bad_in))
        details["bad_outside"] = int(len(bad_out))
        details["asymmetric"] = int(len(sym_bad))
    return CheckItem("pds-differences", ok, details=details, witnesses=witnesses)


def check_two_valued(
    spectrum: Spectrum,
    expected: pm.SrgParams,
) -> CheckItem:
    """Nonprincipal sums must take exactly the two predicted values with
    the predicted multiplicities."""
    theta, tau = expected.eigenvalues
    kplus = pm.delsarte_dual_params(expected).k
    details = {
        "values": [theta, tau],
        "multiplicities": {"positive": kplus, "negative": expected.v - 1 - kplus},
    }
    witnesses: list = []
    ok = True
    if not spectrum.all_rational():  # only the transform's spectrum can be irrational
        ok = False
        bad = np.flatnonzero(~spectrum.rational)[:5]
        witnesses.extend({"character": int(b), "irrational": True} for b in bad)
    got = spectrum.nonprincipal_value_counts()
    want = {theta: kplus, tau: expected.v - 1 - kplus}
    want = {a: b for a, b in want.items() if b}
    if got != want:
        ok = False
        details["observed"] = {str(a): b for a, b in sorted(got.items())}
    if spectrum.principal != expected.k:
        ok = False
        details["principal"] = spectrum.principal
    # orthogonality: nonprincipal sums add to -|D| since 0 is not in D
    if spectrum.nonprincipal_sum() != -expected.k and ok:
        ok = False
        details["orthogonality"] = "failed"
    return CheckItem("two-valued-spectrum", ok, details=details, witnesses=witnesses)


def check_case_split(
    pds: PdsSet,
    tower: Tower,
    indexer: GroupIndexer,
    spectrum: Spectrum,
    R: Subspace,
) -> CheckItem:
    """Verify which characters attain which value, character by character.

    For the primal set the character labelled (a, b) attains the negative
    value exactly when (a != 0, b = 0) or both coordinates are nonzero and
    the norm ratio falls in R-perp; dually for the dual set, with the
    positive value on (a != 0, b = 0) or ratio in R.  The principal
    character is predicted to attain k.  The prediction is one value per
    H-orbit; an orbit-route spectrum is compared class by class, and a
    spectrum is compared at every character's label (``by_element`` against
    ``Tower.by_orbit``) when that fails or on the transform route.
    """
    if pds.provenance not in ("primal", "dual", "delsarte-dual"):
        return _skip("case-split", "only defined for primal/dual provenance")
    exp = expected_params(pds)
    theta, tau = exp.eigenvalues
    if pds.provenance == "primal":
        in_space = tower.ratio_classes(dual_subspace(R))
        special_value = tau  # (a != 0, b = 0) and ratio-in-space characters
    else:
        in_space = tower.ratio_classes(R)
        special_value = theta
    other_value = theta if special_value == tau else tau
    # K1* x 0, 0 x K2*, then the ratio classes t = 0 .. e - 1
    per_orbit = np.where(np.concatenate([[True, False], in_space]), special_value, other_value)
    sizes = tower.orbit_sizes
    named = (("special", special_value), ("other", other_value))
    counts = {name: int(sizes[per_orbit == v].sum()) + int(exp.k == v) for name, v in named}
    if spectrum.route == "orbit" and np.array_equal(spectrum.values, np.append(per_orbit, exp.k)):
        return CheckItem("case-split", True, details=counts)
    values, predicted = spectrum.by_element(), tower.by_orbit(per_orbit, exp.k)
    ok = spectrum.all_rational() and bool((values == predicted).all())
    witnesses = []
    if not ok:
        bad = np.flatnonzero(values != predicted)[:5]
        for b, label in zip(bad, indexer.dlog_pairs(bad).tolist()):
            witnesses.append(
                {"character": label, "value": int(values[b]), "want": int(predicted[b])}
            )
    return CheckItem("case-split", ok, details=counts, witnesses=witnesses)


def _neighbor_item(
    pds: PdsSet,
    indexer: GroupIndexer,
    targets: np.ndarray,
    cn: np.ndarray,
) -> CheckItem:
    """The common-neighbors item from the literal counts cn at ``targets``
    (``_common_counts``), which stand for all v - 1 nonzero elements."""
    exp = expected_params(pds)
    want = np.where(pds.member[targets], exp.lam, exp.mu)
    bad = np.flatnonzero(cn != want)
    ok = len(bad) == 0 and pds.k == exp.k
    witnesses = [
        {
            "vertex": indexer.dlog_pairs(targets[b]).tolist(),
            "count": int(cn[b]),
            "want": int(want[b]),
        }
        for b in bad[:5]
    ]
    details = {"pairs_checked": indexer.v - 1, "degree": pds.k, "sampled": False}
    return CheckItem("common-neighbors", ok, details=details, witnesses=witnesses)


def srg_common_neighbors(
    pds: PdsSet,
    indexer: GroupIndexer,
    cap: int = DEFAULT_NEIGHBOR_CAP,
) -> CheckItem:
    """Common-neighbor counts of (0, g) in the Cayley graph, counted literally
    as #{d in D : d - g in D} from the membership indicator; vertex-
    transitivity makes the base vertex exhaustive.  All v - 1 targets for v
    up to the cap, skipped above it (and so for a cap of 0)."""
    v = indexer.v
    if v > cap:
        return _skip("common-neighbors", "cap")
    targets = np.arange(1, v, dtype=np.int64)
    return _neighbor_item(pds, indexer, targets, _common_counts(pds, targets, indexer))


def check_multiplier_invariance(pds: PdsSet, tower: Tower) -> CheckItem:
    """hD = D for both generators h of the multiplier group H
    (``Tower.multiplier_generators``), literally: the membership of the k
    images in D, gathered from ``PdsSet.member``.  hD inside D is hD = D,
    as h permutes G and so |hD| = |D|.  Every provenance of either family
    is H-invariant, so a set that H moves is none of them; each witness is
    the first element d with hd outside D."""
    idx = pds.elements
    gens = tower.multiplier_generators
    witnesses = []
    for a, b in gens:
        image = tower.multiply(idx, a, b)
        outside = ~pds.member[image]
        if outside.any():
            d = outside.argmax()
            pairs = tower.indexer.dlog_pairs(np.array([idx[d], image[d]])).tolist()
            witnesses.append({"element": pairs[0], "multiplier": [a, b], "image": pairs[1]})
    details = {"generators": [list(g) for g in gens]}
    return CheckItem("multiplier-invariance", not witnesses, details=details, witnesses=witnesses)


def eigen_check(expected: pm.SrgParams, spectrum: Spectrum) -> CheckItem:
    """The two observed sums must be the roots of
    x^2 + (mu - lam) x + (mu - k)."""
    obs = sorted(spectrum.nonprincipal_value_counts())
    ok = spectrum.all_rational()
    details = {"observed": obs}
    for x in obs:
        if x * x + (expected.mu - expected.lam) * x + (expected.mu - expected.k) != 0:
            ok = False
            details["not_a_root"] = x
    theta, tau = expected.eigenvalues
    if set(obs) != {theta, tau}:
        ok = False
        details["expected"] = [theta, tau]
    return CheckItem("eigenvalues", ok, details=details)


def clique_certificate(pds: PdsSet, tower: Tower) -> CheckItem:
    """Certify the designated maximum clique and the emptiness assertion
    that bounds every clique by distinct coordinates."""
    if pds.provenance not in ("primal", "dual", "delsarte-dual"):
        return _skip("clique", "only defined for primal/dual provenance")
    sz1, sz2 = tower.f1.size, tower.f2.size
    left = tower.indexer.join(np.arange(1, sz1), 0)  # (a, 0), a != 0
    right = tower.indexer.join(0, np.arange(1, sz2))  # (0, b), b != 0
    if pds.provenance == "primal":
        clique, forbidden, size = left, right, sz1
    else:
        clique, forbidden, size = right, left, sz2
    clique_ok = bool(pds.member[clique].all())
    empty_ok = not pds.member[forbidden].any()
    details = {"clique_size": size, "differences_inside": clique_ok, "bound_holds": empty_ok}
    return CheckItem("clique", clique_ok and empty_ok, details=details)


def delsarte_dual(
    pds: PdsSet,
    indexer: GroupIndexer,
    spectrum: Spectrum | None = None,
    cap: int = DEFAULT_SPECTRUM_CAP,
) -> PdsSet:
    """Collect the characters attaining the positive value and pull them
    back to group elements through the trace pairing (the spectrum's
    ``support``).  Without a spectrum the transform's is computed; on the
    orbit route the dual is the union of the orbits at the positive value."""
    exp = expected_params(pds)
    if not pm.is_perfect_square(exp.delta):
        raise DeltaNotSquareError("delta is not a perfect square")
    if spectrum is None:
        spectrum = character_spectrum(pds, indexer, cap=cap)
    if not spectrum.all_rational():
        raise SpectrumNotTwoValuedError("spectrum has irrational sums")
    vals = set(spectrum.nonprincipal_value_counts())
    theta, tau = exp.eigenvalues
    if not vals <= {theta, tau}:
        raise SpectrumNotTwoValuedError("spectrum values %s unexpected" % sorted(vals))
    elems = spectrum.support(theta)
    claimed = pm.delsarte_dual_params(exp)
    if len(elems) != claimed.k:
        raise InternalError("dual has size %d, expected %d" % (len(elems), claimed.k))
    return PdsSet(
        pds.params, DELSARTE_TAG[pds.provenance], elems, claimed, pds.subspace_rows
    )


# -- graph export --


def cayley_edge_chunks(pds: PdsSet, indexer: GroupIndexer, cap: int = DEFAULT_PROFILE_CAP):
    """Edges (u, w), u < w, in lexicographic order, as a lazy sequence of (E_i, 2)
    arrays, one chunk of u at a time; the cap, 0 not in D and D = -D are checked
    first, and a set that fails either is refused as a fault of the input."""
    v, idx = indexer.v, pds.elements
    if v > cap:
        raise CapExceededError("graph export: v=%d above cap %d" % (v, cap))
    if pds.k and idx[0] == 0:
        raise DenpdsError("the set holds the identity (-1, -1), which is no edge of a simple graph")
    neg = indexer.neg(idx)
    missing = np.flatnonzero(~pds.member[neg])
    if len(missing):
        d, minus_d = indexer.dlog_pairs(np.array([idx[missing[0]], neg[missing[0]]])).tolist()
        raise DenpdsError("the set holds (%d, %d) but not its negative (%d, %d)" % (*d, *minus_d))

    def one(rng):
        u = np.arange(*rng, dtype=np.int64)[:, None]
        w = np.sort(indexer.add(u, idx[None, :]), axis=1)
        keep = u < w
        return np.stack([np.broadcast_to(u, w.shape)[keep], w[keep]], axis=1)

    return map(one, chunks(v, len(idx) * 8))


def cayley_edges(pds: PdsSet, indexer: GroupIndexer, cap: int = DEFAULT_PROFILE_CAP) -> np.ndarray:
    """Undirected edge array (E, 2): every chunk of ``cayley_edge_chunks``."""
    return np.concatenate(list(cayley_edge_chunks(pds, indexer, cap)))


# The checks of the defining property; a run that skipped all three (for a
# cap) has certified nothing, whatever else passed.
SUBSTANTIVE_CHECKS = ("pds-differences", "two-valued-spectrum", "common-neighbors")


class SrgCheckReport:
    __slots__ = ("items", "caps", "meta")

    def __init__(
        self, items: list[CheckItem] | None = None, caps: Caps = Caps(), meta: dict | None = None
    ):
        self.items = [] if items is None else items
        self.caps = caps
        self.meta = {} if meta is None else meta

    def add(self, item: CheckItem) -> None:
        self.items.append(item)

    @property
    def ok(self) -> bool:
        """The verdict is PASS."""
        return self.verdict == "PASS"

    @property
    def verdict(self) -> str:
        """FAIL if an executed check failed, else INCONCLUSIVE if none of
        ``SUBSTANTIVE_CHECKS`` ran, else PASS."""
        if any(not it.passed for it in self.items if it.skipped is None):
            return "FAIL"
        ran = any(it.name in SUBSTANTIVE_CHECKS and it.skipped is None for it in self.items)
        return "PASS" if ran else "INCONCLUSIVE"

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "meta": self.meta,
            "caps": self.caps.as_dict(),
            "checks": [it.as_dict() for it in self.items],
        }

    def to_json(self) -> str:
        return dumps(self.as_dict())

    def to_text(self) -> str:
        width = max((len(it.name) for it in self.items), default=10) + 2
        lines = []
        for it in self.items:
            status = it.status.upper()
            extra = ""
            if it.skipped is not None:
                extra = "  (%s)" % it.skipped
            elif not it.passed and it.witnesses:
                extra = "  witness: %s" % json.dumps(it.witnesses[0], sort_keys=True)
            lines.append("%s%s%s" % (it.name.ljust(width), status, extra))
        lines.append("RESULT: %s" % self.verdict)
        return "\n".join(lines) + "\n"


def verify_pds(
    pds: PdsSet,
    tower: Tower,
    R: Subspace | None = None,
    caps: Caps = Caps(),
    threads: int = 0,
) -> SrgCheckReport:
    """Run every oracle that fits under the caps and collect a report.

    ``check_multiplier_invariance`` runs on every set, gated only by the
    table cap, and is listed only when it fails.  A set that H fixes takes
    the orbit route, and no transform runs: up to the profile cap one
    literal count c(g) per H-orbit gives both ``pds-differences`` (spread
    by ``Tower.by_orbit``) and ``common-neighbors``, and the spectral checks
    read its ``orbit_spectrum``.  This is exact: hD = D for both generators
    gives c(hg) = c(g) and chi_hg(D) = chi_g(D).  A set H moves takes the
    transform route (``character_spectrum``, ``transform_profile``), and
    its ``common-neighbors`` is skipped, since the failed invariance item
    decides the verdict.  ``common-neighbors`` is skipped for a cap when v
    is above the profile cap or the neighbor cap is 0.  ``threads`` is
    accepted and ignored, since every sweep runs serially;
    ``perfbench/child.py`` still passes it."""
    indexer = tower.indexer
    exp = expected_params(pds)
    report = SrgCheckReport(caps=caps)
    report.meta = {
        "tower": tower.params.as_dict(),
        "provenance": pds.provenance,
        "degenerate": pds.params.degenerate,
        "claimed": pds.claimed.as_dict(),
        "expected": exp.as_dict(),
        "k": pds.k,
    }
    v = tower.params.v
    invariance = check_multiplier_invariance(pds, tower)
    reps = tower.orbit_representatives
    if invariance.passed:
        if v <= caps.profile:
            counts = _common_counts(pds, reps, indexer)
            profile = tower.by_orbit(counts, 0)
        if v <= caps.spectrum:
            spectrum = orbit_spectrum(pds, tower)
    elif v <= max(caps.profile, caps.spectrum):
        spectrum = character_spectrum(pds, indexer, cap=max(caps.profile, caps.spectrum))
        if v <= caps.profile:
            profile = transform_profile(spectrum)
    if v <= caps.profile:
        report.add(check_pds(pds, indexer, profile, exp))
    else:
        report.add(_skip("pds-differences", "cap"))
    if v <= caps.spectrum:
        report.add(check_two_valued(spectrum, exp))
        if R is not None:
            report.add(check_case_split(pds, tower, indexer, spectrum, R))
        else:
            report.add(_skip("case-split", "no subspace supplied"))
        report.add(eigen_check(exp, spectrum))
    else:
        report.add(_skip("two-valued-spectrum", "cap"))
        report.add(_skip("case-split", "cap"))
        report.add(_skip("eigenvalues", "cap"))
    report.add(clique_certificate(pds, tower))
    if not invariance.passed:
        report.add(invariance)
    if v > caps.profile or caps.neighbor == 0:
        report.add(_skip("common-neighbors", "cap"))
    elif invariance.passed:
        report.add(_neighbor_item(pds, indexer, reps, counts))
    else:
        report.add(_skip("common-neighbors", "set not H-invariant"))
    return report
