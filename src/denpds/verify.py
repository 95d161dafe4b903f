"""Exact verification oracles for candidate sets.

Nothing here trusts the construction: expected parameters are recomputed
from the closed forms, membership is re-tested, and every count is an
exact integer.  Character sums are computed by the dimension-wise transform
of ``denpds.transform``: for p = 2 every sum is an integer, computed as
one; for odd p the transform keeps, for every character, the counts of
each p-th root of unity, and a sum is a rational integer exactly when all
nonzero root powers occur equally often.  No floating point is used
anywhere.

The difference profile has two routes: ``transform_profile`` derives it
from the character spectrum (the route ``verify_pds`` takes), and
``difference_profile`` counts them literally, with the kernel of the
common-neighbour count: c(g) = #{d in D : d - g in D} for every g.

The common-neighbour count is literal too, but needs only one target per
orbit of the multiplier group H (``Tower.multiplier_generators``), which
fixes every set of both families: ``check_multiplier_invariance`` tests
hD = D for both generators, and when it holds ``orbit_common_neighbors``
counts the e + 2 orbit representatives for all v - 1 targets.  A set that H
moves has already failed that check, so ``verify_pds`` skips its
common-neighbour count.  ``srg_common_neighbors`` is the literal sweep of
all v - 1 targets, for v up to its cap.  No check samples, and every sweep
runs serially, one chunk at a time (``ff.sweep``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import params as pm, transform as tf
from .construct import DELSARTE_TAG, GroupIndexer, PdsSet, Subspace, Tower, dual_subspace
from .errors import (
    CapExceededError,
    DeltaNotSquareError,
    InternalError,
    SpectrumNotTwoValuedError,
)
from .ff import sweep
from .jsonout import dumps

DEFAULT_PROFILE_CAP = 1 << 16
DEFAULT_SPECTRUM_CAP = 1 << 20
DEFAULT_NEIGHBOR_CAP = 1 << 12


@dataclass(frozen=True)
class Caps:
    profile: int = DEFAULT_PROFILE_CAP
    spectrum: int = DEFAULT_SPECTRUM_CAP
    neighbor: int = DEFAULT_NEIGHBOR_CAP

    def as_dict(self) -> dict:
        return {"profile": self.profile, "spectrum": self.spectrum, "neighbor": self.neighbor}


@dataclass
class DifferenceProfile:
    """c(g) = number of ordered pairs of distinct set elements with
    difference g, for every group index g."""

    counts: np.ndarray
    k: int
    v: int

    def total(self) -> int:
        return int(self.counts.sum())


def _membership(pds: PdsSet, v: int) -> np.ndarray:
    member = np.zeros(v, dtype=bool)
    member[pds.elements] = True
    return member


def _common_counts(pds: PdsSet, targets: np.ndarray, indexer: GroupIndexer) -> np.ndarray:
    """c(g) = #{d in D : d - g in D} for every g in targets, counted
    literally from the membership indicator of D, one chunk of targets at a
    time."""
    idx, member = pds.elements, _membership(pds, indexer.v)
    # int64 bytes per target: k indices; for odd p, n bounds the digit-wise temporaries
    per_target = len(idx) * 8 * (1 if indexer.p == 2 else indexer.n)

    def one(rng):
        gs = targets[rng[0] : rng[1]]
        return member[indexer.sub(idx[None, :], gs[:, None])].sum(axis=1)

    return np.concatenate(sweep(len(targets), per_target, one))


def difference_profile(
    pds: PdsSet,
    indexer: GroupIndexer,
    cap: int = DEFAULT_PROFILE_CAP,
) -> DifferenceProfile:
    """c(g) for every group index g, counted literally."""
    v = indexer.v
    if v > cap:
        raise CapExceededError("profile oracle: v=%d above cap %d" % (v, cap))
    k = pds.k
    counts = _common_counts(pds, np.arange(v, dtype=np.int64), indexer)
    if counts[0] != k:
        raise InternalError("self-differences must account for index 0 exactly")
    counts[0] = 0
    return DifferenceProfile(counts, k, v)


@dataclass
class CharacterSpectrum:
    """Exact character sums for all v characters, in the form of
    ``denpds.transform``.

    For p = 2 ``counts`` is the int64 vector of sums itself.  For odd p
    ``counts[j, g]`` is the number of set elements x with <g, x> = j; the
    sum is a rational integer exactly when counts over j = 1..p-1 agree,
    and then equals counts[0, g] - counts[1, g].
    """

    counts: np.ndarray
    values: np.ndarray
    rational: np.ndarray
    k: int

    @property
    def v(self) -> int:
        return self.counts.shape[-1]

    def nonprincipal_value_counts(self) -> dict[int, int]:
        vals = self.values[1:][self.rational[1:]]
        uniq, cnt = np.unique(vals, return_counts=True)
        return {int(a): int(b) for a, b in zip(uniq, cnt)}

    def all_rational(self) -> bool:
        return bool(self.rational.all())


def character_spectrum(
    pds: PdsSet,
    indexer: GroupIndexer,
    cap: int = DEFAULT_SPECTRUM_CAP,
) -> CharacterSpectrum:
    v, p = indexer.v, indexer.p
    if v > cap:
        raise CapExceededError("spectrum oracle: v=%d above cap %d" % (v, cap))
    idx = pds.elements
    counts = tf.forward(tf.indicator(idx, v, p))
    values, rational = tf.values(counts)
    # in count form every column totals |D|, so a rational principal sum of
    # |D| leaves no count for the nonzero powers
    if values[0] != len(idx) or not rational[0]:
        raise InternalError("principal character must sum to |D|")
    return CharacterSpectrum(counts, values, rational, len(idx))


def transform_profile(spectrum: CharacterSpectrum) -> DifferenceProfile:
    """The difference profile of the set whose spectrum is given, by the
    convolution theorem: c(h) = inverse(chi * conj(chi))(h) / v, less the
    k self-differences at h = 0.  Equal to ``difference_profile``."""
    counts = tf.difference_counts(spectrum.counts, spectrum.k)
    if counts[0] != spectrum.k:
        raise InternalError("self-differences must account for index 0 exactly")
    counts[0] = 0
    return DifferenceProfile(counts, spectrum.k, spectrum.v)


@dataclass
class CheckItem:
    name: str
    passed: bool
    skipped: str | None = None
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

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
    profile: DifferenceProfile,
    expected: pm.SrgParams | None = None,
) -> CheckItem:
    """Exact difference-count test plus the parameter identity."""
    exp = expected_params(pds) if expected is None else expected
    details: dict = {"expected": exp.as_dict()}
    witnesses: list = []
    ok = True
    if not exp.identity_holds():
        return CheckItem("pds-differences", False, details={"reason": "identity fails"})
    if pds.claimed != exp:
        ok = False
        details["claim_mismatch"] = pds.claimed.as_dict()
    idx = pds.elements
    if len(idx) != exp.k:
        ok = False
        details["size"] = len(idx)
    member = _membership(pds, indexer.v)
    c = profile.counts
    bad_in = np.flatnonzero(member & (c != exp.lam))
    off = ~member
    off[0] = False
    bad_out = np.flatnonzero(off & (c != exp.mu))
    sym_bad = np.flatnonzero(c != c[indexer.neg(np.arange(indexer.v))])
    if profile.total() != exp.k * (exp.k - 1):
        ok = False
        details["total"] = profile.total()
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
    spectrum: CharacterSpectrum,
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
    if not spectrum.all_rational():
        ok = False
        bad = np.flatnonzero(~spectrum.rational)[:5]
        witnesses.extend({"character": int(b), "irrational": True} for b in bad)
    got = spectrum.nonprincipal_value_counts()
    want = {theta: kplus, tau: expected.v - 1 - kplus}
    want = {a: b for a, b in want.items() if b}
    if got != want:
        ok = False
        details["observed"] = {str(a): b for a, b in sorted(got.items())}
    if int(spectrum.values[0]) != expected.k:
        ok = False
        details["principal"] = int(spectrum.values[0])
    # orthogonality: nonprincipal sums add to -|D| since 0 is not in D
    if int(spectrum.values[1:][spectrum.rational[1:]].sum()) != -expected.k and ok:
        ok = False
        details["orthogonality"] = "failed"
    return CheckItem("two-valued-spectrum", ok, details=details, witnesses=witnesses)


def check_case_split(
    pds: PdsSet,
    tower: Tower,
    indexer: GroupIndexer,
    spectrum: CharacterSpectrum,
    R: Subspace,
) -> CheckItem:
    """Verify which characters attain which value, character by character.

    For the primal set the character labelled (a, b) attains the negative
    value exactly when (a != 0, b = 0) or both coordinates are nonzero and
    the norm ratio falls in R-perp; dually for the dual set, with the
    positive value on (a != 0, b = 0) or ratio in R.
    """
    if pds.provenance not in ("primal", "dual", "delsarte-dual"):
        return _skip("case-split", "only defined for primal/dual provenance")
    exp = expected_params(pds)
    theta, tau = exp.eigenvalues
    if pds.provenance == "primal":
        in_space = tower._ratio_membership(dual_subspace(R))
        special_value = tau  # (a != 0, b = 0) and ratio-in-space characters
    else:
        in_space = tower._ratio_membership(R)
        special_value = theta
    other_value = theta if special_value == tau else tau
    # observed and predicted values, both indexed by the character's label
    values = spectrum.values[indexer.char_index_table]
    predicted = np.full(indexer.v, other_value, dtype=np.int64)
    # principal character
    predicted[0] = exp.k
    # a != 0, b = 0
    predicted[indexer.join(np.arange(1, indexer.sz1), 0)] = special_value
    # both nonzero: ratio test
    predicted[tower._ratio_indices(in_space)] = special_value
    ok = bool(spectrum.rational.all()) and bool((values == predicted).all())
    witnesses = []
    if not ok:
        bad = np.flatnonzero(values != predicted)[:5]
        for b, label in zip(bad, indexer.dlog_pairs(bad).tolist()):
            witnesses.append(
                {"character": label, "value": int(values[b]), "want": int(predicted[b])}
            )
    counts = {
        "special": int((predicted == special_value).sum()),
        "other": int((predicted == other_value).sum()),
    }
    return CheckItem("case-split", ok, details=counts, witnesses=witnesses)


def _neighbor_item(
    pds: PdsSet,
    indexer: GroupIndexer,
    targets: np.ndarray,
) -> CheckItem:
    """The common-neighbors item from literal counts at ``targets``, which
    stand for all v - 1 nonzero elements."""
    exp = expected_params(pds)
    member = _membership(pds, indexer.v)
    cn = _common_counts(pds, targets, indexer)
    want = np.where(member[targets], exp.lam, exp.mu)
    bad = np.flatnonzero(cn != want)
    ok = len(bad) == 0 and int(member.sum()) == exp.k
    witnesses = [
        {
            "vertex": indexer.dlog_pairs(targets[b]).tolist(),
            "count": int(cn[b]),
            "want": int(want[b]),
        }
        for b in bad[:5]
    ]
    details = {"pairs_checked": indexer.v - 1, "degree": int(member.sum()), "sampled": False}
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
    return _neighbor_item(pds, indexer, np.arange(1, v, dtype=np.int64))


def check_multiplier_invariance(pds: PdsSet, tower: Tower) -> CheckItem:
    """hD = D for both generators h of the multiplier group H
    (``Tower.multiplier_generators``), literally: the k images, sorted,
    against D.  Every provenance of either family is H-invariant, so a set
    that H moves is none of them; each witness is an element d with hd
    outside D."""
    idx = pds.elements
    gens = tower.multiplier_generators
    witnesses = []
    for a, b in gens:
        image = tower.multiply(idx, a, b)
        if not np.array_equal(np.sort(image), idx):
            d = np.flatnonzero(~np.isin(image, idx, assume_unique=True))[0]
            pairs = tower.indexer.dlog_pairs(np.array([idx[d], image[d]])).tolist()
            witnesses.append({"element": pairs[0], "multiplier": [a, b], "image": pairs[1]})
    details = {"generators": [list(g) for g in gens]}
    return CheckItem("multiplier-invariance", not witnesses, details=details, witnesses=witnesses)


def orbit_common_neighbors(pds: PdsSet, tower: Tower) -> CheckItem:
    """The common-neighbors item from one literal count per H-orbit
    (``Tower.orbit_representatives``), covering all v - 1 targets.  Sound
    only for a set that H fixes (``check_multiplier_invariance``): each h in
    H is an additive automorphism of G, so hD = D gives c(hg) = c(g), and
    membership in D is constant on orbits."""
    return _neighbor_item(pds, tower.indexer, tower.orbit_representatives)


def eigen_check(expected: pm.SrgParams, spectrum: CharacterSpectrum) -> CheckItem:
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
    clique_ok = bool(np.isin(clique, pds.elements).all())
    empty_ok = not np.isin(forbidden, pds.elements).any()
    details = {"clique_size": size, "differences_inside": clique_ok, "bound_holds": empty_ok}
    return CheckItem("clique", clique_ok and empty_ok, details=details)


def delsarte_dual(
    pds: PdsSet,
    indexer: GroupIndexer,
    spectrum: CharacterSpectrum | None = None,
    cap: int = DEFAULT_SPECTRUM_CAP,
) -> PdsSet:
    """Collect the characters attaining the positive value and pull them
    back to group elements through the trace pairing."""
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
    # the labels of the characters attaining theta; label 0 is the principal one
    elems = np.flatnonzero(spectrum.values[indexer.char_index_table] == theta)
    elems = elems[elems != 0]
    claimed = pm.delsarte_dual_params(exp)
    if len(elems) != claimed.k:
        raise InternalError("dual has size %d, expected %d" % (len(elems), claimed.k))
    if pds.provenance not in DELSARTE_TAG:
        raise ValueError("cannot dualize provenance %r" % pds.provenance)
    return PdsSet(
        pds.params, DELSARTE_TAG[pds.provenance], elems, claimed, pds.subspace_rows
    )


# -- graph export --


def cayley_edges(pds: PdsSet, indexer: GroupIndexer, cap: int = DEFAULT_PROFILE_CAP) -> np.ndarray:
    """Undirected edge array (E, 2), each edge once with the smaller index
    first, sorted lexicographically."""
    v = indexer.v
    if v > cap:
        raise CapExceededError("graph export: v=%d above cap %d" % (v, cap))
    idx = pds.elements

    def one(rng):
        u = np.arange(*rng, dtype=np.int64)[:, None]
        w = np.sort(indexer.add(u, idx[None, :]), axis=1)
        keep = u < w
        return np.stack([np.broadcast_to(u, w.shape)[keep], w[keep]], axis=1)

    edges = np.concatenate(sweep(v, len(idx) * 8, one))
    if 2 * len(edges) != v * len(idx):
        raise InternalError("edge count must be v k / 2")
    return edges


# The checks of the defining property; a run that skipped all three (for a
# cap) has certified nothing, whatever else passed.
SUBSTANTIVE_CHECKS = ("pds-differences", "two-valued-spectrum", "common-neighbors")


@dataclass
class SrgCheckReport:
    items: list[CheckItem] = field(default_factory=list)
    caps: Caps = field(default_factory=Caps)
    meta: dict = field(default_factory=dict)

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

    The difference profile of ``pds-differences`` comes from the character
    spectrum by the exact transform (``transform_profile``), not from the
    literal sweep of ``difference_profile``.  ``check_multiplier_invariance``
    runs on every set, gated only by the table cap, and is listed only when
    it fails.  ``common-neighbors`` is skipped for a cap when v is above the
    profile cap or the neighbor cap is 0; otherwise, when H fixes the set,
    one literal count per H-orbit covers all v - 1 targets
    (``orbit_common_neighbors``), and when H moves it, the check is skipped
    and the failed invariance item decides the verdict.  ``threads`` is
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
    # the profile is derived from the spectrum, so the spectrum is computed
    # when either cap admits v; each cap still gates only its own checks
    either = max(caps.profile, caps.spectrum)
    spectrum = character_spectrum(pds, indexer, cap=either) if v <= either else None
    if v <= caps.profile:
        report.add(check_pds(pds, indexer, transform_profile(spectrum), exp))
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
    invariance = check_multiplier_invariance(pds, tower)
    if not invariance.passed:
        report.add(invariance)
    if v > caps.profile or caps.neighbor == 0:
        report.add(_skip("common-neighbors", "cap"))
    elif invariance.passed:
        report.add(orbit_common_neighbors(pds, tower))
    else:
        report.add(_skip("common-neighbors", "set not H-invariant"))
    return report
