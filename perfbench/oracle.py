"""Output oracle: command outputs against the closed forms of denpds.params.

Outputs are judged by what they claim, never by stored bytes, so a change
that un-skips a capped check, or reformats an output, is not a failure.

* ``construct``: the set file has the family's closed-form size and claim.
* ``verify``: every check passes or is skipped for the cap.
* ``dual``: the Delsarte dual has k = ``delsarte_dual_params(...).k``.
* ``code``: the nonzero weights are ``code_params``' pair, and the whole
  weight enumerator, kernel count included, is the one the set's eigenvalue
  multiplicities force.
* ``geometry``: the intersection sizes are ``projective_params``' pair, with
  the hyperplane counts the multiplicities force.

A command that exits 3 with the CLI's cap message is refused, never dropped,
when the job is above the default cap that command applies; below it the
refusal is a failure.  A command above its cap that succeeds is judged like
any other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from denpds import params as pm
from denpds.coding import DEFAULT_ENUM_CAP
from denpds.construct import TowerParams
from denpds.ff import DEFAULT_TABLE_CAP
from denpds.verify import DEFAULT_SPECTRUM_CAP
from jobs import Job

VERIFY_CHECKS = {"pds-differences", "two-valued-spectrum", "case-split", "clique", "common-neighbors"}
DELSARTE_TAG = {"primal": "delsarte-dual", "dual": "primal"}


@dataclass
class Tally:
    ops: int = 0
    failed: int = 0
    refused: int = 0
    checks_passed: int = 0
    checks_skipped: int = 0
    problems: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"ops": self.ops, "ops_failed": self.failed, "ops_refused": self.refused,
                "checks_passed": self.checks_passed, "checks_skipped": self.checks_skipped}


def set_params(job: Job):
    q = job.p**job.s
    if job.family == "primal":
        return pm.denniston_params(q, job.m, job.ell, job.r)
    return pm.dual_denniston_params(q, job.m, job.ell, job.r)


def character_values(job: Job) -> dict[int, int]:
    """Nonprincipal character sum -> number of characters attaining it."""
    sp = set_params(job)
    theta, tau = sp.eigenvalues
    f = pm.delsarte_dual_params(sp).k
    out: dict[int, int] = {}
    for value, mult in ((theta, f), (tau, sp.v - 1 - f)):
        if mult:
            out[value] = out.get(value, 0) + mult
    return out


def expected_enumerator(job: Job) -> dict[int, int]:
    """Message u has weight n - (n + chi_u(D)) / q, the zero message weight 0."""
    q = job.p**job.s
    n = set_params(job).k // (q - 1)
    out = {0: 1}
    for value, mult in character_values(job).items():
        w = n - (n + value) // q
        out[w] = out.get(w, 0) + mult
    return out


def expected_profile(job: Job) -> dict[int, int]:
    """Each hyperplane H_u meets S in (n + chi_u(D)) / q points and is hit by
    q - 1 characters."""
    q = job.p**job.s
    n = set_params(job).k // (q - 1)
    out: dict[int, int] = {}
    for value, mult in character_values(job).items():
        h = (n + value) // q
        out[h] = out.get(h, 0) + mult // (q - 1)
    return out


def refusal_expected(job: Job, cmd: str) -> bool:
    """Whether the job is above a default cap the command applies: the field
    tables for every command, the character sums for ``dual``, the q^dim
    sweeps for ``code`` and ``geometry``."""
    tp = TowerParams(*job.tower)
    if job.p ** max(tp.deg_base, tp.deg_mid, tp.deg1, tp.deg2) > DEFAULT_TABLE_CAP:
        return True
    if cmd == "dual":
        return job.v > DEFAULT_SPECTRUM_CAP
    if cmd in ("code", "geometry"):
        q = job.p**job.s
        return q ** pm.projective_params(q, job.m, job.ell, job.r, job.family)[1] > DEFAULT_ENUM_CAP
    return False


def _check_set(doc: dict, job: Job, provenance: str, sp) -> list[str]:
    got = doc.get("claimed", {})
    elements = doc.get("elements", [])
    problems = []
    if doc.get("tower") != dict(zip(("p", "s", "m", "ell", "r"), job.tower)):
        problems.append("tower %s" % doc.get("tower"))
    if doc.get("provenance") != provenance:
        problems.append("provenance %r" % doc.get("provenance"))
    if got != sp.as_dict():
        problems.append("claimed %s, want %s" % (got, sp.as_dict()))
    if len(elements) != sp.k or len({tuple(e) for e in elements}) != sp.k:
        problems.append("%d elements, want %d distinct" % (len(elements), sp.k))
    return problems


def check_construct(doc: dict, job: Job, tally: Tally) -> list[str]:
    return _check_set(doc, job, job.family, set_params(job))


def check_dual(doc: dict, job: Job, tally: Tally) -> list[str]:
    return _check_set(doc, job, DELSARTE_TAG[job.family], pm.delsarte_dual_params(set_params(job)))


def _count_checks(items: list[dict], tally: Tally) -> list[str]:
    problems = []
    for item in items:
        status = item.get("status")
        if status == "pass":
            tally.checks_passed += 1
        elif status == "skip" and item.get("reason") == "cap":
            tally.checks_skipped += 1
        else:
            problems.append("check %s: %s %s" % (item.get("name"), status, item.get("reason", "")))
    return problems


def check_verify(doc: dict, job: Job, tally: Tally) -> list[str]:
    items = doc.get("checks", [])
    problems = _count_checks(items, tally)
    missing = VERIFY_CHECKS - {item.get("name") for item in items}
    if missing:
        problems.append("missing checks %s" % sorted(missing))
    if doc.get("meta", {}).get("expected") != set_params(job).as_dict():
        problems.append("expected params %s" % doc.get("meta", {}).get("expected"))
    if doc.get("ok") is not True:
        problems.append("ok is %r" % doc.get("ok"))
    return problems


def check_code(doc: dict, job: Job, tally: Tally) -> list[str]:
    n, dim, w1, w2 = pm.code_params(job.p**job.s, job.m, job.ell, job.r, job.family)
    enum = {int(w): c for w, c in doc.get("weight_enumerator", {}).items()}
    problems = _count_checks(doc.get("checks", []), tally)
    if (doc.get("n"), doc.get("dim")) != (n, dim):
        problems.append("[n, dim] = [%s, %s], want [%d, %d]" % (doc.get("n"), doc.get("dim"), n, dim))
    if sorted(w for w in enum if w) != sorted({w for w in (w1, w2) if w}):
        problems.append("weights %s, want %s" % (sorted(enum), [w1, w2]))
    if enum != expected_enumerator(job):
        problems.append("weight enumerator %s, want %s" % (enum, expected_enumerator(job)))
    if doc.get("ok") is not True:
        problems.append("ok is %r" % doc.get("ok"))
    return problems


def check_geometry(doc: dict, job: Job, tally: Tally) -> list[str]:
    n, dim, h1, h2 = pm.projective_params(job.p**job.s, job.m, job.ell, job.r, job.family)
    profile = {int(h): c for h, c in doc.get("hyperplane_profile", {}).items()}
    problems = _count_checks(doc.get("checks", []), tally)
    if (doc.get("n"), doc.get("dim"), len(doc.get("points", []))) != (n, dim, n):
        problems.append("n, dim, points = %s, %s, %d" % (doc.get("n"), doc.get("dim"), len(doc.get("points", []))))
    if sorted(profile) != sorted({h1, h2}):
        problems.append("intersection sizes %s, want %s" % (sorted(profile), sorted({h1, h2})))
    if profile != expected_profile(job):
        problems.append("hyperplane profile %s, want %s" % (profile, expected_profile(job)))
    if doc.get("ok") is not True:
        problems.append("ok is %r" % doc.get("ok"))
    return problems


CHECKERS = {"construct": check_construct, "verify": check_verify, "dual": check_dual,
            "code": check_code, "geometry": check_geometry}
CAP_MESSAGE = "resource cap exceeded:"


def judge(commands: list[dict], jobs: dict[str, Job]) -> Tally:
    """Tally the records of one pass: job, command, exit, stderr, output."""
    tally = Tally()
    for rec in commands:
        tally.ops += 1
        job, cmd = jobs[rec["job"]], rec["command"]
        refused = rec["exit"] == 3 and rec["stderr"].startswith(CAP_MESSAGE)
        if refused and refusal_expected(job, cmd):
            tally.refused += 1
            continue
        if refused:
            problems = ["refused below the default cap: %s" % rec["stderr"].strip()[:200]]
        elif rec["exit"] != 0:
            problems = ["exit %s: %s" % (rec["exit"], rec["stderr"].strip()[:200])]
        else:
            try:
                with open(rec["output"]) as fh:
                    doc = json.load(fh)
            except (OSError, ValueError) as exc:
                problems = ["unreadable output: %s" % exc]
            else:
                problems = CHECKERS[cmd](doc, job, tally)
        if problems:
            tally.failed += 1
            tally.problems.append("%s %s: %s" % (job.name, cmd, "; ".join(problems)))
    return tally
