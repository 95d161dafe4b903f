"""Workloads of the certification benchmark.

A job is one tower (p, s, m, ell, r) and one set family.  For every job the
benchmark runs the five commands a user runs to certify a set, in this
order: ``construct -o SET``, then ``verify``, ``dual``, ``code`` and
``geometry`` with ``--set SET``.

Why each workload exists (numbers from the seed commit on a shared 2-core
Xeon VM, Python 3.11.7, numpy 2.4.6):

* ``grid``: the acceptance grid the README documents and tier-1 runs, every
  r and both families: 32 jobs, 160 commands, about 25 s.  Many short
  certifications, so per-command fixed costs (set-file round trip,
  ``CodingContext``, argparse, JSON) are paid 160 times.  The common-neighbour
  sweep on the six v = 4096 jobs takes most of the time.
* ``dense``: two dual-family towers at v = 2^12 with k close to v.  The
  O(k^2) difference profile and the O(q^dim n) hyperplane profile and weight
  enumerator dominate; this is where a transform-based oracle must show.
* ``large``: v = 2^18 and v = 7^6 (odd p), both above the profile and
  enumeration caps.  ``verify`` takes its spectrum-only route, ``code`` and
  ``geometry`` exit 3 after the projective collapse, and per-element Python
  (set JSON, Delsarte dual) dominates.  About 10 s a pass, 140 MB peak.

Towers left out: ``2,1,4,2,2`` (v = 2^20) takes 24 to 45 s a pass with a
530 MB peak; in two sets of ten seeds its certify time spread by 13 % and
21 % of the median, and the median moved by 30 % between the sets, more
than any bound allows.  From the seed commit's ladder,
``2,1,3,2,2`` takes 246 s with a 5.3 GB peak, ``3,1,2,2,1`` takes 163 s
with a 4.5 GB peak and ``2,1,2,3,2`` spends about 90 s in the literal
sweeps: too long or too heavy for 22 runs on a shared 2-core, 7 GB machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

COMMANDS = ("construct", "verify", "dual", "code", "geometry")
FAMILIES = ("primal", "dual")

# (p, s, m, ell) of the acceptance grid
GRID_TOWERS = ((2, 1, 2, 1), (2, 1, 3, 1), (2, 1, 2, 2), (3, 1, 2, 1), (2, 2, 2, 1))


@dataclass(frozen=True)
class Job:
    p: int
    s: int
    m: int
    ell: int
    r: int
    family: str

    @property
    def tower(self) -> tuple[int, int, int, int, int]:
        return (self.p, self.s, self.m, self.ell, self.r)

    @property
    def name(self) -> str:
        return "%d,%d,%d,%d,%d-%s" % (*self.tower, self.family)

    @property
    def v(self) -> int:
        return self.p ** (self.s * self.m * (2 * self.ell + 1))


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "grid": tuple(
        Job(p, s, m, ell, r, fam)
        for (p, s, m, ell) in GRID_TOWERS
        for r in range(m + 1)
        for fam in FAMILIES
    ),
    "dense": (Job(2, 1, 4, 1, 3, "dual"), Job(2, 1, 4, 1, 2, "dual")),
    "large": (Job(2, 1, 2, 4, 1, "primal"), Job(7, 1, 2, 1, 1, "primal")),
    # the self-test's workload; not listed in BENCHMARK.json
    "selftest": (Job(2, 1, 2, 1, 1, "primal"), Job(2, 1, 2, 1, 1, "dual")),
}


def subspace_exps(tower, job: Job, seed: int) -> list[int] | None:
    """The seed's choice of R: r generator exponents spanning an r-dimensional
    subspace of the middle field.  None (the default subspace) when r is 0 or
    m, where R is forced."""
    from denpds.errors import NotASubspaceError

    if job.r in (0, job.m):
        return None
    rng = random.Random("%d/%s" % (seed, job.name))
    for _ in range(1000):
        exps = sorted(rng.sample(range(tower.mid.order), job.r))
        try:
            tower.subspace_from_exponents(exps)
        except NotASubspaceError:
            continue
        return exps
    raise RuntimeError("no independent exponents found for %s" % job.name)


def command_argvs(job: Job, exps: list[int] | None, set_path: str, out_path) -> list[list[str]]:
    """The five command lines of one job; ``out_path(command)`` names the
    output file of each ``--set`` command."""
    construct = ["construct", "-p", str(job.p), "-s", str(job.s), "-m", str(job.m),
                 "-l", str(job.ell), "-r", str(job.r), "--family", job.family]
    if exps:
        construct += ["--subspace-exps", ",".join(map(str, exps))]
    argvs = [construct + ["-o", set_path]]
    argvs += [[cmd, "--set", set_path, "-o", out_path(cmd)] for cmd in COMMANDS[1:]]
    return argvs
