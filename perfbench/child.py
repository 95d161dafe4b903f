"""One repetition of the benchmark, run in a fresh single-threaded process.

    python3 perfbench/child.py MODE WORKLOAD SEED WORKDIR

Modes:

* ``certify``: set up, then run the five commands of every job through
  ``denpds.cli.main``, untraced, each command timed on its own, in wall
  and in CPU time of the process, with ``reference()`` timed before and
  after it.  Cold
  set-ups are timed before the first command and then one per
  SETUP_EVERY_S seconds of commands, so they are spread over the whole run
  (see ``SetupSampler``).
* ``trace``: the same commands untraced, each followed by the library calls
  that command makes, made from here with a span around each call.  Then,
  per job, the memory-heavy calls once more under tracemalloc, and one
  ``verify_pds`` serial against ``threads=2``.

The last line of stdout is one JSON object.  Command outputs stay in WORKDIR
for the parent's oracle.
"""

import contextlib
import io
import json
import os
import random
import resource
import sys
import time

# Imported before any fork of SetupSampler: the dependency's import is not
# set-up work of denpds.
import numpy

from jobs import COMMANDS, WORKLOADS, command_argvs, subspace_exps

SETUP_EVERY_S = 0.5


class Tracer:
    """Span times and work counts, kept in memory: seconds per span name,
    and the running total of all spans."""

    def __init__(self):
        self.spans: dict[str, float] = {}
        self.total = 0.0
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.spans[name] = self.spans.get(name, 0.0) + dt
            self.total += dt

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def peak(self, name: str, fn) -> None:
        """tracemalloc peak of one call, in MB; a cap refusal still counts."""
        import tracemalloc

        from denpds.errors import CapExceededError

        tracemalloc.start()
        try:
            fn()
        except CapExceededError:
            pass
        finally:
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        self.peaks[name] = max(self.peaks.get(name, 0.0), top / 2**20)


def nospan(name: str):
    return contextlib.nullcontext()


def setup_towers(jobs, span) -> None:
    """Build every field, embedding and Tower the jobs use."""
    from denpds import ff
    from denpds.construct import Tower, TowerParams

    seen = set()
    for job in jobs:
        tp = TowerParams(*job.tower)
        if tp in seen:
            continue
        seen.add(tp)
        with span("ff.build_field"):
            fields = [ff.build_field(tp.p, d) for d in (tp.deg_base, tp.deg_mid, tp.deg1, tp.deg2)]
        with span("ff.embed"):
            ff.embed(fields[1], fields[2])
            ff.embed(fields[1], fields[3])
        with span("construct.Tower"):
            Tower(tp)


def plan(jobs, seed: int, work: str) -> list[tuple]:
    """(job, subspace exponents, argvs, output paths) for every job."""
    from denpds.construct import Tower, TowerParams

    out = []
    for i, job in enumerate(jobs):
        exps = subspace_exps(Tower(TowerParams(*job.tower)), job, seed)
        paths = {cmd: os.path.join(work, "%03d-%s.json" % (i, cmd)) for cmd in COMMANDS}
        argvs = command_argvs(job, exps, paths["construct"], paths.get)
        out.append((job, exps, argvs, paths))
    return out


def run_cli(main, argv: list[str]) -> tuple[float, float, int, str]:
    """One command through the public entry point: (wall seconds, CPU
    seconds of the process, exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        seconds, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    return seconds, cpu_s, code, err.getvalue()


def reference() -> None:
    """Fixed work that calls no denpds code: a dict loop over 5000 ints and
    10 numpy sorts of them, about 4 ms of CPU on a 2-core Xeon VM."""
    rng = random.Random(0)
    xs = [rng.randrange(1 << 20) for _ in range(5000)]
    acc: dict[int, int] = {}
    for x in xs:
        acc[x % 4099] = acc.get(x % 4099, 0) ^ x
    a = numpy.array(xs, dtype=numpy.int64)
    for _ in range(10):
        a = numpy.sort((a * 31 + 7) % 1048573)


def reference_s() -> float:
    """CPU seconds of one ``reference()`` in this process: how fast the host
    runs it just now.  A shared host runs a process fast or about 1.7 times
    slower by turns, for seconds at a time."""
    t0 = time.process_time()
    reference()
    return time.process_time() - t0


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupSampler:
    """Cold set-ups of one workload: importing denpds and building every
    field, embedding and ``Tower``, each in a new process and timed in its
    CPU time, like the commands.

    A server is forked before this process imports denpds; for each sample
    it forks a process that times the set-up and exits, while this process
    waits.  So a sample costs a fork, not an interpreter start, and many can
    be spread over a run."""

    def __init__(self, workload: str):
        req_r, req_w = os.pipe()
        res_r, res_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(req_w)
            os.close(res_r)
            self._serve(workload, req_r, res_w)
        os.close(req_r)
        os.close(res_w)
        self.requests = os.fdopen(req_w, "w")
        self.results = os.fdopen(res_r)

    @staticmethod
    def _serve(workload: str, req_r: int, res_w: int) -> None:
        code = 1
        try:
            with os.fdopen(req_r) as requests, os.fdopen(res_w, "w") as results:
                for _ in requests:
                    r, w = os.pipe()
                    pid = os.fork()
                    if pid == 0:
                        os.close(r)
                        try:
                            t0 = time.process_time()
                            setup_towers(WORKLOADS[workload], nospan)
                            os.write(w, repr(time.process_time() - t0).encode())
                        finally:
                            os._exit(0)
                    os.close(w)
                    with os.fdopen(r) as fh:
                        value = fh.read()
                    os.waitpid(pid, 0)
                    results.write(value + "\n")
                    results.flush()
            code = 0
        finally:
            os._exit(code)

    def sample(self) -> float:
        self.requests.write("\n")
        self.requests.flush()
        return float(self.results.readline())

    def close(self) -> None:
        self.requests.close()
        _, status = os.waitpid(self.pid, 0)
        self.results.close()
        if status:
            raise RuntimeError("set-up sampler exited with status %d" % status)


def mode_certify(workload: str, seed: int, work: str) -> dict:
    sampler = SetupSampler(workload)
    from denpds import cli

    jobs = WORKLOADS[workload]
    setup_towers(jobs, nospan)
    reference()  # its first call is slower; that one is not a gauge
    try:
        setups = [sampler.sample()]
        since = 0.0
        commands = []
        before = reference_s()
        for job, _, argvs, paths in plan(jobs, seed, work):
            for cmd, argv in zip(COMMANDS, argvs):
                seconds, cpu_s, code, err = run_cli(cli.main, argv)
                after = reference_s()
                commands.append({"job": job.name, "command": cmd, "seconds": seconds, "cpu_s": cpu_s,
                                 "reference_s": (before + after) / 2,
                                 "exit": code, "stderr": err, "output": paths[cmd]})
                before = after
                since += seconds
                while since >= SETUP_EVERY_S:
                    setups.append(sampler.sample())
                    since -= SETUP_EVERY_S
    finally:
        sampler.close()
    return {"commands": commands, "setups": setups, "peak_rss_mb": rss_mb()}


# -- traced replication: the library calls each command makes --


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _build(tower, R, family: str):
    return tower.build_D(R) if family == "primal" else tower.build_D_dual(R)


def _load(path: str, tr: Tracer):
    """What every ``--set`` command does first; json.load is the CLI's own."""
    from denpds.construct import pds_from_json_dict

    with open(path) as fh:
        doc = json.load(fh)
    with tr.span("construct.from_json"):
        tower, pds = pds_from_json_dict(doc)
    with tr.span("construct.subspace"):
        R = tower.subspace_from_coeff_rows(pds.subspace_rows)
    return tower, pds, R


def rep_construct(job, exps, paths, tr: Tracer, state: dict) -> bool:
    from denpds.construct import Tower, TowerParams

    tp = TowerParams(*job.tower)
    with tr.span("construct.Tower"):
        tower = Tower(tp)
    with tr.span("construct.subspace"):
        R = tower.subspace_from_exponents(exps) if exps else tower.default_subspace()
    with tr.span("construct.build"):
        pds = _build(tower, R, job.family)
    tr.count("construct.elements", pds.k)
    with tr.span("construct.to_json"):
        text = pds.to_json(tower)
    state.update(tower=tower, R=R, pds=pds)
    return text == _read(paths["construct"])


def rep_verify(job, exps, paths, tr: Tracer, state: dict) -> bool:
    """The steps of ``verify.verify_pds``; a step skipped for a cap is still
    spanned, so its span covers the cap decision."""
    from denpds import verify as vf

    tower, pds, R = _load(paths["construct"], tr)
    caps = vf.Caps()
    indexer = vf.GroupIndexer(tower)
    exp = vf.expected_params(pds)
    report = vf.SrgCheckReport(caps=caps)
    report.meta = {
        "tower": tower.params.as_dict(),
        "provenance": pds.provenance,
        "degenerate": pds.params.degenerate,
        "claimed": pds.claimed.as_dict(),
        "expected": exp.as_dict(),
        "k": pds.k,
    }
    v = tower.params.v
    with tr.span("verify.difference_profile"):
        profile = vf.difference_profile(pds, indexer, cap=caps.profile) if v <= caps.profile else None
    if profile is not None:
        tr.count("verify.difference_pairs", pds.k * pds.k)
        with tr.span("verify.check_pds"):
            report.add(vf.check_pds(pds, indexer, profile, exp))
    else:
        report.add(vf.CheckItem("pds-differences", True, skipped="cap"))
    with tr.span("verify.character_spectrum"):
        spectrum = vf.character_spectrum(pds, indexer, cap=caps.spectrum) if v <= caps.spectrum else None
    if spectrum is not None:
        tr.count("verify.characters", v)
        with tr.span("verify.spectrum_checks"):
            report.add(vf.check_two_valued(spectrum, exp))
        with tr.span("verify.check_case_split"):
            report.add(vf.check_case_split(pds, tower, indexer, spectrum, R))
        with tr.span("verify.spectrum_checks"):
            report.add(vf.eigen_check(exp, spectrum))
    else:
        for name in ("two-valued-spectrum", "case-split", "eigenvalues"):
            report.add(vf.CheckItem(name, True, skipped="cap"))
    with tr.span("verify.clique_certificate"):
        report.add(vf.clique_certificate(pds, tower))
    with tr.span("verify.srg_common_neighbors"):
        if v <= caps.profile:
            item = vf.srg_common_neighbors(pds, indexer, cap=caps.neighbor)
        else:
            item = vf.CheckItem("common-neighbors", True, skipped="cap")
    report.add(item)
    if item.skipped is None:
        tr.count("verify.neighbor_targets", item.details["pairs_checked"])
    return report.to_json() == _read(paths["verify"])


def rep_dual(job, exps, paths, tr: Tracer, state: dict) -> bool:
    from denpds import verify as vf

    tower, pds, _ = _load(paths["construct"], tr)
    indexer = vf.GroupIndexer(tower)
    with tr.span("verify.delsarte_dual"):
        dual = vf.delsarte_dual(pds, indexer, cap=vf.Caps().spectrum)
    with tr.span("construct.to_json"):
        text = dual.to_json(tower)
    state["dual"] = dual
    return text == _read(paths["dual"])


def _refused(tr: Tracer, name: str, fn):
    """Run one capped sweep in a span: (result, refused)."""
    from denpds.errors import CapExceededError

    try:
        with tr.span(name):
            return fn(), False
    except CapExceededError:
        return None, True


def _cli_doc(path: str) -> dict | None:
    return json.loads(_read(path)) if os.path.exists(path) else None


def rep_code(job, exps, paths, tr: Tracer, state: dict) -> bool:
    from denpds import coding as cd
    from denpds import params as pm
    from denpds import verify as vf

    tower, pds, _ = _load(paths["construct"], tr)
    tp = tower.params
    with tr.span("coding.CodingContext"):
        ctx = cd.CodingContext(tower)
    with tr.span("coding.to_projective_set"):
        S = cd.to_projective_set(pds, ctx)
    tr.count("coding.points", S.n)
    with tr.span("coding.build_code"):
        gm = cd.build_code(S, ctx)
    state.update(ctx=ctx, S=S, gm=gm)
    enum, refused = _refused(tr, "coding.weight_enumerator", lambda: cd.weight_enumerator(gm, ctx))
    doc = _cli_doc(paths["code"])
    if refused:
        return doc is None
    tr.count("coding.codewords", tp.q**gm.dim)
    tr.count("coding.symbols", tp.q**gm.dim * gm.n)
    expected = pm.code_params(tp.q, tp.m, tp.ell, tp.r, pds.provenance)
    checks = [
        cd.check_two_weight(enum, expected, tp.q ** (gm.dim - gm.rank)),
        cd.check_dictionary(vf.expected_params(pds), S.n, expected[2], expected[3], tp.q, tp.dim_q),
    ]
    return doc is not None and doc["weight_enumerator"] == {
        str(w): c for w, c in sorted(enum.items())
    } and doc["checks"] == [c.as_dict() for c in checks]


def rep_geometry(job, exps, paths, tr: Tracer, state: dict) -> bool:
    from denpds import coding as cd
    from denpds import params as pm

    tower, pds, _ = _load(paths["construct"], tr)
    tp = tower.params
    with tr.span("coding.CodingContext"):
        ctx = cd.CodingContext(tower)
    with tr.span("coding.to_projective_set"):
        S = cd.to_projective_set(pds, ctx)
    profile, refused = _refused(tr, "coding.hyperplane_profile", lambda: cd.hyperplane_profile(S, ctx))
    doc = _cli_doc(paths["geometry"])
    if refused:
        return doc is None
    hyperplanes = (tp.q**S.dim - 1) // (tp.q - 1)
    tr.count("coding.hyperplanes", hyperplanes)
    tr.count("coding.incidences", hyperplanes * S.n)
    check = cd.check_two_intersection(profile, pm.projective_params(tp.q, tp.m, tp.ell, tp.r, pds.provenance))
    return doc is not None and doc["hyperplane_profile"] == {
        str(h): c for h, c in sorted(profile.items())
    } and doc["checks"] == [check.as_dict()]


REPLICAS = {"construct": rep_construct, "verify": rep_verify, "dual": rep_dual,
            "code": rep_code, "geometry": rep_geometry}


def memory_pass(job, state: dict, tr: Tracer) -> None:
    """tracemalloc peaks of the memory-heavy calls, made once more; kept
    apart from the timed spans because tracemalloc slows allocation."""
    from denpds import coding as cd
    from denpds import verify as vf

    tower, R, pds, dual = state["tower"], state["R"], state["pds"], state["dual"]
    caps, v = vf.Caps(), job.v
    tr.peak("construct.build", lambda: _build(tower, R, job.family))
    tr.peak("construct.to_json", lambda: pds.to_json(tower))
    tr.peak("construct.to_json", lambda: dual.to_json(tower))
    if v <= caps.profile:
        tr.peak("verify.difference_profile", lambda: vf.difference_profile(pds, vf.GroupIndexer(tower)))
        tr.peak("verify.srg_common_neighbors", lambda: vf.srg_common_neighbors(pds, vf.GroupIndexer(tower)))
    if v <= caps.spectrum:
        tr.peak("verify.character_spectrum", lambda: vf.character_spectrum(pds, vf.GroupIndexer(tower)))
    tr.peak("coding.weight_enumerator", lambda: cd.weight_enumerator(state["gm"], state["ctx"]))
    tr.peak("coding.hyperplane_profile", lambda: cd.hyperplane_profile(state["S"], state["ctx"]))


def _set_size(job) -> int:
    from denpds.construct import TowerParams

    tp = TowerParams(*job.tower)
    return (tp.primal_params() if job.family == "primal" else tp.dual_params()).k


def threads2(job, exps) -> dict:
    """verify_pds on one job, serial and then with threads=2."""
    from denpds import verify as vf
    from denpds.construct import Tower, TowerParams

    tower = Tower(TowerParams(*job.tower))
    R = tower.subspace_from_exponents(exps) if exps else tower.default_subspace()
    pds = _build(tower, R, job.family)
    out = {"job": job.name}
    for key, threads in (("serial_s", 0), ("threads2_s", 2)):
        t0 = time.perf_counter()
        vf.verify_pds(pds, tower, R, threads=threads)
        out[key] = time.perf_counter() - t0
    return out


def mode_trace(jobs, seed: int, work: str) -> dict:
    from denpds import cli

    tr = Tracer()
    setup_towers(jobs, tr.span)
    commands, mismatches = [], []
    plans = plan(jobs, seed, work)
    for job, exps, argvs, paths in plans:
        state: dict = {}
        for cmd, argv in zip(COMMANDS, argvs):
            seconds, _, code, err = run_cli(cli.main, argv)
            first = tr.total
            if not REPLICAS[cmd](job, exps, paths, tr, state):
                mismatches.append("%s/%s" % (job.name, cmd))
            span_s = tr.total - first
            commands.append({"job": job.name, "command": cmd, "seconds": seconds, "exit": code,
                             "stderr": err, "output": paths[cmd], "span_s": span_s})
        memory_pass(job, state, tr)
    # threads2 runs on the job with the most work, largest v then largest k,
    # among those under the profile cap: above it verify has no threaded step
    from denpds.verify import DEFAULT_PROFILE_CAP

    threaded = [entry for entry in plans if entry[0].v <= DEFAULT_PROFILE_CAP]
    t2 = None
    if threaded and len(os.sched_getaffinity(0)) >= 2:
        job, exps = max(threaded, key=lambda entry: (entry[0].v, _set_size(entry[0])))[:2]
        t2 = threads2(job, exps)
    return {"commands": commands, "spans": tr.spans, "counts": tr.counts, "peaks": tr.peaks,
            "mismatches": mismatches, "threads2": t2, "peak_rss_mb": rss_mb()}


def main(argv: list[str]) -> int:
    mode, workload, seed, work = argv
    jobs = WORKLOADS[workload]
    if mode == "certify":
        out = mode_certify(workload, int(seed), work)
    elif mode == "trace":
        out = mode_trace(jobs, int(seed), work)
    else:
        raise SystemExit("unknown mode %r" % mode)
    import denpds

    out["denpds_file"] = denpds.__file__
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
