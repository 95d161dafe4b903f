"""Certification benchmark for denpds.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src/``.  Each repetition is a fresh child
process with OMP/OPENBLAS/MKL_NUM_THREADS=1 that drives every job of the
workload through ``denpds.cli.main`` (see jobs.py for the workloads and why
each exists).  The seed chooses the subspace R of every job.

``--trace 0`` makes certification passes until ``--seconds`` is used (at
least one) and reports the end-to-end metrics: ``setup_s`` is the median of
the cold set-ups spread over the passes, every other metric the median over
passes.  ``certify_ref`` counts the commands' CPU time in units of a fixed
reference task timed between them (``child.reference``): on a shared host
the wall time also holds time the host gave to others, and the CPU time
swings with how fast the host runs the process, which the ratio cancels.
``--trace 1``
makes one traced pass and reports the per-layer metrics.  Every command
output is checked by oracle.py.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from jobs import COMMANDS, WORKLOADS  # noqa: E402

RUN_LIMIT_S = 175.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The time of each command alone is a per-layer metric (cli.<command>_s):
# on this kind of shared machine the lighter commands' totals spread by more
# than the largest bound over ten seeds.
END_TO_END = [("setup_s", "s"), ("certify_ref", "ref"), ("peak_rss_mb", "MB"), ("checks_passed", "count")]

# spans recorded by the traced child, one per library call
SPANS = [
    "ff.build_field", "ff.embed", "construct.Tower", "construct.subspace", "construct.build",
    "construct.to_json", "construct.from_json", "verify.difference_profile", "verify.check_pds",
    "verify.srg_common_neighbors", "verify.character_spectrum", "verify.spectrum_checks",
    "verify.check_case_split", "verify.clique_certificate", "verify.delsarte_dual",
    "coding.CodingContext", "coding.to_projective_set", "coding.build_code",
    "coding.weight_enumerator", "coding.hyperplane_profile",
]
COUNTS = [
    "construct.elements", "verify.difference_pairs", "verify.neighbor_targets", "verify.characters",
    "coding.points", "coding.codewords", "coding.hyperplanes",
]
# rate name -> (work count, span doing the work)
RATES = {
    "verify.difference_profile.pairs_per_s": ("verify.difference_pairs", "verify.difference_profile"),
    "verify.srg_common_neighbors.targets_per_s": ("verify.neighbor_targets", "verify.srg_common_neighbors"),
    "verify.character_spectrum.characters_per_s": ("verify.characters", "verify.character_spectrum"),
    "coding.weight_enumerator.symbols_per_s": ("coding.symbols", "coding.weight_enumerator"),
    "coding.hyperplane_profile.incidences_per_s": ("coding.incidences", "coding.hyperplane_profile"),
}
PEAKS = [
    "construct.build", "construct.to_json", "verify.difference_profile", "verify.srg_common_neighbors",
    "verify.character_spectrum", "coding.weight_enumerator", "coding.hyperplane_profile",
]
PER_LAYER = (
    [("%s_s" % s, "s") for s in SPANS]
    + [(c, "count") for c in COUNTS]
    + [(r, "1/s") for r in RATES]
    + [("%s.peak_mb" % p, "MB") for p in PEAKS]
    + [("cli.%s_s" % c, "s") for c in COMMANDS]
    + [("verify.verify_pds.threads2_speedup", "ratio"), ("cli.unattributed_s", "s"),
       ("cli.ops_refused", "count"), ("verify.checks_skipped", "count")]
)


class BenchError(Exception):
    pass


def stamp() -> dict:
    """Where and on what the numbers were measured."""
    import numpy

    sha, dirty = "unknown", None
    try:
        top, head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
    }


def import_package():
    """Import denpds from this checkout's src/, never from elsewhere."""
    if not (SRC / "denpds" / "cli.py").is_file():
        raise BenchError("no denpds package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import denpds

    if not Path(denpds.__file__).resolve().is_relative_to(SRC):
        raise BenchError("denpds imported from %s, not %s" % (denpds.__file__, SRC))
    compileall.compile_dir(str(SRC), quiet=1)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DENPDS_")}
    env.update(THREAD_ENV)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def run_child(mode: str, workload: str, seed: int, work: Path, deadline: float) -> dict:
    argv = [sys.executable, str(BENCH / "child.py"), mode, workload, str(seed), str(work)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the %s child" % mode)
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s child exited %d:\n%s" % (mode, proc.returncode, proc.stderr[-3000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["denpds_file"]).resolve().is_relative_to(SRC):
        raise BenchError("child imported denpds from %s" % out["denpds_file"])
    return out


def command_totals(commands: list[dict], key: str = "seconds") -> dict[str, float]:
    """Time of each command, summed over the jobs, and of all five."""
    totals = {"%s_s" % c: 0.0 for c in COMMANDS}
    for rec in commands:
        totals["%s_s" % rec["command"]] += rec[key]
    totals["certify_s"] = sum(totals.values())
    return totals


def clear(work: Path) -> None:
    for path in work.iterdir():
        path.unlink()


def measure(workload: str, seed: int, seconds: float, work: Path, deadline: float) -> dict:
    """End-to-end metrics, untraced."""
    from oracle import judge

    jobs = {job.name: job for job in WORKLOADS[workload]}
    setups, passes, tallies = [], [], []
    start = time.monotonic()
    while True:
        rec = run_child("certify", workload, seed, work, deadline)
        tallies.append(judge(rec["commands"], jobs))
        setups += rec["setups"]
        clear(work)
        one = {"wall_" + name: t for name, t in command_totals(rec["commands"]).items()}
        one.update(command_totals(rec["commands"], "cpu_s"), peak_rss_mb=rec["peak_rss_mb"],
                   checks_passed=tallies[-1].checks_passed)
        one["certify_ref"] = sum(c["cpu_s"] / c["reference_s"] for c in rec["commands"])
        passes.append(one)
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    medians = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update({name: medians[name] for name, _ in END_TO_END[1:]})
    print("setup_s cold set-ups (%d): %s" % (len(setups), ", ".join("%.4f" % s for s in setups)))
    print("passes: %d" % len(passes))
    print("certify_s: wall %.4f, CPU %.4f" % (medians["wall_certify_s"], medians["certify_s"]))
    print("commands %s" % json.dumps({c: {"untraced_s": medians["wall_%s_s" % c], "cpu_s": medians["%s_s" % c]}
                                      for c in COMMANDS}))
    return {"metrics": metrics, "tallies": tallies, "units": dict(END_TO_END)}


def trace(workload: str, seed: int, work: Path, deadline: float) -> dict:
    """Per-layer metrics from one traced pass."""
    from oracle import judge

    jobs = {job.name: job for job in WORKLOADS[workload]}
    rec = run_child("trace", workload, seed, work, deadline)
    tally = judge(rec["commands"], jobs)
    clear(work)
    span_s = {s: rec["spans"].get(s, 0.0) for s in SPANS}
    counts = rec["counts"]
    metrics = {"%s_s" % s: span_s[s] for s in SPANS}
    metrics.update({c: counts.get(c, 0) for c in COUNTS})
    for rate, (work_count, span) in RATES.items():
        done = counts.get(work_count, 0)
        metrics[rate] = done / span_s[span] if done else 0.0
    metrics.update({"%s.peak_mb" % p: rec["peaks"].get(p, 0.0) for p in PEAKS})
    t2 = rec["threads2"]
    metrics["verify.verify_pds.threads2_speedup"] = t2["serial_s"] / t2["threads2_s"] if t2 else 0.0
    metrics.update({"cli.%s" % name: value for name, value in command_totals(rec["commands"]).items()
                    if name != "certify_s"})
    metrics["cli.unattributed_s"] = sum(c["seconds"] - c["span_s"] for c in rec["commands"])
    metrics["cli.ops_refused"] = tally.refused
    metrics["verify.checks_skipped"] = tally.checks_skipped

    print("%-28s %-9s %4s %12s %12s" % ("job", "command", "exit", "untraced_s", "spans_s"))
    for c in rec["commands"]:
        print("%-28s %-9s %4d %12.6f %12.6f" % (c["job"], c["command"], c["exit"], c["seconds"], c["span_s"]))
    totals = {cmd: {"untraced_s": sum(c["seconds"] for c in rec["commands"] if c["command"] == cmd),
                    "spans_s": sum(c["span_s"] for c in rec["commands"] if c["command"] == cmd)}
              for cmd in COMMANDS}
    for cmd, t in totals.items():
        print("%-28s %-9s %4s %12.6f %12.6f" % ("total", cmd, "", t["untraced_s"], t["spans_s"]))
    print("commands %s" % json.dumps(totals))
    if t2:
        print("threads2 on %s: serial %.4f s, threads=2 %.4f s" % (t2["job"], t2["serial_s"], t2["threads2_s"]))
    for command in rec["mismatches"]:
        print("traced calls disagree with the CLI output: %s" % command)
    tally.failed += len(rec["mismatches"])
    return {"metrics": metrics, "tallies": [tally], "units": dict(PER_LAYER)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        import_package()
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench" / ("run-%d" % os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = trace(args.workload, args.seed, work, deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds, work, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tallies, units = result["tallies"], result["units"]
    total = {key: sum(t.as_dict()[key] for t in tallies) for key in tallies[0].as_dict()}
    print("stamp %s" % json.dumps(stamp(), sort_keys=True))
    print("tally %s" % json.dumps(total))
    for tally in tallies:
        for problem in tally.problems:
            print("FAILED %s" % problem)
    for name, value in result["metrics"].items():
        print("%-46s %18.6f %s" % (name, value, units[name]))
    failed = sum(t.failed for t in tallies)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": total["ops"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
