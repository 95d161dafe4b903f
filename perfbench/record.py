"""Record a baseline: every end-to-end metric of every workload over several
seeds 1..RUNS at the run_seconds of BENCHMARK.json, with its spread, plus one
traced per-layer breakdown per workload.

    python3 perfbench/record.py --runs 10 --out perfbench/results/BENCH_<sha>.json

Prints one table row per workload and metric, with the unit, the median, the
quartiles and the spread (third minus first quartile, as a share of the
median) against a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit("run.py %s seed %d trace %d exited %d:\n%s"
                         % (workload, seed, trace, proc.returncode, proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("stamp", "tally", "commands"):
            out[tag] = json.loads(rest)
    return out


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {"run_seconds": seconds, "workloads": {}}
    print("%-8s %-16s %-6s %14s %14s %14s %8s %8s" % ("workload", "metric", "unit", "median", "q1", "q3",
                                                      "spread", "bound/3"))
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = range(1, 1 + args.runs)
        runs = [dict(run_once(workload, seed, seconds, 0), seed=seed) for seed in seeds]
        record["stamp"] = runs[0]["stamp"]
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = dict(summarize(values), unit=runs[0]["metrics"][name]["unit"],
                                 bound=bounds[name], values=values)
            s = summary[name]
            print("%-8s %-16s %-6s %14.6f %14.6f %14.6f %8.4f %8.4f%s"
                  % (workload, name, s["unit"], s["median"], s["q1"], s["q3"], s["spread"],
                     s["bound"] / 3, "" if s["spread"] < s["bound"] / 3 else "  WIDE"))
        for cmd in runs[0]["commands"]:
            s = summarize([r["commands"][cmd]["untraced_s"] for r in runs])
            summary["cli.%s_s" % cmd] = dict(s, unit="s", values=[r["commands"][cmd]["untraced_s"] for r in runs])
            print("%-8s %-16s %-6s %14.6f %14.6f %14.6f %8.4f %8s" % (
                workload, "cli.%s_s" % cmd, "s", s["median"], s["q1"], s["q3"], s["spread"], "-"))
        tallies = {key: sum(r["tally"][key] for r in runs) for key in runs[0]["tally"]}
        print("%-8s %s; correct in %d of %d runs" % (workload, ", ".join("%s %d" % kv for kv in tallies.items()),
                                                    sum(r["correct"] for r in runs), len(runs)))
        entry = {"summary": summary, "tally": tallies,
                 "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed", "tally")} for r in runs]}
        traced = run_once(workload, 1, seconds, 1)
        entry["trace"] = {k: traced[k] for k in ("correct", "failed", "tally", "commands")}
        entry["trace"]["metrics"] = {n: m["value"] for n, m in traced["metrics"].items()}
        for cmd, t in traced["commands"].items():
            print("%-8s traced %-9s untraced %10.4f s  spans %10.4f s" % (workload, cmd, t["untraced_s"], t["spans_s"]))
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
