"""Self-test of the benchmark on the small tower 2,1,2,1,1; takes seconds.

    python3 perfbench/selftest.py

It runs the untraced and the traced path of run.py and checks that each
emits every metric BENCHMARK.json names, with its unit, and no failure.  It
then corrupts real command outputs one at a time and checks that the oracle
counts each as a failed command, and that a cap exit counts as refused only
above the command's default cap.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run

CORRUPTIONS = {
    "code": ("one weight-enumerator count off by one",
             lambda doc: doc["weight_enumerator"].update(
                 {w: c + 1 for w, c in list(doc["weight_enumerator"].items())[-1:]})),
    "verify": ("a check that failed",
               lambda doc: doc["checks"][0].update(status="fail")),
    "geometry": ("an intersection size off by one",
                 lambda doc: doc.update(hyperplane_profile={
                     str(int(h) + 1): c for h, c in doc["hyperplane_profile"].items()})),
    "dual": ("one element dropped",
             lambda doc: doc["elements"].pop()),
}


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "selftest", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
        assert result["correct"] and result["failed"] == 0 and result["attempted"] % 10 == 0, result
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, "trace %d: emitted %s, BENCHMARK.json names %s" % (trace, got, want)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        print("trace %d: %d metrics with units, %d commands, none failed"
              % (trace, len(got), result["attempted"]))


def check_oracle() -> None:
    from oracle import judge

    jobs = {job.name: job for job in run.WORKLOADS["selftest"]}
    work = run.ROOT / ".bench_build" / "perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rec = run.run_child("certify", "selftest", 1, work, time.monotonic() + 120)
        clean = judge(rec["commands"], jobs)
        assert clean.failed == 0 and clean.ops == 10, clean
        for cmd, (what, corrupt) in CORRUPTIONS.items():
            target = next(r for r in rec["commands"] if r["command"] == cmd)
            path = Path(target["output"])
            original = path.read_text()
            doc = json.loads(original)
            corrupt(doc)
            path.write_text(json.dumps(doc))
            tally = judge(rec["commands"], jobs)
            path.write_text(original)
            assert tally.failed == 1, "%s not flagged: %s" % (what, tally)
            print("oracle flags %s output with %s: %s" % (cmd, what, tally.problems[0][:120]))
        cap_exit = {"exit": 3, "stderr": "resource cap exceeded: test\n"}
        below = [dict(r, **cap_exit) for r in rec["commands"] if r["command"] in ("code", "geometry")]
        tally = judge(below, jobs)
        assert (tally.refused, tally.failed) == (0, len(below)), tally
        print("oracle counts a cap exit below the default cap as failed: %s" % tally.problems[0][:80])
        large = run.WORKLOADS["large"][0]
        above = [dict(r, job=large.name, **cap_exit) for r in below[:2]]
        tally = judge(above, {large.name: large})
        assert (tally.refused, tally.failed) == (2, 0), tally
        print("oracle counts a cap exit above the default cap (%s) as refused" % large.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    run.import_package()
    check_metrics()
    check_oracle()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
