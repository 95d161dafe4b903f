"""The outputs of the benchmark's commands are pinned.

Every command of the ``grid``, ``dense`` and ``large`` workloads of
``perfbench/jobs.py`` at seed 1, and ``export-graph`` in both formats on
each grid job with v <= 512, runs in-process through ``cli.main``.  The
sha256 of each command's exit code, stdout, stderr and output file must
equal its entry in ``tests/data/outputs_seed1.json``.

    PYTHONPATH=src python tests/test_outputs.py   # rewrite the pinned hashes
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

from denpds import cli
from denpds.construct import Tower, TowerParams

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "data" / "outputs_seed1.json"
SEED = 1

_spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
jobs = sys.modules.setdefault(_spec.name, importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(jobs)


def commands():
    """(name, argv, output file) of every pinned command, in run order;
    file names are relative to the working directory."""
    for workload in ("grid", "dense", "large"):
        for i, job in enumerate(jobs.WORKLOADS[workload]):
            exps = jobs.subspace_exps(Tower(TowerParams(*job.tower)), job, SEED)
            outs = {cmd: "%s-%02d-%s.out" % (workload, i, cmd) for cmd in jobs.COMMANDS}
            argvs = jobs.command_argvs(job, exps, outs["construct"], outs.get)
            for cmd, argv in zip(jobs.COMMANDS, argvs):
                yield "%s %s %s" % (workload, job.name, cmd), argv, outs[cmd]
            if workload == "grid" and job.v <= 512:
                for fmt in ("edgelist", "dimacs"):
                    out = "%s-%02d-%s.out" % (workload, i, fmt)
                    argv = ["export-graph", "--set", outs["construct"], "--graph-format", fmt, "-o", out]
                    yield "%s %s export-graph %s" % (workload, job.name, fmt), argv, out


def run_all() -> dict[str, str]:
    """name -> sha256 of (exit code, stdout, stderr, output file) for every
    command, run in the current working directory."""
    hashes = {}
    for name, argv, out in commands():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        data = Path(out).read_bytes() if os.path.exists(out) else None
        h = hashlib.sha256(json.dumps([code, stdout.getvalue(), stderr.getvalue()]).encode())
        h.update(b"absent" if data is None else b"file:" + data)
        hashes[name] = h.hexdigest()
    return hashes


def test_benchmark_outputs_are_pinned(tmp_path, monkeypatch):
    for var in [v for v in os.environ if v.startswith("DENPDS_")]:
        monkeypatch.delenv(var)
    monkeypatch.chdir(tmp_path)
    pinned = json.loads(PINNED.read_text())
    got = run_all()
    assert list(got) == list(pinned), "the command list differs from the pinned one"
    differs = [name for name in got if got[name] != pinned[name]]
    assert not differs, "%d commands differ, the first: %s" % (len(differs), differs[0])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        doc = run_all()
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(doc, indent=1) + "\n")
    print("%d commands pinned in %s" % (len(doc), PINNED), file=sys.stderr)
