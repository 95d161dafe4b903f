"""The benchmark's self-test as a tier-1 check.

``perfbench/selftest.py`` runs the benchmark on the small tower 2,1,2,1,1:
its traced path makes, from the benchmark's own code, every library call a
benchmark run makes (``GroupIndexer``, ``difference_profile``,
``eigen_check``, ``weight_enumerator``, ``hyperplane_profile`` and the
rest) and compares each result with the CLI's output.  A change that renames
or re-signs one of those names fails here instead of breaking the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert res.stdout.splitlines()[-1] == "selftest: ok"
