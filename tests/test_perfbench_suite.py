"""The benchmark's own tests pass against this tree.

Importing perfbench's `spans` looks up every attribute named in its
`TARGETS`, so a package change that removes a name the benchmark wraps
fails here, and not first in a benchmark run.  perfbench/tests runs in a
subprocess: its conftest puts `src` and `perfbench` on sys.path, and
collected in one pytest run with this directory its `from conftest import`
lines would find this directory's conftest instead.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
