"""The benchmark's own suite, run as part of this one.

perfbench/ wraps program functions and methods by name, and pins how many
spatial indexes one pass builds. Running its tests here makes dropping a
hooked name, or changing that count, a failure of this suite too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
