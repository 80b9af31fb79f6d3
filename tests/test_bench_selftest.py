"""The benchmark's self-test: its output checks reject corrupted outputs.

Runs ``python bench/selftest.py`` from the checkout's root, so a program
change that lets one of its corruptions through the checks (or that the
checks no longer reach) fails tier-1.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_corruption_is_rejected():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = re.findall(r"^(\d+)/(\d+) self-test cases passed$", proc.stdout, re.M)
    assert len(counts) == 1, proc.stdout
    (passed, total), = counts
    assert passed == total and int(total) > 0, proc.stdout
