"""The benchmark's own checks, run by tier-1.

Runs ``python bench/selftest.py`` from the checkout's root, so a program
change that lets one of its corruptions through the checks (or that the
checks no longer reach) fails tier-1. And runs ``bench/child.py statebytes``
on the config whose bytes per state the traced ``paths`` run reports, so a
program change that the bench can no longer read, or that stores a state in
more bytes, fails here too.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_every_corruption_is_rejected():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = re.findall(r"^(\d+)/(\d+) self-test cases passed$", proc.stdout, re.M)
    assert len(counts) == 1, proc.stdout
    (passed, total), = counts
    assert passed == total and int(total) > 0, proc.stdout


def test_bytes_per_state_of_the_longest_simulate_op(tmp_path):
    # the op whose bytes per state the traced paths run measures: the
    # longest plain simulate of paths_ops(1), the seed of the CI smoke runs
    sys.path.insert(0, str(BENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(BENCH))
    simulate = [op for op in inputs.paths_ops(1) if op["subcommand"] == "simulate"]
    longest = max(simulate, key=lambda op: op["sections"]["run"]["horizon"])
    cfg = tmp_path / "longest.cfg"
    cfg.write_text(inputs.render(longest["sections"]), encoding="utf-8")
    proc = subprocess.run([sys.executable, "bench/child.py", "statebytes", str(cfg)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    per_state = json.loads(proc.stdout.strip().splitlines()[-1])["bytes_per_state"]
    # a trajectory keeps one int64 and six doubles per state (56 B)
    assert per_state <= 64, per_state
