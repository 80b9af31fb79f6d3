"""The CLI on the standard library alone.

Every process here runs under ``python -S``: site-packages, and numpy with
it, stay off the path, and ``PYTHONPATH`` names only this checkout's
``src``. The golden run first asserts that numpy cannot be imported there,
so the module fails, rather than passes quietly, where numpy could load.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gammafeedback.runner import SUBCOMMANDS
from test_golden import CASES, CONFIGS, GOLDEN

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _stdlib_python(args, cwd, stdin=None):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "-S", *args], env={**env, "PYTHONPATH": SRC},
                          cwd=cwd, input=stdin, capture_output=True, text=True)


# Runs the cases it reads from stdin (test_golden imports pytest, which -S
# cannot load) and prints, per case, the exit code, the SHA-256 of every
# output but the manifest, and the digests the manifest records.
GOLDEN_RUN = """
import hashlib, importlib.util, json, pathlib, sys, tempfile
assert importlib.util.find_spec("numpy") is None, "numpy is importable"
from gammafeedback.cli import main
job = json.load(sys.stdin)
results = {}
for case in job["cases"]:
    name, sub, *flags = case.split()
    with tempfile.TemporaryDirectory() as root:
        cfg, out = pathlib.Path(root, "run.cfg"), pathlib.Path(root, "out")
        cfg.write_text(job["configs"][name], encoding="utf-8")
        rc = main([sub, "--config", str(cfg), "--out", str(out), "--quiet", *flags])
        files = sorted(out.iterdir()) if out.exists() else []
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in files if f.name != "manifest.json"}
        manifest = out / "manifest.json"
        listed = ({e["path"]: e["sha256"] for e in json.loads(manifest.read_text("utf-8"))["outputs"]}
                  if manifest.exists() else {})
        results[case] = [rc, digests, listed]
print(json.dumps(results))
"""


def test_golden_svg_cases(tmp_path):
    cases = [case for case in CASES if case.endswith(" --svg")]
    assert {case.split()[1] for case in cases} == set(SUBCOMMANDS)
    proc = _stdlib_python(["-c", GOLDEN_RUN], tmp_path,
                          stdin=json.dumps({"configs": CONFIGS, "cases": cases}))
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert {case: (rc, digests) for case, (rc, digests, _) in results.items()} == {
        case: GOLDEN[case] for case in cases}
    for case, (rc, digests, listed) in results.items():
        # each file and its recorded digest come from one pass over a lazy writer
        assert bool(listed) == (rc == 0), case
        assert listed.items() <= digests.items(), case
    # both maps draw the one D = 0 curve of [grid]
    for name in ("readme", "skew"):
        for flag in ("", " --svg"):
            contours = {GOLDEN[f"{name} {sub}{flag}"][1]["stability_contour.csv"]
                        for sub in ("stability-map", "amplification-map")}
            assert len(contours) == 1, (name, flag)


# The base config of the runs below; each run edits whole lines of it.
RUN_CFG = """
[model]
lambda = 0.001
beta = 1.0
mu0 = 0.05
n0 = 100
gamma0 = 1.0

[impact]
kind = tanh

[stochastic]
seed = 7

[events]
n_spikes = 5
seed = 11

[grid]
beta_min = 0.2
beta_max = 3.0
g_min = 0
g_max = 300
n_beta = 40
n_g = 37
shock_ratio = 0.05
lambda = 0.006

[run]
horizon = 200
"""


def _edited(lines):
    text = RUN_CFG
    for old, new in lines.items():
        assert f"\n{old}\n" in text, old
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    return text.encode()


# name: (exit code, error kind, message fragment, config bytes, subcommand and flags)
FAILURES = {
    # NaN meets no bound: the error names the key
    "nan-mu0": (2, "config", "[model] mu0", _edited({"mu0 = 0.05": "mu0 = nan"}),
                ["static-response"]),
    "not-utf-8": (2, "config", "utf-8", b"\xff", ["static-response"]),
    "unknown-subcommand": (2, "config", "warp", _edited({}), ["warp"]),
    # a linear shock of -150% takes the price below 0 at step 1
    "wipeout": (3, "numerical", "at step 1",
                _edited({"mu0 = 0.05": "mu0 = -1.5", "kind = tanh": "kind = linear"}),
                ["simulate"]),
    # at lambda <= 0 D never reaches 0: the scan has no critical exposure
    "negative-grid-lambda": (2, "config", "[grid] lambda",
                             _edited({"lambda = 0.006": "lambda = -1"}), ["bifurcation-scan"]),
    # an infinite spike bound would draw inf spikes into the nu column
    "infinite-max-fraction": (2, "config", "max_fraction",
                              _edited({"n_spikes = 5": "n_spikes = 5\nmax_fraction = inf"}),
                              ["simulate-events", "--svg"]),
    # exit 0 writes only finite numbers: every G* would be 1 / 5e-324 = inf
    "tiny-grid-lambda": (2, "config", "[grid] lambda",
                         _edited({"lambda = 0.006": "lambda = 5e-324"}),
                         ["bifurcation-scan", "--svg"]),
    # at f = tanh(10), 1 - f is about 4e-9: a / (1 - f) passes the largest double
    "huge-price": (2, "config", "[model] mu0 * s0",
                   _edited({"lambda = 0.001": "lambda = 0.05", "n0 = 100": "n0 = 200",
                            "gamma0 = 1.0": "gamma0 = 1.0\ns0 = 1e308"}),
                   ["fixed-point"]),
    # D = inf would write ds and 1/D as 0.0
    "negative-infinite-lambda": (2, "config", "[model] lambda",
                                 _edited({"lambda = 0.001": "lambda = -inf"}),
                                 ["static-response"]),
}


def _cli(tmp_path, config, sub, *flags):
    path = tmp_path / "run.cfg"
    path.write_bytes(config)
    out = tmp_path / "out"
    args = ["-m", "gammafeedback", sub, "--config", str(path), *flags, "--out", str(out)]
    return _stdlib_python(args, tmp_path), out


@pytest.mark.parametrize("name", FAILURES)
def test_failing_run(name, tmp_path):
    # exits with its code, prints one JSON error line of its kind and
    # leaves no output directory behind
    code, kind, fragment, config, args = FAILURES[name]
    proc, out = _cli(tmp_path, config, *args)
    assert proc.returncode == code, proc.stderr
    assert not out.exists()
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])
    assert error["error"] == kind and fragment in error["message"], error


def test_dense_spikes(tmp_path):
    # the sampler's dense end: n_spikes = horizon moves every pool position,
    # and every step from 0 to horizon - 1 carries a spike
    config = _edited({"n_spikes = 5": "n_spikes = 200"})
    proc, out = _cli(tmp_path, config, "simulate-events", "--svg", "--quiet")
    assert proc.returncode == 0, proc.stderr
    with open(out / "trajectory.csv", encoding="utf-8") as f:
        spiked = [int(row["t"]) for row in csv.DictReader(f) if float(row["nu"]) > 0]
    assert spiked == list(range(200))


def test_downward_shock(tmp_path):
    # D sees |mu0|, ds keeps its sign
    config = _edited({"mu0 = 0.05": "mu0 = -0.02"})
    proc, out = _cli(tmp_path, config, "static-response", "--quiet")
    assert proc.returncode == 0, proc.stderr
    header, row = (out / "static_response.csv").read_text("utf-8").splitlines()
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert 0 < values["stability_denominator"] < 1 and values["ds"] < 0, values
