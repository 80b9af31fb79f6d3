"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

For each workload it produces real outputs at small sizes, confirms that
the checks accept them, then corrupts one artifact or result at a time --
one digit of one CSV value, one dropped row, one moved contour vertex, one
off-ramp SVG fill, one changed spike, one flipped bit of a bulk draw -- and
confirms that the check rejects it. A corrupted file's manifest digest is
rewritten to match, so the content check, not the digest, has to catch it.
Exits 0 when every corruption is rejected.
"""

from __future__ import annotations

import copy
import json
import random
import re
import shutil
import sys
from pathlib import Path

import checks
import inputs
import run

WORK = run.OUT / "selftest"
results: list[bool] = []


def report(label: str, ok: bool, detail: str) -> None:
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}")


def expect_reject(label: str, check) -> None:
    try:
        check()
    except (checks.CheckError, *checks.MALFORMED) as exc:
        report(label, True, f"rejected ({str(exc)[:100]})")
    else:
        report(label, False, "accepted a corrupted output")


def cli_run(op: dict, name: str) -> Path:
    out = WORK / name
    argv = [*run.CLI, *run.cli_args(op, WORK / f"{name}.cfg"), "--out", str(out)]
    _, code, _ = run.spawn(argv, WORK / f"{name}.err")
    if code != 0:
        raise SystemExit(f"{op['subcommand']} exited with {code}")
    return out


def corrupted(out: Path, name: str, edit) -> Path:
    """A copy of ``out`` whose file ``name`` went through ``edit``, with the
    manifest digest updated to the new bytes."""
    dst = out.with_name(out.name + "-bad")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(out, dst)
    path = dst / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    manifest = json.loads((dst / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest["outputs"]:
        if entry["path"] == name:
            entry["sha256"] = checks.sha256(path)
    (dst / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return dst


def change_digit(text: str, row: int, column: int) -> str:
    """Change the leading significant digit of one CSV value."""
    lines = text.split("\n")
    cells = lines[row].split(",")
    m = re.search(r"[1-9]", cells[column])
    d = cells[column][m.start()]
    cells[column] = cells[column][:m.start()] + str(int(d) % 9 + 1) + cells[column][m.end():]
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def scale_value(text: str, row: int, column: int, factor: float) -> str:
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) * factor)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def drop_row(text: str, row: int) -> str:
    lines = text.split("\n")
    del lines[row]
    return "\n".join(lines)


def maps() -> None:
    ops = inputs.maps_ops(1)
    stab = next(op for op in ops if op["subcommand"] == "stability-map")
    amp = next(op for op in ops if op["subcommand"] == "amplification-map"
               and op["sections"]["grid"]["lambda"] > 1e-3)
    bif = next(op for op in ops if op["subcommand"] == "bifurcation-scan")
    for op in (stab, amp):
        op["sections"]["grid"].update(n_beta=40, n_g=30)
    rnd = lambda: random.Random(0)  # noqa: E731
    good = {}
    for name, op in (("stability", stab), ("amplification", amp), ("bifurcation", bif)):
        good[name] = out = cli_run(op, f"maps-{name}")
        checks.check_map_op(op, out, rnd())
        report(f"maps {name}", True, "pristine outputs accepted")
    s, a = good["stability"], good["amplification"]
    expect_reject("maps: one digit of one D value", lambda: checks.check_map_op(
        stab, corrupted(s, "stability_grid.csv", lambda t: change_digit(t, 617, 2)), rnd()))
    expect_reject("maps: one grid row dropped", lambda: checks.check_map_op(
        stab, corrupted(s, "stability_grid.csv", lambda t: drop_row(t, 300)), rnd()))
    grid_rows = (a / "amplification_grid.csv").read_text().split("\n")
    finite = next(n for n, line in enumerate(grid_rows[1:-1], 1) if line.endswith(",0"))
    expect_reject("maps: one digit of one 1/D value", lambda: checks.check_map_op(
        amp, corrupted(a, "amplification_grid.csv", lambda t: change_digit(t, finite, 2)), rnd()))
    contour = (a / "stability_contour.csv").read_text().split("\n")[1:-1]
    top = 1 + max(range(len(contour)), key=lambda n: float(contour[n].split(",")[2]))
    expect_reject("maps: the highest contour vertex moved down by 40%", lambda: checks.check_map_op(
        amp, corrupted(a, "stability_contour.csv", lambda t: scale_value(t, top, 2, 0.6)), rnd()))
    expect_reject("maps: one heatmap fill off the ramp", lambda: checks.check_map_op(
        stab, corrupted(s, "stability_map.svg", lambda t: t.replace('fill="#', 'fill="#ff0000" x-fill="#', 1)), rnd()))
    expect_reject("maps: one digit of one G* value", lambda: checks.check_map_op(
        bif, corrupted(good["bifurcation"], "bifurcation.csv", lambda t: change_digit(t, 7, 1)), rnd()))

    def stale_digest():
        dst = corrupted(s, "stability_grid.csv", lambda t: t)
        path = dst / "stability_grid.csv"
        path.write_text(change_digit(path.read_text(), 40, 2))
        checks.check_map_op(stab, dst, rnd())
    expect_reject("maps: a file that no longer matches its manifest digest", stale_digest)


def paths() -> None:
    ops = inputs.paths_ops(1)
    stoch = next(op for op in ops if op["subcommand"] == "simulate-stochastic")
    events = next(op for op in ops if op["subcommand"] == "simulate-events")
    for op in (stoch, events):
        op["sections"]["run"]["horizon"] = 300
        op["svg"] = True
    events["sections"]["events"]["n_spikes"] = 40
    good_s, good_e = cli_run(stoch, "paths-stochastic"), cli_run(events, "paths-events")
    for op, out in ((stoch, good_s), (events, good_e)):
        checks.check_path_op(op, out)
        report(f"paths {op['subcommand']}", True, "pristine outputs accepted")
    expect_reject("paths: one digit of one dS value", lambda: checks.check_path_op(
        stoch, corrupted(good_s, "trajectory.csv", lambda t: change_digit(t, 151, 2))))
    expect_reject("paths: one digit of one nu value", lambda: checks.check_path_op(
        stoch, corrupted(good_s, "trajectory.csv", lambda t: change_digit(t, 77, 6))))
    expect_reject("paths: one trajectory row dropped", lambda: checks.check_path_op(
        stoch, corrupted(good_s, "trajectory.csv", lambda t: drop_row(t, 100))))
    rows = (good_e / "trajectory.csv").read_text().split("\n")
    spike = next(n for n, line in enumerate(rows[1:], 1) if line.split(",")[6] != "0.0")
    expect_reject("paths: one spike size changed", lambda: checks.check_path_op(
        events, corrupted(good_e, "trajectory.csv", lambda t: change_digit(t, spike, 6))))
    expect_reject("paths: one spike stem removed from the SVG", lambda: checks.check_path_op(
        events, corrupted(good_e, "trajectory.svg",
                          lambda t: re.sub(r'<line [^>]*stroke="#1f77b4" stroke-width="1.2"/>\n', "", t, count=1))))


def sweep() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import child
    from gammafeedback.dynamics import SimState
    ops = [op for op in inputs.sweep_ops(1) if op.get("n", 0) <= 10_000]
    results_ = [call() for call in child.build_calls(ops)]
    for op, res in zip(ops, results_):
        checks.check_sweep_op(op, res)
    assert not checks.check_sweep_grid(ops, results_)
    report("sweep", True, f"{len(ops)} pristine results accepted")

    def first(kind):
        i = next(i for i, op in enumerate(ops) if op["kind"] == kind)
        return i, ops[i], copy.deepcopy(results_[i]) if kind not in ("u64", "normals") else results_[i].copy()

    i, op, traj = first("recursive")
    st = traj.states[7]
    traj.states[7] = SimState(st.t, st.s * (1 + 1e-9), st.ds_obs, st.m_cum, st.n_t, st.mu_t, st.nu_t)
    expect_reject("sweep: one price moved by 1e-9", lambda: checks.check_sweep_op(op, traj))
    i, op, traj = first("events")
    del traj.states[-1]
    expect_reject("sweep: one event-run state dropped", lambda: checks.check_sweep_op(op, traj))
    i, op, arr = first("u64")
    arr[100] ^= 1
    expect_reject("sweep: one bit of one u64 draw flipped", lambda: checks.check_sweep_op(op, arr))
    i, op, arr = first("normals")
    arr += 0.5
    expect_reject("sweep: bulk normals shifted by 0.5", lambda: checks.check_sweep_op(op, arr))
    i, op, curve = first("curve_gstar")
    curve[9] *= 1 + 1e-13
    expect_reject("sweep: one G* value off by 1e-13", lambda: checks.check_sweep_op(op, curve))
    i, op, reports = first("fixed_point")
    j = next(n for n, r in enumerate(reports) if r.classification.value == "stable")
    reports[j] = reports[j - 1] if reports[j - 1].classification.value != "stable" else reports[j + 1]
    expect_reject("sweep: one fixed point replaced", lambda: checks.check_sweep_op(op, reports))
    swapped = list(results_)
    shots = [n for n, o in enumerate(ops) if o["kind"] == "one_shot"]
    swapped[shots[0]], swapped[shots[1]] = swapped[shots[1]], swapped[shots[0]]
    failures = checks.check_sweep_grid(ops, swapped)
    report("sweep: two neighbouring one-shot plateaus swapped", bool(failures),
           f"rejected ({next(iter(failures.values()))})" if failures else "accepted")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        maps()
        paths()
        sweep()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} self-test cases passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
