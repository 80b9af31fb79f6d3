"""Benchmark of gammafeedback: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload maps|paths|sweep --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Load is a closed loop with one client: the benchmark waits for each
operation before it starts the next, and at most one operation process runs
beside it. Each run repeats whole rounds of the workload's seeded operations
for about ``--seconds``; the outputs of every operation are checked after
the timed phase. With ``--trace 0`` the last line holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run, whose
rounds alternate untraced and traced so that the tracing overhead is
measured in the same run. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
CHILD = str(BENCH / "child.py")
SETUP_REPEATS = 9
# What the installed ``gammafeedback`` console script runs; the traced shim
# enters the same ``cli.main``.
CLI = [sys.executable, "-c", "import sys; from gammafeedback.cli import main; sys.exit(main())"]
clock = time.perf_counter_ns


def env() -> dict:
    """The operations' environment: the checkout's ``src`` on the path, and one
    OpenBLAS thread. The program calls no BLAS routine, but numpy's import
    starts an OpenBLAS pool whose threads spin on the second CPU; how much
    they slow the import then depends on what else the host runs, which made
    the wall time of one seed vary by a third from run to run."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                OPENBLAS_NUM_THREADS="1")


def spawn(cmd: list[str], stderr_path: Path | None = None) -> tuple[float, int, object]:
    """Run one process to its end: (wall ms, exit code, its own rusage)."""
    err = open(stderr_path, "w", encoding="utf-8") if stderr_path else subprocess.DEVNULL
    try:
        start = clock()
        proc = subprocess.Popen(cmd, env=ENV, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = (clock() - start) / 1e6
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stderr_path:
            err.close()
    return wall, proc.returncode, usage


def child_json(args: list[str]) -> dict:
    done = subprocess.run([sys.executable, CHILD, *args], env=ENV, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, inputs_file: Path) -> float:
    """Median launch-to-ready time of fresh interpreters (s); the first,
    untimed launch fails the run when the program cannot be imported."""
    cmd = [sys.executable, CHILD, "setup", workload, str(inputs_file)]
    walls = []
    for n in range(SETUP_REPEATS + 1):
        wall, code, _ = spawn(cmd, inputs_file.with_suffix(".err"))
        if code != 0:
            sys.stderr.write((inputs_file.with_suffix(".err")).read_text())
            raise SystemExit(f"set-up process exited with {code}: is src/gammafeedback there?")
        if n:
            walls.append(wall / 1e3)
    return statistics.median(walls)


# ---------------------------------------------------------------- CLI workloads

def cli_args(op: dict, cfg: Path) -> list[str]:
    """Write the op's config file; return its CLI arguments but ``--out``."""
    cfg.write_text(inputs.render(op["sections"]), encoding="utf-8")
    argv = [op["subcommand"], "--config", str(cfg), "--quiet"]
    argv += ["--svg"] if op["svg"] else []
    if op.get("seed_override") is not None:
        argv += ["--seed", str(op["seed_override"])]
    return argv


def run_cli_workload(workload: str, ops: list[dict], run_dir: Path, seconds: float,
                     traced: bool) -> dict:
    cfg_dir = run_dir / "cfg"
    cfg_dir.mkdir()
    argvs = [cli_args(op, cfg_dir / f"op{i}.cfg") for i, op in enumerate(ops)]
    texts = run_dir / "inputs.json"
    texts.write_text(json.dumps([inputs.render(op["sections"]) for op in ops]))
    setup_s = measure_setup(workload, texts)

    rounds, records = [], []
    phase_start = clock()
    while True:
        r = len(rounds)
        is_traced = traced and r % 2 == 1
        w0, cpu = clock(), 0.0
        for i, argv in enumerate(argvs):
            out = run_dir / f"r{r}" / f"op{i}"
            full = [*argv, "--out", str(out)]
            if is_traced:
                cmd = [sys.executable, CHILD, "cli", str(run_dir / f"r{r}-op{i}.spans"), *full]
            else:
                cmd = [*CLI, *full]
            start = clock()
            wall, code, usage = spawn(cmd, run_dir / f"r{r}-op{i}.err")
            records.append({"round": r, "op": i, "traced": is_traced, "wall_ms": wall,
                            "start": start, "end": start + int(wall * 1e6), "code": code,
                            "cpu_s": usage.ru_utime + usage.ru_stime,
                            "maxrss_mb": usage.ru_maxrss / 1024})
            cpu += usage.ru_utime + usage.ru_stime
        wall = (clock() - w0) / 1e9
        rounds.append({"wall_s": wall, "cpu_s": cpu, "traced": is_traced})
        if (clock() - phase_start) / 1e9 + wall > seconds and len(rounds) >= (2 if traced else 1):
            break

    # Checks, after the timed phase: the first round in full, every later
    # round by its digests against the first.
    errors, reference = {}, {}
    for rec in records:
        i, out = rec["op"], run_dir / f"r{rec['round']}" / f"op{rec['op']}"
        key = (rec["round"], i)
        if rec["code"] != 0:
            errors[key] = f"exit {rec['code']}: " + (run_dir / f"r{key[0]}-op{i}.err").read_text()
            continue
        try:
            digests = checks.check_manifest(out, ops[i])
            if i not in reference:
                if workload == "maps":
                    checks.check_map_op(ops[i], out, random.Random(i))
                else:
                    checks.check_path_op(ops[i], out)
                reference[i] = digests
            elif digests != reference[i]:
                errors[key] = "outputs differ from the first round's"
        except (checks.CheckError, *checks.MALFORMED) as exc:
            errors[key] = str(exc)
    result = {"setup_s": setup_s, "rounds": rounds, "errors": errors,
              "attempted": len(records),
              "latencies_ms": [r["wall_ms"] for r in records if not r["traced"]],
              "peak_rss_mb": max(r["maxrss_mb"] for r in records if not r["traced"])}
    if traced:
        result["layers"] = cli_layers(workload, ops, run_dir, records, rounds)
    return result


def _merge_spans(run_dir: Path, records: list[dict]) -> list[list]:
    """The traced operations' spans, renumbered into one list under one
    ``cli.operation`` span per process (launch to exit, timed by the parent)."""
    merged = []
    for rec in records:
        if not rec["traced"]:
            continue
        op_id = rec["round"] * 1000 + rec["op"]
        top = len(merged)
        merged.append([top, "cli.operation", rec["start"], rec["end"], -1, op_id, -1])
        path = run_dir / f"r{rec['round']}-op{rec['op']}.spans"
        if not path.exists():
            continue
        base = len(merged)
        for sid, name, start, end, parent, _, size in json.loads(path.read_text()):
            merged.append([base + sid, name, start, end, base + parent if parent >= 0 else top,
                           op_id, size])
    return merged


def cli_layers(workload: str, ops: list[dict], run_dir: Path, records: list[dict],
               rounds: list[dict]) -> dict:
    spans = _merge_spans(run_dir, records)
    n_traced = sum(r["traced"] for r in rounds)
    by_op: dict[int, dict[str, int]] = {}
    for s in spans:
        by_op.setdefault(s[5], {}).setdefault(s[1], s[3] - s[2])
    process_ms = [(d["cli.operation"] - d.get("runner.run_subcommand", 0)) / 1e6
                  for d in by_op.values()]
    import_ms = [d["cli.import"] / 1e6 for d in by_op.values() if "cli.import" in d]
    first = run_dir / "r0"
    written = sum(f.stat().st_size for f in first.rglob("*") if f.is_file())
    rects = sum(f.read_text(encoding="utf-8").count("<rect ") - 1
                for f in first.glob("op*/*_map.svg"))
    given = {}
    if workload == "paths":
        longest = max((i for i, op in enumerate(ops) if op["subcommand"] == "simulate"),
                      key=lambda i: ops[i]["sections"]["run"]["horizon"])
        given = child_json(["statebytes", str(run_dir / "cfg" / f"op{longest}.cfg")])
        given = {"dynamics.bytes_per_state": given["bytes_per_state"]}
    return layer_metrics(spans, n_traced, steps_per_round(workload, ops), {
        **given,
        "cli.import_ms": statistics.median(import_ms),
        "cli.process_ms": statistics.median(process_ms),
        "runner.bytes_written": written,
        "svgplot.heatmap_rects": rects,
        "trace.overhead_pct": overhead_pct(rounds),
    })


def steps_per_round(workload: str, ops: list[dict]) -> dict[str, int]:
    counts = {"recursive": 0, "stochastic": 0, "events": 0, "draws": 0}
    for op in ops:
        if workload == "paths":
            kind = {"simulate": "recursive", "simulate-stochastic": "stochastic",
                    "simulate-events": "events"}[op["subcommand"]]
            counts[kind] += op["sections"]["run"]["horizon"]
        elif workload == "sweep" and op["kind"] in ("recursive", "stochastic", "events"):
            counts[op["kind"]] += op["horizon"]
        elif workload == "sweep" and op["kind"] in ("u64", "normals"):
            counts["draws"] += op["n"]
    return counts


def overhead_pct(rounds: list[dict]) -> float:
    plain = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    traced = statistics.median(r["wall_s"] for r in rounds if r["traced"])
    return 100.0 * (traced / plain - 1.0)


# ---------------------------------------------------------------- per-layer metrics

def layer_metrics(spans: list[list], n_rounds: int, steps: dict[str, int], given: dict) -> dict:
    """Per-round self times of the wrapped functions, folded into the
    per-layer metrics that BENCHMARK.json names; a layer that a workload
    never calls reads 0."""
    from spans import totals
    ms, size = totals(spans)

    def per_round(*names: str) -> float:
        return sum(ms.get(n, 0.0) for n in names) / n_rounds

    def rate(total: float, count: float, scale: float) -> float:
        return total * scale / count if count else 0.0

    recursive = per_round("dynamics.simulate_recursive")
    ar1 = per_round("stochastic.simulate_stochastic")
    events = per_round("stochastic.simulate_event_driven")
    bulk = per_round("rng.u64_array", "rng.uniforms", "rng.normals")
    grid_csv, traj_csv = per_round("artifacts.grid_csv"), per_round("artifacts.trajectory_csv")
    series = ("svgplot.timeseries_svg", "svgplot.event_series_svg", "svgplot.line_chart_svg")
    metrics = {
        "cli.import_ms": 0.0, "cli.process_ms": 0.0, "runner.bytes_written": 0,
        "svgplot.heatmap_rects": 0, "dynamics.bytes_per_state": 0.0, "rng.jump_setup_ms": 0.0,
        "config.parse_ms": per_round("config.parse_config"),
        "config.render_ms": per_round("config.render_config"),
        "runner.self_ms": per_round("runner.run_subcommand"),
        "model.closed_form_ms": per_round("model.stability_denominator", "model.static_response"),
        "analysis.grid_ms": per_round("analysis.stability_grid", "analysis.amplification_grid"),
        "analysis.contour_ms": per_round("analysis.extract_contour"),
        "analysis.scalar_ms": per_round("analysis.critical_exposure", "analysis.analyze_fixed_point",
                                        "analysis.linearized_feedback"),
        "dynamics.recursive_ms": recursive,
        "dynamics.one_shot_ms": per_round("dynamics.simulate_one_shot"),
        "dynamics.step_us": rate(recursive, steps["recursive"], 1e3),
        "stochastic.ar1_ms": ar1,
        "stochastic.events_ms": events,
        "stochastic.spikes_ms": per_round("stochastic.generate_event_spikes"),
        "stochastic.ar1_step_us": rate(ar1, steps["stochastic"], 1e3),
        "stochastic.events_step_us": rate(events, steps["events"], 1e3),
        "rng.bulk_ms": bulk,
        "rng.bulk_ns_per_draw": rate(bulk, steps["draws"], 1e6),
        "artifacts.grid_csv_ms": grid_csv,
        "artifacts.trajectory_csv_ms": traj_csv,
        "artifacts.contour_csv_ms": per_round("artifacts.contour_csv"),
        "artifacts.curve_csv_ms": per_round("artifacts.curve_csv"),
        "artifacts.digest_ms": per_round("artifacts.sha256_hex"),
        "artifacts.grid_csv_mb_per_s": rate(size.get("artifacts.grid_csv", 0) / n_rounds / 1e6,
                                            grid_csv, 1e3),
        "artifacts.trajectory_csv_mb_per_s": rate(
            size.get("artifacts.trajectory_csv", 0) / n_rounds / 1e6, traj_csv, 1e3),
        "svgplot.heatmap_ms": per_round("svgplot.heatmap_svg"),
        "svgplot.series_ms": per_round(*series),
        "svgplot.heatmap_bytes": size.get("svgplot.heatmap_svg", 0) / n_rounds,
        "svgplot.series_bytes": sum(size.get(n, 0) for n in series) / n_rounds,
    }
    metrics.update(given)
    return metrics


# ---------------------------------------------------------------- sweep

def run_sweep(ops: list[dict], run_dir: Path, seconds: float, traced: bool) -> dict:
    ops_file = run_dir / "inputs.json"
    ops_file.write_text(json.dumps(ops))
    setup_s = measure_setup("sweep", ops_file)
    result_file = run_dir / "sweep.json"
    _, code, _ = spawn([sys.executable, CHILD, "sweep", str(ops_file), repr(seconds),
                            "1" if traced else "0", str(result_file)], run_dir / "sweep.err")
    if code != 0:
        sys.stderr.write((run_dir / "sweep.err").read_text())
        raise SystemExit(f"sweep worker exited with {code}")
    res = json.loads(result_file.read_text())
    n_ops, rounds = res["n_ops"], res["rounds"]
    errors = {(r, int(i)): msg for i, msg in res["errors"].items() for r in range(len(rounds))}
    result = {"setup_s": setup_s, "rounds": rounds, "errors": errors,
              "attempted": n_ops * len(rounds), "latencies_ms": res["latencies_ms"],
              "peak_rss_mb": res["maxrss_mb"]}
    if traced:
        jumps = [child_json(["jump", str(max(inputs.BULK_SIZES))])["jump_setup_ms"] for _ in range(3)]
        result["layers"] = layer_metrics(
            res["spans"], sum(r["traced"] for r in rounds), steps_per_round("sweep", ops), {
                "cli.import_ms": res["import_ms"],
                "dynamics.bytes_per_state": res["bytes_per_state"],
                "rng.jump_setup_ms": statistics.median(jumps),
                "trace.overhead_pct": overhead_pct(rounds),
            })
    return result


# ---------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("maps", "paths", "sweep"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gammafeedback" / "__init__.py").is_file():
        sys.stderr.write(f"no program source under {ROOT / 'src'}\n")
        return 2
    traced = args.trace == 1
    run_dir = OUT / f"{args.workload}-{args.seed}-{'traced' if traced else 'plain'}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.workload == "sweep":
            res = run_sweep(inputs.sweep_ops(args.seed), run_dir, args.seconds, traced)
        else:
            ops = (inputs.maps_ops if args.workload == "maps" else inputs.paths_ops)(args.seed)
            res = run_cli_workload(args.workload, ops, run_dir, args.seconds, traced)
        if traced:
            trace_dir = OUT / "traces"
            trace_dir.mkdir(exist_ok=True)
            (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
                json.dumps({"rounds": res["rounds"], "layers": res["layers"]}, indent=1))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for (r, i), msg in sorted(res["errors"].items()):
        sys.stderr.write(f"FAILED round {r} op {i}: {msg}\n")
    if traced:
        values, declared = res["layers"], SPEC["per_layer"]
    else:
        plain, lat = [r for r in res["rounds"] if not r["traced"]], res["latencies_ms"]
        declared = SPEC["end_to_end"]
        values = {
            "setup_s": res["setup_s"],
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "op_p50_ms": statistics.median(lat),
            "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = len(res["errors"])
    print(f"{args.workload} seed {args.seed}: {len(res['rounds'])} rounds, "
          f"{res['attempted']} operations, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


ENV = env()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

if __name__ == "__main__":
    sys.exit(main())
