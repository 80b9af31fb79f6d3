"""Processes the benchmark starts; each imports the program fresh.

    child.py setup <workload> <inputs.json>       launch to ready, then exit
    child.py cli <spans.json> <cli argument>...   one traced CLI run
    child.py sweep <inputs.json> <seconds> <trace 0|1> <result.json>
    child.py statebytes <config>                  tracemalloc pass, one line of JSON
    child.py jump <n>                             cold minus warm bulk draw (ms)

Only the standard library and ``spans`` are imported before the program,
so a fresh interpreter's import of ``gammafeedback`` is what gets timed.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from spans import LIBRARY_TARGETS, Tracer

clock = time.perf_counter_ns


def setup(workload: str, inputs_path: str) -> None:
    """What a fresh interpreter does before its first operation."""
    import gammafeedback.cli  # noqa: F401  (imports every layer)

    from gammafeedback import parse_config

    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    if workload == "sweep":
        build_calls(inputs)
        from gammafeedback.rng import Rng
        Rng(0).u64_array(max(op["n"] for op in inputs if op["kind"] in ("u64", "normals")))
    else:
        for text in inputs:
            parse_config(text)


def cli(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    start = clock()
    import gammafeedback.cli

    tracer.record("cli.import", start, clock())
    from spans import CLI_TARGETS
    tracer.install(CLI_TARGETS)
    code = gammafeedback.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


# ---------------------------------------------------------------- sweep

def build_calls(ops: list[dict]) -> list:
    """One zero-argument callable per op. Arguments are built here, once; each
    call looks the library function up through its module at call time, so
    the tracer's wrappers see it."""
    from gammafeedback import analysis, dynamics, model, rng, stochastic
    from gammafeedback.model import ImpactSpec, ModelParams
    from gammafeedback.stochastic import EventSpec, StochasticSpec

    def static_curve(params, shock):
        out = []
        for p in params:
            try:
                out.append(model.static_response(p, shock, p.s0))
            except model.SingularDenominator:
                out.append(None)
        return out

    calls = []
    for op in ops:
        kind = op["kind"]
        if "impact" in op:
            m, imp, h = ModelParams(**op["model"]), ImpactSpec(**op["impact"]), op["horizon"]
        if kind == "recursive":
            call = lambda m=m, imp=imp, h=h: dynamics.simulate_recursive(m, imp, h)
        elif kind == "one_shot":
            call = lambda m=m, imp=imp, h=h: dynamics.simulate_one_shot(m, imp, h)
        elif kind == "stochastic":
            st = StochasticSpec(**op["stoch"])
            call = lambda m=m, imp=imp, st=st, h=h: stochastic.simulate_stochastic(m, imp, st, h)
        elif kind == "events":
            st, ev = StochasticSpec(**op["stoch"]), EventSpec(**op["events"])
            call = lambda m=m, imp=imp, ev=ev, st=st: stochastic.simulate_event_driven(m, imp, ev, st)
        elif kind in ("curve_d", "curve_static"):
            params = [ModelParams(**dict(op["model"], beta=b)) for b in op["betas"]]
            shock = op["shock"]
            if kind == "curve_d":
                call = lambda ps=params, s=shock: [model.stability_denominator(p, s) for p in ps]
            else:
                call = lambda ps=params, s=shock: static_curve(ps, s)
        elif kind == "curve_gstar":
            md, betas, shock = op["model"], op["betas"], op["shock"]
            call = lambda md=md, bs=betas, s=shock: [
                analysis.critical_exposure(md["lam"], b, s, md["sigma_m"], md["k"]) for b in bs]
        elif kind == "fixed_point":
            call = lambda pairs=op["pairs"]: [analysis.analyze_fixed_point(a, f) for a, f in pairs]
        elif kind == "linearized":
            cases = [(ModelParams(**md), ImpactSpec(**imp)) for md, imp in op["cases"]]
            call = lambda cs=cases: [analysis.linearized_feedback(p, i) for p, i in cs]
        elif kind == "u64":
            call = lambda n=op["n"], s=op["seed"]: rng.Rng(s).u64_array(n)
        elif kind == "normals":
            call = lambda n=op["n"], s=op["seed"]: rng.Rng(s).normals(n)
        else:
            raise ValueError(f"unknown sweep op {kind!r}")
        calls.append(call)
    return calls


def fingerprint(result):
    """A constant-size summary that two identical results share."""
    if hasattr(result, "states"):
        return len(result.states), result.states[-1]
    if hasattr(result, "dtype"):
        return len(result), result[0].item(), result[-1].item()
    return result


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def sweep(inputs_path: str, seconds: float, traced: bool, result_path: str) -> None:
    start = clock()
    import gammafeedback  # noqa: F401

    import_ms = (clock() - start) / 1e6
    with open(inputs_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    calls = build_calls(ops)
    reference, errors = [], {}
    for i, call in enumerate(calls):  # warm-up round: caches filled, reference results
        try:
            reference.append(call())
        except Exception as exc:  # noqa: BLE001 - an op that raises counts as failed
            reference.append(None)
            errors[i] = f"raised {exc!r}"
    tracer = Tracer()
    rounds, latencies, prints = [], [], [[] for _ in calls]
    phase_start = clock()
    while True:
        is_traced = traced and len(rounds) % 2 == 1
        if is_traced:
            tracer.install(LIBRARY_TARGETS)
        c0, w0 = cpu_s(), clock()
        for i, call in enumerate(calls):
            tracer.op = len(rounds) * len(calls) + i
            a = clock()
            try:
                result = call()
            except Exception as exc:  # noqa: BLE001 - an op that raises counts as failed
                result = None
                errors.setdefault(i, f"raised {exc!r}")
            b = clock()
            if not is_traced:
                latencies.append((b - a) / 1e6)
            prints[i].append(fingerprint(result))
        wall, cpu = (clock() - w0) / 1e9, cpu_s() - c0
        if is_traced:
            tracer.uninstall()
        rounds.append({"wall_s": wall, "cpu_s": cpu, "traced": is_traced})
        elapsed = (clock() - phase_start) / 1e9
        if elapsed + wall > seconds and len(rounds) >= (2 if traced else 1):
            break
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import checks
    for i, (op, result) in enumerate(zip(ops, reference)):
        if i in errors:
            continue
        try:
            checks.check_sweep_op(op, result)
        except (checks.CheckError, *checks.MALFORMED) as exc:
            errors[i] = str(exc)
            continue
        if any(p != fingerprint(result) for p in prints[i]):
            errors[i] = "a timed call returned a different result than the reference call"
    if not errors:
        errors.update(checks.check_sweep_grid(ops, reference))
    extra = {}
    if traced:
        extra["bytes_per_state"] = state_bytes_of(max(
            (op for op in ops if op["kind"] == "recursive"), key=lambda op: op["horizon"]))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rounds": rounds, "latencies_ms": latencies, "n_ops": len(calls),
                   "errors": {str(k): v for k, v in errors.items()}, "maxrss_mb": maxrss_mb,
                   "import_ms": import_ms, "spans": tracer.spans, **extra}, fh)


def state_bytes_of(op: dict) -> float:
    """Bytes that a recursive trajectory keeps alive per state, by tracemalloc."""
    import tracemalloc

    from gammafeedback import dynamics
    from gammafeedback.model import ImpactSpec, ModelParams
    params, impact = ModelParams(**op["model"]), ImpactSpec(**op["impact"])
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    traj = dynamics.simulate_recursive(params, impact, op["horizon"])
    kept = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return kept / len(traj)


def statebytes(config_path: str) -> None:
    from dataclasses import asdict

    from gammafeedback import parse_config
    with open(config_path, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    op = {"model": asdict(cfg.model), "impact": asdict(cfg.impact), "horizon": cfg.horizon}
    print(json.dumps({"bytes_per_state": state_bytes_of(op)}))


def jump(n: int) -> None:
    from gammafeedback.rng import Rng
    a = clock()
    Rng(1).u64_array(n)
    b = clock()
    Rng(2).u64_array(n)
    c = clock()
    print(json.dumps({"jump_setup_ms": ((b - a) - (c - b)) / 1e6}))


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], argv[2])
    elif mode == "cli":
        return cli(argv[1], argv[2:])
    elif mode == "sweep":
        sweep(argv[1], float(argv[2]), argv[3] == "1", argv[4])
    elif mode == "statebytes":
        statebytes(argv[1])
    elif mode == "jump":
        jump(int(argv[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
