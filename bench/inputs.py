"""Seeded inputs for the three workloads.

Each workload is a fixed list of operation slots; the seed draws the values
inside each slot (model parameters, grid bounds, generator seeds, small
jitters of size), while the slot structure -- which subcommand, which size
stratum, with or without SVG -- is the same for every seed. That keeps the
cost of a round nearly independent of the seed, so runs with different
seeds can be compared, while the values still vary from seed to seed.
"""

from __future__ import annotations

import math
import random

from oracle import g_star


def _sig(v: float, digits: int = 6) -> float:
    """Round to a few significant digits, as a person would write a config."""
    return float(f"{v:.{digits}g}")


def render(sections: dict[str, dict]) -> str:
    lines = []
    for name, pairs in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                     for key, value in pairs.items())
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------- maps

def _singular_share(lam, grid) -> float:
    """Share of nodes with G at or beyond the analytic threshold G*(beta)."""
    n_b = grid["n_beta"]
    span = grid["g_max"] - grid["g_min"]
    total = 0.0
    for i in range(n_b):
        beta = grid["beta_min"] + i * (grid["beta_max"] - grid["beta_min"]) / (n_b - 1)
        gs = g_star(lam, grid["k"], grid["shock_ratio"], beta, grid["sigma_m"])
        total += min(1.0, max(0.0, (grid["g_max"] - gs) / span))
    return total / n_b


def _lam_for_share(grid, share: float) -> float:
    """Impact coefficient that puts ``share`` of the nodes past D = 0."""
    lo, hi = math.log(1e-6), math.log(10.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _singular_share(math.exp(mid), grid) < share:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def _grid(rnd: random.Random, side: float, square: bool) -> dict:
    aspect = 1.0 if square else math.exp(rnd.uniform(-math.log(1.3), math.log(1.3)))
    side *= 1.0 + rnd.uniform(-0.015, 0.015)
    return {
        "beta_min": _sig(rnd.uniform(0.15, 0.3)),
        "beta_max": _sig(rnd.uniform(2.5, 3.5)),
        "g_min": 0.0 if rnd.random() < 0.5 else _sig(rnd.uniform(1.0, 20.0)),
        "g_max": _sig(rnd.uniform(200.0, 400.0)),
        "n_beta": max(2, round(side * aspect)),
        "n_g": max(2, round(side / aspect)),
        "shock_ratio": _sig(rnd.uniform(0.02, 0.08)),
        "lambda": 0.0,
        "sigma_m": _sig(rnd.uniform(0.02, 0.04)),
        "k": _sig(rnd.uniform(1.5, 2.5)),
    }


def maps_ops(seed: int) -> list[dict]:
    """Eight maps whose grid sides step log-evenly from 60 to 300 nodes,
    alternately stability and amplification, and three bifurcation scans of
    about 100, 175 and 300 betas; all --svg.

    The impact coefficient is solved so that a seeded share (30-36%) of the
    nodes lies past D = 0, so both contours and singular cells appear. The
    smallest amplification map is the exception: its threshold lies above
    the grid, so its D = 0 contour is empty while the 1/D = 2 one is not.
    Eleven operations of distinct cost put the median in the sixth cheapest
    and the 90th percentile in the tenth, whatever the number of rounds.
    """
    rnd = random.Random(f"maps-{seed}")
    ops = []
    for j in range(8):
        sub = "amplification-map" if j % 2 else "stability-map"
        grid = _grid(rnd, 60 * 5 ** (j / 7), square=(j // 2) % 2 == 0)
        if j == 1:
            top = g_star(1.0, grid["k"], grid["shock_ratio"], grid["beta_min"], grid["sigma_m"])
            grid["lambda"] = _sig(top / (grid["g_max"] * rnd.uniform(1.1, 1.5)))
        else:
            grid["lambda"] = _sig(_lam_for_share(grid, rnd.uniform(0.3, 0.36)))
        ops.append({"subcommand": sub, "svg": True, "sections": {"grid": grid}})
    for side in (100, 173, 300):
        grid = _grid(rnd, side, square=False)
        grid["lambda"] = _sig(rnd.uniform(0.002, 0.01))
        ops.append({"subcommand": "bifurcation-scan", "svg": True, "sections": {"grid": grid}})
    rnd.shuffle(ops)
    return ops


# ---------------------------------------------------------------- paths

PATH_SUBCOMMANDS = ("simulate", "simulate-stochastic", "simulate-events")


def _impact(rnd: random.Random, which: int) -> dict:
    if which == 0:
        return {"kind": "tanh", "c": 1.0}
    if which == 1:
        return {"kind": "tanh", "c": _sig(rnd.uniform(0.02, 0.04))}
    return {"kind": "clamp", "i_max": _sig(rnd.uniform(0.5, 1.0))}


def paths_ops(seed: int) -> list[dict]:
    """Fifteen simulation runs whose horizons step log-evenly from 500 to 3e4,
    the subcommands taking turns and every other run with --svg; each
    subcommand meets saturated tanh, unsaturated tanh and clamp impacts.
    Fifteen operations put the median in the eighth cheapest and the 90th
    percentile in the fourteenth, whatever the number of rounds."""
    rnd = random.Random(f"paths-{seed}")
    ops = []
    for i in range(15):
        sub = PATH_SUBCOMMANDS[i % 3]
        horizon = round(500 * 60 ** (i / 14) * (1.0 + rnd.uniform(-0.02, 0.02)))
        beta = 0.2 if i == 0 else _sig(0.2 * 15 ** rnd.random())
        model = {
            "lambda": _sig(rnd.uniform(0.01, 0.08)),
            "beta": beta,
            "mu0": _sig(rnd.uniform(0.005, 0.04)),
            "n0": _sig(rnd.uniform(100.0, 300.0)),
            "gamma0": _sig(rnd.uniform(0.5, 1.5)),
            "sigma_m": _sig(rnd.uniform(0.02, 0.04)),
            "k": _sig(rnd.uniform(1.0, 3.0)),
            "eta": _sig(rnd.uniform(1.0, 3.0)),
            "xi": _sig(rnd.uniform(3.0, 6.0)),
            "s0": _sig(rnd.uniform(50.0, 150.0)),
        }
        sections = {"model": model, "impact": _impact(rnd, (i + i // 3) % 3)}
        stoch = {
            "rho": _sig(rnd.uniform(0.5, 0.95)),
            "sigma_n": _sig(rnd.uniform(0.05, 0.3)),
            "kappa": _sig(rnd.uniform(4.0, 10.0)),
            "seed": rnd.getrandbits(64),
        }
        seed_override = None
        if sub == "simulate-stochastic":
            sections["stochastic"] = stoch
            if i >= 7:
                seed_override = rnd.getrandbits(64)
        elif sub == "simulate-events":
            if i >= 7:
                sections["stochastic"] = stoch  # cap parameters only
            sections["events"] = {
                "n_spikes": rnd.randint(10, 200),
                "max_fraction": _sig(rnd.uniform(0.1, 0.5)),
                "seed": rnd.getrandbits(64),
            }
        sections["run"] = {"horizon": horizon}
        ops.append({"subcommand": sub, "svg": i % 2 == 0, "sections": sections,
                    "seed_override": seed_override})
    rnd.shuffle(ops)
    return ops


# ---------------------------------------------------------------- sweep

BULK_SIZES = (1_000, 10_000, 100_000, 1_000_000)


def _log_strata(rnd: random.Random, n: int, lo: float, hi: float) -> list[int]:
    return [round(lo * (hi / lo) ** ((i + rnd.uniform(0.3, 0.7)) / n)) for i in range(n)]


def sweep_ops(seed: int) -> list[dict]:
    """In-process library calls: beta x mu0 grids of the recursive and one-shot
    runs, seed ensembles of the AR(1) and event runs (horizons 50..2000),
    closed-form curves along beta, fixed-point classification, and bulk
    draws of 1e3..1e6 values. Plain data; the worker builds the arguments.
    With 55 calls the median and the 90th percentile fall inside the
    samples of one call (the 28th and 50th cheapest), not between two."""
    rnd = random.Random(f"sweep-{seed}")
    base = {
        "lam": _sig(rnd.uniform(0.02, 0.06)),
        "n0": _sig(rnd.uniform(150.0, 250.0)),
        "gamma0": 1.0,
        "sigma_m": _sig(rnd.uniform(0.02, 0.04)),
        "k": _sig(rnd.uniform(1.5, 2.5)),
        "eta": _sig(rnd.uniform(1.5, 2.5)),
        "xi": _sig(rnd.uniform(4.0, 6.0)),
        "s0": 100.0,
    }
    impact = {"kind": "tanh", "c": _sig(rnd.uniform(0.02, 0.04))}
    betas = sorted(_sig(0.2 * 15 ** ((i + rnd.uniform(0.2, 0.8)) / 4)) for i in range(4))
    betas[0] = 0.2  # the low-beta stock
    mu0s = sorted(_sig(rnd.uniform(0.004, 0.04) * (i + 1) / 3) for i in range(3))
    horizons = _log_strata(rnd, 12, 50, 2000)
    rnd.shuffle(horizons)
    ops = []
    grid = [(b, m) for b in betas for m in mu0s]
    for kind in ("recursive", "one_shot"):
        for (beta, mu0), horizon in zip(grid, horizons):
            ops.append({"kind": kind, "model": dict(base, beta=beta, mu0=mu0),
                        "impact": impact, "horizon": horizon})
    first = ops[0]
    ops.append({"kind": "stochastic", "model": first["model"], "impact": impact,
                "horizon": first["horizon"],
                "stoch": {"rho": 0.9, "sigma_n": 0.0, "kappa": 8.0, "seed": rnd.getrandbits(64)}})
    model = dict(base, beta=_sig(rnd.uniform(0.2, 3.0)), mu0=_sig(rnd.uniform(0.005, 0.03)))
    for kind, seeds in (("stochastic", 8), ("events", 9)):
        for horizon in _log_strata(rnd, seeds, 50, 2000):
            stoch = {"rho": _sig(rnd.uniform(0.5, 0.95)), "sigma_n": _sig(rnd.uniform(0.05, 0.3)),
                     "kappa": _sig(rnd.uniform(4.0, 10.0)), "seed": rnd.getrandbits(64)}
            op = {"kind": kind, "model": model, "impact": impact, "horizon": horizon,
                  "stoch": stoch}
            if kind == "events":
                op["events"] = {"horizon": horizon, "n_spikes": rnd.randint(1, min(horizon, 100)),
                                "max_fraction": _sig(rnd.uniform(0.1, 0.5)),
                                "seed": rnd.getrandbits(64)}
            ops.append(op)
    curve_betas = [0.2 + 2.8 * i / 255 for i in range(256)]
    shock = _sig(rnd.uniform(0.02, 0.08))
    curve_model = dict(base, beta=1.0, mu0=shock, lam=_sig(rnd.uniform(0.001, 0.004)))
    for kind in ("curve_d", "curve_static", "curve_gstar"):
        ops.append({"kind": kind, "model": curve_model, "betas": curve_betas, "shock": shock})
    fixed = []
    for _ in range(64):
        f = rnd.choice([rnd.uniform(-0.999, 0.999), rnd.uniform(1.001, 3.0), rnd.uniform(-3.0, -1.001),
                        1.0, -1.0, 1.0 + rnd.uniform(-5e-10, 5e-10), -1.0 + rnd.uniform(-5e-10, 5e-10)])
        fixed.append((_sig(rnd.uniform(-5.0, 5.0)), f))
    ops.append({"kind": "fixed_point", "pairs": fixed})
    lin = []
    for _ in range(64):
        lin.append((dict(base, beta=1.0, mu0=0.01, lam=_sig(rnd.uniform(0.001, 0.02)),
                         n0=_sig(rnd.uniform(50.0, 300.0)), gamma0=_sig(rnd.uniform(0.5, 1.5))),
                    _impact(rnd, rnd.randrange(3))))
    ops.append({"kind": "linearized", "cases": lin})
    for kind in ("u64", "normals"):
        for n in BULK_SIZES:
            ops.append({"kind": kind, "n": n, "seed": rnd.getrandbits(64)})
    return ops
