"""Output checks, run after the timed phase.

Every expected value comes from ``oracle`` (exact fractions, an own copy of
the pinned generator, a row-by-row replay of the README's recursion) or is a
property the method must have (monotone decay, determinism, tiling of the
heatmap). Artifacts are parsed with the benchmark's own readers. A check
raises ``CheckError``; the caller counts the operation as failed.

Tolerances (all relative to the double spacing ULP = 2^-52):

- grid D against an exact fraction: 16 ULP * (1 + lam*G*(1 + k*x)); against
  a float recomputation on every cell: 64 ULP * (1 + lam*G*(1 + k*x));
- 1/D: the D tolerance divided by D, plus 4 ULP; the singular flag is
  checked wherever D lies farther than the D tolerance from 1e-9;
- G* and 1/(2*lam*(1 + k*x)) values: 16 ULP relative;
- contour vertices: within one beta cell and one G cell of the analytic
  curve; SVG coordinates: 0.011 px (two-decimal rounding);
- trajectory replay: each quantity within 1e-12 of the sum of the absolute
  values of the terms that make it, so cancellation cannot hide an error.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import EPS_SINGULAR, ULP, within

SVG = "{http://www.w3.org/2000/svg}"
RAMP_LOW = (20, 42, 108)     # README ramp: deep blue at t = 0 ...
RAMP_HIGH = (249, 240, 85)   # ... to light yellow at t = 1
GRAY = "#9e9e9e"             # singular cells
STEM = "#1f77b4"             # event stems (the legend swatch is wider)
STEM_WIDTH = "1.2"
PX = 0.011                   # two-decimal pixel rounding, twice, plus slack

MODEL_DEFAULTS = {"sigma_m": 0.03, "k": 2.0, "eta": 2.0, "xi": 5.0, "s0": 100.0}
STOCH_DEFAULTS = {"rho": 0.9, "sigma_n": 0.2, "kappa": 8.0}

# Exceptions a malformed artifact can raise while being read.
MALFORMED = (ValueError, IndexError, KeyError, TypeError, ZeroDivisionError,
             ET.ParseError, OSError)


class CheckError(Exception):
    pass


def need(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    need(lines[-1] == "", f"{path.name}: no final newline")
    need(lines[0] == header, f"{path.name}: header {lines[0]!r}")
    return [line.split(",") for line in lines[1:-1]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- manifest

EXPECTED_FILES = {
    "stability-map": (["stability_grid.csv", "stability_contour.csv"], ["stability_map.svg"]),
    "amplification-map": (["amplification_grid.csv", "amplification_contour.csv",
                           "stability_contour.csv"], ["amplification_map.svg"]),
    "bifurcation-scan": (["bifurcation.csv"], ["bifurcation.svg"]),
    "simulate": (["trajectory.csv"], ["trajectory.svg"]),
    "simulate-stochastic": (["trajectory.csv"], ["trajectory.svg"]),
    "simulate-events": (["trajectory.csv"], ["trajectory.svg"]),
}


def effective_sections(op: dict) -> dict:
    """The op's sections with a --seed override applied, as the README says."""
    sections = {name: dict(pairs) for name, pairs in op["sections"].items()}
    if op.get("seed_override") is not None:
        for name in ("stochastic", "events"):
            if name in sections:
                sections[name]["seed"] = op["seed_override"]
    return sections


def check_manifest(out: Path, op: dict) -> dict[str, str]:
    """Digests, file set, seeds and the resolved config; returns name -> sha256."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    sub = op["subcommand"]
    need(manifest["subcommand"] == sub, f"manifest subcommand {manifest['subcommand']!r}")
    csvs, svgs = EXPECTED_FILES[sub]
    names = [entry["path"] for entry in manifest["outputs"]]
    want = set(csvs) | (set(svgs) if op["svg"] else set()) | {"config.resolved.cfg"}
    need(sorted(names) == sorted(want), f"manifest outputs {names}")
    on_disk = {p.name for p in out.iterdir()}
    need(on_disk == want | {"manifest.json"}, f"files on disk {sorted(on_disk)}")
    digests = {}
    for entry in manifest["outputs"]:
        digest = sha256(out / entry["path"])
        need(digest == entry["sha256"], f"{entry['path']}: digest differs from the manifest")
        digests[entry["path"]] = digest
    sections = effective_sections(op)
    seeds = {}
    if sub == "simulate-stochastic":
        seeds["stochastic"] = sections["stochastic"]["seed"]
    if sub == "simulate-events":
        seeds["events"] = sections["events"]["seed"]
    need(manifest["seeds"] == seeds, f"manifest seeds {manifest['seeds']}")
    resolved = configparser.ConfigParser(interpolation=None)
    resolved.read_string((out / "config.resolved.cfg").read_text(encoding="utf-8"))
    for name, pairs in sections.items():
        for key, value in pairs.items():
            got = resolved.get(name, key)
            ok = float(got) == value if isinstance(value, float) else got == str(value)
            need(ok, f"resolved [{name}] {key} = {got}, input {value!r}")
    need(resolved.get("run", "emit_svg") == ("true" if op["svg"] else "false"),
         "resolved emit_svg")
    return digests


# ---------------------------------------------------------------- maps

def _axis(values: list[float], lo: float, hi: float, what: str) -> None:
    n = len(values)
    step = (hi - lo) / (n - 1)
    need(values[0] == lo and values[-1] == hi, f"{what} axis ends {values[0]}, {values[-1]}")
    tol = 8 * ULP * max(abs(lo), abs(hi))
    for i, v in enumerate(values):
        need(abs(v - (lo + i * step)) <= tol, f"{what} node {i} at {v!r}")
        need(i == 0 or v > values[i - 1] or hi == lo, f"{what} nodes not increasing at {i}")


def check_grid(path: Path, g: dict, field: str, rnd: random.Random) -> tuple[list, list, list]:
    """Grid CSV of D (``field='D'``) or 1/D; returns (betas, gs, rows)."""
    rows = read_csv(path, "beta,G,value,singular")
    nb, ng = g["n_beta"], g["n_g"]
    need(len(rows) == nb * ng, f"{path.name}: {len(rows)} rows for a {nb}x{ng} grid")
    betas = [float(rows[i * ng][0]) for i in range(nb)]
    gs = [float(rows[j][1]) for j in range(ng)]
    _axis(betas, g["beta_min"], g["beta_max"], "beta")
    _axis(gs, g["g_min"], g["g_max"], "G")
    lam, k, shock, sig = g["lambda"], g["k"], g["shock_ratio"], g["sigma_m"]
    for i, beta in enumerate(betas):
        amp = 1.0 + k * (shock / (beta * sig))
        bs = repr(beta)
        for j, gv in enumerate(gs):
            row = rows[i * ng + j]
            need(len(row) == 4 and row[0] == bs and float(row[1]) == gv,
                 f"{path.name}: row {i * ng + j} is not node ({i}, {j})")
            load = lam * amp * gv
            d = 1.0 - load
            tol = 64 * ULP * (1.0 + load)
            v = float(row[2])
            if field == "D":
                need(row[3] == "0", f"{path.name}: singular flag on the D map at ({i}, {j})")
                need(abs(v - d) <= tol, f"{path.name}: D at ({i}, {j}) is {v!r}, expected {d!r}")
            elif d > EPS_SINGULAR + tol:
                need(row[3] == "0", f"{path.name}: cell ({i}, {j}) with D = {d!r} flagged singular")
                need(abs(v * d - 1.0) <= 2 * tol / d + 4 * ULP,
                     f"{path.name}: 1/D at ({i}, {j}) is {v!r}, expected {1 / d!r}")
            elif d <= EPS_SINGULAR - tol:
                need(row[3] == "1" and v == 0.0, f"{path.name}: cell ({i}, {j}) with D = {d!r} "
                                                 "not flagged singular with value 0.0")
            else:
                need(row[3] in ("0", "1"), f"{path.name}: flag {row[3]!r}")
    # Exact oracle on a seeded sample plus the nodes flanking D = 0.
    sample = {(rnd.randrange(nb), rnd.randrange(ng)) for _ in range(96)}
    for i in range(0, nb, max(1, nb // 8)):
        gs_star = oracle.g_star(lam, k, shock, betas[i], sig)
        j = min(range(ng), key=lambda j: abs(gs[j] - gs_star))
        sample.update((i, jj) for jj in (j - 1, j, j + 1) if 0 <= jj < ng)
    eps = Fraction(EPS_SINGULAR)
    for i, j in sorted(sample):
        row = rows[i * ng + j]
        load = oracle.exact_load(lam, gs[j], k, shock, betas[i], sig)
        d = 1 - load
        tol = Fraction(16 * ULP) * (1 + load)
        v = Fraction(float(row[2]))
        if field == "D":
            need(abs(v - d) <= tol, f"{path.name}: D at ({i}, {j}) off the exact value")
        elif d > eps + tol:
            need(row[3] == "0" and abs(v * d - 1) <= 2 * tol / d + Fraction(4 * ULP),
                 f"{path.name}: 1/D at ({i}, {j}) off the exact value")
        elif d <= eps - tol:
            need(row[3] == "1", f"{path.name}: ({i}, {j}) exact D = {float(d)!r} not singular")
    return betas, gs, rows


def check_contour(path: Path, g: dict, inside: list, level: float) -> int:
    """Vertices near the analytic level curve; non-empty iff a cell crosses.

    ``inside[i*n_g + j]`` says whether node (i, j) lies above the level, or
    is None for a node the contour must avoid (a singular cell).
    """
    lines = read_csv(path, "polyline_id,beta,G")
    lam, k, shock, sig = g["lambda"], g["k"], g["shock_ratio"], g["sigma_m"]
    nb, ng = g["n_beta"], g["n_g"]
    cb = (g["beta_max"] - g["beta_min"]) / (nb - 1)
    cg = (g["g_max"] - g["g_min"]) / (ng - 1)
    scale = 1.0 if level == 0.0 else 0.5  # 1/D = 2 where lam*G*(1+kx) = 1/2

    def curve(beta: float) -> float:
        return scale * oracle.g_star(lam, k, shock, max(beta, 1e-12), sig)

    pid, count = 0, 0
    for n, (p, b, gv) in enumerate(lines):
        p, b, gv = int(p), float(b), float(gv)
        need(p in (pid, pid + 1) and (n > 0 or p == 0), f"{path.name}: polyline id {p} at row {n}")
        count += p != pid or n == 0
        pid = p
        need(g["beta_min"] - cb * 1e-9 <= b <= g["beta_max"] + cb * 1e-9
             and g["g_min"] - cg * 1e-9 <= gv <= g["g_max"] + cg * 1e-9,
             f"{path.name}: vertex ({b}, {gv}) outside the grid")
        need(curve(b - cb) - cg <= gv <= curve(b + cb) + cg,
             f"{path.name}: vertex ({b}, {gv}) farther than a cell from the level-{level:g} curve")
    crosses = any(
        None not in corners and len(set(corners)) == 2
        for i in range(nb - 1) for j in range(ng - 1)
        for corners in ((inside[i * ng + j], inside[i * ng + j + 1],
                         inside[(i + 1) * ng + j], inside[(i + 1) * ng + j + 1]),)
    )
    need(crosses == (count > 0), f"{path.name}: {count} polylines but a crossing "
                                 f"{'exists' if crosses else 'does not exist'}")
    return count


def _ramp_interval(color: str) -> tuple[float, float]:
    rgb = (int(color[1:3], 16), int(color[3:5], 16), int(color[5:7], 16))
    lo_t, hi_t = 0.0, 1.0
    for c, lo, hi in zip(rgb, RAMP_LOW, RAMP_HIGH):
        a, b = (c - 0.5 - lo) / (hi - lo), (c + 0.5 - lo) / (hi - lo)
        lo_t, hi_t = max(lo_t, min(a, b)), min(hi_t, max(a, b))
    return lo_t, hi_t


def _box(root) -> tuple[float, float, float, float]:
    frames = [r for r in root.iter(SVG + "rect") if r.get("fill") == "none"]
    need(len(frames) == 1, f"{len(frames)} plot frames")
    f = frames[0]
    return tuple(float(f.get(a)) for a in ("x", "y", "width", "height"))


def _tiles(intervals: list[tuple[float, float]], lo: float, hi: float) -> bool:
    intervals = sorted(intervals)
    if abs(intervals[0][0] - lo) > PX or abs(intervals[-1][1] - hi) > PX:
        return False
    return all(abs(b[0] - a[1]) <= PX for a, b in zip(intervals, intervals[1:]))


def check_heatmap(path: Path, g: dict, rows: list, n_polylines: int, rnd: random.Random) -> None:
    root = ET.parse(path).getroot()
    need(root.tag == SVG + "svg", f"{path.name}: root {root.tag}")
    nb, ng = g["n_beta"], g["n_g"]
    x0, y0, w, h = _box(root)
    cells = [r for r in root.iter(SVG + "rect") if r.get("fill") != "none"]
    need(len(cells) == nb * ng, f"{path.name}: {len(cells)} cell rects for {nb * ng} cells")
    column_ys = None
    xs = []
    for i in range(nb):
        col = cells[i * ng:(i + 1) * ng]
        need(len({(c.get("x"), c.get("width")) for c in col}) == 1, f"{path.name}: column {i} ragged")
        ys = [(c.get("y"), c.get("height")) for c in col]
        if column_ys is None:
            column_ys = ys
            spans = [(float(y), float(y) + float(hh)) for y, hh in ys]
            need(_tiles(spans, y0, y0 + h), f"{path.name}: rows do not tile the plot box")
        need(ys == column_ys, f"{path.name}: column {i} rows differ from column 0")
        xs.append((float(col[0].get("x")), float(col[0].get("x")) + float(col[0].get("width"))))
    need(_tiles(xs, x0, x0 + w), f"{path.name}: columns do not tile the plot box")
    values = [float(r[2]) for r in rows if r[3] == "0"]
    vmin, vmax = (min(values), max(values)) if values else (0.0, 1.0)
    span = (vmax - vmin) or 1.0
    on_ramp = {}
    for n, (cell, row) in enumerate(zip(cells, rows)):
        fill = cell.get("fill")
        if row[3] == "1":
            need(fill == GRAY, f"{path.name}: singular cell {n} filled {fill}")
            continue
        if fill not in on_ramp:
            lo_t, hi_t = _ramp_interval(fill) if len(fill) == 7 and fill[0] == "#" else (1, 0)
            on_ramp[fill] = lo_t <= hi_t + 1e-9
        need(on_ramp[fill], f"{path.name}: cell {n} fill {fill} is neither gray nor on the ramp")
    for n in {rnd.randrange(nb * ng) for _ in range(256)}:
        if rows[n][3] == "0":
            t = min(max((float(rows[n][2]) - vmin) / span, 0.0), 1.0)
            fill = cells[n].get("fill")
            rgb = (int(fill[1:3], 16), int(fill[3:5], 16), int(fill[5:7], 16))
            want = [lo + t * (hi - lo) for lo, hi in zip(RAMP_LOW, RAMP_HIGH)]
            need(all(abs(c - wv) <= 1.0 for c, wv in zip(rgb, want)),
                 f"{path.name}: cell {n} fill {fill} for ramp position {t:.4f}")
    need(len(root.findall(SVG + "polyline")) == n_polylines,
         f"{path.name}: contour overlay count differs from the contour CSVs")


def _points(poly) -> list[tuple[float, float]]:
    return [tuple(map(float, p.split(","))) for p in poly.get("points").split()]


def check_series_svg(path: Path, n_points: int, stems: int | None = None) -> None:
    root = ET.parse(path).getroot()
    need(root.tag == SVG + "svg", f"{path.name}: root {root.tag}")
    x0, y0, w, h = _box(root)
    polys = root.findall(SVG + "polyline")
    need(len(polys) == 1, f"{path.name}: {len(polys)} polylines")
    pts = _points(polys[0])
    need(len(pts) == n_points, f"{path.name}: {len(pts)} points for {n_points} values")
    need(all(x0 - PX <= x <= x0 + w + PX and y0 - PX <= y <= y0 + h + PX for x, y in pts),
         f"{path.name}: a point lies outside the plot box")
    need(all(a[0] <= b[0] for a, b in zip(pts, pts[1:])), f"{path.name}: x not increasing")
    if stems is not None:
        got = sum(1 for ln in root.findall(SVG + "line")
                  if ln.get("stroke") == STEM and ln.get("stroke-width") == STEM_WIDTH)
        need(got == stems, f"{path.name}: {got} spike stems for {stems} spikes")


def check_bifurcation(path: Path, g: dict) -> None:
    rows = read_csv(path, "beta,g_star")
    need(len(rows) == g["n_beta"], f"{path.name}: {len(rows)} rows")
    betas = [float(r[0]) for r in rows]
    _axis(betas, g["beta_min"], g["beta_max"], "beta")
    for beta, r in zip(betas, rows):
        want = oracle.exact_g_star(g["lambda"], g["k"], g["shock_ratio"], beta, g["sigma_m"])
        need(abs(Fraction(float(r[1])) - want) <= Fraction(16 * ULP) * want,
             f"{path.name}: G*({beta!r}) = {r[1]}, exact {float(want)!r}")


def check_map_op(op: dict, out: Path, rnd: random.Random) -> None:
    check_manifest(out, op)
    g = dict(op["sections"]["grid"])
    g.setdefault("sigma_m", 0.03)
    g.setdefault("k", 2.0)
    sub = op["subcommand"]
    if sub == "bifurcation-scan":
        check_bifurcation(out / "bifurcation.csv", g)
        if op["svg"]:
            check_series_svg(out / "bifurcation.svg", g["n_beta"])
        return
    if sub == "stability-map":
        _, _, rows = check_grid(out / "stability_grid.csv", g, "D", rnd)
        n = check_contour(out / "stability_contour.csv", g, [float(r[2]) > 0 for r in rows], 0.0)
        svg = out / "stability_map.svg"
    else:
        betas, gs, rows = check_grid(out / "amplification_grid.csv", g, "1/D", rnd)
        above_two = [None if r[3] == "1" else float(r[2]) > 2.0 for r in rows]
        n = check_contour(out / "amplification_contour.csv", g, above_two, 2.0)
        d_positive = [g["lambda"] * (1.0 + g["k"] * (g["shock_ratio"] / (b * g["sigma_m"]))) * gv < 1.0
                      for b in betas for gv in gs]
        n += check_contour(out / "stability_contour.csv", g, d_positive, 0.0)
        svg = out / "amplification_map.svg"
    if op["svg"]:
        check_heatmap(svg, g, rows, n, rnd)


# ---------------------------------------------------------------- paths

def model_numbers(model: dict) -> dict:
    """Config or library parameter names -> the replay's names, with defaults."""
    out = dict(MODEL_DEFAULTS)
    out.update(model)
    if "lambda" in out:
        out["lam"] = out.pop("lambda")
    return out


def replay(rows: list[tuple], model: dict, impact: dict, mode: str,
           stoch: dict | None = None, events: dict | None = None) -> None:
    """Check a trajectory (rows of S, dS, m_cum, N, mu, nu) one step at a time
    from the previous row, with the README's equations in plain floats."""
    p = model_numbers(model)
    lam, beta, sig, k, gam = p["lam"], p["beta"], p["sigma_m"], p["k"], p["gamma0"]
    n0, mu0, eta, xi, s0 = p["n0"], p["mu0"], p["eta"], p["xi"], p["s0"]
    kind, c, i_max = impact.get("kind", "tanh"), impact.get("c", 1.0), impact.get("i_max", 1.0)
    sched, eps, cap = {}, None, None
    if mode != "recursive":
        s = dict(STOCH_DEFAULTS)
        s.update(stoch or {})
        cap = oracle.exposure_cap(n0, s["sigma_n"], s["rho"], s["kappa"])
    if mode == "stochastic":
        gen = oracle.Xoshiro(stoch["seed"])
        eps = [gen.normal() for _ in range(len(rows) - 1)]
    if mode == "events":
        sched = oracle.spike_schedule(events["seed"], events["horizon"], events["n_spikes"],
                                      events["max_fraction"], n0)
        bound = events["max_fraction"] * n0
        need(len(sched) == events["n_spikes"] and all(0.0 <= v <= bound for v in sched.values()),
             "spike schedule size or bounds")
        need(sum(1 for r in rows if r[5] != 0.0) == sum(1 for v in sched.values() if v != 0.0),
             "spike count in the nu column")
    need(rows[0] == (s0, 0.0, 0.0, n0, mu0, sched.get(0, 0.0)), f"initial row {rows[0]}")
    for t in range(len(rows) - 1):
        S, dS, m, N, mu, nu = rows[t]
        S1, dS1, m1, N1, mu1, nu1 = rows[t + 1]
        where = f"step {t + 1}"
        need(all(math.isfinite(v) for v in rows[t + 1]), f"{where}: non-finite value")
        if mode == "stochastic":
            a, b = stoch["rho"] * nu, stoch["sigma_n"] * N * eps[t]
            need(within(nu1, a + b, abs(a) + abs(b)), f"{where}: nu {nu1!r}, replay {a + b!r}")
            n_eff = min(max(N + nu1, 0.0), cap)
        elif mode == "events":
            need(nu1 == sched.get(t + 1, 0.0), f"{where}: nu {nu1!r}, schedule {sched.get(t + 1, 0.0)!r}")
            n_eff = min(max(N + nu, 0.0), cap)
        else:
            need(nu1 == 0.0, f"{where}: nu {nu1!r} on a deterministic run")
            n_eff = N
        x = abs(dS / S) / (beta * sig)
        gain = oracle.impact(lam * n_eff * gam * (1.0 + k * x), kind, c, i_max)
        a, b = mu * S, gain * dS
        need(within(dS1, a + b, abs(a) + abs(b)), f"{where}: dS {dS1!r}, replay {a + b!r}")
        need(within(S1, S + dS1, abs(S) + abs(dS1)), f"{where}: S {S1!r}, replay {S + dS1!r}")
        r = abs(dS1 / S)
        need(within(m1, m + r, m + r), f"{where}: m_cum {m1!r}, replay {m + r!r}")
        need(within(N1, n0 / (1.0 + eta * m1 ** xi), N1), f"{where}: N {N1!r}")
        need(within(mu1, mu0 * N1 / n0, mu1), f"{where}: mu {mu1!r}")
        need(m1 >= m and N1 <= N, f"{where}: m_cum decreased or N increased")


def check_path_op(op: dict, out: Path) -> None:
    check_manifest(out, op)
    sections = effective_sections(op)
    horizon = sections["run"]["horizon"]
    rows = read_csv(out / "trajectory.csv", "t,S,dS,m_cum,N,mu,nu")
    need(len(rows) == horizon + 1, f"trajectory.csv: {len(rows)} rows for horizon {horizon}")
    need(all(r[0] == str(t) for t, r in enumerate(rows)), "trajectory.csv: t column")
    states = [tuple(map(float, r[1:])) for r in rows]
    need(all(len(s) == 6 for s in states), "trajectory.csv: ragged row")
    mode = {"simulate": "recursive", "simulate-stochastic": "stochastic",
            "simulate-events": "events"}[op["subcommand"]]
    events = sections.get("events")
    if events is not None:
        events = dict(events, horizon=horizon)
    replay(states, sections["model"], sections["impact"], mode, sections.get("stochastic"), events)
    if op["svg"]:
        stems = sum(1 for s in states if s[5] > 0) if mode == "events" else None
        check_series_svg(out / "trajectory.svg", horizon + 1, stems)


# ---------------------------------------------------------------- sweep

def _rows(traj) -> list[tuple]:
    return [(s.s, s.ds_obs, s.m_cum, s.n_t, s.mu_t, s.nu_t) for s in traj.states]


def check_sweep_op(op: dict, result) -> None:
    kind = op["kind"]
    if kind in ("recursive", "stochastic", "events"):
        rows = _rows(result)
        need(len(rows) == op["horizon"] + 1, f"{len(rows)} states for horizon {op['horizon']}")
        replay(rows, op["model"], op["impact"], kind, op.get("stoch"), op.get("events"))
    elif kind == "one_shot":
        p = model_numbers(op["model"])
        rows = _rows(result)
        need(len(rows) == op["horizon"] + 1, f"{len(rows)} states")
        shock = p["mu0"] * p["s0"]
        x = abs(shock / p["s0"]) / (p["beta"] * p["sigma_m"])
        gain = oracle.impact(p["lam"] * p["n0"] * p["gamma0"] * (1.0 + p["k"] * x),
                             op["impact"]["kind"], op["impact"].get("c", 1.0), 1.0)
        ds1 = shock + gain * shock
        need(rows[0] == (p["s0"], 0.0, 0.0, p["n0"], p["mu0"], 0.0), f"initial state {rows[0]}")
        s1, d1, m1 = rows[1][:3]
        need(within(d1, ds1, abs(shock) + abs(gain * shock)), f"one-shot jump {d1!r}")
        need(within(s1, p["s0"] + d1, p["s0"] + abs(d1)) and within(m1, abs(d1 / p["s0"]), m1),
             f"one-shot state after the jump {rows[1]}")
        plateau = (rows[1][0], 0.0, rows[1][2], p["n0"], 0.0, 0.0)
        need(all(r == plateau for r in rows[2:]), "one-shot path is not flat after the jump")
    elif kind in ("curve_d", "curve_static", "curve_gstar"):
        p = model_numbers(op["model"])
        shock = op["shock"]
        need(len(result) == len(op["betas"]), "curve length")
        for beta, v in zip(op["betas"], result):
            if kind == "curve_gstar":
                want = oracle.exact_g_star(p["lam"], p["k"], shock, beta, p["sigma_m"])
                need(abs(Fraction(v) - want) <= Fraction(16 * ULP) * want, f"G*({beta!r}) = {v!r}")
                continue
            load = oracle.exact_load(p["lam"], p["n0"] * p["gamma0"], p["k"], shock, beta,
                                     p["sigma_m"])
            d = 1 - load
            tol = Fraction(24 * ULP) * (1 + load)
            if kind == "curve_d":
                need(abs(Fraction(v) - d) <= tol, f"D({beta!r}) = {v!r}, exact {float(d)!r}")
            elif d > Fraction(EPS_SINGULAR) + tol:
                want = Fraction(shock) * Fraction(p["s0"]) / d
                need(v is not None and abs(Fraction(v) - want) <= (2 * tol / d + Fraction(4 * ULP)) * want,
                     f"static response at beta {beta!r} is {v!r}, exact {float(want)!r}")
            elif d <= Fraction(EPS_SINGULAR) - tol:
                need(v is None, f"static response at beta {beta!r} did not raise for D = {float(d)!r}")
    elif kind == "fixed_point":
        for (a, f), rep in zip(op["pairs"], result, strict=True):
            fa, ff = Fraction(a), Fraction(f)
            tol = Fraction(1, 10 ** 9)
            if abs(ff - 1) <= tol:
                want = "blowup_boundary"
            elif abs(ff + 1) <= tol:
                want = "flip_boundary"
            else:
                want = "stable" if abs(ff) < 1 else "unstable"
            need(rep.classification.value == want, f"f = {f!r} classified {rep.classification.value}")
            if abs(1 - ff) <= Fraction(EPS_SINGULAR):
                need(rep.fixed_point is None, f"f = {f!r} has a fixed point")
            else:
                exact = fa / (1 - ff)
                bound = (2 * Fraction(ULP) * (1 + abs(ff)) / abs(1 - ff) + Fraction(ULP)) * abs(exact)
                need(rep.fixed_point is not None and abs(Fraction(rep.fixed_point) - exact) <= bound,
                     f"fixed point of ({a!r}, {f!r}) is {rep.fixed_point!r}, exact {float(exact)!r}")
    elif kind == "linearized":
        for (model, imp), f in zip(op["cases"], result, strict=True):
            p = model_numbers(model)
            y = float(Fraction(p["lam"]) * Fraction(p["n0"]) * Fraction(p["gamma0"]))
            want = oracle.impact(y, imp["kind"], imp.get("c", 1.0), imp.get("i_max", 1.0))
            need(abs(f - want) <= 1e-13 * abs(want), f"I({y!r}) = {f!r}, expected {want!r}")
    elif kind == "u64":
        need(len(result) == op["n"], "bulk length")
        gen = oracle.Xoshiro(op["seed"])
        head = [int(v) for v in result[:2048]]
        need(head == [gen.u64() for _ in head], "u64_array differs from the reference stream")
    elif kind == "normals":
        n = op["n"]
        need(len(result) == n, "bulk length")
        gen = oracle.Xoshiro(op["seed"])
        for i, v in enumerate(result[:64]):
            want = gen.normal()
            need(abs(float(v) - want) <= 1e-14 * max(1.0, abs(want)), f"normal {i} = {v!r}, scalar {want!r}")
        mean = math.fsum(map(float, result)) / n
        std = math.sqrt(math.fsum((float(v) - mean) ** 2 for v in result) / (n - 1))
        need(abs(mean) <= 6 / math.sqrt(n), f"mean of {n} normals is {mean}")
        need(abs(std - 1.0) <= 6 / math.sqrt(2 * n), f"std of {n} normals is {std}")
    else:
        raise CheckError(f"unknown sweep op {kind!r}")


def check_sweep_grid(ops: list[dict], results: list) -> dict[int, str]:
    """Cross-op properties, as op index -> failure: the sigma_n = 0 run equals
    the recursion; one-shot plateaus rise with mu0 and do not rise with beta."""
    failures = {}
    first = next(i for i, op in enumerate(ops) if op["kind"] == "recursive")
    zero = next(i for i, op in enumerate(ops)
                if op["kind"] == "stochastic" and op["stoch"]["sigma_n"] == 0.0)
    if _rows(results[zero]) != _rows(results[first]):
        failures[zero] = "sigma_n = 0 run differs from the recursion"
    plateau = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        if op["kind"] == "one_shot":
            plateau[(op["model"]["beta"], op["model"]["mu0"])] = (i, res.states[-1].s)
    betas = sorted({b for b, _ in plateau})
    mus = sorted({m for _, m in plateau})
    for b in betas:
        for m1, m2 in zip(mus, mus[1:]):
            if not plateau[(b, m1)][1] < plateau[(b, m2)][1]:
                failures[plateau[(b, m2)][0]] = f"one-shot plateau not increasing in mu0 at beta {b}"
    for m in mus:
        for b1, b2 in zip(betas, betas[1:]):
            if not plateau[(b1, m)][1] >= plateau[(b2, m)][1]:
                failures[plateau[(b2, m)][0]] = f"one-shot plateau increases in beta at mu0 {m}"
    return failures
