"""
Subcommand orchestration: compute, write artifacts, record the manifest.

Each run owns a fresh output directory. An existing non-empty one is refused
before anything is computed, never overwritten. A run streams its CSV
artifacts and an optional SVG to their files one at a time, each written
and digested chunk by chunk as its writer formats it. It then writes a
``config.resolved.cfg`` with every default filled in and a ``manifest.json``
with SHA-256 digests of all outputs and ``duration_seconds``, the wall time
to compute, format, write and digest them. A failed run removes what it
wrote: its files and the directories it made. Re-running the resolved
config reproduces the digests exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from collections.abc import Iterable
from pathlib import Path

from . import __version__, artifacts, svgplot
from .analysis import (amplification_grid, analyze_fixed_point, critical_exposure,
                       extract_contour, linearized_feedback, stability_grid)
from .artifacts import contour_csv, curve_csv, grid_csv, trajectory_csv
from .config import ConfigError, RunConfig, render_config
from .dynamics import simulate_recursive
from .model import stability_denominator, static_response
from .rng import PRNG_ID
from .stochastic import simulate_event_driven, simulate_stochastic
from .svgplot import line_chart_svg

# Each compute below yields (filename, chunks) pairs, one output at a time, so
# the runner writes each before the next is built; chunks is a one-shot
# iterator that formats each chunk only when the runner asks for it. The
# runner looks the library functions up as module globals when it runs, so a
# wrapper installed on this module's names sees every call (but not the
# formatting, which runs as the runner iterates); the SVG renderers
# (``svgplot.heatmap_svg`` and the rest) and ``artifacts.sha256_hex`` are
# looked up on their modules for the same reason.


def _finite(what: str, value: float) -> float:
    """``value``, once it is finite; ``what`` names the keys it derives from."""
    if not math.isfinite(value):
        raise ConfigError(f"{what} is {value!r}: not a finite number")
    return value


def _stability_map(config: RunConfig):
    scan = stability_grid(config.grid)
    contour = extract_contour(config.grid, 0.0)
    yield "stability_grid.csv", grid_csv(scan)
    yield "stability_contour.csv", contour_csv(contour)
    if config.emit_svg:
        yield "stability_map.svg", svgplot.heatmap_svg(
            scan, contours=[(contour, "#000000", "6,4")], title="Stability denominator")


def _amplification_map(config: RunConfig):
    ascan = amplification_grid(config.grid)
    amp2 = extract_contour(config.grid, 0.5)  # 1/D = 2 is D = 1/2
    d0 = extract_contour(config.grid, 0.0)
    yield "amplification_grid.csv", grid_csv(ascan)
    yield "amplification_contour.csv", contour_csv(amp2)
    yield "stability_contour.csv", contour_csv(d0)
    if config.emit_svg:
        yield "amplification_map.svg", svgplot.heatmap_svg(
            ascan, contours=[(amp2, "#cc0000", "8,3,2,3"), (d0, "#000000", "6,4")],
            title="Amplification")


def _static_response(config: RunConfig):
    model = config.model
    shock = model.mu0
    # the surprise x is |dS/S|, so D sees the size of the shock, ds its sign
    d = stability_denominator(model, abs(shock))
    ds = static_response(model, shock, model.s0, x_shock_ratio=abs(shock))
    # a D at or below EPS_SINGULAR, -inf included, was singular (exit 3) above
    _finite("D = 1 - [model] lambda * n0 * gamma0 * (1 + k*x)", d)
    _finite("ds = [model] mu0 * s0 / D", ds)
    header = "shock_ratio,s0,stability_denominator,ds,amplification\n"
    row = f"{shock!r},{model.s0!r},{d!r},{ds!r},{_finite('1/D', 1.0 / d)!r}\n"
    yield "static_response.csv", iter((header, row))


def _trajectory(simulate, chart):
    """The compute of a path subcommand: one trajectory and its chart."""
    def compute(config: RunConfig):
        traj = simulate(config)
        yield "trajectory.csv", trajectory_csv(traj)
        if config.emit_svg:
            yield "trajectory.svg", chart(traj)
    return compute


def _bifurcation_scan(config: RunConfig):
    grid = config.grid
    if not grid.lam > 0:  # at lambda <= 0, D = 1 - lambda * G * (1 + k*x) never reaches 0
        raise ConfigError(f"[grid] lambda must be > 0 (got {grid.lam})")
    betas = grid.betas()
    roots = [_finite("G* = 1 / ([grid] lambda * (1 + k*x))",
                     critical_exposure(grid.lam, b, grid.shock_ratio, grid.sigma_m, grid.k))
             for b in betas]
    yield "bifurcation.csv", curve_csv(betas, roots)
    if config.emit_svg:
        yield "bifurcation.svg", line_chart_svg(betas, roots, title="Critical exposure",
                                                xlabel="beta", ylabel="G*")


def _fixed_point(config: RunConfig):
    model = config.model
    a = _finite("a = [model] mu0 * s0", model.mu0 * model.s0)
    f = _finite("f = I([model] lambda * n0 * gamma0)", linearized_feedback(model, config.impact))
    report = analyze_fixed_point(a, f)
    fp = report.fixed_point
    if fp is not None:
        _finite("the fixed point a / (1 - f) of [model] mu0 * s0", fp)
    header = "a,f,fixed_point,singular,classification\n"
    row = (
        f"{a!r},{f!r},{0.0 if fp is None else fp!r},"
        f"{int(fp is None)},{report.classification.value}\n"
    )
    yield "fixed_point.csv", iter((header, row))


# name -> (required sections, needs [run] horizon, compute)
_SUBCOMMANDS = {
    "stability-map": (("grid",), False, _stability_map),
    "amplification-map": (("grid",), False, _amplification_map),
    "static-response": (("model",), False, _static_response),
    "simulate": (("model", "impact"), True, _trajectory(
        lambda c: simulate_recursive(c.model, c.impact, c.horizon),
        lambda t: svgplot.timeseries_svg([t], title="Recursive feedback"))),
    "simulate-stochastic": (("model", "impact", "stochastic"), True, _trajectory(
        lambda c: simulate_stochastic(c.model, c.impact, c.stochastic, c.horizon),
        lambda t: svgplot.timeseries_svg([t], title="Stochastic exposure"))),
    "simulate-events": (("model", "impact", "events"), True, _trajectory(
        lambda c: simulate_event_driven(c.model, c.impact, c.events, c.stochastic),
        lambda t: svgplot.event_series_svg(t, title="Event-driven exposure"))),
    "bifurcation-scan": (("grid",), False, _bifurcation_scan),
    "fixed-point": (("model", "impact"), False, _fixed_point),
}
SUBCOMMANDS = tuple(_SUBCOMMANDS)

# Sections whose seed a run records in its manifest.
_SEEDED = ("stochastic", "events")


def validate_for_subcommand(name: str, config: RunConfig) -> None:
    if name not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {name!r}")
    sections, needs_horizon, _ = _SUBCOMMANDS[name]
    missing = ", ".join(f"[{s}]" for s in sections if getattr(config, s) is None)
    if missing:
        raise ConfigError(f"subcommand {name} requires section(s): {missing}")
    if needs_horizon and config.horizon is None:
        raise ConfigError(f"subcommand {name} requires [run] horizon")


def apply_seed_override(config: RunConfig, seed: int) -> RunConfig:
    """Return a copy with both stochastic and event seeds replaced."""
    out = dataclasses.replace(config)
    if out.stochastic is not None:
        out.stochastic = dataclasses.replace(out.stochastic, seed=seed)
    if out.events is not None:
        out.events = dataclasses.replace(out.events, seed=seed)
    return out


def _encoded(file, chunks: Iterable[str]):
    """Each chunk encoded once, written, then digested: "\n" ends lines everywhere."""
    for chunk in chunks:
        data = chunk.encode("utf-8")
        file.write(data)
        yield data


def run_subcommand(name: str, config: RunConfig, out_dir: str | Path) -> dict:
    """Execute a subcommand, write all artifacts plus ``manifest.json``, and
    return the manifest that file holds."""
    validate_for_subcommand(name, config)
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise FileExistsError(f"output directory {out} is not empty; refusing to overwrite")

    sections, _, compute = _SUBCOMMANDS[name]
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    written = []  # removed, with the directories in made, if the run fails

    def write(filename: str, chunks: Iterable[str]) -> dict:
        written.append(out / filename)
        with open(written[-1], "wb") as file:
            return {"path": filename, "sha256": artifacts.sha256_hex(_encoded(file, chunks))}

    try:
        out.mkdir(parents=True, exist_ok=True)
        outputs, start = [], time.perf_counter()
        for filename, chunks in compute(config):
            outputs.append(write(filename, chunks))
        duration = time.perf_counter() - start
        resolved = render_config(config)
        outputs.append(write("config.resolved.cfg", [resolved]))
        manifest = {
            "tool": "gammafeedback",
            "version": __version__,
            "subcommand": name,
            "seeds": {s: getattr(config, s).seed for s in sections if s in _SEEDED},
            "prng": PRNG_ID,
            "duration_seconds": duration,
            "outputs": outputs,
            "config": resolved,
        }
        written.append(out / "manifest.json")
        written[-1].write_bytes(json.dumps(manifest, indent=2).encode("utf-8"))
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for directory in made:
            directory.rmdir()
        raise
    return manifest
