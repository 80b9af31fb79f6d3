"""The names the benchmark's tracer wraps must stay where it looks for them.

``bench/spans.py`` records per-layer spans by replacing module attributes
(``runner.trajectory_csv``, ``cli.parse_config``, ...) with timing wrappers.
That only works while each name is a module-level callable that its caller
looks up at call time. This test loads the target lists read-only from
``bench/`` and checks both.
"""

import sys
from pathlib import Path

import pytest

from gammafeedback.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"

SIM_CFG = """
[model]
lambda = 0.05
beta = 1.0
mu0 = 0.025
n0 = 200
gamma0 = 1.0

[impact]
kind = tanh

[stochastic]
seed = 7

[events]
n_spikes = 5
seed = 7

[run]
horizon = 50
"""

GRID_CFG = """
[grid]
beta_min = 0.2
beta_max = 3.0
g_min = 0
g_max = 300
n_beta = 12
n_g = 12
shock_ratio = 0.05
lambda = 0.003
"""


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        import spans as module
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_every_target_is_a_callable_attribute(spans):
    for path, attr, name in spans.CLI_TARGETS + spans.LIBRARY_TARGETS:
        owner = spans._resolve(path)
        assert attr in owner.__dict__, f"{path}.{attr} ({name}) is gone"
        assert callable(owner.__dict__[attr]), f"{path}.{attr} ({name}) is not callable"


def test_cli_runs_record_runner_level_spans(spans, tmp_path):
    sim = tmp_path / "sim.cfg"
    sim.write_text(SIM_CFG)
    grid = tmp_path / "grid.cfg"
    grid.write_text(GRID_CFG)
    tracer = spans.Tracer()
    tracer.install(spans.CLI_TARGETS + spans.LIBRARY_TARGETS)
    runs = [("simulate", sim, []), ("simulate-stochastic", sim, []), ("simulate-events", sim, []),
            ("stability-map", grid, []), ("bifurcation-scan", grid, []),
            # the SVG renderers record spans of their own
            ("simulate", sim, ["--svg"]), ("simulate-events", sim, ["--svg"]),
            ("stability-map", grid, ["--svg"]), ("bifurcation-scan", grid, ["--svg"])]
    try:
        for i, (sub, cfg, flags) in enumerate(runs):
            assert main([sub, "--config", str(cfg), "--out", str(tmp_path / str(i)),
                         "--quiet", *flags]) == 0
    finally:
        tracer.uninstall()
    recorded = {span[1] for span in tracer.spans}
    for name in ("config.parse_config", "runner.run_subcommand", "config.render_config",
                 "dynamics.simulate_recursive", "stochastic.simulate_stochastic",
                 "stochastic.simulate_event_driven", "stochastic.generate_event_spikes",
                 "artifacts.trajectory_csv",
                 "analysis.stability_grid", "analysis.extract_contour",
                 "analysis.critical_exposure", "artifacts.curve_csv",
                 "artifacts.grid_csv", "artifacts.contour_csv", "artifacts.sha256_hex",
                 "svgplot.heatmap_svg", "svgplot.timeseries_svg", "svgplot.event_series_svg",
                 "svgplot.line_chart_svg"):
        assert name in recorded, f"no span for {name}"
