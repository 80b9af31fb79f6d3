"""End-to-end CLI runs: artifacts, manifests, exit codes, reproducibility.

Most cases drive main() in-process; two spot checks go through a real
subprocess to cover the console entry point.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gammafeedback import config, parse_config, runner, svgplot
from gammafeedback.artifacts import sha256_hex
from gammafeedback.cli import main
from gammafeedback.runner import SUBCOMMANDS, run_subcommand
from test_golden import README
from writer_reference import read_trajectory_csv

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
seed = 31337

[run]
horizon = 150
"""

GRID_CFG = """
[grid]
beta_min = 0.2
beta_max = 3.0
g_min = 0
g_max = 300
n_beta = 40
n_g = 40
shock_ratio = 0.05
lambda = 0.003

[run]
"""

EVENTS_CFG = SIM_CFG.replace("[stochastic]", "[events]").replace(
    "seed = 31337", "seed = 31337\nn_spikes = 20"
)


@pytest.fixture
def cfg(tmp_path):
    def write(text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return path
    return write


class TestSubcommands:
    def test_simulate(self, tmp_path, cfg):
        rc = main(["simulate", "--config", str(cfg(SIM_CFG)),
                   "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 0
        states = read_trajectory_csv((tmp_path / "out" / "trajectory.csv").read_text())
        assert len(states) == 151
        assert all(st.nu_t == 0.0 for st in states)

    def test_simulate_stochastic_and_events(self, tmp_path, cfg):
        rc = main(["simulate-stochastic", "--config", str(cfg(SIM_CFG)),
                   "--out", str(tmp_path / "a"), "--quiet"])
        assert rc == 0
        rc = main(["simulate-events", "--config", str(cfg(EVENTS_CFG)),
                   "--out", str(tmp_path / "b"), "--quiet"])
        assert rc == 0
        states = read_trajectory_csv((tmp_path / "b" / "trajectory.csv").read_text())
        assert sum(1 for st in states if st.nu_t > 0) == 20

    def test_stability_map_outputs(self, tmp_path, cfg):
        rc = main(["stability-map", "--config", str(cfg(GRID_CFG)),
                   "--out", str(tmp_path / "map"), "--svg", "--quiet"])
        assert rc == 0
        out = tmp_path / "map"
        grid_lines = (out / "stability_grid.csv").read_text().strip().split("\n")
        assert len(grid_lines) == 1 + 40 * 40
        assert (out / "stability_contour.csv").exists()
        assert (out / "stability_map.svg").read_text().startswith("<svg")

    def test_amplification_map_outputs(self, tmp_path, cfg):
        rc = main(["amplification-map", "--config", str(cfg(GRID_CFG)),
                   "--out", str(tmp_path / "amp"), "--quiet"])
        assert rc == 0
        out = tmp_path / "amp"
        assert (out / "amplification_grid.csv").exists()
        assert (out / "amplification_contour.csv").exists()
        assert (out / "stability_contour.csv").exists()

    @pytest.mark.parametrize("svg", [[], ["--svg"]], ids=["csv", "svg"])
    def test_both_maps_write_one_threshold_curve(self, tmp_path, cfg, svg):
        # both maps draw D = 0 from the same [grid]: the same bytes
        path = cfg(GRID_CFG)
        for sub in ("stability-map", "amplification-map"):
            assert main([sub, "--config", str(path), "--out", str(tmp_path / sub),
                         "--quiet", *svg]) == 0
        curve = (tmp_path / "stability-map" / "stability_contour.csv").read_bytes()
        assert curve.count(b"\n") > 1
        assert curve == (tmp_path / "amplification-map" / "stability_contour.csv").read_bytes()

    def test_simulate_svg_outputs(self, tmp_path, cfg):
        rc = main(["simulate", "--config", str(cfg(SIM_CFG)),
                   "--out", str(tmp_path / "s"), "--svg", "--quiet"])
        assert rc == 0
        assert (tmp_path / "s" / "trajectory.svg").read_text().startswith("<svg")
        rc = main(["simulate-events", "--config", str(cfg(EVENTS_CFG)),
                   "--out", str(tmp_path / "e"), "--svg", "--quiet"])
        assert rc == 0
        svg = (tmp_path / "e" / "trajectory.svg").read_text()
        assert ">nu</text>" in svg  # dual-axis stem layout for event runs

    def test_output_dir_from_config_file(self, tmp_path, cfg):
        text = SIM_CFG.replace("horizon = 150",
                               f"horizon = 150\nout = {tmp_path / 'from_cfg'}")
        rc = main(["simulate", "--config", str(cfg(text)), "--quiet"])
        assert rc == 0
        assert (tmp_path / "from_cfg" / "trajectory.csv").exists()

    def test_bifurcation_scan(self, tmp_path, cfg):
        rc = main(["bifurcation-scan", "--config", str(cfg(GRID_CFG)),
                   "--out", str(tmp_path / "bif"), "--quiet"])
        assert rc == 0
        lines = (tmp_path / "bif" / "bifurcation.csv").read_text().strip().split("\n")
        assert lines[0] == "beta,g_star"
        assert len(lines) == 1 + 40

    def test_static_response_and_fixed_point(self, tmp_path, cfg):
        soft = SIM_CFG.replace("lambda = 0.05", "lambda = 0.001")
        rc = main(["static-response", "--config", str(cfg(soft)),
                   "--out", str(tmp_path / "sr"), "--quiet"])
        assert rc == 0
        text = (tmp_path / "sr" / "static_response.csv").read_text()
        assert text.startswith("shock_ratio,s0,stability_denominator,ds,amplification")
        rc = main(["fixed-point", "--config", str(cfg(SIM_CFG)),
                   "--out", str(tmp_path / "fp"), "--quiet"])
        assert rc == 0
        assert "classification" in (tmp_path / "fp" / "fixed_point.csv").read_text()


    def test_downward_shock_static_response(self, tmp_path, cfg):
        # D sees the size of the shock |mu0|, and ds keeps its sign
        soft = SIM_CFG.replace("lambda = 0.05", "lambda = 0.001")
        rows = {}
        for mu0 in ("0.02", "-0.02"):
            rc = main(["static-response", "--config",
                       str(cfg(soft.replace("mu0 = 0.025", f"mu0 = {mu0}"))),
                       "--out", str(tmp_path / mu0), "--quiet"])
            assert rc == 0
            text = (tmp_path / mu0 / "static_response.csv").read_text()
            rows[mu0] = dict(zip(*(line.split(",") for line in text.splitlines())))
        up, down = rows["0.02"], rows["-0.02"]
        assert down["shock_ratio"] == "-0.02"
        assert down["stability_denominator"] == up["stability_denominator"]
        assert down["amplification"] == up["amplification"]
        assert float(down["ds"]) == -float(up["ds"]) < 0


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, cfg):
        bad = SIM_CFG.replace("beta = 1.0", "beta = -1")
        rc = main(["simulate", "--config", str(cfg(bad)),
                   "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 2

    def test_missing_section_is_2(self, tmp_path, cfg):
        rc = main(["simulate", "--config", str(cfg(GRID_CFG)),
                   "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 2

    def test_numerical_error_is_3(self, tmp_path, cfg):
        # mu0=0.05 at lambda=0.003, G=100 puts D at -0.3: singular regime
        singular = """
[model]
lambda = 0.003
beta = 1.0
mu0 = 0.05
n0 = 100
gamma0 = 1.0

[run]
"""
        rc = main(["static-response", "--config", str(cfg(singular)),
                   "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 3

    def test_overflow_is_3(self, tmp_path, cfg):
        divergent = SIM_CFG.replace("kind = tanh", "kind = linear").replace(
            "horizon = 150", "horizon = 3000"
        ).replace("[model]", "[model]\neta = 0\nk = 0\n")
        rc = main(["simulate", "--config", str(cfg(divergent)),
                   "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 3

    @pytest.mark.parametrize("mu0, horizon, step", [(-0.3, 200, 2), (-1.5, 1, 1)])
    def test_nonpositive_price_is_3(self, tmp_path, cfg, capsys, mu0, horizon, step):
        # a downward shock that drives S to or below 0 is numerical, not config
        wipeout = (SIM_CFG.replace("lambda = 0.05", "lambda = 0.003")
                   .replace("beta = 1.0", "beta = 0.5").replace("mu0 = 0.025", f"mu0 = {mu0}")
                   .replace("kind = tanh", "kind = linear")
                   .replace("horizon = 150", f"horizon = {horizon}"))
        rc = main(["simulate", "--config", str(cfg(wipeout)),
                   "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "numerical"
        assert error["message"].endswith(f"at step {step}")
        assert not (tmp_path / "x").exists()

    def test_position_decay_overflow_is_3(self, tmp_path, cfg, capsys):
        # m**xi overflows a double: Python raises where the product would be inf
        runaway = (SIM_CFG.replace("mu0 = 0.025", "mu0 = 1e9\nxi = 40")
                   .replace("horizon = 150", "horizon = 50"))
        rc = main(["simulate", "--config", str(cfg(runaway)),
                   "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "numerical"
        assert "m**xi overflowed" in error["message"]
        assert error["message"].endswith("at step 1")

    @pytest.mark.parametrize("max_fraction, n0", [("inf", "200"), ("1e307", "100")])
    def test_infinite_spike_bound_is_2(self, tmp_path, cfg, capsys, max_fraction, n0):
        # max_fraction * n0 beyond the largest double would draw inf spikes
        unbounded = (EVENTS_CFG.replace("n0 = 200", f"n0 = {n0}")
                     .replace("n_spikes = 20", f"n_spikes = 20\nmax_fraction = {max_fraction}"))
        rc = main(["simulate-events", "--config", str(cfg(unbounded)),
                   "--out", str(tmp_path / "x"), "--svg", "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "config"
        assert "max_fraction * n0 must be finite" in error["message"]
        assert not (tmp_path / "x").exists()

    def test_unreadable_config_is_4(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "missing.cfg"),
                   "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 4

    def test_nonempty_output_dir_is_4(self, tmp_path, cfg):
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "stale.txt").write_text("old run")
        rc = main(["simulate", "--config", str(cfg(SIM_CFG)),
                   "--out", str(out), "--quiet"])
        assert rc == 4
        assert (out / "stale.txt").read_text() == "old run"

    def test_missing_out_is_2(self, cfg):
        rc = main(["simulate", "--config", str(cfg(SIM_CFG)), "--quiet"])
        assert rc == 2

    @pytest.mark.parametrize("subcommand, text, out, code, kind", [
        # a ConfigError from the parser, and one from the run (missing section)
        ("simulate", SIM_CFG.replace("beta = 1.0", "beta = -1"), "fresh", 2, "config"),
        ("simulate", GRID_CFG, "fresh", 2, "config"),
        # a ConfigError from the run: runner._bifurcation_scan rejects
        # lambda <= 0 before any critical exposure is sought
        ("bifurcation-scan", GRID_CFG.replace("lambda = 0.003", "lambda = 0"), "fresh", 2,
         "config"),
        # SingularDenominator: D = -0.3
        ("static-response", "[model]\nlambda = 0.003\nbeta = 1.0\nmu0 = 0.05\nn0 = 100\n"
         "gamma0 = 1.0\n", "fresh", 3, "numerical"),
        # NumericalOverflow: the position decay's m**xi
        ("simulate", SIM_CFG.replace("mu0 = 0.025", "mu0 = 1e9\nxi = 40"), "fresh", 3,
         "numerical"),
        # FileExistsError, and an OSError that is not one: --out names a file
        ("simulate", SIM_CFG, "occupied", 4, "io"),
        ("simulate", SIM_CFG, "file", 4, "io"),
    ], ids=["parse", "missing-section", "value-error", "singular", "overflow", "occupied",
            "out-is-file"])
    def test_error_ladder(self, tmp_path, cfg, capsys, subcommand, text, out, code, kind):
        target = tmp_path / "out"
        if out == "occupied":
            target.mkdir()
            (target / "stale.txt").write_text("old run")
        elif out == "file":
            target.write_text("a file")
        rc = main([subcommand, "--config", str(cfg(text)), "--out", str(target), "--quiet"])
        assert rc == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == kind
        if out == "fresh":
            # a failed run removes the directory it made
            assert not target.exists()

    @pytest.mark.parametrize("argv, text", [
        (["warp"], SIM_CFG),
        (["simulate", "--config"], None),
        (["simulate", "--seed", "abc"], SIM_CFG),
        (["simulate", "--bogus"], SIM_CFG),
        (["simulate"], b"\xff"),
    ], ids=["unknown-subcommand", "missing-config", "seed-not-int", "unknown-flag",
            "config-not-utf8"])
    def test_front_door_errors_are_one_json_line(self, tmp_path, capsys, argv, text):
        target = tmp_path / "out"
        if text is not None:
            path = tmp_path / "run.cfg"
            if isinstance(text, bytes):
                path.write_bytes(text)
            else:
                path.write_text(text)
            argv = [*argv, "--config", str(path)]
        rc = main([*argv, "--out", str(target), "--quiet"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "config"
        assert not target.exists()

    def test_options_may_precede_the_subcommand(self, tmp_path, cfg):
        rc = main(["--config", str(cfg(SIM_CFG)), "--out", str(tmp_path / "out"), "--quiet",
                   "simulate"])
        assert rc == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_underflowing_surprise_scale_is_2(self, tmp_path, cfg, capsys, subcommand):
        # beta and sigma_m are positive, but their product rounds to 0 and
        # every surprise x divides by it
        if subcommand in ("stability-map", "amplification-map", "bifurcation-scan"):
            text = GRID_CFG.replace("beta_min = 0.2", "beta_min = 1e-200\nsigma_m = 1e-200")
        else:
            text = (EVENTS_CFG if subcommand == "simulate-events" else SIM_CFG).replace(
                "beta = 1.0", "beta = 1e-200\nsigma_m = 1e-200")
        rc = main([subcommand, "--config", str(cfg(text)), "--out", str(tmp_path / "x"),
                   "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "config"
        assert "beta" in error["message"] and "sigma_m" in error["message"]
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("subcommand, text, key", [
        # a NaN that reached the computation would write a G* or a row of nan
        ("bifurcation-scan", GRID_CFG.replace("[run]", "k = nan\n[run]"), "[grid] k "),
        ("static-response", SIM_CFG.replace("lambda = 0.05", "lambda = nan"), "[model] lam "),
    ], ids=["grid-k", "model-lambda"])
    def test_nan_config_value_is_2(self, tmp_path, cfg, capsys, subcommand, text, key):
        rc = main([subcommand, "--config", str(cfg(text)), "--out", str(tmp_path / "x"),
                   "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "config"
        assert error["message"].startswith(key)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("subcommand", ["stability-map", "amplification-map",
                                            "bifurcation-scan"])
    @pytest.mark.parametrize("bound, text", [
        ("beta_max", GRID_CFG.replace("beta_max = 3.0", "beta_max = inf")),
        ("g_max", GRID_CFG.replace("g_max = 300", "g_max = inf")),
    ], ids=["beta-max-inf", "g-max-inf"])
    def test_infinite_axis_names_its_bounds(self, tmp_path, cfg, capsys, subcommand, bound,
                                            text):
        # an infinite span would make nan and inf nodes; bifurcation-scan,
        # which reads only the beta axis, rejects an infinite g_max too
        rc = main([subcommand, "--config", str(cfg(text)), "--out", str(tmp_path / "x"),
                   "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "config"
        assert error["message"].startswith(f"[grid] {bound} - ")
        assert bound in error["message"] and "inf" in error["message"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("subcommand", ["stability-map", "amplification-map"])
    def test_overflowing_grid_names_its_keys(self, tmp_path, cfg, capsys, subcommand):
        # the surprise x at beta_min is 1e310: the cells would be -inf
        text = GRID_CFG.replace("beta_min = 0.2", "beta_min = 1e-300\nsigma_m = 1e-10").replace(
            "shock_ratio = 0.05", "shock_ratio = 1.0")
        rc = main([subcommand, "--config", str(cfg(text)), "--out", str(tmp_path / "x"),
                   "--quiet"])
        assert rc == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config"
        for key in ("lambda", "k", "shock_ratio", "beta_min", "sigma_m", "g_max"):
            assert key in error["message"]

    @pytest.mark.parametrize("subcommand, text", [
        ("static-response", SIM_CFG.replace("mu0 = 0.025", "mu0 = 0").replace(
            "[impact]", "k = inf\n[impact]")),
        ("bifurcation-scan", GRID_CFG.replace("shock_ratio = 0.05", "shock_ratio = 0").replace(
            "[run]", "k = inf\n[run]")),
    ], ids=["static-response", "bifurcation-scan"])
    def test_infinite_k_at_zero_shock_is_2(self, tmp_path, cfg, capsys, subcommand, text):
        # 1 + k * x is inf * 0: it would write a row of nan
        rc = main([subcommand, "--config", str(cfg(text)), "--out", str(tmp_path / "x"),
                   "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "config"
        assert error["message"] == "1 + k * x is nan (k = inf, x = 0.0)"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("lam", ["-1", "0"])
    def test_bifurcation_scan_needs_positive_lambda(self, tmp_path, cfg, capsys, lam):
        # at lambda <= 0 D never reaches 0, so there is no critical exposure
        text = GRID_CFG.replace("lambda = 0.003", f"lambda = {lam}")
        rc = main(["bifurcation-scan", "--config", str(cfg(text)), "--out",
                   str(tmp_path / "x"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "config",
                                   "message": f"[grid] lambda must be > 0 (got {float(lam)})"}
        assert not (tmp_path / "x").exists()

    def test_every_section_present_is_validated(self, tmp_path, cfg, capsys):
        # stability-map requires only [grid], but it parses and checks the
        # [stochastic] section it does not use
        text = GRID_CFG + "\n[stochastic]\nrho = 0.5\n"
        assert main(["stability-map", "--config", str(cfg(text)), "--out",
                     str(tmp_path / "ok"), "--quiet"]) == 0
        text = text.replace("rho = 0.5", "rho = 2")
        rc = main(["stability-map", "--config", str(cfg(text)), "--out", str(tmp_path / "x"),
                   "--quiet"])
        assert rc == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "config",
                         "message": "[stochastic] rho must satisfy |rho| < 1 (got 2.0)"}
        assert not (tmp_path / "x").exists()


class TestFailedRunRemovesWhatItWrote:
    """Each output is on disk as soon as it is built, so a run that fails
    later removes its files and the directories it made, and only those."""

    @staticmethod
    def _target(tmp_path, layout):
        out = tmp_path / ("a/b/c" if layout == "nested" else "out")
        if layout == "existing-empty":
            out.mkdir()
        return out

    @staticmethod
    def _left(layout):
        """What the failed run must leave in tmp_path: the config, and the
        directory only if it was there before."""
        return ["out", "run.cfg"] if layout == "existing-empty" else ["run.cfg"]

    @pytest.mark.parametrize("layout", ["fresh", "nested", "existing-empty"])
    @pytest.mark.parametrize("error, code, kind", [
        (ValueError("the finite cells span inf, beyond the largest double"), 2, "config"),
        (OSError(28, "No space left on device"), 4, "io"),
    ], ids=["value-error", "os-error"])
    def test_heatmap_failure_after_the_grid_csvs(self, tmp_path, cfg, capsys, monkeypatch,
                                                 layout, error, code, kind):
        out = self._target(tmp_path, layout)
        on_disk = []

        def failing_heatmap(*args, **kwargs):
            on_disk.extend(sorted(path.name for path in out.iterdir()))
            raise error

        monkeypatch.setattr(svgplot, "heatmap_svg", failing_heatmap)
        rc = main(["stability-map", "--config", str(cfg(GRID_CFG)), "--out", str(out),
                   "--svg", "--quiet"])
        assert rc == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == kind
        assert on_disk == ["stability_contour.csv", "stability_grid.csv"]
        assert sorted(path.name for path in tmp_path.iterdir()) == self._left(layout)
        if layout == "existing-empty":
            assert list(out.iterdir()) == []

    @staticmethod
    def _fills_failing_after_two_rows(monkeypatch, error, out, on_disk):
        """Patch the heatmap's fills to yield two rows, note what is in out,
        then raise error: the writers format as the runner writes, so this
        fails in the middle of the heatmap's stream."""
        ramp_fills = svgplot._ramp_fills

        def failing_fills(*args):
            rows = ramp_fills(*args)
            yield next(rows)
            yield next(rows)
            on_disk.extend(sorted(path.name for path in out.iterdir()))
            raise error

        monkeypatch.setattr(svgplot, "_ramp_fills", failing_fills)

    @pytest.mark.parametrize("layout", ["fresh", "nested", "existing-empty"])
    @pytest.mark.parametrize("error, code, kind", [
        (ValueError("a cell's fill failed"), 2, "config"),
        (OSError(28, "No space left on device"), 4, "io"),
    ], ids=["value-error", "os-error"])
    def test_heatmap_failure_mid_stream(self, tmp_path, cfg, capsys, monkeypatch,
                                        layout, error, code, kind):
        out = self._target(tmp_path, layout)
        on_disk = []
        self._fills_failing_after_two_rows(monkeypatch, error, out, on_disk)
        rc = main(["stability-map", "--config", str(cfg(GRID_CFG)), "--out", str(out),
                   "--svg", "--quiet"])
        assert rc == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == kind
        assert on_disk == ["stability_contour.csv", "stability_grid.csv", "stability_map.svg"]
        assert sorted(path.name for path in tmp_path.iterdir()) == self._left(layout)
        if layout == "existing-empty":
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("layout", ["fresh", "nested", "existing-empty"])
    def test_interrupt_mid_stream_propagates(self, tmp_path, monkeypatch, layout):
        out = self._target(tmp_path, layout)
        on_disk = []
        self._fills_failing_after_two_rows(monkeypatch, KeyboardInterrupt(), out, on_disk)
        config = parse_config(GRID_CFG)
        config.emit_svg = True
        with pytest.raises(KeyboardInterrupt):
            run_subcommand("stability-map", config, out)
        assert on_disk == ["stability_contour.csv", "stability_grid.csv", "stability_map.svg"]
        left = ["out"] if layout == "existing-empty" else []
        assert sorted(path.name for path in tmp_path.iterdir()) == left
        if layout == "existing-empty":
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("layout", ["fresh", "nested", "existing-empty"])
    def test_overflow_before_any_file(self, tmp_path, cfg, capsys, layout):
        # NumericalOverflow: the position decay's m**xi overflows at step 1
        out = self._target(tmp_path, layout)
        runaway = SIM_CFG.replace("mu0 = 0.025", "mu0 = 1e9\nxi = 40")
        rc = main(["simulate", "--config", str(cfg(runaway)), "--out", str(out), "--svg",
                   "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "numerical"
        assert sorted(path.name for path in tmp_path.iterdir()) == self._left(layout)
        if layout == "existing-empty":
            assert list(out.iterdir()) == []

    def test_out_below_a_file(self, tmp_path, cfg, capsys):
        # the directory cannot be made: one io error, and the file is untouched
        (tmp_path / "afile").write_text("a file")
        out = tmp_path / "afile" / "sub"
        rc = main(["simulate", "--config", str(cfg(SIM_CFG)), "--out", str(out), "--quiet"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "io" and str(out) in error["message"]
        assert (tmp_path / "afile").read_text() == "a file"


class TestManifest:
    def test_digests_match_files(self, tmp_path, cfg):
        main(["simulate-stochastic", "--config", str(cfg(SIM_CFG)),
              "--out", str(tmp_path / "out"), "--quiet"])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate-stochastic"
        assert manifest["seeds"] == {"stochastic": 31337}
        for entry in manifest["outputs"]:
            data = (tmp_path / "out" / entry["path"]).read_bytes()
            assert sha256_hex(data) == entry["sha256"]

    def test_resolved_config_reparses_identically(self, tmp_path, cfg):
        main(["simulate-stochastic", "--config", str(cfg(SIM_CFG)),
              "--out", str(tmp_path / "out"), "--quiet"])
        resolved = (tmp_path / "out" / "config.resolved.cfg").read_text()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"] == resolved
        reparsed = parse_config(resolved)
        assert reparsed.model.lam == 0.05
        assert reparsed.stochastic.seed == 31337

    def test_rerun_is_byte_identical(self, tmp_path, cfg):
        path = cfg(SIM_CFG)
        main(["simulate-stochastic", "--config", str(path),
              "--out", str(tmp_path / "r1"), "--quiet"])
        main(["simulate-stochastic", "--config", str(path),
              "--out", str(tmp_path / "r2"), "--quiet"])
        m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        assert ((tmp_path / "r1" / "trajectory.csv").read_bytes()
                == (tmp_path / "r2" / "trajectory.csv").read_bytes())

    def test_seed_override_changes_output(self, tmp_path, cfg):
        path = cfg(SIM_CFG)
        main(["simulate-stochastic", "--config", str(path),
              "--out", str(tmp_path / "r1"), "--quiet"])
        main(["simulate-stochastic", "--config", str(path), "--seed", "99",
              "--out", str(tmp_path / "r2"), "--quiet"])
        assert ((tmp_path / "r1" / "trajectory.csv").read_bytes()
                != (tmp_path / "r2" / "trajectory.csv").read_bytes())
        m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
        assert m2["seeds"] == {"stochastic": 99}


class TestRunSubcommandApi:
    def test_empty_stochastic_section_simulate_is_deterministic(self, tmp_path):
        config = parse_config(SIM_CFG.replace("seed = 31337", ""))
        manifest = run_subcommand("simulate", config, tmp_path / "out")
        states = read_trajectory_csv((tmp_path / "out" / "trajectory.csv").read_text())
        assert all(st.nu_t == 0.0 for st in states)
        assert manifest["seeds"] == {}

    def test_unknown_subcommand_rejected(self, tmp_path):
        from gammafeedback import ConfigError

        with pytest.raises(ConfigError):
            run_subcommand("warp", parse_config(SIM_CFG), tmp_path / "out")


class TestConsoleEntrypoint:
    def test_subprocess_run(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(SIM_CFG)
        proc = subprocess.run(
            [sys.executable, "-m", "gammafeedback", "simulate",
             "--config", str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "trajectory.csv" in proc.stdout
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_subprocess_error_record(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(SIM_CFG.replace("beta = 1.0", "beta = -3"))
        proc = subprocess.run(
            [sys.executable, "-m", "gammafeedback", "simulate",
             "--config", str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "config"
        assert "beta" in record["message"]


class TestNumpyStaysUnloaded:
    """No subcommand imports numpy; only the bulk draws do.

    Each case runs in a fresh interpreter, since this one has numpy loaded.
    """

    SRC = str(Path(__file__).resolve().parent.parent / "src")
    # every path section; static-response needs a stable denominator
    CFG = (SIM_CFG.replace("lambda = 0.05", "lambda = 0.001")
           + "\n[events]\nseed = 31337\nn_spikes = 20\n")

    def _run(self, script):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, "-c", script], env={**env, "PYTHONPATH": self.SRC},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_path_subcommands_never_load_numpy(self, tmp_path, cfg):
        path = cfg(self.CFG)
        script = f"""
import sys
import gammafeedback
from gammafeedback.cli import main
print("import", "numpy" in sys.modules)
for sub in ("simulate", "simulate-stochastic", "simulate-events",
            "static-response", "fixed-point"):
    rc = main([sub, "--config", {str(path)!r}, "--out", {str(tmp_path)!r} + "/" + sub,
               "--svg", "--quiet"])
    print(sub, rc, "numpy" in sys.modules)
"""
        assert self._run(script) == [
            "import", "False",
            "simulate", "0", "False",
            "simulate-stochastic", "0", "False",
            "simulate-events", "0", "False",
            "static-response", "0", "False",
            "fixed-point", "0", "False",
        ]
        assert (tmp_path / "simulate-events" / "trajectory.svg").exists()

    def test_bifurcation_scan_never_loads_numpy(self, tmp_path, cfg):
        path = cfg(GRID_CFG)
        script = f"""
import sys
from gammafeedback.cli import main
rc = main(["bifurcation-scan", "--config", {str(path)!r}, "--out", {str(tmp_path / "scan")!r},
           "--svg", "--quiet"])
print(rc, "numpy" in sys.modules)
"""
        assert self._run(script) == ["0", "False"]
        assert (tmp_path / "scan" / "bifurcation.svg").exists()

    def test_grid_maps_never_load_numpy(self, tmp_path, cfg):
        path = cfg(GRID_CFG)
        script = f"""
import sys
from gammafeedback.cli import main
for sub in ("stability-map", "amplification-map"):
    rc = main([sub, "--config", {str(path)!r}, "--out", {str(tmp_path)!r} + "/" + sub,
               "--svg", "--quiet"])
    print(sub, rc, "numpy" in sys.modules)
"""
        assert self._run(script) == ["stability-map", "0", "False",
                                     "amplification-map", "0", "False"]
        assert (tmp_path / "stability-map" / "stability_map.svg").exists()
        assert (tmp_path / "amplification-map" / "amplification_map.svg").exists()


class TestFinitenessContract:
    """Exit 0 means every number written is finite: each float key that a
    subcommand reads, set to an extreme value, either runs to finite outputs
    or fails as one JSON line that leaves no output directory."""

    BASE = {
        "model": {"lambda": "0.001", "beta": "1.0", "mu0": "0.05", "n0": "100",
                  "gamma0": "1.0", "sigma_m": "0.03", "k": "2", "eta": "2", "xi": "5",
                  "s0": "100"},
        "impact": {"kind": "tanh", "c": "1.0", "i_max": "1.0"},
        "stochastic": {"rho": "0.9", "sigma_n": "0.2", "kappa": "8", "seed": "7"},
        "events": {"n_spikes": "5", "max_fraction": "0.3", "seed": "11"},
        "grid": {"beta_min": "0.2", "beta_max": "3.0", "g_min": "0", "g_max": "300",
                 "n_beta": "6", "n_g": "5", "shock_ratio": "0.05", "lambda": "0.006",
                 "sigma_m": "0.03", "k": "2"},
        "run": {"horizon": "30"},
    }
    VALUES = ("inf", "-inf", "1e308", "5e-324", "-0.0")
    NONFINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-z])", re.IGNORECASE)

    @staticmethod
    def _reads(subcommand):
        """The sections whose float keys the subcommand reads; simulate-events
        takes its cap from [stochastic] when that section is present."""
        sections = runner._SUBCOMMANDS[subcommand][0]
        return sections + ("stochastic",) * (subcommand == "simulate-events")

    def _text(self, section, key, value, kind="tanh"):
        sections = {name: dict(keys) for name, keys in self.BASE.items()}
        sections[section][key] = value
        # only the clamp response reads its bound
        sections["impact"]["kind"] = "clamp" if key == "i_max" else kind
        return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       for name, keys in sections.items())

    def test_extreme_float_keys(self, tmp_path, capsys):
        # a saturating and an unbounded response: only the linear one lets an
        # extreme lambda, n0 or gamma0 reach the feedback f unbounded
        broken, runs = [], 0
        for kind, subcommand in ((kind, sub) for kind in ("tanh", "linear")
                                 for sub in SUBCOMMANDS):
            for section in self._reads(subcommand):
                floats = [key for key, _, _, parse, _ in config._TABLE[section][0]
                          if parse is float]
                for key, value in ((key, value) for key in floats for value in self.VALUES):
                    runs += 1
                    case = f"{subcommand} [{section}] {key} = {value} ({kind})"
                    path = tmp_path / f"{runs}.cfg"
                    path.write_text(self._text(section, key, value, kind))
                    out = tmp_path / f"out{runs}"
                    rc = main([subcommand, "--config", str(path), "--out", str(out),
                               "--svg", "--quiet"])
                    err = capsys.readouterr().err
                    if rc == 0:
                        written = [f for f in sorted(out.iterdir())
                                   if f.suffix in (".csv", ".svg")]
                        bad = [f.name for f in written
                               if self.NONFINITE.search(f.read_text(encoding="utf-8"))]
                        if not written or bad:
                            broken.append(f"{case}: exit 0 with non-finite numbers in {bad}")
                    elif rc not in (2, 3) or out.exists() or err.count("\n") != 1:
                        broken.append(f"{case}: exit {rc}, error {err!r}, "
                                      f"output directory left: {out.exists()}")
                    else:
                        json.loads(err)
        assert runs == 2 * 445
        assert not broken, "\n".join(broken)

    @pytest.mark.parametrize("subcommand, section, key, value", [
        # every G* is 1 / 5e-324 = inf
        ("bifurcation-scan", "grid", "lambda", "5e-324"),
        # an infinite shock, an infinite a = mu0 * s0, or a fixed point
        # a / (1 - f) past the largest double at 1 - f of about 4e-9
        ("fixed-point", "model", "mu0", "inf"),
        ("fixed-point", "model", "mu0", "-inf"),
        ("fixed-point", "model", "mu0", "1e308"),
        ("fixed-point", "model", "s0", "inf"),
        ("fixed-point", "model", "s0", "1e308"),
        # D = inf, which would write ds and 1/D as 0.0
        ("static-response", "model", "lambda", "-inf"),
    ])
    def test_readme_runs_that_wrote_inf_are_2(self, tmp_path, capsys, subcommand, section,
                                              key, value):
        head, body = README.split(f"[{section}]\n")
        text = head + f"[{section}]\n" + re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", body,
                                                 count=1)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        rc = main([subcommand, "--config", str(path), "--out", str(tmp_path / "x"),
                   "--svg", "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "config"
        assert f"[{section}] " in error["message"] and key in error["message"]
        assert not (tmp_path / "x").exists()
