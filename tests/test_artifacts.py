"""CSV schemas round-trip losslessly; manifests digest their outputs, which
go from writer to file and digest in chunks."""

import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import writer_reference as ref
from gammafeedback import (
    GridSpec,
    ImpactSpec,
    ModelParams,
    SimState,
    StochasticSpec,
    Trajectory,
    amplification_grid,
    extract_contour,
    parse_config,
    simulate_one_shot,
    simulate_recursive,
    simulate_stochastic,
    stability_grid,
)
from gammafeedback.artifacts import (
    _STATES_PER_CHUNK as CHUNK,
    contour_csv,
    curve_csv,
    grid_csv,
    sha256_hex,
    trajectory_csv,
)
from gammafeedback.runner import _SUBCOMMANDS, run_subcommand
from test_golden import CONFIGS as GOLDEN_CONFIGS
from writer_reference import read_contour_csv, read_grid_csv, read_trajectory_csv

SPEC = GridSpec(beta_min=0.2, beta_max=3.0, g_min=0.0, g_max=300.0,
                n_beta=12, n_g=15, shock_ratio=0.05, lam=0.003)
PARAMS = ModelParams(lam=0.05, beta=1.0, mu0=0.025)


class TestGridCsv:
    def test_schema_and_row_count(self):
        scan = stability_grid(SPEC)
        text = "".join(grid_csv(scan))
        lines = text.strip().split("\n")
        assert lines[0] == "beta,G,value,singular"
        assert len(lines) == 1 + SPEC.n_beta * SPEC.n_g

    def test_lossless_round_trip(self):
        scan = stability_grid(SPEC)
        beta, g, value, singular = read_grid_csv("".join(grid_csv(scan)))
        assert value.tolist() == [v for row in scan.values for v in row]
        assert beta.tolist() == [b for b in SPEC.betas() for _ in range(SPEC.n_g)]
        assert g.tolist() == SPEC.gs() * SPEC.n_beta
        assert not singular.any()

    def test_singular_flag_round_trip(self):
        scan = amplification_grid(SPEC)
        flags = [s for row in scan.singular for s in row]
        assert any(flags)
        _, _, value, singular = read_grid_csv("".join(grid_csv(scan)))
        assert singular.tolist() == flags
        assert np.all(value[singular] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(ref.grid_scans())
    @example(amplification_grid(GridSpec(
        beta_min=1.0, beta_max=1.0, g_min=100.0, g_max=100.0, n_beta=2, n_g=2,
        shock_ratio=0.05, lam=0.02)))
    def test_matches_scalar_reference(self, scan):
        assert "".join(grid_csv(scan)) == ref.grid_csv(scan)


# A float field that may be -0.0, an integer, or not finite.
_number = st.one_of(st.floats(allow_nan=True), st.integers(-10**6, 10**6), st.just(-0.0))


class TestContourCsv:
    def test_round_trip(self):
        line = extract_contour(SPEC, 0.0)
        assert line
        got, = read_contour_csv("".join(contour_csv(line)))
        assert got.tolist() == np.asarray(line).tolist()

    def test_header(self):
        line = extract_contour(SPEC, 0.0)
        assert "".join(contour_csv(line)).startswith("polyline_id,beta,G\n")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_number, _number), max_size=6))
    @example([(-0.0, 0.0)])
    @example([])
    @example([(1, 2.5), (3, -0.0)])
    def test_matches_scalar_reference(self, line):
        line = [(float(b), float(g)) for b, g in line]
        assert "".join(contour_csv(line)) == ref.contour_csv(line)

    def test_extracted_contours_match_scalar_reference(self):
        for level in (0.0, 0.5):  # D = 0 and 1/D = 2
            line = extract_contour(SPEC, level)
            assert line
            assert "".join(contour_csv(line)) == ref.contour_csv(line)


class TestTrajectoryCsv:
    def test_schema_and_row_count(self):
        traj = simulate_recursive(PARAMS, ImpactSpec.tanh(1.0), 50)
        text = "".join(trajectory_csv(traj))
        lines = text.strip().split("\n")
        assert lines[0] == "t,S,dS,m_cum,N,mu,nu"
        assert len(lines) == 1 + 51

    def test_lossless_round_trip(self):
        traj = simulate_stochastic(PARAMS, ImpactSpec.tanh(1.0),
                                   StochasticSpec(seed=3), 80)
        states = read_trajectory_csv("".join(trajectory_csv(traj)))
        assert states == traj.states

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**6), *[_number] * 6), max_size=8))
    def test_matches_scalar_reference(self, rows):
        traj = Trajectory(states=[SimState(*row) for row in rows])
        assert "".join(trajectory_csv(traj)) == ref.trajectory_csv(traj)

    @pytest.mark.parametrize("horizon", [CHUNK - 1, CHUNK, 2 * CHUNK])
    def test_chunked_long_runs_match_scalar_reference(self, horizon):
        # horizon + 1 states: exactly one chunk, one past it, one past two
        for traj in (simulate_stochastic(PARAMS, ImpactSpec.tanh(1.0), StochasticSpec(seed=3),
                                         horizon),
                     simulate_one_shot(ModelParams(lam=0.002, beta=1.0, mu0=0.025, n0=150, s0=80),
                                       ImpactSpec.linear(), horizon)):
            assert "".join(trajectory_csv(traj)) == ref.trajectory_csv(traj)

    def test_integer_start_values_written_as_floats(self):
        # the one-shot run carries the caller's n0 on every state, s0 on the first
        params = ModelParams(lam=0.05, beta=1.0, mu0=0.025, n0=150, s0=80)
        text = "".join(trajectory_csv(simulate_one_shot(params, ImpactSpec.tanh(1.0), 5)))
        assert text == ref.trajectory_csv(simulate_one_shot(params, ImpactSpec.tanh(1.0), 5))
        assert text.split("\n")[1] == "0,80.0,0.0,0.0,150.0,0.025,0.0"

    def test_nu_column_populated_for_stochastic(self):
        traj = simulate_stochastic(PARAMS, ImpactSpec.tanh(1.0),
                                   StochasticSpec(seed=3), 40)
        states = read_trajectory_csv("".join(trajectory_csv(traj)))
        assert any(st.nu_t != 0.0 for st in states)


class TestCurveCsv:
    def test_schema(self):
        text = "".join(curve_csv([0.5, 1.0], [10.0, 20.0]))
        assert text == "beta,g_star\n0.5,10.0\n1.0,20.0\n"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_number, max_size=8), st.lists(_number, max_size=8))
    def test_matches_scalar_reference(self, betas, values):
        assert "".join(curve_csv(betas, values)) == ref.curve_csv(betas, values)
        assert ("".join(curve_csv(np.array(betas, dtype=float), values))
                == ref.curve_csv(betas, values))


class TestManifest:
    def test_digest_matches_content(self):
        assert sha256_hex("abc") == sha256_hex(b"abc")
        assert len(sha256_hex("abc")) == 64

    def test_json_round_trip(self, tmp_path):
        # the manifest run_subcommand returns is the one manifest.json holds
        config = parse_config("[model]\nlambda = 0.05\nbeta = 1.0\nmu0 = 0.025\nn0 = 200\n"
                              "gamma0 = 1.0\n\n[impact]\n\n[stochastic]\nseed = 42\n\n"
                              "[run]\nhorizon = 5\n")
        manifest = run_subcommand("simulate-stochastic", config, tmp_path)
        text = (tmp_path / "manifest.json").read_text()
        assert text == json.dumps(manifest, indent=2)
        assert json.loads(text) == manifest
        assert list(manifest) == ["tool", "version", "subcommand", "seeds", "prng",
                                  "duration_seconds", "outputs", "config"]
        assert manifest["seeds"] == {"stochastic": 42}
        assert manifest["outputs"][0] == {
            "path": "trajectory.csv",
            "sha256": sha256_hex((tmp_path / "trajectory.csv").read_bytes())}
        assert "xoshiro256" in manifest["prng"]  # generator identity recorded


# The README's configuration with its grid at 300 x 300 and its horizon at
# 3e4, every output drawn.
_README_SVG = GOLDEN_CONFIGS["readme"].replace("emit_svg = false", "emit_svg = true")
_BIG_GRID = _README_SVG.replace("n_beta = 200", "n_beta = 300").replace("n_g = 200", "n_g = 300")
_LONG_RUN = _README_SVG.replace("horizon = 200", "horizon = 30000")


class TestStreamedOutputs:
    @pytest.mark.parametrize("name, subcommand", [
        *[("readme", sub) for sub in _SUBCOMMANDS if sub != "static-response"],
        # D = -25.7 on the README model, so static-response runs on the softer one
        ("readme-soft", "static-response"),
    ])
    def test_chunk_digest_is_the_text_digest(self, name, subcommand):
        config = parse_config(GOLDEN_CONFIGS[name])
        config.emit_svg = True
        for filename, chunks in _SUBCOMMANDS[subcommand][2](config):
            assert iter(chunks) is chunks, filename  # a one-shot iterator
            chunks = list(chunks)
            assert all(type(chunk) is str for chunk in chunks), filename
            text = "".join(chunks)
            want = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert sha256_hex(chunks) == sha256_hex(text) == want, filename
            assert sha256_hex(chunk.encode("utf-8") for chunk in chunks) == want, filename

    # The peak Python heap of one run. Holding each output whole, once as a
    # str and again as its bytes, the amplification map and simulate peaked
    # at 23.2 and 7.8 MiB; streamed, at 12.9 and 4.9 MiB. With grid cells as
    # boxed floats in lists, the D scan kept until the heatmap and every
    # cell's fill built at once, the amplification and stability maps peaked
    # at 12.9 and 10.6 MiB; with rows of doubles and flag bytes, at 7.3 and
    # 7.1 MiB. With every writer's chunks listed before the first was
    # written, the amplification and stability maps, simulate and
    # simulate-events peaked at 7.3, 7.1, 4.9 and 4.9 MiB; with each chunk
    # formatted as it is written, at 1.9, 1.0, 2.1 and 2.1 MiB.
    @pytest.mark.parametrize("subcommand, text, bound_mib", [
        ("amplification-map", _BIG_GRID, 3.0),
        ("stability-map", _BIG_GRID, 2.0),
        ("simulate", _LONG_RUN, 3.0),
        ("simulate-events", _LONG_RUN, 3.0),
    ], ids=["amplification-map-300x300-svg", "stability-map-300x300-svg", "simulate-3e4-svg",
            "simulate-events-3e4-svg"])
    def test_run_peak_memory(self, tmp_path, subcommand, text, bound_mib):
        config = parse_config(text)
        tracemalloc.start()
        try:
            run_subcommand(subcommand, config, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("subcommand", ["amplification-map", "simulate-events"])
    def test_duration_is_within_the_run(self, tmp_path, subcommand):
        # duration_seconds times computing, formatting, writing and digesting
        # the outputs, within the run's wall time
        config = parse_config(_README_SVG)
        start = time.perf_counter()
        manifest = run_subcommand(subcommand, config, tmp_path / "out")
        wall = time.perf_counter() - start
        assert 0.0 < manifest["duration_seconds"] <= wall
