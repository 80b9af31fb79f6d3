"""Grid scans, threshold contours, and fixed-point analysis.

The contour checks use ``critical_exposure``, the analytic root curve
G*(beta) = 1/(lam*(1+k*x)), and exact fractions as oracles; fixed points
are checked against brute-force iteration of the affine map.
"""

import dataclasses
import math
import re
import sys
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import writer_reference as ref
from gammafeedback import (
    ContourSet,
    FixedPointClass,
    GridScan,
    GridSpec,
    ImpactSpec,
    ModelParams,
    amplification_grid,
    analyze_fixed_point,
    critical_exposure,
    extract_contour,
    linearized_feedback,
    stability_denominator,
    stability_grid,
)
from gammafeedback.artifacts import contour_csv, grid_csv

REL = 1e-9

FIG1A = GridSpec(
    beta_min=0.2, beta_max=3.0, g_min=0.0, g_max=300.0,
    n_beta=200, n_g=200, shock_ratio=0.05, lam=0.003,
)


def iterate_affine(a, f, steps, start=0.0):
    """Brute-force orbit of d -> a + f*d; independent of analyze_fixed_point."""
    d = start
    for _ in range(steps):
        d = a + f * d
    return d


class TestGridSpec:
    def test_axes_are_inclusive(self):
        spec = GridSpec(beta_min=0.5, beta_max=1.5, g_min=0.0, g_max=300.0,
                        n_beta=3, n_g=4, shock_ratio=0.05, lam=0.003)
        assert spec.betas() == [0.5, 1.0, 1.5]
        assert spec.gs() == [0.0, 100.0, 200.0, 300.0]

    def test_integer_bounds_give_float_nodes(self):
        # as np.linspace: int bounds give the float bounds' nodes, grids and contours
        ints = GridSpec(beta_min=1, beta_max=3, g_min=0, g_max=300, n_beta=5, n_g=7,
                        shock_ratio=0.05, lam=0.003)
        floats = GridSpec(beta_min=1.0, beta_max=3.0, g_min=0.0, g_max=300.0, n_beta=5, n_g=7,
                          shock_ratio=0.05, lam=0.003)
        assert all(type(v) is float for v in ints.betas() + ints.gs())
        assert _hex_rows([ints.betas(), ints.gs()]) == _hex_rows([floats.betas(), floats.gs()])
        for grid in (stability_grid, amplification_grid):
            assert "".join(grid_csv(grid(ints))) == "".join(grid_csv(grid(floats)))
        for level in (0.0, 0.5):
            assert ("".join(contour_csv(extract_contour(ints, level)))
                    == "".join(contour_csv(extract_contour(floats, level))))

    @pytest.mark.parametrize("kwargs", [
        {"beta_min": 0.0}, {"beta_min": -1.0}, {"g_min": -5.0},
        {"n_beta": 1}, {"n_g": 0}, {"shock_ratio": -0.01},
        {"beta_max": 0.1}, {"g_max": -1.0},
    ])
    def test_invalid_specs(self, kwargs):
        base = dict(beta_min=0.2, beta_max=3.0, g_min=0.0, g_max=300.0,
                    n_beta=10, n_g=10, shock_ratio=0.05, lam=0.003)
        base.update(kwargs)
        with pytest.raises(ValueError):
            GridSpec(**base)

    @pytest.mark.parametrize("kwargs, message", [
        ({"beta_max": math.inf}, "beta_max - beta_min must be finite (beta_min = 0.2, "
                                 "beta_max = inf)"),
        ({"beta_min": math.inf, "beta_max": math.inf},
         "beta_max - beta_min must be finite (beta_min = inf, beta_max = inf)"),
        ({"g_max": math.inf}, "g_max - g_min must be finite (g_min = 0.0, g_max = inf)"),
        ({"g_min": 1e308, "g_max": math.inf},
         "g_max - g_min must be finite (g_min = 1e+308, g_max = inf)"),
    ])
    def test_infinite_axis_span_rejected_naming_both_bounds(self, kwargs, message):
        # linspace over an infinite span gives nan and inf nodes
        base = dict(beta_min=0.2, beta_max=3.0, g_min=0.0, g_max=300.0,
                    n_beta=3, n_g=3, shock_ratio=0.05, lam=0.003)
        with pytest.raises(ValueError) as info:
            GridSpec(**{**base, **kwargs})
        assert str(info.value) == message

    def test_largest_finite_axis_span_accepted(self):
        top = sys.float_info.max
        spec = GridSpec(beta_min=1e-300, beta_max=top, g_min=0.0, g_max=top,
                        n_beta=3, n_g=3, shock_ratio=0.05, lam=0.003)
        assert all(map(math.isfinite, spec.betas() + spec.gs()))


class TestGridScanValidation:
    def test_shape_mismatch_rejected(self):
        spec = GridSpec(beta_min=0.5, beta_max=1.5, g_min=0.0, g_max=10.0,
                        n_beta=3, n_g=4, shock_ratio=0.05, lam=0.003)
        with pytest.raises(ValueError, match="shape"):
            GridScan(spec=spec, values=[[1.0] * 4] * 2, singular=[[False] * 4] * 2)
        # the right number of rows, one of them short
        with pytest.raises(ValueError, match="shape"):
            GridScan(spec=spec, values=[[1.0] * 4, [1.0] * 3, [1.0] * 4],
                     singular=[[False] * 4] * 3)
        with pytest.raises(ValueError, match="shape"):
            GridScan(spec=spec, values=[[1.0] * 4] * 3,
                     singular=[[False] * 4] * 2 + [[False] * 5])

    def test_unflagged_nonfinite_rejected(self):
        spec = GridSpec(beta_min=0.5, beta_max=1.5, g_min=0.0, g_max=10.0,
                        n_beta=2, n_g=2, shock_ratio=0.05, lam=0.003)
        values = [[1.0, math.inf], [1.0, 1.0]]
        with pytest.raises(ValueError, match="finite"):
            GridScan(spec=spec, values=values, singular=[[False, False], [False, False]])
        with pytest.raises(ValueError, match="finite"):
            GridScan(spec=spec, values=values, singular=[[True, False], [False, False]])
        # the same values are fine once the cell is flagged, nan too
        flags = [[False, True], [False, False]]
        GridScan(spec=spec, values=values, singular=flags)
        GridScan(spec=spec, values=[[1.0, math.nan], [1.0, 1.0]], singular=flags)

    @pytest.mark.parametrize("flag", [2, 0.5, -1, math.nan, None])
    def test_flag_that_is_not_0_or_1_rejected(self, flag):
        # a flag of 2 made grid_csv raise IndexError at '01'[flag], one of 0.5 TypeError
        spec = GridSpec(beta_min=0.5, beta_max=1.5, g_min=0.0, g_max=10.0,
                        n_beta=2, n_g=2, shock_ratio=0.05, lam=0.003)
        values = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ValueError, match="^singular flags"):
            GridScan(spec=spec, values=values, singular=[[0, flag], [0, 0]])
        with pytest.raises(ValueError, match="^singular flags"):
            GridScan(spec=spec, values=values, singular=[b"\x00\x02", b"\x00\x00"])

    def test_rows_stored_as_doubles_and_flag_bytes(self):
        spec = GridSpec(beta_min=0.5, beta_max=1.5, g_min=0.0, g_max=10.0,
                        n_beta=2, n_g=3, shock_ratio=0.05, lam=0.003)
        stored = array("d", [1.0, 2.0, 3.0])
        scan = GridScan(spec=spec, values=[stored, (4, 5, 6.5)],
                        singular=[b"\x00\x01\x00", [True, False, 1]])
        assert all(type(row) is array and row.typecode == "d" for row in scan.values)
        assert scan.values[0] is stored  # a stored row is kept, not copied
        assert scan.values[1].tolist() == [4.0, 5.0, 6.5]
        assert scan.singular == [b"\x00\x01\x00", b"\x01\x00\x01"]
        d = stability_grid(spec)
        assert d.singular == [bytes(3)] * 2 and d.singular[0] is d.singular[1]


class TestStabilityGrid:
    def test_degenerate_zero_exposure_column(self):
        spec = GridSpec(beta_min=0.2, beta_max=3.0, g_min=0.0, g_max=0.0,
                        n_beta=5, n_g=2, shock_ratio=0.05, lam=0.003)
        scan = stability_grid(spec)
        assert [list(r) for r in scan.values] == [[1.0, 1.0]] * 5
        assert [list(r) for r in scan.singular] == [[False, False]] * 5

    def test_at_most_10_bytes_per_cell(self):
        # a double per cell is 8 B, plus one array header per row and the
        # zero flag row that every row shares
        spec = GridSpec(beta_min=0.2, beta_max=3.0, g_min=0.0, g_max=300.0,
                        n_beta=300, n_g=300, shock_ratio=0.05, lam=0.003)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scan = stability_grid(spec)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(scan.values) * len(scan.values[0]) == 300 * 300
        assert kept / (300 * 300) <= 10

    def test_underflowing_surprise_scale_rejected(self):
        # beta_min * sigma_m rounds to 0, so the first row's x would divide by
        # zero: the spec is rejected, naming both keys, before any grid runs
        for shock in (0.05, 0.0):
            with pytest.raises(ValueError, match=r"beta_min \* sigma_m underflows to 0"):
                GridSpec(beta_min=1e-323, beta_max=1.0, g_min=0.0, g_max=300.0,
                         n_beta=3, n_g=4, shock_ratio=shock, lam=0.003, sigma_m=0.01)
        with pytest.raises(ValueError, match=r"beta \* sigma_m underflows to 0"):
            critical_exposure(0.003, 1e-200, 0.05, sigma_m=1e-200)

    OVERFLOW = r"^lambda \* \(1 \+ k \* shock_ratio / \(beta_min \* sigma_m\)\) \* g_max is "

    @pytest.mark.parametrize("changes, value", [
        ({"beta_min": 1e-300, "sigma_m": 1e-10, "shock_ratio": 1.0}, "inf"),  # x is 1e310
        ({"lam": -math.inf}, "-inf"),
        ({"lam": math.inf, "g_max": 0.0}, "nan"),  # inf * 0
        ({"k": 0.0, "beta_min": 1e-300, "sigma_m": 1e-10, "shock_ratio": 1.0}, "nan"),  # 0 * inf
    ], ids=["x-overflows", "lambda-inf", "lambda-inf-at-g-0", "k-0-at-x-inf"])
    def test_nonfinite_cells_rejected_naming_keys(self, changes, value):
        spec = GridSpec(**{**dict(beta_min=0.2, beta_max=3.0, g_min=0.0, g_max=300.0,
                                  n_beta=3, n_g=4, shock_ratio=0.05, lam=0.003), **changes})
        with pytest.raises(ValueError, match=self.OVERFLOW + value):
            stability_grid(spec)

    _finite = st.floats(min_value=0.0, allow_infinity=False)
    _positive = _finite.filter(lambda x: x > 0)

    @settings(max_examples=300, deadline=None)
    @given(betas=st.tuples(_positive, _positive), gs=st.tuples(_finite, _finite),
           shock=_finite, lam=st.floats(allow_nan=False), sigma_m=_positive, k=_finite)
    def test_cells_finite_unless_rejected(self, betas, gs, shock, lam, sigma_m, k):
        # the check at (beta_min, g_max) rejects a grid exactly when one of
        # its cells, computed as the kernel does, is not finite
        (beta_min, beta_max), (g_min, g_max) = sorted(betas), sorted(gs)
        assume(beta_min * sigma_m > 0)
        spec = GridSpec(beta_min=beta_min, beta_max=beta_max, g_min=g_min, g_max=g_max,
                        n_beta=3, n_g=3, shock_ratio=shock, lam=lam, sigma_m=sigma_m, k=k)
        cells = [1.0 - lam * (1.0 + k * (shock / (b * sigma_m))) * g
                 for b in spec.betas() for g in spec.gs()]
        try:
            scan = stability_grid(spec)
        except ValueError as exc:
            assert re.match(self.OVERFLOW, str(exc))
            assert not all(map(math.isfinite, cells))
        else:
            assert [v for row in scan.values for v in row] == cells
            assert all(map(math.isfinite, cells))

    def test_cell_matches_scalar_op(self):
        spec = GridSpec(beta_min=0.5, beta_max=1.5, g_min=0.0, g_max=300.0,
                        n_beta=3, n_g=4, shock_ratio=0.05, lam=0.003)
        scan = stability_grid(spec)
        # node (beta=1, G=100): oracle 1 - 0.003*100*(13/3) = -0.3
        oracle = 1 - Fraction(3, 1000) * 100 * Fraction(13, 3)
        assert scan.values[1][1] == pytest.approx(float(oracle), rel=REL)
        # every node agrees with the scalar operation
        for i, beta in enumerate(spec.betas()):
            for j, g in enumerate(spec.gs()):
                p = ModelParams(lam=spec.lam, beta=beta, mu0=0.0,
                                n0=max(g, 1e-300), gamma0=1.0,
                                sigma_m=spec.sigma_m, k=spec.k)
                assert scan.values[i][j] == pytest.approx(
                    stability_denominator(p, spec.shock_ratio), rel=1e-12, abs=1e-12
                )

    def test_monotone_rows_and_columns(self):
        scan = stability_grid(FIG1A)
        for row in scan.values:  # decreasing in G
            assert all(b < a for a, b in zip(row, row[1:]))
        for below, above in zip(scan.values, scan.values[1:]):  # increasing in beta
            assert all(b > a for a, b in zip(below[1:], above[1:]))


class TestAmplificationGrid:
    def test_values_and_singular_tagging(self):
        spec = GridSpec(beta_min=0.5, beta_max=2.0, g_min=0.0, g_max=300.0,
                        n_beta=4, n_g=4, shock_ratio=0.05, lam=0.003)
        d = stability_grid(spec)
        a = amplification_grid(spec)
        for i in range(4):
            for j in range(4):
                if d.values[i][j] <= 1e-9:
                    assert a.singular[i][j]
                    assert a.values[i][j] == 0.0
                else:
                    assert not a.singular[i][j]
                    assert abs(a.values[i][j] - 1.0 / d.values[i][j]) <= 1e-12

    def test_zero_exposure_amplification_is_one(self):
        a = amplification_grid(FIG1A)
        assert [row[0] for row in a.values] == [1.0] * FIG1A.n_beta

    def test_amplification_two_at_half_denominator(self):
        # construct a node with D exactly 0.5: G = 0.5/(lam*phi) on a
        # degenerate beta axis
        lam, beta, shock, sigma, k = 0.003, 1.0, 0.05, 0.03, 2.0
        phi = 1 + k * shock / (beta * sigma)
        g_half = 0.5 / (lam * phi)
        spec = GridSpec(beta_min=beta, beta_max=beta, g_min=0.0, g_max=g_half,
                        n_beta=2, n_g=2, shock_ratio=shock, lam=lam,
                        sigma_m=sigma, k=k)
        a = amplification_grid(spec)
        assert a.values[0][1] == pytest.approx(2.0, rel=1e-12)

    def test_holds_one_d_row_at_a_time(self):
        # each 1/D row comes from that row's D values: the peak is the
        # result plus a few rows of 300 boxed floats, not a second grid
        spec = dataclasses.replace(FIG1A, n_beta=300, n_g=300)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scan = amplification_grid(spec)
            kept, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(scan.values) * len(scan.values[0]) == 300 * 300
        row = 300 * (8 + 24)  # a list slot and a float object per cell
        assert peak - kept < 6 * row

    def test_consistency_with_stability_grid(self):
        d = stability_grid(FIG1A)
        a = amplification_grid(FIG1A)
        assert any(map(any, a.singular)) and not all(map(all, a.singular))
        for a_row, flags, d_row in zip(a.values, a.singular, d.values):
            for av, s, dv in zip(a_row, flags, d_row):
                assert s or abs(av - 1.0 / dv) <= 1e-12


class TestExtractContour:
    def _spec(self, lam):
        # at zero shock a(beta) = lam: the level set D = 0 is the line G = 1/lam
        return GridSpec(beta_min=1.0, beta_max=2.0, g_min=0.0, g_max=1.0, n_beta=2, n_g=2,
                        shock_ratio=0.0, lam=lam)

    def test_vertical_midline(self):
        contour = extract_contour(self._spec(2.0), 0.0)
        assert len(contour.polylines) == 1
        line = contour.polylines[0]
        assert len(line) == 2
        assert [g for _, g in line] == pytest.approx([0.5, 0.5])  # G at the midpoint column
        assert {b for b, _ in line} == {1.0, 2.0}  # spans the beta range

    def test_no_crossing_is_empty(self):
        contour = extract_contour(self._spec(0.2), 0.0)  # G = 5, above the box
        assert contour.polylines == []

    def test_interpolated_crossing_position(self):
        # D = 1 - (4/3) * G is 1 at G=0 and -1/3 at G=1: the curve lies at 3/4,
        # between the G nodes
        contour = extract_contour(self._spec(4 / 3), 0.0)
        assert [g for _, g in contour.polylines[0]] == pytest.approx([0.75, 0.75])

    def test_contour_matches_analytic_root(self):
        contour = extract_contour(FIG1A, 0.0)
        assert contour.polylines
        max_dev = 0.0
        for line in contour.polylines:
            for beta, g in line:
                g_star = critical_exposure(FIG1A.lam, beta, FIG1A.shock_ratio,
                                           FIG1A.sigma_m, FIG1A.k)
                max_dev = max(max_dev, abs(g - g_star))
        assert max_dev <= FIG1A.cell_width_g

    def test_halving_cells_halves_deviation(self):
        def max_dev(n):
            spec = GridSpec(beta_min=0.2, beta_max=3.0, g_min=0.0, g_max=300.0,
                            n_beta=n, n_g=n, shock_ratio=0.05, lam=0.003)
            contour = extract_contour(spec, 0.0)
            dev = 0.0
            for line in contour.polylines:
                for beta, g in line:
                    dev = max(dev, abs(g - critical_exposure(0.003, beta, 0.05)))
            return dev

        # n-1 cells: doubling the cell count halves the width
        coarse = max_dev(100)
        fine = max_dev(199)
        assert fine <= coarse / 2

    def test_vertices_inside_bbox_and_adjacent_cells(self):
        contour = extract_contour(FIG1A, 0.0)
        for line in contour.polylines:
            for beta, g in line:
                assert FIG1A.beta_min - 1e-12 <= beta <= FIG1A.beta_max + 1e-12
                assert FIG1A.g_min - 1e-12 <= g <= FIG1A.g_max + 1e-12
            for (b0, g0), (b1, g1) in zip(line, line[1:]):
                assert abs(b1 - b0) <= FIG1A.cell_width_beta + 1e-12
                assert abs(g1 - g0) <= FIG1A.cell_width_g + 1e-12

    def test_skips_cells_touching_singular_nodes(self):
        spec = GridSpec(beta_min=0.2, beta_max=3.0, g_min=0.0, g_max=300.0,
                        n_beta=60, n_g=60, shock_ratio=0.05, lam=0.003)
        contour = extract_contour(spec, 0.5)  # 1/D = 2
        assert contour.polylines
        # every vertex must sit strictly in non-singular territory, where D > 0
        for line in contour.polylines:
            for beta, g in line:
                d = 1 - spec.lam * g * (1 + spec.k * spec.shock_ratio / (beta * spec.sigma_m))
                assert d > 0


def _hex_rows(rows):
    return [[float(v).hex() for v in row] for row in rows]


def _hex_lines(polylines):
    return [[(float(b).hex(), float(g).hex()) for b, g in line] for line in polylines]


# A non-square grid that starts above G = 0, as the CLI's skew golden.
SKEW = GridSpec(beta_min=0.25, beta_max=2.75, g_min=40.0, g_max=260.0, n_beta=61, n_g=47,
                shock_ratio=0.04, lam=0.002, sigma_m=0.025, k=1.5)
DEGENERATE = [
    GridSpec(beta_min=1.0, beta_max=1.0, g_min=0.0, g_max=300.0, n_beta=4, n_g=5,
             shock_ratio=0.05, lam=0.003),
    GridSpec(beta_min=0.2, beta_max=3.0, g_min=50.0, g_max=50.0, n_beta=5, n_g=2,
             shock_ratio=0.05, lam=0.003),
    GridSpec(beta_min=1.0, beta_max=1.0, g_min=100.0, g_max=100.0, n_beta=2, n_g=2,
             shock_ratio=0.05, lam=0.02),
]
# The CLI's two levels of D: 0, and 1/2 for the amplification map's 1/D = 2.
LEVELS = (0.0, 0.5)
# D = 1/2 meets an edge one ulp past a node's G, where the computed root lies
# before beta_min (entering through g_min) and past beta_max (leaving through
# g_max): each vertex is kept at its node.
CLAMPED = [
    GridSpec(beta_min=0.7543203727086492, beta_max=1.2605289835265885, g_min=70.94292685917726,
             g_max=300.0, n_beta=2, n_g=2, shock_ratio=0.013962802961759575,
             lam=0.002999467999859582, sigma_m=0.03362911457309894, k=2.452128989889852),
    GridSpec(beta_min=0.6544179666261012, beta_max=3.1117870098208433, g_min=0.0,
             g_max=24.03263847790142, n_beta=2, n_g=2, shock_ratio=0.06384282806344237,
             lam=0.009666829213937776, sigma_m=0.05071574669250206, k=2.848209623149546),
]


@pytest.fixture(scope="module")
def bench_inputs():
    """``bench/inputs.py``, loaded read-only for its map grids."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import inputs as module
    finally:
        sys.path.remove(bench)
    return module


def _map_specs(bench_inputs, seeds=(1, 2, 3)):
    """The grids of the ``maps`` workload's stability and amplification maps."""
    specs = []
    for seed in seeds:
        for op in bench_inputs.maps_ops(seed):
            if op["subcommand"] != "bifurcation-scan":
                g = op["sections"]["grid"]
                specs.append(GridSpec(
                    beta_min=g["beta_min"], beta_max=g["beta_max"], g_min=g["g_min"],
                    g_max=g["g_max"], n_beta=g["n_beta"], n_g=g["n_g"],
                    shock_ratio=g["shock_ratio"], lam=g["lambda"], sigma_m=g["sigma_m"],
                    k=g["k"]))
    return specs


def _curve(spec, level, beta):
    """G = (1 - level) / a(beta), a computed in the order of ``stability_grid``."""
    return (1.0 - level) / (spec.lam * (1.0 + spec.k * (spec.shock_ratio / (beta * spec.sigma_m))))


def _split(spec, level, line):
    """A polyline's node vertices, and the vertices where it crosses g_min or
    g_max between two nodes."""
    nodes = {(b, _curve(spec, level, b)) for b in spec.betas()}
    crossings = [v for v in line if v[1] in (spec.g_min, spec.g_max) and v not in nodes]
    return [v for v in line if v not in crossings], crossings


def _positive_lambda_specs():
    return ref.grid_specs().filter(lambda spec: spec.lam > 0)


@st.composite
def crossed_specs(draw):
    """(spec, level): a spec with lam > 0 whose g_min and g_max are drawn
    between the level curve's values at beta_min and beta_max, so that the
    curve mostly crosses the box's edges between two nodes."""
    spec = draw(_positive_lambda_specs())
    level = draw(st.sampled_from(LEVELS))
    lo, hi = _curve(spec, level, spec.beta_min), _curve(spec, level, spec.beta_max)
    assume(lo < hi < math.inf)  # a sloped curve; inf at a subnormal lam
    t = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    g_min, g_max = sorted(lo + draw(t) * (hi - lo) for _ in range(2))
    return dataclasses.replace(spec, g_min=g_min, g_max=g_max), level


def _specs_and_levels():
    return st.one_of(crossed_specs(), st.tuples(_positive_lambda_specs(), st.sampled_from(LEVELS)))


class TestThresholdContour:
    """The level sets D = 0 and D = 1/2 from the closed form G = (1 - c) / a(beta)."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_positive_lambda_specs(), crossed_specs().map(lambda pair: pair[0])))
    @example(FIG1A)
    @example(SKEW)
    def test_threshold_nodes_equal_critical_exposure(self, spec):
        want = [(b, critical_exposure(spec.lam, b, spec.shock_ratio, spec.sigma_m, spec.k))
                for b in spec.betas()]
        want = [(b, g) for b, g in want if spec.g_min <= g <= spec.g_max]
        lines = extract_contour(spec, 0.0).polylines
        nodes, crossings = _split(spec, 0.0, lines[0]) if lines else ([], [])
        assert _hex_lines([nodes]) == _hex_lines([want])
        assert len(crossings) <= 2

    @settings(max_examples=300, deadline=None)
    @given(crossed_specs())
    @example((SKEW, 0.0))
    @example((SKEW, 0.5))
    @example((CLAMPED[0], 0.5))
    @example((CLAMPED[1], 0.5))
    def test_crossings_lie_on_the_box_at_the_exact_root(self, spec_level):
        # the root k*s*(lam*E) / (sigma_m * (c - lam*E)) of an edge E rounds six
        # times, and the subtraction scales the rounding of lam*E by
        # c / (c - lam*E): at most 6 ulp times that ratio. The CLAMPED
        # vertices, kept at a node, lie within one ulp of their roots.
        spec, level = spec_level
        lines = extract_contour(spec, level).polylines
        c = Fraction(1.0 - level)
        for beta, g in _split(spec, level, lines[0])[1] if lines else []:
            assert g in (spec.g_min, spec.g_max)
            lam_g = Fraction(spec.lam) * Fraction(g)
            assert c > lam_g
            root = (Fraction(spec.k) * Fraction(spec.shock_ratio) * lam_g
                    / (Fraction(spec.sigma_m) * (c - lam_g)))
            ulps = abs(Fraction(beta) - root) / Fraction(math.ulp(float(root)))
            assert ulps <= 6 * c / (c - lam_g), (beta, float(root))

    @settings(max_examples=300, deadline=None)
    @given(_specs_and_levels())
    @example((FIG1A, 0.0))
    @example((SKEW, 0.5))
    @example((CLAMPED[0], 0.5))
    @example((CLAMPED[1], 0.5))
    def test_vertices_in_the_box_and_non_decreasing(self, spec_level):
        spec, level = spec_level
        lines = extract_contour(spec, level).polylines
        assert len(lines) <= 1
        for line in lines:
            assert line
            for beta, g in line:
                assert spec.beta_min <= beta <= spec.beta_max and spec.g_min <= g <= spec.g_max
            for (b0, g0), (b1, g1) in zip(line, line[1:]):
                assert b0 <= b1 and g0 <= g1

    @pytest.mark.parametrize("lam", [0.0, -0.0, -0.003, -math.inf])
    def test_empty_without_positive_lambda(self, lam):
        spec = GridSpec(beta_min=0.2, beta_max=3.0, g_min=0.0, g_max=300.0,
                        n_beta=5, n_g=5, shock_ratio=0.05, lam=lam)
        for level in (*LEVELS, -1.0, 2.0):
            assert extract_contour(spec, level).polylines == []

    def test_integer_edges_give_float_vertices(self):
        # D = 0 leaves the box through g_max = 100, D = 1/2 enters it through g_min = 40
        ints = GridSpec(beta_min=1, beta_max=3, g_min=40, g_max=100, n_beta=3, n_g=3,
                        shock_ratio=0.05, lam=0.003)
        floats = GridSpec(beta_min=1.0, beta_max=3.0, g_min=40.0, g_max=100.0, n_beta=3, n_g=3,
                          shock_ratio=0.05, lam=0.003)
        for level in LEVELS:
            line, = extract_contour(ints, level).polylines
            assert all(type(v) is float for vertex in line for v in vertex)
            assert _split(ints, level, line)[1]
            assert line == extract_contour(floats, level).polylines[0]

    def test_underflowing_root_divisor_keeps_the_next_node(self):
        # sigma_m * (1 - lam * 90) is 5e-324 * 0.1, which rounds to 0: the
        # crossing of g_max between the first two nodes is kept at the second
        spec = GridSpec(beta_min=1e14, beta_max=1e15, g_min=0.0, g_max=90.0, n_beta=3, n_g=3,
                        shock_ratio=1e-310, lam=0.01, sigma_m=5e-324)
        stability_grid(spec)  # a grid the maps accept
        line, = extract_contour(spec, 0.0).polylines
        assert line == [(1e14, 71.18428189057127), (5.5e14, 90.0)]

    def test_degenerate_specs_pin_what_they_draw(self):
        beta_fixed, g_fixed, both_fixed = DEGENERATE
        # a fixed beta repeats its node: one point, once per node
        assert extract_contour(beta_fixed, 0.0).polylines == [[(1.0, 76.9230769230769)] * 4]
        assert extract_contour(beta_fixed, 0.5).polylines == [[(1.0, 38.46153846153845)] * 4]
        # a fixed G is entered and left at the same beta between two nodes
        assert extract_contour(g_fixed, 0.0).polylines == [[(0.5882352941176471, 50.0)] * 2]
        assert extract_contour(g_fixed, 0.5).polylines == [[(1.4285714285714286, 50.0)] * 2]
        # the curve passes below the one node
        for level in LEVELS:
            assert extract_contour(both_fixed, level).polylines == []

    @staticmethod
    def _a_cell_crosses(scan, level):
        """The rule of the bench's contour check, stated on a scan: some cell
        whose four corners are not singular has corners on both sides of the
        level (above it, or not)."""
        rows = [[None if s else v > level for v, s in zip(row, flags)]
                for row, flags in zip(scan.values, scan.singular)]
        return any(None not in corners and len(set(corners)) == 2
                   for below, above in zip(rows, rows[1:])
                   for corners in zip(below, below[1:], above, above[1:]))

    def test_nonempty_iff_a_usable_cell_crosses(self, bench_inputs):
        for spec in [FIG1A, SKEW, *_map_specs(bench_inputs)]:
            dscan = stability_grid(spec)
            for scan, scan_level, level in ((dscan, 0.0, 0.0),
                                            (amplification_grid(spec), 2.0, 0.5)):
                assert (bool(extract_contour(spec, level).polylines)
                        == self._a_cell_crosses(scan, scan_level)), (spec, level)

    def test_exact_curve_where_every_crossed_cell_is_singular(self):
        # D = 1 - G/100 is 1, -0.5 and -2 at G = 0, 150 and 300: each cell the
        # 1/D = 2 level crosses has a singular corner, so the scan rule finds
        # no crossing, yet the exact curve G = 50 lies in the box
        spec = GridSpec(beta_min=1.0, beta_max=2.0, g_min=0.0, g_max=300.0, n_beta=3, n_g=3,
                        shock_ratio=0.0, lam=0.01)
        assert not self._a_cell_crosses(amplification_grid(spec), 2.0)
        assert extract_contour(spec, 0.5).polylines == [[(1.0, 50.0), (1.5, 50.0), (2.0, 50.0)]]
        assert extract_contour(spec, 0.0).polylines == [[(1.0, 100.0), (1.5, 100.0),
                                                          (2.0, 100.0)]]


class TestMatchesNumpyReference:
    """The pure-Python grids and contours equal the numpy path bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(ref.grid_specs())
    @example(SKEW)
    @example(FIG1A)
    @example(DEGENERATE[0])
    @example(DEGENERATE[1])
    @example(DEGENERATE[2])
    def test_grids(self, spec):
        scan = stability_grid(spec)
        assert _hex_rows(scan.values) == _hex_rows(ref.stability_values(spec).tolist())
        assert [list(r) for r in scan.singular] == [[False] * spec.n_g] * spec.n_beta
        values, singular = ref.amplification_values(spec)
        scan = amplification_grid(spec)
        assert _hex_rows(scan.values) == _hex_rows(values.tolist())
        assert [list(r) for r in scan.singular] == singular.tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        crossed_specs(),
        st.tuples(ref.grid_specs(),
                  st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(-1e6, 1e6)))))
    def test_contours(self, spec_level):
        spec, level = spec_level
        assert (_hex_lines(extract_contour(spec, level).polylines)
                == _hex_lines(ref.threshold_contour(spec, level)))

    @pytest.mark.parametrize("spec", [FIG1A, SKEW, *DEGENERATE],
                             ids=["fig1a", "skew", "beta-fixed", "g-fixed", "both-fixed"])
    def test_map_contours(self, spec):
        # the CLI's contours: D = 0 and 1/D = 2
        for level in LEVELS:
            assert (_hex_lines(extract_contour(spec, level).polylines)
                    == _hex_lines(ref.threshold_contour(spec, level)))


class TestCriticalExposure:
    def test_zero_shock(self):
        oracle = Fraction(1, 1) / (Fraction(1, 100) * 1)
        assert critical_exposure(0.01, 1.0, 0.0) == pytest.approx(float(oracle), rel=REL)
        assert float(oracle) == 100.0

    def test_derived_value(self):
        # oracle: 1/(0.003 * 13/3) = 1000/13
        oracle = 1 / (Fraction(3, 1000) * Fraction(13, 3))
        assert critical_exposure(0.003, 1.0, 0.05) == pytest.approx(float(oracle), rel=REL)
        assert round(float(oracle), 6) == 76.923077

    def test_roundtrip_denominator_is_zero(self):
        for beta in (0.3, 1.0, 2.5):
            g_star = critical_exposure(0.003, beta, 0.05)
            p = ModelParams(lam=0.003, beta=beta, mu0=0.0, n0=g_star, gamma0=1.0)
            assert abs(stability_denominator(p, 0.05)) <= 1e-12

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            critical_exposure(0.0, 1.0, 0.05)
        with pytest.raises(ValueError):
            critical_exposure(-0.003, 1.0, 0.05)


class TestAnalyzeFixedPoint:
    def test_no_feedback(self):
        report = analyze_fixed_point(1.0, 0.0)
        assert report.fixed_point == 1.0
        assert report.classification is FixedPointClass.STABLE

    def test_geometric_series_value(self):
        report = analyze_fixed_point(1.0, 0.5)
        assert report.fixed_point == pytest.approx(2.0, rel=REL)
        assert report.classification is FixedPointClass.STABLE
        # brute-force oracle agrees
        assert iterate_affine(1.0, 0.5, 200) == pytest.approx(2.0, abs=1e-12)

    def test_unit_root_is_singular_blowup(self):
        report = analyze_fixed_point(1.0, 1.0)
        assert report.fixed_point is None
        assert report.classification is FixedPointClass.BLOWUP_BOUNDARY

    def test_flip_boundary(self):
        report = analyze_fixed_point(1.0, -1.0)
        assert report.classification is FixedPointClass.FLIP_BOUNDARY
        assert report.fixed_point == pytest.approx(0.5)

    def test_unstable(self):
        assert analyze_fixed_point(1.0, 1.5).classification is FixedPointClass.UNSTABLE
        assert analyze_fixed_point(1.0, -1.5).classification is FixedPointClass.UNSTABLE

    def test_classification_tolerance_band(self):
        assert analyze_fixed_point(1.0, 1.0 + 5e-10).classification \
            is FixedPointClass.BLOWUP_BOUNDARY
        assert analyze_fixed_point(1.0, -1.0 - 5e-10).classification \
            is FixedPointClass.FLIP_BOUNDARY
        assert analyze_fixed_point(1.0, 1.0 + 5e-9).classification \
            is FixedPointClass.UNSTABLE

    def test_brute_force_oracle_convergence(self):
        rng = np.random.default_rng(20240811)
        for _ in range(20):
            a = rng.uniform(-2, 2)
            f = rng.uniform(-0.99, 0.99)
            report = analyze_fixed_point(a, f)
            assert iterate_affine(a, f, 10_000) == pytest.approx(
                report.fixed_point, abs=1e-9
            )

    def test_brute_force_oracle_divergence(self):
        for f in (1.01, 1.1):
            d, a = 0.0, 1.0
            for _ in range(10_000):
                d = a + f * d
                if abs(d) > 1e6 * abs(a):
                    break
            assert abs(d) > 1e6 * abs(a)


class TestLinearizedFeedback:
    def test_zero_impact(self):
        p = ModelParams(lam=0.0, beta=1.0, mu0=0.0, n0=200.0, gamma0=1.0)
        assert linearized_feedback(p, ImpactSpec.tanh(1.0)) == 0.0

    def test_saturated_value_against_mpmath(self):
        p = ModelParams(lam=0.05, beta=1.0, mu0=0.0, n0=200.0, gamma0=1.0)
        oracle = float(mpmath.tanh(mpmath.mpf(10)))
        got = linearized_feedback(p, ImpactSpec.tanh(1.0))
        assert got == pytest.approx(oracle, rel=1e-12)
        assert str(oracle).startswith("0.999999995877")

    def test_linear_value(self):
        p = ModelParams(lam=0.004, beta=1.0, mu0=0.0, n0=200.0, gamma0=1.0)
        assert linearized_feedback(p, ImpactSpec.linear()) == pytest.approx(0.8, rel=REL)

    def test_tanh_feedback_inside_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = ModelParams(lam=rng.uniform(0.001, 0.1), beta=1.0, mu0=0.0,
                            n0=rng.uniform(1, 500), gamma0=1.0)
            f = linearized_feedback(p, ImpactSpec.tanh(1.0))
            assert abs(f) <= 1.0
            if p.lam * p.n0 < 18.0:
                assert abs(f) < 1.0
