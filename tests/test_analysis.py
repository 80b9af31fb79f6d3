"""Grid scans, contour extraction, and fixed-point analysis.

The contour checks use the analytic root curve G*(beta) = 1/(lam*(1+k*x))
as an independent oracle; fixed points are checked against brute-force
iteration of the affine map.
"""

import math
import re
import sys
import tracemalloc
from array import array
from fractions import Fraction

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


def _amplification(spec):
    return amplification_grid(stability_grid(spec))


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
        for grid in (stability_grid, _amplification):
            assert "".join(grid_csv(grid(ints))) == "".join(grid_csv(grid(floats)))
            assert ("".join(contour_csv(extract_contour(grid(ints), 0.5)))
                    == "".join(contour_csv(extract_contour(grid(floats), 0.5))))

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
        a = amplification_grid(d)
        for i in range(4):
            for j in range(4):
                if d.values[i][j] <= 1e-9:
                    assert a.singular[i][j]
                    assert a.values[i][j] == 0.0
                else:
                    assert not a.singular[i][j]
                    assert abs(a.values[i][j] - 1.0 / d.values[i][j]) <= 1e-12

    def test_zero_exposure_amplification_is_one(self):
        a = amplification_grid(stability_grid(FIG1A))
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
        a = amplification_grid(stability_grid(spec))
        assert a.values[0][1] == pytest.approx(2.0, rel=1e-12)

    def test_consistency_with_stability_grid(self):
        d = stability_grid(FIG1A)
        a = amplification_grid(d)
        assert any(map(any, a.singular)) and not all(map(all, a.singular))
        for a_row, flags, d_row in zip(a.values, a.singular, d.values):
            for av, s, dv in zip(a_row, flags, d_row):
                assert s or abs(av - 1.0 / dv) <= 1e-12


class TestExtractContour:
    def _scan_from(self, values, beta_min=1.0, beta_max=2.0, g_min=0.0, g_max=1.0):
        spec = GridSpec(beta_min=beta_min, beta_max=beta_max, g_min=g_min,
                        g_max=g_max, n_beta=len(values), n_g=len(values[0]),
                        shock_ratio=0.0, lam=0.003)
        return GridScan(spec=spec, values=[[float(v) for v in row] for row in values],
                        singular=[[False] * len(row) for row in values])

    def test_vertical_midline(self):
        scan = self._scan_from([[1.0, -1.0], [1.0, -1.0]])
        contour = extract_contour(scan, 0.0)
        assert len(contour.polylines) == 1
        line = contour.polylines[0]
        assert len(line) == 2
        assert [g for _, g in line] == pytest.approx([0.5, 0.5])  # G at the midpoint column
        assert {b for b, _ in line} == {1.0, 2.0}  # spans the beta range

    def test_no_crossing_is_empty(self):
        scan = self._scan_from([[5.0, 5.0], [5.0, 5.0]])
        contour = extract_contour(scan, 0.0)
        assert contour.polylines == []

    def test_interpolated_crossing_position(self):
        # f = 3 at G=0 and -1 at G=1: crossing at t = 3/4
        scan = self._scan_from([[3.0, -1.0], [3.0, -1.0]])
        contour = extract_contour(scan, 0.0)
        assert [g for _, g in contour.polylines[0]] == pytest.approx([0.75, 0.75])

    def test_closed_loop(self):
        # an island of positive values yields a closed polyline
        values = [[-1.0] * 5 for _ in range(5)]
        values[2][2] = 1.0
        scan = self._scan_from(values)
        contour = extract_contour(scan, 0.0)
        assert len(contour.polylines) == 1
        line = contour.polylines[0]
        assert line[0] == line[-1]  # closed
        assert len(line) == 5

    def test_saddle_disambiguation_by_center(self):
        # opposite-sign diagonal with positive center joins the inside
        # corners into two separate arcs around the negative corners
        values = [[4.0, -1.0], [-1.0, 4.0]]
        scan = self._scan_from(values)
        contour = extract_contour(scan, 0.0)
        assert len(contour.polylines) == 2
        # negative center on the same geometry flips the pairing
        values = [[1.0, -4.0], [-4.0, 1.0]]
        scan = self._scan_from(values)
        contour = extract_contour(scan, 0.0)
        assert len(contour.polylines) == 2

    def test_contour_matches_analytic_root(self):
        scan = stability_grid(FIG1A)
        contour = extract_contour(scan, 0.0)
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
            contour = extract_contour(stability_grid(spec), 0.0)
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
        scan = stability_grid(FIG1A)
        contour = extract_contour(scan, 0.0)
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
        ascan = amplification_grid(stability_grid(spec))
        contour = extract_contour(ascan, 2.0)
        assert contour.polylines
        # every vertex must sit strictly in non-singular territory: its
        # amplification interpolates between finite positive cells
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


@st.composite
def saddle_scans(draw) -> GridScan:
    """Checkerboard signs with drawn magnitudes, so that most cells are
    saddles, and a few singular nodes."""
    spec = draw(ref.grid_specs())
    magnitude = st.one_of(st.integers(1, 3).map(float), st.floats(1e-3, 1e3))  # centers of 0
    values = [[draw(magnitude) * (1 if (i + j) % 2 else -1) for j in range(spec.n_g)]
              for i in range(spec.n_beta)]
    singular = [[draw(st.integers(0, 9)) == 0 for _ in range(spec.n_g)]
                for _ in range(spec.n_beta)]
    return GridScan(spec=spec, values=values, singular=singular)


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
        scan = amplification_grid(scan)
        assert _hex_rows(scan.values) == _hex_rows(values.tolist())
        assert [list(r) for r in scan.singular] == singular.tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(ref.grid_scans(), saddle_scans()),
           st.one_of(st.sampled_from([0.0, -0.0, 2.0]), st.floats(-1e6, 1e6)))
    def test_contours(self, scan, level):
        assert (_hex_lines(extract_contour(scan, level).polylines)
                == _hex_lines(ref.extract_contour(scan, level)))

    @pytest.mark.parametrize("spec", [FIG1A, SKEW, *DEGENERATE],
                             ids=["fig1a", "skew", "beta-fixed", "g-fixed", "both-fixed"])
    def test_map_contours(self, spec):
        # the CLI's contours: D = 0 and 1/D = 2, singular cells and all
        dscan = stability_grid(spec)
        for scan, level in ((dscan, 0.0), (amplification_grid(dscan), 2.0)):
            assert (_hex_lines(extract_contour(scan, level).polylines)
                    == _hex_lines(ref.extract_contour(scan, level)))

    def test_saddle_cells(self):
        # both pairings of each saddle case next to ordinary cells, and a
        # saddle whose center is exactly 0 (outside) in the last row pair
        values = [[4.0, -1.0, 1.0, -4.0], [-1.0, 4.0, -4.0, 1.0], [2.0, 2.0, -3.0, 0.5],
                  [-2.0, -2.0, 3.0, -0.5]]
        spec = GridSpec(beta_min=0.5, beta_max=1.5, g_min=10.0, g_max=40.0, n_beta=4, n_g=4,
                        shock_ratio=0.05, lam=0.003)
        scan = GridScan(spec=spec, values=values, singular=[[False] * 4 for _ in range(4)])
        contour = extract_contour(scan, 0.0)
        assert len(contour.polylines) >= 2
        assert _hex_lines(contour.polylines) == _hex_lines(ref.extract_contour(scan, 0.0))


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
