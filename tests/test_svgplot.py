"""SVG emitter: document shape, legends, determinism, pinned chart bytes."""

import hashlib
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import writer_reference as ref
from gammafeedback import (
    EventSpec,
    GridScan,
    GridSpec,
    ImpactSpec,
    ModelParams,
    amplification_grid,
    extract_contour,
    simulate_event_driven,
    simulate_one_shot,
    simulate_recursive,
    stability_grid,
)
from gammafeedback.analysis import linspace
from gammafeedback.svgplot import (_POINTS_PER_CHUNK, RAMP_HIGH, RAMP_LOW, RAMP_STEPS,
                                   SINGULAR_COLOR, _Frame, _pad_span, _polyline, _ramp_fills,
                                   event_series_svg, heatmap_svg, line_chart_svg, timeseries_svg)

PARAMS = ModelParams(lam=0.05, beta=1.0, mu0=0.025)
TANH = ImpactSpec.tanh(1.0)
SPEC = GridSpec(beta_min=0.2, beta_max=3.0, g_min=0.0, g_max=300.0,
                n_beta=8, n_g=9, shock_ratio=0.05, lam=0.003)


def test_flat_trajectory_single_horizontal_polyline():
    flat = simulate_recursive(ModelParams(lam=0.05, beta=1.0, mu0=0.0), TANH, 20)
    svg = "".join(timeseries_svg([flat]))
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    polys = [l for l in svg.splitlines() if l.startswith("<polyline")]
    assert len(polys) == 1
    ys = {pt.split(",")[1] for pt in polys[0].split('points="')[1].split('"')[0].split()}
    assert len(ys) == 1  # horizontal: every vertex at the same pixel height


def test_legend_entries_follow_input_order():
    mus = [0.005, 0.01, 0.015, 0.02, 0.025]
    trajs = [simulate_one_shot(ModelParams(lam=0.05, beta=1.0, mu0=m), TANH, 30)
             for m in mus]
    labels = [f"mu0={m}" for m in mus]
    svg = "".join(timeseries_svg(trajs, labels=labels))
    positions = [svg.index(f">{lbl}</text>") for lbl in labels]
    assert positions == sorted(positions)
    assert len([l for l in svg.splitlines() if l.startswith("<polyline")]) == 5


RECT = re.compile(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)" '
                  r'fill="([^"]+)"')


def test_heatmap_has_cells_and_contour_overlay():
    contour = extract_contour(SPEC, 0.0)
    frame = _Frame((SPEC.beta_min, SPEC.beta_max), (SPEC.g_min, SPEC.g_max))
    nodes = [(i, j) for i in range(SPEC.n_beta) for j in range(SPEC.n_g)]
    for scan in (stability_grid(SPEC), amplification_grid(SPEC)):
        svg = "".join(heatmap_svg(scan, contours=[(contour, "#000000", "6,4")]))
        rects = RECT.findall(svg)
        cells = [r for r in rects if r[4] != "none"]
        assert len(rects) == len(cells) + 1  # the plot frame
        assert len(cells) == SPEC.n_beta * SPEC.n_g

        finite = [v for row, flags in zip(scan.values, scan.singular)
                  for v, s in zip(row, flags) if not s]
        vmin, span = min(finite), max(finite) - min(finite)
        for (i, j), (x, y, width, height, fill) in zip(nodes, cells):
            # the cell's rect holds its own node (on the edge for the clipped
            # outer cells) and has the node's own colour
            assert float(x) <= frame.x(SPEC.betas()[i]) <= float(x) + float(width)
            assert float(y) <= frame.y(SPEC.gs()[j]) <= float(y) + float(height)
            assert fill == (SINGULAR_COLOR if scan.singular[i][j]
                            else ref.ramp_color((scan.values[i][j] - vmin) / span))
        assert 'stroke-dasharray="6,4"' in svg
        assert 'stroke="#000000"' in svg


def _edge_scan(values, singular=None):
    """A 3 x 4 scan of the given 12 values, row by row, none singular by default."""
    spec = GridSpec(beta_min=0.5, beta_max=2.0, g_min=10.0, g_max=90.0,
                    n_beta=3, n_g=4, shock_ratio=0.05, lam=0.003)
    values = [[float(v) for v in values[i:i + 4]] for i in range(0, 12, 4)]
    singular = [[False] * 4 for _ in range(3)] if singular is None else singular
    return GridScan(spec=spec, values=values, singular=singular)


@settings(max_examples=200, deadline=None)
@given(ref.grid_scans())
# two nodes per axis, both axes degenerate, every cell singular (no finite cell)
@example(amplification_grid(GridSpec(
    beta_min=1.0, beta_max=1.0, g_min=100.0, g_max=100.0, n_beta=2, n_g=2, shock_ratio=0.05,
    lam=0.02)))
@example(stability_grid(GridSpec(beta_min=1.0, beta_max=1.0, g_min=0.0, g_max=300.0,
                                 n_beta=4, n_g=5, shock_ratio=0.05, lam=0.003)))
@example(stability_grid(GridSpec(beta_min=0.2, beta_max=3.0, g_min=50.0, g_max=50.0,
                                 n_beta=5, n_g=2, shock_ratio=0.05, lam=0.003)))
@example(_edge_scan([-0.0] * 12))  # a constant field: span 0
@example(_edge_scan([-0.0, 0.0, 1.0, -1.0] * 3))
@example(_edge_scan([2.5] * 12, singular=[[i == j for j in range(4)] for i in range(3)]))
@example(_edge_scan([1.0 + k * 2.0**-52 for k in range(12)]))  # a span of 11 ulps
@example(_edge_scan([-5e8 + k * 1e8 for k in range(12)]))  # a span of 1.1e9
def test_heatmap_matches_scalar_reference(scan):
    contours = [(extract_contour(scan.spec, 0.0), "#000000", "6,4")]
    svg = "".join(heatmap_svg(scan, contours, title="t"))
    assert svg == ref.heatmap_svg(scan, contours, title="t")


_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")


def _order(v: float) -> int:
    """The rank of a double among doubles: adjacent doubles differ by 1."""
    bits = _INT64.unpack(_DOUBLE.pack(v))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _from_order(k: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(k if k >= 0 else -k | -0x8000_0000_0000_0000))[0]


@st.composite
def ramp_ranges(draw):
    """vmin <= vmax a few ulps apart, about 1e9 apart, near zero, or anywhere."""
    kind = draw(st.sampled_from(["ulps", "wide", "tiny", "any"]))
    if kind == "ulps":
        vmin = draw(st.floats(-1e300, 1e300))
        return vmin, _from_order(_order(vmin) + draw(st.integers(0, 12)))
    if kind == "wide":
        vmin = draw(st.floats(-2e9, 2e9))
        return vmin, vmin + draw(st.floats(5e8, 2e9))
    if kind == "tiny":  # across 0.0, down to subnormal spans
        return -draw(st.floats(0.0, 1e-300)), draw(st.floats(0.0, 1e-300))
    a, b = draw(st.floats(-1e300, 1e300)), draw(st.floats(-1e300, 1e300))
    return min(a, b), max(a, b)


@st.composite
def ramp_fields(draw):
    """Rows of values from vmin to vmax, some cells singular and holding junk."""
    vmin, vmax = draw(ramp_ranges())
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(2, 20))
    cell = st.one_of(st.floats(vmin, vmax),
                     st.integers(_order(vmin), _order(vmax)).map(_from_order))
    values = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                           min_size=n_rows, max_size=n_rows))
    values[0][0], values[-1][-1] = vmin, vmax
    singular = [[draw(st.integers(0, 4)) == 0 for _ in range(n_cols)] for _ in range(n_rows)]
    singular[0][0] = singular[-1][-1] = False
    junk = st.sampled_from([math.nan, math.inf, -math.inf, 0.0])
    values = [[draw(junk) if s else v for v, s in zip(row, flags)]
              for row, flags in zip(values, singular)]
    return values, singular, vmin, vmax


def _midpoint_field(vmin, vmax):
    """One row from vmin to vmax: every midpoint between two ramp stops, where
    the stop index is a tie before rounding, and the doubles either side of it."""
    span = (vmax - vmin) or 1.0
    row = [vmin, vmax]
    for i in range(RAMP_STEPS):
        mid = vmin + ((i + 0.5) / RAMP_STEPS) * span
        row += [math.nextafter(mid, -math.inf), mid, math.nextafter(mid, math.inf)]
    row = [min(max(v, vmin), vmax) for v in row]
    return [row], [[False] * len(row)], vmin, vmax


def _midpoint_examples(test):
    for bounds in ((0.0, 1.0), (-5.0, 1.0), (-1.0, 1.0), (1.0, 1.0 + 2.0**-40),
                   (0.0, 5e-324), (1e9, 2e9), (-1e300, 1e300)):
        test = example(_midpoint_field(*bounds))(test)
    return test


# every channel's distance to the unrounded ramp at t: half a unit from rounding
# the stop, plus the channel's slope (at most 229, red) times half a stop spacing
RAMP_TOLERANCE = 0.5 + max(abs(hi - lo) for lo, hi in zip(RAMP_LOW, RAMP_HIGH)) / (2 * RAMP_STEPS)


@settings(max_examples=200, deadline=None)
@given(ramp_fields())
@_midpoint_examples
@example(([[-1.5e308, 1.5e308]], [[False, False]], -1.5e308, 1.5e308))  # span overflows
def test_ramp_fills_stay_near_the_unrounded_ramp(field):
    values, singular, vmin, vmax = field
    assert RAMP_TOLERANCE < 1.0  # what bench/checks.py check_heatmap allows per channel
    span = (vmax - vmin) or 1.0
    if not math.isfinite(span):
        with pytest.raises(ValueError):
            _ramp_fills(values, singular, vmin, vmax)
        return
    fills = list(_ramp_fills(values, singular, vmin, vmax))
    cells = sorted((v, fill) for row, flags, fill_row in zip(values, singular, fills)
                   for v, s, fill in zip(row, flags, fill_row) if not s)
    channels = [(int(fill[1:3], 16), int(fill[3:5], 16), int(fill[5:7], 16))
                for _, fill in cells]
    for (v, _), rgb in zip(cells, channels):
        t = (v - vmin) / span
        for c, lo, hi in zip(rgb, RAMP_LOW, RAMP_HIGH):
            assert abs(c - (lo + t * (hi - lo))) <= RAMP_TOLERANCE
    # red and green never fall, blue never rises, as v increases
    for (r0, g0, b0), (r1, g1, b1) in zip(channels, channels[1:]):
        assert r0 <= r1 and g0 <= g1 and b0 >= b1
    if vmax > vmin:
        assert fills[0][0] == "#142a6c" and fills[-1][-1] == "#f9f055"
    assert all(fill == SINGULAR_COLOR for row, flags in zip(fills, singular)
               for fill, s in zip(row, flags) if s)


@settings(max_examples=200, deadline=None)
@given(ramp_fields())
@_midpoint_examples
def test_ramp_fills_match_numpy_reference(field):
    values, singular, vmin, vmax = field
    if math.isfinite(vmax - vmin):
        want = ref.ramp_fills(values, singular, vmin, (vmax - vmin) or 1.0).tolist()
        assert list(_ramp_fills(values, singular, vmin, vmax)) == want


def _signed(smallest, largest):
    magnitude = st.floats(min_value=smallest, max_value=largest)
    return st.one_of(magnitude, magnitude.map(lambda v: -v))


_tick_ends = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       _signed(1e295, 1.7976931348623157e308),
                       _signed(1e-305, 1e-295))


@st.composite
def tick_spans(draw):
    """Finite lo < hi, or the span _pad_span makes of lo == hi (0.0 included)."""
    a = draw(st.one_of(st.just(0.0), _tick_ends))
    b = draw(st.one_of(st.just(a), _tick_ends))
    if a == b:
        return _pad_span(a, b)
    return min(a, b), max(a, b)


@settings(max_examples=1000, deadline=None)
@given(tick_spans(), st.integers(2, 1000))
@example(_pad_span(0.0, 0.0), 6)
@example((0.0, 5e-324), 6)  # step underflows to 0: numpy scales i / (n - 1) by the span
@example((-1e-323, 1e-323), 6)
@example((-1e308, 1e308), 6)  # the span overflows to inf
@example(_pad_span(1.7e308, 1.7e308), 6)  # padding overflows hi to inf
def test_ticks_match_linspace(span, n):
    lo, hi = span
    with np.errstate(over="ignore", invalid="ignore"):
        expected = ref.ticks(lo, hi, n)
    assert [v.hex() for v in linspace(lo, hi, n)] == [float(v).hex() for v in expected]


def test_heatmap_rejects_a_span_beyond_doubles():
    # (vmax - vmin) overflows; the per-cell ramp raised ValueError here too
    scan = _edge_scan([-1.5e308, 1.5e308] * 6)
    for render in (heatmap_svg, ref.heatmap_svg):
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            render(scan)


@pytest.mark.parametrize("n", [0, 1, _POINTS_PER_CHUNK - 1, _POINTS_PER_CHUNK,
                               _POINTS_PER_CHUNK + 1, 3 * _POINTS_PER_CHUNK + 7])
def test_polyline_blocks_join_to_one_points_list(n):
    # the points go out in blocks of _POINTS_PER_CHUNK, one space between all of them
    points = [(i * 0.5, -i / 3) for i in range(n)]
    chunks = list(_polyline(iter(points), "#123456", dasharray="4,2"))
    assert len(chunks) == 2 + max(0, (n - 1) // _POINTS_PER_CHUNK)
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    assert "".join(chunks) == (f'<polyline points="{coords}" fill="none" stroke="#123456" '
                               'stroke-width="1.5" stroke-dasharray="4,2"/>')


@pytest.mark.parametrize("render", [
    lambda: timeseries_svg([]),
], ids=["timeseries-svg-no-trajectories"])
def test_empty_input_raises_when_the_writer_is_called(render):
    # the writers return lazy iterators, but check their input at the call
    with pytest.raises(ValueError):
        render()


def test_heatmap_marks_singular_cells():
    from gammafeedback import amplification_grid

    scan = amplification_grid(SPEC)
    assert any(map(any, scan.singular))
    svg = "".join(heatmap_svg(scan))
    assert "#9e9e9e" in svg


def test_event_series_has_stems_and_dual_axis():
    events = EventSpec(horizon=120, n_spikes=15, seed=4)
    traj = simulate_event_driven(PARAMS, TANH, events)
    svg = "".join(event_series_svg(traj))
    stems = [l for l in svg.splitlines()
             if l.startswith("<line") and 'stroke="#1f77b4" stroke-width="1.2"' in l]
    assert len(stems) == 15
    assert ">nu</text>" in svg


def test_deterministic_output():
    traj = simulate_recursive(PARAMS, TANH, 30)
    assert "".join(timeseries_svg([traj])) == "".join(timeseries_svg([traj]))
    scan = stability_grid(SPEC)
    assert "".join(heatmap_svg(scan)) == "".join(heatmap_svg(scan))


def test_line_chart():
    svg = "".join(line_chart_svg([0.5, 1.0, 2.0], [100.0, 77.0, 60.0],
                                 xlabel="beta", ylabel="G*"))
    assert svg.count("<polyline") == 1
    assert ">beta</text>" in svg


MUS = (0.005, 0.01, 0.015, 0.02, 0.025)


def _five_labelled_runs():
    trajs = [simulate_recursive(ModelParams(lam=0.05, beta=1.0, mu0=m, n0=200.0, gamma0=1.0),
                                TANH, 200) for m in MUS]
    return timeseries_svg(trajs, labels=[f"mu0={m}" for m in MUS], title="Recursive sweep")


def _unequal_horizons():
    trajs = [simulate_one_shot(ModelParams(lam=0.05, beta=1.0, mu0=m), TANH, h)
             for m, h in zip(MUS, (40, 10, 25, 1, 30))]
    return timeseries_svg(trajs, xlabel="step", ylabel="price")


# SHA-256 of the bytes of the charts that no CLI golden renders: multi-series
# price charts, with a legend and with series of different lengths.
PINNED_CHARTS = {
    "five-labelled-runs": (_five_labelled_runs,
                           "bb85d5605b3363d5547885bb096287db08fa48af884d5a6c3de8a3e90b8cf924"),
    "unequal-horizons": (_unequal_horizons,
                         "e2da42fd81295009b1a04401ec8cb7c3a878fb46917cece750ed466012bd2b62"),
}


@pytest.mark.parametrize("name", PINNED_CHARTS)
def test_chart_bytes_pinned(name):
    render, digest = PINNED_CHARTS[name]
    assert hashlib.sha256("".join(render()).encode("utf-8")).hexdigest() == digest
