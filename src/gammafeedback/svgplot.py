"""
Self-contained SVG rendering for grids with contour overlays, and for trajectories.

No external renderer: documents are plain SVG 1.1 text, returned as one-shot
iterators of chunks, with axes, tick labels, and a legend, deterministic for
identical input (fixed float formatting, fixed palette). Heatmaps use a
monotone color ramp of 257 stops, spaced evenly in t from deep blue
(20, 42, 108) at t = 0 to light yellow (249, 240, 85) at t = 1, each channel
interpolated linearly in RGB and rounded: value v is mapped to
t = (v - vmin) / (vmax - vmin) and takes the nearest stop, so every channel
is within 0.95 of the unrounded ramp at t. Singular cells render gray.

A renderer checks its input and sets up its frame when it is called; it
formats each chunk (a row of heatmap cells, a block of polyline points)
only when asked for the next one, so no document is held whole.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import islice

from .analysis import GridScan, linspace
from .dynamics import Trajectory

WIDTH = 720
HEIGHT = 520
MARGIN = {"left": 72, "right": 36, "top": 44, "bottom": 56}
RIGHT_AXIS_MARGIN = 72
TICKS = 6  # evenly spaced, ends included, on every axis

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
RAMP_LOW = (20, 42, 108)
RAMP_HIGH = (249, 240, 85)
RAMP_STEPS = 256  # the ramp has RAMP_STEPS + 1 colour stops
SINGULAR_COLOR = "#9e9e9e"


def _f(v: float) -> str:
    return f"{v:.2f}"


def _ramp_fills(values, singular, vmin: float, vmax: float) -> Iterable[list[str]]:
    """The fills of each row of cells, one row at a time: the ramp stop nearest
    t = (v - vmin) / span, or gray.

    Stop i of the RAMP_STEPS + 1 has each channel ``round(lo + (i / RAMP_STEPS)
    * (hi - lo))``; a cell takes stop ``round(t * RAMP_STEPS)``, rounded half to
    even, with span = vmax - vmin (1 when that is 0). vmin and vmax are the
    least and greatest of the non-singular cells, so t stays in [0, 1], the
    product is exact and the stop index stays in 0..RAMP_STEPS.
    """
    span = (vmax - vmin) or 1.0
    if not math.isfinite(span):
        raise ValueError(f"the finite cells span {span}, beyond the largest double")
    stops = []
    for i in range(RAMP_STEPS + 1):
        r, g, b = (round(lo + (i / RAMP_STEPS) * (hi - lo)) for lo, hi in zip(RAMP_LOW, RAMP_HIGH))
        stops.append(f"#{r:02x}{g:02x}{b:02x}")

    def row_fills(row, flags):
        if any(flags):
            return [SINGULAR_COLOR if s else stops[round((v - vmin) / span * RAMP_STEPS)]
                    for v, s in zip(row, flags)]
        return [stops[round((v - vmin) / span * RAMP_STEPS)] for v in row]
    return map(row_fills, values, singular)


class _Frame:
    """Maps data coordinates to pixel coordinates inside the plot box."""

    def __init__(self, xlim, ylim, right_margin=MARGIN["right"]):
        self.x0, self.x1 = _pad_span(*xlim)
        self.y0, self.y1 = _pad_span(*ylim)
        self.px0 = MARGIN["left"]
        self.px1 = WIDTH - right_margin
        self.py0 = HEIGHT - MARGIN["bottom"]
        self.py1 = MARGIN["top"]

    def x(self, v: float) -> float:
        return self.px0 + (v - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def y(self, v: float) -> float:
        return self.py0 + (v - self.y0) / (self.y1 - self.y0) * (self.py1 - self.py0)


def _pad_span(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        return lo, hi
    pad = abs(lo) * 0.1 or 1.0
    return lo - pad, hi + pad


def _tick(x1, y1, x2, y2, tx, ty, anchor: str, value: float) -> str:
    """A tick mark from (x1, y1) to (x2, y2) and its label ``value`` at (tx, ty)."""
    return (f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            'stroke="#444444" stroke-width="1"/>\n'
            f'<text x="{_f(tx)}" y="{_f(ty)}" font-size="11" text-anchor="{anchor}" '
            f'font-family="sans-serif">{value:.6g}</text>')


def _axes(frame: _Frame, xlabel: str, ylabel: str, title: str) -> list[str]:
    parts = [
        f'<rect x="{_f(frame.px0)}" y="{_f(frame.py1)}" '
        f'width="{_f(frame.px1 - frame.px0)}" height="{_f(frame.py0 - frame.py1)}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    ]
    for xv in linspace(frame.x0, frame.x1, TICKS):
        px = frame.x(xv)
        parts.append(_tick(px, frame.py0, px, frame.py0 + 5, px, frame.py0 + 18, "middle", xv))
    for yv in linspace(frame.y0, frame.y1, TICKS):
        py = frame.y(yv)
        parts.append(_tick(frame.px0 - 5, py, frame.px0, py, frame.px0 - 8, py + 4, "end", yv))
    cx = (frame.px0 + frame.px1) / 2
    parts.append(
        f'<text x="{_f(cx)}" y="{_f(HEIGHT - 14)}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>'
    )
    cy = (frame.py0 + frame.py1) / 2
    parts.append(
        f'<text x="18" y="{_f(cy)}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_f(cy)})">{ylabel}</text>'
    )
    if title:
        parts.append(
            f'<text x="{_f(cx)}" y="26" font-size="15" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    return parts


def _legend(entries: list[tuple[str, str]], frame: _Frame) -> list[str]:
    if not entries:
        return []
    x = frame.px0 + 12
    y = frame.py1 + 12
    height = 18 * len(entries) + 10
    width = 16 + 10 * max(len(label) for label, _ in entries) + 40
    parts = [
        f'<rect x="{_f(x - 6)}" y="{_f(y - 6)}" width="{_f(width)}" height="{_f(height)}" '
        'fill="#ffffff" fill-opacity="0.85" stroke="#888888" stroke-width="0.5"/>'
    ]
    for i, (label, color) in enumerate(entries):
        ly = y + 6 + 18 * i
        parts.append(
            f'<line x1="{_f(x)}" y1="{_f(ly)}" x2="{_f(x + 26)}" y2="{_f(ly)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_f(x + 32)}" y="{_f(ly + 4)}" font-size="11" '
            f'font-family="sans-serif">{label}</text>'
        )
    return parts


def _document(body: Iterable[str | Iterable[str]]) -> Iterator[str]:
    """The head, then each part after its own "\n" chunk (none is copied), then the end.
    A part is a string, or an iterable of the chunks of one element."""
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    for part in body:
        yield "\n"
        yield from (part,) if isinstance(part, str) else part
    yield "\n</svg>\n"


# Long polylines are formatted this many points at a time.
_POINTS_PER_CHUNK = 1024


def _polyline(points: Iterable[tuple[float, float]], color: str, width: float = 1.5,
              dasharray: str | None = None) -> Iterator[str]:
    """The element's chunks, its points formatted _POINTS_PER_CHUNK at a time."""
    coords = (f"{_f(px)},{_f(py)}" for px, py in points)
    yield '<polyline points="' + " ".join(islice(coords, _POINTS_PER_CHUNK))
    while block := " ".join(islice(coords, _POINTS_PER_CHUNK)):
        yield " " + block
    dash = f' stroke-dasharray="{dasharray}"' if dasharray else ""
    yield f'" fill="none" stroke="{color}" stroke-width="{width}"{dash}/>'


def heatmap_svg(scan: GridScan, contours: list[tuple[list, str, str | None]] = (),
                title: str = "") -> Iterator[str]:
    """Grid heatmap with optional (polyline, color, dasharray) overlays, each
    polyline a list of (beta, G) vertices as ``extract_contour`` returns."""
    spec = scan.spec
    betas, gs = spec.betas(), spec.gs()
    frame = _Frame((spec.beta_min, spec.beta_max), (spec.g_min, spec.g_max))
    lows, highs = [], []
    for row, flags in zip(scan.values, scan.singular):
        if any(flags):
            row = [v for v, s in zip(row, flags) if not s]
        if row:
            lows.append(min(row))
            highs.append(max(row))
    vmin = min(lows) if lows else 0.0
    vmax = max(highs) if highs else 1.0

    half_b = (betas[1] - betas[0]) / 2 if betas[1] > betas[0] else 0.5
    half_g = (gs[1] - gs[0]) / 2 if gs[1] > gs[0] else 0.5
    # y and height depend on the G node only, x and width on the beta node
    ys, heights = [], []
    for g in gs:
        py1 = frame.y(min(g + half_g, frame.y1))
        py = frame.y(max(g - half_g, frame.y0))
        ys.append(_f(py1))
        heights.append(_f(py - py1))
    fills = _ramp_fills(scan.values, scan.singular, vmin, vmax)

    def body():  # one part per beta row, then the overlays and the axes
        for b, row in zip(betas, fills):
            px = frame.x(max(b - half_b, frame.x0))
            px1 = frame.x(min(b + half_b, frame.x1))
            x, width = _f(px), _f(px1 - px)
            yield "\n".join([
                f'<rect x="{x}" y="{y}" width="{width}" height="{h}" fill="{fill}"/>'
                for y, h, fill in zip(ys, heights, row)
            ])
        for line, color, dasharray in contours:
            if line:
                pts = [(frame.x(b), frame.y(g)) for b, g in line]
                yield _polyline(pts, color, width=1.8, dasharray=dasharray)
        yield from _axes(frame, "beta", "G", title)
    return _document(body())


def _chart(series, colors, title, xlabel, ylabel, labels=None) -> Iterator[str]:
    """Lines through the (xs, ys) ``series`` on one frame that spans all
    their points, each in its colour, then the axes and, given labels, a
    legend of (label, colour) in series order."""
    # float x limits: a range's int steps then divide as floats, which is faster
    frame = _Frame((float(min(min(xs) for xs, _ in series)),
                    float(max(max(xs) for xs, _ in series))),
                   (min(min(ys) for _, ys in series), max(max(ys) for _, ys in series)))
    body = [_polyline(((frame.x(x), frame.y(y)) for x, y in zip(xs, ys)), color)
            for (xs, ys), color in zip(series, colors)]
    body.extend(_axes(frame, xlabel, ylabel, title))
    body.extend(_legend(list(zip(labels, colors)) if labels else [], frame))
    return _document(body)


def timeseries_svg(
    trajectories: list[Trajectory],
    labels: list[str] | None = None,
    title: str = "",
    xlabel: str = "t",
    ylabel: str = "S",
) -> Iterator[str]:
    """Multi-line price chart; legend entries follow the input order."""
    if not trajectories:
        raise ValueError("no trajectories to plot")
    colors = [PALETTE[idx % len(PALETTE)] for idx in range(len(trajectories))]
    series = [(range(len(traj)), traj.arrays("s")[0]) for traj in trajectories]
    return _chart(series, colors, title, xlabel, ylabel, labels)


def event_series_svg(traj: Trajectory, title: str = "") -> Iterator[str]:
    """Price line on the left axis, exposure spikes as stems on the right."""
    prices, nus = traj.arrays("s", "nu_t")
    frame = _Frame((0.0, float(len(prices) - 1)), (min(prices), max(prices)),
                   right_margin=RIGHT_AXIS_MARGIN)
    nu_max = max(max(nus), 1e-12)
    nu_frame = _Frame((0.0, float(len(prices) - 1)), (0.0, nu_max),
                      right_margin=RIGHT_AXIS_MARGIN)
    base = nu_frame.y(0.0)
    stem_color = PALETTE[0]

    def body():  # the stems, the price line, then both axes and the legend
        for t, nu in enumerate(nus):
            if nu > 0:
                px = frame.x(t)
                yield (f'<line x1="{_f(px)}" y1="{_f(base)}" x2="{_f(px)}" '
                       f'y2="{_f(nu_frame.y(nu))}" stroke="{stem_color}" stroke-width="1.2"/>')
        yield _polyline(((frame.x(t), frame.y(v)) for t, v in enumerate(prices)), PALETTE[3])
        yield from _axes(frame, "t", "S", title)
        for nv in linspace(0.0, nu_frame.y1, TICKS):
            py = nu_frame.y(nv)
            yield _tick(frame.px1, py, frame.px1 + 5, py, frame.px1 + 8, py + 4, "start", nv)
        yield (
            f'<text x="{_f(WIDTH - 14)}" y="{_f((frame.py0 + frame.py1) / 2)}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'transform="rotate(90 {_f(WIDTH - 14)} {_f((frame.py0 + frame.py1) / 2)})">nu</text>'
        )
        yield from _legend([("S", PALETTE[3]), ("nu", stem_color)], frame)
    return _document(body())


def line_chart_svg(xs, ys, title: str = "", xlabel: str = "x",
                   ylabel: str = "y") -> Iterator[str]:
    """Single-series line chart for scalar curves (e.g. root-exposure scans)."""
    return _chart([(xs, ys)], [PALETTE[0]], title, xlabel, ylabel)
