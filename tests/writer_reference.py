"""Reference implementations: the code the fast writers and the pure-Python maps replace.

``heatmap_svg`` formats every coordinate and colours every cell on its own,
the CSV writers go through ``csv.writer`` one row at a time, and ``ticks``
is ``np.linspace``. ``stability_values``, ``amplification_values``,
``ramp_fills`` and ``threshold_contour`` are the numpy grids, heatmap fills
and threshold curves that ``gammafeedback`` computes in plain Python, written
with numpy. The tests require ``gammafeedback`` to produce exactly these
strings and values, bit for bit. The ``read_*_csv`` readers parse the written
files back for the round-trip tests. ``grid_scans`` draws the scans the
writers are compared on.
"""

import csv
import io
import math

import numpy as np
from hypothesis import strategies as st

from gammafeedback import GridScan, GridSpec, SimState, amplification_grid, stability_grid
from gammafeedback.model import EPS_SINGULAR
from gammafeedback.svgplot import (RAMP_HIGH, RAMP_LOW, RAMP_STEPS, SINGULAR_COLOR, _axes,
                                   _document, _f, _Frame, _polyline)


def _fmt(value) -> str:
    return repr(float(value))


def _grids(scan) -> tuple[np.ndarray, np.ndarray]:
    """A scan's values and singular flags as 2-D arrays, each row read as a list."""
    return (np.array([list(row) for row in scan.values], dtype=float),
            np.array([list(row) for row in scan.singular], dtype=bool))


def ramp_color(t: float) -> str:
    """The colour of the ramp stop nearest t, stop i sitting at t = i / RAMP_STEPS."""
    i = float(np.rint(min(max(t, 0.0), 1.0) * RAMP_STEPS))
    rgb = [round(lo + (i / RAMP_STEPS) * (hi - lo)) for lo, hi in zip(RAMP_LOW, RAMP_HIGH)]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    return list(np.linspace(lo, hi, n))


def heatmap_svg(scan, contours=(), title="", xlabel="beta", ylabel="G") -> str:
    spec = scan.spec
    betas, gs = spec.betas(), spec.gs()
    values, singular = _grids(scan)
    frame = _Frame((spec.beta_min, spec.beta_max), (spec.g_min, spec.g_max))
    finite = values[~singular]
    vmin = float(finite.min()) if finite.size else 0.0
    vmax = float(finite.max()) if finite.size else 1.0
    span = (vmax - vmin) or 1.0

    body = []
    half_b = (betas[1] - betas[0]) / 2 if spec.n_beta > 1 and betas[1] > betas[0] else 0.5
    half_g = (gs[1] - gs[0]) / 2 if spec.n_g > 1 and gs[1] > gs[0] else 0.5
    for i in range(spec.n_beta):
        px = frame.x(max(betas[i] - half_b, frame.x0))
        px1 = frame.x(min(betas[i] + half_b, frame.x1))
        for j in range(spec.n_g):
            py1 = frame.y(min(gs[j] + half_g, frame.y1))
            py = frame.y(max(gs[j] - half_g, frame.y0))
            if singular[i, j]:
                color = SINGULAR_COLOR
            else:
                color = ramp_color((values[i, j] - vmin) / span)
            body.append(
                f'<rect x="{_f(px)}" y="{_f(py1)}" width="{_f(px1 - px)}" '
                f'height="{_f(py - py1)}" fill="{color}"/>'
            )
    for contour, color, dasharray in contours:
        for line in contour.polylines:
            pts = [(frame.x(b), frame.y(g)) for b, g in line]
            body.append(_polyline(pts, color, width=1.8, dasharray=dasharray))
    body.extend(_axes(frame, xlabel, ylabel, title))
    return "".join(_document(body))


def grid_csv(scan) -> str:
    betas = scan.spec.betas()
    gs = scan.spec.gs()
    values, singular = _grids(scan)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["beta", "G", "value", "singular"])
    for i in range(scan.spec.n_beta):
        for j in range(scan.spec.n_g):
            writer.writerow(
                [
                    _fmt(betas[i]),
                    _fmt(gs[j]),
                    _fmt(values[i, j]),
                    int(singular[i, j]),
                ]
            )
    return buf.getvalue()


def contour_csv(contours) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["polyline_id", "beta", "G"])
    for pid, line in enumerate(contours.polylines):
        for beta, g in line:
            writer.writerow([pid, _fmt(beta), _fmt(g)])
    return buf.getvalue()


def trajectory_csv(traj) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "S", "dS", "m_cum", "N", "mu", "nu"])
    for st_ in traj.states:
        writer.writerow(
            [
                st_.t,
                _fmt(st_.s),
                _fmt(st_.ds_obs),
                _fmt(st_.m_cum),
                _fmt(st_.n_t),
                _fmt(st_.mu_t),
                _fmt(st_.nu_t),
            ]
        )
    return buf.getvalue()


def curve_csv(betas, values, value_name="g_star") -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["beta", value_name])
    for beta, value in zip(betas, values):
        writer.writerow([_fmt(beta), _fmt(value)])
    return buf.getvalue()


# -- the numpy maps ------------------------------------------------------------


def stability_values(spec: GridSpec) -> np.ndarray:
    """D = 1 - lam * (1 + k*x) * G over the grid, as whole-array operations."""
    betas = np.linspace(spec.beta_min, spec.beta_max, spec.n_beta)
    gs = np.linspace(spec.g_min, spec.g_max, spec.n_g)
    with np.errstate(all="ignore"):
        x = spec.shock_ratio / (betas * spec.sigma_m)
        amp = 1.0 + spec.k * x
        return 1.0 - spec.lam * amp[:, None] * gs[None, :]


def amplification_values(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """1/D and its singular flags (D <= EPS_SINGULAR, stored as 0.0)."""
    d = stability_values(spec)
    singular = d <= EPS_SINGULAR
    values = np.full(d.shape, 0.0)
    np.divide(1.0, d, out=values, where=~singular)
    return values, singular


def ramp_fills(values, singular, vmin: float, span: float) -> np.ndarray:
    """Every cell's fill: the nearest ramp stop by np.rint, or gray where singular."""
    values = np.asarray(values, dtype=float)
    singular = np.asarray(singular, dtype=bool)
    with np.errstate(all="ignore"):
        t = (np.where(singular, vmin, values) - vmin) / span
    stop = np.rint(t * RAMP_STEPS)
    lo, hi = np.array(RAMP_LOW), np.array(RAMP_HIGH)
    rgb = np.rint(lo + (stop[..., None] / RAMP_STEPS) * (hi - lo)).astype(np.int64)
    codes = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    distinct, index = np.unique(codes, return_inverse=True)
    palette = [f"#{c:06x}" for c in distinct.tolist()] + [SINGULAR_COLOR]
    index = index.reshape(codes.shape)
    index[singular] = len(distinct)
    return np.array(palette, dtype=object)[index]


def threshold_contour(spec: GridSpec, level: float) -> list[np.ndarray]:
    """The level set D = level from the closed form, as whole-array operations:
    G = (1 - level) / a at every beta node, the nodes whose G lies in
    [g_min, g_max], and, where G passes an edge E of the box between two
    nodes, the beta k*s*(lam*E) / (sigma_m * (1 - level - lam*E)), kept
    between the two nodes. At most one (m, 2) array of [beta, G] vertices."""
    if not spec.lam > 0:
        return []
    lam, shock, sigma_m, k = spec.lam, spec.shock_ratio, spec.sigma_m, spec.k
    betas = np.linspace(spec.beta_min, spec.beta_max, spec.n_beta)
    c = 1.0 - level
    with np.errstate(all="ignore"):
        g = c / (lam * (1.0 + k * (shock / (betas * sigma_m))))
    # (position, beta, G): node i at 3i, its crossings of g_min and g_max on
    # the way to node i + 1 at 3i + 1 and 3i + 2
    inside = (spec.g_min <= g) & (g <= spec.g_max)
    vertices = [(3 * i, betas[i], g[i]) for i in np.flatnonzero(inside)]
    for n, edge in enumerate((float(spec.g_min), float(spec.g_max))):
        crossed = (g[:-1] < edge) & (edge < g[1:])
        den = sigma_m * (c - lam * edge)
        root = k * shock * (lam * edge) / den if den > 0 else betas[1:]
        beta = np.minimum(np.maximum(root, betas[:-1]), betas[1:])
        vertices += [(3 * i + 1 + n, beta[i], edge) for i in np.flatnonzero(crossed)]
    vertices.sort()
    return [np.array([(b, gv) for _, b, gv in vertices])] if vertices else []


# -- readers for the round-trip tests ----------------------------------------


def read_grid_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse a grid CSV back into (beta, G, value, singular) column arrays."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["beta", "G", "value", "singular"]:
        raise ValueError(f"unexpected grid CSV header: {rows[0]}")
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    return data[:, 0], data[:, 1], data[:, 2], data[:, 3].astype(bool)


def read_contour_csv(text: str) -> list[np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["polyline_id", "beta", "G"]:
        raise ValueError(f"unexpected contour CSV header: {rows[0]}")
    lines: dict[int, list] = {}
    for pid, beta, g in rows[1:]:
        lines.setdefault(int(pid), []).append((float(beta), float(g)))
    return [np.array(lines[pid]) for pid in sorted(lines)]


def read_trajectory_csv(text: str) -> list[SimState]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["t", "S", "dS", "m_cum", "N", "mu", "nu"]:
        raise ValueError(f"unexpected trajectory CSV header: {rows[0]}")
    return [
        SimState(
            t=int(r[0]),
            s=float(r[1]),
            ds_obs=float(r[2]),
            m_cum=float(r[3]),
            n_t=float(r[4]),
            mu_t=float(r[5]),
            nu_t=float(r[6]),
        )
        for r in rows[1:]
    ]


# -- scans to compare the writers on -----------------------------------------

_positive = st.floats(min_value=0.05, max_value=5.0)
_exposure = st.floats(min_value=0.0, max_value=400.0)


@st.composite
def grid_specs(draw) -> GridSpec:
    """Small specs, a third of them with a degenerate beta or G axis."""
    beta_min = draw(_positive)
    beta_max = draw(st.one_of(st.just(beta_min), st.floats(beta_min, beta_min + 5.0)))
    g_min = draw(st.one_of(st.just(0.0), _exposure))
    g_max = draw(st.one_of(st.just(g_min), st.floats(g_min, g_min + 400.0)))
    return GridSpec(beta_min=beta_min, beta_max=beta_max, g_min=g_min, g_max=g_max,
                    n_beta=draw(st.integers(2, 9)), n_g=draw(st.integers(2, 9)),
                    shock_ratio=draw(st.floats(0.0, 0.2)),
                    lam=draw(st.floats(0.0, 0.02)),
                    sigma_m=draw(st.floats(0.005, 0.1)), k=draw(st.floats(0.0, 4.0)))


_cell = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e6, 1e6))


@st.composite
def arbitrary_scans(draw) -> GridScan:
    """Any values and any singular mask; singular cells may hold nan or inf."""
    spec = draw(grid_specs())
    rows = st.lists(_cell, min_size=spec.n_g, max_size=spec.n_g)
    if draw(st.booleans()):
        values = [[draw(_cell)] * spec.n_g] * spec.n_beta  # a constant field: span 0
    else:
        values = draw(st.lists(rows, min_size=spec.n_beta, max_size=spec.n_beta))
    flags = st.lists(st.booleans(), min_size=spec.n_g, max_size=spec.n_g)
    singular = draw(st.lists(flags, min_size=spec.n_beta, max_size=spec.n_beta))
    junk = st.sampled_from([math.nan, math.inf, -math.inf, 0.0])
    values = [[draw(junk) if s else v for v, s in zip(row, row_flags)]
              for row, row_flags in zip(values, singular)]
    return GridScan(spec=spec, values=values, singular=singular)


def grid_scans():
    """Stability and amplification grids of random specs, and arbitrary scans."""
    return st.one_of(grid_specs().map(stability_grid), grid_specs().map(amplification_grid),
                     arbitrary_scans())
