"""Scalar reference writers: the per-cell and per-row code the fast writers replace.

``heatmap_svg`` formats every coordinate and colours every cell on its own,
the CSV writers go through ``csv.writer`` one row at a time, and ``ticks``
is ``np.linspace``. The tests require the writers in ``gammafeedback`` to
produce exactly these strings and values. The ``read_*_csv`` readers parse
the written files back for the round-trip tests. ``grid_scans`` draws the
scans the writers are compared on.
"""

import csv
import io

import numpy as np
from hypothesis import strategies as st

from gammafeedback import GridScan, GridSpec, SimState, amplification_grid, stability_grid
from gammafeedback.svgplot import (RAMP_HIGH, RAMP_LOW, SINGULAR_COLOR, _axes, _document,
                                   _f, _Frame, _polyline)


def _fmt(value) -> str:
    return repr(float(value))


def ramp_color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    rgb = [round(lo + t * (hi - lo)) for lo, hi in zip(RAMP_LOW, RAMP_HIGH)]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    return list(np.linspace(lo, hi, n))


def heatmap_svg(scan, contours=(), title="", xlabel="beta", ylabel="G") -> str:
    spec = scan.spec
    betas, gs = spec.betas(), spec.gs()
    frame = _Frame((spec.beta_min, spec.beta_max), (spec.g_min, spec.g_max))
    finite = scan.values[~scan.singular]
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
            if scan.singular[i, j]:
                color = SINGULAR_COLOR
            else:
                color = ramp_color((scan.values[i, j] - vmin) / span)
            body.append(
                f'<rect x="{_f(px)}" y="{_f(py1)}" width="{_f(px1 - px)}" '
                f'height="{_f(py - py1)}" fill="{color}"/>'
            )
    for contour, color, dasharray in contours:
        for line in contour.polylines:
            pts = [(frame.x(b), frame.y(g)) for b, g in line]
            body.append(_polyline(pts, color, width=1.8, dasharray=dasharray))
    body.extend(_axes(frame, xlabel, ylabel, title))
    return _document(body)


def grid_csv(scan) -> str:
    betas = scan.spec.betas()
    gs = scan.spec.gs()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["beta", "G", "value", "singular"])
    for i in range(scan.spec.n_beta):
        for j in range(scan.spec.n_g):
            writer.writerow(
                [
                    _fmt(betas[i]),
                    _fmt(gs[j]),
                    _fmt(scan.values[i, j]),
                    int(scan.singular[i, j]),
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
    shape = (spec.n_beta, spec.n_g)
    n = spec.n_beta * spec.n_g
    if draw(st.booleans()):
        values = np.full(shape, draw(_cell))  # a constant field: span 0
    else:
        values = np.array(draw(st.lists(_cell, min_size=n, max_size=n))).reshape(shape)
    singular = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))).reshape(shape)
    junk = st.sampled_from([np.nan, np.inf, -np.inf, 0.0])
    for i, j in zip(*np.nonzero(singular)):
        values[i, j] = draw(junk)
    return GridScan(spec=spec, field_name="arbitrary", values=values, singular=singular)


def grid_scans():
    """Stability and amplification grids of random specs, and arbitrary scans."""
    return st.one_of(grid_specs().map(stability_grid), grid_specs().map(amplification_grid),
                     arbitrary_scans())
