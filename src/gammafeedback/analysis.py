"""
Stability maps and fixed-point analysis of the hedging-feedback loop.

- ``stability_grid(spec)`` / ``amplification_grid(dscan)``: the scalar
  field D(beta, G) over an inclusive rectangular grid, with the surprise
  term evaluated at a fixed exogenous shock ratio, and 1/D computed from
  that D scan.
- ``extract_contour``: marching-squares iso-lines with linear edge
  interpolation; saddle cells are disambiguated by the sign of the
  cell-center average.
- ``critical_exposure``: the analytic root G*(beta) = 1 / (lam * (1 + k*x)),
  i.e. the exposure at which the denominator crosses zero.
- ``analyze_fixed_point`` / ``linearized_feedback``: the affine one-step map
  d_{t+1} = a + f * d_t, its fixed point a / (1 - f), and the eigenvalue of
  the recursion linearized at zero price change.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum

from .model import (
    EPS_SINGULAR,
    ImpactSpec,
    ModelParams,
    _require,
    _surprise_scale,
    hedging_impact,
    surprise_amplification,
)

# Absolute tolerance on |f| - 1 when classifying fixed points.
CLASSIFY_TOL = 1e-9

# Value stored in grid cells flagged singular (keeps CSV round-trips and
# comparisons well-defined; consumers must check the flag, not the value).
SINGULAR_VALUE = 0.0

# The byte of each singular flag. 0 and 1 equal False and True and hash
# alike, so they find the same bytes; any other flag reads 2, which
# GridScan refuses.
_FLAGS = {False: 0, True: 1}


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced floats from lo to hi, in the arithmetic of
    np.linspace: ``lo + i * step``, with the last one set to hi."""
    lo, hi = float(lo), float(hi)
    delta = hi - lo
    step = delta / (n - 1)
    if step == 0:  # a subnormal span: numpy scales i / (n - 1) by delta instead
        return [lo + i / (n - 1) * delta for i in range(n - 1)] + [hi]
    return [lo + i * step for i in range(n - 1)] + [hi]


@dataclass(frozen=True)
class GridSpec:
    """Inclusive rectangular grid over (beta, G) plus the fixed scan inputs.

    Node i on the beta axis sits at beta_min + i * (beta_max - beta_min) /
    (n_beta - 1); the G axis is analogous. A degenerate axis (min == max)
    yields repeated nodes.
    """

    beta_min: float
    beta_max: float
    g_min: float
    g_max: float
    n_beta: int
    n_g: int
    shock_ratio: float
    lam: float
    sigma_m: float = 0.03
    k: float = 2.0

    def __post_init__(self) -> None:
        _require("beta_min", self.beta_min)
        _require("g_min", self.g_min, ">=")
        if not self.beta_max >= self.beta_min:
            raise ValueError("beta_max must be >= beta_min")
        if not self.g_max >= self.g_min:
            raise ValueError("g_max must be >= g_min")
        for lo, hi in (("beta_min", "beta_max"), ("g_min", "g_max")):
            low, high = getattr(self, lo), getattr(self, hi)
            if not math.isfinite(high - low):  # the nodes would be nan or inf
                raise ValueError(f"{hi} - {lo} must be finite ({lo} = {low}, {hi} = {high})")
        if self.n_beta < 2 or self.n_g < 2:
            raise ValueError("n_beta and n_g must be >= 2")
        _require("shock_ratio", self.shock_ratio, ">=")
        if self.lam != self.lam:  # unbounded, but a number
            raise ValueError(f"lam must be a number (got {self.lam})")
        _require("sigma_m", self.sigma_m)
        if self.beta_min * self.sigma_m == 0:  # every node's surprise x divides by it
            raise ValueError(f"beta_min * sigma_m underflows to 0 (beta_min = "
                             f"{self.beta_min}, sigma_m = {self.sigma_m})")
        _require("k", self.k, ">=")

    def betas(self) -> list[float]:
        return linspace(self.beta_min, self.beta_max, self.n_beta)

    def gs(self) -> list[float]:
        return linspace(self.g_min, self.g_max, self.n_g)

    @property
    def cell_width_g(self) -> float:
        return (self.g_max - self.g_min) / (self.n_g - 1)

    @property
    def cell_width_beta(self) -> float:
        return (self.beta_max - self.beta_min) / (self.n_beta - 1)


@dataclass
class GridScan:
    """A scalar field sampled on a GridSpec.

    ``values`` is n_beta rows of n_g doubles, one ``array('d')`` per beta
    node; ``singular`` is n_beta ``bytes`` rows of one 0/1 flag per cell and
    flags cells where the field is undefined (their stored value is
    SINGULAR_VALUE). Any row sequences are accepted and stored that way.
    """

    spec: GridSpec
    values: list[array]
    singular: list[bytes]

    def __post_init__(self) -> None:
        self.values = [row if isinstance(row, array) and row.typecode == "d"
                       else array("d", row) for row in self.values]
        self.singular = [row if type(row) is bytes else bytes([_FLAGS.get(s, 2) for s in row])
                         for row in self.singular]
        if any(row.translate(None, b"\0\1") for row in self.singular):
            raise ValueError("singular flags must be bools, 0 or 1")
        expected = (self.spec.n_beta, self.spec.n_g)
        for name, rows in (("values", self.values), ("singular", self.singular)):
            if len(rows) != expected[0] or any(len(row) != expected[1] for row in rows):
                lengths = sorted({len(row) for row in rows})
                raise ValueError(f"{name} shape: {len(rows)} rows of lengths {lengths}, "
                                 f"expected {expected}")
        for row, flags in zip(self.values, self.singular):
            # singular cells may hold anything: look at the flags only when
            # some cell of the row is not finite
            if not all(map(math.isfinite, row)) and not all(
                    s or math.isfinite(v) for v, s in zip(row, flags)):
                raise ValueError("non-singular cells must be finite")


@dataclass
class ContourSet:
    """Iso-level polylines in (beta, G) coordinates.

    Each polyline is a list of (beta, G) vertices; closed loops repeat their
    first vertex at the end.
    """

    polylines: list


class FixedPointClass(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    FLIP_BOUNDARY = "flip_boundary"
    BLOWUP_BOUNDARY = "blowup_boundary"


@dataclass(frozen=True)
class FixedPointReport:
    """Fixed point of d_{t+1} = a + f * d_t and its stability class.

    ``fixed_point`` is None when 1 - f is within EPS_SINGULAR of zero.
    """

    fixed_point: float | None
    classification: FixedPointClass


def stability_grid(spec: GridSpec) -> GridScan:
    """Evaluate D = 1 - lam*G*(1 + k*x) on the grid, x at the fixed shock.

    Each cell is ``1 - (lam * (1 + k*x)) * G``, in that order.
    """
    gs = spec.gs()
    lam, shock, sigma_m, k = spec.lam, spec.shock_ratio, spec.sigma_m, spec.k
    # every cell is finite when the largest, at (beta_min, g_max), is
    extreme = lam * (1.0 + k * (shock / (spec.beta_min * sigma_m))) * spec.g_max
    if not math.isfinite(extreme):
        raise ValueError(f"lambda * (1 + k * shock_ratio / (beta_min * sigma_m)) * g_max "
                         f"is {extreme!r}: the grid's cells are not finite")
    values = []
    for b in spec.betas():
        la = lam * (1.0 + k * (shock / (b * sigma_m)))
        values.append(array("d", [1.0 - la * g for g in gs]))
    return GridScan(spec, values, [bytes(spec.n_g)] * spec.n_beta)  # one shared zero row


def amplification_grid(dscan: GridScan) -> GridScan:
    """Evaluate 1/D on the grid of a ``stability_grid`` scan of D; cells
    with D <= EPS_SINGULAR are flagged."""
    d = dscan.values
    values = [array("d", [1.0 / v if v > EPS_SINGULAR else SINGULAR_VALUE for v in row])
              for row in d]
    singular = [bytes([v <= EPS_SINGULAR for v in row]) for row in d]
    return GridScan(dscan.spec, values, singular)


# Marching squares: corner bits (c0..c3) of a crossed cell -> segments as
# pairs of local edge ids. Corners: c0=(i,j), c1=(i,j+1), c2=(i+1,j+1),
# c3=(i+1,j); edges: 0=bottom c0-c1, 1=right c1-c2, 2=top c3-c2, 3=left
# c0-c3. Cases 5 (c0 and c2 inside) and 10 (c1 and c3 inside) are saddles;
# when the cell-center average is inside, case + 16 joins the two inside
# corners across the cell.
_MS_TABLE: dict[int, tuple[tuple[int, int], ...]] = {
    1: ((0, 3),),
    2: ((0, 1),),
    3: ((1, 3),),
    4: ((1, 2),),
    5: ((0, 3), (1, 2)),
    6: ((0, 2),),
    7: ((2, 3),),
    8: ((2, 3),),
    9: ((0, 2),),
    10: ((0, 1), (2, 3)),
    11: ((1, 2),),
    12: ((1, 3),),
    13: ((0, 1),),
    14: ((0, 3),),
    5 + 16: ((0, 1), (2, 3)),
    10 + 16: ((0, 3), (1, 2)),
}


def _crossing_point(key, values, level, betas, gs):
    """Linear-interpolated crossing of ``level`` along a node edge."""
    kind, i, j = key
    fa = values[i][j] - level
    if kind == "r":
        fb = values[i][j + 1] - level
        t = fa / (fa - fb)
        return (betas[i], gs[j] + t * (gs[j + 1] - gs[j]))
    fb = values[i + 1][j] - level
    t = fa / (fa - fb)
    return (betas[i] + t * (betas[i + 1] - betas[i]), gs[j])


def extract_contour(scan: GridScan, level: float) -> ContourSet:
    """Marching-squares polylines of ``scan`` at ``level``.

    Cells touching a singular node contribute nothing. Returns an empty set
    when the level is never crossed.
    """
    values = scan.values
    # One byte per node, 1 for usable (not singular) and for inside (usable
    # and above the level; non-singular values are finite, so v > level is
    # v - level > 0), read as little-endian integers: byte j of a row's
    # integer is node j, and a shift by 8 moves to the next node.
    n_g = scan.spec.n_g
    all_usable = int.from_bytes(b"\x01" * n_g, "little")
    inside, usable = [], []
    for row, flags in zip(values, scan.singular):
        if any(flags):
            inside.append(bytes([not s and v > level for v, s in zip(row, flags)]))
            usable.append(int.from_bytes(bytes([not s for s in flags]), "little"))
        else:
            inside.append(bytes([v > level for v in row]))
            usable.append(all_usable)
    masks = [int.from_bytes(row, "little") for row in inside]

    links: dict[tuple, list[tuple]] = {}

    def _link(ka, kb):
        links.setdefault(ka, []).append(kb)
        links.setdefault(kb, []).append(ka)

    for i in range(scan.spec.n_beta - 1):
        a, b = inside[i], inside[i + 1]
        ma, mb = masks[i], masks[i + 1]
        # a cell needs four usable corners and two that differ; going round
        # it, an even number of the corner pairs c0-c1, c1-c2, c2-c3, c3-c0
        # differ, so the cell is crossed when c0-c1, c3-c2 or c0-c3 does
        ok = usable[i] & usable[i + 1]
        ok &= ok >> 8
        todo = ((ma ^ (ma >> 8)) | (mb ^ (mb >> 8)) | (ma ^ mb)) & ok
        while todo:
            low = todo & -todo
            todo ^= low
            j = low.bit_length() >> 3
            # corners c0..c3 of cell (i, j), in the order of _MS_TABLE
            c = a[j] + 2 * a[j + 1] + 4 * b[j + 1] + 8 * b[j]
            if c in (5, 10) and 0.25 * ((values[i][j] - level) + (values[i][j + 1] - level)
                                        + (values[i + 1][j + 1] - level)
                                        + (values[i + 1][j] - level)) > 0:
                c += 16
            # the global identity of each local edge; rows run along G
            edges = (("r", i, j), ("c", i, j + 1), ("r", i + 1, j), ("c", i, j))
            for ea, eb in _MS_TABLE[c]:
                _link(edges[ea], edges[eb])

    # Chain segments into polylines: open chains first (from degree-1 edges
    # in sorted order), then remaining closed loops.
    visited: set[tuple] = set()
    polylines = []

    def _walk(start):
        chain = [start]
        visited.add(start)
        current = start
        while True:
            nxt = None
            for cand in links[current]:
                if cand not in visited:
                    nxt = cand
                    break
            if nxt is None:
                # Closed loop: step back to the start if it is a neighbor.
                if len(chain) > 2 and start in links[current]:
                    chain.append(start)
                break
            chain.append(nxt)
            visited.add(nxt)
            current = nxt
        return chain

    endpoints = sorted(k for k, nbrs in links.items() if len(nbrs) == 1)
    for key in endpoints:
        if key not in visited:
            polylines.append(_walk(key))
    for key in sorted(links):
        if key not in visited:
            polylines.append(_walk(key))

    betas = scan.spec.betas()
    gs = scan.spec.gs()
    return ContourSet([
        [_crossing_point(k, values, level, betas, gs) for k in chain] for chain in polylines
    ])


def critical_exposure(
    lam: float,
    beta: float,
    shock_ratio: float,
    sigma_m: float = 0.03,
    k: float = 2.0,
) -> float:
    """Exposure G* = 1 / (lam * (1 + k*x)) at which the denominator is zero."""
    _require("lam", lam)
    return 1.0 / (lam * surprise_amplification(shock_ratio / _surprise_scale(beta, sigma_m), k))


def analyze_fixed_point(a: float, f: float) -> FixedPointReport:
    """Fixed point a / (1 - f) of the affine map and its classification.

    |f| < 1 is stable, |f| > 1 unstable; f within CLASSIFY_TOL of -1 is the
    flip (period-doubling) boundary, of +1 the blow-up boundary.
    """
    if abs(f - 1.0) <= CLASSIFY_TOL:
        cls = FixedPointClass.BLOWUP_BOUNDARY
    elif abs(f + 1.0) <= CLASSIFY_TOL:
        cls = FixedPointClass.FLIP_BOUNDARY
    elif abs(f) < 1.0:
        cls = FixedPointClass.STABLE
    else:
        cls = FixedPointClass.UNSTABLE
    one_minus = 1.0 - f
    fixed_point = a / one_minus if abs(one_minus) > EPS_SINGULAR else None
    return FixedPointReport(fixed_point, cls)


def linearized_feedback(params: ModelParams, impact: ImpactSpec) -> float:
    """Eigenvalue of the recursion at zero price change: I(lam * N0 * Gamma0).

    The surprise multiplier is 1 at the origin, so only the raw exposure
    product enters.
    """
    return hedging_impact(params.lam * params.n0 * params.gamma0, impact)
