"""
Stability maps and fixed-point analysis of the hedging-feedback loop.

- ``stability_grid(spec)`` / ``amplification_grid(spec)``: the scalar
  field D(beta, G) over an inclusive rectangular grid, with the surprise
  term evaluated at a fixed exogenous shock ratio, and 1/D, each beta row
  computed from that row's D values, so no whole D scan is held.
- ``extract_contour(spec, level)``: the level set D = level in the grid
  box, from the closed form G = (1 - level) / (lam * (1 + k*x)): at most
  one polyline, its vertices in non-decreasing beta. Level 0 is the
  threshold curve; the 1/D = 2 curve of an amplification map is level 1/2.
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


def _d_rows(spec: GridSpec):
    """Each beta row of D = 1 - lam*G*(1 + k*x), x at the fixed shock, as a
    list: each cell is ``1 - (lam * (1 + k*x)) * G``, in that order."""
    gs = spec.gs()
    lam, shock, sigma_m, k = spec.lam, spec.shock_ratio, spec.sigma_m, spec.k
    # every cell is finite when the largest, at (beta_min, g_max), is
    extreme = lam * (1.0 + k * (shock / (spec.beta_min * sigma_m))) * spec.g_max
    if not math.isfinite(extreme):
        raise ValueError(f"lambda * (1 + k * shock_ratio / (beta_min * sigma_m)) * g_max "
                         f"is {extreme!r}: the grid's cells are not finite")
    for b in spec.betas():
        la = lam * (1.0 + k * (shock / (b * sigma_m)))
        yield [1.0 - la * g for g in gs]


def stability_grid(spec: GridSpec) -> GridScan:
    """Evaluate D = 1 - lam*G*(1 + k*x) on the grid, x at the fixed shock."""
    values = [array("d", row) for row in _d_rows(spec)]
    return GridScan(spec, values, [bytes(spec.n_g)] * spec.n_beta)  # one shared zero row


def amplification_grid(spec: GridSpec) -> GridScan:
    """Evaluate 1/D on the grid, each row from that row's D values; cells
    with D <= EPS_SINGULAR are flagged."""
    values, singular = [], []
    for row in _d_rows(spec):
        values.append(array("d", [1.0 / v if v > EPS_SINGULAR else SINGULAR_VALUE for v in row]))
        singular.append(bytes([v <= EPS_SINGULAR for v in row]))
    return GridScan(spec, values, singular)


def extract_contour(spec: GridSpec, level: float) -> list[tuple[float, float]]:
    """The level set D = ``level`` in the grid box, from the closed form.

    For lam > 0 the set is the curve G_c(beta) = (1 - level) / a(beta), with
    a(beta) = lam * (1 + k*x) computed as ``stability_grid`` computes it per
    row. G_c is non-decreasing in beta, so the box holds at most one piece of
    it, returned as one polyline of (beta, G) vertices: one at each beta node
    whose G_c lies in [g_min, g_max], and, between two nodes, one where the
    curve enters through g_min or leaves through g_max, at the exact beta
    k*s / (sigma_m * ((1 - level) / (lam * G) - 1)) of that edge G. The list
    is empty when the curve misses the box, and for lam <= 0.
    """
    lam, shock, sigma_m, k = spec.lam, spec.shock_ratio, spec.sigma_m, spec.k
    if not lam > 0:
        return []
    c, g_min, g_max = 1.0 - level, float(spec.g_min), float(spec.g_max)
    line, b0, g0 = [], spec.beta_min, math.inf
    for b in spec.betas():
        g = c / (lam * (1.0 + k * (shock / (b * sigma_m))))
        for edge in (g_min, g_max):
            if g0 < edge < g:  # the curve crosses this edge of the box between b0 and b
                # the root above with lam * edge multiplied through; b if the
                # divisor underflows to 0
                den = sigma_m * (c - lam * edge)
                root = k * shock * (lam * edge) / den if den > 0 else b
                # rounding can pass a node: kept between b0 and b, and so, being
                # non-decreasing in edge, never before the vertex of g_min
                line.append((min(max(root, b0), b), edge))
        if g_min <= g <= g_max:
            line.append((b, g))
        b0, g0 = b, g
    return line


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
