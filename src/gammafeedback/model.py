"""
Closed-form building blocks of the hedging-feedback model.

Everything here is a pure, stateless function of its arguments:

- ``relative_surprise``: how unusual a price move looks once scaled by the
  stock's market sensitivity, x = |dS/S| / (beta * sigma_m).
- ``surprise_amplification``: the hedging-intensity multiplier 1 + k*x.
- ``stability_denominator``: D = 1 - lambda * G * (1 + k*x); D -> 0 marks
  the squeeze threshold.
- ``hedging_impact``: the dealer response function (linear, hard clamp, or
  tanh saturation).
- ``static_response``: the one-period amplified move dS = shock * S / D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Stability denominators at or below this are treated as singular: the
# closed-form response is unbounded there.
EPS_SINGULAR = 1e-9


def _require(name: str, value: float, op: str = ">", bound: float = 0) -> None:
    """Raise ValueError unless ``value op bound``, op being ">" or ">=";
    the test is the bound that must hold, so NaN meets no bound."""
    if not (value > bound if op == ">" else value >= bound):
        raise ValueError(f"{name} must be {op} {bound} (got {value})")


def _surprise_scale(beta: float, sigma_m: float) -> float:
    """The divisor beta * sigma_m of the surprise x, once beta and sigma_m
    are > 0 and their product has not underflowed to 0."""
    _require("beta", beta)
    _require("sigma_m", sigma_m)
    scale = beta * sigma_m
    if scale == 0:
        raise ValueError(f"beta * sigma_m underflows to 0 (beta = {beta}, sigma_m = {sigma_m})")
    return scale


class SingularDenominator(ValueError):
    """Raised when the stability denominator is at or below EPS_SINGULAR.

    Signals the squeeze regime where the linear closed form is unbounded.
    """


@dataclass(frozen=True)
class ModelParams:
    """Structural parameters of the feedback model, validated on construction.

    ``lam`` is the linear price-impact coefficient, ``beta`` the stock's
    market sensitivity (positive only), ``sigma_m`` the market volatility
    per period, ``n0`` the initial option position, ``gamma0`` the gamma
    per contract, ``mu0`` the initiating shock rate, ``k`` the surprise
    amplification slope, ``eta``/``xi`` the position-decay scale and
    exponent, and ``s0`` the initial price. The impact's saturation is not
    a model parameter: it belongs to ``ImpactSpec``.
    """

    lam: float
    beta: float
    mu0: float
    n0: float = 200.0
    gamma0: float = 1.0
    sigma_m: float = 0.03
    k: float = 2.0
    eta: float = 2.0
    xi: float = 5.0
    s0: float = 100.0

    def __post_init__(self) -> None:
        for name in ("lam", "mu0"):  # unbounded, but numbers
            value = getattr(self, name)
            if value != value:
                raise ValueError(f"{name} must be a number (got {value})")
        _surprise_scale(self.beta, self.sigma_m)
        _require("n0", self.n0)
        _require("gamma0", self.gamma0)
        _require("s0", self.s0)
        for name in ("mu0", "s0"):  # lam may be infinite: tanh and clamp saturate it
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite (got {getattr(self, name)})")
        # eta = 0 disables position decay entirely; useful for frozen-exposure
        # studies, so only negative values are rejected.
        _require("eta", self.eta, ">=")
        _require("xi", self.xi)
        _require("k", self.k, ">=")

    @property
    def gamma_exposure(self) -> float:
        """Total gamma exposure G = n0 * gamma0."""
        return self.n0 * self.gamma0


@dataclass(frozen=True)
class ImpactSpec:
    """Dealer hedging-impact response: one of linear, clamp, or tanh.

    ``c`` is the tanh steepness; ``i_max`` the clamp bound.
    """

    kind: str = "tanh"
    c: float = 1.0
    i_max: float = 1.0

    KINDS = ("linear", "clamp", "tanh")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"impact kind must be one of {self.KINDS} (got {self.kind!r})")
        if self.kind == "tanh" and not self.c > 0:
            raise ValueError(f"c must be > 0 for tanh impact (got {self.c})")
        if self.kind == "clamp" and not self.i_max > 0:
            raise ValueError(f"i_max must be > 0 for clamp impact (got {self.i_max})")

    @classmethod
    def linear(cls) -> "ImpactSpec":
        return cls(kind="linear")

    @classmethod
    def clamp(cls, i_max: float) -> "ImpactSpec":
        return cls(kind="clamp", i_max=i_max)

    @classmethod
    def tanh(cls, c: float = 1.0) -> "ImpactSpec":
        return cls(kind="tanh", c=c)


def relative_surprise(delta_s: float, s: float, beta: float, sigma_m: float) -> float:
    """Normalized surprise x = |delta_s / s| / (beta * sigma_m).

    Scaling by beta * sigma_m converts an absolute move into a deviation
    relative to the stock's typical volatility regime; always >= 0.
    """
    _require("s", s)
    return abs(delta_s / s) / _surprise_scale(beta, sigma_m)


def surprise_amplification(x: float, k: float = 2.0) -> float:
    """Hedging-intensity multiplier 1 + k*x; equals 1 at x = 0."""
    _require("x", x, ">=")
    amp = 1.0 + k * x
    if amp != amp:  # inf * 0
        raise ValueError(f"1 + k * x is nan (k = {k}, x = {x})")
    return amp


def stability_denominator(params: ModelParams, shock_ratio: float) -> float:
    """D = 1 - lam * G * (1 + k*x) with x = shock_ratio / (beta * sigma_m).

    Decreasing in exposure and impact; increasing in beta for a fixed
    shock ratio. D <= 0 marks the squeeze regime.
    """
    _require("shock_ratio", shock_ratio, ">=")
    x = shock_ratio / (params.beta * params.sigma_m)
    return 1.0 - params.lam * params.gamma_exposure * surprise_amplification(x, params.k)


def hedging_impact(y: float, spec: ImpactSpec) -> float:
    """Apply the dealer response function to hedging pressure y.

    linear: y unchanged; clamp: y clipped to [-i_max, i_max];
    tanh: tanh(c*y), odd and bounded in (-1, 1).
    """
    return _impact_function(spec)(y)


def _impact_function(spec: ImpactSpec) -> Callable[[float], float]:
    """The response of ``spec`` as a function of y, its kind resolved once."""
    if spec.kind == "linear":
        return lambda y: y
    if spec.kind == "clamp":
        i_max = spec.i_max
        # min(i_max, max(-i_max, y)) without the builtin calls, comparison for
        # comparison (i_max is above 0): NaN gives -i_max, a zero keeps its sign
        return lambda y: (y if y < i_max else i_max) if y > -i_max else -i_max
    c = spec.c
    return lambda y: math.tanh(c * y)


def static_response(
    params: ModelParams,
    shock_ratio: float,
    s: float,
    x_shock_ratio: float | None = None,
) -> float:
    """Closed-form one-period response dS = shock_ratio * s / D.

    D is evaluated at ``x_shock_ratio`` when given (the fixed exogenous
    shock convention used by the grid maps), otherwise at ``shock_ratio``
    itself.  Raises SingularDenominator when D <= EPS_SINGULAR.
    """
    d = stability_denominator(
        params, shock_ratio if x_shock_ratio is None else x_shock_ratio
    )
    if d <= EPS_SINGULAR:
        raise SingularDenominator(
            f"stability denominator {d!r} is at or below {EPS_SINGULAR}; "
            "the linear response is unbounded in this regime"
        )
    return shock_ratio * s / d
