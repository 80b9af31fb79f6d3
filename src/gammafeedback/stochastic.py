"""
Stochastic exposure dynamics: AR(1) option inflow, censoring, and
event-driven spike arrivals, all under a seeded bit-exact generator.

The effective exposure fed to the hedging term is ``n_t + nu_t`` censored
to [0, cap], where ``nu`` follows ``nu' = rho * nu + sigma_n * n_t * eps``
with the deterministic position as the scale, and the cap is the
stationary-dispersion reference level ``n0 * (1 + kappa * sigma_n /
sqrt(1 - rho^2))``. The censor is two comparisons that give what
``min(max(x, 0.0), cap)`` gives, NaN and -0.0 included. Deterministic decay
of the position itself is unchanged. In event-driven runs the AR process is
replaced by a sparse schedule of uniform spikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import Trajectory, _drive, initial_state
from .model import ImpactSpec, ModelParams, _require
from .rng import Rng, _check_seed


def _check_rho(rho: float) -> None:
    """Raise ValueError unless |rho| < 1, the AR(1) process's stationarity."""
    if not abs(rho) < 1:
        raise ValueError(f"rho must satisfy |rho| < 1 (got {rho})")


@dataclass(frozen=True)
class StochasticSpec:
    """AR(1) exposure-noise parameters and the run seed."""

    rho: float = 0.9
    sigma_n: float = 0.2
    kappa: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_rho(self.rho)
        _require("sigma_n", self.sigma_n, ">=")
        _require("kappa", self.kappa)
        _check_seed(self.seed)


@dataclass(frozen=True)
class EventSpec:
    """Sparse option-arrival schedule: spike count, size bound, horizon."""

    horizon: int
    n_spikes: int = 70
    max_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        _require("horizon", self.horizon, ">=", 1)
        _require("n_spikes", self.n_spikes, ">=")
        if self.n_spikes > self.horizon:
            raise ValueError(
                f"n_spikes ({self.n_spikes}) must not exceed horizon ({self.horizon})"
            )
        _require("max_fraction", self.max_fraction, ">=")
        _check_seed(self.seed)


def exposure_cap(n0: float, sigma_n: float, rho: float, kappa: float = 8.0) -> float:
    """Conservative upper bound n0 + kappa * sigma_n * n0 / sqrt(1 - rho^2)."""
    _check_rho(rho)
    return n0 + kappa * sigma_n * n0 / math.sqrt(1.0 - rho * rho)


def simulate_stochastic(
    params: ModelParams,
    impact: ImpactSpec,
    stoch: StochasticSpec,
    horizon: int,
) -> Trajectory:
    """Recursive run with AR(1) exposure deviations.

    Each step draws a normal, advances ``nu`` (scaled by the deterministic
    position), censors ``n_t + nu`` to [0, cap], and feeds the result to
    the hedging term. Bit-identical output for identical inputs.
    """
    normal, rho, sigma_n = Rng(stoch.seed).normal, stoch.rho, stoch.sigma_n
    cap = exposure_cap(params.n0, sigma_n, rho, stoch.kappa)

    def exposure(t: int, n_t: float, nu_t: float) -> tuple[float, float]:
        nu = rho * nu_t + sigma_n * n_t * normal()
        x = n_t + nu
        # min(max(x, 0.0), cap) without the builtin calls, comparison for
        # comparison (cap is above 0): NaN and -0.0 pass as they did
        return (0.0 if 0.0 > x else cap if cap < x else x), nu

    start = initial_state(params)
    return Trajectory._from_columns(_drive(start, params, impact, horizon, exposure))


def generate_event_spikes(spec: EventSpec, n0: float) -> dict[int, float]:
    """Seeded spike schedule: step index -> exposure increment.

    Indices are drawn without replacement from [0, horizon); magnitudes
    are uniform on [0, max_fraction * n0], assigned in draw order; a bound
    that is not finite raises ValueError.
    """
    bound = spec.max_fraction * n0
    if not math.isfinite(bound):
        raise ValueError(f"max_fraction * n0 must be finite (got {spec.max_fraction} * {n0})")
    rng = Rng(spec.seed)
    indices = rng.sample_indices(spec.horizon, spec.n_spikes)
    schedule = {idx: rng.uniform() * bound for idx in indices}
    return dict(sorted(schedule.items()))


def simulate_event_driven(
    params: ModelParams,
    impact: ImpactSpec,
    events: EventSpec,
    stoch: StochasticSpec | None = None,
) -> Trajectory:
    """Recursive run with spike arrivals replacing the AR(1) process.

    The spike active at step t (zero off-schedule) is added to the
    deterministic position and censored to [0, cap] before entering the
    hedging term; the trajectory's ``nu`` column carries the schedule.
    ``stoch`` supplies the cap parameters only (defaults when omitted).
    """
    cap_spec = stoch if stoch is not None else StochasticSpec()
    cap = exposure_cap(params.n0, cap_spec.sigma_n, cap_spec.rho, cap_spec.kappa)
    spike = generate_event_spikes(events, params.n0).get

    def exposure(t: int, n_t: float, nu_t: float) -> tuple[float, float]:
        x = n_t + nu_t  # censored as in simulate_stochastic
        return (0.0 if 0.0 > x else cap if cap < x else x), spike(t + 1, 0.0)

    start = initial_state(params, nu0=spike(0, 0.0))
    return Trajectory._from_columns(_drive(start, params, impact, events.horizon, exposure))
