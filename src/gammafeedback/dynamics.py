"""
Time evolution of the hedging-feedback loop: one step driver for all modes.

``_drive`` advances a start state. One step computes, in this order: the
gain ``I(lam * N * gamma0 * (1 + k*x))`` of the beta-normalized surprise
``x = |ds / s| / (beta * sigma_m)``, the next price change
``mu * s + gain * ds``, the new price, which must stay in
``(0, OVERFLOW_FACTOR * s0]``, the cumulative relative movement ``m``, the
position decay ``N = n0 / (1 + eta * m^xi)`` and the shock decay
``mu = mu0 * N / n0``. The frozen specs validated themselves, so nothing
else is checked per step.

An exposure hook ``exposure(t, n_t, nu_t) -> (n_eff, nu_next)`` picks the
exposure the gain sees at state t and the deviation recorded on state t+1
(an AR(1) process or a spike schedule, see ``stochastic.py``); without a
hook the gain sees the deterministic position and nu stays 0. Decay always
tracks the deterministic position. The recursive run starts from a zero
observed change, so the initiating shock itself carries no feedback; the
one-shot run is one step from a start whose observed change is the shock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .model import ImpactSpec, ModelParams, _impact_function, _require

# A price outside (0, OVERFLOW_FACTOR * s0] aborts a run: only an unbounded
# (linear) impact response climbs above it, and at or below zero a downward
# shock (mu0 < 0) has wiped out the price and the surprise x is undefined.
OVERFLOW_FACTOR = 1e12


class NumericalOverflow(ArithmeticError):
    """Raised when a price leaves (0, OVERFLOW_FACTOR * s0], or the position
    decay's m**xi overflows a double; names the step."""


class SimState(NamedTuple):
    """One time step: price, observed change, cumulative movement,
    active position, current shock rate, and exposure deviation."""

    t: int
    s: float
    ds_obs: float
    m_cum: float
    n_t: float
    mu_t: float
    nu_t: float = 0.0


@dataclass
class Trajectory:
    """An ordered simulation path: the start state and one state per step."""

    states: list[SimState]

    def __len__(self) -> int:
        return len(self.states)

    def column(self, name: str) -> list[float]:
        """One state field across all steps, e.g. column('s')."""
        return [getattr(st, name) for st in self.states]

    @property
    def prices(self) -> list[float]:
        return self.column("s")


def position_decay(n0: float, m_cum: float, eta: float = 2.0, xi: float = 5.0) -> float:
    """Active position n0 / (1 + eta * m_cum^xi); decreasing in movement.

    Raises OverflowError, as Python's float power does, when m_cum**xi
    overflows a double (m_cum = 1e100 with xi = 5, say). Once the power is
    finite, a product eta * m_cum**xi beyond the largest double is inf and
    the position is 0.0. The step driver turns the error into
    NumericalOverflow naming the step.
    """
    _require("m_cum", m_cum, ">=")
    return n0 / (1.0 + eta * m_cum**xi)


def shock_decay(mu0: float, n_t: float, n0: float) -> float:
    """Shock rate proportional to remaining exposure: mu0 * n_t / n0."""
    _require("n0", n0)
    _require("n_t", n_t, ">=")
    return mu0 * n_t / n0


def initial_state(params: ModelParams, nu0: float = 0.0) -> SimState:
    return SimState(0, params.s0, 0.0, 0.0, params.n0, params.mu0, nu0)


def _drive(start: SimState, params: ModelParams, impact: ImpactSpec, horizon: int,
           exposure: Callable | None = None) -> list[SimState]:
    """``start`` and the ``horizon`` states after it; ``exposure`` is the hook
    ``(t, n_t, nu_t) -> (n_eff, nu_next)`` of the module docstring."""
    _require("horizon", horizon, ">=", 1)
    lam, gamma0, k, n0, mu0 = params.lam, params.gamma0, params.k, params.n0, params.mu0
    eta, xi, scale = params.eta, params.xi, params.beta * params.sigma_m
    top = OVERFLOW_FACTOR * params.s0
    respond = _impact_function(impact)
    t, s, ds, m, n, mu, nu = start
    states = [start]
    append = states.append
    for t in range(t, t + horizon):
        if exposure is None:
            n_eff, nu = n, 0.0
        else:
            n_eff, nu = exposure(t, n, nu)
        gain = respond(lam * n_eff * gamma0 * (1.0 + k * (abs(ds / s) / scale)))
        ds = mu * s + gain * ds
        ratio = abs(ds / s)
        s += ds
        if not 0.0 < s <= top:
            raise NumericalOverflow(
                f"price {s!r} left (0, {OVERFLOW_FACTOR:g} * s0] at step {t + 1}"
            )
        m += ratio
        try:
            n = n0 / (1.0 + eta * m**xi)
        except OverflowError:  # a float power raises where a product goes to inf
            raise NumericalOverflow(
                f"position decay m**xi overflowed (m = {m!r}, xi = {xi!r}) at step {t + 1}"
            ) from None
        mu = mu0 * n / n0
        append(SimState(t + 1, s, ds, m, n, mu, nu))
    return states


def feedback_step(
    state: SimState,
    params: ModelParams,
    impact: ImpactSpec,
    exposure_override: float | None = None,
    nu_next: float = 0.0,
) -> SimState:
    """Advance the recursion one step.

    ``exposure_override`` replaces the deterministic position in the
    feedback term only (stochastic and event-driven paths); decay still
    tracks the deterministic position. ``nu_next`` is recorded on the
    returned state.
    """
    _require("s", state.s)
    n_eff = exposure_override
    return _drive(state, params, impact, 1,
                  lambda t, n_t, nu_t: (n_t if n_eff is None else n_eff, nu_next))[1]


def simulate_recursive(params: ModelParams, impact: ImpactSpec, horizon: int) -> Trajectory:
    """Full recursive feedback run over ``horizon`` steps (T+1 states)."""
    return Trajectory(_drive(initial_state(params), params, impact, horizon))


def simulate_one_shot(params: ModelParams, impact: ImpactSpec, horizon: int) -> Trajectory:
    """One-time hedging reaction: a single amplified jump, then a plateau.

    The jump is the driver's first step from a start whose observed change
    is the shock ``mu0 * s0``: ``ds_1 = shock + gain * shock``. Then the
    shock stops, the position never decays and the price holds flat.
    """
    _require("horizon", horizon, ">=", 1)
    s0, n0, mu0 = params.s0, params.n0, params.mu0
    jump = _drive(SimState(0, s0, mu0 * s0, 0.0, n0, mu0), params, impact, 1)[1]
    _, s, ds, m, _, _, nu = jump
    states = [initial_state(params), SimState(1, s, ds, m, n0, 0.0, nu)]
    states += [SimState(t, s, 0.0, m, n0, 0.0, nu) for t in range(2, horizon + 1)]
    return Trajectory(states)
