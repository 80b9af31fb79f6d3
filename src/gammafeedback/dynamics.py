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

from array import array
from collections.abc import Iterable, MutableSequence
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


# The array typecode of each SimState field, in field order.
_TYPECODES = "qdddddd"


class Trajectory:
    """An ordered simulation path: the start state and one state per step,
    stored as one array per SimState field (``t`` as 64-bit integers, the
    others as doubles)."""

    def __init__(self, states: Iterable[SimState]) -> None:
        self._cols = dict(zip(SimState._fields, map(array, _TYPECODES)))
        self.states.extend(states)

    @classmethod
    def _from_columns(cls, columns: Iterable[array]) -> Trajectory:
        """The trajectory that holds ``columns``, one per field in field order."""
        traj = cls(())
        traj._cols = dict(zip(SimState._fields, columns))
        return traj

    def __repr__(self) -> str:
        return f"Trajectory(states={self.states!r})"

    def __len__(self) -> int:
        return len(self._cols["t"])

    def __eq__(self, other: object) -> bool:
        return self._cols == other._cols if isinstance(other, Trajectory) else NotImplemented

    @property
    def states(self) -> MutableSequence[SimState]:
        """A live view: each read builds a SimState, each write changes the columns."""
        return _States(self._cols)

    def column(self, name: str) -> list[float]:
        """One state field across all steps, e.g. column('s')."""
        return self._cols[name].tolist()

    def arrays(self, *names: str) -> tuple[array, ...]:
        """The stored columns ``names`` themselves, not copies; the package's
        writers read these."""
        return tuple(self._cols[name] for name in names)

    @property
    def prices(self) -> list[float]:
        return self.column("s")


class _States(MutableSequence):
    """The states of a Trajectory, read from and written to its columns."""

    def __init__(self, cols: dict[str, array]) -> None:
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols["t"])

    def __getitem__(self, i):
        values = [c[i] for c in self._cols.values()]
        return list(map(SimState, *values)) if isinstance(i, slice) else SimState._make(values)

    def __iter__(self):
        return map(SimState, *self._cols.values())

    def _row(self, state: SimState) -> list:
        """``state`` as the columns store it, converted before any column changes."""
        return [array(c.typecode, [v])[0] for c, v in zip(self._cols.values(), SimState(*state))]

    def __setitem__(self, i: int, state: SimState) -> None:
        for c, v in zip(self._cols.values(), self._row(state)):
            c[i] = v

    def __delitem__(self, i: int | slice) -> None:
        for c in self._cols.values():
            del c[i]

    def insert(self, i: int, state: SimState) -> None:
        for c, v in zip(self._cols.values(), self._row(state)):
            c.insert(i, v)

    def __eq__(self, other: object) -> bool:
        return list(self) == list(other) if isinstance(other, (list, _States)) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def initial_state(params: ModelParams, nu0: float = 0.0) -> SimState:
    return SimState(0, params.s0, 0.0, 0.0, params.n0, params.mu0, nu0)


def _drive(start: SimState, params: ModelParams, impact: ImpactSpec, horizon: int,
           exposure: Callable | None = None) -> list[array]:
    """``start`` and the ``horizon`` states after it, one array per SimState
    field; ``exposure`` is the hook ``(t, n_t, nu_t) -> (n_eff, nu_next)`` of
    the module docstring."""
    _require("horizon", horizon, ">=", 1)
    lam, gamma0, k, n0, mu0 = params.lam, params.gamma0, params.k, params.n0, params.mu0
    eta, xi, scale = params.eta, params.xi, params.beta * params.sigma_m
    top = OVERFLOW_FACTOR * params.s0
    respond = _impact_function(impact)
    t0, s, ds, m, n, mu, nu = start
    columns = [array("q", range(t0, t0 + horizon + 1)), *(array("d", [v]) for v in start[1:])]
    add_s, add_ds, add_m, add_n, add_mu, add_nu = (col.append for col in columns[1:])
    for t in range(t0, t0 + horizon):
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
        add_s(s)
        add_ds(ds)
        add_m(m)
        add_n(n)
        add_mu(mu)
        add_nu(nu)
    return columns


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
    _require("m_cum", state.m_cum, ">=")
    n_eff = exposure_override
    return SimState._make(col[1] for col in _drive(
        state, params, impact, 1, lambda t, n_t, nu_t: (n_t if n_eff is None else n_eff, nu_next)))


def simulate_recursive(params: ModelParams, impact: ImpactSpec, horizon: int) -> Trajectory:
    """Full recursive feedback run over ``horizon`` steps (T+1 states)."""
    return Trajectory._from_columns(_drive(initial_state(params), params, impact, horizon))


def simulate_one_shot(params: ModelParams, impact: ImpactSpec, horizon: int) -> Trajectory:
    """One-time hedging reaction: a single amplified jump, then a plateau.

    The jump is the driver's first step from a start whose observed change
    is the shock ``mu0 * s0``: ``ds_1 = shock + gain * shock``. Then the
    shock stops, the position never decays and the price holds flat.
    """
    _require("horizon", horizon, ">=", 1)
    s0, n0, mu0 = params.s0, params.n0, params.mu0
    jump = _drive(SimState(0, s0, mu0 * s0, 0.0, n0, mu0), params, impact, 1)
    _, s, ds, m, _, _, nu = (col[1] for col in jump)
    flat = horizon - 1  # the states after the jump
    return Trajectory._from_columns((
        array("q", range(horizon + 1)),
        array("d", [s0]) + array("d", [s]) * horizon,
        array("d", [0.0, ds]) + array("d", [0.0]) * flat,
        array("d", [0.0]) + array("d", [m]) * horizon,
        array("d", [n0]) * (horizon + 1),
        array("d", [mu0]) + array("d", [0.0]) * horizon,
        array("d", [0.0]) + array("d", [nu]) * horizon,
    ))
