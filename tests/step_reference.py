"""Reference step: the recursion written out one formula at a time.

The package states each step equation once, in ``dynamics._drive`` and the
exposure hooks of ``stochastic``. This module states them a second time,
in full and in the paper's order, so that the tests can replay every mode
step by step and compare it with the driver state for state:
``position_decay`` (N = n0 / (1 + eta * m^xi)), ``shock_decay``
(mu = mu0 * N / n0), ``ar1_step`` (nu' = rho * nu + sigma_n * N * eps) and
``censor_exposure`` (the exposure clipped to [0, cap]). ``reference_step``
is one step through them, and the ``replay_*`` functions are the four
modes built on it. ``sample_indices`` is the partial Fisher-Yates pass
over a list of the whole pool, the oracle for the generator's sparse
pool. ``outcome`` reduces a run to its states or to the step at which it
overflowed.
"""

import math

from gammafeedback import (NumericalOverflow, Rng, SimState, exposure_cap, generate_event_spikes,
                           relative_surprise, surprise_amplification)
from gammafeedback.dynamics import OVERFLOW_FACTOR


def position_decay(n0, m_cum, eta, xi, step=None):
    """N = n0 / (1 + eta * m_cum^xi). A power beyond the largest double is
    a NumericalOverflow naming ``step``; a finite power whose product with
    eta overflows gives N = 0."""
    try:
        return n0 / (1.0 + eta * m_cum**xi)
    except OverflowError:
        raise NumericalOverflow(f"position decay m**xi overflowed at step {step}") from None


def shock_decay(mu0, n_t, n0):
    """mu = mu0 * n_t / n0: the shock shrinks with the remaining position."""
    return mu0 * n_t / n0


def ar1_step(nu, rho, sigma_n, n_t, epsilon):
    """nu' = rho * nu + sigma_n * n_t * epsilon."""
    return rho * nu + sigma_n * n_t * epsilon


def censor_exposure(n_bar, cap):
    """The exposure clipped to [0, cap]: no short inventory, capped size."""
    return min(max(n_bar, 0.0), cap)


def sample_indices(rng, population, k):
    """k distinct indices from range(population) by partial Fisher-Yates on
    a list of the whole pool: index i swaps with a uniform position in
    [i, population), and the first k entries are the picks, in draw order."""
    pool = list(range(population))
    for i in range(k):
        j = i + rng.randbelow(population - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def reference_impact(y, impact):
    """The dealer response, one branch per kind."""
    if impact.kind == "linear":
        return y
    if impact.kind == "clamp":
        return min(impact.i_max, max(-impact.i_max, y))
    return math.tanh(impact.c * y)


def check_price(s, params, step):
    """The driver's bound: a price outside (0, OVERFLOW_FACTOR * s0] ends the run."""
    if not 0 < s <= OVERFLOW_FACTOR * params.s0:
        raise NumericalOverflow(f"price {s!r} at step {step}")


def reference_step(state, params, impact, exposure_override=None, nu_next=0.0):
    """One step of the recursion, each formula written out."""
    x = relative_surprise(state.ds_obs, state.s, params.beta, params.sigma_m)
    n_eff = state.n_t if exposure_override is None else exposure_override
    gain = reference_impact(
        params.lam * n_eff * params.gamma0 * surprise_amplification(x, params.k),
        impact,
    )
    ds = state.mu_t * state.s + gain * state.ds_obs
    s = state.s + ds
    check_price(s, params, state.t + 1)
    m_cum = state.m_cum + abs(ds / state.s)
    n_t = position_decay(params.n0, m_cum, params.eta, params.xi, state.t + 1)
    mu_t = shock_decay(params.mu0, n_t, params.n0)
    return SimState(state.t + 1, s, ds, m_cum, n_t, mu_t, nu_next)


def start_state(p, nu0=0.0):
    return SimState(0, p.s0, 0.0, 0.0, p.n0, p.mu0, nu0)


def replay_recursive(p, impact, horizon):
    states = [start_state(p)]
    for _ in range(horizon):
        states.append(reference_step(states[-1], p, impact))
    return states


def replay_one_shot(p, impact, horizon):
    """A single round of hedging on the shock-induced move, then flat."""
    shock = p.mu0 * p.s0
    x = relative_surprise(shock, p.s0, p.beta, p.sigma_m)
    gain = reference_impact(
        p.lam * p.n0 * p.gamma0 * surprise_amplification(x, p.k), impact
    )
    ds1 = shock + gain * shock
    s1 = p.s0 + ds1
    check_price(s1, p, 1)
    m_cum = abs(ds1 / p.s0)
    states = [start_state(p), SimState(1, s1, ds1, m_cum, p.n0, 0.0)]
    states += [SimState(t, s1, 0.0, m_cum, p.n0, 0.0) for t in range(2, horizon + 1)]
    return states


def replay_stochastic(p, impact, stoch, horizon):
    rng = Rng(stoch.seed)
    cap = exposure_cap(p.n0, stoch.sigma_n, stoch.rho, stoch.kappa)
    states = [start_state(p)]
    for _ in range(horizon):
        state = states[-1]
        nu = ar1_step(state.nu_t, stoch.rho, stoch.sigma_n, state.n_t, rng.normal())
        n_bar = censor_exposure(state.n_t + nu, cap)
        states.append(reference_step(state, p, impact, n_bar, nu))
    return states


def replay_events(p, impact, events, stoch):
    cap = exposure_cap(p.n0, stoch.sigma_n, stoch.rho, stoch.kappa)
    schedule = generate_event_spikes(events, p.n0)
    states = [start_state(p, schedule.get(0, 0.0))]
    for t in range(events.horizon):
        state = states[-1]
        n_bar = censor_exposure(state.n_t + state.nu_t, cap)
        states.append(reference_step(state, p, impact, n_bar, schedule.get(t + 1, 0.0)))
    return states


def outcome(run):
    """The states of a run, or the step at which it overflowed."""
    try:
        return run()
    except NumericalOverflow as exc:
        return "overflow at step " + str(exc).rsplit(" ", 1)[1]
