"""Stochastic exposure: AR(1) noise, censoring, caps, spikes, determinism."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gammafeedback import (
    EventSpec,
    ImpactSpec,
    ModelParams,
    Rng,
    StochasticSpec,
    exposure_cap,
    feedback_step,
    generate_event_spikes,
    simulate_event_driven,
    simulate_recursive,
    simulate_stochastic,
)
from step_reference import censor_exposure, position_decay

REL = 1e-9

FIG6 = ModelParams(lam=0.05, beta=1.0, mu0=0.025, n0=200.0, gamma0=1.0)
TANH = ImpactSpec.tanh(1.0)
# unsaturated regime: spikes visibly move the hedging gain
SOFT = ModelParams(lam=0.03, beta=1.0, mu0=0.025, n0=200.0, gamma0=1.0)
SOFT_TANH = ImpactSpec.tanh(0.03)


class TestAr1Step:
    """The driver's AR(1) update nu' = rho * nu + sigma_n * n_t * eps, read
    from the nu_t column of simulate_stochastic."""

    def test_pure_decay(self):
        # eta * m**xi is inf from step 1, so n_t = 0 and the noise input
        # vanishes: nu decays geometrically from its first draw
        p = ModelParams(lam=0.05, beta=1.0, mu0=2.0, eta=1e10, xi=1000.0)
        traj = simulate_stochastic(p, TANH, StochasticSpec(seed=5), 50)
        nu = traj.column("nu_t")
        assert traj.column("n_t")[1:] == [0.0] * 50 and nu[1] != 0.0
        assert all(b == 0.9 * a for a, b in zip(nu[1:], nu[2:]))

    def test_derived_value(self):
        # the first step scales the seed's first normal by sigma_n * n0
        eps = Rng(8).normal()
        traj = simulate_stochastic(FIG6, TANH, StochasticSpec(seed=8), 1)
        assert traj.states[1].nu_t == pytest.approx(0.2 * 200.0 * eps, rel=REL)
        assert traj.states[1].nu_t != 0.0

    def test_rest_state(self):
        traj = simulate_stochastic(FIG6, TANH, StochasticSpec(sigma_n=0.0, seed=8), 50)
        assert traj.column("nu_t") == [0.0] * 51

    def test_rejects_nonstationary_rho(self):
        for rho in (1.0, -1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"^rho must satisfy \|rho\| < 1"):
                StochasticSpec(rho=rho)


class TestExposureCap:
    def test_no_noise_no_headroom(self):
        assert exposure_cap(200.0, 0.0, 0.9, 8.0) == 200.0

    def test_derived_values(self):
        # oracle: 200 + 8*0.2*200/sqrt(1-0.81) = 200 + 320/sqrt(0.19);
        # consistent with the stationary std 20/sqrt(0.19) = 45.883147
        # scaled by 16
        oracle = 200 + 8 * mpmath.mpf("0.2") * 200 / mpmath.sqrt(1 - mpmath.mpf("0.81"))
        got = exposure_cap(200.0, 0.2, 0.9, 8.0)
        assert got == pytest.approx(float(oracle), rel=REL)
        assert round(float(oracle), 6) == 934.130348
        oracle_rho0 = 200 + 8 * Fraction(2, 10) * 200  # 520
        assert exposure_cap(200.0, 0.2, 0.0, 8.0) == pytest.approx(float(oracle_rho0), rel=REL)

    def test_rejects_nonstationary_rho(self):
        with pytest.raises(ValueError):
            exposure_cap(200.0, 0.2, 1.0, 8.0)
        with pytest.raises(ValueError):
            exposure_cap(200.0, 0.2, -1.0, 8.0)


class TestCensorExposure:
    """The AR(1) hook feeds n_t + nu clipped to [0, cap] to the gain: each
    step of a run equals feedback_step at that clipped exposure."""

    # frozen position, unsaturated gain and a low cap: the exposure leaves
    # [0, cap] on both sides
    P = ModelParams(lam=0.03, beta=1.0, mu0=0.025, n0=200.0, gamma0=1.0, eta=0.0)
    STOCH = StochasticSpec(rho=0.9, sigma_n=0.5, kappa=0.5, seed=3)

    def steps(self, keep):
        """The (state, next state, exposure) of each step whose raw exposure
        n_t + nu passes ``keep(raw, cap)``."""
        cap = exposure_cap(self.P.n0, self.STOCH.sigma_n, self.STOCH.rho, self.STOCH.kappa)
        states = simulate_stochastic(self.P, SOFT_TANH, self.STOCH, 300).states
        pairs = zip(states, states[1:])
        found = [(a, b, a.n_t + b.nu_t) for a, b in pairs if keep(a.n_t + b.nu_t, cap)]
        assert len(found) > 10
        return found, cap

    def test_floor(self):
        found, _ = self.steps(lambda raw, cap: raw < 0)
        for state, nxt, raw in found:
            assert feedback_step(state, self.P, SOFT_TANH, 0.0, nxt.nu_t) == nxt
            assert feedback_step(state, self.P, SOFT_TANH, raw, nxt.nu_t) != nxt

    def test_cap(self):
        found, cap = self.steps(lambda raw, cap: raw > cap)
        for state, nxt, raw in found:
            assert feedback_step(state, self.P, SOFT_TANH, cap, nxt.nu_t) == nxt
            assert feedback_step(state, self.P, SOFT_TANH, raw, nxt.nu_t) != nxt

    def test_interior_unchanged(self):
        found, _ = self.steps(lambda raw, cap: 0 <= raw <= cap)
        for state, nxt, raw in found:
            assert feedback_step(state, self.P, SOFT_TANH, raw, nxt.nu_t) == nxt

    def test_rejects_nonpositive_cap(self):
        # kappa > 0 keeps the cap at or above n0 > 0
        for kappa in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=r"^kappa must be > 0"):
                StochasticSpec(kappa=kappa)


class TestSimulateStochastic:
    def test_degenerate_noise_collapses_to_deterministic(self):
        stoch = StochasticSpec(rho=0.9, sigma_n=0.0, kappa=8.0, seed=777)
        noisy = simulate_stochastic(FIG6, TANH, stoch, 150)
        base = simulate_recursive(FIG6, TANH, 150)
        assert noisy.states == base.states

    def test_determinism_bit_exact(self):
        stoch = StochasticSpec(seed=20240811)
        a = simulate_stochastic(FIG6, TANH, stoch, 200)
        b = simulate_stochastic(FIG6, TANH, stoch, 200)
        assert a.states == b.states
        c = simulate_stochastic(FIG6, TANH, StochasticSpec(seed=20240812), 200)
        assert c.states != a.states

    def test_nu_column_matches_manual_recursion(self):
        # independently replay the AR recursion from the same seed
        stoch = StochasticSpec(rho=0.9, sigma_n=0.2, kappa=8.0, seed=31415)
        traj = simulate_stochastic(FIG6, TANH, stoch, 100)
        rng = Rng(31415)
        nu = 0.0
        for t in range(100):
            nu = 0.9 * nu + 0.2 * traj.states[t].n_t * rng.normal()
            assert traj.states[t + 1].nu_t == nu

    def test_initial_deviation_is_zero(self):
        traj = simulate_stochastic(FIG6, TANH, StochasticSpec(seed=5), 10)
        assert traj.states[0].nu_t == 0.0

    def test_deterministic_position_decay_unchanged(self):
        # the deterministic n_t column obeys the decay law regardless of noise
        traj = simulate_stochastic(FIG6, TANH, StochasticSpec(seed=13), 100)
        for st in traj.states:
            assert st.n_t == pytest.approx(
                position_decay(FIG6.n0, st.m_cum, FIG6.eta, FIG6.xi), rel=1e-12
            )

    def test_stationary_std_constant_scale(self):
        # frozen exposure, silent price: nu is a pure AR(1) with scale
        # sigma_n * n0; sample std must approach sigma_n*n0/sqrt(1-rho^2)
        p = ModelParams(lam=0.05, beta=1.0, mu0=0.0, n0=100.0, gamma0=1.0, eta=0.0)
        traj = simulate_stochastic(p, TANH, StochasticSpec(seed=1), 20_000)
        nu = np.array(traj.column("nu_t")[1:])
        target = 0.2 * 100.0 / math.sqrt(1 - 0.81)
        assert abs(nu.std() - target) / target < 0.05
        assert abs(nu.mean()) < 3 * target / math.sqrt(20_000 * 0.1 / 1.9)


class TestGenerateEventSpikes:
    def test_empty(self):
        spec = EventSpec(horizon=100, n_spikes=0, seed=1)
        assert generate_event_spikes(spec, 200.0) == {}

    def test_fig7_shape(self):
        spec = EventSpec(horizon=500, n_spikes=70, max_fraction=0.3, seed=42)
        schedule = generate_event_spikes(spec, 200.0)
        assert len(schedule) == 70
        assert all(0 <= t < 500 for t in schedule)
        assert all(0.0 <= v <= 60.0 for v in schedule.values())
        assert list(schedule) == sorted(schedule)

    def test_deterministic(self):
        spec = EventSpec(horizon=500, n_spikes=70, seed=9)
        assert generate_event_spikes(spec, 200.0) == generate_event_spikes(spec, 200.0)

    def test_rejects_a_bound_that_is_not_finite(self):
        for max_fraction, n0 in ((math.inf, 200.0), (1e307, 100.0), (0.3, math.inf)):
            spec = EventSpec(horizon=50, n_spikes=5, max_fraction=max_fraction, seed=1)
            with pytest.raises(ValueError, match=r"^max_fraction \* n0 must be finite"):
                generate_event_spikes(spec, n0)
        assert max(generate_event_spikes(EventSpec(50, 5, 1e300, 1), 100.0).values()) < math.inf

    def test_spike_count_validation(self):
        with pytest.raises(ValueError):
            EventSpec(horizon=10, n_spikes=11)


class TestSimulateEventDriven:
    def test_empty_schedule_matches_deterministic(self):
        events = EventSpec(horizon=120, n_spikes=0, seed=3)
        traj = simulate_event_driven(FIG6, TANH, events)
        base = simulate_recursive(FIG6, TANH, 120)
        assert traj.states == base.states

    def test_zero_magnitude_spike_matches_deterministic(self):
        events = EventSpec(horizon=50, n_spikes=1, max_fraction=0.0, seed=3)
        traj = simulate_event_driven(FIG6, TANH, events)
        base = simulate_recursive(FIG6, TANH, 50)
        assert [st.s for st in traj.states] == [st.s for st in base.states]

    def test_nu_column_carries_schedule(self):
        events = EventSpec(horizon=300, n_spikes=40, seed=17)
        schedule = generate_event_spikes(events, FIG6.n0)
        traj = simulate_event_driven(FIG6, TANH, events)
        for t, st in enumerate(traj.states):
            assert st.nu_t == schedule.get(t, 0.0)

    def test_midsqueeze_spike_strictly_increases_next_ds(self):
        # single-spike comparison in the unsaturated regime, all else equal
        base = simulate_event_driven(
            SOFT, SOFT_TANH, EventSpec(horizon=60, n_spikes=0, seed=1)
        )
        cap = exposure_cap(SOFT.n0, 0.2, 0.9, 8.0)
        tau = 6  # mid-squeeze: positive observed change, exposure still large
        st = base.states[tau]
        assert st.ds_obs > 0
        spiked = feedback_step(
            st, SOFT, SOFT_TANH,
            exposure_override=censor_exposure(st.n_t + 30.0, cap),
        )
        assert spiked.ds_obs > base.states[tau + 1].ds_obs

    def test_exactly_seventy_positive_spikes(self):
        events = EventSpec(horizon=500, n_spikes=70, seed=42)
        traj = simulate_event_driven(FIG6, TANH, events)
        positive = sum(1 for st in traj.states if st.nu_t > 0)
        assert positive == 70
        assert len(traj.states) == 501

    def test_determinism(self):
        events = EventSpec(horizon=200, n_spikes=30, seed=5)
        a = simulate_event_driven(FIG6, TANH, events)
        b = simulate_event_driven(FIG6, TANH, events)
        assert a.states == b.states


class TestSpecValidation:
    def test_stochastic_spec(self):
        with pytest.raises(ValueError):
            StochasticSpec(rho=1.0)
        with pytest.raises(ValueError):
            StochasticSpec(sigma_n=-0.1)
        with pytest.raises(ValueError):
            StochasticSpec(kappa=0.0)
        with pytest.raises(ValueError):
            StochasticSpec(seed=-1)

    def test_event_spec(self):
        with pytest.raises(ValueError):
            EventSpec(horizon=0)
        with pytest.raises(ValueError):
            EventSpec(horizon=10, max_fraction=-0.1)
        with pytest.raises(ValueError):
            EventSpec(horizon=10, seed=1 << 64)
