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
    ar1_step,
    censor_exposure,
    exposure_cap,
    feedback_step,
    generate_event_spikes,
    simulate_event_driven,
    simulate_recursive,
    simulate_stochastic,
)

REL = 1e-9

FIG6 = ModelParams(lam=0.05, beta=1.0, mu0=0.025, n0=200.0, gamma0=1.0)
TANH = ImpactSpec.tanh(1.0)
# unsaturated regime: spikes visibly move the hedging gain
SOFT = ModelParams(lam=0.03, beta=1.0, mu0=0.025, n0=200.0, gamma0=1.0)
SOFT_TANH = ImpactSpec.tanh(0.03)


class TestAr1Step:
    def test_pure_decay(self):
        assert ar1_step(10.0, 0.9, 0.2, 100.0, 0.0) == pytest.approx(9.0, rel=REL)

    def test_derived_value(self):
        # oracle: 0.9*10 + 0.2*100*1 = 29
        assert ar1_step(10.0, 0.9, 0.2, 100.0, 1.0) == pytest.approx(29.0, rel=REL)

    def test_rest_state(self):
        assert ar1_step(0.0, 0.9, 0.2, 100.0, 0.0) == 0.0

    def test_rejects_nonstationary_rho(self):
        with pytest.raises(ValueError):
            ar1_step(0.0, 1.0, 0.2, 100.0, 0.0)


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
    def test_floor(self):
        assert censor_exposure(-5.0, 900.0) == 0.0

    def test_cap(self):
        cap = exposure_cap(200.0, 0.2, 0.9, 8.0)
        assert censor_exposure(1200.0, cap) == cap

    def test_interior_unchanged(self):
        assert censor_exposure(150.0, 900.0) == 150.0

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            censor_exposure(1.0, 0.0)

    def test_rejects_nan_exposure(self):
        # max(nan, 0.0) is nan, which lies in no interval [0, cap]
        with pytest.raises(ValueError, match=r"^n_bar must be a number \(got nan\)$"):
            censor_exposure(math.nan, 10.0)


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

    def test_censoring_bounds_hold(self):
        stoch = StochasticSpec(seed=222)
        cap = exposure_cap(FIG6.n0, stoch.sigma_n, stoch.rho, stoch.kappa)
        traj = simulate_stochastic(FIG6, TANH, stoch, 300)
        for prev, cur in zip(traj.states, traj.states[1:]):
            n_bar = censor_exposure(prev.n_t + cur.nu_t, cap)
            assert 0.0 <= n_bar <= cap

    def test_deterministic_position_decay_unchanged(self):
        # the deterministic n_t column obeys the decay law regardless of noise
        from gammafeedback import position_decay

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
