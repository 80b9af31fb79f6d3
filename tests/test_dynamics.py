"""Simulation engines: decay laws, single steps, full runs of all four modes.

Oracles: Fraction arithmetic for the decay formulas, mpmath for saturation
values, brute-force affine iteration for the frozen-exposure regime, and the
reference step of ``step_reference`` (the recursion written out one formula
at a time) that every mode must match state for state.
"""

import copy
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammafeedback import (
    EventSpec,
    ImpactSpec,
    ModelParams,
    NumericalOverflow,
    SimState,
    StochasticSpec,
    Trajectory,
    feedback_step,
    simulate_event_driven,
    simulate_one_shot,
    simulate_recursive,
    simulate_stochastic,
    stability_denominator,
)
from step_reference import (outcome, position_decay, reference_step, replay_events,
                            replay_one_shot, replay_recursive, replay_stochastic)

REL = 1e-9

FIG4 = ModelParams(lam=0.05, beta=1.0, mu0=0.025, n0=200.0, gamma0=1.0,
                   sigma_m=0.03, eta=2.0, xi=5.0)
TANH = ImpactSpec.tanh(1.0)


def frozen_params(feedback, mu0=0.0, k=0.0):
    """Exposure/shock frozen (eta=0) with linear gain lam*n0 = feedback."""
    return ModelParams(lam=feedback / 200.0, beta=1.0, mu0=mu0, n0=200.0,
                       gamma0=1.0, k=k, eta=0.0)


class TestPositionDecay:
    """The driver's decay N = n0 / (1 + eta * m^xi), read from its n_t column."""

    def test_no_movement(self):
        traj = simulate_recursive(ModelParams(lam=0.05, beta=1.0, mu0=0.0), TANH, 20)
        assert traj.column("m_cum") == [0.0] * 21
        assert traj.column("n_t") == [200.0] * 21

    def test_derived_values(self):
        # a shock of mu0 * s0 moves m to mu0 at step 1
        one = simulate_recursive(ModelParams(lam=0.05, beta=1.0, mu0=1.0), TANH, 1)
        oracle = Fraction(200) / (1 + 2 * Fraction(1) ** 5)  # 200/3
        assert one.states[1].m_cum == 1.0
        assert one.states[1].n_t == pytest.approx(float(oracle), rel=REL)
        assert round(float(oracle), 6) == 66.666667
        half = simulate_recursive(ModelParams(lam=0.05, beta=1.0, mu0=0.5), TANH, 1)
        oracle = Fraction(200) / (1 + 2 * Fraction(1, 2) ** 5)  # 3200/17
        assert half.states[1].m_cum == 0.5
        assert half.states[1].n_t == pytest.approx(float(oracle), rel=REL)
        assert round(float(oracle), 6) == 188.235294

    def test_strictly_decreasing_and_positive(self):
        traj = simulate_recursive(FIG4, TANH, 50)
        m, n = traj.column("m_cum"), traj.column("n_t")
        assert all(a < b for a, b in zip(m, m[1:]))
        assert all(a > b for a, b in zip(n, n[1:]))
        assert all(x > 0 for x in n)

    def test_eta_zero_disables_decay(self):
        p = ModelParams(lam=0.05, beta=1.0, mu0=0.025, eta=0.0)
        traj = simulate_recursive(p, TANH, 50)
        assert traj.states[-1].m_cum > 7.0
        assert traj.column("n_t") == [200.0] * 51
        assert traj.column("mu_t") == [0.025] * 51

    def test_power_overflow_raises(self):
        # m_1 = 2 and 2**1100 is beyond the largest double: float ** raises,
        # and the driver names the step
        with pytest.raises(NumericalOverflow, match=r"m\*\*xi overflowed .* at step 1$"):
            simulate_recursive(ModelParams(lam=0.05, beta=1.0, mu0=2.0, xi=1100.0), TANH, 5)
        # 2**1000 is finite but eta times it is inf: the position and the
        # shock are gone from step 1 on, without an error
        p = ModelParams(lam=0.05, beta=1.0, mu0=2.0, eta=1e10, xi=1000.0)
        traj = simulate_recursive(p, TANH, 5)
        assert traj.column("n_t") == [200.0] + [0.0] * 5
        assert traj.column("mu_t") == [2.0] + [0.0] * 5


class TestShockDecay:
    """The driver's shock decay mu = mu0 * N / n0, read from its mu_t column."""

    def test_undecayed(self):
        traj = simulate_recursive(FIG4, TANH, 1)
        assert traj.states[0].mu_t == 0.025
        frozen = simulate_recursive(dataclasses.replace(FIG4, eta=0.0), TANH, 10)
        assert frozen.column("mu_t") == [0.025] * 11

    def test_half_exposure_half_shock(self):
        # m_1 = 1 and eta = 1 halve the position, and with it the shock
        p = ModelParams(lam=0.05, beta=1.0, mu0=1.0, eta=1.0)
        step = simulate_recursive(p, TANH, 1).states[1]
        assert (step.n_t, step.mu_t) == (100.0, 0.5)

    def test_fully_decayed(self):
        p = ModelParams(lam=0.05, beta=1.0, mu0=2.0, eta=1e10, xi=1000.0)
        step = simulate_recursive(p, TANH, 1).states[1]
        assert (step.n_t, step.mu_t) == (0.0, 0.0)

    def test_rejects_nonpositive_n0(self):
        # the decay divides by n0, which ModelParams holds > 0
        for n0 in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=r"^n0 must be > 0"):
                ModelParams(lam=0.05, beta=1.0, mu0=0.025, n0=n0)


class TestFeedbackStep:
    def test_initial_step_example(self):
        p = ModelParams(lam=0.05, beta=1.0, mu0=0.01, n0=200.0, gamma0=1.0)
        state = SimState(t=0, s=100.0, ds_obs=0.0, m_cum=0.0, n_t=200.0, mu_t=0.01)
        nxt = feedback_step(state, p, TANH)
        assert nxt.ds_obs == pytest.approx(1.0, rel=REL)
        assert nxt.s == pytest.approx(101.0, rel=REL)
        assert nxt.m_cum == pytest.approx(0.01, rel=REL)
        # oracle: 200 / (1 + 2 * 0.01^5) ~ 200 - 4e-8
        oracle = Fraction(200) / (1 + 2 * Fraction(1, 100) ** 5)
        assert nxt.n_t == pytest.approx(float(oracle), rel=1e-12)
        assert nxt.n_t < 200.0

    def test_zero_shock_zero_change_is_fixed_point(self):
        p = ModelParams(lam=0.05, beta=1.0, mu0=0.0, n0=200.0, gamma0=1.0)
        state = SimState(t=0, s=100.0, ds_obs=0.0, m_cum=0.0, n_t=200.0, mu_t=0.0)
        for _ in range(50):
            state = feedback_step(state, p, TANH)
        assert state.s == 100.0
        assert state.ds_obs == 0.0

    def test_geometric_decay_matches_affine_iterates(self):
        # frozen exposure, linear impact, gain 0.5, seeded unit displacement
        p = frozen_params(0.5)
        state = SimState(t=0, s=100.0, ds_obs=1.0, m_cum=0.0, n_t=200.0, mu_t=0.0)
        oracle = 1.0
        for _ in range(30):
            state = feedback_step(state, p, ImpactSpec.linear())
            oracle = 0.0 + 0.5 * oracle
            assert state.ds_obs == pytest.approx(oracle, rel=1e-12)

    def test_exposure_override_changes_feedback_only(self):
        state = SimState(t=0, s=100.0, ds_obs=2.0, m_cum=0.1, n_t=150.0, mu_t=0.01)
        with_override = feedback_step(state, FIG4, TANH, exposure_override=10.0)
        without = feedback_step(state, FIG4, TANH)
        assert with_override.ds_obs < without.ds_obs
        # decay still follows the deterministic position, not the override
        assert with_override.n_t == position_decay(
            FIG4.n0, with_override.m_cum, FIG4.eta, FIG4.xi
        )

    def test_overflow_raised_in_divergent_linear_regime(self):
        p = frozen_params(1.5, mu0=0.01)
        with pytest.raises(NumericalOverflow):
            simulate_recursive(p, ImpactSpec.linear(), 10_000)


class TestStabilityCondition:
    """The paper's squeeze condition on the step driver: with a linear
    response, no decay (eta = 0) and no shock (mu0 = 0), one step multiplies
    dS by lam * N * gamma0 * (1 + k*x) = 1 - D, so |dS| grows exactly when
    D = stability_denominator(p, |dS/S|) < 0."""

    # the driver multiplies lam * N * gamma0 left to right, D takes
    # lam * (N * gamma0): the two may differ in the last bits near D = 0
    TOL = 8 * math.ulp(1.0)

    @given(lam=st.floats(1e-4, 0.02), n0=st.floats(10.0, 400.0),
           gamma0=st.floats(0.1, 2.0), beta=st.floats(0.05, 3.0),
           sigma_m=st.floats(0.005, 0.1), k=st.floats(0.0, 5.0))
    @settings(max_examples=300, deadline=None)
    def test_dS_grows_exactly_when_D_is_negative(self, lam, n0, gamma0, beta, sigma_m, k):
        p = ModelParams(lam=lam, beta=beta, mu0=0.0, n0=n0, gamma0=gamma0,
                        sigma_m=sigma_m, k=k, eta=0.0)
        # acceptance criterion 3's start state, a unit displacement
        state = SimState(t=0, s=100.0, ds_obs=1.0, m_cum=0.0, n_t=n0, mu_t=0.0)
        for _ in range(40):
            d = stability_denominator(p, abs(state.ds_obs / state.s))
            try:
                nxt = feedback_step(state, p, ImpactSpec.linear())
            except NumericalOverflow:
                break
            if abs(d) > self.TOL:
                assert (abs(nxt.ds_obs) > abs(state.ds_obs)) == (d < 0), (state, d)
            state = nxt


class TestSimulateRecursive:
    def test_zero_shock_flat(self):
        traj = simulate_recursive(FIG4, TANH, 50)
        flat = simulate_recursive(
            ModelParams(lam=0.05, beta=1.0, mu0=0.0), TANH, 50
        )
        assert traj.prices[-1] > 100.0
        assert all(s == 100.0 for s in flat.prices)

    def test_state_indexing_and_price_identity(self):
        traj = simulate_recursive(FIG4, TANH, 100)
        assert len(traj.states) == 101
        for t, st in enumerate(traj.states):
            assert st.t == t
        for prev, cur in zip(traj.states, traj.states[1:]):
            assert cur.s == pytest.approx(prev.s + cur.ds_obs, rel=1e-12)

    def test_monotone_movement_and_position(self):
        traj = simulate_recursive(FIG4, TANH, 300)
        m = traj.column("m_cum")
        n = traj.column("n_t")
        assert all(a <= b for a, b in zip(m, m[1:]))
        assert all(a >= b for a, b in zip(n, n[1:]))
        assert all(x <= FIG4.n0 for x in n)

    def test_shock_proportionality_within_ulp(self):
        traj = simulate_recursive(FIG4, TANH, 200)
        for st in traj.states:
            lhs = st.mu_t * FIG4.n0
            rhs = FIG4.mu0 * st.n_t
            assert abs(lhs - rhs) <= math.ulp(max(abs(lhs), abs(rhs)))

    def test_rise_then_plateau_shape(self):
        traj = simulate_recursive(FIG4, TANH, 200)
        ds = [abs(st.ds_obs) for st in traj.states]
        peak = max(ds)
        # explosive onset: the largest move lands early and is large
        assert ds.index(peak) < 30
        assert peak > 20.0
        assert traj.prices[50] > 4 * FIG4.s0
        # plateau: late drift is small both per step and over the tail
        assert ds[-1] < 1e-3 * traj.prices[-1]
        assert abs(traj.prices[200] - traj.prices[100]) < 0.05 * traj.prices[100]

    def test_beta_ordering_at_second_step(self):
        lo = simulate_recursive(
            ModelParams(lam=0.05, beta=0.5, mu0=0.025), TANH, 2
        )
        hi = simulate_recursive(
            ModelParams(lam=0.05, beta=3.0, mu0=0.025), TANH, 2
        )
        assert lo.states[2].ds_obs > hi.states[2].ds_obs

    def test_bounded_under_saturation(self):
        rng = np.random.default_rng(99)
        for impact in (TANH, ImpactSpec.clamp(0.9)):
            for _ in range(25):
                p = ModelParams(
                    lam=rng.uniform(0.001, 0.1), beta=rng.uniform(0.2, 3.0),
                    mu0=rng.uniform(0.0, 0.05), n0=rng.uniform(1.0, 500.0),
                )
                traj = simulate_recursive(p, impact, 300)
                assert all(math.isfinite(st.s) for st in traj.states)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            simulate_recursive(FIG4, TANH, 0)


class TestSimulateOneShot:
    def test_zero_shock_flat(self):
        p = ModelParams(lam=0.05, beta=1.0, mu0=0.0)
        traj = simulate_one_shot(p, TANH, 30)
        assert all(s == 100.0 for s in traj.prices)

    def test_plateau_level_against_oracle(self):
        # oracle: x = 0.025/0.03 = 5/6, amplification 8/3, argument
        # 0.05*200*8/3 = 80/3; plateau = 100 + 2.5*(1 + tanh(80/3))
        arg = mpmath.mpf(80) / 3
        oracle = 100 + mpmath.mpf("2.5") * (1 + mpmath.tanh(arg))
        traj = simulate_one_shot(FIG4, TANH, 50)
        assert traj.prices[-1] == pytest.approx(float(oracle), rel=1e-12)
        assert traj.prices[-1] == pytest.approx(105.0, abs=1e-9)

    def test_single_jump_then_flat(self):
        traj = simulate_one_shot(FIG4, TANH, 40)
        assert traj.states[0].s == 100.0
        assert traj.states[1].ds_obs > 0
        for st in traj.states[2:]:
            assert st.ds_obs == 0.0
            assert st.s == traj.states[1].s
            assert st.mu_t == 0.0
            assert st.n_t == FIG4.n0

    def test_plateau_increasing_in_shock(self):
        plateaus = []
        for mu0 in (0.005, 0.01, 0.015, 0.02, 0.025):
            p = ModelParams(lam=0.05, beta=1.0, mu0=mu0)
            plateaus.append(simulate_one_shot(p, TANH, 10).prices[-1])
        assert all(a < b for a, b in zip(plateaus, plateaus[1:]))

    def test_plateau_decreasing_in_beta(self):
        # moderate exposure keeps the saturation gap representable across
        # the whole beta range (tanh at the paper's lam*G=10 rounds to
        # exactly 1 for beta <= 1.5)
        plateaus = []
        for beta in (0.5, 1.0, 1.5, 2.0, 3.0):
            p = ModelParams(lam=0.05, beta=beta, mu0=0.025, n0=80.0)
            plateaus.append(simulate_one_shot(p, TANH, 10).prices[-1])
        assert all(a > b for a, b in zip(plateaus, plateaus[1:]))


class TestFrozenParameterEquivalence:
    def test_matches_affine_map_per_step(self):
        # eta=0, k=0, linear impact: ds follows d -> f*d exactly (a negative
        # impact coefficient realizes negative feedback)
        for f in (-0.9, -0.5, 0.3, 0.8, 0.99):
            p = frozen_params(f)
            state = SimState(t=0, s=100.0, ds_obs=1.0, m_cum=0.0,
                             n_t=200.0, mu_t=0.0)
            oracle = 1.0
            for _ in range(60):
                state = feedback_step(state, p, ImpactSpec.linear())
                oracle = f * oracle
                assert state.ds_obs == pytest.approx(oracle, rel=1e-12, abs=1e-300)

    def test_divergence_beyond_unit_feedback(self):
        # stay below the overflow guard here; the guard itself is covered in
        # TestFeedbackStep
        for f in (1.01, 1.1):
            p = frozen_params(f)
            state = SimState(t=0, s=100.0, ds_obs=1.0, m_cum=0.0,
                             n_t=200.0, mu_t=0.0)
            oracle = 1.0
            for _ in range(250):
                state = feedback_step(state, p, ImpactSpec.linear())
                oracle = f * oracle
                assert state.ds_obs == pytest.approx(oracle, rel=1e-12)
            assert state.ds_obs > 1.0


class TestTrajectory:
    def test_column_accessor(self):
        traj = simulate_recursive(FIG4, TANH, 5)
        assert traj.column("s") == traj.prices
        assert traj.column("nu_t") == [0.0] * 6

    def test_states_view_reads(self):
        traj = simulate_recursive(FIG4, TANH, 5)
        states = traj.states
        assert len(states) == 6 == len(traj)
        assert states[-1] == states[5] and states[-1].s == traj.prices[-1]
        assert all(type(st) is SimState for st in states)
        assert list(states) == [states[i] for i in range(6)] == [states[0], *states[1:]]
        assert [st.t for st in states] == list(range(6))

    def test_states_view_writes_through(self):
        traj = simulate_recursive(FIG4, TANH, 5)
        st = traj.states[3]
        traj.states[3] = st._replace(s=st.s * 2.0, nu_t=0.5)
        assert traj.column("s")[3] == st.s * 2.0 and traj.column("nu_t")[3] == 0.5
        assert traj.states[3] == st._replace(s=st.s * 2.0, nu_t=0.5)
        last = traj.states[-1]
        del traj.states[-1]
        assert len(traj) == 5
        assert all(len(traj.column(name)) == 5 for name in SimState._fields)
        traj.states.insert(0, last)
        assert traj.states[0] == last and len(traj.column("mu_t")) == 6

    def test_a_rejected_write_changes_no_column(self):
        traj = simulate_recursive(FIG4, TANH, 5)
        st = traj.states[2]
        with pytest.raises(TypeError):
            traj.states[2] = st._replace(mu_t="0.5")
        with pytest.raises(TypeError):
            traj.states.insert(2, st._replace(t=2.5))
        with pytest.raises(IndexError):
            traj.states[6] = st
        assert traj == simulate_recursive(FIG4, TANH, 5)
        # a six-field tuple takes SimState's default nu_t
        traj.states.insert(6, tuple(st)[:6])
        assert traj.states[6] == st._replace(nu_t=0.0) and len(traj.column("nu_t")) == 7

    def test_deep_copy_is_independent(self):
        traj = simulate_recursive(FIG4, TANH, 5)
        twin = copy.deepcopy(traj)
        assert twin == traj and twin.states == traj.states
        twin.states[1] = twin.states[1]._replace(ds_obs=-1.0)
        del twin.states[-1]
        assert traj == simulate_recursive(FIG4, TANH, 5) and len(traj) == 6
        assert twin != traj

    def test_view_equals_a_list_of_the_same_states(self):
        traj = simulate_recursive(FIG4, TANH, 5)
        states = [SimState(*row) for row in zip(*map(traj.column, SimState._fields))]
        assert traj.states == states and states == traj.states
        assert traj.states != states[:-1] and traj.states != tuple(states)
        assert Trajectory(states) == traj and Trajectory(states=states).states == traj.states
        with pytest.raises(TypeError):
            hash(traj)

    def test_int_start_values_read_back_as_floats(self):
        traj = Trajectory([SimState(0, 100, 0, 0, 200, 1, 0)])
        (state,) = traj.states
        assert type(state.t) is int
        assert all(type(v) is float for v in state[1:])
        assert state == SimState(0, 100.0, 0.0, 0.0, 200.0, 1.0, 0.0)
        assert len(Trajectory([])) == 0
        # a six-field tuple takes SimState's default nu_t, as the view's writes do
        short = Trajectory([(0, 100.0, 0.0, 0.0, 200.0, 1.0),
                            SimState(1, 99.0, -1.0, 0.01, 200.0, 1.0, 0.5)])
        assert short.column("nu_t") == [0.0, 0.5]

    def test_repr_and_stored_arrays(self):
        traj = simulate_recursive(FIG4, TANH, 2)
        assert repr(traj.states) == repr(list(traj.states))
        assert repr(traj) == f"Trajectory(states={list(traj.states)!r})"
        s, nu = traj.arrays("s", "nu_t")
        assert s.tolist() == traj.prices and nu.tolist() == [0.0] * 3
        traj.states[1] = traj.states[1]._replace(nu_t=0.5)
        assert nu[1] == 0.5  # the stored column, not a copy
        with pytest.raises(AttributeError):
            traj.states = []

    def test_at_most_64_bytes_per_state(self):
        # one int64 and six doubles are 56 B, plus the arrays' spare capacity
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = simulate_recursive(FIG4, TANH, 10_000)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept / len(traj) <= 64


# ---------------------------------------------------------------- reference


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


models = st.builds(
    ModelParams,
    lam=floats(0.0, 0.1), beta=floats(0.05, 3.0), mu0=floats(-1.5, 0.1),
    n0=floats(0.5, 500.0), gamma0=floats(0.05, 2.0), sigma_m=floats(0.005, 0.1),
    k=floats(0.0, 5.0), eta=floats(0.0, 5.0), xi=floats(0.5, 8.0), s0=floats(0.5, 1000.0),
)
impacts = st.one_of(
    st.just(ImpactSpec.linear()),
    floats(0.05, 2.0).map(ImpactSpec.clamp),
    floats(0.005, 3.0).map(ImpactSpec.tanh),
)
stochs = st.builds(
    StochasticSpec,
    rho=floats(-0.99, 0.99), sigma_n=floats(0.0, 0.5), kappa=floats(0.5, 10.0),
    seed=st.integers(0, 2**64 - 1),
)
horizons = st.integers(1, 60)


class TestDriverAgainstReference:
    """Every mode equals a replay through the reference step, element for element."""

    @settings(max_examples=150, deadline=None)
    @given(p=models, impact=impacts, horizon=horizons)
    def test_recursive(self, p, impact, horizon):
        assert outcome(lambda: simulate_recursive(p, impact, horizon).states) == outcome(
            lambda: replay_recursive(p, impact, horizon))

    @settings(max_examples=150, deadline=None)
    @given(p=models, impact=impacts, horizon=horizons)
    def test_one_shot(self, p, impact, horizon):
        assert outcome(lambda: simulate_one_shot(p, impact, horizon).states) == outcome(
            lambda: replay_one_shot(p, impact, horizon))

    @settings(max_examples=150, deadline=None)
    @given(p=models, impact=impacts, stoch=stochs, horizon=horizons)
    def test_stochastic(self, p, impact, stoch, horizon):
        assert outcome(lambda: simulate_stochastic(p, impact, stoch, horizon).states) == outcome(
            lambda: replay_stochastic(p, impact, stoch, horizon))

    @settings(max_examples=150, deadline=None)
    @given(p=models, impact=impacts, stoch=stochs, horizon=horizons, data=st.data())
    def test_event_driven(self, p, impact, stoch, horizon, data):
        events = EventSpec(
            horizon=horizon, n_spikes=data.draw(st.integers(0, horizon)),
            max_fraction=data.draw(floats(0.0, 1.0)), seed=data.draw(st.integers(0, 2**64 - 1)),
        )
        assert outcome(lambda: simulate_event_driven(p, impact, events, stoch).states) == outcome(
            lambda: replay_events(p, impact, events, stoch))

    @settings(max_examples=150, deadline=None)
    @given(p=models, impact=impacts, ds=floats(0.0, 50.0), m=floats(0.0, 3.0),
           override=st.none() | floats(0.0, 1000.0), nu=floats(-100.0, 100.0))
    def test_feedback_step(self, p, impact, ds, m, override, nu):
        state = SimState(5, p.s0, ds, m, position_decay(p.n0, m, p.eta, p.xi), p.mu0, 1.0)
        assert outcome(lambda: feedback_step(state, p, impact, override, nu)) == outcome(
            lambda: reference_step(state, p, impact, override, nu))


class TestNonPositivePrice:
    """A downward shock that wipes out the price is a numerical failure at its step."""

    WIPEOUT = ModelParams(lam=0.003, beta=0.5, mu0=-1.5)  # ds_1 = -1.5 * s0
    LINEAR = ImpactSpec.linear()

    def test_recursive_names_the_step(self):
        with pytest.raises(NumericalOverflow, match=r"price -50\.0 .* at step 1$"):
            simulate_recursive(self.WIPEOUT, self.LINEAR, 1)
        slow = ModelParams(lam=0.003, beta=0.5, mu0=-0.3)
        with pytest.raises(NumericalOverflow, match=r"at step 2$"):
            simulate_recursive(slow, self.LINEAR, 200)

    def test_one_shot(self):
        # tanh gain near 1 doubles the shock: the plateau would sit at -200
        with pytest.raises(NumericalOverflow, match=r"price -2\d\d\.\d+ .* at step 1$"):
            simulate_one_shot(self.WIPEOUT, TANH, 10)

    def test_stochastic(self):
        with pytest.raises(NumericalOverflow, match=r"at step 1$"):
            simulate_stochastic(self.WIPEOUT, self.LINEAR, StochasticSpec(seed=3), 10)

    def test_event_driven(self):
        with pytest.raises(NumericalOverflow, match=r"at step 1$"):
            simulate_event_driven(self.WIPEOUT, self.LINEAR, EventSpec(horizon=10, n_spikes=3, seed=3))

    def test_feedback_step_rejects_a_nonpositive_start(self):
        for s in (0.0, -5.0, math.nan):
            with pytest.raises(ValueError, match="s must be > 0"):
                feedback_step(SimState(0, s, 0.0, 0.0, 200.0, 0.01), FIG4, TANH)


@pytest.mark.parametrize("xi, m_cum", [(5.5, -5.0), (5.0, -0.87), (5.0, math.nan)])
def test_feedback_step_rejects_a_negative_m_cum(xi, m_cum):
    # m^xi of a negative m is complex at xi = 5.5, and at xi = 5 it lifts the
    # decayed position N = n0 / (1 + eta * m^xi) above n0
    p = dataclasses.replace(FIG4, xi=xi)
    with pytest.raises(ValueError, match=r"^m_cum must be >= 0"):
        feedback_step(SimState(0, p.s0, 0.0, m_cum, p.n0, p.mu0), p, TANH)
