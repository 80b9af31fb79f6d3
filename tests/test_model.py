"""Closed-form model pieces against independent exact-arithmetic oracles.

Expected values are recomputed with Fraction or mpmath before comparison,
never copied from the implementation under test.
"""

import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gammafeedback import (
    EPS_SINGULAR,
    EventSpec,
    ImpactSpec,
    ModelParams,
    RunConfig,
    SingularDenominator,
    StochasticSpec,
    critical_exposure,
    hedging_impact,
    relative_surprise,
    simulate_one_shot,
    simulate_recursive,
    stability_denominator,
    static_response,
    surprise_amplification,
)

REL = 1e-9


def params_for(lam, beta, g, sigma_m=0.03, k=2.0):
    return ModelParams(lam=lam, beta=beta, mu0=0.0, n0=g, gamma0=1.0,
                       sigma_m=sigma_m, k=k)


class TestRelativeSurprise:
    def test_zero_shock(self):
        assert relative_surprise(0.0, 100.0, 1.0, 0.03) == 0.0

    def test_derived_values(self):
        # oracle: |5/100| / (1 * 3/100) = 5/3
        oracle = Fraction(5, 100) / (1 * Fraction(3, 100))
        assert relative_surprise(5.0, 100.0, 1.0, 0.03) == pytest.approx(float(oracle), rel=REL)
        assert round(float(oracle), 6) == 1.666667
        # oracle: |5/100| / (2 * 3/100) = 5/6
        oracle = Fraction(5, 100) / (2 * Fraction(3, 100))
        assert relative_surprise(5.0, 100.0, 2.0, 0.03) == pytest.approx(float(oracle), rel=REL)
        assert round(float(oracle), 6) == 0.833333

    def test_negative_move_uses_magnitude(self):
        assert relative_surprise(-5.0, 100.0, 1.0, 0.03) == relative_surprise(5.0, 100.0, 1.0, 0.03)

    @pytest.mark.parametrize("kwargs", [
        {"s": 0.0}, {"s": -1.0}, {"beta": 0.0}, {"beta": -2.0},
        {"sigma_m": 0.0}, {"sigma_m": -0.01},
    ])
    def test_domain_errors(self, kwargs):
        args = {"delta_s": 1.0, "s": 100.0, "beta": 1.0, "sigma_m": 0.03}
        args.update(kwargs)
        with pytest.raises(ValueError):
            relative_surprise(**args)

    def test_underflowing_surprise_scale_rejected(self):
        # both positive, but beta * sigma_m rounds to 0 and x divides by it
        with pytest.raises(ValueError, match=r"beta \* sigma_m underflows to 0"):
            relative_surprise(1.0, 100.0, 1e-200, 1e-200)

    @given(
        delta_s=st.floats(-1e6, 1e6),
        s=st.floats(1e-3, 1e6),
        beta=st.floats(1e-3, 50),
        sigma_m=st.floats(1e-4, 5),
        alpha=st.floats(1e-3, 1e3),
    )
    def test_homogeneous_degree_zero(self, delta_s, s, beta, sigma_m, alpha):
        base = relative_surprise(delta_s, s, beta, sigma_m)
        scaled = relative_surprise(alpha * delta_s, alpha * s, beta, sigma_m)
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)

    @given(beta=st.floats(1e-2, 50), beta2=st.floats(1e-2, 50))
    def test_inverse_in_beta(self, beta, beta2):
        # x(beta) * beta is constant for a fixed shock ratio
        a = relative_surprise(5.0, 100.0, beta, 0.03) * beta
        b = relative_surprise(5.0, 100.0, beta2, 0.03) * beta2
        assert a == pytest.approx(b, rel=1e-9)


class TestSurpriseAmplification:
    def test_unit_at_zero(self):
        assert surprise_amplification(0.0, 2.0) == 1.0

    def test_derived_values(self):
        oracle = 1 + 2 * Fraction(5, 3)  # 13/3
        assert surprise_amplification(5.0 / 3.0, 2.0) == pytest.approx(float(oracle), rel=REL)
        assert round(float(oracle), 6) == 4.333333
        oracle = 1 + 2 * Fraction(5, 6)  # 8/3
        assert surprise_amplification(5.0 / 6.0, 2.0) == pytest.approx(float(oracle), rel=REL)
        assert round(float(oracle), 6) == 2.666667

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            surprise_amplification(-0.1, 2.0)

    def test_rejects_nan_product_naming_k_and_x(self):
        # inf * 0 is nan; inf * x for x > 0 is a plain inf
        for k, x in ((math.inf, 0.0), (0.0, math.inf)):
            with pytest.raises(ValueError, match=re.escape(f"(k = {k}, x = {x})")):
                surprise_amplification(x, k)
        assert surprise_amplification(1e-300, math.inf) == math.inf

    def test_closed_forms_reject_infinite_k_at_zero_shock(self):
        p = ModelParams(lam=0.05, beta=1.0, mu0=0.0, n0=200.0, gamma0=1.0, k=math.inf)
        for call in (lambda: stability_denominator(p, 0.0),
                     lambda: static_response(p, 0.0, 100.0),
                     lambda: critical_exposure(0.05, 1.0, 0.0, k=math.inf)):
            with pytest.raises(ValueError, match=r"1 \+ k \* x is nan"):
                call()

    @given(x1=st.floats(0, 1e6), x2=st.floats(0, 1e6), k=st.floats(1e-6, 100))
    @example(x1=0.0, x2=4.3e-101, k=1.0)
    @example(x1=0.0, x2=1.19e-122, k=1.0)
    def test_strictly_increasing(self, x1, x2, k):
        # 1.0 + k * x rounds twice, so exact values a few ulp apart can tie
        # in doubles: non-decreasing everywhere, within 2 ulp of the exact
        # 1 + k*x, and strictly increasing once the exact gap exceeds 4 ulp
        x1, x2 = sorted((x1, x2))
        a1 = surprise_amplification(x1, k)
        a2 = surprise_amplification(x2, k)
        assert a1 <= a2
        for x, a in ((x1, a1), (x2, a2)):
            assert abs(Fraction(a) - (1 + Fraction(k) * Fraction(x))) <= 2 * Fraction(math.ulp(a))
        if Fraction(k) * (Fraction(x2) - Fraction(x1)) > 4 * Fraction(math.ulp(a2)):
            assert a1 < a2


class TestStabilityDenominator:
    def test_no_exposure_is_exactly_one(self):
        # n0 * gamma0 underflows to exactly zero exposure
        p = ModelParams(lam=0.5, beta=2.0, mu0=0.0, n0=1e-300, gamma0=1e-300)
        assert stability_denominator(p, 0.7) == 1.0

    def test_derived_values(self):
        # oracle: 1 - 0.003*100*(13/3) = 1 - 1.3 = -0.3
        oracle = 1 - Fraction(3, 1000) * 100 * Fraction(13, 3)
        d = stability_denominator(params_for(0.003, 1.0, 100.0), 0.05)
        assert d == pytest.approx(float(oracle), rel=REL)
        assert round(float(oracle), 6) == -0.3
        # oracle: 1 - 0.003*50*(8/3) = 0.6
        oracle = 1 - Fraction(3, 1000) * 50 * Fraction(8, 3)
        d = stability_denominator(params_for(0.003, 2.0, 50.0), 0.05)
        assert d == pytest.approx(float(oracle), rel=REL)
        assert round(float(oracle), 6) == 0.6

    def test_rejects_negative_shock(self):
        with pytest.raises(ValueError):
            stability_denominator(params_for(0.003, 1.0, 100.0), -0.01)

    def test_affine_in_exposure_and_impact(self):
        # three-point collinearity in G and in lambda
        for gs in [(10.0, 20.0, 30.0)]:
            d = [stability_denominator(params_for(0.003, 1.0, g), 0.05) for g in gs]
            assert d[1] - d[0] == pytest.approx(d[2] - d[1], rel=1e-9)
        for lams in [(0.001, 0.002, 0.003)]:
            d = [stability_denominator(params_for(lam, 1.0, 100.0), 0.05) for lam in lams]
            assert d[1] - d[0] == pytest.approx(d[2] - d[1], rel=1e-9)

    @given(
        g1=st.floats(0.1, 500), g2=st.floats(0.1, 500),
        beta1=st.floats(0.1, 10), beta2=st.floats(0.1, 10),
    )
    def test_monotonicity(self, g1, g2, beta1, beta2):
        # require a relative gap so strictness is resolvable in doubles
        if g2 - g1 > 1e-6 * g2:
            assert (stability_denominator(params_for(0.01, 1.0, g1), 0.05)
                    > stability_denominator(params_for(0.01, 1.0, g2), 0.05))
        if beta2 - beta1 > 1e-6 * beta2:
            assert (stability_denominator(params_for(0.01, beta1, 100.0), 0.05)
                    < stability_denominator(params_for(0.01, beta2, 100.0), 0.05))


class TestHedgingImpact:
    def test_linear_identity(self):
        assert hedging_impact(3.7, ImpactSpec.linear()) == 3.7
        assert hedging_impact(-3.7, ImpactSpec.linear()) == -3.7

    def test_clamp_binds(self):
        assert hedging_impact(5.0, ImpactSpec.clamp(2.0)) == 2.0
        assert hedging_impact(-5.0, ImpactSpec.clamp(2.0)) == -2.0
        assert hedging_impact(1.5, ImpactSpec.clamp(2.0)) == 1.5

    @pytest.mark.parametrize("y", [math.nan, 0.0, -0.0, math.inf, -math.inf, 2.0, -2.0, 5e-324])
    def test_clamp_matches_builtin_min_max(self, y):
        # NaN, the signed zeros, the infinities and the bounds themselves
        # give what min(i_max, max(-i_max, y)) gives, sign of zero included
        got = hedging_impact(y, ImpactSpec.clamp(2.0))
        expected = min(2.0, max(-2.0, y))
        assert got == expected or (got != got and expected != expected)
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)

    def test_tanh_zero(self):
        assert hedging_impact(0.0, ImpactSpec.tanh(1.0)) == 0.0

    def test_tanh_against_mpmath(self):
        oracle = float(mpmath.tanh(mpmath.mpf("0.2")))
        assert hedging_impact(0.2, ImpactSpec.tanh(1.0)) == pytest.approx(oracle, rel=REL)
        assert round(oracle, 6) == 0.197375

    @given(y=st.floats(-1e6, 1e6), c=st.floats(1e-3, 100))
    def test_tanh_bounded_and_odd(self, y, c):
        # double-precision tanh rounds to exactly 1.0 beyond |c*y| ~ 19, so
        # the interval is open only where the gap is representable
        spec = ImpactSpec.tanh(c)
        assert abs(hedging_impact(y, spec)) <= 1.0
        if abs(c * y) < 18.0:
            assert abs(hedging_impact(y, spec)) < 1.0
        assert hedging_impact(-y, spec) == -hedging_impact(y, spec)

    @given(y=st.floats(-10, 10), c=st.floats(1e-3, 10))
    def test_tanh_taylor_bound(self, y, c):
        cy = c * y
        if abs(cy) <= 0.5:
            assert abs(hedging_impact(y, ImpactSpec.tanh(c)) - cy) <= abs(cy) ** 3 / 3 + 1e-15

    @given(y1=st.floats(-50, 50), y2=st.floats(-50, 50))
    def test_tanh_monotone(self, y1, y2):
        spec = ImpactSpec.tanh(1.0)
        if y1 < y2:
            assert hedging_impact(y1, spec) <= hedging_impact(y2, spec)


class TestStaticResponse:
    def test_zero_shock(self):
        assert static_response(params_for(0.003, 2.0, 50.0), 0.0, 100.0) == 0.0

    def test_derived_value_with_grid_shock_convention(self):
        # D from the fixed grid shock 0.05 is 3/5; response to a 1% shock on
        # s=100 is (1/100*100)/(3/5) = 5/3
        d_oracle = 1 - Fraction(3, 1000) * 50 * Fraction(8, 3)
        oracle = Fraction(1, 100) * 100 / d_oracle
        got = static_response(params_for(0.003, 2.0, 50.0), 0.01, 100.0, x_shock_ratio=0.05)
        assert got == pytest.approx(float(oracle), rel=REL)
        assert round(float(oracle), 6) == 1.666667

    def test_singular_raises(self):
        with pytest.raises(SingularDenominator):
            static_response(params_for(0.003, 1.0, 100.0), 0.05, 100.0)

    def test_monotone_blowup_toward_root(self):
        # approach the root of D = 0 from below on 10 exposures
        from gammafeedback import critical_exposure

        g_star = critical_exposure(0.003, 1.0, 0.05)
        responses = []
        for i in range(10):
            g = g_star * (0.5 + 0.049 * i)
            responses.append(abs(static_response(params_for(0.003, 1.0, g), 0.05, 100.0)))
        assert all(a < b for a, b in zip(responses, responses[1:]))

    def test_threshold_matches_epsilon(self):
        # D just above the threshold works, at or below raises
        p = params_for(0.003, 2.0, 50.0)
        assert static_response(p, 0.01, 100.0, x_shock_ratio=0.05) > 0
        with pytest.raises(SingularDenominator):
            # G exactly at the root gives D ~ 0 <= EPS_SINGULAR
            from gammafeedback import critical_exposure

            g_star = critical_exposure(0.003, 1.0, 0.05)
            static_response(params_for(0.003, 1.0, g_star), 0.05, 100.0)
        assert EPS_SINGULAR == 1e-9


class TestModelParams:
    def test_gamma_exposure_accessor(self):
        p = ModelParams(lam=0.05, beta=1.0, mu0=0.025, n0=200.0, gamma0=1.5)
        assert p.gamma_exposure == 300.0

    @pytest.mark.parametrize("field,value", [
        ("beta", 0.0), ("beta", -1.0), ("sigma_m", 0.0), ("n0", 0.0),
        ("gamma0", -1.0), ("s0", 0.0), ("eta", -0.1),
        ("xi", 0.0), ("k", -0.5),
    ])
    def test_invalid_parameters_rejected(self, field, value):
        kwargs = dict(lam=0.05, beta=1.0, mu0=0.025)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            ModelParams(**kwargs)

    def test_underflowing_surprise_scale_rejected(self):
        # both positive, but beta * sigma_m rounds to 0 and x divides by it
        with pytest.raises(ValueError, match=r"beta \* sigma_m underflows to 0"):
            ModelParams(lam=0.05, beta=1e-200, mu0=0.025, sigma_m=1e-200)

    @pytest.mark.parametrize("field", ["mu0", "s0"])
    def test_infinite_shock_or_price_rejected(self, field):
        kwargs = dict(lam=0.05, beta=1.0, mu0=0.025)
        kwargs[field] = math.inf
        with pytest.raises(ValueError, match=rf"^{field} must be finite \(got inf\)$"):
            ModelParams(**kwargs)
        kwargs[field] = -math.inf
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf])
    def test_infinite_lambda_accepted(self, lam):
        # tanh and clamp saturate an infinite pressure to a finite gain
        p = ModelParams(lam=lam, beta=1.0, mu0=0.025)
        assert simulate_recursive(p, ImpactSpec.tanh(1.0), 5).prices[-1] > 0.0

    def test_eta_zero_allowed(self):
        ModelParams(lam=0.05, beta=1.0, mu0=0.025, eta=0.0)

    def test_impact_spec_validation(self):
        with pytest.raises(ValueError):
            ImpactSpec(kind="cubic")
        with pytest.raises(ValueError):
            ImpactSpec(kind="clamp", i_max=0.0)
        with pytest.raises(ValueError):
            ImpactSpec(kind="tanh", c=0.0)


NAN = math.nan
NAN_PARAMS = ModelParams(lam=0.003, beta=1.0, mu0=0.05, n0=100.0)

# (function, arguments with one NaN, the bound it fails): every "must be >
# B" and "must be >= B" check is a comparison that NaN fails. feedback_step's
# start price is covered in test_dynamics.py, the config keys in test_config.py.
NAN_CASES = [
    (relative_surprise, (1.0, NAN, 1.0, 0.03), "s must be > 0"),
    (relative_surprise, (1.0, 100.0, NAN, 0.03), "beta must be > 0"),
    (relative_surprise, (1.0, 100.0, 1.0, NAN), "sigma_m must be > 0"),
    (surprise_amplification, (NAN, 2.0), "x must be >= 0"),
    (stability_denominator, (NAN_PARAMS, NAN), "shock_ratio must be >= 0"),
    (critical_exposure, (NAN, 1.0, 0.05), "lam must be > 0"),
    (critical_exposure, (0.003, NAN, 0.05), "beta must be > 0"),
    (critical_exposure, (0.003, 1.0, 0.05, NAN), "sigma_m must be > 0"),
    (critical_exposure, (0.003, 1.0, NAN), "x must be >= 0"),
    (simulate_one_shot, (NAN_PARAMS, ImpactSpec.tanh(), NAN), "horizon must be >= 1"),
    (simulate_recursive, (NAN_PARAMS, ImpactSpec.tanh(), NAN), "horizon must be >= 1"),
    (RunConfig, {"horizon": NAN}, "horizon must be >= 1"),
    (EventSpec, {"horizon": NAN}, "horizon must be >= 1"),
    (StochasticSpec, {"sigma_n": NAN}, "sigma_n must be >= 0"),
]


@pytest.mark.parametrize("function, args, bound", NAN_CASES,
                         ids=[f"{f.__name__}-{bound.split()[0]}" for f, _, bound in NAN_CASES])
def test_nan_meets_no_bound(function, args, bound):
    with pytest.raises(ValueError, match=re.escape(f"{bound} (got nan)")):
        function(**args) if isinstance(args, dict) else function(*args)
