"""Config parsing, defaults, validation messages, and render round-trips."""

import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gammafeedback import (ConfigError, EventSpec, GridSpec, ImpactSpec, ModelParams,
                           StochasticSpec, parse_config, render_config)
from gammafeedback.config import RunConfig

MINIMAL_SIM = """
[model]
lambda = 0.05
beta = 1.0
mu0 = 0.025
n0 = 200
gamma0 = 1.0

[impact]
kind = tanh

[run]
horizon = 100
"""

GRID_ONLY = """
[grid]
beta_min = 0.2
beta_max = 3.0
g_min = 0
g_max = 300
n_beta = 200
n_g = 200
shock_ratio = 0.05
lambda = 0.003

[run]
"""


class TestParsing:
    def test_minimal_simulation_config(self):
        config = parse_config(MINIMAL_SIM)
        assert config.model.lam == 0.05
        assert config.model.beta == 1.0
        assert config.impact.kind == "tanh"
        assert config.horizon == 100
        assert config.stochastic is None
        assert config.events is None
        assert config.grid is None

    def test_defaults_applied(self):
        config = parse_config(MINIMAL_SIM)
        assert config.model.sigma_m == 0.03
        assert config.model.k == 2.0
        assert config.model.eta == 2.0
        assert config.model.xi == 5.0
        assert config.model.s0 == 100.0
        assert config.impact.c == 1.0

    def test_stochastic_defaults(self):
        config = parse_config(MINIMAL_SIM + "\n[stochastic]\nseed = 7\n")
        assert config.stochastic.rho == 0.9
        assert config.stochastic.sigma_n == 0.2
        assert config.stochastic.kappa == 8.0
        assert config.stochastic.seed == 7

    def test_empty_stochastic_section_parses_to_defaults(self):
        config = parse_config(MINIMAL_SIM + "\n[stochastic]\n")
        assert config.stochastic.seed == 0
        assert config.stochastic.rho == 0.9

    def test_grid_config(self):
        config = parse_config(GRID_ONLY)
        assert config.grid.n_beta == 200
        assert config.grid.lam == 0.003
        assert config.grid.sigma_m == 0.03
        assert config.model is None

    def test_events_inherit_run_horizon(self):
        config = parse_config(MINIMAL_SIM + "\n[events]\nn_spikes = 40\nseed = 3\n")
        assert config.events.horizon == 100
        assert config.events.n_spikes == 40

    def test_comments_and_whitespace(self):
        text = MINIMAL_SIM.replace("mu0 = 0.025", "mu0 = 0.025  # initial shock")
        assert parse_config(text).model.mu0 == 0.025


class TestValidationErrors:
    def test_negative_beta_names_field(self):
        bad = MINIMAL_SIM.replace("beta = 1.0", "beta = -1")
        with pytest.raises(ConfigError, match="beta"):
            parse_config(bad)

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("[model]\nthis is not a key value pair\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="hedging"):
            parse_config(MINIMAL_SIM + "\n[hedging]\nx = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="volatility"):
            parse_config(MINIMAL_SIM + "\n[stochastic]\nvolatility = 2\n")

    def test_missing_required_key(self):
        bad = MINIMAL_SIM.replace("lambda = 0.05\n", "")
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(bad)

    def test_non_numeric_value(self):
        bad = MINIMAL_SIM.replace("mu0 = 0.025", "mu0 = lots")
        with pytest.raises(ConfigError, match="mu0"):
            parse_config(bad)

    def test_bad_horizon(self):
        bad = MINIMAL_SIM.replace("horizon = 100", "horizon = 0")
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(bad)
        bad = MINIMAL_SIM.replace("horizon = 100", "horizon = 2.5")
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(bad)

    def test_events_without_horizon(self):
        text = GRID_ONLY + "\n[events]\nn_spikes = 5\n"
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(text)

    def test_bad_impact_kind(self):
        bad = MINIMAL_SIM.replace("kind = tanh", "kind = cubic")
        with pytest.raises(ConfigError, match="kind"):
            parse_config(bad)

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="emit_svg"):
            parse_config(MINIMAL_SIM.replace("horizon = 100",
                                             "horizon = 100\nemit_svg = maybe"))


class TestRoundTrip:
    def _assert_round_trip(self, config: RunConfig):
        again = parse_config(render_config(config))
        assert again == config

    def test_simulation_config(self):
        self._assert_round_trip(parse_config(MINIMAL_SIM))

    def test_grid_config(self):
        self._assert_round_trip(parse_config(GRID_ONLY))

    def test_full_config(self):
        text = MINIMAL_SIM + "\n[stochastic]\nseed = 987\n[events]\nn_spikes = 12\nseed = 5\n"
        self._assert_round_trip(parse_config(text))

    def test_awkward_floats_survive(self):
        text = MINIMAL_SIM.replace("lambda = 0.05", "lambda = 0.012345678901234567")
        text = text.replace("mu0 = 0.025", "mu0 = 3.3e-4")
        config = parse_config(text)
        self._assert_round_trip(config)
        assert config.model.lam == 0.012345678901234567

    def test_output_and_svg_flags(self):
        config = parse_config(MINIMAL_SIM)
        config.output_dir = "results/run1"
        config.emit_svg = True
        self._assert_round_trip(config)

    # each would read back changed from its ``out = ...`` line: cut at a
    # comment, stripped, or (with a line break) not parse at all
    @pytest.mark.parametrize("out", ["a ;b", "a #b", "a\t#b", ";x", "#x", " a", "x ", "a\nb"])
    def test_output_dir_that_cannot_round_trip_rejected(self, out):
        with pytest.raises(ValueError, match=r"^out must "):
            RunConfig(output_dir=out)

    @pytest.mark.parametrize("out", ["a;b", "", "x=y", "[s]"])
    def test_awkward_output_dirs_survive(self, out):
        self._assert_round_trip(RunConfig(output_dir=out))


# A config with every section, as key -> raw value per section.
FULL = {
    "model": {"lambda": "0.05", "beta": "1.0", "mu0": "0.025", "n0": "200", "gamma0": "1.0"},
    "impact": {"kind": "tanh", "c": "1.0"},
    "stochastic": {"rho": "0.9", "seed": "7"},
    "events": {"n_spikes": "5", "max_fraction": "0.3"},
    "grid": {"beta_min": "0.2", "beta_max": "3.0", "g_min": "0", "g_max": "300",
             "n_beta": "20", "n_g": "20", "shock_ratio": "0.05", "lambda": "0.003"},
    "run": {"horizon": "100", "emit_svg": "false"},
}


def _full_with(section: str, key: str, value: str) -> str:
    sections = {name: dict(pairs) for name, pairs in FULL.items()}
    sections[section][key] = value
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs.items()) + "\n"
        for name, pairs in sections.items()
    )


class TestErrorMessages:
    """Exact messages: one section prefix, the key, and the offending text.
    [model] and [impact] have only float and string keys; the int and bool
    keys live in [stochastic], [events], [grid] and [run]."""

    def test_full_config_parses(self):
        config = parse_config(_full_with("run", "horizon", "100"))
        assert None not in (config.model, config.impact, config.stochastic,
                            config.events, config.grid)

    UNPARSABLE = [
        ("model", "mu0", "lots", "[model] mu0 is not a number: 'lots'"),
        ("model", "lambda", "1,5", "[model] lambda is not a number: '1,5'"),
        ("impact", "c", "x", "[impact] c is not a number: 'x'"),
        ("stochastic", "rho", "high", "[stochastic] rho is not a number: 'high'"),
        ("stochastic", "seed", "1e3", "[stochastic] seed is not an integer: '1e3'"),
        ("events", "max_fraction", "most", "[events] max_fraction is not a number: 'most'"),
        ("events", "n_spikes", "5.0", "[events] n_spikes is not an integer: '5.0'"),
        ("grid", "g_max", "big", "[grid] g_max is not a number: 'big'"),
        ("grid", "n_beta", "2.5", "[grid] n_beta is not an integer: '2.5'"),
        ("run", "horizon", "2.5", "[run] horizon is not an integer: '2.5'"),
        ("run", "emit_svg", "maybe", "[run] emit_svg is not a boolean: 'maybe'"),
    ]
    INVALID = [
        ("model", "beta", "-1", "[model] beta must be > 0 (got -1.0)"),
        ("impact", "kind", "cubic",
         "[impact] impact kind must be one of ('linear', 'clamp', 'tanh') (got 'cubic')"),
        ("stochastic", "rho", "1.0", "[stochastic] rho must satisfy |rho| < 1 (got 1.0)"),
        ("events", "n_spikes", "101", "[events] n_spikes (101) must not exceed horizon (100)"),
        ("grid", "n_g", "1", "[grid] n_beta and n_g must be >= 2"),
        ("run", "horizon", "0", "[run] horizon must be >= 1 (got 0)"),
    ]

    @pytest.mark.parametrize("section,key,value,message", UNPARSABLE,
                             ids=[f"{s}-{k}-{v}" for s, k, v, _ in UNPARSABLE])
    def test_unparsable_value(self, section, key, value, message):
        with pytest.raises(ConfigError) as info:
            parse_config(_full_with(section, key, value))
        assert str(info.value) == message

    @pytest.mark.parametrize("section,key,value,message", INVALID,
                             ids=[f"{s}-{k}-{v}" for s, k, v, _ in INVALID])
    def test_invalid_value(self, section, key, value, message):
        with pytest.raises(ConfigError) as info:
            parse_config(_full_with(section, key, value))
        assert str(info.value) == message

    # NaN meets no bound, not even ">= 0" or "beta_max >= beta_min"; lambda
    # and mu0 have no bound and reject it too
    NAN = [
        ("model", "lambda", "[model] lam must be a number (got nan)"),
        ("model", "mu0", "[model] mu0 must be a number (got nan)"),
        ("model", "eta", "[model] eta must be >= 0 (got nan)"),
        ("model", "k", "[model] k must be >= 0 (got nan)"),
        ("stochastic", "sigma_n", "[stochastic] sigma_n must be >= 0 (got nan)"),
        ("events", "max_fraction", "[events] max_fraction must be >= 0 (got nan)"),
        ("grid", "beta_max", "[grid] beta_max must be >= beta_min"),
        ("grid", "g_min", "[grid] g_min must be >= 0 (got nan)"),
        ("grid", "g_max", "[grid] g_max must be >= g_min"),
        ("grid", "shock_ratio", "[grid] shock_ratio must be >= 0 (got nan)"),
        ("grid", "lambda", "[grid] lam must be a number (got nan)"),
        ("grid", "k", "[grid] k must be >= 0 (got nan)"),
    ]

    @pytest.mark.parametrize("section,key,message", NAN, ids=[f"{s}-{k}" for s, k, _ in NAN])
    def test_nan_value(self, section, key, message):
        with pytest.raises(ConfigError) as info:
            parse_config(_full_with(section, key, "nan"))
        assert str(info.value) == message

    def test_unknown_and_missing_keys(self):
        with pytest.raises(ConfigError) as info:
            parse_config(_full_with("model", "c", "1.0"))
        assert str(info.value) == "unknown key(s) in [model]: c"
        text = _full_with("grid", "k", "2").replace("lambda = 0.003\n", "")
        with pytest.raises(ConfigError) as info:
            parse_config(text.replace("n_g = 20\n", ""))
        assert str(info.value) == "missing required key(s) in [grid]: n_g, lambda"


# Floats whose shortest repr is long, subnormal, or at the edge of the range.
AWKWARD = (5e-324, 0.1 + 0.2, 1 / 3, 2.2250738585072014e-308, 1.7976931348623157e308,
           0.012345678901234567, 1e-310, 123456789.00000001)


def _floats(min_value=None, exclude_min=False, max_value=None, exclude_max=False):
    def fits(x):
        return ((min_value is None or x > min_value or (x == min_value and not exclude_min))
                and (max_value is None or x < max_value or (x == max_value and not exclude_max)))

    edges = [x for x in AWKWARD + tuple(-x for x in AWKWARD) if fits(x)]
    return st.one_of(
        st.sampled_from(edges),
        st.floats(min_value=min_value, max_value=max_value, exclude_min=exclude_min,
                  exclude_max=exclude_max, allow_nan=False),
    )


POSITIVE = _floats(0.0, exclude_min=True)
NON_NEGATIVE = _floats(0.0)
FINITE_POSITIVE = _floats(0.0, exclude_min=True, max_value=sys.float_info.max)
FINITE_NON_NEGATIVE = _floats(0.0, max_value=sys.float_info.max)
FINITE = _floats(-sys.float_info.max, max_value=sys.float_info.max)
# (beta, sigma_m) pairs whose product, the surprise scale, does not underflow to 0
SCALES = st.tuples(POSITIVE, POSITIVE).filter(lambda pair: pair[0] * pair[1] > 0)
SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def run_config_fields(draw) -> dict:
    """RunConfig fields over all six sections, each optional section maybe
    absent: every section valid, ``output_dir`` maybe one RunConfig rejects."""
    model = draw(st.none() | SCALES.flatmap(lambda scale: st.builds(
        ModelParams, lam=_floats(), beta=st.just(scale[0]), mu0=FINITE, n0=POSITIVE,
        gamma0=POSITIVE, sigma_m=st.just(scale[1]), k=NON_NEGATIVE, eta=NON_NEGATIVE,
        xi=POSITIVE, s0=FINITE_POSITIVE)))
    impact = draw(st.none() | st.builds(
        ImpactSpec, kind=st.sampled_from(ImpactSpec.KINDS), c=POSITIVE, i_max=POSITIVE))
    stochastic = draw(st.none() | st.builds(
        StochasticSpec, rho=_floats(-1.0, True, 1.0, True), sigma_n=NON_NEGATIVE,
        kappa=POSITIVE, seed=SEEDS))
    horizon = draw(st.none() | st.integers(1, 10**12))
    events = None
    if horizon is not None and draw(st.booleans()):
        events = EventSpec(horizon=horizon, n_spikes=draw(st.integers(0, horizon)),
                           max_fraction=draw(NON_NEGATIVE), seed=draw(SEEDS))
    grid = None
    if draw(st.booleans()):
        # finite axis bounds: GridSpec rejects an axis whose span is not finite
        beta_min, beta_max = sorted(draw(st.tuples(FINITE_POSITIVE, FINITE_POSITIVE)))
        sigma_m = draw(POSITIVE)
        assume(beta_min * sigma_m > 0)
        g_min, g_max = sorted(draw(st.tuples(FINITE_NON_NEGATIVE, FINITE_NON_NEGATIVE)))
        grid = GridSpec(beta_min=beta_min, beta_max=beta_max, g_min=g_min, g_max=g_max,
                        n_beta=draw(st.integers(2, 10**9)), n_g=draw(st.integers(2, 10**9)),
                        shock_ratio=draw(NON_NEGATIVE), lam=draw(_floats()),
                        sigma_m=sigma_m, k=draw(NON_NEGATIVE))
    output_dir = draw(st.none() | st.text("abcXYZ0129/._- #;\n", max_size=24))
    return dict(model=model, impact=impact, stochastic=stochastic, events=events,
                grid=grid, horizon=horizon, output_dir=output_dir,
                emit_svg=draw(st.booleans()))


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(fields=run_config_fields())
    @example(fields=dict(
        model=ModelParams(lam=5e-324, beta=0.1 + 0.2, mu0=-0.0, sigma_m=1e-323),
        impact=ImpactSpec(kind="tanh", c=0.1 + 0.2), horizon=1, output_dir="",
    ))
    def test_parse_inverts_render(self, fields):
        """Construction rejects the output_dir, or the config round-trips."""
        try:
            config = RunConfig(**fields)
        except ValueError as exc:
            assert str(exc).startswith("out must ")
            return
        assert parse_config(render_config(config)) == config
