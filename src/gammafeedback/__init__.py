"""
gammafeedback: stability maps, bifurcation analysis, and seeded simulation
of delta-hedging feedback with beta-normalized shock perception.
"""

__version__ = "0.1.0"

from .analysis import (
    ContourSet,
    FixedPointClass,
    FixedPointReport,
    GridScan,
    GridSpec,
    amplification_grid,
    analyze_fixed_point,
    critical_exposure,
    extract_contour,
    linearized_feedback,
    stability_grid,
)
from .config import ConfigError, RunConfig, parse_config, render_config
from .dynamics import (
    NumericalOverflow,
    SimState,
    Trajectory,
    feedback_step,
    simulate_one_shot,
    simulate_recursive,
)
from .model import (
    EPS_SINGULAR,
    ImpactSpec,
    ModelParams,
    SingularDenominator,
    hedging_impact,
    relative_surprise,
    stability_denominator,
    static_response,
    surprise_amplification,
)
from .rng import Rng
from .stochastic import (
    EventSpec,
    StochasticSpec,
    exposure_cap,
    generate_event_spikes,
    simulate_event_driven,
    simulate_stochastic,
)

__all__ = [
    "__version__",
    "ConfigError",
    "ContourSet",
    "EPS_SINGULAR",
    "EventSpec",
    "FixedPointClass",
    "FixedPointReport",
    "GridScan",
    "GridSpec",
    "ImpactSpec",
    "ModelParams",
    "NumericalOverflow",
    "Rng",
    "RunConfig",
    "SimState",
    "SingularDenominator",
    "StochasticSpec",
    "Trajectory",
    "amplification_grid",
    "analyze_fixed_point",
    "critical_exposure",
    "exposure_cap",
    "extract_contour",
    "feedback_step",
    "generate_event_spikes",
    "hedging_impact",
    "linearized_feedback",
    "parse_config",
    "relative_surprise",
    "render_config",
    "simulate_event_driven",
    "simulate_one_shot",
    "simulate_recursive",
    "simulate_stochastic",
    "stability_denominator",
    "stability_grid",
    "static_response",
    "surprise_amplification",
]
