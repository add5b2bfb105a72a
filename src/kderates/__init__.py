"""Multi-bandwidth KDE, volume-dimension estimation and rate verification."""

from .bounds import (
    BoundSpec,
    combined_envelope,
    covering_bound,
    empirical_covering,
    lower_bound,
    upper_bound_ray,
    upper_bound_simplified,
)
from .dimension import (
    RateFit,
    assumption_check,
    box_dimension_estimate,
    correlation_dimension_estimate,
    fit_loglog,
    voldim_estimate,
    voldim_sweep,
)
from .distributions import (
    Mixture,
    PointMasses,
    ReferenceDistribution,
    UnboundedBall,
    UniformCircle,
    UniformCube,
    UniformSphere,
    distribution_from_config,
)
from .harness import DeviationReport, ExperimentConfig, fit_files, fit_rate, run
from .kde import (
    BandwidthGrid,
    EvalGrid,
    kde_deriv_eval,
    kde_eval,
    kde_table,
    make_eval_grid,
    sup_deviation,
)
from .kernels import Kernel, MultiIndex, QuadratureError, kernel_from_config, unit_ball_volume

__all__ = [
    "BandwidthGrid",
    "BoundSpec",
    "DeviationReport",
    "EvalGrid",
    "ExperimentConfig",
    "Kernel",
    "Mixture",
    "MultiIndex",
    "PointMasses",
    "QuadratureError",
    "RateFit",
    "ReferenceDistribution",
    "UnboundedBall",
    "UniformCircle",
    "UniformCube",
    "UniformSphere",
    "assumption_check",
    "box_dimension_estimate",
    "combined_envelope",
    "correlation_dimension_estimate",
    "covering_bound",
    "distribution_from_config",
    "empirical_covering",
    "fit_files",
    "fit_loglog",
    "fit_rate",
    "kde_deriv_eval",
    "kde_eval",
    "kde_table",
    "kernel_from_config",
    "lower_bound",
    "make_eval_grid",
    "run",
    "sup_deviation",
    "unit_ball_volume",
    "upper_bound_ray",
    "upper_bound_simplified",
    "voldim_estimate",
    "voldim_sweep",
]

__version__ = "0.1.0"
