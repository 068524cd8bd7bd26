"""Zeroth-order composite optimization in an entropy-like mirror geometry.

The package bundles a two-point Rademacher gradient estimator, a
Lambert-W based elastic-net proximal step, adaptive and recursive-momentum
mirror-descent solvers, a Euclidean proximal-SGD baseline, synthetic
benchmark problems, and a reproducible experiment CLI.
"""

from .core import (
    ElasticNet,
    FeasibleSet,
    GradientMapResult,
    NumericError,
    Problem,
    composite_value,
    elastic_net_value,
    gradient_map,
)
from .mirror import (
    MirrorGeometry,
    bregman,
    dgf_value,
    inverse_mirror_map,
    lambert_w0,
    mirror_map,
    prox_composite,
)
from .problems import (
    ExplanationProblem,
    SparseRegressionProblem,
    TinyClassifier,
    explanation_loss,
    make_explanation_problem,
    make_sparse_regression,
    make_tiny_classifier,
    pn_cost,
    pp_cost,
    sparse_regression_design,
)
from .sampling import (
    EstimatorConfig,
    GradientEstimate,
    default_smoothing,
    minibatch_gradient,
    paired_storm_estimates,
    two_point_estimate,
)
from .solvers import (
    ALGORITHMS,
    RunConfig,
    Trace,
    TraceRecord,
    run_zo_ada_expgrad,
    run_zo_ada_expgrad_plus,
    run_zo_expstorm,
    run_zo_psgd,
    storm_momentum_update,
    storm_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ElasticNet",
    "EstimatorConfig",
    "ExplanationProblem",
    "FeasibleSet",
    "GradientEstimate",
    "GradientMapResult",
    "MirrorGeometry",
    "NumericError",
    "Problem",
    "RunConfig",
    "SparseRegressionProblem",
    "TinyClassifier",
    "Trace",
    "TraceRecord",
    "bregman",
    "composite_value",
    "default_smoothing",
    "dgf_value",
    "elastic_net_value",
    "explanation_loss",
    "gradient_map",
    "inverse_mirror_map",
    "lambert_w0",
    "make_explanation_problem",
    "make_sparse_regression",
    "make_tiny_classifier",
    "minibatch_gradient",
    "mirror_map",
    "paired_storm_estimates",
    "pn_cost",
    "pp_cost",
    "prox_composite",
    "run_zo_ada_expgrad",
    "run_zo_ada_expgrad_plus",
    "run_zo_expstorm",
    "run_zo_psgd",
    "sparse_regression_design",
    "storm_momentum_update",
    "storm_schedule",
    "two_point_estimate",
    "__version__",
]
