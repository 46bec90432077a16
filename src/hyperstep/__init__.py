"""Gradient-descent laboratory: four update rules on three quadratic
objectives, closed-form per-state optimal hyperparameters, numeric oracles
that validate those closed forms, and a convergence comparison harness.

The oracles (``analyzer``) are the only public names that need numpy; they
are imported on first access, so a process that never touches them never
imports numpy.
"""

from .objectives import (
    GradientVector,
    ObjectiveId,
    ParamPoint,
    RegressionSample,
    evaluate,
    gradient,
    residual,
)
from .optimizers import (
    HyperParams,
    Method,
    NonFiniteGradientError,
    OptimizerState,
    PerCoord,
    adagrad_step,
    gd_step,
    momentum_step,
    rmsprop_step,
    step,
)
from .hyperopt import (
    SINGULAR_TOL,
    FeasibleValue,
    optimal_beta_rmsprop,
    optimal_lr_adagrad,
    optimal_lr_gd,
    optimal_lr_momentum,
    optimal_lr_rmsprop,
    optimal_momentum_coef,
    solve,
)
from .harness import (
    DEFAULT_HYPERS,
    DEFAULT_SAMPLE,
    DEFAULT_TOLERANCE,
    OPTIMIZED_HYPERS,
    PUBLISHED_RESULTS,
    ComparisonCell,
    ComparisonMatrix,
    EpochRecord,
    HyperFlags,
    HyperPolicy,
    PolicyKind,
    PublishedCell,
    RandomInit,
    RunConfig,
    Trace,
    detect_convergence,
    reproduce_table2,
    run_training,
)

__version__ = "0.1.0"

_ANALYZER_NAMES = (
    "ArgminResult",
    "SamplingMode",
    "SamplingSpec",
    "argmin_hyper",
    "default_sampling",
    "finite_diff_gradient",
    "mean_post_step_error",
    "pointwise_argmin_hyper",
)


def __getattr__(name: str):
    if name in _ANALYZER_NAMES:
        from . import analyzer

        return getattr(analyzer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ANALYZER_NAMES})

__all__ = [
    "GradientVector",
    "ObjectiveId",
    "ParamPoint",
    "RegressionSample",
    "evaluate",
    "gradient",
    "residual",
    "HyperParams",
    "Method",
    "NonFiniteGradientError",
    "OptimizerState",
    "PerCoord",
    "adagrad_step",
    "gd_step",
    "momentum_step",
    "rmsprop_step",
    "step",
    "SINGULAR_TOL",
    "FeasibleValue",
    "optimal_beta_rmsprop",
    "optimal_lr_adagrad",
    "optimal_lr_gd",
    "optimal_lr_momentum",
    "optimal_lr_rmsprop",
    "optimal_momentum_coef",
    "solve",
    "ArgminResult",
    "SamplingMode",
    "SamplingSpec",
    "argmin_hyper",
    "default_sampling",
    "finite_diff_gradient",
    "mean_post_step_error",
    "pointwise_argmin_hyper",
    "DEFAULT_HYPERS",
    "DEFAULT_SAMPLE",
    "DEFAULT_TOLERANCE",
    "OPTIMIZED_HYPERS",
    "PUBLISHED_RESULTS",
    "ComparisonCell",
    "ComparisonMatrix",
    "EpochRecord",
    "HyperFlags",
    "HyperPolicy",
    "PolicyKind",
    "PublishedCell",
    "RandomInit",
    "RunConfig",
    "Trace",
    "detect_convergence",
    "reproduce_table2",
    "run_training",
    "__version__",
]
