"""Gradient-descent laboratory: four update rules on three quadratic
objectives, closed-form per-state optimal hyperparameters, numeric oracles
that validate those closed forms, and a convergence comparison harness.

``_EXPORTS`` is the one table of public names, each under its home module.
The module ``__getattr__`` (PEP 562) resolves a name, or a home module such as
``hyperstep.harness``, from it on every access, so ``import hyperstep`` loads no
submodule and a process imports only the modules whose names it touches. Only the
oracles (``analyzer``) need numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "objectives": (
        "GradientVector", "ObjectiveId", "ParamPoint", "RegressionSample", "evaluate", "gradient",
        "residual",
    ),
    "optimizers": (
        "HyperParams", "Method", "NonFiniteGradientError", "OptimizerState", "PerCoord", "adagrad_step",
        "gd_step", "momentum_step", "rmsprop_step", "step",
    ),
    "hyperopt": (
        "OPTIMIZED_HYPERS", "SINGULAR_TOL", "FeasibleValue", "optimal_beta_rmsprop", "optimal_lr_adagrad",
        "optimal_lr_gd", "optimal_lr_momentum", "optimal_lr_rmsprop", "optimal_momentum_coef", "solve",
    ),
    "analyzer": (
        "ArgminResult", "SamplingMode", "SamplingSpec", "argmin_hyper", "default_sampling",
        "finite_diff_gradient", "mean_post_step_error", "pointwise_argmin_hyper",
    ),
    "harness": (
        "DEFAULT_HYPERS", "DEFAULT_SAMPLE", "DEFAULT_TOLERANCE", "PUBLISHED_RESULTS", "ComparisonCell",
        "ComparisonMatrix", "EpochRecord", "HyperFlags", "HyperPolicy", "PolicyKind", "PublishedCell",
        "RandomInit", "RunConfig", "Trace", "detect_convergence", "reproduce_table2", "run_training",
    ),
}

__all__ = [*(name for names in _EXPORTS.values() for name in names), "__version__"]


def __getattr__(name: str):
    # looked up on every access, never cached here: a wrapper bound in a home module
    # (as perfbench's tracer binds one) is seen while it is bound, and only then
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    for home, names in _EXPORTS.items():
        if name in names:
            return getattr(_import_module(f"{__name__}.{home}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
