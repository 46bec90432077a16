"""Numeric oracles for the closed-form hyperparameter rules.

Two independent checks live here. ``mean_post_step_error`` estimates the
average one-step loss over a sampled region of parameter space and
``argmin_hyper`` / ``pointwise_argmin_hyper`` locate the hyperparameter that
minimizes it by direct search, with no knowledge of the closed forms they
are used to verify. Both searches run through one routine, ``_argmin``: a
uniform scan followed by golden-section refinement of the one-step loss,
reduced by its mean over the sampled grid or read off a single state.
``finite_diff_gradient`` plays the same role for the analytic gradients.

Batch evaluation threads numpy arrays through the real step functions, so
the dynamics being averaged are exactly the ones a training run would take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Literal

import numpy as np

from .objectives import (
    GradientVector,
    ObjectiveId,
    ParamPoint,
    RegressionSample,
    evaluate,
    gradient,
)
from .optimizers import HyperParams, Method, OptimizerState, PerCoord, step

HyperName = Literal["eta", "alpha", "beta"]

_HYPER_NAMES = ("eta", "alpha", "beta")

GRID_POINTS_1D = 1000
GRID_POINTS_2D = 200

_SCAN_POINTS = 64
_GOLDEN_WIDTH = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class SamplingMode(Enum):
    GRID = "grid"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class SamplingSpec:
    """How to sample parameter space.

    ``resolution`` counts points per axis for the grid (cell midpoints, so
    the estimate is a midpoint quadrature) and total draws for monte carlo.
    ``domain`` is one interval applied to every parameter.
    """

    mode: SamplingMode
    resolution: int
    seed: int = 0
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise ValueError(f"resolution must be at least 2, got {self.resolution}")
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"domain must be a finite non-empty interval, got {self.domain}")


def default_sampling(obj: ObjectiveId, seed: int = 0) -> SamplingSpec:
    """Grid sampling at the default resolution for the objective's arity."""
    n = GRID_POINTS_1D if obj.arity == 1 else GRID_POINTS_2D
    return SamplingSpec(mode=SamplingMode.GRID, resolution=n, seed=seed)


@dataclass(frozen=True)
class ArgminResult:
    """Outcome of a direct hyperparameter search over [0, 1].

    ``flat`` marks a curve with no variation across the scan (the argmin is
    then arbitrary); ``multimodal`` marks separated local minima in the scan,
    reported rather than fatal, with refinement around the global best.
    """

    argmin: float
    min_value: float
    bracket: tuple[float, float]
    evaluations: int
    flat: bool = False
    multimodal: bool = False


def finite_diff_gradient(
    obj: ObjectiveId,
    point: ParamPoint,
    sample: RegressionSample | None = None,
    step_size: float = 1e-6,
) -> GradientVector:
    """Central-difference gradient oracle, (f(c + h) - f(c - h)) / (2h) per coordinate."""
    if not step_size > 0.0:
        raise ValueError(f"step_size must be positive, got {step_size!r}")
    h = step_size

    def central(coord: str) -> float:
        c = getattr(point, coord)
        up = evaluate(obj, replace(point, **{coord: c + h}), sample)
        return (up - evaluate(obj, replace(point, **{coord: c - h}), sample)) / (2.0 * h)

    return GradientVector(d_w=central("w"), d_b=None if obj.arity == 1 else central("b"))


def _sampled_state(obj: ObjectiveId, spec: SamplingSpec, template: OptimizerState) -> OptimizerState:
    """``template`` with its parameters swept over the points ``spec`` samples."""
    lo, hi = spec.domain
    if spec.mode is SamplingMode.GRID:
        n = spec.resolution
        axis = lo + (np.arange(n) + 0.5) * ((hi - lo) / n)
        axes = [g.ravel() for g in np.meshgrid(*[axis] * obj.arity, indexing="ij")]
    else:
        rng = np.random.default_rng(spec.seed)
        axes = [rng.uniform(lo, hi, size=spec.resolution) for _ in range(obj.arity)]
    return replace(template, params=ParamPoint(*axes))


def _post_step_losses(
    method: Method,
    obj: ObjectiveId,
    hyper: HyperParams,
    sample: RegressionSample | None,
    state: OptimizerState,
    f3_half_gradient: bool,
) -> np.ndarray:
    # overflow surfaces as the ValueError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        stepped = step(method, state, hyper, obj, sample, f3_half_gradient=f3_half_gradient)
        losses = np.asarray(evaluate(obj, stepped.params, sample))
    if not np.all(np.isfinite(losses)):
        raise ValueError("non-finite loss at a sample point")
    return losses


def mean_post_step_error(
    method: Method,
    obj: ObjectiveId,
    hyper: HyperParams,
    sample: RegressionSample | None,
    spec: SamplingSpec,
    state_template: OptimizerState,
    *,
    f3_half_gradient: bool = False,
) -> float:
    """Average loss after one update, over parameter points sampled per ``spec``.

    The template's velocity and accumulators are held fixed while the
    parameters sweep; each sampled point takes one real step of ``method``.

    Raises:
        ValueError: if any sampled point produces a non-finite loss.
    """
    state = _sampled_state(obj, spec, state_template)
    return float(np.mean(_post_step_losses(method, obj, hyper, sample, state, f3_half_gradient)))


def _significant_local_minima(values: list[float], cutoff: float) -> list[int]:
    n = len(values)
    minima = []
    for i in range(n):
        left_ok = i == 0 or values[i] < values[i - 1]
        right_ok = i == n - 1 or values[i] < values[i + 1]
        if left_ok and right_ok and values[i] <= cutoff:
            minima.append(i)
    return minima


def _search_unit_interval(curve: Callable[[float], float]) -> ArgminResult:
    """Scan then golden-section refine; curve is evaluated on [0, 1] only."""
    xs = [i / (_SCAN_POINTS - 1) for i in range(_SCAN_POINTS)]
    vals = [curve(x) for x in xs]
    evals = _SCAN_POINTS

    vmin = min(vals)
    vmax = max(vals)
    if vmin == vmax:
        return ArgminResult(argmin=0.5, min_value=vmin, bracket=(0.0, 1.0), evaluations=evals, flat=True)

    minima = _significant_local_minima(vals, vmin + 1e-6 * (vmax - vmin))
    multimodal = any(j - i >= 3 for i, j in zip(minima, minima[1:]))

    k = vals.index(vmin)
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, _SCAN_POINTS - 1)]
    best_x, best_v = xs[k], vals[k]

    span = hi - lo
    c = hi - _INV_PHI * span
    d = lo + _INV_PHI * span
    yc = curve(c)
    yd = curve(d)
    evals += 2
    while span > _GOLDEN_WIDTH:
        if yc < yd:
            hi, d, yd = d, c, yc
            span = hi - lo
            c = hi - _INV_PHI * span
            yc = curve(c)
        else:
            lo, c, yc = c, d, yd
            span = hi - lo
            d = lo + _INV_PHI * span
            yd = curve(d)
        evals += 1
        if yc < best_v:
            best_x, best_v = c, yc
        if yd < best_v:
            best_x, best_v = d, yd

    return ArgminResult(
        argmin=best_x,
        min_value=best_v,
        bracket=(lo, hi),
        evaluations=evals,
        multimodal=multimodal,
    )


def _argmin(
    method: Method,
    obj: ObjectiveId,
    target: str,
    fixed: HyperParams,
    sample: RegressionSample | None,
    state: OptimizerState,
    f3_half_gradient: bool,
    reduce: Callable[[np.ndarray], float],
) -> ArgminResult:
    """Search [0, 1] for the ``target`` value minimizing ``reduce`` of the one-step losses."""
    if target not in _HYPER_NAMES:
        raise ValueError(f"target must be one of {_HYPER_NAMES}, got {target!r}")

    def curve(t: float) -> float:
        hyper = replace(fixed, **{target: t})
        return float(reduce(_post_step_losses(method, obj, hyper, sample, state, f3_half_gradient)))

    return _search_unit_interval(curve)


def argmin_hyper(
    method: Method,
    obj: ObjectiveId,
    target: HyperName,
    fixed: HyperParams,
    sample: RegressionSample | None,
    spec: SamplingSpec,
    state_template: OptimizerState,
    *,
    f3_half_gradient: bool = False,
) -> ArgminResult:
    """Directly minimize the sampled mean one-step error over one hyperparameter.

    ``target`` names the swept hyperparameter; the others come from ``fixed``.
    The search covers [0, 1] and is accurate to well under 1e-6 for unimodal
    curves.
    """
    state = _sampled_state(obj, spec, state_template)
    return _argmin(method, obj, target, fixed, sample, state, f3_half_gradient, np.mean)


def pointwise_argmin_hyper(
    method: Method,
    obj: ObjectiveId,
    target: HyperName,
    fixed: HyperParams,
    sample: RegressionSample | None,
    state: OptimizerState,
    *,
    f3_half_gradient: bool = False,
) -> ArgminResult:
    """Directly minimize the one-step loss from a single fully specified state.

    For adagrad the state's grad_sq_sum is read as the post-accumulation sums
    the pending step divides by, matching the closed form's convention; the
    search still runs through the real step function.
    """
    if method is Method.ADAGRAD:
        g = gradient(obj, state.params, sample, f3_half_gradient=f3_half_gradient)
        phi = state.grad_sq_sum
        pre_b = None if g.d_b is None else phi.b - g.d_b * g.d_b
        state = replace(state, grad_sq_sum=PerCoord(w=phi.w - g.d_w * g.d_w, b=pre_b))
    return _argmin(method, obj, target, fixed, sample, state, f3_half_gradient, float)
