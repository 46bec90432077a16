"""One-step update rules for four gradient descent variants.

Each step function is a pure transition: it takes an OptimizerState, returns
a new one with the epoch advanced by exactly one, and never mutates its
input. Accumulator conventions matter to the closed-form step sizes built on
top of these rules: the gradient-square sum is updated before the division
(adagrad), and the weighted gradient-square mixes the current gradient into
the incoming average before the division (rmsprop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .objectives import (
    GradientVector,
    ObjectiveId,
    ParamPoint,
    RegressionSample,
    gradient,
)


class Method(Enum):
    GD = "gd"
    MOMENTUM = "momentum"
    ADAGRAD = "adagrad"
    RMSPROP = "rmsprop"


class NonFiniteGradientError(ValueError):
    """Raised when an update would consume a NaN or infinite gradient."""


@dataclass(frozen=True)
class HyperParams:
    """Step hyperparameters; alpha and beta are read only by the methods that use them."""

    eta: float
    alpha: float = 0.0
    beta: float = 0.0
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if not math.isfinite(self.eta) or self.eta < 0.0:
            raise ValueError(f"eta must be a finite non-negative real, got {self.eta!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")
        if not math.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ValueError(f"epsilon must be a finite non-negative real, got {self.epsilon!r}")


@dataclass(frozen=True)
class PerCoord:
    """A per-coordinate quantity (velocity or accumulator) mirroring ParamPoint arity."""

    w: float = 0.0
    b: float | None = None


@dataclass(frozen=True)
class OptimizerState:
    """Full state of one training run between updates.

    ``velocity`` belongs to momentum, ``grad_sq_sum`` to adagrad and
    ``weighted_grad_sq`` to rmsprop; the others carry through untouched.
    Epochs are 1-based: epoch 1 is the initial state before any update.
    """

    params: ParamPoint
    velocity: PerCoord
    grad_sq_sum: PerCoord
    weighted_grad_sq: PerCoord
    epoch: int = 1

    @classmethod
    def initial(cls, params: ParamPoint) -> OptimizerState:
        """Fresh state at ``params``: zero velocity and zero accumulators."""
        zero = PerCoord(w=0.0, b=None if params.b is None else 0.0)
        return cls(params=params, velocity=zero, grad_sq_sum=zero, weighted_grad_sq=zero)


def _require_finite(g: GradientVector) -> None:
    ok = bool(np.all(np.isfinite(g.d_w)))
    if ok and g.d_b is not None:
        ok = bool(np.all(np.isfinite(g.d_b)))
    if not ok:
        raise NonFiniteGradientError(f"gradient is not finite: {g!r}")


def _check_arity(state: OptimizerState, obj: ObjectiveId) -> None:
    two = obj.arity == 2
    for name in ("velocity", "grad_sq_sum", "weighted_grad_sq"):
        slot: PerCoord = getattr(state, name)
        if two and slot.b is None:
            raise ValueError(f"{name} is missing its b component for {obj.name}")
        if not two and slot.b is not None:
            raise ValueError(f"{name} has a b component but {obj.name} takes one parameter")


def gd_step(
    state: OptimizerState,
    hyper: HyperParams,
    obj: ObjectiveId,
    sample: RegressionSample | None = None,
    *,
    f3_half_gradient: bool = False,
) -> OptimizerState:
    """Plain descent: c' = c - eta * g per coordinate. Accumulators untouched."""
    _check_arity(state, obj)
    g = gradient(obj, state.params, sample, f3_half_gradient=f3_half_gradient)
    _require_finite(g)
    w = state.params.w - hyper.eta * g.d_w
    b = None if g.d_b is None else state.params.b - hyper.eta * g.d_b
    return replace(state, params=ParamPoint(w=w, b=b), epoch=state.epoch + 1)


def momentum_step(
    state: OptimizerState,
    hyper: HyperParams,
    obj: ObjectiveId,
    sample: RegressionSample | None = None,
    *,
    f3_half_gradient: bool = False,
) -> OptimizerState:
    """Heavy-ball update: v' = alpha * v - eta * g, then c' = c + v'."""
    _check_arity(state, obj)
    g = gradient(obj, state.params, sample, f3_half_gradient=f3_half_gradient)
    _require_finite(g)
    v_w = hyper.alpha * state.velocity.w - hyper.eta * g.d_w
    w = state.params.w + v_w
    if g.d_b is None:
        v_b = None
        b = None
    else:
        v_b = hyper.alpha * state.velocity.b - hyper.eta * g.d_b
        b = state.params.b + v_b
    return replace(
        state,
        params=ParamPoint(w=w, b=b),
        velocity=PerCoord(w=v_w, b=v_b),
        epoch=state.epoch + 1,
    )


def adagrad_step(
    state: OptimizerState,
    hyper: HyperParams,
    obj: ObjectiveId,
    sample: RegressionSample | None = None,
    *,
    f3_half_gradient: bool = False,
) -> OptimizerState:
    """Accumulated scaling: phi' = phi + g**2, then c' = c - eta * g / sqrt(phi' + eps).

    The current squared gradient enters the sum before the division.
    """
    _check_arity(state, obj)
    g = gradient(obj, state.params, sample, f3_half_gradient=f3_half_gradient)
    _require_finite(g)
    phi_w = state.grad_sq_sum.w + g.d_w * g.d_w
    w = state.params.w - hyper.eta * g.d_w / np.sqrt(phi_w + hyper.epsilon)
    if g.d_b is None:
        phi_b = None
        b = None
    else:
        phi_b = state.grad_sq_sum.b + g.d_b * g.d_b
        b = state.params.b - hyper.eta * g.d_b / np.sqrt(phi_b + hyper.epsilon)
    return replace(
        state,
        params=ParamPoint(w=w, b=b),
        grad_sq_sum=PerCoord(w=phi_w, b=phi_b),
        epoch=state.epoch + 1,
    )


def adagrad_post_view(
    state: OptimizerState, obj: ObjectiveId, sample: RegressionSample | None, *, f3_half_gradient: bool
) -> OptimizerState:
    """``state`` with grad_sq_sum advanced by the current squared gradient: the
    sums the pending adagrad step divides by, which its closed form reads."""
    g = gradient(obj, state.params, sample, f3_half_gradient=f3_half_gradient)
    post_b = None if g.d_b is None else state.grad_sq_sum.b + g.d_b * g.d_b
    return replace(state, grad_sq_sum=PerCoord(w=state.grad_sq_sum.w + g.d_w * g.d_w, b=post_b))


def rmsprop_step(
    state: OptimizerState,
    hyper: HyperParams,
    obj: ObjectiveId,
    sample: RegressionSample | None = None,
    *,
    f3_half_gradient: bool = False,
) -> OptimizerState:
    """Exponentially weighted scaling: u' = beta * u + (1 - beta) * g**2,
    then c' = c - eta * g / sqrt(u' + eps).

    The divisor uses the freshly mixed average, so the current gradient
    always contributes to its own scaling.
    """
    _check_arity(state, obj)
    g = gradient(obj, state.params, sample, f3_half_gradient=f3_half_gradient)
    _require_finite(g)
    u_w = hyper.beta * state.weighted_grad_sq.w + (1.0 - hyper.beta) * g.d_w * g.d_w
    w = state.params.w - hyper.eta * g.d_w / np.sqrt(u_w + hyper.epsilon)
    if g.d_b is None:
        u_b = None
        b = None
    else:
        u_b = hyper.beta * state.weighted_grad_sq.b + (1.0 - hyper.beta) * g.d_b * g.d_b
        b = state.params.b - hyper.eta * g.d_b / np.sqrt(u_b + hyper.epsilon)
    return replace(
        state,
        params=ParamPoint(w=w, b=b),
        weighted_grad_sq=PerCoord(w=u_w, b=u_b),
        epoch=state.epoch + 1,
    )


_STEP_FNS = {
    Method.GD: gd_step,
    Method.MOMENTUM: momentum_step,
    Method.ADAGRAD: adagrad_step,
    Method.RMSPROP: rmsprop_step,
}


def step(
    method: Method,
    state: OptimizerState,
    hyper: HyperParams,
    obj: ObjectiveId,
    sample: RegressionSample | None = None,
    *,
    f3_half_gradient: bool = False,
) -> OptimizerState:
    """Dispatch a single update for ``method``."""
    return _STEP_FNS[method](state, hyper, obj, sample, f3_half_gradient=f3_half_gradient)
