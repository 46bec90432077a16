"""One-step update rules for four gradient descent variants.

``step`` is the one update path, two parts run in sequence. ``_checked_gradient`` runs
``_check_state``, the one test of a well-formed (state, objective, sample): each slot's
arity, then ``objectives._check_inputs`` on the params and the sample (``adagrad_post_view``
and every ``hyperopt`` rule run it first too, so all fail alike); it then refuses a
non-finite gradient. ``_apply_rule`` applies the method's per-coordinate rule
``(c, slot, g, hyper) -> (c', slot')`` to w and, if present, to b. ``_RULES``
maps each method to that rule and to the state slot it advances. ``_apply_rule`` has
two more callers: a direct search, whose state does not move, takes the first part
once and the second at every curve point; ``harness.run_training``, which checked its
inputs once per run, applies it to each epoch's gradient after ``_require_finite``.
Coordinates may be floats or equally shaped numpy arrays. A step on floats
stays in plain floats and imports no numpy, except where adagrad's or
rmsprop's divisor is zero or NaN: numpy gives its IEEE result (inf or NaN)
there without raising. A step never mutates its input and advances the
epoch by exactly one.

The closed-form step sizes rely on the accumulator conventions: the
gradient-square sum is updated before the division (adagrad), and the
weighted gradient-square mixes the current gradient into the incoming
average before the division (rmsprop). Each is written once, in
``_grad_sq_sum`` and ``_weighted_grad_sq``, which hyperopt also calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

from .objectives import GradientVector, ObjectiveId, ParamPoint, RegressionSample, _check_inputs, _gradient, _residual


class Method(Enum):
    GD = "gd"
    MOMENTUM = "momentum"
    ADAGRAD = "adagrad"
    RMSPROP = "rmsprop"


class NonFiniteGradientError(ValueError):
    """Raised when an update would consume a NaN or infinite gradient."""


def _all(ok) -> bool:
    """Whether a comparison holds: a bool from floats (which skip numpy's cost), or every element."""
    return ok if ok.__class__ is bool else bool(ok.all())


@dataclass(frozen=True)
class HyperParams:
    """Step hyperparameters (floats or arrays); alpha and beta are read only by the methods that use them."""

    eta: float
    alpha: float = 0.0
    beta: float = 0.0
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if not _all((0.0 <= self.eta) & (self.eta < math.inf)):
            raise ValueError(f"eta must be a finite non-negative real, got {self.eta!r}")
        if not _all((0.0 <= self.alpha) & (self.alpha <= 1.0)):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if not _all((0.0 <= self.beta) & (self.beta <= 1.0)):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")
        if not _all((0.0 <= self.epsilon) & (self.epsilon < math.inf)):
            raise ValueError(f"epsilon must be a finite non-negative real, got {self.epsilon!r}")


def _unchecked_hyper(values: dict) -> HyperParams:
    """HyperParams holding ``values`` without ``__post_init__``'s range checks,
    for a caller that checked them once for many instances."""
    hyper = object.__new__(HyperParams)
    hyper.__dict__.update(values)
    return hyper


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
    if not (_all(abs(g.d_w) < math.inf) and (g.d_b is None or _all(abs(g.d_b) < math.inf))):
        raise NonFiniteGradientError(f"gradient is not finite: {g!r}")


def _check_state(state: OptimizerState, obj: ObjectiveId, sample: RegressionSample | None) -> None:
    two = obj.arity == 2
    for name in ("velocity", "grad_sq_sum", "weighted_grad_sq"):
        if (getattr(state, name).b is None) is two:
            raise ValueError(
                f"{name} is missing its b component for {obj.name}" if two
                else f"{name} has a b component but {obj.name} takes one parameter"
            )
    _check_inputs(obj, state.params, sample)


def _grad_sq_sum(phi, g):
    """adagrad's accumulator: the running sum of squared gradients."""
    return phi + g * g


def _weighted_grad_sq(u, g, beta):
    """rmsprop's accumulator: the beta-weighted average of squared gradients."""
    return beta * u + (1.0 - beta) * g * g


# Per-coordinate rules (c, slot, g, hyper) -> (c', slot'): one coordinate,
# its value in the state slot the method advances, and its gradient.

def _descend(c, _, g, hyper):
    return c - hyper.eta * g, None


def _heavy_ball(c, v, g, hyper):
    v = hyper.alpha * v - hyper.eta * g
    return c + v, v


def _scaled(c, acc, g, hyper, read):
    # adagrad's and rmsprop's tail: divide by the freshly updated accumulator;
    # ``read`` says whether it took in g * g (rmsprop's does only at beta < 1).
    # Where acc + epsilon is 0 and g * g is 0 (g = 0, or a subnormal g whose
    # square underflows) or was read (so its share underflowed), the divisor
    # is 1: the coordinate takes the plain descent step -eta * g, nothing or a
    # tiny one. A registering g * g the accumulator never read (rmsprop at
    # beta = 1) still divides by a zero divisor. A positive float divisor takes
    # math.sqrt, which rounds as numpy's does; arrays, numpy scalars and a zero
    # or NaN divisor take numpy, whose division gives inf or NaN where Python's
    # would raise ZeroDivisionError.
    s = acc + hyper.epsilon
    d = s + ((s == 0) & (read | (g * g == 0)))
    if d.__class__ is float and d > 0.0:
        return c - hyper.eta * g / math.sqrt(d), acc
    import numpy as np

    return c - hyper.eta * g / np.sqrt(d), acc


def _accumulated(c, phi, g, hyper):
    return _scaled(c, _grad_sq_sum(phi, g), g, hyper, True)


def _weighted(c, u, g, hyper):
    return _scaled(c, _weighted_grad_sq(u, g, hyper.beta), g, hyper, hyper.beta < 1.0)


_RULES = {
    Method.GD: (None, _descend),
    Method.MOMENTUM: ("velocity", _heavy_ball),
    Method.ADAGRAD: ("grad_sq_sum", _accumulated),
    Method.RMSPROP: ("weighted_grad_sq", _weighted),
}

_NO_SLOT = PerCoord()


def _checked_gradient(
    state: OptimizerState, obj: ObjectiveId, sample: RegressionSample | None, f3_half_gradient: bool
) -> GradientVector:
    """The gradient ``step`` consumes at ``state``: the state checked, finite."""
    _check_state(state, obj, sample)
    g = _gradient(obj, _residual(obj, state.params, sample), sample, f3_half_gradient)
    _require_finite(g)
    return g


def _apply_rule(method: Method, state: OptimizerState, hyper: HyperParams, g: GradientVector) -> OptimizerState:
    """``state`` advanced by ``method``'s rule on the checked gradient ``g``."""
    name, rule = _RULES[method]
    slots = {
        "velocity": state.velocity, "grad_sq_sum": state.grad_sq_sum, "weighted_grad_sq": state.weighted_grad_sq
    }
    slot = _NO_SLOT if name is None else slots[name]
    w, slot_w = rule(state.params.w, slot.w, g.d_w, hyper)
    b, slot_b = (None, None) if g.d_b is None else rule(state.params.b, slot.b, g.d_b, hyper)
    if name is not None:
        slots[name] = PerCoord(slot_w, slot_b)
    return OptimizerState(ParamPoint(w, b), epoch=state.epoch + 1, **slots)


def step(
    method: Method,
    state: OptimizerState,
    hyper: HyperParams,
    obj: ObjectiveId,
    sample: RegressionSample | None = None,
    *,
    f3_half_gradient: bool = False,
) -> OptimizerState:
    """One update of ``method``: its per-coordinate rule applied to w and, if present, b.

    Raises:
        ValueError: if a state slot, the params or the sample does not fit ``obj``.
        NonFiniteGradientError: if the gradient at ``state`` is not finite.
    """
    return _apply_rule(method, state, hyper, _checked_gradient(state, obj, sample, f3_half_gradient))


# The four rules by name: ``step`` with the method fixed.
gd_step = partial(step, Method.GD)
gd_step.__doc__ = "Plain descent: c' = c - eta * g per coordinate. Accumulators untouched."

momentum_step = partial(step, Method.MOMENTUM)
momentum_step.__doc__ = "Heavy-ball update: v' = alpha * v - eta * g, then c' = c + v'."

adagrad_step = partial(step, Method.ADAGRAD)
adagrad_step.__doc__ = """Accumulated scaling: phi' = phi + g**2, then c' = c - eta * g / sqrt(phi' + eps).

The current squared gradient enters the sum before the division.
"""

rmsprop_step = partial(step, Method.RMSPROP)
rmsprop_step.__doc__ = """Exponentially weighted scaling: u' = beta * u + (1 - beta) * g**2,
then c' = c - eta * g / sqrt(u' + eps).

The divisor uses the freshly mixed average, so the current gradient
always contributes to its own scaling.
"""


def adagrad_post_view(
    state: OptimizerState, obj: ObjectiveId, sample: RegressionSample | None, *, f3_half_gradient: bool
) -> OptimizerState:
    """``state`` with grad_sq_sum advanced by the current squared gradient: the
    sums the pending adagrad step divides by, which its closed form reads."""
    _check_state(state, obj, sample)
    g = _gradient(obj, _residual(obj, state.params, sample), sample, f3_half_gradient)
    post_b = None if g.d_b is None else _grad_sq_sum(state.grad_sq_sum.b, g.d_b)
    return replace(state, grad_sq_sum=PerCoord(w=_grad_sq_sum(state.grad_sq_sum.w, g.d_w), b=post_b))
