"""Closed-form per-state optimal hyperparameter values with feasibility clamping.

On these benchmarks the post-step loss is the square of a function that is
affine in the hyperparameter being tuned, so the loss-minimizing value has a
closed form in the current state. Each rule returns a FeasibleValue: the raw
root of the affine factor, a copy clamped to the [0, 1] search interval, and
two flags. ``defined`` is False when the formula's denominator falls below
SINGULAR_TOL (the state carries no usable signal, e.g. zero residual or zero
velocity); callers must then fall back to their previous value. ``feasible``
is True when the raw value already lies inside [0, 1].

Conventions the formulas rely on:

- adagrad: the state's ``grad_sq_sum`` must already include the squared
  gradient of the step being tuned, because the update divides by the
  post-accumulation sum.
- rmsprop: the weighted average for the pending step is recomputed here from
  the state's ``weighted_grad_sq``, beta, and the current gradient.
- F1 and F2 share one form per rule: every gradient coordinate is 2 * r, so
  a plain descent step maps the residual r to (1 - 2 * arity * eta) * r.
- F3: the learning-rate and momentum-coefficient forms are exact when steps
  use the halved regression gradient (x*r, r); see objectives.gradient.
- The rmsprop beta rule for F2/F3 assumes a common accumulator and a common
  gradient across both coordinates; for F3 that holds at x = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .objectives import ObjectiveId, RegressionSample, gradient, residual
from .optimizers import Method, OptimizerState, _weighted_grad_sq

SINGULAR_TOL = 1e-12

_NAN = float("nan")


@dataclass(frozen=True)
class FeasibleValue:
    """A closed-form hyperparameter value and its feasibility verdict.

    ``value`` is ``raw`` clamped to [0, 1] and is meaningful only when
    ``defined`` is True. ``feasible`` implies ``value == raw``.
    """

    value: float
    raw: float
    feasible: bool
    defined: bool


def _undefined() -> FeasibleValue:
    return FeasibleValue(value=_NAN, raw=_NAN, feasible=False, defined=False)


def _from_raw(raw: float) -> FeasibleValue:
    if not math.isfinite(raw):
        return _undefined()
    feasible = 0.0 <= raw <= 1.0
    return FeasibleValue(value=min(max(raw, 0.0), 1.0), raw=raw, feasible=feasible, defined=True)


def _need_sample(obj: ObjectiveId, sample: RegressionSample | None) -> RegressionSample:
    if sample is None:
        raise ValueError("F3 requires a regression sample (x, y)")
    return sample


def _need_b(value: float | None, what: str, obj: ObjectiveId) -> float:
    if value is None:
        raise ValueError(f"{what} is missing its b component for {obj.name}")
    return value


def _f3_base_lr(x: float) -> float:
    # Single shared expression so reduction identities hold bit for bit.
    return 1.0 / (x * x + 1.0)


def _velocity_sum(obj: ObjectiveId, state: OptimizerState) -> float:
    """The velocity's pull on the F1/F2 residual: v_w, plus v_b on F2."""
    if obj.arity == 1:
        return state.velocity.w
    return state.velocity.w + _need_b(state.velocity.b, "velocity", obj)


def optimal_lr_gd(
    obj: ObjectiveId,
    state: OptimizerState,
    sample: RegressionSample | None = None,
) -> FeasibleValue:
    """Learning rate that zeroes the residual in one plain descent step.

    State-independent: 0.5 for F1, 0.25 for F2, 1 / (x**2 + 1) for F3.
    Always defined.
    """
    if obj is ObjectiveId.F3:
        return _from_raw(_f3_base_lr(_need_sample(obj, sample).x))
    return _from_raw(1.0 / (2.0 * obj.arity))


def optimal_lr_momentum(
    obj: ObjectiveId,
    state: OptimizerState,
    sample: RegressionSample | None = None,
    *,
    alpha: float,
) -> FeasibleValue:
    """Learning rate that zeroes the post-step residual given the momentum term.

    Undefined when the current residual is below SINGULAR_TOL: the carried
    velocity then has nothing to correct against.
    """
    if obj is not ObjectiveId.F3:
        r = residual(obj, state.params)
        if abs(r) < SINGULAR_TOL:
            return _undefined()
        return _from_raw((alpha * _velocity_sum(obj, state) + r) / (2.0 * obj.arity * r))
    s = _need_sample(obj, sample)
    delta = residual(obj, state.params, s)
    if abs(delta) < SINGULAR_TOL:
        return _undefined()
    m = state.velocity.w * s.x + _need_b(state.velocity.b, "velocity", obj)
    return _from_raw(_f3_base_lr(s.x) + alpha * m / (delta * (s.x * s.x + 1.0)))


def optimal_momentum_coef(
    obj: ObjectiveId,
    state: OptimizerState,
    sample: RegressionSample | None = None,
    *,
    eta: float,
) -> FeasibleValue:
    """Momentum coefficient that zeroes the post-step residual given eta.

    Undefined when the velocity term it scales is below SINGULAR_TOL, in
    particular at the very first update where the velocity is still zero.
    """
    if obj is not ObjectiveId.F3:
        v = _velocity_sum(obj, state)
        if abs(v) < SINGULAR_TOL:
            return _undefined()
        r = residual(obj, state.params)
        return _from_raw((2.0 * obj.arity * eta - 1.0) * r / v)
    s = _need_sample(obj, sample)
    m = state.velocity.w * s.x + _need_b(state.velocity.b, "velocity", obj)
    if abs(m) < SINGULAR_TOL:
        return _undefined()
    delta = residual(obj, state.params, s)
    return _from_raw(delta * (eta * s.x * s.x + eta - 1.0) / m)


def _scaled_lr(
    obj: ObjectiveId, sample: RegressionSample | None, acc_w: float, acc_b: float | None, slot: str, epsilon: float
) -> FeasibleValue:
    """Learning rate that zeroes the residual when each coordinate's step is
    divided by sqrt(acc + epsilon), ``acc_w``/``acc_b`` being the accumulators
    (from state slot ``slot``) the pending step divides by."""
    s_w = math.sqrt(acc_w + epsilon)
    if obj is ObjectiveId.F1:
        return _from_raw(s_w / 2.0)
    s_b = math.sqrt(_need_b(acc_b, slot, obj) + epsilon)
    if obj is ObjectiveId.F2:
        denom = 2.0 * (s_w + s_b)
    else:
        x = _need_sample(obj, sample).x
        denom = x * x * s_b + s_w
    if denom < SINGULAR_TOL:
        return _undefined()
    return _from_raw(s_w * s_b / denom)


def optimal_lr_adagrad(
    obj: ObjectiveId,
    state: OptimizerState,
    sample: RegressionSample | None = None,
    *,
    epsilon: float,
) -> FeasibleValue:
    """Learning rate that zeroes the residual through the accumulated scaling.

    The state's grad_sq_sum must be the post-accumulation sums the pending
    step will divide by (they already include that step's squared gradient).
    Defined whenever the scaled divisors are positive, which epsilon > 0
    guarantees.
    """
    return _scaled_lr(obj, sample, state.grad_sq_sum.w, state.grad_sq_sum.b, "grad_sq_sum", epsilon)


def optimal_lr_rmsprop(
    obj: ObjectiveId,
    state: OptimizerState,
    sample: RegressionSample | None = None,
    *,
    beta: float,
    epsilon: float,
    f3_half_gradient: bool = False,
) -> FeasibleValue:
    """Learning rate that zeroes the residual through the weighted scaling.

    The divisors are recomputed here exactly as the step will compute them:
    beta * u + (1 - beta) * g**2 from the state's current accumulators and
    gradient. ``f3_half_gradient`` must match the convention the step uses.
    """
    g = gradient(obj, state.params, sample, f3_half_gradient=f3_half_gradient)
    u = state.weighted_grad_sq
    u_b = None if g.d_b is None else _weighted_grad_sq(_need_b(u.b, "weighted_grad_sq", obj), g.d_b, beta)
    return _scaled_lr(obj, sample, _weighted_grad_sq(u.w, g.d_w, beta), u_b, "weighted_grad_sq", epsilon)


def optimal_beta_rmsprop(
    obj: ObjectiveId,
    state: OptimizerState,
    sample: RegressionSample | None = None,
    *,
    eta: float,
    epsilon: float,
    f3_half_gradient: bool = False,
) -> FeasibleValue:
    """Mixing coefficient that makes the weighted divisor cancel a given eta.

    Undefined when the accumulator equals the current squared gradient (no
    beta moves the divisor) or, for F3, when the residual vanishes. For F2
    and F3 the closed form assumes one common accumulator across coordinates
    (the w slot is read) and one common gradient value; for F3 the common
    gradient holds at x = 1 and the b component is read.
    """
    if obj is ObjectiveId.F3:
        s = _need_sample(obj, sample)
        delta = residual(obj, state.params, s)
        if abs(delta) < SINGULAR_TOL:
            return _undefined()
        g = gradient(obj, state.params, s, f3_half_gradient=f3_half_gradient).d_b
    else:
        g = gradient(obj, state.params).d_w
    g_sq = g * g
    denom = state.weighted_grad_sq.w - g_sq
    if abs(denom) < SINGULAR_TOL:
        return _undefined()
    if obj is not ObjectiveId.F3:
        return _from_raw(((2.0 * obj.arity) ** 2 * eta * eta - g_sq - epsilon) / denom)
    d_sq = delta * delta
    x1 = s.x + 1.0
    return _from_raw((eta * eta * g_sq * x1 * x1 - g_sq * d_sq - epsilon * d_sq) / (denom * d_sq))


OPTIMIZED_HYPERS = {
    Method.GD: frozenset({"eta"}),
    Method.MOMENTUM: frozenset({"eta", "alpha"}),
    Method.ADAGRAD: frozenset({"eta"}),
    Method.RMSPROP: frozenset({"eta", "beta"}),
}

# The groups of oracle checks ``verify.report`` runs against these forms; here,
# where no numpy is imported, so the command line offers them without the oracles.
SCOPES = ("gradients", "argmin", "one-step", "all")


def solve(
    method: Method,
    target: str,
    obj: ObjectiveId,
    state: OptimizerState,
    sample: RegressionSample | None = None,
    *,
    eta: float | None,
    alpha: float | None,
    beta: float | None,
    epsilon: float,
    f3_half_gradient: bool = False,
) -> FeasibleValue:
    """Closed-form value of ``target`` for ``method`` at ``state``.

    The one place that decides which rule solves which hyperparameter. Each
    rule reads only the given values it needs; the others may be None. For
    adagrad ``state`` must be the post-accumulation view
    (optimizers.adagrad_post_view).

    Raises:
        ValueError: if the pair is not in OPTIMIZED_HYPERS.
    """
    if method is Method.GD and target == "eta":
        return optimal_lr_gd(obj, state, sample)
    if method is Method.MOMENTUM and target == "eta":
        return optimal_lr_momentum(obj, state, sample, alpha=alpha)
    if method is Method.MOMENTUM and target == "alpha":
        return optimal_momentum_coef(obj, state, sample, eta=eta)
    if method is Method.ADAGRAD and target == "eta":
        return optimal_lr_adagrad(obj, state, sample, epsilon=epsilon)
    if method is Method.RMSPROP and target == "eta":
        return optimal_lr_rmsprop(obj, state, sample, beta=beta, epsilon=epsilon, f3_half_gradient=f3_half_gradient)
    if method is Method.RMSPROP and target == "beta":
        return optimal_beta_rmsprop(obj, state, sample, eta=eta, epsilon=epsilon, f3_half_gradient=f3_half_gradient)
    raise ValueError(f"no closed form for {target!r} under {method.value}")
