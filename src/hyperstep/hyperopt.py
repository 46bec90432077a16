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
- Plain descent's rate is the scaled rate ``_scaled_lr`` with unit divisors;
  both momentum forms read the velocity's pull on the residual from ``_pull``.
- F3: the learning-rate and momentum-coefficient forms are exact when steps
  use the halved regression gradient (x*r, r); see objectives.gradient.
- The rmsprop beta rule for F2/F3 assumes a common accumulator and a common
  gradient across both coordinates; for F3 that holds at x = 1.

Every rule first runs ``optimizers._check_state``, the check ``step`` runs, so a
state, point or sample ``step`` refuses is refused here with the same error; it
then computes on the unchecked cores ``objectives._residual`` and ``_gradient``.

Public names take and return floats. Each form is written once for floats
and equally shaped numpy arrays (a singular row's divisor gets 1 added, so
no row divides by zero), but arrays enter only through the private table
``_FORMS``, which binds the rules themselves: a wrapper bound to a public
name, as perfbench's tracer binds, may read ``bool(result.defined)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .objectives import ObjectiveId, RegressionSample, _gradient, _residual
from .optimizers import Method, OptimizerState, _check_state, _weighted_grad_sq

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


def _from_raw(raw, singular=False) -> FeasibleValue:
    """``raw`` clamped and flagged, a float or elementwise; undefined where singular or not finite."""
    if isinstance(raw, float):
        if singular or not math.isfinite(raw):
            return FeasibleValue(value=_NAN, raw=_NAN, feasible=False, defined=False)
        return FeasibleValue(value=min(max(raw, 0.0), 1.0), raw=raw, feasible=0.0 <= raw <= 1.0, defined=True)
    import numpy as np

    defined = np.isfinite(raw) & np.logical_not(singular)
    raw = np.where(defined, raw, np.nan)
    return FeasibleValue(value=np.clip(raw, 0.0, 1.0), raw=raw, feasible=(0.0 <= raw) & (raw <= 1.0), defined=defined)


def _sqrt(x):
    """The square root of an accumulator plus epsilon; NaN, with no error or warning,
    where that is negative, so the rule comes out undefined on floats and arrays alike."""
    if isinstance(x, float):
        return math.sqrt(x) if x >= 0.0 else _NAN
    import numpy as np

    with np.errstate(invalid="ignore"):
        return np.sqrt(x)


def _pull(obj: ObjectiveId, state: OptimizerState, sample: RegressionSample | None):
    """The velocity's pull on the residual: v_w on F1, v_w + v_b on F2, v_w * x + v_b on F3."""
    v = state.velocity
    if obj is ObjectiveId.F1:
        return v.w
    return v.w + v.b if obj is ObjectiveId.F2 else v.w * sample.x + v.b


def optimal_lr_gd(
    obj: ObjectiveId,
    state: OptimizerState,
    sample: RegressionSample | None = None,
) -> FeasibleValue:
    """Learning rate that zeroes the residual in one plain descent step.

    State-independent: 0.5 for F1, 0.25 for F2, 1 / (x**2 + 1) for F3.
    Always defined.
    """
    _check_state(state, obj, sample)
    return _scaled_lr(obj, sample, 1.0, 1.0, 0.0)


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
    _check_state(state, obj, sample)
    r = _residual(obj, state.params, sample)
    m = _pull(obj, state, sample)
    singular = abs(r) < SINGULAR_TOL
    if obj is not ObjectiveId.F3:
        return _from_raw((alpha * m + r) / (2.0 * obj.arity * r + singular), singular)
    k = sample.x * sample.x + 1.0
    return _from_raw(1.0 / k + alpha * m / (r * k + singular), singular)


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
    _check_state(state, obj, sample)
    r = _residual(obj, state.params, sample)
    m = _pull(obj, state, sample)
    singular = abs(m) < SINGULAR_TOL
    if obj is not ObjectiveId.F3:
        return _from_raw((2.0 * obj.arity * eta - 1.0) * r / (m + singular), singular)
    return _from_raw(r * (eta * sample.x * sample.x + eta - 1.0) / (m + singular), singular)


def _scaled_lr(
    obj: ObjectiveId, sample: RegressionSample | None, acc_w: float, acc_b: float | None, epsilon: float
) -> FeasibleValue:
    """Learning rate that zeroes the residual when each coordinate's step is
    divided by sqrt(acc + epsilon), ``acc_w``/``acc_b`` being the accumulators
    the pending step divides by."""
    s_w = _sqrt(acc_w + epsilon)
    if obj is ObjectiveId.F1:
        return _from_raw(s_w / 2.0)
    s_b = _sqrt(acc_b + epsilon)
    if obj is ObjectiveId.F2:
        denom = 2.0 * (s_w + s_b)
    else:
        x = sample.x
        denom = x * x * s_b + s_w
    singular = denom < SINGULAR_TOL
    return _from_raw(s_w * s_b / (denom + singular), singular)


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
    _check_state(state, obj, sample)
    return _scaled_lr(obj, sample, state.grad_sq_sum.w, state.grad_sq_sum.b, epsilon)


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
    _check_state(state, obj, sample)
    g = _gradient(obj, _residual(obj, state.params, sample), sample, f3_half_gradient)
    u = state.weighted_grad_sq
    u_b = None if g.d_b is None else _weighted_grad_sq(u.b, g.d_b, beta)
    return _scaled_lr(obj, sample, _weighted_grad_sq(u.w, g.d_w, beta), u_b, epsilon)


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
    _check_state(state, obj, sample)
    r = _residual(obj, state.params, sample)
    g = _gradient(obj, r, sample, f3_half_gradient)
    g = g.d_b if obj is ObjectiveId.F3 else g.d_w
    g_sq = g * g
    denom = state.weighted_grad_sq.w - g_sq
    singular = abs(denom) < SINGULAR_TOL
    if obj is not ObjectiveId.F3:
        return _from_raw(((2.0 * obj.arity) ** 2 * eta * eta - g_sq - epsilon) / (denom + singular), singular)
    flat = abs(r) < SINGULAR_TOL
    d_sq = r * r + flat
    x1 = sample.x + 1.0
    raw = (eta * eta * g_sq * x1 * x1 - g_sq * d_sq - epsilon * d_sq) / ((denom + singular) * d_sq)
    return _from_raw(raw, singular | flat)


# Each (method, target) pair once, called as (obj, state, sample, eta, alpha, beta,
# epsilon, f3_half_gradient). Its rule is bound at import, so the arrays verify passes
# never reach a wrapper later bound to the rule's public name.
_FORMS = {
    (Method.GD, "eta"): lambda o, st, s, eta, alpha, beta, epsilon, f3_half_gradient, f=optimal_lr_gd: f(o, st, s),
    (Method.MOMENTUM, "eta"): lambda o, st, s, eta, alpha, beta, epsilon, f3_half_gradient, f=optimal_lr_momentum:
        f(o, st, s, alpha=alpha),
    (Method.MOMENTUM, "alpha"): lambda o, st, s, eta, alpha, beta, epsilon, f3_half_gradient, f=optimal_momentum_coef:
        f(o, st, s, eta=eta),
    (Method.ADAGRAD, "eta"): lambda o, st, s, eta, alpha, beta, epsilon, f3_half_gradient, f=optimal_lr_adagrad:
        f(o, st, s, epsilon=epsilon),
    (Method.RMSPROP, "eta"): lambda o, st, s, eta, alpha, beta, epsilon, f3_half_gradient, f=optimal_lr_rmsprop:
        f(o, st, s, beta=beta, epsilon=epsilon, f3_half_gradient=f3_half_gradient),
    (Method.RMSPROP, "beta"): lambda o, st, s, eta, alpha, beta, epsilon, f3_half_gradient, f=optimal_beta_rmsprop:
        f(o, st, s, eta=eta, epsilon=epsilon, f3_half_gradient=f3_half_gradient),
}

OPTIMIZED_HYPERS = {method: frozenset(t for m, t in _FORMS if m is method) for method in Method}

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

    The rule comes from ``_FORMS``, the one table of which rule solves which
    hyperparameter. Each rule reads only the given values it needs; the
    others may be None. For adagrad ``state`` must be the post-accumulation
    view (optimizers.adagrad_post_view).

    Raises:
        ValueError: if the pair is not in OPTIMIZED_HYPERS.
    """
    form = _FORMS.get((method, target))
    if form is None:
        raise ValueError(f"no closed form for {target!r} under {getattr(method, 'value', repr(method))}")
    return form(obj, state, sample, eta, alpha, beta, epsilon, f3_half_gradient)
