"""Closed-form per-state optimal hyperparameter values with feasibility clamping.

On these benchmarks the post-step loss is the square of a function that is
affine in the hyperparameter being tuned, so the loss-minimizing value has a
closed form in the current state. Each public rule returns a FeasibleValue: the raw
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

Each public rule and ``solve`` run ``_solved``, the one path from a state to its core:
``_check_state`` (``step``'s check, so a state, point or sample ``step`` refuses is refused
here with the same error), then ``objectives._require_real`` on each given value the core
reads (the step's reads in the method's ``optimizers._RULES`` row, less the target), then the
pair's core. ``_FORMS``, the only table that names a core, maps each (method, target) pair to
it, called as ``(obj, s_w, s_b, sample, r, g, hyper)``: s_w and s_b are the coordinates of
the state slot the method moves (``optimizers._slot``), and r and g the residual and gradient,
which ``_solved`` takes once. A core returns its root and where it is singular,
``(raw, singular)``, and ``_solved`` judges them once by ``_from_raw``. ``verify`` calls
``_solved`` on whole drawn tables, so every state that
reaches a core passes ``_check_state`` first, except in ``harness.run_training``, which
hands the cores the slot coordinates and the one gradient it holds as floats each epoch
and judges each float root by ``_verdict``: the judgement ``_from_raw`` applies to a float,
one pair (value, outcome), (None, None) where the root is undefined, so an optimal epoch
builds no FeasibleValue.

Public names take and return floats. Each core is written once for floats
and equally shaped numpy arrays (a singular row's divisor gets 1 added, so
no row divides by zero), but arrays enter only through ``_solved``, which is
private: a wrapper bound to a public name, as perfbench's tracer binds,
may read ``bool(result.defined)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .objectives import ObjectiveId, RegressionSample, _gradient, _require_half_gradient, _require_real, _residual
from .optimizers import HyperParams, Method, OptimizerState, _RULES, _check_state, _slot, _weighted_grad_sq

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


_UNDEFINED = FeasibleValue(value=_NAN, raw=_NAN, feasible=False, defined=False)


def _verdict(raw: float, singular) -> tuple[float, bool] | tuple[None, None]:
    """A float root judged by the fallback contract, as one pair (value, outcome): (None, None)
    where ``singular`` or not finite (undefined), else ``raw`` clamped to [0, 1] and whether it
    is feasible (0 <= raw <= 1)."""
    if singular or not math.isfinite(raw):
        return None, None
    feasible = 0.0 <= raw <= 1.0
    return (raw if feasible else 0.0 if raw < 0.0 else 1.0), feasible


def _from_raw(raw, singular=False) -> FeasibleValue:
    """``raw`` clamped and flagged, a float (by ``_verdict``) or elementwise; undefined where singular
    or not finite; an undefined float is ``_UNDEFINED``."""
    if isinstance(raw, float):
        value, feasible = _verdict(raw, singular)
        return _UNDEFINED if feasible is None else FeasibleValue(value, raw, feasible, True)
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


def _pull(obj: ObjectiveId, v_w, v_b, sample: RegressionSample | None):
    """The velocity's pull on the residual: v_w on F1, v_w + v_b on F2, v_w * x + v_b on F3."""
    if obj is ObjectiveId.F1:
        return v_w
    return v_w + v_b if obj is ObjectiveId.F2 else v_w * sample.x + v_b


def _solved(
    method: Method, target: str, obj: ObjectiveId, state: OptimizerState, sample: RegressionSample | None,
    f3_half_gradient: bool = False, **given,
) -> FeasibleValue:
    """The pair's core at ``state`` once ``_check_state`` passes and each given value the method's
    step reads (its ``_RULES`` row's reads, in their order) but ``target`` is a real number, fed the
    method's slot, the residual and gradient taken there once and the ``given`` values (None where
    not given) as one HyperParams: floats, or whole drawn tables as arrays."""
    _check_state(state, obj, sample)
    for name in _RULES[method][4]:
        if name != target:
            _require_real(name, given[name])
    hyper = object.__new__(HyperParams)  # unchecked: a value not given is None
    hyper.__dict__.update({"eta": None, "alpha": None, "beta": None, "epsilon": None, **given})
    r = _residual(obj, state.params, sample)
    g = _gradient(obj, r, sample, _require_half_gradient(f3_half_gradient))
    slot = _slot(method, state)
    return _from_raw(*_FORMS[method, target](obj, slot.w, slot.b, sample, r, g, hyper))


# The unchecked cores, each called as (obj, s_w, s_b, sample, r, g, hyper): s_w and s_b are
# the coordinates of the slot the method moves (s_b None on one parameter), and ``hyper``
# holds the given values the core reads. Each returns its root and where it is singular,
# (raw, singular), which ``_solved`` judges by ``_from_raw`` and the run loop by ``_verdict``.

def _lr_gd(obj, s_w, s_b, sample, r, g, hyper):
    return _scaled_lr(obj, sample, 1.0, 1.0, 0.0)


def optimal_lr_gd(
    obj: ObjectiveId,
    state: OptimizerState,
    sample: RegressionSample | None = None,
) -> FeasibleValue:
    """Learning rate that zeroes the residual in one plain descent step.

    State-independent: 0.5 for F1, 0.25 for F2, 1 / (x**2 + 1) for F3.
    Always defined.
    """
    return _solved(Method.GD, "eta", obj, state, sample)


def _lr_momentum(obj, v_w, v_b, sample, r, g, hyper):
    m = _pull(obj, v_w, v_b, sample)
    singular = abs(r) < SINGULAR_TOL
    if obj is not ObjectiveId.F3:
        return (hyper.alpha * m + r) / (2.0 * obj.arity * r + singular), singular
    k = sample.x * sample.x + 1.0
    return 1.0 / k + hyper.alpha * m / (r * k + singular), singular


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
    return _solved(Method.MOMENTUM, "eta", obj, state, sample, alpha=alpha)


def _momentum_coef(obj, v_w, v_b, sample, r, g, hyper):
    m = _pull(obj, v_w, v_b, sample)
    singular = abs(m) < SINGULAR_TOL
    eta = hyper.eta
    if obj is not ObjectiveId.F3:
        return (2.0 * obj.arity * eta - 1.0) * r / (m + singular), singular
    return r * (eta * sample.x * sample.x + eta - 1.0) / (m + singular), singular


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
    return _solved(Method.MOMENTUM, "alpha", obj, state, sample, eta=eta)


def _scaled_lr(
    obj: ObjectiveId, sample: RegressionSample | None, acc_w: float, acc_b: float | None, epsilon: float
) -> tuple:
    """Learning rate that zeroes the residual when each coordinate's step is
    divided by sqrt(acc + epsilon), ``acc_w``/``acc_b`` being the accumulators
    the pending step divides by."""
    s_w = _sqrt(acc_w + epsilon)
    if obj is ObjectiveId.F1:
        return s_w / 2.0, False
    s_b = _sqrt(acc_b + epsilon)
    if obj is ObjectiveId.F2:
        denom = 2.0 * (s_w + s_b)
    else:
        x = sample.x
        denom = x * x * s_b + s_w
    singular = denom < SINGULAR_TOL
    return s_w * s_b / (denom + singular), singular


def _lr_adagrad(obj, phi_w, phi_b, sample, r, g, hyper):
    return _scaled_lr(obj, sample, phi_w, phi_b, hyper.epsilon)


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
    return _solved(Method.ADAGRAD, "eta", obj, state, sample, epsilon=epsilon)


def _lr_rmsprop(obj, u_w, u_b, sample, r, g, hyper):
    beta = hyper.beta
    u_b = None if g.d_b is None else _weighted_grad_sq(u_b, g.d_b, beta)
    return _scaled_lr(obj, sample, _weighted_grad_sq(u_w, g.d_w, beta), u_b, hyper.epsilon)


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
    return _solved(Method.RMSPROP, "eta", obj, state, sample, f3_half_gradient, beta=beta, epsilon=epsilon)


def _beta_rmsprop(obj, u_w, u_b, sample, r, g, hyper):
    eta, epsilon = hyper.eta, hyper.epsilon
    g = g.d_b if obj is ObjectiveId.F3 else g.d_w
    g_sq = g * g
    denom = u_w - g_sq
    singular = abs(denom) < SINGULAR_TOL
    if obj is not ObjectiveId.F3:
        return ((2.0 * obj.arity) ** 2 * eta * eta - g_sq - epsilon) / (denom + singular), singular
    flat = abs(r) < SINGULAR_TOL
    d_sq = r * r + flat
    x1 = sample.x + 1.0
    raw = (eta * eta * g_sq * x1 * x1 - g_sq * d_sq - epsilon * d_sq) / ((denom + singular) * d_sq)
    return raw, singular | flat


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
    return _solved(Method.RMSPROP, "beta", obj, state, sample, f3_half_gradient, eta=eta, epsilon=epsilon)


# Each (method, target) pair once, mapped to its unchecked core.
_FORMS = {
    (Method.GD, "eta"): _lr_gd,
    (Method.MOMENTUM, "eta"): _lr_momentum,
    (Method.MOMENTUM, "alpha"): _momentum_coef,
    (Method.ADAGRAD, "eta"): _lr_adagrad,
    (Method.RMSPROP, "eta"): _lr_rmsprop,
    (Method.RMSPROP, "beta"): _beta_rmsprop,
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

    The core comes from ``_FORMS``, the one table of which rule solves which
    hyperparameter. Each core reads only the given values it needs; the
    others may be None. For adagrad ``state`` must be the post-accumulation
    view (optimizers.adagrad_post_view).

    Raises:
        ValueError: if the pair is not in OPTIMIZED_HYPERS.
    """
    if (method, target) not in _FORMS:
        raise ValueError(f"no closed form for {target!r} under {getattr(method, 'value', repr(method))}")
    given = {"eta": eta, "alpha": alpha, "beta": beta, "epsilon": epsilon}
    return _solved(method, target, obj, state, sample, f3_half_gradient, **given)
