"""One-step update rules for four gradient descent variants.

``step`` is the one update path, two parts run in sequence. ``_checked_gradient`` runs
``_check_state``, the one test of a well-formed (state, objective, sample): the state's type,
the objective's (``objectives._require_objective``), each slot's type, arity and real
coordinates (``objectives._require_real``, naming ``velocity.w`` and so on), then
``objectives._check_inputs`` on the params and the sample (``adagrad_post_view`` and every
public ``hyperopt`` rule run it first too, so all fail alike); it then refuses an f3
convention that is not a bool (``objectives._require_half_gradient``, as ``gradient``,
``adagrad_post_view`` and ``hyperopt._solved`` do) and a non-finite gradient. ``step`` then applies the method's per-coordinate rule
``(c, slot, g, hyper) -> (c', slot')`` to w and, if present, to b. ``_RULES`` is the one
map from a method to that rule, to the buffered array form a curve steps it by, to the
root that form steps from, to the hyperparameters its step reads (which ``hyperopt._solved``
checks and ``analyzer._curve`` consults) and to the state slot it advances, which ``_slot``
reads for every caller. Those that hold a checked gradient call the rules themselves:
``harness.run_training``, which checked its inputs once per run, calls the rule on float
coordinates after its own ``_finite`` test of each epoch's gradient, and the analyzer's
searches, whose state does not move, call the buffered form on array coordinates at every
curve point. A buffered form writes the rule's new coordinate into arrays
its caller owns, through numpy's ``out=``, by the rule's IEEE operations in the rule's order, so
bit for bit: from the slot itself, or for adagrad and rmsprop from the root their ``_RULES`` row
takes of their accumulator; a test holds each to its rule, sign bits included. ``step`` keeps the
allocating rules, so it, ``analyzer.mean_post_step_error`` and verify's one-step check are the
searches' independent reference. ``_require_method`` is the one test that a method is a
``Method``, and ``_require_hyper`` that a value is a ``HyperParams`` (``step``'s ``hyper``, a
policy's base, a search's ``fixed``); ``step`` runs both before the gradient. ``HyperParams``
refuses a bool (a numpy one included) or a value that is not a number with the error,
naming the field, that it gives a number out of range.
Coordinates may be floats or equally shaped numpy arrays. A step on floats
stays in plain floats and imports no numpy, adagrad's or rmsprop's zero,
negative or NaN divisor included: each gets its IEEE result (inf or NaN).
A step never mutates its input and advances the epoch by exactly one.
``_flat_state`` reads a state laid out flat (verify's drawn tables, the state
flags of ``hyperstep optimal``); no other module reads that layout.

The closed-form step sizes rely on the accumulator conventions: the
gradient-square sum is updated before the division (adagrad), and the
weighted gradient-square mixes the current gradient into the incoming
average before the division (rmsprop). Each is written once, in
``_grad_sq_sum`` and ``_weighted_grad_sq``, which hyperopt and both forms of the
rules call; so is the zero-divisor rule, ``_divisor``.
``adagrad_post_view`` is ``_check_state`` and the gradient, then the sums advanced by
``_grad_sq_sum``, as the run loop advances the float coordinates it holds.

A frozen value whose fields are known good is built by the one unchecked idiom:
``object.__new__(cls)``, then its ``__dict__`` filled with every field in ``fields()``
order. It skips the dataclass ``__init__`` (one ``object.__setattr__`` per field) and
equals the checked value in ``==``, ``hash`` and ``repr``. It is written out at each use,
since a helper call costs more than it saves in the run loop. The values a trace keeps
are filled item by item: an ``update`` from a fresh dict gives the instance a copy of
that dict's whole table, not the keys its class shares (a ``ParamPoint`` takes ~250 B
so, ~160 B filled item by item and ~100 B through ``__init__``, by ``tracemalloc``). It
builds ``HyperParams`` whose values were checked once for many (the analyzer's search
points, ``hyperopt._solved``'s given values, the run loop's closed-form picks), and
values of classes with no ``__post_init__``, for which it skips no check:
``objectives._gradient``'s ``GradientVector`` and the run loop's ``ParamPoint`` and
``EpochRecord``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

from .objectives import (
    GradientVector, ObjectiveId, ParamPoint, RegressionSample,
    _check_inputs, _gradient, _require_half_gradient, _require_objective, _require_real, _residual,
)


class Method(Enum):
    GD = "gd"
    MOMENTUM = "momentum"
    ADAGRAD = "adagrad"
    RMSPROP = "rmsprop"


def _require_method(method) -> Method:
    if not isinstance(method, Method):
        raise ValueError(f"method must be a Method ({', '.join(m.name for m in Method)}), got {method!r}")
    return method


class NonFiniteGradientError(ValueError):
    """Raised when an update would consume a NaN or infinite gradient."""


def _all(ok) -> bool:
    """Whether a comparison holds: a bool from floats (which skip numpy's cost), or every element."""
    return ok if ok.__class__ is bool else bool(ok.all())


def _in_range(value, top: float) -> bool:
    """Whether ``value`` (a float, or every element of an array) lies in [0, top], or in
    [0, inf) for an infinite ``top``; a bool (a numpy bool or bool array included), or a value
    that does not compare with floats, does not."""
    if value.__class__ is bool or getattr(getattr(value, "dtype", None), "kind", None) == "b":
        return False
    try:
        return _all((0.0 <= value) & ((value <= top) if top < math.inf else (value < top)))
    except TypeError:
        return False


@dataclass(frozen=True)
class HyperParams:
    """Step hyperparameters (floats or arrays); alpha and beta are read only by the methods that use them."""

    eta: float
    alpha: float = 0.0
    beta: float = 0.0
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if not _in_range(self.eta, math.inf):
            raise ValueError(f"eta must be a finite non-negative real, got {self.eta!r}")
        if not _in_range(self.alpha, 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if not _in_range(self.beta, 1.0):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")
        if not _in_range(self.epsilon, math.inf):
            raise ValueError(f"epsilon must be a finite non-negative real, got {self.epsilon!r}")


def _require_hyper(name: str, hyper) -> None:
    if not isinstance(hyper, HyperParams):
        raise ValueError(f"{name} must be a HyperParams, got {hyper!r}")


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


def _flat_state(obj: ObjectiveId, values, common_u: bool = False) -> OptimizerState:
    """The one reader of the flat state layout: the state at the head of ``values``,
    w then b (on two-parameter objectives) of params, velocity, grad_sq_sum and
    weighted_grad_sq; ``common_u`` reads one weighted_grad_sq for both coordinates,
    as the rmsprop beta rule assumes. Floats (a table row) or arrays (its columns)."""
    if obj.arity == 1:
        w, v, phi, u = values[:4]
        return OptimizerState(ParamPoint(w), PerCoord(v), PerCoord(phi), PerCoord(u))
    w, b, v_w, v_b, phi_w, phi_b, u_w = values[:7]
    u_b = u_w if common_u else values[7]
    return OptimizerState(ParamPoint(w, b), PerCoord(v_w, v_b), PerCoord(phi_w, phi_b), PerCoord(u_w, u_b))


def _check_state(state: OptimizerState, obj: ObjectiveId, sample: RegressionSample | None) -> None:
    if not isinstance(state, OptimizerState):
        raise ValueError(f"state must be an OptimizerState, got {state!r}")
    two = _require_objective(obj).arity == 2
    for name in ("velocity", "grad_sq_sum", "weighted_grad_sq"):
        slot = getattr(state, name)
        if not isinstance(slot, PerCoord):
            raise ValueError(f"{name} must be a PerCoord, got {slot!r}")
        if (slot.b is None) is two:
            raise ValueError(
                f"{name} is missing its b component for {obj.name}" if two
                else f"{name} has a b component but {obj.name} takes one parameter"
            )
        for field, value in (("w", slot.w), ("b", slot.b))[: obj.arity]:
            _require_real(f"{name}.{field}", value)
    _check_inputs(obj, state.params, sample)


def _grad_sq_sum(phi, g):
    """adagrad's accumulator: the running sum of squared gradients."""
    return phi + g * g


def _weighted_grad_sq(u, g, beta):
    """rmsprop's accumulator: the beta-weighted average of squared gradients."""
    return beta * u + (1.0 - beta) * g * g


# Per-coordinate rules (c, slot, g, hyper) -> (c', slot'): one coordinate,
# its value in the state slot the method advances, and its gradient.

def _descend(c, s, g, hyper):
    return c - hyper.eta * g, s


def _heavy_ball(c, v, g, hyper):
    v = hyper.alpha * v - hyper.eta * g
    return c + v, v


def _divisor(acc, g, hyper, read):
    # the square of adagrad's and rmsprop's divisor, acc + epsilon from the freshly
    # updated accumulator; ``read`` says whether it took in g * g (rmsprop's does
    # only at beta < 1). Where acc + epsilon is 0 and g * g is 0 (g = 0, or a
    # subnormal g whose square underflows) or was read (so its share underflowed),
    # it is 1: the coordinate takes the plain descent step -eta * g, nothing or a
    # tiny one. A registering g * g the accumulator never read (rmsprop at
    # beta = 1) still divides by a zero divisor.
    s = acc + hyper.epsilon
    return s + ((s == 0) & (read | (g * g == 0)))


def _scaled(c, acc, g, hyper, read):
    # adagrad's and rmsprop's tail: divide by the root of ``_divisor``. A positive
    # or NaN float divisor takes math.sqrt, which rounds as numpy's does; where
    # Python raises, at d = 0 and d < 0, the step multiplies by IEEE's 1 / sqrt(d):
    # inf, and the default NaN (inf * 0). Only arrays and numpy scalars take numpy.
    d = _divisor(acc, g, hyper, read)
    if d.__class__ is float:
        if d > 0.0 or d != d:
            return c - hyper.eta * g / math.sqrt(d), acc
        return c - hyper.eta * g * (math.inf if d == 0.0 else math.inf * 0.0), acc
    import numpy as np

    return c - hyper.eta * g / np.sqrt(d), acc


def _accumulated(c, phi, g, hyper):
    return _scaled(c, _grad_sq_sum(phi, g), g, hyper, True)


def _weighted(c, u, g, hyper):
    return _scaled(c, _weighted_grad_sq(u, g, hyper.beta), g, hyper, hyper.beta < 1.0)


# The same rules on arrays, buffered (c, slot, g, hyper, out, tmp): each writes the new
# coordinate c' into ``out``, an array of the shape the inputs broadcast to, by its rule's
# IEEE operations in its rule's order (so bit for bit), through numpy's ``out=``, with
# ``tmp`` as scratch of that shape; the new slot is not kept. None allocates. Plain descent
# and momentum step from the slot itself; adagrad and rmsprop step by ``_divided_into`` from
# their root, the square root of ``_divisor`` that their ``_RULES`` row takes of their
# accumulator as their rules take it. ``analyzer._curve`` steps each call by them, and takes
# a root once per curve where no point moves it; the tests hold them to the rules above.

def _descend_into(c, s, g, hyper, out, tmp):
    import numpy as np

    np.multiply(hyper.eta, g, out=out)
    np.subtract(c, out, out=out)


def _heavy_ball_into(c, v, g, hyper, out, tmp):
    import numpy as np

    np.multiply(hyper.alpha, v, out=out)
    np.multiply(hyper.eta, g, out=tmp)
    np.subtract(out, tmp, out=out)
    np.add(c, out, out=out)


def _scaled_root(acc, g, hyper, read):
    import numpy as np

    return np.sqrt(_divisor(acc, g, hyper, read))


def _accumulated_root(phi, g, hyper):
    return _scaled_root(_grad_sq_sum(phi, g), g, hyper, True)


def _weighted_root(u, g, hyper):
    return _scaled_root(_weighted_grad_sq(u, g, hyper.beta), g, hyper, hyper.beta < 1.0)


def _divided_into(c, root, g, hyper, out, tmp):
    import numpy as np

    np.multiply(hyper.eta, g, out=out)
    np.divide(out, root, out=out)
    np.subtract(c, out, out=out)


# a method's slot, its rule on floats or arrays, the buffered array form a curve steps by,
# the root (slot, g, hyper) -> sqrt(_divisor) it steps from (None: from the slot itself),
# and the hyperparameters its step reads; the root reads them all but eta
_RULES = {
    Method.GD: (None, _descend, _descend_into, None, ("eta",)),
    Method.MOMENTUM: ("velocity", _heavy_ball, _heavy_ball_into, None, ("eta", "alpha")),
    Method.ADAGRAD: ("grad_sq_sum", _accumulated, _divided_into, _accumulated_root, ("eta", "epsilon")),
    Method.RMSPROP: ("weighted_grad_sq", _weighted, _divided_into, _weighted_root, ("eta", "beta", "epsilon")),
}

_NO_SLOT = PerCoord()


def _slot(method: Method, state: OptimizerState) -> PerCoord:
    """The state slot ``method`` moves, as ``_RULES`` names it; zeros for plain descent."""
    name = _RULES[method][0]
    return _NO_SLOT if name is None else getattr(state, name)


def _checked_gradient(
    state: OptimizerState, obj: ObjectiveId, sample: RegressionSample | None, f3_half_gradient: bool
) -> GradientVector:
    """The gradient ``step`` consumes at ``state``: the state checked, finite."""
    _check_state(state, obj, sample)
    g = _gradient(obj, _residual(obj, state.params, sample), sample, _require_half_gradient(f3_half_gradient))
    if not (_all(abs(g.d_w) < math.inf) and (g.d_b is None or _all(abs(g.d_b) < math.inf))):
        raise NonFiniteGradientError(f"gradient is not finite: {g!r}")
    return g


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
    name, rule, *_ = _RULES[_require_method(method)]
    _require_hyper("hyper", hyper)
    g = _checked_gradient(state, obj, sample, f3_half_gradient)
    slot = _slot(method, state)
    w, slot_w = rule(state.params.w, slot.w, g.d_w, hyper)
    b, slot_b = (None, None) if g.d_b is None else rule(state.params.b, slot.b, g.d_b, hyper)
    moved = {} if name is None else {name: PerCoord(slot_w, slot_b)}
    return replace(state, params=ParamPoint(w, b), epoch=state.epoch + 1, **moved)


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
    g = _gradient(obj, _residual(obj, state.params, sample), sample, _require_half_gradient(f3_half_gradient))
    phi = state.grad_sq_sum
    phi_b = None if g.d_b is None else _grad_sq_sum(phi.b, g.d_b)
    return replace(state, grad_sq_sum=PerCoord(_grad_sq_sum(phi.w, g.d_w), phi_b))
