"""Benchmark objective functions with analytic gradients and signed residuals.

Three convex benchmarks: a shifted parabola in one parameter, a coupled
quadratic in two parameters, and a squared-error linear regression loss over
a single (x, y) sample. Every loss is the square of a signed residual, which
the update rules and the closed-form step sizes downstream exploit.

``_check_inputs`` is the package's one test of a well-formed (objective, point, sample):
the point's type, arity and real coordinates (``_check_point``), then the sample's presence,
type and real x and y (``_check_sample``); ``_require_real``, which refuses a bool too, is the one
test that a value is real. ``residual``, ``evaluate`` and ``gradient`` run it, then the
unchecked cores ``_residual`` and ``_gradient``;
``optimizers._check_state`` runs it, and ``harness`` runs each half once per run.
``_residual_into`` is ``_residual`` on arrays written into a buffer the caller owns, bit for
bit, for the analyzer's curves; only it imports numpy, and only when called.
``_require_index`` is the one test of an integer count or seed (harness, analyzer, verify), and
``_require_seed`` adds a seed's sign to it; ``_require_objective`` tests that an objective is an
``ObjectiveId``, as ``optimizers._require_method`` does for a method.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum


class ObjectiveId(Enum):
    """Identifies one of the three benchmark objectives."""

    F1 = "f1"
    F2 = "f2"
    F3 = "f3"

    def __init__(self, value: str) -> None:
        self.arity = 1 if value == "f1" else 2  # number of parameters the objective takes


def _require_objective(obj) -> ObjectiveId:
    if not isinstance(obj, ObjectiveId):
        raise ValueError(f"objective must be an ObjectiveId ({', '.join(o.name for o in ObjectiveId)}), got {obj!r}")
    return obj


@dataclass(frozen=True)
class ParamPoint:
    """Parameter coordinates; ``b`` is present only for two-parameter objectives."""

    w: float
    b: float | None = None


@dataclass(frozen=True)
class RegressionSample:
    """Input / target pair for the regression objective F3."""

    x: float
    y: float


@dataclass(frozen=True)
class GradientVector:
    """Partial derivatives matching the objective's parameter arity."""

    d_w: float
    d_b: float | None = None


def _require_real(name: str, value) -> None:
    """Refuse a ``value`` that is neither a real number nor a numeric array (verify's columns,
    the analyzer's grids), or is a bool, as ``HyperParams`` and every count refuse one; a
    float takes one test, and numpy is never imported."""
    if value.__class__ is not float:
        import numbers

        dtype = getattr(value, "dtype", None)  # a numpy array or scalar
        if value.__class__ is bool or not (isinstance(value, numbers.Real) if dtype is None else dtype.kind in "fiu"):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_point(obj: ObjectiveId, point: ParamPoint, name: str = "point") -> None:
    if not isinstance(point, ParamPoint):
        raise ValueError(f"{name} must be a ParamPoint, got {point!r}")
    if (point.b is None) is (obj.arity == 2):
        raise ValueError(
            f"{obj.name} needs both parameters w and b" if point.b is None
            else f"{obj.name} takes a single parameter w, got b={point.b!r}"
        )
    for field, value in (("w", point.w), ("b", point.b))[: obj.arity]:
        _require_real(f"{name}.{field}", value)


def _check_sample(obj: ObjectiveId, sample: RegressionSample | None) -> None:
    if (sample is None) is (obj is ObjectiveId.F3):
        raise ValueError(
            "F3 requires a regression sample (x, y)" if sample is None
            else f"{obj.name} does not take a regression sample"
        )
    if sample is not None and not isinstance(sample, RegressionSample):
        raise ValueError(f"sample must be a RegressionSample, got {sample!r}")
    for field, value in () if sample is None else (("x", sample.x), ("y", sample.y)):
        _require_real(f"sample.{field}", value)


def _require_index(name: str, value) -> int:
    """``value`` as an integer, through ``operator.index`` (numpy integers pass) but not a bool."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or value.__class__ is bool:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return index


def _require_seed(name: str, value) -> int:
    """``value`` as a non-negative integer: ``_require_index``, then the sign."""
    index = _require_index(name, value)
    if index < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return index


def _check_inputs(obj: ObjectiveId, point: ParamPoint, sample: RegressionSample | None) -> None:
    _check_point(obj, point)
    _check_sample(obj, sample)


def residual(obj: ObjectiveId, point: ParamPoint, sample: RegressionSample | None = None) -> float:
    """Signed residual r with loss == r * r, zero exactly on the minimizing set.

    F1: w - 0.5, F2: w + b, F3: w * x + b - y.
    """
    _check_inputs(obj, point, sample)
    return _residual(obj, point, sample)


def _residual(obj: ObjectiveId, point: ParamPoint, sample: RegressionSample | None) -> float:
    if obj is ObjectiveId.F1:
        return point.w - 0.5
    if obj is ObjectiveId.F2:
        return point.w + point.b
    return point.w * sample.x + point.b - sample.y


def _residual_into(obj: ObjectiveId, w, b, sample: RegressionSample | None, out) -> None:
    """``_residual`` at the arrays (w, b) written into ``out``, which may be ``w``: its IEEE
    operations in its order, through numpy's ``out=``, so the same bits and no new array."""
    import numpy as np

    if obj is ObjectiveId.F1:
        np.subtract(w, 0.5, out=out)
    elif obj is ObjectiveId.F2:
        np.add(w, b, out=out)
    else:
        np.multiply(w, sample.x, out=out)
        np.add(out, b, out=out)
        np.subtract(out, sample.y, out=out)


def evaluate(obj: ObjectiveId, point: ParamPoint, sample: RegressionSample | None = None) -> float:
    """Objective value at ``point``; non-negative by construction.

    Raises:
        ValueError: on parameter arity mismatch or a missing/extraneous sample.
    """
    r = residual(obj, point, sample)
    return r * r


def gradient(
    obj: ObjectiveId,
    point: ParamPoint,
    sample: RegressionSample | None = None,
    *,
    f3_half_gradient: bool = False,
) -> GradientVector:
    """Analytic gradient of the objective at ``point``.

    The regression objective supports two conventions. The default carries
    the factor 2 of the squared residual, giving (2*x*r, 2*r). Passing
    ``f3_half_gradient=True`` drops that factor, giving (x*r, r); the
    closed-form optimal step sizes for F3 are exact under the halved
    convention. F1 and F2 are unaffected by the flag.
    """
    return _gradient(obj, residual(obj, point, sample), sample, f3_half_gradient)


def _gradient(
    obj: ObjectiveId, r: float, sample: RegressionSample | None, f3_half_gradient: bool
) -> GradientVector:
    """The gradient at a point whose residual is ``r``, built by the unchecked idiom."""
    if obj is ObjectiveId.F1:
        d_w, d_b = 2.0 * r, None
    elif obj is ObjectiveId.F2:
        d_w = d_b = 2.0 * r
    else:
        scale = 1.0 if f3_half_gradient else 2.0
        d_w, d_b = scale * sample.x * r, scale * r
    g = object.__new__(GradientVector)
    fill = g.__dict__
    fill["d_w"], fill["d_b"] = d_w, d_b
    return g
