"""Objective evaluation, residuals, and analytic gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from hyperstep import (
    ObjectiveId,
    ParamPoint,
    RegressionSample,
    evaluate,
    gradient,
    objectives,
    residual,
)

F1, F2, F3 = ObjectiveId.F1, ObjectiveId.F2, ObjectiveId.F3
SAMPLE = RegressionSample(x=0.3, y=0.23)


def test_worked_examples():
    assert evaluate(F2, ParamPoint(w=0.3, b=0.4)) == pytest.approx(0.49, rel=1e-12)
    assert gradient(F1, ParamPoint(w=0.3)).d_w == pytest.approx(-0.4, rel=1e-12)
    assert residual(F3, ParamPoint(w=0.1, b=0.2), SAMPLE) == 0.0
    assert residual(F1, ParamPoint(w=0.3)) == pytest.approx(-0.2, rel=1e-12)


def test_arity_is_enforced():
    with pytest.raises(ValueError):
        evaluate(F1, ParamPoint(w=0.3, b=0.4))
    with pytest.raises(ValueError):
        evaluate(F2, ParamPoint(w=0.3))
    with pytest.raises(ValueError):
        residual(F3, ParamPoint(w=0.3), None)
    with pytest.raises(ValueError):
        gradient(F1, ParamPoint(w=0.3), SAMPLE)
    with pytest.raises(ValueError):
        evaluate(F2, ParamPoint(w=0.3, b=0.4), SAMPLE)


def test_arity_property():
    assert F1.arity == 1
    assert F2.arity == 2
    assert F3.arity == 2


def _random_point(rng, obj):
    w = float(rng.uniform(-2.0, 2.0))
    b = float(rng.uniform(-2.0, 2.0)) if obj.arity == 2 else None
    return ParamPoint(w=w, b=b)


def test_loss_is_squared_residual():
    rng = np.random.default_rng(0)
    for obj in (F1, F2, F3):
        s = SAMPLE if obj is F3 else None
        for _ in range(200):
            p = _random_point(rng, obj)
            r = residual(obj, p, s)
            assert evaluate(obj, p, s) == r * r
            assert evaluate(obj, p, s) >= 0.0


def test_analytic_gradients():
    rng = np.random.default_rng(1)
    for _ in range(200):
        w = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-2.0, 2.0))
        x = float(rng.uniform(0.1, 2.0))
        y = float(rng.uniform(0.0, 1.0))
        s = RegressionSample(x=x, y=y)

        g = gradient(F1, ParamPoint(w=w))
        assert g.d_w == pytest.approx(2.0 * (w - 0.5), rel=1e-12)
        assert g.d_b is None

        g = gradient(F2, ParamPoint(w=w, b=b))
        assert g.d_w == pytest.approx(2.0 * (w + b), rel=1e-12)
        assert g.d_b == g.d_w

        delta = w * x + b - y
        g = gradient(F3, ParamPoint(w=w, b=b), s)
        assert g.d_w == pytest.approx(2.0 * x * delta, rel=1e-12, abs=1e-15)
        assert g.d_b == pytest.approx(2.0 * delta, rel=1e-12, abs=1e-15)

        # halved convention scales the regression gradient by exactly one half
        h = gradient(F3, ParamPoint(w=w, b=b), s, f3_half_gradient=True)
        assert h.d_w == pytest.approx(x * delta, rel=1e-12, abs=1e-15)
        assert h.d_b == pytest.approx(delta, rel=1e-12, abs=1e-15)


def test_gradient_matches_finite_differences():
    from hyperstep import finite_diff_gradient

    rng = np.random.default_rng(2)
    for obj in (F1, F2, F3):
        s = SAMPLE if obj is F3 else None
        for _ in range(100):
            p = _random_point(rng, obj)
            g = gradient(obj, p, s)
            fd = finite_diff_gradient(obj, p, s)
            assert abs(g.d_w - fd.d_w) <= 1e-6 * max(1.0, abs(g.d_w))
            if obj.arity == 2:
                assert abs(g.d_b - fd.d_b) <= 1e-6 * max(1.0, abs(g.d_b))


def test_gradient_zero_exactly_at_minimum():
    assert gradient(F1, ParamPoint(w=0.5)).d_w == 0.0
    assert gradient(F2, ParamPoint(w=0.3, b=-0.3)).d_w == 0.0
    g = gradient(F3, ParamPoint(w=0.1, b=0.2), SAMPLE)
    assert g.d_w == 0.0 and g.d_b == 0.0


def test_objective_ids_round_trip_from_strings():
    assert ObjectiveId("f1") is F1
    assert ObjectiveId("f3") is F3
    with pytest.raises(ValueError):
        ObjectiveId("f9")


def test_math_isclose_guard_on_example():
    # the quoted loss value 0.49 holds to float precision, not exactly
    assert math.isclose(evaluate(F2, ParamPoint(w=0.3, b=0.4)), 0.49, rel_tol=1e-12)


# coordinates and samples from the non-finite values, the edges of overflow, zero and ordinary floats
_EDGE = strategies.one_of(
    strategies.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, -0.0]),
    strategies.floats(-2.0, 2.0),
    strategies.floats(allow_nan=False),
)


@settings(max_examples=400, deadline=None, database=None)
@given(
    obj=strategies.sampled_from([F1, F2, F3]),
    w=_EDGE,
    b=_EDGE,
    x=strategies.one_of(strategies.just(0.0), _EDGE),
    y=_EDGE,
)
def test_a_finite_squared_residual_has_finite_coordinates(obj, w, b, x, y):
    # the run loop's post-step test reads the loss r * r alone: a non-finite w or b makes
    # the residual inf or NaN (inf * 0 at x = 0 is NaN), so a finite loss vouches for both
    point = ParamPoint(w, None if obj is F1 else b)
    r = objectives._residual(obj, point, RegressionSample(x, y) if obj is F3 else None)
    if math.isfinite(r * r):
        assert math.isfinite(w) and (point.b is None or math.isfinite(point.b))
