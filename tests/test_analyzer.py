"""Numeric oracles: mean post-step error, argmin searches, gradient checks."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hyperstep import (
    DEFAULT_HYPERS,
    OPTIMIZED_HYPERS,
    HyperParams,
    Method,
    ObjectiveId,
    OptimizerState,
    ParamPoint,
    PerCoord,
    RegressionSample,
    SamplingMode,
    SamplingSpec,
    analyzer,
    argmin_hyper,
    default_sampling,
    evaluate,
    finite_diff_gradient,
    mean_post_step_error,
    pointwise_argmin_hyper,
    step,
    verify,
)
from hyperstep.optimizers import _flat_state

F1, F2, F3 = ObjectiveId.F1, ObjectiveId.F2, ObjectiveId.F3
GD = Method.GD

GRID_1D = SamplingSpec(SamplingMode.GRID, 1000)
GRID_2D = SamplingSpec(SamplingMode.GRID, 200)
TEMPLATE_1D = OptimizerState.initial(ParamPoint(w=0.0))
TEMPLATE_2D = OptimizerState.initial(ParamPoint(w=0.0, b=0.0))
BASE = HyperParams(eta=0.1, alpha=0.5, beta=0.5, epsilon=1e-8)


def test_mean_error_of_identity_step_is_uniform_variance():
    # eta = 0 leaves w alone, so the mean loss is E[(w - 0.5)**2] = 1/12
    m = mean_post_step_error(GD, F1, HyperParams(eta=0.0), None, GRID_1D, TEMPLATE_1D)
    assert m == pytest.approx(1.0 / 12.0, abs=1e-4)


def test_mean_error_vanishes_at_the_closed_form_rate():
    m = mean_post_step_error(GD, F1, HyperParams(eta=0.5), None, GRID_1D, TEMPLATE_1D)
    assert m <= 1e-28
    m = mean_post_step_error(GD, F2, HyperParams(eta=0.25), None, GRID_2D, TEMPLATE_2D)
    assert m <= 1e-28


def test_mean_error_rejects_non_finite_losses():
    with pytest.raises(ValueError):
        mean_post_step_error(GD, F1, HyperParams(eta=1e200), None, GRID_1D, TEMPLATE_1D)


def test_argmin_recovers_gd_rates():
    res = argmin_hyper(GD, F1, "eta", BASE, None, GRID_1D, TEMPLATE_1D)
    assert abs(res.argmin - 0.5) <= 1e-6
    assert res.min_value <= 1e-12
    assert not res.flat

    res = argmin_hyper(GD, F2, "eta", BASE, None, GRID_2D, TEMPLATE_2D)
    assert abs(res.argmin - 0.25) <= 1e-6

    res = argmin_hyper(
        GD, F3, "eta", BASE, RegressionSample(x=2.0, y=0.4), GRID_2D, TEMPLATE_2D,
        f3_half_gradient=True,
    )
    assert abs(res.argmin - 0.2) <= 1e-6


def test_grid_and_monte_carlo_sampling_agree():
    # at eta = 0.3 the exact mean is 0.16 / 12; the Monte Carlo estimate has
    # standard error sqrt(0.16**2 * (1/80 - 1/144)) / sqrt(n) ~= 3.8e-5
    exact = 0.16 / 12.0
    grid = mean_post_step_error(GD, F1, HyperParams(eta=0.3), None, GRID_1D, TEMPLATE_1D)
    mc_spec = SamplingSpec(SamplingMode.MONTE_CARLO, 100_000, seed=0)
    mc = mean_post_step_error(GD, F1, HyperParams(eta=0.3), None, mc_spec, TEMPLATE_1D)
    assert grid == pytest.approx(exact, abs=1e-6)
    assert mc == pytest.approx(exact, abs=3.0 * 3.8e-5)


def test_monte_carlo_is_seed_deterministic():
    spec = SamplingSpec(SamplingMode.MONTE_CARLO, 10_000, seed=42)
    a = mean_post_step_error(GD, F1, HyperParams(eta=0.3), None, spec, TEMPLATE_1D)
    b = mean_post_step_error(GD, F1, HyperParams(eta=0.3), None, spec, TEMPLATE_1D)
    assert a == b
    other = SamplingSpec(SamplingMode.MONTE_CARLO, 10_000, seed=43)
    assert a != mean_post_step_error(GD, F1, HyperParams(eta=0.3), None, other, TEMPLATE_1D)


def test_pointwise_examples():
    st = OptimizerState(
        params=ParamPoint(w=0.3),
        velocity=PerCoord(w=0.1),
        grad_sq_sum=PerCoord(w=0.0),
        weighted_grad_sq=PerCoord(w=0.0),
    )
    res = pointwise_argmin_hyper(Method.MOMENTUM, F1, "eta", BASE, None, st)
    assert abs(res.argmin - 0.375) <= 1e-6

    st = OptimizerState(
        params=ParamPoint(w=0.3),
        velocity=PerCoord(w=0.0),
        grad_sq_sum=PerCoord(w=0.16),  # post-accumulation divisor sum
        weighted_grad_sq=PerCoord(w=0.0),
    )
    res = pointwise_argmin_hyper(
        Method.ADAGRAD, F1, "eta", HyperParams(eta=0.1, epsilon=0.0), None, st
    )
    assert abs(res.argmin - 0.2) <= 1e-6


def test_pointwise_flat_curve_is_reported():
    st = OptimizerState.initial(ParamPoint(w=0.5))
    res = pointwise_argmin_hyper(GD, F1, "eta", BASE, None, st)
    assert res.flat
    assert res.min_value == 0.0
    assert res.argmin == 0.5  # midpoint convention for flat curves


def test_uniform_argmin_matches_pointwise_for_state_free_rules():
    # the gd rate does not depend on the state, so both searches agree
    uniform = argmin_hyper(GD, F1, "eta", BASE, None, GRID_1D, TEMPLATE_1D)
    st = OptimizerState.initial(ParamPoint(w=0.123))
    pointwise = pointwise_argmin_hyper(GD, F1, "eta", BASE, None, st)
    assert abs(uniform.argmin - pointwise.argmin) <= 1e-6


def test_finite_diff_gradient_examples():
    fd = finite_diff_gradient(F1, ParamPoint(w=0.3))
    assert fd.d_w == pytest.approx(-0.4, abs=1e-8)
    assert fd.d_b is None
    fd = finite_diff_gradient(F3, ParamPoint(w=0.1, b=0.9), RegressionSample(x=0.3, y=0.23))
    delta = 0.1 * 0.3 + 0.9 - 0.23
    assert fd.d_w == pytest.approx(2.0 * 0.3 * delta, abs=1e-8)
    assert fd.d_b == pytest.approx(2.0 * delta, abs=1e-8)


@pytest.mark.parametrize("step_size", [0.0, -1e-6, float("nan")])
def test_finite_diff_gradient_refuses_a_step_size_that_is_not_positive(step_size):
    with pytest.raises(ValueError, match=f"^step_size must be positive, got {step_size!r}$"):
        finite_diff_gradient(F1, ParamPoint(w=0.3), step_size=step_size)


@pytest.mark.parametrize("mode", list(SamplingMode), ids=lambda m: m.value)
@pytest.mark.parametrize(
    "resolution, seed, domain, message",
    [
        (1, 0, (0.0, 1.0), "resolution must be at least 2, got 1"),
        (100, 0, (1.0, 0.0), "domain must be a finite non-empty interval, got (1.0, 0.0)"),
        (100, 0, None, "domain must be a finite non-empty interval, got None"),
        (100, 0, (0, 1, 2), "domain must be a finite non-empty interval, got (0, 1, 2)"),
        (100, 0, ("a", "b"), "domain must be a finite non-empty interval, got ('a', 'b')"),
        (10, 0, (False, True), "domain must be a finite non-empty interval, got (False, True)"),
        (10, 0, (0.0, np.True_), f"domain must be a finite non-empty interval, got {(0.0, np.True_)}"),
        # a width that overflows, which monte carlo's draw used to raise an OverflowError on
        (10, 0, (-1e308, 1e308), "domain must be a finite non-empty interval, got (-1e+308, 1e+308)"),
        pytest.param(10, 0, (-2**1024, 0), f"domain must be a finite non-empty interval, got {(-2**1024, 0)}",
                     id="int-end-past-float"),
        (10, 0, (float("nan"), 1.0), "domain must be a finite non-empty interval, got (nan, 1.0)"),
        (10, 0, (0.0, float("inf")), "domain must be a finite non-empty interval, got (0.0, inf)"),
        (2.5, 0, (0.0, 1.0), "resolution must be an integer, got 2.5"),
        (True, 0, (0.0, 1.0), "resolution must be an integer, got True"),
        (10, 1.5, (0.0, 1.0), "seed must be an integer, got 1.5"),
        (10, "3", (0.0, 1.0), "seed must be an integer, got '3'"),
        (10, -1, (0.0, 1.0), "seed must be non-negative, got -1"),
    ],
)
def test_sampling_spec_validation(mode, resolution, seed, domain, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SamplingSpec(mode, resolution, seed, domain)


@pytest.mark.parametrize("mode", ["grid", "monte_carlo", None])
def test_sampling_spec_takes_only_a_sampling_mode(mode):
    # a mode given by its value would otherwise sample Monte Carlo, whatever it names
    with pytest.raises(ValueError, match=f"^mode must be a SamplingMode, got {re.escape(repr(mode))}$"):
        SamplingSpec(mode, 4)


def test_default_sampling_matches_arity():
    assert default_sampling(F1).resolution == 1000
    assert default_sampling(F2).resolution == 200
    assert default_sampling(F3).resolution == 200


def test_argmin_bracket_contains_argmin():
    res = argmin_hyper(GD, F1, "eta", BASE, None, GRID_1D, TEMPLATE_1D)
    lo, hi = res.bracket
    assert lo <= res.argmin <= hi
    assert hi - lo <= 1e-6
    assert res.evaluations >= 64


def test_rejects_unknown_target():
    with pytest.raises(ValueError):
        argmin_hyper(GD, F1, "gamma", BASE, None, GRID_1D, TEMPLATE_1D)


def test_sweeping_an_unused_hyper_reports_flat():
    # gd ignores alpha, so the curve over alpha carries no signal
    st = OptimizerState.initial(ParamPoint(w=0.3))
    res = pointwise_argmin_hyper(GD, F1, "alpha", BASE, None, st)
    assert res.flat


# Scalar curves and the ``repr`` of the result the scalar scan/golden-section
# search returned for each, one curve at a time, before the search was batched;
# the interior bracket has since been widened to hold its argmin. The plateau
# valleys, added later, pin the lockstep search's result.
SYNTHETIC_CURVES = {
    "flat": (
        lambda t: 0.7,
        "ArgminResult(argmin=0.5, min_value=0.7, bracket=(0.0, 1.0), evaluations=64, "
        "flat=True, multimodal=False)",
    ),
    "bimodal": (
        lambda t: (t - 0.2) ** 2 * (t - 0.8) ** 2,
        "ArgminResult(argmin=0.19999999991550843, min_value=2.569977777707354e-21, "
        "bracket=(0.19999999955229733, 0.20000000050319636), evaluations=102, "
        "flat=False, multimodal=True)",
    ),
    "min_at_0": (
        lambda t: (t + 0.5) ** 2,
        "ArgminResult(argmin=0.0, min_value=0.25, bracket=(0.0, 7.692934625056106e-10), "
        "evaluations=101, flat=False, multimodal=False)",
    ),
    "min_at_1": (
        lambda t: (t - 1.5) ** 2,
        "ArgminResult(argmin=1.0, min_value=0.25, bracket=(0.9999999992307065, 1.0), "
        "evaluations=101, flat=False, multimodal=False)",
    ),
    "interior": (
        lambda t: (t - 0.3) ** 2 + 0.1,
        "ArgminResult(argmin=0.29999999914684045, min_value=0.1, "
        "bracket=(0.29999999914684045, 0.30000000317491327), evaluations=102, "
        "flat=False, multimodal=False)",
    ),
    # equal scan minima at every 2nd point (not multimodal) and every 3rd (multimodal)
    "minima_2_apart": (
        lambda t: 1.0 - math.cos(math.pi * 63.0 * t),
        "ArgminResult(argmin=0.0, min_value=0.0, bracket=(0.0, 7.692934625056106e-10), "
        "evaluations=101, flat=False, multimodal=False)",
    ),
    "minima_3_apart": (
        lambda t: 1.0 - math.cos(2.0 * math.pi * 21.0 * t),
        "ArgminResult(argmin=0.0, min_value=0.0, bracket=(0.0, 7.692934625056106e-10), "
        "evaluations=101, flat=False, multimodal=True)",
    ),
    # flat-bottomed valleys at scan points {10, 11} and {30, 31}: no strict minimum, so not multimodal
    "plateau_valleys": (
        lambda t: min(1.0, max(0.0, abs(63.0 * t - 10.5) - 0.5), max(0.0, abs(63.0 * t - 30.5) - 0.5)),
        "ArgminResult(argmin=0.15873015873015872, min_value=0.0, "
        "bracket=(0.15873015873015872, 0.1746031746031746), evaluations=102, "
        "flat=False, multimodal=False)",
    ),
}


def _searched(curve, n):
    """``analyzer._search`` of one curve function over ``n`` curves, 64 scan points per call."""
    return analyzer._search([(curve, n, analyzer._SCAN_POINTS)])[0]


def test_one_lockstep_search_reproduces_every_single_curve_result():
    # flat and multimodal curves and minima at either end, all in one search;
    # a numpy scalar leaking into a result would change its repr
    curves = [f for f, _ in SYNTHETIC_CURVES.values()]
    results = _searched(lambda t: np.array([[f(x) for x in row] for f, row in zip(curves, t)]), len(curves))
    assert [repr(r) for r in results] == [want for _, want in SYNTHETIC_CURVES.values()]
    # the interior curve is flat to rounding near 0.3, where the best point can
    # lie outside the last golden-section interval; the bracket still holds it
    assert all(r.bracket[0] <= r.argmin <= r.bracket[1] for r in results)


@pytest.mark.parametrize(
    "method, target",
    [
        (GD, "eta"),
        (GD, "alpha"),
        (Method.MOMENTUM, "eta"),
        (Method.ADAGRAD, "eta"),
        (Method.RMSPROP, "eta"),
        (Method.RMSPROP, "beta"),
    ],
)
def test_batched_pointwise_search_equals_per_state_searches(method, target):
    # the third state has a zero gradient, so its curve is flat beside curved ones
    rng = np.random.default_rng(5)
    states = verify._draw(rng, 6, verify._state_columns(F2))
    states[2, :2] = (0.3, -0.3)
    hypers = verify._draw(rng, 6, [verify._UNIT] * 3)
    state = _flat_state(F2, states.T[..., None])
    [batched] = analyzer._search(
        [analyzer._pointwise_curve(method, F2, target, HyperParams(*hypers.T[..., None]), None, state, False)]
    )
    single = [
        pointwise_argmin_hyper(method, F2, target, HyperParams(*h), None, _flat_state(F2, s))
        for h, s in zip(hypers.tolist(), states.tolist())
    ]
    assert batched[2].flat
    assert [repr(r) for r in batched] == [repr(r) for r in single]


# Per method, where a drawn table's curves end at a scan end: gd's rate on halved f3 is
# 1 / (1 + x * x), so 1 at x = 0; adagrad's exceeds 1 once its sums are scaled up; some
# momentum alpha and rmsprop beta curves of the drawn tables fall or rise across [0, 1].
SCAN_END = {
    GD: (F3, "eta", RegressionSample(x=0.0, y=0.3), 1.0),
    Method.MOMENTUM: (F2, "alpha", None, 1.0),
    Method.ADAGRAD: (F1, "eta", None, 100.0),
    Method.RMSPROP: (F1, "beta", None, 1.0),
}


def _pointwise_table(method, obj, target, sample, table):
    """The ``_pointwise_curve`` of a verify-style table, and each row searched alone."""
    common, eps = target == "beta", verify._EPSILON
    cols = table.T[..., None]
    fixed = HyperParams(*cols[-3:], epsilon=eps)
    curve = analyzer._pointwise_curve(method, obj, target, fixed, sample, _flat_state(obj, cols, common), True)
    alone = [
        pointwise_argmin_hyper(
            method, obj, target, HyperParams(*row[-3:], epsilon=eps), sample,
            _flat_state(obj, row, common), f3_half_gradient=True,
        )
        for row in table.tolist()
    ]
    return curve, alone


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_a_joint_check_equals_its_per_table_searches(method):
    # verify's tables of ``method``, each with a flat first row (zero gradient and
    # velocity), then a table whose curves all have their minimum at a scan end and
    # so finish one golden-section iteration before the interior ones
    rng = np.random.default_rng(3)
    tables = []
    for obj in ObjectiveId:
        for target in sorted(OPTIMIZED_HYPERS[method]):
            sample = verify._obj_sample(obj, target)
            table = verify._draw(rng, 12, verify._pointwise_columns(obj, target))
            params = [0.5] if obj is F1 else [0.3, -0.3] if obj is F2 else [0.0, sample.y]
            table[0, :2 * obj.arity] = params + [0.0] * obj.arity  # r = 0 and v = 0
            tables.append((obj, target, sample, table))
    obj, target, sample, scale = SCAN_END[method]
    pool = verify._draw(rng, 40, verify._pointwise_columns(obj, target))
    pool[:, 2 * obj.arity : 3 * obj.arity] *= scale  # the grad_sq_sum columns
    _, alone = _pointwise_table(method, obj, target, sample, pool)
    ends = pool[[r.argmin in (0.0, 1.0) for r in alone]]
    assert len(ends) >= 10
    tables.append((obj, target, sample, ends))

    curves, expected = zip(*(_pointwise_table(method, *t) for t in tables))
    joint = analyzer._search(list(curves))
    assert [[repr(r) for r in found] for found in joint] == [[repr(r) for r in found] for found in expected]
    assert all(found[0].flat for found in joint[:-1])
    assert {r.evaluations for r in joint[-1]} == {101}
    assert max(r.evaluations for found in joint[:-1] for r in found) == 102


# A search batches its scan and steps each call's points into one loss buffer; the
# reference search asks for one point per call through the public update. Grids of
# about SLAB points straddle the sizes at which the scan's points per call change.
SLAB = 2**14
METHOD_TARGETS = [(GD, "eta"), (Method.MOMENTUM, "alpha"), (Method.ADAGRAD, "eta"), (Method.RMSPROP, "beta")]
TEMPLATE_SLOTS = {"velocity": 0.3, "grad_sq_sum": 0.2, "weighted_grad_sq": 0.1}


def _one_point_per_call(loss_at):
    """A curve for ``_search`` that asks ``loss_at(curve, point)`` for each point alone."""
    return lambda t: np.array([[loss_at(i, x) for x in row] for i, row in enumerate(t.tolist())])


def _template(obj):
    b = None if obj.arity == 1 else 0.0
    slots = {name: PerCoord(v, None if b is None else v / 2.0) for name, v in TEMPLATE_SLOTS.items()}
    return OptimizerState(ParamPoint(0.0, b), **slots)


@pytest.mark.parametrize("points", [SLAB - 1, SLAB, SLAB + 1, 2 * SLAB + 7])
@pytest.mark.parametrize("method, target", METHOD_TARGETS, ids=lambda x: getattr(x, "value", x))
def test_a_sampled_search_equals_one_point_per_call(method, target, points):
    # Monte Carlo sampling gives exactly ``points`` grid points at any arity
    obj = (F1, F2, F3)[points % 3]
    sample, half = (RegressionSample(x=1.5, y=0.2), True) if obj is F3 else (None, False)
    spec = SamplingSpec(SamplingMode.MONTE_CARLO, points, seed=points)
    batched, reference = _sampled_routes(method, target, obj, sample, half, spec)
    assert [repr(batched())] == [repr(r) for r in reference()]


def _sampled_routes(method, target, obj, sample, half, spec):
    """The search over ``spec``'s points, and the one-point-per-call reference."""
    template = _template(obj)

    def mean_error(_, x):
        at = replace(BASE, **{target: x})
        return mean_post_step_error(method, obj, at, sample, spec, template, f3_half_gradient=half)

    return (
        lambda: argmin_hyper(method, obj, target, BASE, sample, spec, template, f3_half_gradient=half),
        lambda: _searched(_one_point_per_call(mean_error), 1),
    )


def _pointwise_routes(method, target, obj, table):
    """The search from the states in the rows of ``table``, and the one-point-per-call reference."""
    sample, half = verify._obj_sample(obj, target), obj is F3
    state = _flat_state(obj, table.T[..., None], common_u=target == "beta")
    g = analyzer._gradient_at(state, obj, sample, half)
    fixed = HyperParams(*table.T[-3:, :, None])

    def loss(i, x):
        row = table[i].tolist()
        at = replace(HyperParams(*row[-3:]), **{target: x})
        out = step(method, _flat_state(obj, row, common_u=target == "beta"), at, obj, sample, f3_half_gradient=half)
        value = evaluate(obj, out.params, sample)
        if not math.isfinite(value):
            raise ValueError("non-finite loss at a sample point")
        return value

    return (
        lambda: analyzer._search([analyzer._curve(method, obj, target, fixed, sample, state, g)])[0],
        lambda: _searched(_one_point_per_call(loss), len(table)),
    )


@pytest.mark.parametrize("rows", [1, 2, 100])
@pytest.mark.parametrize("method, target", METHOD_TARGETS, ids=lambda x: getattr(x, "value", x))
def test_a_pointwise_search_equals_one_point_per_call(method, target, rows):
    obj = (F1, F2, F3)[rows % 3]
    table = verify._draw(np.random.default_rng(rows), rows, verify._pointwise_columns(obj, target))
    batched, reference = _pointwise_routes(method, target, obj, table)
    assert [repr(r) for r in batched()] == [repr(r) for r in reference()]


def test_a_lockstep_search_asks_each_curve_for_no_more_points_than_its_budget():
    # a sampled grid whose budget allows 3 scan points per call beside a pointwise
    # table that allows all 64: the joint scan asks both for 3, and each keeps its result
    spec = SamplingSpec(SamplingMode.MONTE_CARLO, SLAB + 1, seed=1)
    state = analyzer._sampled_state(F2, spec, _template(F2))
    grid = analyzer._curve(Method.MOMENTUM, F2, "eta", BASE, None, state, analyzer._gradient_at(state, F2, None, False))
    table = verify._draw(np.random.default_rng(1), 20, verify._pointwise_columns(F2, "eta"))
    pointwise, alone = _pointwise_table(Method.MOMENTUM, F2, "eta", None, table)
    assert (grid[2], pointwise[2]) == (3, 64)
    joint = analyzer._search([grid, pointwise])
    expected = [argmin_hyper(Method.MOMENTUM, F2, "eta", BASE, None, spec, _template(F2))], alone
    assert [[repr(r) for r in found] for found in joint] == [[repr(r) for r in found] for found in expected]


@pytest.mark.parametrize("method, target", METHOD_TARGETS, ids=lambda x: getattr(x, "value", x))
def test_a_non_finite_loss_raises_alike_on_both_routes(method, target):
    # the middle state's loss overflows at every point; so do the far grid points'
    table = verify._draw(np.random.default_rng(0), 3, verify._pointwise_columns(F1, target))
    table[1, 0] = 1e200
    huge = SamplingSpec(SamplingMode.MONTE_CARLO, SLAB + 1, domain=(0.0, 1e300))
    routes = [*_pointwise_routes(method, target, F1, table), *_sampled_routes(method, target, F1, None, False, huge)]
    for route in routes:
        with pytest.raises(ValueError, match="^non-finite loss at a sample point$"):
            route()


# A call tests its curves' means for finiteness, and looks at the losses one by one
# only when a mean is not finite: a non-finite loss raises, an overflowing sum warns.


@pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("method, target", METHOD_TARGETS, ids=lambda x: getattr(x, "value", x))
def test_one_non_finite_loss_at_either_end_of_a_sampled_grid_raises(method, target, at):
    # the point's loss overflows at the first scan point, at the first or the last grid point
    state = analyzer._sampled_state(F1, SamplingSpec(SamplingMode.MONTE_CARLO, 2 * SLAB + 7), _template(F1))
    state.params.w[at] = 1e200
    g = analyzer._gradient_at(state, F1, None, False)
    with pytest.raises(ValueError, match="^non-finite loss at a sample point$"):
        analyzer._search([analyzer._curve(method, F1, target, BASE, None, state, g)])


@pytest.mark.parametrize("row", [0, 57, 99])
@pytest.mark.parametrize("method, target", METHOD_TARGETS, ids=lambda x: getattr(x, "value", x))
def test_one_non_finite_row_of_a_pointwise_batch_raises(method, target, row):
    table = verify._draw(np.random.default_rng(row), 100, verify._pointwise_columns(F1, target))
    table[row, 0] = 1e200
    search, _ = _pointwise_routes(method, target, F1, table)
    with pytest.raises(ValueError, match="^non-finite loss at a sample point$"):
        search()


def test_finite_losses_whose_sum_overflows_warn_and_give_an_infinite_mean():
    # each loss, (w - 0.5) ** 2 near 1e308, is finite; their sum is not
    spec = SamplingSpec(SamplingMode.MONTE_CARLO, 1000, domain=(1.0e154, 1.3e154))
    with pytest.warns(RuntimeWarning, match="^overflow encountered in reduce$"):
        mean = mean_post_step_error(GD, F1, HyperParams(eta=0.0), None, spec, TEMPLATE_1D)
    assert mean == math.inf


# Two routes to the same number: a search steps every curve point with the
# gradient it took once; mean_post_step_error and step take the full update.


@pytest.mark.parametrize("obj, sample", verify._GD_ARGMIN_CASES, ids=["f1", "f2", "f3-x0.3", "f3-x1", "f3-x2"])
def test_gd_argmin_min_value_is_the_mean_error_at_its_argmin(obj, sample):
    template = OptimizerState.initial(ParamPoint(w=0.0, b=0.0 if obj.arity == 2 else None))
    spec = default_sampling(obj)
    res = argmin_hyper(GD, obj, "eta", DEFAULT_HYPERS, sample, spec, template, f3_half_gradient=True)
    at = replace(DEFAULT_HYPERS, eta=res.argmin)
    mean = mean_post_step_error(GD, obj, at, sample, spec, template, f3_half_gradient=True)
    assert res.min_value.hex() == mean.hex()


@pytest.mark.parametrize("obj", [F1, F2, F3], ids=lambda o: o.value)
@pytest.mark.parametrize(
    "method, target",
    [(Method.MOMENTUM, "eta"), (Method.MOMENTUM, "alpha"), (Method.RMSPROP, "eta"), (Method.RMSPROP, "beta")],
)
def test_pointwise_min_value_is_the_loss_after_a_step_at_its_argmin(method, target, obj):
    sample, half = verify._obj_sample(obj, target), obj is F3
    for row in verify._draw(np.random.default_rng(0), 4, verify._pointwise_columns(obj, target)).tolist():
        state = _flat_state(obj, row, common_u=target == "beta")
        fixed = HyperParams(*row[-3:])
        res = pointwise_argmin_hyper(method, obj, target, fixed, sample, state, f3_half_gradient=half)
        out = step(method, state, replace(fixed, **{target: res.argmin}), obj, sample, f3_half_gradient=half)
        assert not res.flat
        assert res.min_value.hex() == float(evaluate(obj, out.params, sample)).hex()


def test_a_search_checks_its_hyperparameters_once_before_any_curve_point(monkeypatch):
    # an array can change after HyperParams checked it; the search checks the
    # values once, up front, and raises what HyperParams itself raises
    rows = 3
    alpha = np.full((rows, 1), 0.5)
    fixed = HyperParams(eta=np.full((rows, 1), 0.1), alpha=alpha, beta=np.full((rows, 1), 0.5))
    alpha[1, 0] = 1.5
    with pytest.raises(ValueError) as direct:
        replace(fixed)
    evaluated = []
    real = analyzer._residual_into
    monkeypatch.setattr(analyzer, "_residual_into", lambda *args: evaluated.append(args) or real(*args))
    state = _flat_state(F2, verify._draw(np.random.default_rng(0), rows, verify._state_columns(F2)).T[..., None])
    with pytest.raises(ValueError) as searched:
        analyzer._search([analyzer._pointwise_curve(Method.MOMENTUM, F2, "eta", fixed, None, state, False)])
    assert str(searched.value) == str(direct.value)
    assert str(direct.value).startswith("alpha must lie in [0, 1]")
    assert evaluated == []
    # the patched residual is the one a curve point takes: with alpha back in range, it is called
    alpha[1, 0] = 0.5
    analyzer._search([analyzer._pointwise_curve(Method.MOMENTUM, F2, "eta", fixed, None, state, False)])
    assert evaluated


@pytest.mark.parametrize("method, target", [
    *(pytest.param(m, "eta", id=m.value) for m in Method), pytest.param(Method.RMSPROP, "beta", id="rmsprop-beta"),
])
def test_a_grid_curve_point_steps_by_the_buffered_form_in_one_array(method, target, monkeypatch):
    # a call allocates one (3, curves, k, grid) array, its loss buffer, stepped b and rule
    # temporary, and steps w and b through the buffered form into it, never through the
    # allocating rule: both read the same peak on f2's grid, so the calls are counted too.
    # An adagrad or rmsprop eta curve takes its two roots, w's and b's, when it is built and
    # none per call; a beta point moves rmsprop's root, so each call takes both and allocates
    # their accumulator, divisor, root and masks besides
    slot, rule, into, root, reads = analyzer._RULES[method]
    calls = {"rule": 0, "into": 0, "root": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    root = None if root is None else counted("root", root)
    row = (slot, counted("rule", rule), counted("into", into), root, reads)
    monkeypatch.setattr(analyzer, "_RULES", {method: row})
    state = analyzer._sampled_state(F2, GRID_2D, TEMPLATE_2D)
    g = analyzer._gradient_at(state, F2, None, False)
    curve, n, _ = analyzer._curve(method, F2, target, BASE, None, state, g)
    built = calls["root"]
    t = np.array([[0.25]])
    first = curve(t)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        again = curve(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.tobytes() == first.tobytes()
    moved = target == "beta"
    assert built == (2 if method in (Method.ADAGRAD, Method.RMSPROP) and not moved else 0)
    assert calls == {"rule": 0, "into": 4, "root": built + (4 if moved else 0)}  # w and b, in each call
    arrays = 6.5 if moved else 3  # the one array, and a beta point's root arrays
    assert peak - before <= arrays * n * t.shape[1] * state.params.w.size * 8 + 2**14 * 8
