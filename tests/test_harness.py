"""Training runs, the fallback contract, and the convergence comparison."""

import hashlib
import json
import math
import re
import struct
import sys
from dataclasses import fields, replace
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from hyperstep import (
    DEFAULT_HYPERS,
    DEFAULT_SAMPLE,
    OPTIMIZED_HYPERS,
    ComparisonMatrix,
    EpochRecord,
    FeasibleValue,
    GradientVector,
    HyperFlags,
    HyperParams,
    HyperPolicy,
    Method,
    NonFiniteGradientError,
    ObjectiveId,
    OptimizerState,
    ParamPoint,
    PerCoord,
    PolicyKind,
    RandomInit,
    RegressionSample,
    RunConfig,
    Trace,
    detect_convergence,
    evaluate,
    harness,
    hyperopt,
    objectives,
    optimizers,
    reproduce_table2,
    run_training,
    solve,
    step,
)
from hyperstep.harness import DEFAULT_INIT_COORD, DEFAULT_TOLERANCE, resolve_init
from hyperstep.optimizers import adagrad_post_view

F1, F2, F3 = ObjectiveId.F1, ObjectiveId.F2, ObjectiveId.F3


def _rec(epoch, loss):
    return EpochRecord(
        epoch=epoch,
        params=ParamPoint(w=0.0),
        loss=loss,
        hyper_used=DEFAULT_HYPERS,
        hyper_flags=HyperFlags(),
    )


def test_detect_convergence():
    records = [_rec(1, 0.5), _rec(2, 1e-13), _rec(3, 1e-20)]
    assert detect_convergence(records, 1e-12) == 2
    assert detect_convergence(records, 1e-22) is None
    assert detect_convergence([], 1e-12) is None
    with pytest.raises(ValueError):
        detect_convergence(records, 0.0)


def test_gd_f1_optimal_converges_in_one_update():
    cfg = RunConfig(
        method=Method.GD,
        objective=F1,
        policy=HyperPolicy.optimal(DEFAULT_HYPERS, {"eta"}),
    )
    trace = run_training(cfg)
    assert trace.converged_epoch == 2
    assert trace.final_loss == 0.0
    assert len(trace.records) == 2
    first, second = trace.records
    assert first.epoch == 1 and first.loss == pytest.approx(0.04, rel=1e-12)
    assert first.hyper_flags == HyperFlags(eta="", alpha="", beta="")
    assert second.hyper_used.eta == 0.5
    assert second.hyper_flags.eta == "closed_form"


def test_gd_f1_fixed_rate_follows_the_geometric_decay():
    # each update scales the residual by 1 - 2 * 0.1, so epoch k holds
    # loss 0.04 * 0.64**(k - 1); solve for the first epoch at or below tol
    tol = 2.5e-13
    predicted = 1 + math.ceil(math.log(tol / 0.04) / math.log(0.64))
    cfg = RunConfig(
        method=Method.GD,
        objective=F1,
        policy=HyperPolicy.fixed(DEFAULT_HYPERS),
        tolerance=tol,
        max_epochs=500,
    )
    trace = run_training(cfg)
    assert predicted == 59
    assert trace.converged_epoch == predicted
    for k, rec in enumerate(trace.records):
        assert rec.loss == pytest.approx(0.04 * 0.64**k, rel=1e-9)


def _exact_losses(method, obj, init, sample, eta, alpha, half):
    """The losses at epochs 1, 2, ... of a fixed-rate gd or momentum run, from its residual
    recurrence run in exact rationals on the binary values of its floats. One step at rate
    eta scales the residual by 1 - k * eta, k the sum of the coordinates' gains: 2 on f1,
    4 on f2, x * x + 1 on halved f3 and 2 * (x * x + 1) on standard f3. Momentum adds its
    pull v' = alpha * v - k * eta * r."""
    w, b, eta, alpha = (Fraction(c) for c in (init.w, init.b or 0.0, eta, alpha))
    if obj is F3:
        x, y = Fraction(sample.x), Fraction(sample.y)
        r, k = w * x + b - y, (x * x + 1) * (1 if half else 2)
    else:
        r, k = (w - Fraction(1, 2), 2) if obj is F1 else (w + b, 4)
    k_eta, v = k * eta, Fraction(0)
    while True:
        yield r**2  # a power reduces nothing, where r * r would take a gcd of the growing terms
        if method is Method.GD:
            r *= 1 - k_eta
        else:
            v = alpha * v - k_eta * r
            r += v


def _exact_converged_epoch(method, obj, max_epochs=1000):
    """The epoch a default fixed-arm table2 run converges at, by ``_exact_losses``."""
    init = ParamPoint(DEFAULT_INIT_COORD, DEFAULT_INIT_COORD)
    losses = _exact_losses(method, obj, init, DEFAULT_SAMPLE, DEFAULT_HYPERS.eta, DEFAULT_HYPERS.alpha, True)
    tol = Fraction(DEFAULT_TOLERANCE)
    return next((epoch for epoch, loss in zip(range(1, max_epochs + 1), losses) if loss <= tol), None)


@pytest.mark.parametrize(
    "method, epochs", [(Method.GD, (56, 28, 105)), (Method.MOMENTUM, (36, 36, 32))], ids=["gd", "momentum"]
)
def test_fixed_arms_converge_where_the_exact_residual_recurrence_does(method, epochs):
    runs = reproduce_table2()
    floats = tuple(runs.cell(method, obj).fixed.converged_epoch for obj in (F1, F2, F3))
    exact = tuple(_exact_converged_epoch(method, obj) for obj in (F1, F2, F3))
    assert floats == exact == epochs


# A float run and the exact recurrence may disagree on the converged epoch only where,
# at the first epoch they disagree on, the exact loss lies within this relative band of
# the tolerance: the float loss's own rounding error there (CHANGES.md gives the bound).
_ROUNDING_BAND = 1e-3


def _moderate(lo, hi):
    # zero, or of magnitude at least 2**-10: a tiny x, share or alpha would add about a
    # thousand bits to the exact terms at every epoch
    return strategies.floats(lo, hi).filter(lambda v: v == 0.0 or abs(v) >= 2**-10)


# one pinned example per side of the band: the exact loss at epoch 59 exceeds the
# tolerance by 5e-16 of it and the float run converges there, one epoch early; the exact
# loss at epoch 37 falls short of it by 1.8e-15 of it and the float run converges at 38
@example(Method.GD, F1, True, 0.917619485951906, 0.0, 0.0, 0.0, 0.1, 0.5, 120)
@example(Method.MOMENTUM, F1, True, 0.9433835613524939, 0.0, 0.0, 0.0, 0.1, 0.5, 120)
@settings(max_examples=100, deadline=None, database=None)
@given(
    method=strategies.sampled_from([Method.GD, Method.MOMENTUM]),
    obj=strategies.sampled_from([F1, F2, F3]),
    half=strategies.booleans(),
    w=strategies.floats(-1.0, 1.0),
    b=strategies.floats(-1.0, 1.0),
    x=_moderate(-2.0, 2.0),
    y=strategies.floats(-1.0, 1.0),
    share=_moderate(0.0, 1.05),
    alpha=_moderate(0.0, 1.0),
    max_epochs=strategies.integers(1, 120),
)
def test_drawn_fixed_runs_converge_where_the_exact_recurrence_does(
    method, obj, half, w, b, x, y, share, alpha, max_epochs
):
    # eta is drawn as a share of the largest rate that still contracts the residual,
    # 2 / k for gd and 2 * (1 + alpha) / k for momentum, so most draws converge
    sample = RegressionSample(x=x, y=y) if obj is F3 else None
    init = ParamPoint(w=w, b=None if obj is F1 else b)
    k = {F1: 2.0, F2: 4.0, F3: (x * x + 1.0) * (1.0 if half else 2.0)}[obj]
    eta = share * 2.0 * (1.0 + alpha if method is Method.MOMENTUM else 1.0) / k
    policy = HyperPolicy.fixed(HyperParams(eta=eta, alpha=alpha))
    cfg = RunConfig(method, obj, policy, sample=sample, init=init, max_epochs=max_epochs, f3_half_gradient=half)
    trace = run_training(cfg)
    assert not trace.diverged
    exact = list(islice(_exact_losses(method, obj, init, sample, eta, alpha, half), len(trace.records)))
    tol = Fraction(cfg.tolerance)
    first = next((epoch for epoch, loss in enumerate(exact, 1) if loss <= tol), None)
    if first != trace.converged_epoch:
        boundary = min(e for e in (first, trace.converged_epoch) if e is not None)
        assert abs(exact[boundary - 1] / tol - 1) <= _ROUNDING_BAND, (first, trace.converged_epoch)


def _drawn_fixed_runs(seed, n):
    """``n`` seeded draws of (objective, f3 convention, sample, initial point, residual, k): w,
    b, x and y uniform in (-1, 1), and k the gain of ``_exact_losses``, so one plain descent
    step at rate eta scales the residual by 1 - k * eta."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        obj, half = (F1, F2, F3)[rng.integers(3)], bool(rng.integers(2))
        w, b, x, y = rng.uniform(-1.0, 1.0, 4).tolist()
        sample = RegressionSample(x, y) if obj is F3 else None
        init = ParamPoint(w, None if obj is F1 else b)
        k = {F1: 2.0, F2: 4.0, F3: (x * x + 1.0) * (1.0 if half else 2.0)}[obj]
        yield obj, half, sample, init, objectives.residual(obj, init, sample), k


def _fixed_run(method, obj, half, sample, init, eta, alpha, max_epochs):
    policy = HyperPolicy.fixed(HyperParams(eta=eta, alpha=alpha))
    return run_training(RunConfig(method, obj, policy, sample=sample, init=init, max_epochs=max_epochs,
                                  f3_half_gradient=half))


def test_a_fixed_gd_run_converges_at_its_closed_form_epoch():
    # the residual at epoch n is r0 * (1 - eta * k)**(n - 1), so the loss first meets the
    # tolerance at 1 + ceil(log(sqrt(tol) / |r0|) / log|1 - eta * k|); a draw whose ratio lies
    # within 1e-9 of an integer sits on a ceiling the run's rounding may cross, and is skipped
    rng = np.random.default_rng(1)
    checked = 0
    for obj, half, sample, init, r0, k in _drawn_fixed_runs(0, 400):
        eta = rng.uniform(0.02, 1.98) / k
        ratio = math.log(math.sqrt(DEFAULT_TOLERANCE) / abs(r0)) / math.log(abs(1.0 - eta * k))
        if abs(ratio - round(ratio)) < 1e-9:
            continue
        trace = _fixed_run(Method.GD, obj, half, sample, init, eta, 0.0, 1000)
        assert trace.converged_epoch == 1 + max(0, math.ceil(ratio)), (obj, half, init, sample, eta)
        checked += 1
    assert checked >= 390


@pytest.mark.parametrize("method", [Method.GD, Method.MOMENTUM], ids=["gd", "momentum"])
def test_a_fixed_run_past_its_stability_boundary_never_converges(method):
    # gd contracts the residual iff 0 < eta * k < 2, heavy ball iff 0 < eta * k < 2 * (1 + alpha)
    # (alpha in [0, 1)); just past that boundary a run grows from its first loss and never meets
    # the tolerance
    rng = np.random.default_rng(2)
    for obj, half, sample, init, r0, k in _drawn_fixed_runs(3, 100):
        alpha = rng.uniform(0.0, 0.9) if method is Method.MOMENTUM else 0.0
        eta = 2.0 * (1.0 + alpha) * rng.uniform(1.02, 1.3) / k
        trace = _fixed_run(method, obj, half, sample, init, eta, alpha, 300)
        assert trace.converged_epoch is None and trace.final_loss > trace.records[0].loss, (obj, init, eta, alpha)


def test_a_heavy_ball_run_inside_its_stability_boundary_converges():
    # its slowest mode contracts by sqrt(alpha) <= sqrt(0.9) per epoch; of 20,000 runs drawn
    # so, the latest converged at epoch 257
    rng = np.random.default_rng(4)
    for obj, half, sample, init, r0, k in _drawn_fixed_runs(5, 200):
        alpha = rng.uniform(0.0, 0.9)
        eta = 2.0 * (1.0 + alpha) * rng.uniform(0.05, 0.9) / k
        trace = _fixed_run(Method.MOMENTUM, obj, half, sample, init, eta, alpha, 300)
        assert trace.converged_epoch is not None, (obj, init, eta, alpha)


def test_comparison_matrix_finds_each_of_its_cells_and_refuses_a_pair_it_lacks():
    matrix = reproduce_table2()
    pairs = [(method, obj) for method in Method for obj in (F1, F2, F3)]
    assert [matrix.cell(*pair) for pair in pairs] == list(matrix.cells)
    assert [(c.method, c.objective) for c in matrix.cells] == pairs
    without = ComparisonMatrix(cells=tuple(c for c in matrix.cells if c.objective is not F2))
    for source, pair in [(without, (Method.ADAGRAD, F2)), (matrix, ("gd", F1)), (matrix, (Method.GD, "f1"))]:
        with pytest.raises(KeyError) as missing:
            source.cell(*pair)
        assert missing.value.args == (pair,)


def test_starting_at_the_minimum_converges_at_epoch_one():
    cfg = RunConfig(
        method=Method.GD,
        objective=F1,
        policy=HyperPolicy.fixed(DEFAULT_HYPERS),
        init=ParamPoint(w=0.5),
    )
    trace = run_training(cfg)
    assert trace.converged_epoch == 1
    assert len(trace.records) == 1


def test_a_loss_exactly_at_the_tolerance_has_converged():
    # r = 0.25, so the first loss is 0.0625 exactly: the run stops before its first update
    cfg = RunConfig(Method.GD, F1, HyperPolicy.fixed(DEFAULT_HYPERS), init=ParamPoint(0.75), tolerance=0.0625)
    trace = run_training(cfg)
    assert [rec.loss for rec in trace.records] == [0.0625]
    assert trace.converged_epoch == 1 == detect_convergence(trace.records, 0.0625)
    assert detect_convergence(trace.records, math.nextafter(0.0625, 0.0)) is None


@pytest.mark.parametrize(
    "obj, start",
    [(F1, ParamPoint(w=0.3)), (F2, ParamPoint(w=0.3, b=0.3)), (F3, ParamPoint(w=0.3, b=0.3))],
    ids=["f1", "f2", "f3"],
)
def test_default_init_fits_the_objective(obj, start):
    cfg = RunConfig(
        method=Method.GD, objective=obj, policy=HyperPolicy.fixed(DEFAULT_HYPERS),
        sample=DEFAULT_SAMPLE if obj is F3 else None,
    )
    assert cfg.init is None
    assert run_training(cfg).records[0].params == start


def test_runs_are_bit_for_bit_deterministic():
    cfg = RunConfig(
        method=Method.RMSPROP,
        objective=F3,
        policy=HyperPolicy.optimal(DEFAULT_HYPERS, {"eta", "beta"}),
        sample=RegressionSample(x=0.3, y=0.23),
        init=RandomInit(seed=11),
        f3_half_gradient=True,
    )
    a = run_training(cfg)
    b = run_training(cfg)
    assert a == b  # frozen dataclasses compare by value, floats must match exactly


def test_divergent_run_is_truncated_and_flagged():
    cfg = RunConfig(
        method=Method.GD,
        objective=F1,
        policy=HyperPolicy.fixed(HyperParams(eta=1e150)),
        max_epochs=50,
    )
    trace = run_training(cfg)
    assert trace.diverged
    assert trace.converged_epoch is None
    assert not math.isfinite(trace.final_loss)
    assert len(trace.records) < 50  # truncated well before the budget


def test_optimal_arm_loss_never_increases():
    matrix = reproduce_table2()
    for cell in matrix.cells:
        losses = [rec.loss for rec in cell.optimal.records]
        assert all(b <= a for a, b in zip(losses, losses[1:])), (
            cell.method,
            cell.objective,
        )


def test_optimal_beats_fixed_in_every_cell():
    matrix = reproduce_table2()
    inf = float("inf")
    for cell in matrix.cells:
        opt = cell.optimal.converged_epoch or inf
        fix = cell.fixed.converged_epoch or inf
        assert opt < fix, (cell.method, cell.objective)


def test_optimal_arm_converges_second_epoch_from_random_inits():
    # the first update already lands on the minimizer: the coefficient is
    # resolved first (falling back at the start where velocity is zero) and
    # the learning rate then zeroes the residual exactly
    for seed in range(20):
        for method in Method:
            for obj in (F1, F2, F3):
                cfg = RunConfig(
                    method=method,
                    objective=obj,
                    policy=HyperPolicy.optimal(
                        DEFAULT_HYPERS,
                        {
                            Method.GD: {"eta"},
                            Method.MOMENTUM: {"eta", "alpha"},
                            Method.ADAGRAD: {"eta"},
                            Method.RMSPROP: {"eta", "beta"},
                        }[method],
                    ),
                    sample=RegressionSample(x=0.3, y=0.23) if obj is F3 else None,
                    init=RandomInit(seed=seed),
                    f3_half_gradient=obj is F3,
                )
                trace = run_training(cfg)
                assert trace.converged_epoch == 2, (method, obj, seed)
                assert trace.final_loss <= 1e-20


def test_momentum_first_update_flags():
    cfg = RunConfig(
        method=Method.MOMENTUM,
        objective=F1,
        policy=HyperPolicy.optimal(DEFAULT_HYPERS, {"eta", "alpha"}),
    )
    trace = run_training(cfg)
    flags = trace.records[1].hyper_flags
    # zero starting velocity leaves the coefficient rule undefined
    assert flags.alpha == "fallback"
    assert flags.eta == "closed_form"
    assert trace.records[1].hyper_used.alpha == DEFAULT_HYPERS.alpha


def test_fixed_run_flags_every_update_as_fixed():
    cfg = RunConfig(
        method=Method.GD,
        objective=F1,
        policy=HyperPolicy.fixed(DEFAULT_HYPERS),
        max_epochs=3,
    )
    trace = run_training(cfg)
    assert trace.records[0].hyper_flags == HyperFlags(eta="", alpha="", beta="")
    for rec in trace.records[1:]:
        assert rec.hyper_flags == HyperFlags(eta="fixed", alpha="fixed", beta="fixed")


def test_policy_validation():
    with pytest.raises(ValueError):
        HyperPolicy(kind=PolicyKind.FIXED, base=DEFAULT_HYPERS, optimize=frozenset({"eta"}))
    with pytest.raises(ValueError):
        HyperPolicy.optimal(DEFAULT_HYPERS, set())
    with pytest.raises(ValueError):
        HyperPolicy.optimal(DEFAULT_HYPERS, {"gamma"})


@pytest.mark.parametrize("kind, optimize, text", [
    ("optimal_per_epoch", frozenset({"eta"}), "kind must be a PolicyKind, got 'optimal_per_epoch'"),
    ("fixed", frozenset(), "kind must be a PolicyKind, got 'fixed'"),
    (PolicyKind.OPTIMAL_PER_EPOCH, ["eta"], "optimize must be a frozenset of hyperparameter names, got ['eta']"),
], ids=["optimal-string", "fixed-string", "optimize-list"])
def test_policy_refuses_a_kind_or_optimize_of_the_wrong_type(kind, optimize, text):
    # a string kind used to construct and run as fixed; a list used to escape as a TypeError
    with pytest.raises(ValueError) as err:
        HyperPolicy(kind, DEFAULT_HYPERS, optimize)
    assert str(err.value) == text


@pytest.mark.parametrize("field, value, text", [
    ("method", "gd", "method must be a Method (GD, MOMENTUM, ADAGRAD, RMSPROP), got 'gd'"),
    ("objective", "f1", "objective must be an ObjectiveId (F1, F2, F3), got 'f1'"),
    ("tolerance", "1e-3", "tolerance must be a real number, got '1e-3'"),
    ("tolerance", None, "tolerance must be a real number, got None"),
    ("tolerance", True, "tolerance must be a real number, got True"),
], ids=["method", "objective", "tolerance-str", "tolerance-none", "tolerance-bool"])
def test_run_config_refuses_a_method_objective_or_tolerance_of_the_wrong_type(field, value, text):
    # each used to leak a KeyError, AttributeError or TypeError
    given_fields = {"method": Method.GD, "objective": F1, "policy": HyperPolicy.fixed(DEFAULT_HYPERS), field: value}
    with pytest.raises(ValueError) as err:
        RunConfig(**given_fields)
    assert str(err.value) == text


FIXED = HyperPolicy.fixed(DEFAULT_HYPERS)


@pytest.mark.parametrize("build, text", [
    (lambda: HyperPolicy.fixed("x"), "base must be a HyperParams, got 'x'"),
    (lambda: HyperPolicy.optimal({"eta": 0.1}, {"eta"}), "base must be a HyperParams, got {'eta': 0.1}"),
    (lambda: RunConfig(Method.GD, F1, "fixed"), "policy must be a HyperPolicy, got 'fixed'"),
    (lambda: RunConfig(Method.GD, F3, FIXED, sample=(0.3, 0.2)), "sample must be a RegressionSample, got (0.3, 0.2)"),
    (lambda: RunConfig(Method.GD, F3, FIXED, sample=DEFAULT_SAMPLE, init=(0.3,)), "init must be a ParamPoint, got (0.3,)"),
    (lambda: RunConfig(Method.GD, F1, FIXED, init=0.3), "init must be a ParamPoint, got 0.3"),
    (lambda: RunConfig(Method.GD, F1, FIXED, f3_half_gradient="no"), "f3_half_gradient must be a bool, got 'no'"),
    (lambda: RunConfig(Method.GD, F1, FIXED, f3_half_gradient=1), "f3_half_gradient must be a bool, got 1"),
], ids=["fixed-base", "optimal-base", "policy", "sample", "init-tuple", "init-float", "half-str", "half-int"])
def test_policy_and_config_refuse_a_field_of_the_wrong_type_by_name(build, text):
    # each used to construct and then fail at run time with an AttributeError,
    # or, for f3_half_gradient, to run as the halved convention
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == text


def test_run_config_validation():
    fixed = HyperPolicy.fixed(DEFAULT_HYPERS)
    with pytest.raises(ValueError):
        RunConfig(method=Method.GD, objective=F3, policy=fixed)  # sample missing
    with pytest.raises(ValueError):
        RunConfig(
            method=Method.GD, objective=F1, policy=fixed,
            sample=RegressionSample(x=0.3, y=0.23),
        )
    with pytest.raises(ValueError):
        RunConfig(
            method=Method.GD, objective=F1,
            policy=HyperPolicy.optimal(DEFAULT_HYPERS, {"beta"}),  # gd has no beta
        )
    with pytest.raises(ValueError):
        RunConfig(method=Method.GD, objective=F1, policy=fixed, max_epochs=0)
    with pytest.raises(ValueError):
        # a ParamPoint init of the wrong arity is refused with the config
        run_training(
            RunConfig(method=Method.GD, objective=F2, policy=fixed, init=ParamPoint(w=0.3))
        )


@pytest.mark.parametrize("max_epochs", [2.5, math.inf, True, np.float64(3.0), "3"], ids=repr)
def test_run_config_rejects_an_epoch_budget_that_is_not_an_integer(max_epochs):
    # 2.5 would record 3 epochs and inf would never stop a run that plateaus
    with pytest.raises(ValueError, match=f"max_epochs must be an integer, got {re.escape(repr(max_epochs))}"):
        RunConfig(method=Method.GD, objective=F1, policy=HyperPolicy.fixed(DEFAULT_HYPERS), max_epochs=max_epochs)


def test_run_config_takes_a_numpy_integer_epoch_budget():
    cfg = RunConfig(method=Method.GD, objective=F1, policy=HyperPolicy.fixed(DEFAULT_HYPERS), max_epochs=np.int64(3))
    assert len(run_training(cfg).records) == 3


@pytest.mark.parametrize("seed", [1.5, math.nan, True, "3", np.float64(3.0)], ids=repr)
def test_random_init_rejects_a_seed_that_is_not_an_integer(seed):
    # 1.5 and nan used to build and then fail inside the seed hash; True seeded 1
    with pytest.raises(ValueError, match=f"init seed must be an integer, got {re.escape(repr(seed))}"):
        RandomInit(seed)


def test_random_init_takes_a_numpy_integer_seed():
    def start(seed):
        return resolve_init(RunConfig(Method.GD, F2, HyperPolicy.fixed(DEFAULT_HYPERS), init=RandomInit(seed)))

    assert start(np.int64(11)) == start(11)


def test_table2_published_reference_values_are_quoted_verbatim():
    matrix = reproduce_table2()
    cell = matrix.cell(Method.RMSPROP, F1)
    assert cell.published.fixed_epoch == 48
    assert cell.published.fixed_loss == 0.0025
    cell = matrix.cell(Method.MOMENTUM, F3)
    assert cell.published.optimal_epoch == 4
    assert cell.published.fixed_epoch == 205


@pytest.mark.parametrize("obj, half", [(F1, False), (F2, False), (F3, False), (F3, True)],
                         ids=["f1", "f2", "f3", "f3-half"])
def test_rmsprop_fixed_arm_plateaus_at_the_epsilon_free_equilibrium(obj, half):
    # table2's fixed rmsprop arm: once the accumulator settles at g*g, each coordinate steps
    # eta * sign(g), the residual eta * sum|dr/dc| per epoch, so the run ends in the 2-cycle
    # r <-> -r of |r| = eta * sum|dr/dc| / 2 whatever the convention or the start. epsilon
    # shortens coordinate c's step by eps / (2 g_c**2) of itself, so the cycle loss lies
    # below that by share = sum(|dr/dc| * eps / g_c**2) / sum|dr/dc|, to first order
    eta, eps = DEFAULT_HYPERS.eta, DEFAULT_HYPERS.epsilon
    slopes = {F1: (1.0,), F2: (1.0, 1.0), F3: (DEFAULT_SAMPLE.x, 1.0)}[obj]
    r = eta * sum(slopes) / 2
    scale = 1.0 if obj is F3 and half else 2.0  # g_c = scale * dr/dc * r
    share = sum(k * eps / (scale * k * r) ** 2 for k in slopes) / sum(slopes)
    expected = {F1: 0.0025, F2: 0.01, F3: 0.004225}[obj]
    assert r * r == pytest.approx(expected, rel=1e-15)
    for init in [None, *map(RandomInit, range(32))]:
        trace = run_training(RunConfig(
            Method.RMSPROP, obj, HyperPolicy.fixed(DEFAULT_HYPERS), sample=DEFAULT_SAMPLE if obj is F3 else None,
            init=init, max_epochs=1000, f3_half_gradient=half,
        ))
        assert trace.converged_epoch is None and not trace.diverged
        assert trace.final_loss == pytest.approx(expected, rel=2 * share)


def test_trace_final_loss_matches_last_record():
    cfg = RunConfig(method=Method.GD, objective=F1, policy=HyperPolicy.fixed(DEFAULT_HYPERS), max_epochs=7)
    trace = run_training(cfg)
    assert trace.final_loss == trace.records[-1].loss
    assert isinstance(trace, Trace)


def _numpy_draws(seed):
    rng = np.random.default_rng(seed)
    return [float(rng.uniform(0.0, 1.0)) for _ in range(2)]


def _seeded_init(seed):
    cfg = RunConfig(Method.GD, F2, HyperPolicy.fixed(DEFAULT_HYPERS), init=RandomInit(seed=seed))
    return resolve_init(cfg)


@pytest.mark.parametrize("seed", range(32))
def test_seeded_init_draws_what_numpy_draws(seed):
    p = _seeded_init(seed)
    assert [p.w.hex(), p.b.hex()] == [x.hex() for x in _numpy_draws(seed)]


@settings(max_examples=300, deadline=None, database=None)
@given(seed=strategies.integers(min_value=0, max_value=2**300))
def test_seeded_init_draws_what_numpy_draws_for_any_seed(seed):
    # seeds past 128 bits fold their extra 32-bit words into the pool after its first mix
    p = _seeded_init(seed)
    assert [p.w.hex(), p.b.hex()] == [x.hex() for x in _numpy_draws(seed)]


def test_seeded_init_of_a_one_parameter_objective_takes_the_first_draw():
    cfg = RunConfig(Method.GD, F1, HyperPolicy.fixed(DEFAULT_HYPERS), init=RandomInit(seed=7))
    assert resolve_init(cfg) == ParamPoint(w=_numpy_draws(7)[0])


def test_seeded_init_takes_a_numpy_integer_seed():
    assert _seeded_init(np.uint64(2**64 - 1)) == _seeded_init(2**64 - 1)


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize("optimal", [False, True], ids=["fixed", "optimal"])
@pytest.mark.parametrize("beta, epsilon", [(0.5, 1e-8), (1.0, 0.0)], ids=["eps", "eps0-beta1"])
def test_float_runs_record_plain_floats(method, optimal, beta, epsilon):
    # at epsilon = 0 and beta = 1 the fixed rmsprop run divides by 0 and diverges, in plain floats
    base = HyperParams(eta=0.1, alpha=0.5, beta=beta, epsilon=epsilon)
    policy = HyperPolicy.optimal(base, OPTIMIZED_HYPERS[method]) if optimal else HyperPolicy.fixed(base)
    cfg = RunConfig(method, F3, policy, sample=DEFAULT_SAMPLE, init=RandomInit(seed=3), max_epochs=20)
    trace = run_training(cfg)
    assert len(trace.records) > 1
    for rec in trace.records:
        h = rec.hyper_used
        values = (rec.params.w, rec.params.b, rec.loss, h.eta, h.alpha, h.beta, h.epsilon)
        assert all(v.__class__ is float for v in values), rec


def test_zero_divisor_ends_a_run_as_diverged():
    # beta = 1 keeps u at 0, so at epsilon = 0 the first step divides a nonzero
    # gradient by 0: IEEE's inf, recorded as divergence, with no warning raised
    hyper = HyperParams(eta=0.1, beta=1.0, epsilon=0.0)
    trace = run_training(RunConfig(Method.RMSPROP, F1, HyperPolicy.fixed(hyper)))
    assert trace.diverged
    assert len(trace.records) == 2
    assert math.isinf(trace.records[-1].params.w)


def test_an_overflowed_b_accumulator_alone_ends_a_run_as_diverged():
    # standard f3 at a small x: the b gradient 2r squares past the largest float while
    # the w gradient 2xr does not, and the loss r * r stays finite; the b step divides
    # by sqrt(inf), so only the test of the slot's b coordinate stops the frozen run
    sample = RegressionSample(x=1e-3, y=0.0)
    cfg = RunConfig(Method.ADAGRAD, F3, HyperPolicy.fixed(DEFAULT_HYPERS), sample=sample, init=ParamPoint(0.0, 9e153))
    trace = run_training(cfg)
    assert trace.diverged
    assert len(trace.records) == 2
    assert math.isfinite(trace.final_loss) and trace.records[-1].params.b == 9e153


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def _trace_digest(trace):
    # perfbench.workloads.trace_digest's byte layout: every record field, floats bit for bit
    h = hashlib.sha256()
    nan = float("nan")
    for rec in trace.records:
        p, hy, f = rec.params, rec.hyper_used, rec.hyper_flags
        h.update(
            struct.pack(
                "<q7d", rec.epoch, p.w, nan if p.b is None else p.b, rec.loss,
                hy.eta, hy.alpha, hy.beta, hy.epsilon,
            )
        )
        h.update(f"{f.eta},{f.alpha},{f.beta};".encode())
    h.update(repr((trace.converged_epoch, trace.final_loss, trace.diverged)).encode())
    return h.hexdigest()


def test_table2_runs_replay_the_golden_train_traces():
    # per init seed: the 24 table2 runs (cell by cell, optimal arm then fixed)
    # under the halved f3 gradient, then the 24 under the standard one
    golden = json.loads(GOLDEN.read_text())["train"]
    assert len(golden) == 32
    wrong = []
    for seed, expected in golden.items():
        digests = [
            _trace_digest(trace)
            for half in (True, False)
            for cell in reproduce_table2(init=RandomInit(seed=int(seed)), f3_half_gradient=half).cells
            for trace in (cell.optimal, cell.fixed)
        ]
        assert len(digests) == len(expected) == 48
        wrong += [f"{seed}/{i}" for i, (a, b) in enumerate(zip(digests, expected)) if a != b]
    assert wrong == []


def _same(a, b):
    """Bit for bit, with any NaN matching any NaN."""
    if a is None or b is None:
        return a is b
    return (a != a and b != b) or struct.pack("<d", a) == struct.pack("<d", b)


def _finite_state(state):
    coords = (state.params, state.velocity, state.grad_sq_sum, state.weighted_grad_sq)
    return all(math.isfinite(c) for slot in coords for c in (slot.w, slot.b) if c is not None)


_coord = strategies.one_of(
    strategies.floats(-2.0, 2.0),
    strategies.floats(-1e200, 1e200),
    strategies.sampled_from([0.0, 5e-324, -1e-310, 2.2e-308, 1e154, -1e200]),
)
_unit = strategies.one_of(strategies.floats(0.0, 1.0), strategies.sampled_from([0.0, 1.0]))


# one pinned example per divergence route: a non-finite gradient (x * r overflows
# while r * r does not), a non-finite loss (a zero rmsprop divisor at epsilon = 0
# and beta = 1), and a non-finite state (adagrad's g * g overflows, the loss stays finite);
# and a run whose w sum overflows on the step that meets the tolerance: diverged, yet converged;
# and a run whose w overflows to inf at epoch 3, its loss finite at epoch 2 (a divisor of
# sqrt(5e-324) at beta = 1), ended by the post-step loss test
@example(Method.GD, F3, False, True, 0.0, 1e150, 1e200, 0.0, 0.1, 0.5, 0.5, 1e-8, 10)
@example(Method.RMSPROP, F1, False, False, 0.3, None, 0.0, 0.0, 0.1, 0.5, 1.0, 0.0, 10)
@example(Method.ADAGRAD, F3, False, True, 1e-100, 1.0, 1e160, 0.0, 0.1, 0.5, 0.5, 1e-8, 10)
@example(Method.ADAGRAD, F3, False, True, 0.0, 0.5, 1e160, 0.0, 0.5, 0.5, 0.5, 0.0, 10)
@example(Method.RMSPROP, F1, False, False, 0.501, None, 0.0, 0.0, 1e-6, 0.5, 1.0, 5e-324, 10)
@settings(max_examples=300, deadline=None, database=None)
@given(
    method=strategies.sampled_from(list(Method)),
    obj=strategies.sampled_from([F1, F2, F3]),
    optimal=strategies.booleans(),
    half=strategies.booleans(),
    w=_coord,
    b=_coord,
    x=_coord,
    y=_coord,
    eta=strategies.one_of(strategies.floats(0.0, 2.0), strategies.sampled_from([0.0, 1e150])),
    alpha=_unit,
    beta=_unit,
    epsilon=strategies.one_of(strategies.floats(0.0, 1.0), strategies.sampled_from([0.0, 1e-8, 5e-324])),
    max_epochs=strategies.integers(1, 40),
)
def test_runs_replay_through_the_public_checked_step(
    method, obj, optimal, half, w, b, x, y, eta, alpha, beta, epsilon, max_epochs
):
    # run_training steps through unchecked cores; the public step and evaluate,
    # fed each record's own hyper_used, must rebuild every record bit for bit
    base = HyperParams(eta=eta, alpha=alpha, beta=beta, epsilon=epsilon)
    policy = HyperPolicy.optimal(base, OPTIMIZED_HYPERS[method]) if optimal else HyperPolicy.fixed(base)
    sample = RegressionSample(x=x, y=y) if obj is F3 else None
    init = ParamPoint(w=w, b=None if obj is F1 else b)
    cfg = RunConfig(method, obj, policy, sample=sample, init=init, max_epochs=max_epochs, f3_half_gradient=half)
    trace = run_training(cfg)
    assert trace.converged_epoch == detect_convergence(trace.records, cfg.tolerance)
    state = OptimizerState.initial(init)
    for i, rec in enumerate(trace.records):
        if i:
            state = step(method, state, rec.hyper_used, obj, sample, f3_half_gradient=half)
        assert rec.epoch == state.epoch
        assert _same(rec.params.w, state.params.w) and _same(rec.params.b, state.params.b), (i, rec)
        assert _same(rec.loss, evaluate(obj, state.params, sample)), (i, rec)
    finite = math.isfinite(trace.final_loss) and _finite_state(state)
    if not trace.diverged:
        assert finite
        assert trace.final_loss <= cfg.tolerance or len(trace.records) == max_epochs
        return
    if finite:
        with pytest.raises(NonFiniteGradientError):
            step(method, state, trace.records[-1].hyper_used, obj, sample, f3_half_gradient=half)


# momentum's first update, where the zero velocity leaves alpha undefined (it falls back),
# and standard-f3 rmsprop from the default point, whose third epoch clamps beta
RESOLUTION_EXAMPLES = (
    (Method.MOMENTUM, F1, False, 0.3, 0.0, 0.0, 0.0, 0.1, 0.5, 0.5, 1e-8, 2),
    (Method.RMSPROP, F3, False, 0.3, 0.3, 0.3, 0.23, 0.1, 0.5, 0.5, 1e-8, 4),
)


def _optimal_run(method, obj, half, w, b, x, y, eta, alpha, beta, epsilon, max_epochs):
    base = HyperParams(eta=eta, alpha=alpha, beta=beta, epsilon=epsilon)
    sample = RegressionSample(x=x, y=y) if obj is F3 else None
    init = ParamPoint(w=w, b=None if obj is F1 else b)
    policy = HyperPolicy.optimal(base, OPTIMIZED_HYPERS[method])
    cfg = RunConfig(method, obj, policy, sample=sample, init=init, max_epochs=max_epochs, f3_half_gradient=half)
    return run_training(cfg), sample, init


@example(*RESOLUTION_EXAMPLES[0])
@example(*RESOLUTION_EXAMPLES[1])
@settings(max_examples=300, deadline=None, database=None)
@given(
    method=strategies.sampled_from(list(Method)),
    obj=strategies.sampled_from([F1, F2, F3]),
    half=strategies.booleans(),
    w=_coord,
    b=_coord,
    x=_coord,
    y=_coord,
    eta=strategies.one_of(strategies.floats(0.0, 2.0), strategies.sampled_from([0.0, 1e150])),
    alpha=_unit,
    beta=_unit,
    epsilon=strategies.one_of(strategies.floats(0.0, 1.0), strategies.sampled_from([0.0, 1e-8, 5e-324])),
    max_epochs=strategies.integers(1, 40),
)
def test_optimal_runs_resolve_through_the_public_checked_forms(
    method, obj, half, w, b, x, y, eta, alpha, beta, epsilon, max_epochs
):
    # run_training feeds its one gradient per epoch to the unchecked cores; the public
    # adagrad_post_view and solve, at the state the public step rebuilds, must give every
    # record's hyper_used and hyper_flags bit for bit under the fallback contract
    trace, sample, init = _optimal_run(method, obj, half, w, b, x, y, eta, alpha, beta, epsilon, max_epochs)
    state = OptimizerState.initial(init)
    for prev, rec in zip(trace.records, trace.records[1:]):
        view = state
        if method is Method.ADAGRAD:
            view = adagrad_post_view(state, obj, sample, f3_half_gradient=half)
        h, flags = prev.hyper_used, dict.fromkeys(("eta", "alpha", "beta"), "fixed")
        for target in ("alpha", "beta", "eta"):
            if target not in OPTIMIZED_HYPERS[method]:
                continue
            fv = solve(
                method, target, obj, view, sample,
                eta=h.eta, alpha=h.alpha, beta=h.beta, epsilon=h.epsilon, f3_half_gradient=half,
            )
            if not fv.defined:
                value, flags[target] = getattr(h, target), "fallback"
            else:
                value, flags[target] = fv.value, "closed_form" if fv.feasible else "clamped"
            h = replace(h, **{target: value})
        got = [float.hex(getattr(rec.hyper_used, f)) for f in ("eta", "alpha", "beta", "epsilon")]
        assert got == [float.hex(getattr(h, f)) for f in ("eta", "alpha", "beta", "epsilon")], rec
        assert rec.hyper_flags == HyperFlags(**flags), rec
        state = step(method, state, rec.hyper_used, obj, sample, f3_half_gradient=half)


@settings(max_examples=200, deadline=None, database=None)
@given(
    method=strategies.sampled_from(list(Method)),
    obj=strategies.sampled_from([F1, F2, F3]),
    half=strategies.booleans(),
    data=strategies.data(),
    w=strategies.floats(-1e154, 1e154),
    b=strategies.floats(-1e154, 1e154),
    x=strategies.one_of(strategies.sampled_from([0.0, 1e-300]), strategies.floats(-1e200, 1e200)),
    y=strategies.floats(-1e6, 1e6),
    eta=strategies.one_of(strategies.just(0.0), strategies.floats(0.0, 1e3)),
    alpha=_unit,
    beta=_unit,
    epsilon=strategies.one_of(strategies.just(0.0), strategies.floats(0.0, 1.0)),
    max_epochs=strategies.integers(1, 50),
)
def test_a_finite_config_runs_without_raising(method, obj, half, data, w, b, x, y, eta, alpha, beta, epsilon, max_epochs):
    # any policy, optimizing any non-empty subset of the method's forms; the run ends with
    # a finite loss unless it is flagged diverged
    names = sorted(OPTIMIZED_HYPERS[method])
    optimize = data.draw(strategies.sets(strategies.sampled_from(names), max_size=len(names)), label="optimize")
    base = HyperParams(eta=eta, alpha=alpha, beta=beta, epsilon=epsilon)
    policy = HyperPolicy.optimal(base, optimize) if optimize else HyperPolicy.fixed(base)
    sample = RegressionSample(x=x, y=y) if obj is F3 else None
    init = ParamPoint(w=w, b=None if obj is F1 else b)
    cfg = RunConfig(method, obj, policy, sample=sample, init=init, max_epochs=max_epochs, f3_half_gradient=half)
    trace = run_training(cfg)
    assert isinstance(trace, Trace) and 1 <= len(trace.records) <= max_epochs
    assert trace.final_loss == trace.records[-1].loss or math.isnan(trace.final_loss)
    assert trace.diverged or math.isfinite(trace.final_loss)


def test_the_pinned_rmsprop_example_clamps_beta():
    # the momentum example is test_momentum_first_update_flags' run, whose alpha falls back
    trace, _, _ = _optimal_run(*RESOLUTION_EXAMPLES[1])
    assert trace.records[2].hyper_flags.beta == "clamped"


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_an_optimal_run_checks_no_state_and_takes_one_gradient_per_epoch(monkeypatch, method):
    # standard f3, where the gd, momentum and rmsprop arms use the whole budget: the
    # config is checked once, so the loop runs no _check_state, and each stepped epoch's
    # one gradient feeds the closed forms, adagrad's post-accumulation view and the step;
    # the loop judges each core's (raw, singular) itself, so builds no FeasibleValue
    calls = {"_check_state": 0, "_gradient": 0, "_from_raw": 0}
    originals = {
        "_check_state": optimizers._check_state, "_gradient": objectives._gradient, "_from_raw": hyperopt._from_raw,
    }

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return call

    for module in [m for n, m in sys.modules.items() if n == "hyperstep" or n.startswith("hyperstep.")]:
        for name, original in originals.items():
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted(name))
    cfg = RunConfig(
        method, F3, HyperPolicy.optimal(DEFAULT_HYPERS, OPTIMIZED_HYPERS[method]),
        sample=DEFAULT_SAMPLE, max_epochs=1000,
    )
    trace = run_training(cfg)
    assert calls == {"_check_state": 0, "_gradient": len(trace.records) - 1, "_from_raw": 0}


# The run loop, _gradient and _from_raw's float branch build their frozen values by
# object.__new__ and a __dict__ fill, skipping the dataclass __init__; each must equal
# the value the public constructor builds from the same fields.

def _same_value(built, checked):
    assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)
    assert list(vars(built)) == [f.name for f in fields(checked)]


UNCHECKED_CONFIGS = [
    pytest.param(method, obj, optimal, half, id=f"{method.value}-{obj.value}-{'optimal' if optimal else 'fixed'}-{half}")
    for method in Method
    for obj in ObjectiveId
    for optimal in (False, True)
    for half in ((True, False) if obj is F3 else (False,))
]


@pytest.mark.parametrize("method, obj, optimal, half", UNCHECKED_CONFIGS)
def test_records_equal_their_copies_through_the_public_constructors(method, obj, optimal, half):
    policy = HyperPolicy.optimal(DEFAULT_HYPERS, OPTIMIZED_HYPERS[method]) if optimal else HyperPolicy.fixed(DEFAULT_HYPERS)
    sample = DEFAULT_SAMPLE if obj is F3 else None
    cfg = RunConfig(method, obj, policy, sample=sample, init=RandomInit(seed=3), max_epochs=60, f3_half_gradient=half)
    trace = run_training(cfg)
    assert len(trace.records) > 1
    for rec in trace.records:
        p, h, f = rec.params, rec.hyper_used, rec.hyper_flags
        params = ParamPoint(p.w, p.b)
        hyper = HyperParams(h.eta, h.alpha, h.beta, h.epsilon)
        _same_value(p, params)
        _same_value(h, hyper)
        _same_value(rec, EpochRecord(rec.epoch, params, rec.loss, hyper, HyperFlags(f.eta, f.alpha, f.beta)))


@pytest.mark.parametrize("obj", list(ObjectiveId), ids=lambda o: o.value)
@pytest.mark.parametrize("half", [True, False], ids=["half", "standard"])
def test_a_gradient_and_a_post_view_equal_their_copies_through_the_public_constructors(obj, half):
    point = ParamPoint(0.3, None if obj is F1 else -0.7)
    sample = DEFAULT_SAMPLE if obj is F3 else None
    g = objectives._gradient(obj, objectives._residual(obj, point, sample), sample, half)
    _same_value(g, GradientVector(g.d_w, g.d_b))
    # the sums the run loop's adagrad forms read, as the public view builds them
    phi = PerCoord(0.25, None if obj is F1 else 0.5)
    state = replace(OptimizerState.initial(point), grad_sq_sum=phi)
    view = adagrad_post_view(state, obj, sample, f3_half_gradient=half).grad_sq_sum
    _same_value(view, PerCoord(phi.w + g.d_w * g.d_w, None if phi.b is None else phi.b + g.d_b * g.d_b))


@pytest.mark.parametrize("raw", [0.0, 0.3, 1.0, -0.5, 1.5, 5e-324, -0.0])
def test_a_defined_float_closed_form_equals_its_checked_copy(raw):
    _same_value(hyperopt._from_raw(raw), FeasibleValue(min(max(raw, 0.0), 1.0), raw, 0.0 <= raw <= 1.0, True))


@pytest.mark.parametrize("raw, singular", [(0.3, True), (math.inf, False), (-math.inf, False), (math.nan, False)])
def test_an_undefined_float_closed_form_equals_its_checked_copy(raw, singular):
    got = hyperopt._from_raw(raw, singular)
    want = FeasibleValue(math.nan, math.nan, False, False)
    assert repr(got) == repr(want) and list(vars(got)) == list(vars(want))
    assert math.isnan(got.value) and math.isnan(got.raw) and got.feasible is got.defined is False


@pytest.mark.parametrize("seed", [0, 7, 31, 2**32, 2**64 + 5, 2**200], ids=repr)
def test_a_seeded_draw_is_drawn_once_and_bit_for_bit(seed):
    draws = harness._seeded_uniforms(seed, 2)
    assert draws.__class__ is tuple
    assert harness._seeded_uniforms(seed, 2) is draws
    uncached = harness._seeded_uniforms.__wrapped__(seed, 2)
    assert [x.hex() for x in draws] == [x.hex() for x in uncached] == [x.hex() for x in _numpy_draws(seed)]


def test_the_seeded_draws_kept_are_bounded():
    size = harness._seeded_uniforms.cache_info().maxsize
    assert size is not None
    for seed in range(size + 8):
        harness._seeded_uniforms(seed, 2)
    assert harness._seeded_uniforms.cache_info().currsize == size
