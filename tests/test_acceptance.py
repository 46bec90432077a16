"""Acceptance gate: eight headline checks at their stated tolerances.

Each test prints one verdict line; run with ``pytest tests/test_acceptance.py -s``
to see them all. Every check compares two independent routes (closed forms
against direct numeric search, analytic gradients against finite differences,
or a run against an analytic decay model), so a green gate means the package
agrees with itself end to end.
"""

import math
import time
from dataclasses import replace

import numpy as np

from hyperstep import (
    DEFAULT_HYPERS,
    OPTIMIZED_HYPERS,
    HyperParams,
    HyperPolicy,
    Method,
    ObjectiveId,
    ParamPoint,
    PerCoord,
    RegressionSample,
    RunConfig,
    evaluate,
    finite_diff_gradient,
    gradient,
    optimal_lr_adagrad,
    optimal_lr_gd,
    optimal_lr_momentum,
    optimal_lr_rmsprop,
    reproduce_table2,
    run_training,
    solve,
    step,
    verify,
)
from hyperstep.cli import main
from hyperstep.optimizers import _flat_state, adagrad_post_view

F1, F2, F3 = ObjectiveId.F1, ObjectiveId.F2, ObjectiveId.F3
OBJECTIVES = (F1, F2, F3)
DEFAULT_SAMPLE = RegressionSample(x=0.3, y=0.23)


def _verdict(num: int, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"[{word}] criterion {num}: {detail}")


def test_criterion_1_gd_argmin_matches_closed_form():
    start = time.perf_counter()
    worst = verify.check_argmin_gd()["max_deviation"]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    _verdict(1, ok, f"gd argmin vs closed form, max |dev| {worst:.2e} (<=1e-6), {elapsed:.2f}s (<1s)")
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_pointwise_argmin_matches_every_rule():
    start = time.perf_counter()
    checks = [
        verify.check_argmin_pointwise(m, seed=100)
        for m in (Method.MOMENTUM, Method.ADAGRAD, Method.RMSPROP)
    ]
    elapsed = time.perf_counter() - start
    worst = max(c["max_deviation"] for c in checks)
    min_defined = min(c["min_defined_fraction"] for c in checks)
    compared = sum(c["compared"] for c in checks)
    ok = worst <= 1e-6 and min_defined >= 0.95 and elapsed < 10.0
    _verdict(
        2,
        ok,
        f"pointwise argmin vs closed forms over 15 combos, max |dev| {worst:.2e} (<=1e-6), "
        f"defined >= {min_defined:.0%} (>=95%), {compared} compared, {elapsed:.2f}s (<10s)",
    )
    assert worst <= 1e-6
    assert min_defined >= 0.95
    assert elapsed < 10.0


def _one_step_trials(method, obj, state, sample, rng):
    """Hyperparameter settings built from the closed forms at this state."""
    coefficient = next(iter(OPTIMIZED_HYPERS[method] - {"eta"}), None)
    given = {"eta": 0.0, "alpha": 0.0, "beta": 0.0}
    if coefficient is not None:
        given[coefficient] = float(rng.uniform(0, 1))
        given["eta"] = float(rng.uniform(0, 1))
    view = state
    if method is Method.ADAGRAD:
        view = adagrad_post_view(state, obj, sample, f3_half_gradient=obj is F3)
    trials = []
    for target in sorted(OPTIMIZED_HYPERS[method]):
        fv = solve(
            method, target, obj, view, sample, **given, epsilon=1e-8, f3_half_gradient=obj is F3
        )
        if fv.defined and fv.feasible:
            trials.append(HyperParams(**{**given, target: fv.value}, epsilon=1e-8))
    return trials


def test_criterion_3_closed_forms_are_one_step_exact():
    start = time.perf_counter()
    worst = 0.0
    tested = {m: 0 for m in Method}
    for method in Method:
        for obj in OBJECTIVES:
            beta_path = method is Method.RMSPROP
            rng = np.random.default_rng(200)
            for _ in range(1000):
                if obj is F3:
                    sample = RegressionSample(
                        x=float(rng.uniform(0.1, 2.0)), y=float(rng.uniform(0, 1))
                    )
                else:
                    sample = None
                # one row: the state, then for the beta rule a common accumulator
                columns = verify._state_columns(obj) + ([verify._OPEN_UNIT] if beta_path else [])
                drawn = verify._draw(rng, 1, columns)[0].tolist()
                state = _flat_state(obj, drawn)
                if beta_path:
                    # the beta rule needs a common accumulator, and at f3 the
                    # common gradient holds only at x = 1
                    state = _flat_state(obj, [*drawn[:3 * obj.arity], drawn[-1]], common_u=True)
                    if obj is F3:
                        sample = RegressionSample(x=1.0, y=float(rng.uniform(0, 1)))
                for hyper in _one_step_trials(method, obj, state, sample, rng):
                    out = step(
                        method, state, hyper, obj, sample, f3_half_gradient=obj is F3
                    )
                    worst = max(worst, float(evaluate(obj, out.params, sample)))
                    tested[method] += 1
    elapsed = time.perf_counter() - start
    coverage = min(tested.values())
    ok = worst <= 1e-20 and coverage >= 100 and elapsed < 5.0
    _verdict(
        3,
        ok,
        f"one-step exactness, max post-step loss {worst:.2e} (<=1e-20), "
        f">= {coverage} feasible trials per method (>=100), {elapsed:.2f}s (<5s)",
    )
    assert worst <= 1e-20
    assert coverage >= 100
    assert elapsed < 5.0


def test_criterion_4_optimal_arms_converge_immediately():
    matrix = reproduce_table2()
    ok = True
    details = []
    for cell in matrix.cells:
        epoch = cell.optimal.converged_epoch
        loss = cell.optimal.final_loss
        if cell.method is Method.MOMENTUM and cell.objective is F3:
            good = epoch is not None and epoch <= 4 and loss <= 1e-12
        else:
            good = epoch == 2 and loss <= 1e-20
        ok = ok and good
        if not good:
            details.append(f"{cell.method.value}/{cell.objective.value}: epoch {epoch}, loss {loss:.2e}")
    _verdict(
        4,
        ok,
        "all 12 per-epoch-optimal arms converge at epoch 2 "
        "(momentum/f3 allowed up to 4)" + (f"; offenders: {details}" if details else ""),
    )
    assert ok, details


def test_criterion_5_fixed_arms_behave_like_the_reference():
    # (a) plain descent at eta 0.1 follows loss(k) = 0.04 * 0.64**(k - 1)
    tol = 2.5e-13
    predicted = 1 + math.ceil(math.log(tol / 0.04) / math.log(0.64))
    trace = run_training(
        RunConfig(
            method=Method.GD,
            objective=F1,
            policy=HyperPolicy.fixed(DEFAULT_HYPERS),
            tolerance=tol,
            max_epochs=500,
        )
    )
    decay_ok = trace.converged_epoch is not None and abs(trace.converged_epoch - predicted) <= 1
    published_ok = trace.converged_epoch is not None and abs(trace.converged_epoch - 63) <= 15

    # (b) the optimal arm strictly beats the fixed arm in every cell
    matrix = reproduce_table2()
    inf = float("inf")
    dominance_ok = all(
        (c.optimal.converged_epoch or inf) < (c.fixed.converged_epoch or inf)
        for c in matrix.cells
    )

    # (c) fixed rmsprop stalls at its equilibrium instead of converging
    plateau_ok = (
        matrix.cell(Method.RMSPROP, F1).fixed.final_loss > 1e-4
        and matrix.cell(Method.RMSPROP, F2).fixed.final_loss > 1e-4
    )

    ok = decay_ok and published_ok and dominance_ok and plateau_ok
    _verdict(
        5,
        ok,
        f"fixed-arm behavior: gd/f1 converges at {trace.converged_epoch} "
        f"(model {predicted} +-1, reference 63 +-15), optimal beats fixed in 12/12 cells, "
        f"rmsprop plateaus above 1e-4",
    )
    assert decay_ok
    assert published_ok
    assert dominance_ok
    assert plateau_ok


def test_criterion_6_analytic_gradients_match_finite_differences():
    worst = 0.0
    for obj in OBJECTIVES:
        rng = np.random.default_rng(300)
        for _ in range(1000):
            two = obj.arity == 2
            point = ParamPoint(
                w=float(rng.uniform(0, 1)), b=float(rng.uniform(0, 1)) if two else None
            )
            if obj is F3:
                sample = RegressionSample(
                    x=float(rng.uniform(0.1, 2.0)), y=float(rng.uniform(0, 1))
                )
            else:
                sample = None
            g = gradient(obj, point, sample)
            fd = finite_diff_gradient(obj, point, sample)
            # relative to the gradient scale, floored at 1 near roots
            worst = max(worst, abs(g.d_w - fd.d_w) / max(1.0, abs(g.d_w)))
            if two:
                worst = max(worst, abs(g.d_b - fd.d_b) / max(1.0, abs(g.d_b)))
    ok = worst <= 1e-6
    _verdict(6, ok, f"finite differences vs analytic gradients, max rel dev {worst:.2e} (<=1e-6)")
    assert worst <= 1e-6


def test_criterion_7_scaled_rules_reduce_to_plain_descent_exactly():
    mismatches = 0
    checked = 0
    for obj in OBJECTIVES:
        sample = DEFAULT_SAMPLE if obj is F3 else None
        for row in verify._draw(np.random.default_rng(400), 100, verify._state_columns(obj)).tolist():
            state = _flat_state(obj, row)
            base = optimal_lr_gd(obj, state, sample).raw
            checked += 1

            # momentum with a zero coefficient carries nothing
            fv = optimal_lr_momentum(obj, state, sample, alpha=0.0)
            if fv.defined and fv.raw != base:
                mismatches += 1

            # unit divisors: accumulator + epsilon = 1 on every coordinate
            half = PerCoord(w=0.5, b=0.5 if obj.arity == 2 else None)
            unit = replace(state, grad_sq_sum=half, weighted_grad_sq=half)
            if optimal_lr_adagrad(obj, unit, sample, epsilon=0.5).raw != base:
                mismatches += 1
            if optimal_lr_rmsprop(obj, unit, sample, beta=1.0, epsilon=0.5).raw != base:
                mismatches += 1
    ok = mismatches == 0
    _verdict(
        7,
        ok,
        f"reduction identities hold bit for bit at {checked} states "
        f"({mismatches} mismatches allowed 0)",
    )
    assert mismatches == 0


def test_criterion_8_comparison_report_is_deterministic(capsys):
    # the report as users get it: `hyperstep table2`, twice, in process
    first = reproduce_table2()
    second = reproduce_table2()
    code_a, text_a = main(["table2"]), capsys.readouterr().out
    code_b, text_b = main(["table2"]), capsys.readouterr().out
    ok = first == second and code_a == code_b == 0 and text_a == text_b
    _verdict(8, ok, "two full comparison runs render byte-identical reports")
    assert first == second
    assert code_a == code_b == 0
    assert text_a == text_b
