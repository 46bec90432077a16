"""Closed-form hyperparameter rules: worked examples, duality, reductions, dispatch."""

import hashlib
import inspect
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from hyperstep import (
    OPTIMIZED_HYPERS,
    SINGULAR_TOL,
    HyperParams,
    Method,
    ObjectiveId,
    ParamPoint,
    PerCoord,
    RegressionSample,
    gradient,
    harness,
    hyperopt,
    objectives,
    optimal_beta_rmsprop,
    optimal_lr_adagrad,
    optimal_lr_gd,
    optimal_lr_momentum,
    optimal_lr_rmsprop,
    optimal_momentum_coef,
    optimizers,
    solve,
)
from states import make_state

F1, F2, F3 = ObjectiveId.F1, ObjectiveId.F2, ObjectiveId.F3


def test_gd_learning_rate_examples():
    assert optimal_lr_gd(F1, make_state(0.3)).value == 0.5
    assert optimal_lr_gd(F2, make_state(0.3, 0.4)).value == 0.25
    fv = optimal_lr_gd(F3, make_state(0.3, 0.4), RegressionSample(x=2.0, y=0.4))
    assert fv.value == pytest.approx(0.2, rel=1e-12)
    assert fv.feasible and fv.defined


def test_momentum_learning_rate_example():
    fv = optimal_lr_momentum(F1, make_state(0.3, v_w=0.1), alpha=0.5)
    assert fv.value == pytest.approx(0.375, rel=1e-12)


def test_momentum_coefficient_examples():
    fv = optimal_momentum_coef(F1, make_state(0.3, v_w=0.1), eta=0.375)
    assert fv.value == pytest.approx(0.5, rel=1e-12)
    fv = optimal_momentum_coef(F2, make_state(0.3, 0.4, v_w=0.1, v_b=0.1), eta=0.25)
    assert fv.value == pytest.approx(0.0, abs=1e-15)


def test_momentum_rules_undefined_without_signal():
    assert not optimal_lr_momentum(F1, make_state(0.5, v_w=0.1), alpha=0.5).defined
    assert not optimal_momentum_coef(F1, make_state(0.3, v_w=0.0), eta=0.1).defined
    fv = optimal_momentum_coef(F1, make_state(0.3, v_w=0.0), eta=0.1)
    assert math.isnan(fv.value) and math.isnan(fv.raw)
    assert not fv.feasible


def test_adagrad_learning_rate_examples():
    # the accumulator argument is the post-accumulation divisor sum
    fv = optimal_lr_adagrad(F1, make_state(0.3, phi_w=0.16), epsilon=0.0)
    assert fv.value == pytest.approx(0.2, rel=1e-12)
    fv = optimal_lr_adagrad(F2, make_state(0.3, 0.4, phi_w=1.0, phi_b=1.0), epsilon=0.0)
    assert fv.value == pytest.approx(0.25, rel=1e-12)
    fv = optimal_lr_adagrad(
        F3, make_state(0.3, 0.4, phi_w=1.0, phi_b=1.0), RegressionSample(x=2.0, y=0.4), epsilon=0.0
    )
    assert fv.value == pytest.approx(0.2, rel=1e-12)


def test_rmsprop_learning_rate_examples():
    fv = optimal_lr_rmsprop(F1, make_state(0.3, u_w=0.2), beta=1.0, epsilon=0.0)
    assert fv.value == pytest.approx(math.sqrt(0.2) / 2.0, rel=1e-12)
    # beta = 0 discards the accumulator and divides by |g| = 0.4
    fv = optimal_lr_rmsprop(F1, make_state(0.3, u_w=0.2), beta=0.0, epsilon=0.0)
    assert fv.value == pytest.approx(0.2, rel=1e-12)


def test_rmsprop_beta_examples():
    fv = optimal_beta_rmsprop(F1, make_state(0.3, u_w=0.2), eta=0.21, epsilon=0.0)
    assert fv.value == pytest.approx(0.41, rel=1e-10)
    assert fv.feasible

    fv = optimal_beta_rmsprop(F1, make_state(0.3, u_w=0.2), eta=0.1, epsilon=0.0)
    assert fv.raw == pytest.approx(-3.0, rel=1e-10)
    assert fv.value == 0.0
    assert fv.defined and not fv.feasible


def test_rmsprop_beta_undefined_cases():
    # u equal to g**2 leaves the divisor independent of beta
    st = make_state(0.3, u_w=0.16)
    assert not optimal_beta_rmsprop(F1, st, eta=0.2, epsilon=0.0).defined
    # zero residual for the regression objective
    st = make_state(0.1, 0.2, u_w=0.5, u_b=0.5)
    fv = optimal_beta_rmsprop(F3, st, RegressionSample(x=0.3, y=0.23), eta=0.2, epsilon=0.0)
    assert not fv.defined


def test_clamping_keeps_raw():
    fv = optimal_lr_momentum(F1, make_state(0.3, v_w=5.0), alpha=1.0)
    # (5 - 0.2) / -0.4 is far below zero, so value clamps to 0
    assert fv.raw < 0.0 or fv.raw > 1.0
    assert fv.value in (0.0, 1.0)
    assert fv.defined and not fv.feasible


SAMPLES = {
    F1: None,
    F2: None,
    F3: RegressionSample(x=0.7, y=0.4),
}


def _random_state(rng, obj, with_velocity=False, accumulators=False):
    two = obj.arity == 2
    kw = {}
    if with_velocity:
        kw["v_w"] = float(rng.uniform(-0.5, 0.5))
        if two:
            kw["v_b"] = float(rng.uniform(-0.5, 0.5))
    if accumulators:
        kw["phi_w"] = 1.0 - float(rng.random())
        kw["u_w"] = 1.0 - float(rng.random())
        if two:
            kw["phi_b"] = 1.0 - float(rng.random())
            kw["u_b"] = 1.0 - float(rng.random())
    return make_state(
        float(rng.uniform(0, 1)),
        float(rng.uniform(0, 1)) if two else None,
        **kw,
    )


def test_momentum_duality_round_trip():
    # solving eta from alpha and then alpha from that eta returns alpha
    rng = np.random.default_rng(6)
    for obj in (F1, F2, F3):
        s = SAMPLES[obj]
        checked = 0
        for _ in range(100):
            st = _random_state(rng, obj, with_velocity=True)
            alpha = float(rng.uniform(0.0, 1.0))
            fv_eta = optimal_lr_momentum(obj, st, s, alpha=alpha)
            if not fv_eta.defined:
                continue
            fv_alpha = optimal_momentum_coef(obj, st, s, eta=fv_eta.raw)
            if not fv_alpha.defined:
                continue
            assert fv_alpha.raw == pytest.approx(alpha, abs=1e-9)
            checked += 1
        assert checked >= 50


def test_momentum_eta_reduces_to_gd_exactly_at_zero_alpha():
    rng = np.random.default_rng(7)
    for obj in (F1, F2, F3):
        s = SAMPLES[obj]
        for _ in range(100):
            st = _random_state(rng, obj, with_velocity=True)
            fv = optimal_lr_momentum(obj, st, s, alpha=0.0)
            if not fv.defined:  # zero residual draws carry no signal
                continue
            assert fv.raw == optimal_lr_gd(obj, st, s).raw


def test_adagrad_eta_reduces_to_gd_with_unit_divisors():
    # phi + epsilon = 1 per coordinate makes the scaling a no-op
    rng = np.random.default_rng(8)
    for obj in (F1, F2, F3):
        s = SAMPLES[obj]
        for _ in range(100):
            st = _random_state(rng, obj)
            st = make_state(
                st.params.w,
                st.params.b,
                phi_w=0.5,
                phi_b=0.5 if obj.arity == 2 else None,
            )
            fv = optimal_lr_adagrad(obj, st, s, epsilon=0.5)
            assert fv.raw == optimal_lr_gd(obj, st, s).raw


def test_rmsprop_eta_reduces_to_gd_with_unit_divisors():
    # beta = 1 ignores the current gradient; u + epsilon = 1 per coordinate
    rng = np.random.default_rng(9)
    for obj in (F1, F2, F3):
        s = SAMPLES[obj]
        for _ in range(100):
            st = _random_state(rng, obj)
            st = make_state(
                st.params.w,
                st.params.b,
                u_w=0.5,
                u_b=0.5 if obj.arity == 2 else None,
            )
            fv = optimal_lr_rmsprop(obj, st, s, beta=1.0, epsilon=0.5)
            assert fv.raw == optimal_lr_gd(obj, st, s).raw


def test_adagrad_eta_grows_with_accumulator():
    values = [
        optimal_lr_adagrad(F1, make_state(0.3, phi_w=phi), epsilon=1e-8).raw
        for phi in (0.1, 0.2, 0.4, 0.8)
    ]
    assert values == sorted(values)


def test_f3_requires_sample():
    with pytest.raises(ValueError):
        optimal_lr_gd(F3, make_state(0.3, 0.4))
    with pytest.raises(ValueError):
        optimal_lr_momentum(F3, make_state(0.3, 0.4), alpha=0.5)


def test_f3_learning_rate_depends_only_on_x():
    a = optimal_lr_gd(F3, make_state(0.9, 0.1), RegressionSample(x=0.5, y=0.1)).raw
    b = optimal_lr_gd(F3, make_state(0.2, 0.7), RegressionSample(x=0.5, y=0.9)).raw
    assert a == b == pytest.approx(0.8, rel=1e-12)



# the rule each (method, target) pair names, called directly
NAMED_RULES = {
    (Method.GD, "eta"): optimal_lr_gd,
    (Method.MOMENTUM, "eta"): optimal_lr_momentum,
    (Method.MOMENTUM, "alpha"): optimal_momentum_coef,
    (Method.ADAGRAD, "eta"): optimal_lr_adagrad,
    (Method.RMSPROP, "eta"): optimal_lr_rmsprop,
    (Method.RMSPROP, "beta"): optimal_beta_rmsprop,
}


def test_solve_matches_the_named_rule_bit_for_bit():
    rng = np.random.default_rng(10)
    for (method, target), rule in NAMED_RULES.items():
        reads = inspect.signature(rule).parameters
        for obj, half in itertools.product((F1, F2, F3), (False, True)):
            for i in range(50):
                # every fifth state has zero velocity, where the momentum coefficient is undefined
                st = _random_state(rng, obj, with_velocity=i % 5 != 0, accumulators=True)
                given = {name: float(rng.uniform(0, 1)) for name in ("eta", "alpha", "beta")}
                given.update(epsilon=1e-8, f3_half_gradient=half)
                got = solve(method, target, obj, st, SAMPLES[obj], **given)
                want = rule(obj, st, SAMPLES[obj], **{k: v for k, v in given.items() if k in reads})
                assert repr(got) == repr(want)  # repr, because undefined values are NaN


def test_solve_accepts_exactly_the_optimized_pairs():
    st = make_state(0.3, v_w=0.1, phi_w=0.2, u_w=0.2)
    accepted = set()
    for method, target in itertools.product(Method, ("eta", "alpha", "beta")):
        try:
            solve(method, target, F1, st, eta=0.3, alpha=0.5, beta=0.5, epsilon=1e-8)
            accepted.add((method, target))
        except ValueError as exc:
            assert "no closed form" in str(exc)
    assert accepted == set(NAMED_RULES)
    assert accepted == {(m, t) for m, targets in OPTIMIZED_HYPERS.items() for t in targets}
    assert harness.OPTIMIZED_HYPERS is hyperopt.OPTIMIZED_HYPERS


@pytest.mark.parametrize(
    "method, target, text",
    [(Method.GD, "beta", "under gd"), ("gd", "eta", "under 'gd'"), (None, "eta", "under None")],
)
def test_solve_names_a_pair_it_has_no_form_for(method, target, text):
    st = make_state(0.3)
    with pytest.raises(ValueError, match=f"^no closed form for '{target}' {text}$"):
        solve(method, target, F1, st, eta=0.3, alpha=0.5, beta=0.5, epsilon=1e-8)


# Fixed states for the pinned values below: (objective, sample, state).
PINNED_STATES = (
    (F1, None, make_state(0.3, v_w=0.1, phi_w=0.05, u_w=0.2)),
    (F1, None, make_state(-1.7, v_w=-0.45, phi_w=3.5, u_w=0.9)),
    (F1, None, make_state(0.5, phi_w=0.25, u_w=0.0)),
    (F2, None, make_state(0.3, 0.4, 0.1, -0.05, 0.2, 0.3, 0.1, 0.1)),
    (F2, None, make_state(-1.2, 0.7, 0.3, 0.2, 1.5, 0.5, 0.4, 0.4)),
    (F2, None, make_state(0.25, -0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
    (F3, RegressionSample(x=1.0, y=0.5), make_state(0.3, 0.4, 0.1, -0.05, 0.2, 0.3, 0.1, 0.1)),
    (F3, RegressionSample(x=2.5, y=-1.0), make_state(-1.2, 0.7, 0.3, 0.2, 1.5, 0.5, 0.4, 0.4)),
    (F3, RegressionSample(x=0.0, y=0.7), make_state(0.3, 0.4, 0.1, -0.05, 0.2, 0.3, 0.1, 0.1)),
)

# repr of solve(...) at each PINNED_STATES entry (f3 entries under the standard,
# then the halved gradient), recorded before the rules' F1 and F2 branches were
# merged into one: a moved bit in any rule changes a line here.
PINNED = {
    (Method.GD, "eta"): (
        "FeasibleValue(value=0.5, raw=0.5, feasible=True, defined=True)",
        "FeasibleValue(value=0.5, raw=0.5, feasible=True, defined=True)",
        "FeasibleValue(value=0.5, raw=0.5, feasible=True, defined=True)",
        "FeasibleValue(value=0.25, raw=0.25, feasible=True, defined=True)",
        "FeasibleValue(value=0.25, raw=0.25, feasible=True, defined=True)",
        "FeasibleValue(value=0.25, raw=0.25, feasible=True, defined=True)",
        "FeasibleValue(value=0.5, raw=0.5, feasible=True, defined=True)",
        "FeasibleValue(value=0.5, raw=0.5, feasible=True, defined=True)",
        "FeasibleValue(value=0.13793103448275862, raw=0.13793103448275862, feasible=True, defined=True)",
        "FeasibleValue(value=0.13793103448275862, raw=0.13793103448275862, feasible=True, defined=True)",
        "FeasibleValue(value=1.0, raw=1.0, feasible=True, defined=True)",
        "FeasibleValue(value=1.0, raw=1.0, feasible=True, defined=True)",
    ),
    (Method.MOMENTUM, "eta"): (
        "FeasibleValue(value=0.34750000000000003, raw=0.34750000000000003, feasible=True, defined=True)",
        "FeasibleValue(value=0.5623863636363636, raw=0.5623863636363636, feasible=True, defined=True)",
        "FeasibleValue(value=nan, raw=nan, feasible=False, defined=False)",
        "FeasibleValue(value=0.26089285714285715, raw=0.26089285714285715, feasible=True, defined=True)",
        "FeasibleValue(value=0.0975, raw=0.0975, feasible=True, defined=True)",
        "FeasibleValue(value=nan, raw=nan, feasible=False, defined=False)",
        "FeasibleValue(value=0.57625, raw=0.57625, feasible=True, defined=True)",
        "FeasibleValue(value=0.57625, raw=0.57625, feasible=True, defined=True)",
        "FeasibleValue(value=0.07644562334217506, raw=0.07644562334217506, feasible=True, defined=True)",
        "FeasibleValue(value=0.07644562334217506, raw=0.07644562334217506, feasible=True, defined=True)",
        "FeasibleValue(value=1.0, raw=1.1016666666666666, feasible=False, defined=True)",
        "FeasibleValue(value=1.0, raw=1.1016666666666666, feasible=False, defined=True)",
    ),
    (Method.MOMENTUM, "alpha"): (
        "FeasibleValue(value=0.52, raw=0.52, feasible=True, defined=True)",
        "FeasibleValue(value=0.0, raw=-1.2711111111111113, feasible=False, defined=True)",
        "FeasibleValue(value=nan, raw=nan, feasible=False, defined=False)",
        "FeasibleValue(value=1.0, raw=6.719999999999999, feasible=False, defined=True)",
        "FeasibleValue(value=0.0, raw=-0.48, feasible=False, defined=True)",
        "FeasibleValue(value=nan, raw=nan, feasible=False, defined=False)",
        "FeasibleValue(value=0.0, raw=-1.0399999999999998, feasible=False, defined=True)",
        "FeasibleValue(value=0.0, raw=-1.0399999999999998, feasible=False, defined=True)",
        "FeasibleValue(value=0.0, raw=-2.3023684210526314, feasible=False, defined=True)",
        "FeasibleValue(value=0.0, raw=-2.3023684210526314, feasible=False, defined=True)",
        "FeasibleValue(value=0.0, raw=-3.779999999999999, feasible=False, defined=True)",
        "FeasibleValue(value=0.0, raw=-3.779999999999999, feasible=False, defined=True)",
    ),
    (Method.ADAGRAD, "eta"): (
        "FeasibleValue(value=0.11180341005532882, raw=0.11180341005532882, feasible=True, defined=True)",
        "FeasibleValue(value=0.9354143480297915, raw=0.9354143480297915, feasible=True, defined=True)",
        "FeasibleValue(value=0.25000000499999997, raw=0.25000000499999997, feasible=True, defined=True)",
        "FeasibleValue(value=0.1230978383611232, raw=0.1230978383611232, feasible=True, defined=True)",
        "FeasibleValue(value=0.22414386973650305, raw=0.22414386973650305, feasible=True, defined=True)",
        "FeasibleValue(value=2.4999999999999998e-05, raw=2.4999999999999998e-05, feasible=True, defined=True)",
        "FeasibleValue(value=0.2461956767222464, raw=0.2461956767222464, feasible=True, defined=True)",
        "FeasibleValue(value=0.2461956767222464, raw=0.2461956767222464, feasible=True, defined=True)",
        "FeasibleValue(value=0.1534373692641076, raw=0.1534373692641076, feasible=True, defined=True)",
        "FeasibleValue(value=0.1534373692641076, raw=0.1534373692641076, feasible=True, defined=True)",
        "FeasibleValue(value=0.5477225666338753, raw=0.5477225666338753, feasible=True, defined=True)",
        "FeasibleValue(value=0.5477225666338753, raw=0.5477225666338753, feasible=True, defined=True)",
    ),
    (Method.RMSPROP, "eta"): (
        "FeasibleValue(value=0.21977261544605597, raw=0.21977261544605597, feasible=True, defined=True)",
        "FeasibleValue(value=1.0, raw=1.004763655045305, feasible=False, defined=True)",
        "FeasibleValue(value=5e-05, raw=5e-05, feasible=True, defined=True)",
        "FeasibleValue(value=0.16128391310047013, raw=0.16128391310047013, feasible=True, defined=True)",
        "FeasibleValue(value=0.17712989760342554, raw=0.17712989760342554, feasible=True, defined=True)",
        "FeasibleValue(value=2.4999999999999998e-05, raw=2.4999999999999998e-05, feasible=True, defined=True)",
        "FeasibleValue(value=0.16598193425791855, raw=0.16598193425791855, feasible=True, defined=True)",
        "FeasibleValue(value=0.1498332489803248, raw=0.1498332489803248, feasible=True, defined=True)",
        "FeasibleValue(value=0.32241046387071337, raw=0.32241046387071337, feasible=True, defined=True)",
        "FeasibleValue(value=0.1800005774502323, raw=0.1800005774502323, feasible=True, defined=True)",
        "FeasibleValue(value=0.3797367640879666, raw=0.3797367640879666, feasible=True, defined=True)",
        "FeasibleValue(value=0.31352832407934056, raw=0.31352832407934056, feasible=True, defined=True)",
    ),
    (Method.RMSPROP, "beta"): (
        "FeasibleValue(value=1.0, raw=9.689999750000004, feasible=False, defined=True)",
        "FeasibleValue(value=1.0, raw=1.0190899247020586, feasible=False, defined=True)",
        "FeasibleValue(value=nan, raw=nan, feasible=False, defined=False)",
        "FeasibleValue(value=0.0, raw=-0.12387096236559152, feasible=False, defined=True)",
        "FeasibleValue(value=0.0, raw=-1.9839999833333333, feasible=False, defined=True)",
        "FeasibleValue(value=nan, raw=nan, feasible=False, defined=False)",
        "FeasibleValue(value=0.0, raw=-33.83999983333338, feasible=False, defined=True)",
        "FeasibleValue(value=1.0, raw=8.459999833333331, feasible=False, defined=True)",
        "FeasibleValue(value=0.008160378930817334, raw=0.008160378930817334, feasible=True, defined=True)",
        "FeasibleValue(value=0.010058147286821367, raw=0.010058147286821367, feasible=True, defined=True)",
        "FeasibleValue(value=0.0, raw=-0.7215384230769241, feasible=False, defined=True)",
        "FeasibleValue(value=1.0, raw=4.68999899999998, feasible=False, defined=True)",
    ),
}


PINNED_GIVEN = {"eta": 0.37, "alpha": 0.61, "beta": 0.83}

# sha256 of the reprs over _drawn_cases(), newline-joined, recorded with PINNED
PINNED_DRAWN = {
    (Method.GD, "eta"): "262620720e4ce6f16a00aaf1241f16b4d591cba874f8d01ad73fcd41b122ef69",
    (Method.MOMENTUM, "eta"): "689132ba2846b3a35cb88055e93982a97ddd712bfb3a6a86382de6519d282174",
    (Method.MOMENTUM, "alpha"): "8a7df8587297a1aaaaa3a3087dbdc25f330639c4303ce4b1794d8041273aef73",
    (Method.ADAGRAD, "eta"): "defa0bef48448f02f32604579a41f1c6b316020159a4df8b095b231cac0a5c74",
    (Method.RMSPROP, "eta"): "89f82b5de5df02eaa1b09c9293f38bd38818fa3542ef50f0ba95fc72290f3b29",
    (Method.RMSPROP, "beta"): "73cee977a42f21d27e0f1619099b29047fdc83b47f5a9a3e9a8950751d6151de",
}


def _drawn_cases(per_objective=40):
    """Seeded (objective, sample, state, given values); Python's random keeps its stream across versions."""
    rng = random.Random(7)
    cases = []
    for obj in (F1, F2, F3):
        two = obj.arity == 2
        for _ in range(per_objective):
            w, b, v_w, v_b = (rng.uniform(-2.0, 2.0) for _ in range(4))
            phi_w, phi_b, u_w, u_b = (rng.uniform(0.0, 3.0) for _ in range(4))
            if not two:
                b = v_b = phi_b = u_b = None
            sample = RegressionSample(x=rng.uniform(-2.0, 2.0), y=rng.uniform(-2.0, 2.0)) if obj is F3 else None
            given = {name: rng.uniform(0.0, 1.0) for name in ("eta", "alpha", "beta")}
            cases.append((obj, sample, make_state(w, b, v_w, v_b, phi_w, phi_b, u_w, u_b), given))
    return cases


def _solved_reprs(pair, cases):
    method, target = pair
    return [
        repr(solve(method, target, obj, st, sample, **given, epsilon=1e-8, f3_half_gradient=half))
        for obj, sample, st, given in cases
        for half in ((False, True) if obj is F3 else (False,))
    ]


@pytest.mark.parametrize("pair", list(PINNED), ids=lambda p: f"{p[0].value}-{p[1]}")
def test_closed_forms_keep_their_pinned_values(pair):
    fixed = [(obj, sample, st, PINNED_GIVEN) for obj, sample, st in PINNED_STATES]
    assert _solved_reprs(pair, fixed) == list(PINNED[pair])
    drawn = "\n".join(_solved_reprs(pair, _drawn_cases()))
    assert hashlib.sha256(drawn.encode()).hexdigest() == PINNED_DRAWN[pair]


@settings(max_examples=300, deadline=None, database=None)
@given(
    eta=strategies.floats(allow_nan=False, allow_infinity=False),
    w=strategies.floats(-1e6, 1e6),
    v=strategies.floats(-1e6, 1e6).filter(lambda v: abs(v) >= SINGULAR_TOL),
)
def test_f1_momentum_coefficient_equals_its_unmerged_form(eta, w, v):
    # the merged rule computes (2 * eta - 1) * r / v; F1's own form was 2 * (eta - 0.5) * r / v
    got = optimal_momentum_coef(F1, make_state(w, v_w=v), eta=eta)
    assert repr(got) == repr(hyperopt._from_raw(2.0 * (eta - 0.5) * (w - 0.5) / v))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_a_velocity_exactly_at_the_singular_tolerance_is_defined(sign):
    # the test is abs(m) < SINGULAR_TOL: the tolerance itself is defined, the next float below it is not
    at = sign * SINGULAR_TOL
    below = sign * math.nextafter(SINGULAR_TOL, 0.0)
    got = optimal_momentum_coef(F1, make_state(0.3, v_w=at), eta=0.1)
    assert got.defined and not got.feasible
    assert got.raw == (2.0 * 0.1 - 1.0) * (0.3 - 0.5) / at
    assert not optimal_momentum_coef(F1, make_state(0.3, v_w=below), eta=0.1).defined


_GIVEN_ALL = {"eta": 0.1, "alpha": 0.5, "beta": 1.0, "epsilon": 0.0}

# Each other singular quantity set to exactly t, as a solve: momentum eta's |r| (f2's
# r = w + b); adagrad's and rmsprop's scaled-rate denominator 2 * (sqrt(acc_w) + sqrt(acc_b))
# at epsilon = 0, with acc_w = (t / 2) ** 2 (an exact root) and acc_b = 0 (rmsprop's acc is
# u at beta = 1); rmsprop beta's u - g**2 at g = 0; and its f3 |r| at x = 1, y = 0.
SINGULAR_AT = {
    "momentum-eta |r|": lambda t: solve(Method.MOMENTUM, "eta", F2, make_state(t, 0.0), **_GIVEN_ALL),
    "adagrad-eta denominator": lambda t: solve(
        Method.ADAGRAD, "eta", F2, make_state(0.3, 0.4, phi_w=(t / 2.0) ** 2), **_GIVEN_ALL
    ),
    "rmsprop-eta denominator": lambda t: solve(
        Method.RMSPROP, "eta", F2, make_state(0.3, 0.4, u_w=(t / 2.0) ** 2), **_GIVEN_ALL
    ),
    "rmsprop-beta u - g**2": lambda t: solve(Method.RMSPROP, "beta", F1, make_state(0.5, u_w=t), **_GIVEN_ALL),
    "rmsprop-beta f3 |r|": lambda t: solve(
        Method.RMSPROP, "beta", F3, make_state(0.0, t, u_w=1.0, u_b=1.0), RegressionSample(1.0, 0.0), **_GIVEN_ALL
    ),
}


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
@pytest.mark.parametrize("quantity", list(SINGULAR_AT))
def test_each_singular_quantity_exactly_at_the_tolerance_is_defined(quantity, sign):
    # the tolerance itself is defined, the next float below it is not; a denominator
    # of square roots is never negative, so its negative side squares back to positive
    at, below = (SINGULAR_AT[quantity](sign * t) for t in (SINGULAR_TOL, math.nextafter(SINGULAR_TOL, 0.0)))
    assert at.defined and math.isfinite(at.raw)
    assert not below.defined


# Drawn rows for the array forms: coordinates, then accumulators (negative ones too: the
# update rule accepts them, and a rule whose root is then NaN is undefined on both paths),
# then eta, alpha, beta (at the values where a factor 2 * arity * eta - 1 is 0) and epsilon.
_COORD = strategies.one_of(strategies.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]), strategies.floats(-10.0, 10.0))
_ACC = strategies.one_of(
    strategies.sampled_from([0.0, SINGULAR_TOL, 0.5 * SINGULAR_TOL, 2.0 * SINGULAR_TOL, -1.0]),
    strategies.floats(-10.0, 10.0),
)
_GIVEN = strategies.one_of(strategies.sampled_from([0.0, 0.25, 0.5, 1.0]), strategies.floats(0.0, 1.0))
_EPS = strategies.one_of(strategies.sampled_from([0.0, 1e-8]), strategies.floats(0.0, 1.0))
_FORM_ROW = strategies.tuples(*[_COORD] * 4, *[_ACC] * 4, *[_GIVEN] * 3, _EPS)

# Every singular quantity is pinned, on a copy of the first drawn row, at exactly 0 and
# either side of SINGULAR_TOL in both signs (accumulators at their magnitude, epsilon 0).
_NEAR_TOL = (0.0, 0.5 * SINGULAR_TOL, 2.0 * SINGULAR_TOL, -0.5 * SINGULAR_TOL, -2.0 * SINGULAR_TOL)


def _array_form(pair, obj, state, sample, half, eta, alpha, beta, epsilon):
    """The core ``hyperopt._FORMS`` maps ``pair`` to, fed the residual and gradient at ``state``,
    its (raw, singular) judged by ``hyperopt._from_raw``."""
    r = objectives._residual(obj, state.params, sample)
    g = objectives._gradient(obj, r, sample, half)
    slot = optimizers._slot(pair[0], state)
    hyper = HyperParams(eta, alpha, beta, epsilon)
    return hyperopt._from_raw(*hyperopt._FORMS[pair](obj, slot.w, slot.b, sample, r, g, hyper))


def test_a_negative_accumulator_is_undefined_on_floats_and_arrays():
    # sqrt(-1.0 + 0) has no real root: NaN, with no math domain error and no warning
    one = solve(Method.ADAGRAD, "eta", F1, make_state(0.3, phi_w=-1.0), eta=None, alpha=None, beta=None, epsilon=0.0)
    assert (one.defined, one.feasible, one.raw.hex(), one.value.hex()) == (False, False, "nan", "nan")
    many = _array_form(
        (Method.ADAGRAD, "eta"), F1, make_state(np.array([0.3, 0.3]), phi_w=np.array([-1.0, 0.16])), None, False,
        0.0, 0.0, 0.0, 0.0,
    )
    assert many.defined.tolist() == [False, True]
    assert [x.hex() for x in many.raw.tolist()] == ["nan", (0.4 / 2.0).hex()]


def _pinned(row, obj, sample, half, quantity, t):
    """``row`` with ``quantity`` (residual, velocity sum or F3's m, u - g**2, accumulators) set to ``t``."""
    w, b, v_w, v_b, phi_w, phi_b, u_w, u_b, eta, alpha, beta, eps = row
    if quantity == "residual":
        if obj is F3:
            w, b = 0.0, sample.y + t
        else:
            w = 0.5 + t if obj is F1 else t - b
    elif quantity == "velocity":
        if obj is F3:
            v_b = t - v_w * sample.x
        else:
            v_w = t if obj is F1 else t - v_b
    elif quantity == "u - g**2":
        g = gradient(obj, ParamPoint(w, b if obj.arity == 2 else None), sample, f3_half_gradient=half)
        g = g.d_b if obj is F3 else g.d_w
        u_w = max(g * g + t, 0.0)
    else:
        phi_w = phi_b = u_w = u_b = abs(t)
        eps = 0.0
    return (w, b, v_w, v_b, phi_w, phi_b, u_w, u_b, eta, alpha, beta, eps)


def _form_state(columns, obj):
    w, b, v_w, v_b, phi_w, phi_b, u_w, u_b = columns[:8]
    if obj.arity == 1:
        return make_state(w, v_w=v_w, phi_w=phi_w, u_w=u_w)
    return make_state(w, b, v_w, v_b, phi_w, phi_b, u_w, u_b)


@pytest.mark.parametrize("obj", [F1, F2, F3], ids=lambda o: o.value)
@pytest.mark.parametrize("pair", list(NAMED_RULES), ids=lambda p: f"{p[0].value}-{p[1]}")
@settings(max_examples=20, deadline=None, database=None)
@given(
    rows=strategies.lists(_FORM_ROW, min_size=1, max_size=3),
    x=strategies.one_of(strategies.just(0.0), strategies.floats(-10.0, 10.0)),
    y=_COORD,
)
def test_array_forms_equal_per_row_scalar_solve(pair, obj, rows, x, y):
    """One call of a form through ``hyperopt._FORMS`` on columns equals ``solve`` on
    each row: value and raw bit for bit (NaN matching NaN), and both flags, at f3
    under both gradient conventions and at x = 0. The forms are written once for
    floats and arrays, so this guards where the two part: the singular masks
    (dropping one divides a float by 0) and ``_from_raw``'s clamping; the pinned
    values above guard the shared arithmetic. Arrays raise no warning."""
    method, target = pair
    f3_cases = itertools.product((RegressionSample(x, y), RegressionSample(0.0, y)), (False, True))
    for sample, half in f3_cases if obj is F3 else [(None, False)]:
        table = rows + [
            _pinned(rows[0], obj, sample, half, quantity, t)
            for quantity in ("residual", "velocity", "u - g**2", "accumulators")
            for t in _NEAR_TOL
        ]
        columns = [np.array(c) for c in zip(*table)]
        many = _array_form(pair, obj, _form_state(columns, obj), sample, half, *columns[8:])
        n = len(table)
        value, raw, defined, feasible = (
            np.broadcast_to(getattr(many, f), n) for f in ("value", "raw", "defined", "feasible")
        )
        for i, row in enumerate(table):
            eta, alpha, beta, eps = row[8:]
            one = solve(
                method, target, obj, _form_state(row, obj), sample,
                eta=eta, alpha=alpha, beta=beta, epsilon=eps, f3_half_gradient=half,
            )
            assert (one.value.hex(), one.raw.hex()) == (float(value[i]).hex(), float(raw[i]).hex()), table[i]
            assert (one.defined, one.feasible) == (bool(defined[i]), bool(feasible[i])), table[i]


# The state slot each method moves; a closed form reads no other.
MOVED_SLOT = {
    Method.GD: None,
    Method.MOMENTUM: "velocity",
    Method.ADAGRAD: "grad_sq_sum",
    Method.RMSPROP: "weighted_grad_sq",
}


@pytest.mark.parametrize("obj", [F1, F2, F3], ids=lambda o: o.value)
@pytest.mark.parametrize("pair", list(NAMED_RULES), ids=lambda p: f"{p[0].value}-{p[1]}")
def test_a_closed_form_reads_only_its_methods_slot(pair, obj):
    # the slots the method does not move are NaN and change nothing; a NaN in
    # its own slot leaves every form but plain descent's undefined
    method, target = pair
    two = obj.arity == 2
    sample = RegressionSample(x=1.0, y=0.3) if obj is F3 else None
    clean = make_state(0.3, 0.4, 0.1, -0.2, 0.5, 0.6, 0.7, 0.8) if two else make_state(0.3, v_w=0.1, phi_w=0.5, u_w=0.7)
    nan = PerCoord(math.nan, math.nan if two else None)
    moved = MOVED_SLOT[method]
    others = {name: nan for name in ("velocity", "grad_sq_sum", "weighted_grad_sq") if name != moved}
    given = {"eta": 0.1, "alpha": 0.5, "beta": 0.5, "epsilon": 1e-8}
    want = solve(method, target, obj, clean, sample, **given)
    assert want.defined
    assert repr(solve(method, target, obj, replace(clean, **others), sample, **given)) == repr(want)
    if moved is not None:
        assert not solve(method, target, obj, replace(clean, **{moved: nan}), sample, **given).defined
