"""One definition of well-formed input: every layer refuses a state, point or
sample with the error ``step`` gives for it, word for word."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from hyperstep import (
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
    adagrad_step,
    argmin_hyper,
    finite_diff_gradient,
    gd_step,
    gradient,
    hyperopt,
    mean_post_step_error,
    momentum_step,
    pointwise_argmin_hyper,
    rmsprop_step,
    optimal_beta_rmsprop,
    optimal_lr_adagrad,
    optimal_lr_gd,
    optimal_lr_momentum,
    optimal_lr_rmsprop,
    optimal_momentum_coef,
    reproduce_table2,
    solve,
    step,
)
from hyperstep.harness import DEFAULT_HYPERS, HyperPolicy, RunConfig, detect_convergence, resolve_init, run_training
from hyperstep.optimizers import adagrad_post_view

F1, F2, F3 = ObjectiveId.F1, ObjectiveId.F2, ObjectiveId.F3
SAMPLE = RegressionSample(x=0.3, y=0.23)
SLOTS = ("velocity", "grad_sq_sum", "weighted_grad_sq")
GIVEN = {"eta": 0.1, "alpha": 0.5, "beta": 0.5, "epsilon": 1e-8}

# Each public rule with the given values it reads, one per ``hyperopt._FORMS`` pair.
RULES = {
    (Method.GD, "eta"): (optimal_lr_gd, {}),
    (Method.MOMENTUM, "eta"): (optimal_lr_momentum, {"alpha": 0.5}),
    (Method.MOMENTUM, "alpha"): (optimal_momentum_coef, {"eta": 0.1}),
    (Method.ADAGRAD, "eta"): (optimal_lr_adagrad, {"epsilon": 1e-8}),
    (Method.RMSPROP, "eta"): (optimal_lr_rmsprop, {"beta": 0.5, "epsilon": 1e-8}),
    (Method.RMSPROP, "beta"): (optimal_beta_rmsprop, {"eta": 0.1, "epsilon": 1e-8}),
}


def _well_formed(obj):
    two = obj.arity == 2

    def coords(w, b):
        return PerCoord(w, b if two else None)

    params = ParamPoint(0.3, 0.4 if two else None)
    state = OptimizerState(params, coords(0.1, -0.2), coords(0.5, 0.6), coords(0.7, 0.8))
    return state, SAMPLE if obj is F3 else None


def _faults(obj):
    """(id, state, sample, the text ``step`` refuses them with): each fault alone on a
    well-formed state and sample for ``obj``, then faults together, where the slots
    are checked first, in the state's order, then the params, then the sample."""
    state, sample = _well_formed(obj)
    n, two = obj.name, obj.arity == 2
    wrong_sample = None if obj is F3 else SAMPLE
    sample_text = "F3 requires a regression sample (x, y)" if obj is F3 else f"{n} does not take a regression sample"
    params = ParamPoint(0.3) if two else ParamPoint(0.3, 0.4)
    params_text = f"{n} needs both parameters w and b" if two else f"{n} takes a single parameter w, got b=0.4"
    slot = PerCoord(0.1) if two else PerCoord(0.1, 0.2)

    def slot_text(name):
        if two:
            return f"{name} is missing its b component for {n}"
        return f"{name} has a b component but {n} takes one parameter"

    yield "sample", state, wrong_sample, sample_text
    yield "params", replace(state, params=params), sample, params_text
    for name in SLOTS:
        yield name, replace(state, **{name: slot}), sample, slot_text(name)
    yield "params+sample", replace(state, params=params), wrong_sample, params_text
    yield "accumulators+params", replace(state, params=params, grad_sq_sum=slot, weighted_grad_sq=slot), sample, (
        slot_text("grad_sq_sum")
    )
    yield "all", replace(state, params=params, **dict.fromkeys(SLOTS, slot)), wrong_sample, slot_text("velocity")


FAULTS = [
    pytest.param(obj, state, sample, text, id=f"{obj.value}-{name}")
    for obj in ObjectiveId
    for name, state, sample, text in _faults(obj)
]
PAIRS = [pytest.param(pair, id=f"{pair[0].value}-{pair[1]}") for pair in RULES]


def _refusal(call) -> str:
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


def test_the_rule_table_covers_every_closed_form():
    # so the pairs below reach every method's step too
    assert sorted(RULES, key=str) == sorted(hyperopt._FORMS, key=str)


@pytest.mark.parametrize("pair", PAIRS)
def test_each_rule_is_given_its_methods_other_tunable_hyperparameter(pair):
    # ``hyperstep optimal`` and a run pair each solved value with the rest of
    # OPTIMIZED_HYPERS[method]; a rule reading another given value breaks that
    method, target = pair
    rule, given = RULES[pair]
    reads = set(inspect.signature(rule).parameters) & {"eta", "alpha", "beta"}
    assert reads == set(given) - {"epsilon"} == OPTIMIZED_HYPERS[method] - {target}


@pytest.mark.parametrize("obj, state, sample, text", FAULTS)
@pytest.mark.parametrize("pair", PAIRS)
def test_every_closed_form_refuses_each_fault_as_step_does(pair, obj, state, sample, text):
    rule, given = RULES[pair]
    by_step = _refusal(lambda: step(pair[0], state, HyperParams(eta=0.1), obj, sample))
    by_rule = _refusal(lambda: rule(obj, state, sample, **given))
    by_solve = _refusal(lambda: solve(*pair, obj, state, sample, **GIVEN))
    assert by_rule == by_solve == by_step == text


@pytest.mark.parametrize("obj, state, sample, text", FAULTS)
def test_the_adagrad_post_view_refuses_each_fault_as_step_does(obj, state, sample, text):
    assert _refusal(lambda: adagrad_post_view(state, obj, sample, f3_half_gradient=False)) == text


@pytest.mark.parametrize("obj", list(ObjectiveId), ids=lambda o: o.value)
def test_a_run_refuses_a_sample_or_initial_point_as_step_does(obj):
    state, sample = _well_formed(obj)
    wrong_sample = None if obj is F3 else SAMPLE
    wrong_init = ParamPoint(0.3) if obj.arity == 2 else ParamPoint(0.3, 0.4)
    fixed = HyperPolicy.fixed(DEFAULT_HYPERS)

    def config(**kw):
        return RunConfig(method=Method.GD, objective=obj, policy=fixed, **{"sample": sample, **kw})

    by_step = _refusal(lambda: step(Method.GD, state, DEFAULT_HYPERS, obj, wrong_sample))
    assert _refusal(lambda: config(sample=wrong_sample)) == by_step
    by_step = _refusal(lambda: step(Method.GD, replace(state, params=wrong_init), DEFAULT_HYPERS, obj, sample))
    assert _refusal(lambda: resolve_init(config(init=wrong_init))) == by_step
    assert _refusal(lambda: run_training(config(init=wrong_init))) == by_step


@pytest.mark.parametrize("obj", list(ObjectiveId), ids=lambda o: o.value)
def test_a_point_or_sample_of_the_wrong_type_is_refused_as_step_does(obj):
    # both used to escape as an AttributeError from the arity test or the residual
    state, sample = _well_formed(obj)
    point = (0.3, 0.4) if obj.arity == 2 else (0.3,)
    by_step = _refusal(lambda: step(Method.GD, replace(state, params=point), DEFAULT_HYPERS, obj, sample))
    assert by_step == f"point must be a ParamPoint, got {point!r}"
    assert _refusal(lambda: optimal_lr_gd(obj, replace(state, params=point), sample)) == by_step
    if obj is F3:
        by_step = _refusal(lambda: step(Method.GD, state, DEFAULT_HYPERS, obj, (0.3, 0.23)))
        assert by_step == "sample must be a RegressionSample, got (0.3, 0.23)"
        assert _refusal(lambda: optimal_lr_gd(obj, state, (0.3, 0.23))) == by_step


# A coordinate, x or y that is not a real number, each refused by its name rather
# than left to raise a bare TypeError from the residual's arithmetic.
NOT_REAL = [
    pytest.param(F1, ParamPoint("0.3"), None, "w", "'0.3'", id="f1-w-str"),
    pytest.param(F1, ParamPoint(None), None, "w", "None", id="f1-w-none"),
    pytest.param(F2, ParamPoint(0.3, 0.4j), None, "b", "0.4j", id="f2-b-complex"),
    pytest.param(F3, ParamPoint(0.3, 0.4), RegressionSample("1", 0.2), "x", "'1'", id="f3-x-str"),
    pytest.param(F3, ParamPoint(0.3, 0.4), RegressionSample(1.0, [0.2]), "y", "[0.2]", id="f3-y-list"),
    # a bool is refused, as HyperParams, the tolerance and every count refuse one
    pytest.param(F1, ParamPoint(True), None, "w", "True", id="f1-w-bool"),
    pytest.param(F2, ParamPoint(0.3, False), None, "b", "False", id="f2-b-bool"),
    pytest.param(F3, ParamPoint(0.3, 0.4), RegressionSample(True, 0.2), "x", "True", id="f3-x-bool"),
]


@pytest.mark.parametrize("obj, params, sample, field, got", NOT_REAL)
def test_a_value_that_is_not_a_real_number_is_refused_by_name(obj, params, sample, field, got):
    state = OptimizerState.initial(params)
    holder = "sample" if field in ("x", "y") else "point"
    text = f"{holder}.{field} must be a real number, got {got}"
    assert _refusal(lambda: step(Method.GD, state, DEFAULT_HYPERS, obj, sample)) == text
    assert _refusal(lambda: solve(Method.MOMENTUM, "eta", obj, state, sample, **GIVEN)) == text
    config_text = text.replace("point.", "init.")
    fixed = HyperPolicy.fixed(DEFAULT_HYPERS)
    assert _refusal(lambda: RunConfig(Method.GD, obj, fixed, sample=sample, init=params)) == config_text


# A slot coordinate that is not a real number, refused by the slot's name and field.
NOT_REAL_SLOTS = [
    pytest.param(obj, name, field, value, id=f"{obj.value}-{name}.{field}-{type(value).__name__}")
    for obj, field in ((F1, "w"), (F2, "b"), (F3, "w"))
    for name in SLOTS
    for value in ("0.1", True, [0.1])
]


@pytest.mark.parametrize("obj, name, field, value", NOT_REAL_SLOTS)
def test_a_slot_value_that_is_not_a_real_number_is_refused_by_name(obj, name, field, value):
    state, sample = _well_formed(obj)
    state = replace(state, **{name: replace(getattr(state, name), **{field: value})})
    text = f"{name}.{field} must be a real number, got {value!r}"
    for method in Method:
        assert _refusal(lambda: step(method, state, DEFAULT_HYPERS, obj, sample)) == text
    for (method, target), (rule, given) in RULES.items():
        assert _refusal(lambda: rule(obj, state, sample, **given)) == text
    assert _refusal(lambda: adagrad_post_view(state, obj, sample, f3_half_gradient=False)) == text


def test_numeric_arrays_and_numpy_scalars_are_real():
    # verify's columns and the analyzer's grids are arrays; numpy's own scalars pass too
    params = ParamPoint(np.array([0.3, 0.1], dtype=np.float32), np.array([1, 2]))
    sample = RegressionSample(np.float32(0.5), np.int64(1))
    stepped = step(Method.GD, OptimizerState.initial(params), DEFAULT_HYPERS, F3, sample)
    assert stepped.params.w.shape == stepped.params.b.shape == (2,)


# A state or slot of the wrong type, refused by name; each used to escape as a bare AttributeError.
_INITIAL = OptimizerState.initial(ParamPoint(0.3))
WRONG_TYPE = [
    pytest.param(replace(_INITIAL, velocity=None), "velocity must be a PerCoord, got None", id="slot-none"),
    pytest.param(replace(_INITIAL, velocity=(0.0,)), "velocity must be a PerCoord, got (0.0,)", id="slot-tuple"),
    pytest.param(replace(_INITIAL, grad_sq_sum=0.0), "grad_sq_sum must be a PerCoord, got 0.0", id="float-slot"),
    pytest.param("x", "state must be an OptimizerState, got 'x'", id="state-str"),
    pytest.param(None, "state must be an OptimizerState, got None", id="state-none"),
]


@pytest.mark.parametrize("state, text", WRONG_TYPE)
def test_a_state_or_slot_of_the_wrong_type_is_refused_by_name(state, text):
    assert _refusal(lambda: step(Method.GD, state, HyperParams(0.1), F1)) == text
    assert _refusal(lambda: solve(Method.GD, "eta", F1, state, **GIVEN)) == text
    assert _refusal(lambda: optimal_lr_momentum(F1, state, alpha=0.5)) == text
    assert _refusal(lambda: adagrad_post_view(state, F1, None, f3_half_gradient=False)) == text


# A run steps on floats: the array coordinates the oracles' checks pass are refused by field.
ARRAY_FIELDS = [
    pytest.param(F1, ParamPoint(np.array([0.3, 0.4])), None, "init.w", id="f1-init-w"),
    pytest.param(F2, ParamPoint(0.3, np.array([0.3, 0.4])), None, "init.b", id="f2-init-b"),
    pytest.param(F3, None, RegressionSample(np.array([0.3, 0.5]), 0.2), "sample.x", id="f3-sample-x"),
    pytest.param(F3, None, RegressionSample(0.3, np.array([0.2])), "sample.y", id="f3-sample-y"),
]


@pytest.mark.parametrize("obj, init, sample, field", ARRAY_FIELDS)
def test_a_run_refuses_an_array_coordinate_by_name(obj, init, sample, field):
    holder, name = field.split(".")
    value = getattr(init if holder == "init" else sample, name)
    text = f"{field} must be a real number, got {value!r}"
    fixed = HyperPolicy.fixed(DEFAULT_HYPERS)
    assert _refusal(lambda: RunConfig(Method.GD, obj, fixed, sample=sample, init=init)) == text
    if obj is F3:
        assert _refusal(lambda: reproduce_table2(sample=sample)) == text


@pytest.mark.parametrize("w", [0.3, np.float64(0.3), np.array(0.3)], ids=["float", "numpy-scalar", "0-d"])
def test_a_run_takes_a_numpy_scalar_or_0d_array_coordinate(w):
    fixed = HyperPolicy.fixed(DEFAULT_HYPERS)
    assert run_training(RunConfig(Method.GD, F1, fixed, init=ParamPoint(w))).converged_epoch == 56


def _fd_step(h):
    return finite_diff_gradient(F1, ParamPoint(0.3), step_size=h)


# A tolerance or a finite-difference step is a positive real (``objectives._require_positive``):
# a bool, a numpy bool included, used to be read as 1, a string to raise a TypeError, an
# infinite step to return a NaN gradient, and an array to run or to fail by numpy's error.
@pytest.mark.parametrize("take, value, text", [
    (_fd_step, True, "step_size must be a real number, got True"),
    (_fd_step, np.True_, f"step_size must be a real number, got {np.True_!r}"),
    (_fd_step, "a", "step_size must be a real number, got 'a'"),
    (_fd_step, float("inf"), "step_size must be finite, got inf"),
    (lambda v: RunConfig(Method.GD, F1, HyperPolicy.fixed(DEFAULT_HYPERS), tolerance=v), np.True_,
     f"tolerance must be a real number, got {np.True_!r}"),
    (lambda v: detect_convergence([], v), np.True_, f"tolerance must be a real number, got {np.True_!r}"),
    (_fd_step, np.array([1e-6]), f"step_size must be a real number, got {np.array([1e-6])!r}"),
    (lambda v: detect_convergence([], v), np.array([1e-3, 1e-2]),
     f"tolerance must be a real number, got {np.array([1e-3, 1e-2])!r}"),
], ids=["step-bool", "step-numpy-bool", "step-str", "step-inf", "config-numpy-bool", "convergence-numpy-bool",
        "step-array", "convergence-array"])
def test_a_tolerance_or_step_size_must_be_a_positive_real(take, value, text):
    assert _refusal(lambda: take(value)) == text


# A numpy bool compares as 0 or 1 as a Python bool does: HyperParams refuses either, a bool
# array included. A numpy bool beta used to run rmsprop as beta = 1, whose average never
# takes in a gradient.
_HYPER_ERRORS = {
    "eta": "eta must be a finite non-negative real", "alpha": "alpha must lie in [0, 1]",
    "beta": "beta must lie in [0, 1]", "epsilon": "epsilon must be a finite non-negative real",
}


@pytest.mark.parametrize("value", [np.True_, np.array(True), np.array([True, False])],
                         ids=["numpy-bool", "0d-bool-array", "bool-array"])
@pytest.mark.parametrize("field", list(_HYPER_ERRORS))
def test_hyperparams_refuse_a_numpy_bool_by_name(field, value):
    assert _refusal(lambda: HyperParams(**{"eta": 0.1, field: value})) == f"{_HYPER_ERRORS[field]}, got {value!r}"


# An f3 gradient convention is a bool on every checked path that takes the gradient, as
# ``RunConfig`` refuses one (``objectives._require_half_gradient``): "no" used to be read as
# the halved gradient and None as the standard one, by their truth values.
_TINY = SamplingSpec(SamplingMode.GRID, resolution=4)
_F3_STATE = OptimizerState.initial(ParamPoint(0.3, 0.2))
_F3_RUN = (_F3_STATE, DEFAULT_HYPERS, F3, SAMPLE)

HALF_ENTRIES = {
    "gradient": lambda h: gradient(F3, ParamPoint(0.3, 0.2), SAMPLE, f3_half_gradient=h),
    "step": lambda h: step(Method.GD, *_F3_RUN, f3_half_gradient=h),
    "gd_step": lambda h: gd_step(*_F3_RUN, f3_half_gradient=h),
    "momentum_step": lambda h: momentum_step(*_F3_RUN, f3_half_gradient=h),
    "adagrad_step": lambda h: adagrad_step(*_F3_RUN, f3_half_gradient=h),
    "rmsprop_step": lambda h: rmsprop_step(*_F3_RUN, f3_half_gradient=h),
    "adagrad_post_view": lambda h: adagrad_post_view(_F3_STATE, F3, SAMPLE, f3_half_gradient=h),
    "solve": lambda h: solve(Method.GD, "eta", F3, _F3_STATE, SAMPLE, **GIVEN, f3_half_gradient=h),
    "optimal_lr_rmsprop": lambda h: optimal_lr_rmsprop(
        F3, _F3_STATE, SAMPLE, beta=0.5, epsilon=1e-8, f3_half_gradient=h
    ),
    "optimal_beta_rmsprop": lambda h: optimal_beta_rmsprop(
        F3, _F3_STATE, SAMPLE, eta=0.1, epsilon=1e-8, f3_half_gradient=h
    ),
    "argmin_hyper": lambda h: argmin_hyper(
        Method.GD, F3, "eta", DEFAULT_HYPERS, SAMPLE, _TINY, _F3_STATE, f3_half_gradient=h
    ),
    "pointwise_argmin_hyper": lambda h: pointwise_argmin_hyper(
        Method.GD, F3, "eta", DEFAULT_HYPERS, SAMPLE, _F3_STATE, f3_half_gradient=h
    ),
    "mean_post_step_error": lambda h: mean_post_step_error(
        Method.GD, F3, DEFAULT_HYPERS, SAMPLE, _TINY, _F3_STATE, f3_half_gradient=h
    ),
}


@pytest.mark.parametrize("value", ["no", None, 1, np.True_], ids=["str", "none", "int", "numpy-bool"])
@pytest.mark.parametrize("entry", list(HALF_ENTRIES))
def test_an_f3_convention_that_is_not_a_bool_is_refused_by_every_entry(entry, value):
    assert _refusal(lambda: HALF_ENTRIES[entry](value)) == f"f3_half_gradient must be a bool, got {value!r}"


_F1_STATE = OptimizerState.initial(ParamPoint(0.3))
_METHOD_TEXT = "method must be a Method (GD, MOMENTUM, ADAGRAD, RMSPROP), got 'gd'"
_OBJECTIVE_TEXT = "objective must be an ObjectiveId (F1, F2, F3), got 'f1'"

# A method, objective, hyperparameters, sampling spec or given value of the wrong type,
# refused by name; each used to escape as a KeyError, an AttributeError or a TypeError,
# or (a bool given value) to run as 1.0.
WRONG_TYPED = [
    pytest.param(lambda: step("gd", _F1_STATE, DEFAULT_HYPERS, F1), _METHOD_TEXT, id="step-method"),
    pytest.param(
        lambda: argmin_hyper("gd", F1, "eta", DEFAULT_HYPERS, None, _TINY, _F1_STATE), _METHOD_TEXT,
        id="argmin-method",
    ),
    pytest.param(
        lambda: pointwise_argmin_hyper("gd", F1, "eta", DEFAULT_HYPERS, None, _F1_STATE), _METHOD_TEXT,
        id="pointwise-method",
    ),
    pytest.param(
        lambda: mean_post_step_error("gd", F1, DEFAULT_HYPERS, None, _TINY, _F1_STATE), _METHOD_TEXT,
        id="mean-error-method",
    ),
    pytest.param(lambda: gradient("f1", ParamPoint(0.3)), _OBJECTIVE_TEXT, id="gradient-objective"),
    pytest.param(lambda: step(Method.GD, _F1_STATE, DEFAULT_HYPERS, "f1"), _OBJECTIVE_TEXT, id="step-objective"),
    pytest.param(lambda: solve(Method.GD, "eta", "f1", _F1_STATE, **GIVEN), _OBJECTIVE_TEXT, id="solve-objective"),
    pytest.param(
        lambda: argmin_hyper(Method.GD, "f1", "eta", DEFAULT_HYPERS, None, _TINY, _F1_STATE), _OBJECTIVE_TEXT,
        id="argmin-objective",
    ),
    pytest.param(lambda: step(Method.GD, _F1_STATE, None, F1), "hyper must be a HyperParams, got None", id="step-hyper"),
    pytest.param(
        lambda: mean_post_step_error(Method.GD, F1, {"eta": 0.1}, None, _TINY, _F1_STATE),
        "hyper must be a HyperParams, got {'eta': 0.1}", id="mean-error-hyper",
    ),
    pytest.param(
        lambda: argmin_hyper(Method.GD, F1, "eta", "x", None, _TINY, _F1_STATE),
        "fixed must be a HyperParams, got 'x'", id="argmin-fixed",
    ),
    pytest.param(
        lambda: pointwise_argmin_hyper(Method.GD, F1, "eta", "x", None, _F1_STATE),
        "fixed must be a HyperParams, got 'x'", id="pointwise-fixed",
    ),
    pytest.param(
        lambda: argmin_hyper(Method.GD, F1, "eta", DEFAULT_HYPERS, None, None, _F1_STATE),
        "spec must be a SamplingSpec, got None", id="argmin-spec",
    ),
    pytest.param(
        lambda: mean_post_step_error(Method.GD, F1, DEFAULT_HYPERS, None, "grid", _F1_STATE),
        "spec must be a SamplingSpec, got 'grid'", id="mean-error-spec",
    ),
    pytest.param(lambda: optimal_lr_momentum(F1, _F1_STATE, alpha="x"), "alpha must be a real number, got 'x'",
                 id="momentum-lr-alpha-str"),
    pytest.param(lambda: optimal_lr_momentum(F1, _F1_STATE, alpha=None), "alpha must be a real number, got None",
                 id="momentum-lr-alpha-none"),
    pytest.param(lambda: optimal_lr_momentum(F1, _F1_STATE, alpha=True), "alpha must be a real number, got True",
                 id="momentum-lr-alpha-bool"),
    pytest.param(lambda: optimal_lr_adagrad(F1, _F1_STATE, epsilon=True), "epsilon must be a real number, got True",
                 id="adagrad-lr-epsilon-bool"),
    pytest.param(lambda: optimal_momentum_coef(F1, _F1_STATE, eta=np.True_),
                 f"eta must be a real number, got {np.True_!r}", id="momentum-coef-eta-numpy-bool"),
    pytest.param(lambda: solve(Method.RMSPROP, "beta", F1, _F1_STATE, eta=0.1, alpha=None, beta=None, epsilon="0"),
                 "epsilon must be a real number, got '0'", id="solve-rmsprop-beta-epsilon"),
]


@pytest.mark.parametrize("call, text", WRONG_TYPED)
def test_an_argument_of_the_wrong_type_is_refused_by_name(call, text):
    assert _refusal(call) == text


@pytest.mark.parametrize("value", [-1.0, 2.0, math.inf, -math.inf, math.nan, np.float64(0.5), 3])
def test_any_real_given_value_still_solves(value):
    # a closed form reads a given value as a number, as it reads that number's float; only
    # one that is not a real is refused
    def read(fv):
        return float(fv.value).hex(), float(fv.raw).hex(), bool(fv.feasible), bool(fv.defined)

    for rule, given in RULES.values():
        got = rule(F1, _F1_STATE, **{name: value for name in given})
        assert read(got) == read(rule(F1, _F1_STATE, **{name: float(value) for name in given}))
    # and a value a pair's core does not read is not checked: gd's rate reads none
    assert solve(Method.GD, "eta", F1, _F1_STATE, eta="x", alpha="x", beta="x", epsilon="x").value == 0.5
