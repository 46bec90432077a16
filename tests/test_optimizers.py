"""Update rules: worked examples, equivalences, and state handling."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from hyperstep import (
    HyperParams,
    Method,
    NonFiniteGradientError,
    ObjectiveId,
    OptimizerState,
    ParamPoint,
    PerCoord,
    SINGULAR_TOL,
    RegressionSample,
    adagrad_step,
    evaluate,
    gd_step,
    momentum_step,
    optimal_lr_gd,
    rmsprop_step,
    step,
)

F1, F2, F3 = ObjectiveId.F1, ObjectiveId.F2, ObjectiveId.F3
SAMPLE = RegressionSample(x=0.3, y=0.23)


def make_state(w, b=None, v_w=0.0, v_b=None, phi_w=0.0, phi_b=None, u_w=0.0, u_b=None):
    two = b is not None
    if two:
        v_b = 0.0 if v_b is None else v_b
        phi_b = 0.0 if phi_b is None else phi_b
        u_b = 0.0 if u_b is None else u_b
    return OptimizerState(
        params=ParamPoint(w=w, b=b),
        velocity=PerCoord(w=v_w, b=v_b),
        grad_sq_sum=PerCoord(w=phi_w, b=phi_b),
        weighted_grad_sq=PerCoord(w=u_w, b=u_b),
    )


def test_gd_worked_example():
    out = gd_step(make_state(0.3, 0.4), HyperParams(eta=0.25), F2)
    assert out.params.w == pytest.approx(-0.05, rel=1e-12)
    assert out.params.b == pytest.approx(0.05, rel=1e-12)
    assert out.epoch == 2


def test_momentum_worked_examples():
    out = momentum_step(make_state(0.3, v_w=0.1), HyperParams(eta=0.375, alpha=0.5), F1)
    assert out.velocity.w == pytest.approx(0.2, rel=1e-12)
    assert out.params.w == pytest.approx(0.5, rel=1e-12)

    out = momentum_step(
        make_state(0.3, 0.4, v_w=0.1, v_b=0.1), HyperParams(eta=0.25, alpha=0.5), F2
    )
    assert out.params.w == pytest.approx(0.0, abs=1e-15)
    assert out.params.b == pytest.approx(0.1, rel=1e-12)


def test_adagrad_worked_example():
    out = adagrad_step(make_state(0.3), HyperParams(eta=0.2, epsilon=1e-8), F1)
    assert out.grad_sq_sum.w == pytest.approx(0.16, rel=1e-12)
    assert out.params.w == pytest.approx(0.49999999, abs=1e-7)
    # the divisor uses the post-accumulation sum, so the step is
    # 0.2 * 0.4 / sqrt(0.16 + 1e-8), just short of reaching 0.5
    assert out.params.w < 0.5


def test_adagrad_zero_gradient_is_a_no_op():
    state = make_state(0.5, phi_w=0.3)
    out = adagrad_step(state, HyperParams(eta=0.2, epsilon=1e-8), F1)
    assert out.params.w == 0.5
    assert out.grad_sq_sum.w == 0.3


@pytest.mark.parametrize("method", [Method.ADAGRAD, Method.RMSPROP])
@pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
def test_zero_gradient_coordinate_stays_put_at_zero_epsilon(method, array):
    # at x = 0 f3's w has no gradient and a zero divisor when epsilon = 0
    coord = (lambda v: np.array([v, v])) if array else (lambda v: v)
    zero = PerCoord(w=coord(0.0), b=coord(0.0))
    state = OptimizerState(ParamPoint(w=coord(0.3), b=coord(0.3)), zero, zero, zero)
    hyper = HyperParams(eta=0.1, beta=0.5, epsilon=0.0)
    with np.errstate(all="raise"):
        out = step(method, state, hyper, F3, RegressionSample(x=0.0, y=0.5))
    name = "grad_sq_sum" if method is Method.ADAGRAD else "weighted_grad_sq"
    assert np.all(out.params.w == 0.3)
    assert np.all(getattr(out, name).w == 0.0)
    assert np.all(out.params.b > 0.3)
    assert np.all(getattr(out, name).b > 0.0)


@pytest.mark.parametrize("method", [Method.ADAGRAD, Method.RMSPROP])
@pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
def test_subnormal_gradient_at_zero_epsilon_takes_a_plain_descent_step(method, array):
    # f2's gradient at (1e-310, 0) is 2e-310 on both coordinates; its square
    # underflows to 0, so at epsilon = 0 the divisor is 1 and not sqrt(0)
    coord = (lambda v: np.array([v, v])) if array else (lambda v: v)
    state = OptimizerState.initial(ParamPoint(coord(1e-310), coord(0.0)))
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        out = step(method, state, HyperParams(0.1, epsilon=0.0), F2)
    g = 2e-310
    name = "grad_sq_sum" if method is Method.ADAGRAD else "weighted_grad_sq"
    assert np.all(out.params.w == 1e-310 - 0.1 * g)
    assert np.all(out.params.b == 0.0 - 0.1 * g)
    assert np.all(getattr(out, name).w == 0.0)
    assert np.all(getattr(out, name).b == 0.0)


@pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
def test_rmsprop_gradient_share_underflow_at_zero_epsilon_takes_a_plain_descent_step(array):
    # g * g = 4e-320 registers, but at beta = 1 - 2**-52 its share (1 - beta) * g * g
    # underflows: the accumulator read the gradient and is still 0, so the divisor is 1
    coord = (lambda v: np.array([v, v])) if array else (lambda v: v)
    state = OptimizerState.initial(ParamPoint(coord(1e-160), coord(0.0)))
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        out = step(Method.RMSPROP, state, HyperParams(0.1, beta=1 - 2**-52, epsilon=0.0), F2)
    assert np.all(out.params.w == 1e-160 - 0.1 * 2e-160)
    assert np.all(out.params.b == 0.0 - 0.1 * 2e-160)
    assert np.all(out.weighted_grad_sq.w == 0.0)


def test_zero_divisor_with_a_gradient_still_diverges():
    # beta = 1 keeps u at 0, so the step divides a nonzero gradient by 0
    state = make_state(0.3, u_w=0.0)
    out = rmsprop_step(state, HyperParams(eta=0.1, beta=1.0, epsilon=0.0), F1)
    assert math.isinf(out.params.w)


def test_rmsprop_worked_examples():
    out = rmsprop_step(
        make_state(0.3, u_w=0.2), HyperParams(eta=0.21, beta=0.41, epsilon=0.0), F1
    )
    assert abs(out.params.w - 0.5) <= 1e-9

    out = rmsprop_step(
        make_state(0.5, u_w=0.2), HyperParams(eta=0.2, beta=0.5, epsilon=1e-8), F1
    )
    assert out.weighted_grad_sq.w == pytest.approx(0.1, rel=1e-12)
    assert out.params.w == 0.5  # zero gradient moves nothing


def test_momentum_with_zero_coefficient_is_plain_descent():
    rng = np.random.default_rng(3)
    hyper = HyperParams(eta=0.37)
    for obj in (F1, F2, F3):
        s = SAMPLE if obj is F3 else None
        for _ in range(100):
            st = make_state(
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)) if obj.arity == 2 else None,
            )
            a = gd_step(st, hyper, obj, s)
            b = momentum_step(st, HyperParams(eta=0.37, alpha=0.0), obj, s)
            assert a.params.w == b.params.w
            assert a.params.b == b.params.b


def test_rmsprop_with_beta_zero_matches_first_adagrad_step():
    # both divide by sqrt(g**2 + eps) when the accumulators start at zero
    rng = np.random.default_rng(4)
    hyper = HyperParams(eta=0.2, beta=0.0, epsilon=1e-8)
    for obj in (F1, F2, F3):
        s = SAMPLE if obj is F3 else None
        for _ in range(100):
            st = make_state(
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)) if obj.arity == 2 else None,
            )
            a = adagrad_step(st, HyperParams(eta=0.2, epsilon=1e-8), obj, s)
            b = rmsprop_step(st, hyper, obj, s)
            assert a.params.w == b.params.w
            assert a.params.b == b.params.b


def test_gd_one_step_convergence_at_closed_form_rate():
    rng = np.random.default_rng(5)
    for obj in (F1, F2):
        for _ in range(1000):
            st = make_state(
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)) if obj.arity == 2 else None,
            )
            eta = optimal_lr_gd(obj, st).value
            out = gd_step(st, HyperParams(eta=eta), obj)
            assert evaluate(obj, out.params) <= 1e-28


def test_accumulator_monotonicity():
    st = make_state(0.3, phi_w=0.0)
    hyper = HyperParams(eta=0.1, epsilon=1e-8)
    for _ in range(20):
        nxt = adagrad_step(st, hyper, F1)
        assert nxt.grad_sq_sum.w >= st.grad_sq_sum.w
        st = nxt


def test_steps_do_not_mutate_input_state():
    st = make_state(0.3, 0.4, v_w=0.1, v_b=0.2, phi_w=0.5, phi_b=0.6, u_w=0.7, u_b=0.8)
    before = (st.params, st.velocity, st.grad_sq_sum, st.weighted_grad_sq, st.epoch)
    for method in Method:
        step(method, st, HyperParams(eta=0.1, alpha=0.5, beta=0.5), F2)
    assert (st.params, st.velocity, st.grad_sq_sum, st.weighted_grad_sq, st.epoch) == before


def test_epoch_counter_increments():
    st = make_state(0.3)
    out = gd_step(st, HyperParams(eta=0.1), F1)
    assert (st.epoch, out.epoch) == (1, 2)
    assert gd_step(out, HyperParams(eta=0.1), F1).epoch == 3


def test_non_finite_gradient_raises():
    # 2 * (1e308 - 0.5) overflows, so every rule must refuse the step
    # an array state is refused when any one of its rows is
    for st in (make_state(1e308), make_state(np.array([0.3, 1e308, 0.7]))):
        for method in Method:
            with pytest.raises(NonFiniteGradientError), np.errstate(over="ignore"):
                step(method, st, HyperParams(eta=1.0, alpha=0.5, beta=0.5), F1)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(eta=float("nan"))
    with pytest.raises(ValueError):
        HyperParams(eta=-0.1)
    with pytest.raises(ValueError):
        HyperParams(eta=0.1, alpha=1.5)
    with pytest.raises(ValueError):
        HyperParams(eta=0.1, beta=-0.2)
    with pytest.raises(ValueError):
        HyperParams(eta=0.1, epsilon=-1e-8)
    HyperParams(eta=0.1, epsilon=0.0)  # zero epsilon is allowed


def test_hyperparams_check_arrays_elementwise():
    ok = np.array([[0.0], [0.5], [1.0]])
    HyperParams(eta=ok, alpha=ok, beta=ok, epsilon=ok)
    for name, bad in (("eta", np.inf), ("alpha", 1.5), ("beta", np.nan), ("epsilon", -1e-8)):
        with pytest.raises(ValueError, match=f"^{name} must"):
            HyperParams(**{"eta": ok, name: np.array([[0.5], [bad], [0.5]])})


@pytest.mark.parametrize("name, value, text", [
    ("eta", "0.1", "eta must be a finite non-negative real, got '0.1'"),
    ("alpha", "0.5", "alpha must lie in [0, 1], got '0.5'"),
    ("beta", None, "beta must lie in [0, 1], got None"),
    ("epsilon", [1e-8], "epsilon must be a finite non-negative real, got [1e-08]"),
    ("eta", 0.1j, "eta must be a finite non-negative real, got 0.1j"),
    ("alpha", np.array([["0.5"]]), "alpha must lie in [0, 1], got array([['0.5']], dtype='<U3')"),
], ids=["eta-str", "alpha-str", "beta-none", "epsilon-list", "eta-complex", "alpha-str-array"])
def test_hyperparams_refuse_a_value_that_is_not_a_number_by_name(name, value, text):
    # each used to escape as a bare TypeError from the range comparison
    with pytest.raises(ValueError) as err:
        HyperParams(**{"eta": 0.1, name: value})
    assert str(err.value) == text


def test_state_arity_is_checked_against_objective():
    with pytest.raises(ValueError):
        gd_step(make_state(0.3, 0.4), HyperParams(eta=0.1), F1)
    with pytest.raises(ValueError):
        gd_step(make_state(0.3), HyperParams(eta=0.1), F2)


def test_initial_state_matches_params():
    st = OptimizerState.initial(ParamPoint(w=0.3, b=0.4))
    assert st.velocity == PerCoord(w=0.0, b=0.0)
    assert st.grad_sq_sum == PerCoord(w=0.0, b=0.0)
    assert st.weighted_grad_sq == PerCoord(w=0.0, b=0.0)
    assert st.epoch == 1
    one = OptimizerState.initial(ParamPoint(w=0.3))
    assert one.velocity.b is None


def test_dispatcher_agrees_with_direct_calls():
    st = make_state(0.3, v_w=0.1)
    hyper = HyperParams(eta=0.375, alpha=0.5)
    assert step(Method.MOMENTUM, st, hyper, F1).params.w == momentum_step(st, hyper, F1).params.w


_SLOTS = ("params", "velocity", "grad_sq_sum", "weighted_grad_sq")
# coordinates up to 1e6 in size, accumulators >= 0 around SINGULAR_TOL, and the edges x = 0, epsilon = 0
_COORD = strategies.one_of(strategies.sampled_from([0.0, -0.0, 0.5, 1e6, -1e6]), strategies.floats(-1e6, 1e6))
_ACC = strategies.one_of(
    strategies.sampled_from([0.0, SINGULAR_TOL, 0.5 * SINGULAR_TOL, 2.0 * SINGULAR_TOL]),
    strategies.floats(0.0, 1e6),
)
_ROW = strategies.tuples(_COORD, _COORD, _COORD, _COORD, _ACC, _ACC, _ACC, _ACC)
_UNIT = strategies.floats(0.0, 1.0)


def _same_bits(a, b):
    """Equal bit for bit: signed zeros and the signs and payloads of NaNs told apart."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _row_state(columns, obj, i=None):
    """The state over all rows (numpy arrays) or, given ``i``, row i alone (floats)."""
    pick = (lambda c: np.array(c)) if i is None else (lambda c: float(c[i]))
    w, b, v_w, v_b, phi_w, phi_b, u_w, u_b = map(pick, columns)
    if obj.arity == 1:
        b = v_b = phi_b = u_b = None
    return OptimizerState(
        params=ParamPoint(w=w, b=b),
        velocity=PerCoord(w=v_w, b=v_b),
        grad_sq_sum=PerCoord(w=phi_w, b=phi_b),
        weighted_grad_sq=PerCoord(w=u_w, b=u_b),
    )


# the divisors Python refuses or passes through, at (0.3, 0.3) with x = 0.3, y = 0.23
# and epsilon = 0, where every gradient is nonzero: rmsprop's x / 0 (beta = 1 keeps u
# at 0) and 0 / 0 (eta = 0 too), then a negative (below -g * g) and a NaN accumulator
_EDGE = dict(x=0.3, y=0.23)
_ZERO_U = (0.3, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "method, obj, half",
    [(m, o, h) for m, o, h in itertools.product(Method, (F1, F2, F3), (False, True)) if o is F3 or not h],
    ids=lambda v: v.value if hasattr(v, "value") else ("half" if v else "std"),
)
@example(rows=[_ZERO_U], **_EDGE, hyper=HyperParams(0.1, beta=1.0, epsilon=0.0))
@example(rows=[_ZERO_U], **_EDGE, hyper=HyperParams(0.0, beta=1.0, epsilon=0.0))
@example(rows=[(0.3, 0.3, 0.0, 0.0, *[-1.0] * 4)], **_EDGE, hyper=HyperParams(0.1, beta=1.0, epsilon=0.0))
@example(rows=[(0.3, 0.3, 0.0, 0.0, *[math.nan] * 4)], **_EDGE, hyper=HyperParams(0.1, epsilon=0.0))
@settings(max_examples=30, deadline=None, database=None)
@given(
    rows=strategies.lists(_ROW, min_size=1, max_size=5),
    x=strategies.one_of(strategies.just(0.0), strategies.floats(-1e3, 1e3)),
    y=_COORD,
    hyper=strategies.builds(
        HyperParams, eta=_UNIT, alpha=_UNIT, beta=_UNIT,
        epsilon=strategies.one_of(strategies.just(0.0), strategies.floats(0.0, 1e-3)),
    ),
)
def test_array_step_equals_per_row_scalar_steps(method, obj, half, rows, x, y, hyper):
    columns = list(zip(*rows))
    sample = RegressionSample(x=x, y=y) if obj is F3 else None
    with np.errstate(divide="ignore", invalid="ignore"):  # numpy warns at a zero, negative or NaN divisor
        batched = step(method, _row_state(columns, obj), hyper, obj, sample, f3_half_gradient=half)
    for i in range(len(rows)):
        # a float step computes the same edges in plain floats, so no numpy warning can arise
        single = step(method, _row_state(columns, obj, i), hyper, obj, sample, f3_half_gradient=half)
        assert single.epoch == batched.epoch
        for name in _SLOTS:
            one, many = getattr(single, name), getattr(batched, name)
            assert _same_bits(one.w, many.w[i]), (name, "w")
            if obj.arity == 2:
                assert _same_bits(one.b, many.b[i]), (name, "b")


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize(
    "b, beta, epsilon", [(0.4, 0.5, 1e-8), (-0.3, 0.5, 0.0), (0.4, 1.0, 0.0)], ids=["eps", "eps0", "eps0-beta1"]
)
def test_float_steps_stay_plain_floats(method, b, beta, epsilon):
    # numpy's scalars are for arrays alone. At epsilon = 0 the first step meets f2's
    # zero gradient at (0.3, -0.3), whose divisor is 1; at beta = 1 too, rmsprop's
    # divisor at (0.3, 0.4) is 0, and the step goes to inf in plain floats
    state = make_state(0.3, b)
    hyper = HyperParams(eta=0.1, alpha=0.5, beta=beta, epsilon=epsilon)
    for _ in range(3):
        state = step(method, state, hyper, F2)
        coords = [getattr(state, name) for name in ("params", "velocity", "grad_sq_sum", "weighted_grad_sq")]
        assert all(c.__class__ is float for slot in coords for c in (slot.w, slot.b)), state
        if math.isinf(state.params.w):  # the next step would refuse the infinite gradient
            assert (method, beta) == (Method.RMSPROP, 1.0)
            break
