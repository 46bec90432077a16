"""Pinned oracle reports: a moved random draw or a changed bit anywhere in the
oracle layer (``analyzer`` searches, ``verify`` samplers and rows) fails here.

``oracle_reports.json`` holds each report as ``cli._json_text`` renders it;
JSON floats round-trip exactly, so the comparison is bit for bit.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from hyperstep import Method, ObjectiveId, analyzer, cli, harness, hyperopt, verify
from hyperstep.cli import _json_text

PINNED = json.loads(Path(__file__).with_name("oracle_reports.json").read_text())

CASES = {
    **{
        f"report/{scope}/{seed}": (verify.report, (scope, 200, seed), {})
        for scope in ("gradients", "one-step")
        for seed in (0, 3)
    },
    **{
        f"pointwise/{m.value}": (verify.check_argmin_pointwise, (m,), {"seed": 7, "states": 5})
        for m in (Method.MOMENTUM, Method.ADAGRAD, Method.RMSPROP)
    },
    # at the size ``hyperstep verify`` runs: seed 0, 100 states
    **{
        f"pointwise/{m.value}/0": (verify.check_argmin_pointwise, (m, 0), {})
        for m in (Method.MOMENTUM, Method.ADAGRAD, Method.RMSPROP)
    },
    "gd": (verify.check_argmin_gd, (), {}),
}


def test_every_pinned_report_has_a_case():
    assert sorted(CASES) == sorted(PINNED)


@pytest.mark.parametrize("key", sorted(CASES))
def test_oracle_report_is_pinned(key):
    fn, args, kwargs = CASES[key]
    assert _json_text(fn(*args, **kwargs)) == _json_text(PINNED[key])


@pytest.mark.parametrize(
    "samples, seed, message",
    [
        (2.5, 0, "samples must be an integer, got 2.5"),
        (10, 1.5, "seed must be an integer, got 1.5"),
        (10, True, "seed must be an integer, got True"),
        (True, 0, "samples must be an integer, got True"),
    ],
)
def test_report_takes_integer_samples_and_seed(samples, seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify.report("gradients", samples, seed)


@pytest.mark.parametrize(
    "states, message", [(0, "at least 1, got 0"), (1.5, "an integer, got 1.5"), (True, "an integer, got True")]
)
def test_pointwise_check_takes_a_positive_integer_state_count(states, message):
    with pytest.raises(ValueError, match=f"^states must be {message}$"):
        verify.check_argmin_pointwise(Method.ADAGRAD, 0, states)


@pytest.mark.parametrize(
    "seed, message",
    [(1.5, "an integer, got 1.5"), (True, "an integer, got True"), (-1, "non-negative, got -1")],
)
def test_pointwise_check_takes_a_non_negative_integer_seed(seed, message):
    with pytest.raises(ValueError, match=f"^seed must be {message}$"):
        verify.check_argmin_pointwise(Method.ADAGRAD, seed)


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify.report("one-step", 5, 0, "gd"),
        lambda: verify.report("argmin", 5, 0, Method.GD.value),
        lambda: verify.check_argmin_pointwise("gd", 0),
    ],
    ids=["report/one-step", "report/argmin", "pointwise"],
)
def test_a_method_that_is_not_a_method_member_is_refused_by_name(call):
    with pytest.raises(ValueError, match=r"^method must be a Method \(GD, MOMENTUM, ADAGRAD, RMSPROP\), got 'gd'$"):
        call()


@pytest.mark.parametrize("states, compared", [(5, 15), (100, 300)])
def test_the_pointwise_check_takes_plain_descent_whose_rate_is_one_float(states, compared):
    # the one gd rate stands for every row of the table; ``report`` sends gd to check_argmin_gd
    row = verify.check_argmin_pointwise(Method.GD, 0, states)
    assert (row["passed"], row["compared"], row["min_defined_fraction"]) == (True, compared, 1.0)
    assert row["max_deviation"] == 1.7958157183528556e-10


def test_the_argmin_report_takes_its_pinned_number_of_curve_steps(monkeypatch):
    # Each scan asks for its 64 points in as few calls as the budget allows; one call
    # per point changes this count (the unbatched search took 2040, and three slabs per
    # 40,000-point grid call took 1831). A curve call takes one buffered residual over
    # its whole (curves, k, grid) block, so the residuals count the calls.
    steps = []
    real = analyzer._residual_into

    def counted(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(analyzer, "_residual_into", counted)
    assert verify.report("argmin", 1000, 0)["passed"]
    assert len(steps) == 1012


def test_pointwise_check_fails_when_no_state_is_compared(monkeypatch):
    # every state defined but infeasible: no search runs, so the check cannot pass
    def infeasible(obj, s_w, s_b, sample, r, *_):
        return np.full_like(r, 2.0), False

    monkeypatch.setitem(hyperopt._FORMS, (Method.ADAGRAD, "eta"), infeasible)
    row = verify.check_argmin_pointwise(Method.ADAGRAD, 0, 3)
    assert (row["compared"], row["min_defined_fraction"], row["passed"]) == (0, 1.0, False)


@pytest.mark.parametrize("undefined, fraction, passed", [(5, 0.95, True), (6, 0.94, False)])
def test_a_pointwise_check_passes_with_95_of_its_100_states_defined(monkeypatch, undefined, fraction, passed):
    # the real form with its first rows undefined in every table: the pass rule's boundary
    real = hyperopt._FORMS[Method.ADAGRAD, "eta"]

    def fewer(*args):
        raw, singular = real(*args)
        return raw, (np.arange(len(raw)) < undefined) | singular

    monkeypatch.setitem(hyperopt._FORMS, (Method.ADAGRAD, "eta"), fewer)
    row = verify.check_argmin_pointwise(Method.ADAGRAD, 0)
    assert (row["compared"], row["min_defined_fraction"], row["passed"]) == (3 * (100 - undefined), fraction, passed)
    assert row["max_deviation"] <= row["tolerance"]


def test_one_step_check_fails_when_no_draw_is_kept(monkeypatch):
    # every draw defined but infeasible: nothing is stepped, so the check cannot pass
    def infeasible(obj, s_w, s_b, sample, r, *_):
        return np.full_like(r, 2.0), False

    monkeypatch.setitem(hyperopt._FORMS, (Method.ADAGRAD, "eta"), infeasible)
    row = verify._check_one_step(Method.ADAGRAD, 3, 0)
    assert (row["tested"], row["max_deviation"], row["passed"]) == (0, 0.0, False)


# every column layout the checks draw: gradients, pointwise per target, one-step per coefficient
LAYOUTS = {
    **{f"gradients/{o.value}": [verify._UNIT] * o.arity for o in ObjectiveId},
    **{
        f"pointwise/{o.value}/{t}": verify._pointwise_columns(o, t)
        for o in ObjectiveId for t in ("eta", "alpha", "beta")
    },
    **{
        f"one-step/{o.value}/{c}": verify._one_step_columns(o, c)
        for o in ObjectiveId for c in (None, "alpha", "beta")
    },
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_block_draw_equals_successive_single_row_draws(layout):
    columns = LAYOUTS[layout]
    block = verify._draw(np.random.default_rng(9), 40, columns)
    rng = np.random.default_rng(9)
    rows = np.vstack([verify._draw(rng, 1, columns) for _ in range(40)])
    assert block.tobytes() == rows.tobytes()
    # and one row is the scalar draws, column by column: uniform(lo, hi), or 1 - u from (0, 1]
    rng = np.random.default_rng(9)
    for row in block.tolist():
        scalar = [
            1.0 - float(rng.random()) if c == verify._OPEN_UNIT else float(rng.uniform(*c)) for c in columns
        ]
        assert [x.hex() for x in row] == [x.hex() for x in scalar]


def _load_tracer():
    """perfbench's tracer module, loaded read-only from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _verify_and_table2():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--seed", "0"])
    return code, out.getvalue(), err.getvalue(), repr(harness.reproduce_table2())


def test_the_tracer_sees_floats_at_every_public_hyperopt_name():
    # The tracer wraps every public function wherever it is bound, and its hyperopt
    # hook reads ``bool(result.defined)``: an array reaching or leaving a public
    # hyperopt name would raise there and turn verify's exit code to 1.
    tracer = _load_tracer().Tracer()
    untraced = _verify_and_table2()
    tracer.install()
    try:
        traced = _verify_and_table2()
    finally:
        tracer.uninstall()
    assert untraced[0] == 0
    assert traced == untraced
    assert tracer.counts["hyperopt.results"] > 0
