"""Tests of the benchmark itself, at tiny sizes: one small round per workload.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import copy
import math

import pytest

from hyperstep import analyzer, harness, hyperopt, optimizers
from hyperstep.harness import RandomInit, reproduce_table2
from perfbench import bench, tracer, workloads
from perfbench.workloads import CliOp

TINY_ROUNDS = {
    "oracle-verify": [[CliOp(workloads.verify_argv(0, "gradients"))]],
    "train-sweep": [workloads.train_round(0)[:4]],
    "cli-cold": [[CliOp(("optimal", "--method", "gd", "--objective", "f1"))]],
}


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_emits_every_named_metric_with_its_unit(workload, trace, golden):
    result, record = bench.run(workload, 0, 0.0, trace, golden=golden, rounds=TINY_ROUNDS[workload], probes=1)
    spec = bench.load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {w["name"]: w["unit"] for w in wanted}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["environment"]["numpy"] and record["environment"]["nproc"] >= 1


def _span(t: tracer.Tracer, name: str, start: float, end: float, parent: int) -> int:
    t.span_name.append(t._name_id(name))
    t.parent.append(parent)
    t.op.append(0)
    t.start.append(start)
    t.end.append(end)
    return len(t.end) - 1


def test_self_time_subtracts_direct_children_on_a_synthetic_nest():
    t = tracer.Tracer()
    run = _span(t, "harness.run_training", 0.0, 10.0, -1)
    step = _span(t, "optimizers.step", 1.0, 4.0, run)
    _span(t, "objectives.gradient", 2.0, 3.0, step)
    evaluate = _span(t, "objectives.evaluate", 5.0, 6.0, run)
    _span(t, "objectives.residual", 5.2, 5.5, evaluate)
    times = tracer.layer_times(t)
    assert times["harness"] == pytest.approx({"calls": 1, "incl_ms": 10000.0, "self_ms": 6000.0})
    assert times["optimizers"] == pytest.approx({"calls": 1, "incl_ms": 3000.0, "self_ms": 2000.0})
    # residual runs inside evaluate, so it is not a second entry into objectives
    assert times["objectives"] == pytest.approx({"calls": 2, "incl_ms": 2000.0, "self_ms": 2000.0})
    assert times["analyzer"] == {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0}


def test_wrappers_are_bound_where_each_name_is_looked_up_and_then_restored():
    originals = (harness.step, analyzer.step, optimizers.step, optimizers.gradient, hyperopt.gradient)
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = (harness.step, analyzer.step, optimizers.step, optimizers.gradient, hyperopt.gradient)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
        harness.run_training(workloads.matrix_configs(0, True)[0])
    finally:
        t.uninstall()
    assert (harness.step, analyzer.step, optimizers.step, optimizers.gradient, hyperopt.gradient) == originals
    calls = tracer.function_counts(t)
    assert calls["harness.run_training"] == 1 and calls["optimizers.step"] == 1
    assert t.counts["harness.epochs"] == 1 and t.counts["optimizers.step_rows"] == 1


def test_train_sweep_configs_are_the_ones_reproduce_table2_runs():
    matrix = reproduce_table2(init=RandomInit(seed=3))
    expected = [workloads.trace_digest(tr) for c in matrix.cells for tr in (c.optimal, c.fixed)]
    got = [workloads.trace_digest(harness.run_training(cfg)) for cfg in workloads.matrix_configs(3, True)]
    assert got == expected


def test_a_corrupted_golden_digest_counts_as_a_failed_op(golden):
    bad = copy.deepcopy(golden)
    key = " ".join(workloads.verify_argv(0, "gradients"))
    bad["cli"][key][1] = "0" * 64
    bad["train"]["0"][1] = "0" * 64
    m = bench.run_timed("oracle-verify", TINY_ROUNDS["oracle-verify"], 0.0, bad, trace=False)
    assert [o.ok for o in m.outcomes()] == [False]
    m = bench.run_timed("train-sweep", TINY_ROUNDS["train-sweep"], 0.0, bad, trace=False)
    assert [o.ok for o in m.outcomes()] == [True, False, True, True, True, True]
    assert "differs from golden" in m.untraced[0][1].why
