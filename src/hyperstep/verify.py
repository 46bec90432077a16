"""Numeric oracle checks of the closed forms, assembled into one report.

Every check draws its states from a seeded generator, so a report is a pure
function of its arguments. Hyperstep functions are looked up as module
attributes at call time (``optimizers.step``, ...), so a wrapper bound in
their home module also sees the calls made from here.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np

from . import analyzer, hyperopt, objectives, optimizers
from .harness import DEFAULT_HYPERS, DEFAULT_SAMPLE
from .hyperopt import OPTIMIZED_HYPERS
from .objectives import ObjectiveId, ParamPoint, RegressionSample
from .optimizers import HyperParams, Method, OptimizerState, PerCoord

SCOPES = ("gradients", "argmin", "one-step", "all")

_ARGMIN_TOL = 1e-6
_ONE_STEP_TOL = 1e-20
_GRADIENT_TOL = 1e-6
_EPSILON = 1e-8

_BETA_SAMPLE = RegressionSample(x=1.0, y=0.3)  # common-gradient point for the beta rule


def _unit_open(rng: np.random.Generator) -> float:
    # uniform draw from (0, 1]
    return 1.0 - float(rng.random())


def _rand_params(rng: np.random.Generator, obj: ObjectiveId) -> ParamPoint:
    w = float(rng.uniform(0.0, 1.0))
    return ParamPoint(w=w, b=float(rng.uniform(0.0, 1.0)) if obj.arity == 2 else None)


def _open_percoord(rng: np.random.Generator, obj: ObjectiveId) -> PerCoord:
    return PerCoord(w=_unit_open(rng), b=_unit_open(rng) if obj.arity == 2 else None)


def _shared_percoord(rng: np.random.Generator, obj: ObjectiveId) -> PerCoord:
    # the rmsprop beta rule assumes one accumulator common to both coordinates
    shared = _unit_open(rng)
    return PerCoord(w=shared, b=shared if obj.arity == 2 else None)


def _draw_state(rng: np.random.Generator, obj: ObjectiveId, common_u: bool = False) -> OptimizerState:
    params = _rand_params(rng, obj)
    v_w = float(rng.uniform(-0.5, 0.5))
    velocity = PerCoord(w=v_w, b=float(rng.uniform(-0.5, 0.5)) if obj.arity == 2 else None)
    phi = _open_percoord(rng, obj)
    u = _shared_percoord(rng, obj) if common_u else _open_percoord(rng, obj)
    return OptimizerState(params=params, velocity=velocity, grad_sq_sum=phi, weighted_grad_sq=u)


def _obj_sample(obj: ObjectiveId) -> RegressionSample | None:
    return DEFAULT_SAMPLE if obj is ObjectiveId.F3 else None


def _check_gradients(samples: int, seed: int) -> list[dict]:
    checks = []
    for obj in ObjectiveId:
        rng = np.random.default_rng(seed)
        s = _obj_sample(obj)
        worst = 0.0
        for _ in range(samples):
            p = _rand_params(rng, obj)
            a = analyzer.finite_diff_gradient(obj, p, s)
            g = objectives.gradient(obj, p, s)
            dev = abs(a.d_w - g.d_w) / max(1.0, abs(g.d_w))
            if g.d_b is not None:
                dev = max(dev, abs(a.d_b - g.d_b) / max(1.0, abs(g.d_b)))
            worst = max(worst, dev)
        checks.append(
            {
                "name": f"gradients/{obj.value}",
                "tolerance": _GRADIENT_TOL,
                "max_deviation": worst,
                "samples": samples,
                "passed": worst <= _GRADIENT_TOL,
            }
        )
    return checks


_GD_ARGMIN_CASES = (
    (ObjectiveId.F1, None),
    (ObjectiveId.F2, None),
    (ObjectiveId.F3, RegressionSample(x=0.3, y=0.23)),
    (ObjectiveId.F3, RegressionSample(x=1.0, y=0.3)),
    (ObjectiveId.F3, RegressionSample(x=2.0, y=0.4)),
)


def check_argmin_gd(seed: int = 0) -> dict:
    """The sampled-mean argmin of plain descent against its closed-form rate."""
    worst = 0.0
    for obj, s in _GD_ARGMIN_CASES:
        template = OptimizerState.initial(ParamPoint(w=0.0, b=0.0 if obj.arity == 2 else None))
        res = analyzer.argmin_hyper(
            Method.GD, obj, "eta", DEFAULT_HYPERS, s,
            analyzer.default_sampling(obj, seed), template, f3_half_gradient=True,
        )
        fv = hyperopt.solve(
            Method.GD, "eta", obj, template, s, eta=None, alpha=None, beta=None, epsilon=_EPSILON
        )
        worst = max(worst, abs(res.argmin - fv.value))
    return {
        "name": "argmin/gd",
        "tolerance": _ARGMIN_TOL,
        "max_deviation": worst,
        "passed": worst <= _ARGMIN_TOL,
    }


def _pointwise_deviation(
    method: Method, obj: ObjectiveId, target: str, rng: np.random.Generator
) -> tuple[float | None, bool]:
    """One sampled state; returns (deviation or None if skipped, defined)."""
    beta_rule = method is Method.RMSPROP and target == "beta"
    sample = _BETA_SAMPLE if beta_rule and obj is ObjectiveId.F3 else _obj_sample(obj)
    half = obj is ObjectiveId.F3
    # adagrad's state is read as the post-accumulation view on both sides
    state = _draw_state(rng, obj, common_u=beta_rule)
    fixed = HyperParams(
        eta=float(rng.uniform(0.0, 1.0)),
        alpha=float(rng.uniform(0.0, 1.0)),
        beta=float(rng.uniform(0.0, 1.0)),
        epsilon=_EPSILON,
    )
    fv = hyperopt.solve(method, target, obj, state, sample, **asdict(fixed), f3_half_gradient=half)
    if not fv.defined:
        return None, False
    if not fv.feasible:
        return None, True
    res = analyzer.pointwise_argmin_hyper(
        method, obj, target, fixed, sample, state, f3_half_gradient=half
    )
    return abs(res.argmin - fv.value), True


def check_argmin_pointwise(method: Method, seed: int, states: int = 100) -> dict:
    """Single-state argmins against every closed form of ``method``, per objective."""
    worst = 0.0
    min_defined = 1.0
    compared = 0
    for obj in ObjectiveId:
        for target in sorted(OPTIMIZED_HYPERS[method]):
            rng = np.random.default_rng(seed)
            defined = 0
            for _ in range(states):
                dev, is_defined = _pointwise_deviation(method, obj, target, rng)
                defined += int(is_defined)
                if dev is not None:
                    worst = max(worst, dev)
                    compared += 1
            min_defined = min(min_defined, defined / states)
    return {
        "name": f"argmin/{method.value}",
        "tolerance": _ARGMIN_TOL,
        "max_deviation": worst,
        "compared": compared,
        "min_defined_fraction": min_defined,
        "passed": worst <= _ARGMIN_TOL and min_defined >= 0.95,
    }


def _check_one_step(method: Method, samples: int, seed: int) -> dict:
    """Worst post-step loss using closed-form values, over defined+feasible draws."""
    coefficient = next(iter(OPTIMIZED_HYPERS[method] - {"eta"}), None)
    targets = ("eta",) if coefficient is None else ("eta", coefficient)
    worst = 0.0
    tested = 0
    for obj in ObjectiveId:
        half = obj is ObjectiveId.F3
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            state = _draw_state(rng, obj)
            given = {"eta": 0.0, "alpha": 0.0, "beta": 0.0}
            if coefficient is not None:
                given[coefficient] = float(rng.uniform(0.0, 1.0))
                given["eta"] = float(rng.uniform(0.0, 1.0))
            for target in targets:
                at, sample = state, _obj_sample(obj)
                if target == "beta":
                    at = replace(state, weighted_grad_sq=_shared_percoord(rng, obj))
                    sample = _BETA_SAMPLE if half else sample
                view = at
                if method is Method.ADAGRAD:
                    view = optimizers.adagrad_post_view(at, obj, sample, f3_half_gradient=half)
                fv = hyperopt.solve(
                    method, target, obj, view, sample, **given, epsilon=_EPSILON, f3_half_gradient=half
                )
                if not (fv.defined and fv.feasible):
                    continue
                hyper = HyperParams(**{**given, target: fv.value}, epsilon=_EPSILON)
                stepped = optimizers.step(method, at, hyper, obj, sample, f3_half_gradient=half)
                worst = max(worst, float(objectives.evaluate(obj, stepped.params, sample)))
                tested += 1
    return {
        "name": f"one-step/{method.value}",
        "tolerance": _ONE_STEP_TOL,
        "max_deviation": worst,
        "tested": tested,
        "passed": worst <= _ONE_STEP_TOL and tested > 0,
    }


def report(scope: str, samples: int, seed: int, method: Method | None = None) -> dict:
    """Run the checks in ``scope`` (one of SCOPES) and collect them with an overall verdict.

    ``samples`` counts the draws per objective of the gradient and one-step
    checks; ``method`` restricts the argmin and one-step checks to one method.

    Raises:
        ValueError: on an unknown scope or a sample count below 1.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    methods = [method] if method is not None else list(OPTIMIZED_HYPERS)

    checks: list[dict] = []
    if scope in ("gradients", "all"):
        checks.extend(_check_gradients(samples, seed))
    if scope in ("argmin", "all"):
        if Method.GD in methods:
            checks.append(check_argmin_gd(seed))
        for m in methods:
            if m is not Method.GD:
                checks.append(check_argmin_pointwise(m, seed))
    if scope in ("one-step", "all"):
        for m in methods:
            checks.append(_check_one_step(m, samples, seed))

    passed = all(c["passed"] for c in checks)
    return {"scope": scope, "seed": seed, "samples": samples, "passed": passed, "checks": checks}
