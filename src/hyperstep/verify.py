"""Numeric oracle checks of the closed forms, assembled into one report.

Every check draws its states from a seeded generator through one sampler,
``_draw_state`` (accumulators from ``_draw_accumulator``), so a report is a
pure function of its arguments; the acceptance tests draw through the same
helpers. ``_obj_sample`` picks each objective's regression sample, the beta
rule's included, and ``_row`` writes every report row. The argmin and
gradient checks draw one by one, then search or evaluate all draws as
arrays. Hyperstep functions are looked up as module attributes at call time
(``optimizers.step``, ...), so a wrapper bound in their home module also
sees the calls made from here.
"""

from __future__ import annotations

from dataclasses import asdict, fields, is_dataclass, replace

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


def _uniform(rng: np.random.Generator, obj: ObjectiveId, lo: float, hi: float) -> list[float]:
    # one draw per coordinate: w, then b if the objective has one
    return [float(rng.uniform(lo, hi)) for _ in range(obj.arity)]


def _draw_accumulator(rng: np.random.Generator, obj: ObjectiveId, shared: bool = False) -> PerCoord:
    # ``shared``: one value for both coordinates, as the rmsprop beta rule assumes
    w = _unit_open(rng)
    return PerCoord(w=w, b=None if obj.arity == 1 else w if shared else _unit_open(rng))


def _draw_state(rng: np.random.Generator, obj: ObjectiveId, common_u: bool = False) -> OptimizerState:
    return OptimizerState(
        params=ParamPoint(*_uniform(rng, obj, 0.0, 1.0)),
        velocity=PerCoord(*_uniform(rng, obj, -0.5, 0.5)),
        grad_sq_sum=_draw_accumulator(rng, obj),
        weighted_grad_sq=_draw_accumulator(rng, obj, shared=common_u),
    )


def _obj_sample(obj: ObjectiveId, target: str = "eta") -> RegressionSample | None:
    # at f3 the beta rule's common gradient holds only at x = 1
    if obj is not ObjectiveId.F3:
        return None
    return _BETA_SAMPLE if target == "beta" else DEFAULT_SAMPLE


def _row(name: str, tolerance: float, worst: float, ok: bool, **counts) -> dict:
    """One report row; it passes when ``worst`` is within ``tolerance`` and ``ok`` holds."""
    return {
        "name": name,
        "tolerance": tolerance,
        "max_deviation": worst,
        **counts,
        "passed": worst <= tolerance and ok,
    }


def _check_gradients(samples: int, seed: int) -> list[dict]:
    checks = []
    for obj in ObjectiveId:
        rng = np.random.default_rng(seed)
        s = _obj_sample(obj)
        p = ParamPoint(*map(np.array, zip(*(_uniform(rng, obj, 0.0, 1.0) for _ in range(samples)))))
        a = analyzer.finite_diff_gradient(obj, p, s)
        g = objectives.gradient(obj, p, s)
        pairs = zip((a.d_w, a.d_b), (g.d_w, g.d_b))
        worst = float(np.max([abs(x - e) / np.maximum(1.0, abs(e)) for x, e in pairs if e is not None]))
        checks.append(_row(f"gradients/{obj.value}", _GRADIENT_TOL, worst, True, samples=samples))
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
    return _row("argmin/gd", _ARGMIN_TOL, worst, True)


def _stacked(items: list):
    """Alike dataclasses of floats as one of (rows, 1) arrays; None and the epoch carry over."""
    first = items[0]
    if isinstance(first, float):
        return np.array(items)[:, None]
    if not is_dataclass(first):
        return first
    return replace(first, **{f.name: _stacked([getattr(x, f.name) for x in items]) for f in fields(first)})


def check_argmin_pointwise(method: Method, seed: int, states: int = 100) -> dict:
    """Single-state argmins against every closed form of ``method``, per objective;
    one search per (objective, target) from all its defined, feasible states."""
    worst = 0.0
    min_defined = 1.0
    compared = 0
    for obj in ObjectiveId:
        half = obj is ObjectiveId.F3
        for target in sorted(OPTIMIZED_HYPERS[method]):
            sample = _obj_sample(obj, target)
            rng = np.random.default_rng(seed)
            defined = 0
            kept = []
            for _ in range(states):
                # adagrad's state is read as the post-accumulation view on both sides
                state = _draw_state(rng, obj, common_u=target == "beta")
                fixed = HyperParams(*(float(rng.uniform(0.0, 1.0)) for _ in range(3)), epsilon=_EPSILON)
                fv = hyperopt.solve(method, target, obj, state, sample, **asdict(fixed), f3_half_gradient=half)
                defined += int(fv.defined)
                if fv.defined and fv.feasible:
                    kept.append((fixed, state, fv.value))
            min_defined = min(min_defined, defined / states)
            if not kept:
                continue
            fixed, drawn, solved = zip(*kept)
            found = analyzer._pointwise_argmins(
                method, obj, target, _stacked(fixed), sample, _stacked(drawn), half
            )
            worst = max(worst, *(abs(r.argmin - v) for r, v in zip(found, solved)))
            compared += len(kept)
    return _row(
        f"argmin/{method.value}", _ARGMIN_TOL, worst, min_defined >= 0.95,
        compared=compared, min_defined_fraction=min_defined,
    )


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
                at, sample = state, _obj_sample(obj, target)
                if target == "beta":
                    at = replace(state, weighted_grad_sq=_draw_accumulator(rng, obj, shared=True))
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
    return _row(f"one-step/{method.value}", _ONE_STEP_TOL, worst, tested > 0, tested=tested)


def report(scope: str, samples: int, seed: int, method: Method | None = None) -> dict:
    """Run the checks in ``scope`` (one of SCOPES) and collect them with an overall verdict.

    ``samples`` counts the draws per objective of the gradient and one-step
    checks; ``method`` restricts the argmin and one-step checks to one method.

    Raises:
        ValueError: on an unknown scope, a sample count below 1 or a negative seed.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    methods = [method] if method is not None else list(OPTIMIZED_HYPERS)

    checks: list[dict] = []
    if scope in ("gradients", "all"):
        checks.extend(_check_gradients(samples, seed))
    if scope in ("argmin", "all"):
        checks.extend(
            check_argmin_gd(seed) if m is Method.GD else check_argmin_pointwise(m, seed) for m in methods
        )
    if scope in ("one-step", "all"):
        checks.extend(_check_one_step(m, samples, seed) for m in methods)

    passed = all(c["passed"] for c in checks)
    return {"scope": scope, "seed": seed, "samples": samples, "passed": passed, "checks": checks}
