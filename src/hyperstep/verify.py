"""Numeric oracle checks of the closed forms, assembled into one report.

Every check draws from a seeded generator through one sampler, ``_draw``: a
table of draws per (objective, target) as one block, each column laid out
by ``_state_columns`` and the check's extra columns, and each row the
values one draw after another would give. So a report is a pure function
of its arguments; the acceptance tests draw through the same sampler, one
row at a time. ``optimizers._flat_state`` reads a state from a row (floats) or
from the columns (arrays). ``_obj_sample`` picks each objective's regression
sample, the beta rule's included, and ``_row`` writes every report row. Each
table is solved in one call on its columns, by its core in ``hyperopt._FORMS``
(public hyperopt names take floats only), fed the table's residual and gradient,
taken once; the argmin, one-step and gradient
checks then search, step or evaluate its defined, feasible rows. The argmin
and one-step checks take one f3 gradient convention, ``_HALF``, on both sides.
Hyperstep functions are looked up as module attributes at call time
(``optimizers.step``, ...), so a wrapper bound in their home module also
sees the calls made from here.
"""

from __future__ import annotations

import numpy as np

from . import analyzer, hyperopt, objectives, optimizers
from .harness import DEFAULT_HYPERS, DEFAULT_SAMPLE
from .hyperopt import OPTIMIZED_HYPERS, SCOPES
from .objectives import ObjectiveId, ParamPoint, RegressionSample, _require_index, _require_seed
from .optimizers import HyperParams, Method, OptimizerState, _flat_state, _require_method

_ARGMIN_TOL = 1e-6
_ONE_STEP_TOL = 1e-20
_GRADIENT_TOL = 1e-6
_EPSILON = 1e-8

_BETA_SAMPLE = RegressionSample(x=1.0, y=0.3)  # common-gradient point for the beta rule
_HALF = True  # f3's halved gradient (x*r, r) on both sides of a check: the f3 forms are exact under it


# A column is the (lo, hi) its values lo + (hi - lo) * u take, u from [0, 1).
_UNIT = (0.0, 1.0)
_VELOCITY = (-0.5, 0.5)
_OPEN_UNIT = (1.0, 0.0)  # 1 - u: an accumulator, from (0, 1]


def _draw(rng: np.random.Generator, n: int, columns: list[tuple[float, float]]) -> np.ndarray:
    """An (n, len(columns)) table of draws from one ``rng.random`` call; row i
    holds, bit for bit, what the i-th of n successive one-row tables would."""
    lo, hi = np.array(columns).T
    return lo + (hi - lo) * rng.random((n, len(columns)))


def _state_columns(obj: ObjectiveId, common_u: bool = False) -> list[tuple[float, float]]:
    """The columns of one state, w then b of each slot: params, velocity,
    grad_sq_sum, weighted_grad_sq; ``common_u`` draws one weighted_grad_sq for
    both coordinates, as the rmsprop beta rule assumes."""
    a = obj.arity
    return [_UNIT] * a + [_VELOCITY] * a + [_OPEN_UNIT] * (a + (1 if common_u else a))


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
        s = _obj_sample(obj)
        p = ParamPoint(*_draw(np.random.default_rng(seed), samples, [_UNIT] * obj.arity).T)
        a = analyzer.finite_diff_gradient(obj, p, s)
        g = objectives.gradient(obj, p, s)
        pairs = zip((a.d_w, a.d_b), (g.d_w, g.d_b))
        worst = float(np.max([abs(x - e) / np.maximum(1.0, abs(e)) for x, e in pairs if e is not None]))
        checks.append(_row(f"gradients/{obj.value}", _GRADIENT_TOL, worst, True, samples=samples))
    return checks


_GD_ARGMIN_CASES = (
    (ObjectiveId.F1, None),
    (ObjectiveId.F2, None),
    (ObjectiveId.F3, DEFAULT_SAMPLE),
    (ObjectiveId.F3, _BETA_SAMPLE),
    (ObjectiveId.F3, RegressionSample(x=2.0, y=0.4)),
)


def check_argmin_gd() -> dict:
    """The grid-sampled mean argmin of plain descent against its closed-form rate."""
    worst = 0.0
    for obj, s in _GD_ARGMIN_CASES:
        template = OptimizerState.initial(ParamPoint(w=0.0, b=0.0 if obj.arity == 2 else None))
        res = analyzer.argmin_hyper(
            Method.GD, obj, "eta", DEFAULT_HYPERS, s,
            analyzer.default_sampling(obj), template, f3_half_gradient=_HALF,
        )
        fv = hyperopt.solve(
            Method.GD, "eta", obj, template, s,
            eta=None, alpha=None, beta=None, epsilon=_EPSILON, f3_half_gradient=_HALF,
        )
        worst = max(worst, abs(res.argmin - fv.value))
    return _row("argmin/gd", _ARGMIN_TOL, worst, True)


def _pointwise_columns(obj: ObjectiveId, target: str) -> list[tuple[float, float]]:
    # per draw: the state, then the fixed eta, alpha and beta
    return _state_columns(obj, common_u=target == "beta") + [_UNIT] * 3


def check_argmin_pointwise(method: Method, seed: int, states: int = 100) -> dict:
    """Single-state argmins against every closed form of ``method``, per objective: one
    curve per (objective, target) from all its defined, feasible states, and one lockstep
    search over them all; it passes only if some state was compared."""
    _require_method(method)
    _require_seed("seed", seed)
    if _require_index("states", states) < 1:
        raise ValueError(f"states must be at least 1, got {states}")
    min_defined = 1.0
    curves, values = [], []
    for obj in ObjectiveId:
        for target in sorted(OPTIMIZED_HYPERS[method]):
            sample = _obj_sample(obj, target)
            common = target == "beta"
            columns = _draw(np.random.default_rng(seed), states, _pointwise_columns(obj, target)).T
            # adagrad's state is read as the post-accumulation view on both sides
            at = _flat_state(obj, columns, common)
            r = objectives._residual(obj, at.params, sample)
            g = objectives._gradient(obj, r, sample, _HALF)
            given = HyperParams(*columns[-3:], epsilon=_EPSILON)
            fv = hyperopt._FORMS[method, target](obj, at, sample, r, g, given)
            # plain descent's rate is one float for the whole table
            defined, feasible, value = (np.broadcast_to(a, states) for a in (fv.defined, fv.feasible, fv.value))
            min_defined = min(min_defined, np.count_nonzero(defined) / states)
            keep = defined & feasible
            if not keep.any():
                continue
            kept = columns[:, keep, None]  # each a (rows, 1) array
            fixed = HyperParams(*kept[-3:], epsilon=_EPSILON)
            at = _flat_state(obj, kept, common)
            curves.append(analyzer._pointwise_curve(method, obj, target, fixed, sample, at, _HALF))
            values.extend(value[keep].tolist())
    found = [r for table in analyzer._lockstep(curves) for r in table]
    worst = max([0.0, *(abs(r.argmin - v) for r, v in zip(found, values))])
    compared = len(found)
    return _row(
        f"argmin/{method.value}", _ARGMIN_TOL, worst, min_defined >= 0.95 and compared > 0,
        compared=compared, min_defined_fraction=min_defined,
    )


def _one_step_columns(obj: ObjectiveId, coefficient: str | None) -> list[tuple[float, float]]:
    # per draw: the state; with a coefficient, it and then eta; for beta, its common accumulator
    extra = {None: [], "alpha": [_UNIT, _UNIT], "beta": [_UNIT, _UNIT, _OPEN_UNIT]}[coefficient]
    return _state_columns(obj) + extra


def _one_step_draw(obj: ObjectiveId, values, coefficient: str | None, target: str) -> tuple[OptimizerState, dict]:
    """The state a one-step draw steps from for ``target`` (for beta, the trailing common
    accumulator is its weighted_grad_sq), and its given hyperparameters."""
    k = 4 * obj.arity  # past the state's columns
    head = [*values[:3 * obj.arity], values[-1]] if target == "beta" else values
    at = _flat_state(obj, head, target == "beta")
    given = {"eta": 0.0, "alpha": 0.0, "beta": 0.0}
    if coefficient is not None:
        given[coefficient], given["eta"] = values[k], values[k + 1]
    return at, given


def _check_one_step(method: Method, samples: int, seed: int) -> dict:
    """Worst post-step loss using closed-form values, over defined+feasible draws;
    each table is solved in one call, then all kept draws take one array step."""
    coefficient = next(iter(OPTIMIZED_HYPERS[method] - {"eta"}), None)
    targets = ("eta",) if coefficient is None else ("eta", coefficient)
    worst = 0.0
    tested = 0
    for obj in ObjectiveId:
        columns = _draw(np.random.default_rng(seed), samples, _one_step_columns(obj, coefficient)).T
        for target in targets:
            sample = _obj_sample(obj, target)
            at, given = _one_step_draw(obj, columns, coefficient, target)
            r = objectives._residual(obj, at.params, sample)
            g = objectives._gradient(obj, r, sample, _HALF)
            view = optimizers._post_view(at, g) if method is Method.ADAGRAD else at
            fv = hyperopt._FORMS[method, target](obj, view, sample, r, g, HyperParams(**given, epsilon=_EPSILON))
            keep = np.broadcast_to(fv.defined & fv.feasible, samples)  # plain descent's rate is one float
            if not keep.any():
                continue
            at, given = _one_step_draw(obj, columns[:, keep], coefficient, target)
            hyper = HyperParams(**{**given, target: np.broadcast_to(fv.value, samples)[keep]}, epsilon=_EPSILON)
            stepped = optimizers.step(method, at, hyper, obj, sample, f3_half_gradient=_HALF)
            worst = max(worst, float(np.max(objectives.evaluate(obj, stepped.params, sample))))
            tested += int(np.count_nonzero(keep))
    return _row(f"one-step/{method.value}", _ONE_STEP_TOL, worst, tested > 0, tested=tested)


def report(scope: str, samples: int, seed: int, method: Method | None = None) -> dict:
    """Run the checks in ``scope`` (one of SCOPES) and collect them with an overall verdict.

    ``samples`` counts the draws per objective of the gradient and one-step
    checks; ``method`` restricts the argmin and one-step checks to one method.

    Raises:
        ValueError: on an unknown scope or method, a sample count or seed that
            is not an integer, a sample count below 1 or a negative seed.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    if _require_index("samples", samples) < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    _require_seed("seed", seed)
    methods = [_require_method(method)] if method is not None else list(OPTIMIZED_HYPERS)

    checks: list[dict] = []
    if scope in ("gradients", "all"):
        checks.extend(_check_gradients(samples, seed))
    if scope in ("argmin", "all"):
        checks.extend(
            check_argmin_gd() if m is Method.GD else check_argmin_pointwise(m, seed) for m in methods
        )
    if scope in ("one-step", "all"):
        checks.extend(_check_one_step(m, samples, seed) for m in methods)

    passed = all(c["passed"] for c in checks)
    return {"scope": scope, "seed": seed, "samples": samples, "passed": passed, "checks": checks}
