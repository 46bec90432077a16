"""Numeric oracles for the closed-form hyperparameter rules.

Two independent checks live here. ``mean_post_step_error`` estimates the
average one-step loss over a sampled region of parameter space and
``argmin_hyper`` / ``pointwise_argmin_hyper`` locate the hyperparameter that
minimizes it by direct search, with no knowledge of the closed forms they
are used to verify. Every search runs through one routine: ``_curve`` makes
the mean one-step loss along each row of a state (the sampled grid, or one
state) one curve, and ``_search`` takes the curves of one or more states and
drives them all in lockstep, a uniform scan then golden-section refinement,
each to the result it gets searched alone. The pointwise check of a method
(``verify.check_argmin_pointwise``) searches all its tables at once; the public
searches pass one. ``finite_diff_gradient`` plays the same role for the
analytic gradients.

Evaluation steps numpy arrays by the buffered forms of the real update rules,
so the dynamics being minimized are exactly the ones a training run would take.
The state does not move during a search, so a curve takes the checked gradient
once (``_gradient_at``, the first part ``optimizers.step`` runs) and at each
curve point runs the buffered form of the method's per-coordinate rule from
``optimizers._RULES`` on w and on b (the second part; ``harness.run_training``
runs the rule itself). A buffered form, like ``objectives._residual_into``,
writes into arrays the call owns by its rule's IEEE operations in its rule's
order, so the same bits; a test holds each form to its rule and
``_residual_into`` to ``_residual``, and ``mean_post_step_error``, which
steps by the allocating ``optimizers.step``, is the searches' reference.

A curve maps points of shape (curves, k) to values of the same shape.
``_curve`` lays w, b, the method's state slot and the gradient out as
(curves, 1, grid) arrays, so k points along the middle axis make a
(curves, k, grid) loss volume. The scan asks for its 64 points in as few
calls as ``_SCAN_BUDGET`` loss elements allow: all 64 for a batch of
pointwise states, one for a 40,000-point grid. Golden-section asks for its
first two probes in one call, then for one point per curve. Each call steps
its whole volume in one pass, in one (3, curves, k, grid) array it allocates
for itself: the loss buffer, the stepped b and the rule's temporary. The
buffered form steps w straight into the loss buffer and b into its own,
``objectives._residual_into`` takes the residual in place in the loss buffer
and one multiply squares it there. So a plain-descent or momentum curve point
allocates that one array. So does an adagrad curve point, and an rmsprop one
whose target is not beta. Both methods step by their root alone, the square root
of ``optimizers._divisor`` from the accumulator, which the method's
``optimizers._RULES`` row names with the hyperparameters its step reads; the root
reads all of them but eta. No such point moves it, so the curve takes it once per
slot coordinate, from the checked ``replace(fixed, ...)`` before the arrays are
laid out. An rmsprop beta point moves the root, so each call takes it from its
own points, allocating the accumulator, divisor and root of each coordinate
before it steps by it. The call holds numpy's overflow warnings off around its
step, then takes each curve's mean along the grid as
``np.add.reduce(losses, axis=-1) / grid``, the arithmetic of ``ndarray.mean``
without its Python wrapper, and tests the means for finiteness once. That one
test is exact: every loss is a square, so a mean is finite only if all its
losses are. Only a non-finite mean looks at the losses one by one, to tell a
non-finite loss (an error) from finite ones whose sum overflows (a numpy
warning and an inf mean).
``mean_post_step_error`` takes one ``step`` and squares its residual, then
takes the same mean and test.

A call's volume grows with the grid, so the oracles rely on the grids being
small: every grid the command line, ``verify`` or the benchmark searches has
at most 200x200 points, all of them by plain descent, where a one-point call
allocates about 1 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Literal

import numpy as np

from .objectives import (
    GradientVector,
    ObjectiveId,
    ParamPoint,
    RegressionSample,
    _check_inputs,
    _require_index,
    _require_objective,
    _require_positive,
    _require_real,
    _require_seed,
    _residual,
    _residual_into,
    evaluate,
)
from .optimizers import (
    HyperParams,
    Method,
    OptimizerState,
    PerCoord,
    _RULES,
    _checked_gradient,
    _require_hyper,
    _require_method,
    _slot,
    step,
)

HyperName = Literal["eta", "alpha", "beta"]

_HYPER_NAMES = ("eta", "alpha", "beta")

GRID_POINTS_1D = 1000
GRID_POINTS_2D = 200

_SCAN_POINTS = 64
_SCAN_BUDGET = 2**16  # loss elements (curves x points x grid) one scan call covers
_GOLDEN_WIDTH = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# a ``_curve`` result, as ``_search`` takes them: a curve function, its curves, its points per scan call
_Curve = tuple[Callable[[np.ndarray], np.ndarray], int, int]


class SamplingMode(Enum):
    GRID = "grid"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class SamplingSpec:
    """How to sample parameter space.

    ``resolution`` counts points per axis for the grid (cell midpoints, so
    the estimate is a midpoint quadrature) and total draws for monte carlo.
    ``domain`` is one interval applied to every parameter.
    """

    mode: SamplingMode
    resolution: int
    seed: int = 0
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        if not isinstance(self.mode, SamplingMode):
            raise ValueError(f"mode must be a SamplingMode, got {self.mode!r}")
        if _require_index("resolution", self.resolution) < 2:
            raise ValueError(f"resolution must be at least 2, got {self.resolution}")
        _require_seed("seed", self.seed)
        try:  # a domain that is not two reals (a bool end included) fails here too, not in the unpacking
            lo, hi = self.domain
            for end in (lo, hi):
                _require_real("domain", end)
            interval = lo < hi and math.isfinite(float(hi) - float(lo))  # its width finite, so both ends
        except (TypeError, ValueError, OverflowError):
            interval = False
        if not interval:
            raise ValueError(f"domain must be a finite non-empty interval, got {self.domain}")


def default_sampling(obj: ObjectiveId, seed: int = 0) -> SamplingSpec:
    """Grid sampling at the default resolution for the objective's arity."""
    n = GRID_POINTS_1D if _require_objective(obj).arity == 1 else GRID_POINTS_2D
    return SamplingSpec(mode=SamplingMode.GRID, resolution=n, seed=seed)


@dataclass(frozen=True)
class ArgminResult:
    """Outcome of a direct hyperparameter search over [0, 1].

    ``flat`` marks a curve with no variation across the scan (the argmin is
    then arbitrary); ``multimodal`` marks separated local minima in the scan,
    reported rather than fatal, with refinement around the global best.
    """

    argmin: float
    min_value: float
    bracket: tuple[float, float]
    evaluations: int
    flat: bool = False
    multimodal: bool = False


def finite_diff_gradient(
    obj: ObjectiveId,
    point: ParamPoint,
    sample: RegressionSample | None = None,
    step_size: float = 1e-6,
) -> GradientVector:
    """Central-difference gradient oracle, (f(c + h) - f(c - h)) / (2h) per coordinate."""
    _check_inputs(obj, point, sample)
    _require_positive("step_size", step_size)
    if step_size == math.inf:
        raise ValueError(f"step_size must be finite, got {step_size!r}")
    h = step_size

    def central(coord: str) -> float:
        c = getattr(point, coord)
        up = evaluate(obj, replace(point, **{coord: c + h}), sample)
        return (up - evaluate(obj, replace(point, **{coord: c - h}), sample)) / (2.0 * h)

    return GradientVector(d_w=central("w"), d_b=None if obj.arity == 1 else central("b"))


def _sampled_state(obj: ObjectiveId, spec: SamplingSpec, template: OptimizerState) -> OptimizerState:
    """``template`` with its parameters swept over the points ``spec`` samples, an objective,
    ``spec`` or template of the wrong type refused by name first."""
    _require_objective(obj)
    if not isinstance(spec, SamplingSpec):
        raise ValueError(f"spec must be a SamplingSpec, got {spec!r}")
    if not isinstance(template, OptimizerState):
        raise ValueError(f"state_template must be an OptimizerState, got {template!r}")
    lo, hi = spec.domain
    if spec.mode is SamplingMode.GRID:
        n = spec.resolution
        axis = lo + (np.arange(n) + 0.5) * ((hi - lo) / n)
        axes = [g.ravel() for g in np.meshgrid(*[axis] * obj.arity, indexing="ij")]
    else:
        rng = np.random.default_rng(spec.seed)
        axes = [rng.uniform(lo, hi, size=spec.resolution) for _ in range(obj.arity)]
    return replace(template, params=ParamPoint(*axes))


def _mean_losses(losses: np.ndarray) -> np.ndarray:
    """The mean along the last axis, refusing a non-finite loss. Losses are squares, so a
    mean is finite only if each of its losses is: only a non-finite mean needs the
    elementwise test, and finite losses whose sum overflows still warn and give inf."""
    means = np.add.reduce(losses, axis=-1) / losses.shape[-1]  # ndarray.mean's arithmetic, unwrapped
    if not np.isfinite(means).all() and not np.isfinite(losses).all():
        raise ValueError("non-finite loss at a sample point")
    return means


def mean_post_step_error(
    method: Method,
    obj: ObjectiveId,
    hyper: HyperParams,
    sample: RegressionSample | None,
    spec: SamplingSpec,
    state_template: OptimizerState,
    *,
    f3_half_gradient: bool = False,
) -> float:
    """Average loss after one update, over parameter points sampled per ``spec``.

    The template's velocity and accumulators are held fixed while the
    parameters sweep; each sampled point takes one real step of ``method``.

    Raises:
        ValueError: if any sampled point produces a non-finite loss.
    """
    state = _sampled_state(obj, spec, state_template)
    with np.errstate(over="ignore", invalid="ignore"):
        stepped = step(method, state, hyper, obj, sample, f3_half_gradient=f3_half_gradient)
        r = _residual(obj, stepped.params, sample)
        losses = r * r
    return float(_mean_losses(losses.ravel()))


def _search(curves: list[_Curve]) -> list[list[ArgminResult]]:
    """Minimize each ``_curve`` result's curves on [0, 1], all in lockstep: a uniform scan,
    then golden-section refinement around each curve's best scan point. A curve function
    maps points of shape (n, k), k per curve, to their values, shape (n, k). The scan asks
    for its points at the fewest per call any of them allows; golden-section asks for its
    first two probes in one (n, 2) call, then for one point per curve. Each curve sees the
    points it would see searched alone; a flat or finished one is evaluated at its best
    scan point until all are done. ``evaluations`` counts points, not calls.
    """
    if not curves:
        return []
    ends = np.cumsum([n for _, n, _ in curves]).tolist()
    rows = [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]
    n, per_call = ends[-1], min(per_call for _, _, per_call in curves)

    def curve(t: np.ndarray) -> np.ndarray:
        return np.concatenate([f(t[part]) for (f, _, _), part in zip(curves, rows)])

    xs = np.arange(_SCAN_POINTS) / (_SCAN_POINTS - 1)
    chunks = (xs[i : i + per_call] for i in range(0, _SCAN_POINTS, per_call))
    vals = np.concatenate([curve(np.tile(x, (n, 1))) for x in chunks], axis=1)
    vmin, vmax = vals.min(axis=1), vals.max(axis=1)
    flat = vmin == vmax

    # multimodal: two neighbouring strict local minima of the scan, both within
    # 1e-6 of the curve's range of its best value, lie three or more points apart
    padded = np.pad(vals, ((0, 0), (1, 1)), constant_values=np.inf)
    minima = (vals < padded[:, :-2]) & (vals < padded[:, 2:]) & (vals <= (vmin + 1e-6 * (vmax - vmin))[:, None])
    seen = np.logical_or.accumulate(minima, axis=1)
    multimodal = (minima[:, 3:] & ~minima[:, 1:-2] & seen[:, :-3]).any(axis=1)

    k = vals.argmin(axis=1)
    at_scan = xs[k]
    lo = np.where(flat, 0.0, xs[np.maximum(k - 1, 0)])
    hi = np.where(flat, 1.0, xs[np.minimum(k + 1, _SCAN_POINTS - 1)])
    best_x, best_v = np.where(flat, 0.5, at_scan), vmin
    evals = np.full(n, _SCAN_POINTS)
    active = ~flat

    span = hi - lo
    c, d = hi - _INV_PHI * span, lo + _INV_PHI * span
    yc, yd = curve(np.where(active[:, None], np.stack([c, d], axis=1), at_scan[:, None])).T
    evals += 2 * active
    active &= span > _GOLDEN_WIDTH
    while active.any():
        # keep [lo, d] when c is lower, else [c, hi], and probe its other side;
        # only the bracket, best point and count of a finished curve are read
        left = yc < yd
        hi, lo = np.where(active & left, d, hi), np.where(active > left, c, lo)
        span = hi - lo
        inset = _INV_PHI * span
        probe = np.where(left, hi - inset, lo + inset)
        y = curve(np.where(active, probe, at_scan)[:, None])[:, 0]
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        yc, yd = np.where(left, y, yd), np.where(left, yc, y)
        evals += active
        for z, yz in ((c, yc), (d, yd)):
            better = active & (yz < best_v)
            best_x, best_v = np.where(better, z, best_x), np.where(better, yz, best_v)
        active &= span > _GOLDEN_WIDTH

    # the best point can lie just outside the last bracket on a curve flat to rounding
    lo, hi = np.minimum(lo, best_x), np.maximum(hi, best_x)
    found = zip(*(a.tolist() for a in (best_x, best_v, lo, hi, evals, flat, multimodal)))
    found = [ArgminResult(x, v, (a, b), e, f, m) for x, v, a, b, e, f, m in found]
    return [found[part] for part in rows]


def _gradient_at(
    state: OptimizerState, obj: ObjectiveId, sample: RegressionSample | None, f3_half_gradient: bool
) -> GradientVector:
    """The checked gradient a search steps every curve point with."""
    # overflow surfaces as NonFiniteGradientError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        return _checked_gradient(state, obj, sample, f3_half_gradient)


def _curve(
    method: Method, obj: ObjectiveId, target: str, fixed: HyperParams,
    sample: RegressionSample | None, state: OptimizerState, g: GradientVector,
) -> _Curve:
    """The mean one-step loss along each row of ``state`` as a function of ``target``
    in [0, 1]: one curve per row of a 2-D state, a single curve for a 1-D (sampled
    grid) or scalar one.
    ``fixed`` holds floats or (rows, 1) arrays; ``g`` is ``_gradient_at(state, ...)``. A target,
    method or ``fixed`` of the wrong type is refused by name before any is read."""
    if target not in _HYPER_NAMES:
        raise ValueError(f"target must be one of {_HYPER_NAMES}, got {target!r}")
    _, _, rule, root, reads = _RULES[_require_method(method)]
    _require_hyper("fixed", fixed)
    # HyperParams' range checks, once per search, on the other values as ``fixed``
    # holds them now (an array may have changed since it was checked); every
    # search point in [0, 1] lies in each target's range, so the points skip them
    checked = replace(fixed, **{target: 0.0})
    n, m = np.atleast_2d(state.params.w).shape
    slot = _slot(method, state)
    s_w, s_b = slot.w, slot.b
    if root is not None and (target == "eta" or target not in reads):  # no point moves the root: take it once
        with np.errstate(over="ignore", invalid="ignore"):
            s_w, s_b = root(s_w, g.d_w, checked), None if g.d_b is None else root(s_b, g.d_b, checked)
        root = None

    def lay(a):  # arrays as (curves, 1, grid): points go on the middle axis
        return a if np.ndim(a) == 0 else np.reshape(a, (n, 1, -1))

    values = {name: lay(v) for name, v in vars(checked).items()}
    w, s_w, g_w, b, s_b, g_b = (lay(a) for a in (state.params.w, s_w, g.d_w, state.params.b, s_b, g.d_b))

    def curve(t: np.ndarray) -> np.ndarray:
        hyper = object.__new__(HyperParams)  # unchecked: every point lies in the target's range
        hyper.__dict__.update({**values, target: t[..., None]})
        buf = np.empty((3, n, t.shape[1], m))
        loss, b_new, tmp = buf[0], buf[1], buf[2]  # loss buffer, stepped b, rule temporary
        with np.errstate(over="ignore", invalid="ignore"):  # an rmsprop beta point takes its root here
            rule(w, s_w if root is None else root(s_w, g_w, hyper), g_w, hyper, loss, tmp)  # w into the loss buffer
            if b is not None:
                rule(b, s_b if root is None else root(s_b, g_b, hyper), g_b, hyper, b_new, tmp)
            _residual_into(obj, loss, b_new, sample, loss)
            np.multiply(loss, loss, out=loss)
        return _mean_losses(loss)

    return curve, n, max(1, min(_SCAN_POINTS, _SCAN_BUDGET // (n * m)))


def argmin_hyper(
    method: Method,
    obj: ObjectiveId,
    target: HyperName,
    fixed: HyperParams,
    sample: RegressionSample | None,
    spec: SamplingSpec,
    state_template: OptimizerState,
    *,
    f3_half_gradient: bool = False,
) -> ArgminResult:
    """Directly minimize the sampled mean one-step error over one hyperparameter.

    ``target`` names the swept hyperparameter; the others come from ``fixed``.
    The search covers [0, 1] and is accurate to well under 1e-6 for unimodal
    curves.
    """
    state = _sampled_state(obj, spec, state_template)
    g = _gradient_at(state, obj, sample, f3_half_gradient)
    return _search([_curve(method, obj, target, fixed, sample, state, g)])[0][0]


def pointwise_argmin_hyper(
    method: Method,
    obj: ObjectiveId,
    target: HyperName,
    fixed: HyperParams,
    sample: RegressionSample | None,
    state: OptimizerState,
    *,
    f3_half_gradient: bool = False,
) -> ArgminResult:
    """Directly minimize the one-step loss from a single fully specified state.

    For adagrad the state's grad_sq_sum is read as the post-accumulation sums
    the pending step divides by, matching the closed form's convention; the
    search still runs through the real step function.
    """
    return _search([_pointwise_curve(method, obj, target, fixed, sample, state, f3_half_gradient)])[0][0]


def _pointwise_curve(
    method: Method, obj: ObjectiveId, target: str, fixed: HyperParams,
    sample: RegressionSample | None, state: OptimizerState, f3_half_gradient: bool,
) -> _Curve:
    """The ``_curve`` of ``pointwise_argmin_hyper`` from each row of a state of (rows, 1) arrays."""
    g = _gradient_at(state, obj, sample, f3_half_gradient)
    if method is Method.ADAGRAD:
        phi = state.grad_sq_sum
        pre_b = None if g.d_b is None else phi.b - g.d_b * g.d_b
        state = replace(state, grad_sq_sum=PerCoord(w=phi.w - g.d_w * g.d_w, b=pre_b))
    return _curve(method, obj, target, fixed, sample, state, g)

