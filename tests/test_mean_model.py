"""The mean-error model in exact arithmetic: gd and momentum against the sampled mean.

With the template's velocity held fixed, one step of plain descent or heavy ball moves
the residual of every objective to r' = (1 - eta*S)*r + alpha*pull, where
S = scale * sum((dr/dc)**2) (scale 2, or 1 for halved f3) and pull = sum(dr/dc * v_c);
gd is alpha = 0. r is affine in (w, b), and w and b are independent on the grid, so
the grid-mean loss needs only the grid's midpoint moments, exact rationals:
mean c = (lo + hi)/2 and mean c**2 = (hi**3 - lo**3)/(3*(hi - lo)) - delta**2/12 with
delta = (hi - lo)/n. The mean is then an exact quadratic in eta and in alpha, held here in
``Fraction`` against ``mean_post_step_error`` and its vertex against ``argmin_hyper``.
"""

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from hyperstep import (
    HyperParams,
    Method,
    ObjectiveId,
    OptimizerState,
    ParamPoint,
    PerCoord,
    RegressionSample,
    SamplingMode,
    SamplingSpec,
    argmin_hyper,
    default_sampling,
    mean_post_step_error,
)

F1, F2, F3 = ObjectiveId.F1, ObjectiveId.F2, ObjectiveId.F3
GD, MOMENTUM = Method.GD, Method.MOMENTUM
U = 2.0**-53  # unit roundoff of float64
CONVENTIONS = [(F1, False), (F2, False), (F3, False), (F3, True)]
IDS = ["f1", "f2", "f3", "f3-half"]


@dataclass
class Model:
    """One draw's exact quadratic: the mean of (A*r + p)**2 with A = 1 - eta*S, p = alpha*pull."""

    S: Fraction
    pull: Fraction
    mean_r: Fraction
    mean_r2: Fraction
    bound: float  # B below: no intermediate of a sampled step exceeds it in magnitude

    def mean(self, eta, alpha) -> Fraction:
        a, p = 1 - Fraction(eta) * self.S, Fraction(alpha) * self.pull
        return a * a * self.mean_r2 + 2 * a * p * self.mean_r + p * p

    def tolerance(self, mean: Fraction, points: int) -> float:
        """How far numpy's sampled mean may lie from ``mean``. The losses are squares, so
        numpy's pairwise sum of them is off by at most D*u of the sum: <= 15 additions in one
        of its eight accumulators, 3 to merge them and one per halving above 128 elements;
        with the square and the division, D = ceil(log2 n) + 14. Each residual r' is off by at
        most K*u*B (K = 32: the 16 roundings on f3 momentum's longest path, a grid point to
        r', each carried by a factor of at most 2), and by Cauchy-Schwarz that moves the mean
        by at most 2*K*u*B*sqrt(mean) + (K*u*B)**2."""
        error = 32 * U * self.bound
        return (math.ceil(math.log2(points)) + 14) * U * float(mean) + 2 * error * math.sqrt(mean) + error**2


def _model(obj, half, sample, velocity, domain, n) -> Model:
    lo, hi = (Fraction(end) for end in domain)
    m1 = (lo + hi) / 2
    m2 = (hi**3 - lo**3) / (3 * (hi - lo)) - ((hi - lo) / n) ** 2 / 12
    if obj is F1:  # r = w - 1/2
        d, offset = (Fraction(1),), Fraction(-1, 2)
        mean_r, mean_r2 = m1 + offset, m2 + 2 * offset * m1 + offset**2
    else:  # r = x*w + b + offset: x = 1, offset = 0 on f2
        x, offset = (Fraction(1), Fraction(0)) if obj is F2 else (Fraction(sample.x), -Fraction(sample.y))
        d = (x, Fraction(1))
        mean_r = x * m1 + m1 + offset
        mean_r2 = x * x * m2 + 2 * x * m1 * (m1 + offset) + m2 + 2 * offset * m1 + offset**2
    S = (1 if half else 2) * sum(k * k for k in d)
    pull = sum(k * Fraction(v) for k, v in zip(d, velocity))
    # bounds on |c|, |r|, |g| <= S*|r|, a stepped coordinate and r', at eta, alpha <= 1
    slope, c = float(sum(abs(k) for k in d)), float(max(abs(lo), abs(hi)))
    r = slope * c + float(abs(offset))
    step = c + max(map(abs, velocity)) + 2 * float(S) * r
    return Model(S, pull, mean_r, mean_r2, (1 + slope) * step + float(abs(offset)))


def _draw(rng, method, obj, half):
    """A random grid, sample and velocity (zero for gd) and the state template and model for them."""
    lo, hi = rng.uniform(-1.0, 0.0), rng.uniform(0.0, 1.0)
    n = default_sampling(obj).resolution
    spec = SamplingSpec(SamplingMode.GRID, n, domain=(lo, hi))
    sample = RegressionSample(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)) if obj is F3 else None
    velocity = [rng.uniform(-1.0, 1.0) if method is MOMENTUM else 0.0 for _ in range(obj.arity)]
    template = replace(OptimizerState.initial(ParamPoint(*[0.0] * obj.arity)), velocity=PerCoord(*velocity))
    return spec, sample, template, _model(obj, half, sample, velocity, spec.domain, n), n**obj.arity


@pytest.mark.parametrize("method", [GD, MOMENTUM], ids=lambda m: m.value)
@pytest.mark.parametrize("obj, half", CONVENTIONS, ids=IDS)
def test_the_sampled_mean_error_is_the_exact_grid_mean(method, obj, half):
    rng = random.Random(f"{method.value}-{obj.value}-{half}")
    for _ in range(5):
        spec, sample, template, model, points = _draw(rng, method, obj, half)
        eta, alpha = rng.random(), rng.random()
        got = mean_post_step_error(method, obj, HyperParams(eta, alpha), sample, spec, template, f3_half_gradient=half)
        want = model.mean(eta, alpha if method is MOMENTUM else 0.0)
        assert abs(Fraction(got) - want) <= model.tolerance(want, points)


@pytest.mark.parametrize("method, target", [(GD, "eta"), (MOMENTUM, "eta"), (MOMENTUM, "alpha")], ids=[
    "gd-eta", "momentum-eta", "momentum-alpha"])
@pytest.mark.parametrize("obj, half", CONVENTIONS, ids=IDS)
def test_the_direct_search_finds_the_clamped_vertex_of_the_exact_mean(method, target, obj, half):
    rng = random.Random(f"{method.value}-{target}-{obj.value}-{half}")
    spec, sample, template, model, points = _draw(rng, method, obj, half)
    eta, alpha = rng.random(), rng.random() if method is MOMENTUM else 0.0
    if target == "eta":  # mean = const - 2*eta*S*E[r*(r + p)] + eta**2 * S**2 * E[r**2]
        p = Fraction(alpha) * model.pull
        vertex, curvature = (model.mean_r2 + p * model.mean_r) / (model.S * model.mean_r2), model.S**2 * model.mean_r2
    else:  # mean = A**2 * E[r**2] + 2*alpha*A*pull*E[r] + alpha**2 * pull**2
        vertex, curvature = -(1 - Fraction(eta) * model.S) * model.mean_r / model.pull, model.pull**2
    best = min(max(vertex, Fraction(0)), Fraction(1))
    at_best = model.mean(*((best, alpha) if target == "eta" else (eta, best)))
    found = argmin_hyper(method, obj, target, HyperParams(eta, alpha), sample, spec, template, f3_half_gradient=half)
    # on [0, 1] the mean rises at least curvature * (x - best)**2 away from best, so a point
    # whose sampled mean ties best's to rounding lies within this reach; the search then
    # stops inside a bracket 1e-9 wide
    reach = math.sqrt(2 * model.tolerance(at_best, points) / float(curvature))
    assert abs(found.argmin - float(best)) <= reach + 1e-9
