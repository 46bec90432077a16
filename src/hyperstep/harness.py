"""Training runs with fixed or per-epoch-optimal hyperparameters.

A run records one EpochRecord per epoch, where epoch 1 is the initial state
before any update. Under the optimal policy each epoch queries the closed
forms for the requested hyperparameters and applies the fallback contract:
an undefined value keeps the previous one, an infeasible value is clamped to
[0, 1], and every choice is flagged in the trace.

``HyperPolicy`` and ``RunConfig`` are where a run is checked, each field by name: the policy's
kind, base (``optimizers._require_hyper``) and names, the method, objective, policy, budget,
tolerance and f3 convention (``objectives._require_half_gradient``), and
the sample and a given initial point through the halves of ``objectives._check_inputs``
(``step``'s check, so with ``step``'s errors); since a run steps on floats, it then refuses an
array coordinate, which that check passes for the oracles, with that check's error.
``resolve_init`` draws a seeded initial point, each seed's draw made once and kept in a bounded
cache. ``run_training`` refuses a config that is not a ``RunConfig``, then checks nothing per
epoch but finiteness. It keeps the params and the coordinates of the state slot the method
moves as float locals and takes one gradient per epoch, which feeds the unchecked closed-form
cores of ``hyperopt._FORMS`` and the method's per-coordinate rule from ``optimizers._RULES``.
An optimal epoch builds only what its record keeps: it hands the cores the slot's two
coordinates as it holds them (adagrad's first advanced by the squared gradient,
``optimizers._grad_sq_sum``, to the sums the pending step divides by), and judges
each core's (raw, singular) by ``hyperopt._verdict``, the fallback
contract ``hyperopt._from_raw`` applies to a float, so it builds no ``FeasibleValue``; each
target's (value, outcome) pair sets the value where the outcome is not None (defined), and one
``HyperParams`` is filled as the targets resolve, its shared ``HyperFlags`` taken from the tuple
of per-target outcomes. Each epoch's ``ParamPoint``, ``EpochRecord`` and ``HyperParams`` are
built by the one unchecked idiom that ``optimizers`` describes, ``object.__new__`` and a
``__dict__`` filled in field order, so no per-field ``object.__setattr__`` runs. ``_finite`` tests the gradient, whose
finiteness defines divergence, and after the step the slot; the loss r * r is the one test of the
stepped params, since on every objective a non-finite w or b makes r inf or NaN (at x = 0, inf * 0
is NaN), so a finite loss vouches for both.
The loop's exit test gives ``converged_epoch``, what ``detect_convergence`` finds in the records.
A run on floats computes in plain floats, a zero divisor's inf or NaN included.

``reproduce_table2`` assembles the 4x3 convergence comparison between the
per-epoch-optimal arm and a fixed-default arm, next to the published
reference numbers this harness is meant to be compared against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache

from .objectives import (
    ObjectiveId, ParamPoint, RegressionSample,
    _check_point, _check_sample, _gradient, _require_half_gradient, _require_index, _require_objective,
    _require_positive, _require_seed, _residual,
)
from .optimizers import _RULES, HyperParams, Method, _grad_sq_sum, _require_hyper, _require_method
from .hyperopt import _FORMS, OPTIMIZED_HYPERS, _verdict

DEFAULT_HYPERS = HyperParams(eta=0.1, alpha=0.5, beta=0.5, epsilon=1e-8)
DEFAULT_SAMPLE = RegressionSample(x=0.3, y=0.23)
DEFAULT_TOLERANCE = 1e-12
DEFAULT_INIT_COORD = 0.3

FLAG_NONE = ""
FLAG_FIXED = "fixed"
FLAG_CLOSED_FORM = "closed_form"
FLAG_CLAMPED = "clamped"
FLAG_FALLBACK = "fallback"

class PolicyKind(Enum):
    FIXED = "fixed"
    OPTIMAL_PER_EPOCH = "optimal_per_epoch"


@dataclass(frozen=True)
class HyperPolicy:
    """Hyperparameter schedule for a run.

    ``optimize`` names the values re-derived each epoch and must be empty
    exactly when the policy is fixed.
    """

    kind: PolicyKind
    base: HyperParams
    optimize: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        _require_hyper("base", self.base)
        if not isinstance(self.kind, PolicyKind):
            raise ValueError(f"kind must be a PolicyKind, got {self.kind!r}")
        if not isinstance(self.optimize, frozenset):
            raise ValueError(f"optimize must be a frozenset of hyperparameter names, got {self.optimize!r}")
        unknown = self.optimize - {"eta", "alpha", "beta"}
        if unknown:
            raise ValueError(f"unknown hyperparameters to optimize: {sorted(unknown)}")
        if self.kind is PolicyKind.FIXED and self.optimize:
            raise ValueError("a fixed policy optimizes nothing")
        if self.kind is PolicyKind.OPTIMAL_PER_EPOCH and not self.optimize:
            raise ValueError("an optimal policy needs at least one hyperparameter to optimize")

    @classmethod
    def fixed(cls, base: HyperParams) -> HyperPolicy:
        return cls(kind=PolicyKind.FIXED, base=base)

    @classmethod
    def optimal(cls, base: HyperParams, optimize: frozenset[str] | set[str]) -> HyperPolicy:
        return cls(kind=PolicyKind.OPTIMAL_PER_EPOCH, base=base, optimize=frozenset(optimize))


@dataclass(frozen=True)
class RandomInit:
    """Seeded uniform draw of the initial parameters from [0, 1) (w first, then b):
    the values ``np.random.default_rng(seed).uniform(0.0, 1.0)`` gives, drawn without numpy."""

    seed: int

    def __post_init__(self) -> None:
        _require_seed("init seed", self.seed)


@dataclass(frozen=True)
class HyperFlags:
    """How each hyperparameter value in an epoch was obtained."""

    eta: str = FLAG_FIXED
    alpha: str = FLAG_FIXED
    beta: str = FLAG_FIXED


_INITIAL_FLAGS = HyperFlags(eta=FLAG_NONE, alpha=FLAG_NONE, beta=FLAG_NONE)
_FIXED_FLAGS = HyperFlags()


# a target's flag by its ``hyperopt._verdict``: undefined (None), feasible (True) or clamped (False)
_OUTCOME_FLAGS = {None: FLAG_FALLBACK, True: FLAG_CLOSED_FORM, False: FLAG_CLAMPED}


@cache
def _flags(targets: tuple[str, ...], outcomes: tuple[bool | None, ...]) -> HyperFlags:
    """One shared HyperFlags per combination of flags: an optimal epoch's, whose ``targets``
    resolved to ``outcomes``, None, True or False each; the others are fixed."""
    return HyperFlags(**{t: _OUTCOME_FLAGS[o] for t, o in zip(targets, outcomes)})


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    params: ParamPoint
    loss: float
    hyper_used: HyperParams
    hyper_flags: HyperFlags


@dataclass(frozen=True)
class Trace:
    """Complete record of one run; ``diverged`` marks truncation on non-finite values."""

    records: tuple[EpochRecord, ...]
    converged_epoch: int | None
    final_loss: float
    diverged: bool = False


@dataclass(frozen=True)
class RunConfig:
    """One training run; ``init=None`` starts from the default point, every
    coordinate at ``DEFAULT_INIT_COORD`` (w alone for one-parameter objectives)."""

    method: Method
    objective: ObjectiveId
    policy: HyperPolicy
    sample: RegressionSample | None = None
    init: ParamPoint | RandomInit | None = None
    max_epochs: int = 200
    tolerance: float = DEFAULT_TOLERANCE
    f3_half_gradient: bool = False

    def __post_init__(self) -> None:
        _require_method(self.method)
        _require_objective(self.objective)
        if _require_index("max_epochs", self.max_epochs) < 1:
            raise ValueError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if not isinstance(self.policy, HyperPolicy):
            raise ValueError(f"policy must be a HyperPolicy, got {self.policy!r}")
        _require_positive("tolerance", self.tolerance)
        _require_half_gradient(self.f3_half_gradient)
        _check_sample(self.objective, self.sample)
        coords = [] if self.sample is None else [("sample.x", self.sample.x), ("sample.y", self.sample.y)]
        if not (self.init is None or isinstance(self.init, RandomInit)):
            _check_point(self.objective, self.init, "init")
            coords += [("init.w", self.init.w), ("init.b", self.init.b)][: self.objective.arity]
        for name, value in coords:  # an array passes _require_real, for the oracles
            if getattr(value, "ndim", 0):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        extra = self.policy.optimize - OPTIMIZED_HYPERS[self.method]
        if extra:
            raise ValueError(
                f"{sorted(extra)} cannot be optimized for {self.method.value}; "
                f"allowed: {sorted(OPTIMIZED_HYPERS[self.method])}"
            )


# numpy's default_rng(seed).uniform(0.0, 1.0), bit for bit, in plain Python:
# SeedSequence(seed) hashes the seed's 32-bit words into four 64-bit words,
# PCG64 takes them as its 128-bit state and increment, and each draw is the
# top 53 bits of one XSL-RR output.
_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for a non-negative integer."""
    seed = operator.index(seed)  # a numpy integer too, as numpy takes it, as a Python int
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


@lru_cache(maxsize=256)
def _seeded_uniforms(seed: int, n: int) -> tuple[float, ...]:
    """The first ``n`` draws of ``np.random.default_rng(seed).uniform(0.0, 1.0)``, drawn once
    per (seed, n) while the pair stays among the last 256 asked for."""
    s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
    draws = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        draws.append((x >> 11) * 2.0**-53)
    return tuple(draws)


def resolve_init(cfg: RunConfig) -> ParamPoint:
    """Concrete initial parameters for a config, drawing seeded ones if asked."""
    two = cfg.objective.arity == 2
    if cfg.init is None:
        return ParamPoint(w=DEFAULT_INIT_COORD, b=DEFAULT_INIT_COORD if two else None)
    if isinstance(cfg.init, RandomInit):
        w, b = _seeded_uniforms(cfg.init.seed, 2)
        return ParamPoint(w=w, b=b if two else None)
    return cfg.init


def detect_convergence(records: tuple[EpochRecord, ...] | list[EpochRecord], tolerance: float) -> int | None:
    """Smallest recorded epoch whose loss is at or below ``tolerance``, if any."""
    if not isinstance(records, (tuple, list)):
        raise ValueError(f"records must be a tuple or list of EpochRecord, got {records!r}")
    for rec in records:
        if not isinstance(rec, EpochRecord):
            raise ValueError(f"records must hold EpochRecord values only, got {rec!r}")
    _require_positive("tolerance", tolerance)
    for rec in records:
        if rec.loss <= tolerance:
            return rec.epoch
    return None


def _finite(w, b) -> bool:
    """Whether a gradient's or state slot's ``w`` and ``b`` (None on one parameter) are finite."""
    return math.isfinite(w) and (b is None or math.isfinite(b))


def run_training(cfg: RunConfig) -> Trace:
    """Run until convergence, divergence, or ``max_epochs`` recorded epochs.

    Deterministic: the same config (and seed, for random inits) reproduces
    the trace bit for bit.
    """
    if not isinstance(cfg, RunConfig):
        raise ValueError(f"cfg must be a RunConfig, got {cfg!r}")
    method, obj, sample, half = cfg.method, cfg.objective, cfg.sample, cfg.f3_half_gradient
    tolerance, max_epochs = cfg.tolerance, cfg.max_epochs
    rule = _RULES[method][1]
    # The coefficient (alpha or beta) is resolved first against the incumbent eta, then eta
    # against the resolved coefficient, so the step built from the result zeroes the
    # residual whenever the eta form is defined.
    targets = tuple(t for t in ("alpha", "beta", "eta") if t in cfg.policy.optimize)
    forms = [(t, _FORMS[method, t]) for t in targets]
    params = resolve_init(cfg)
    w, b = params.w, params.b
    s_w, s_b = 0.0, None if b is None else 0.0  # the coordinates of the slot the method moves
    r = _residual(obj, params, sample)
    loss = float(r * r)
    records = [EpochRecord(1, params, loss, cfg.policy.base, _INITIAL_FLAGS)]
    hypers, flags = cfg.policy.base, _FIXED_FLAGS
    epoch = 1
    diverged = not math.isfinite(loss)
    new = object.__new__  # the unchecked idiom of optimizers' docstring

    while not diverged and loss > tolerance and epoch < max_epochs:
        g = _gradient(obj, r, sample, half)
        if not _finite(g.d_w, g.d_b):
            diverged = True
            break
        if forms:
            c_w, c_b = s_w, s_b  # the slot the cores read
            if method is Method.ADAGRAD:  # its form reads the sums the pending step divides by
                c_w = _grad_sq_sum(s_w, g.d_w)
                c_b = None if b is None else _grad_sq_sum(s_b, g.d_b)
            picked = new(HyperParams)  # a clamped value lies in every range
            fill = picked.__dict__
            fill.update(hypers.__dict__)
            outcomes = []
            for target, form in forms:  # the fallback contract: an undefined value keeps the incumbent
                value, outcome = _verdict(*form(obj, c_w, c_b, sample, r, g, picked))
                if outcome is not None:
                    fill[target] = value
                outcomes.append(outcome)
            hypers, flags = picked, _flags(targets, tuple(outcomes))
        w, s_w = rule(w, s_w, g.d_w, hypers)
        if b is not None:
            b, s_b = rule(b, s_b, g.d_b, hypers)
        epoch += 1
        params = new(ParamPoint)
        fill = params.__dict__
        fill["w"], fill["b"] = w, b
        r = _residual(obj, params, sample)
        loss = float(r * r)
        record = new(EpochRecord)
        fill = record.__dict__
        fill["epoch"], fill["params"], fill["loss"], fill["hyper_used"], fill["hyper_flags"] = (
            epoch, params, loss, hypers, flags
        )
        records.append(record)
        # a finite loss vouches for w and b; an overflowed accumulator would freeze the run with one
        diverged = not (math.isfinite(loss) and _finite(s_w, s_b))

    # the loop stops at the first epoch whose loss meets the tolerance, if any
    return Trace(tuple(records), epoch if loss <= tolerance else None, loss, diverged)


@dataclass(frozen=True)
class PublishedCell:
    """Reference convergence numbers for one method/objective cell."""

    optimal_epoch: int
    optimal_loss: float
    fixed_epoch: int
    fixed_loss: float


# Reference results the comparison is reported against; these are quoted
# values, never this harness's output.
PUBLISHED_RESULTS: dict[tuple[Method, ObjectiveId], PublishedCell] = {
    (Method.GD, ObjectiveId.F1): PublishedCell(2, 0.0, 63, 2e-13),
    (Method.GD, ObjectiveId.F2): PublishedCell(2, 0.0, 58, 2e-13),
    (Method.GD, ObjectiveId.F3): PublishedCell(2, 0.0, 127, 0.0),
    (Method.MOMENTUM, ObjectiveId.F1): PublishedCell(2, 0.0, 32, 2e-13),
    (Method.MOMENTUM, ObjectiveId.F2): PublishedCell(2, 0.0, 26, 2e-13),
    (Method.MOMENTUM, ObjectiveId.F3): PublishedCell(4, 4e-14, 205, 2e-13),
    (Method.ADAGRAD, ObjectiveId.F1): PublishedCell(2, 0.0, 123, 2e-13),
    (Method.ADAGRAD, ObjectiveId.F2): PublishedCell(2, 0.0, 461, 2e-13),
    (Method.ADAGRAD, ObjectiveId.F3): PublishedCell(2, 0.0, 311, 2e-13),
    (Method.RMSPROP, ObjectiveId.F1): PublishedCell(2, 0.0, 48, 0.0025),
    (Method.RMSPROP, ObjectiveId.F2): PublishedCell(2, 0.0, 56, 0.01),
    (Method.RMSPROP, ObjectiveId.F3): PublishedCell(2, 6e-33, 13, 5e-9),
}

@dataclass(frozen=True)
class ComparisonCell:
    method: Method
    objective: ObjectiveId
    optimal: Trace
    fixed: Trace
    published: PublishedCell


@dataclass(frozen=True)
class ComparisonMatrix:
    cells: tuple[ComparisonCell, ...]

    def cell(self, method: Method, objective: ObjectiveId) -> ComparisonCell:
        for c in self.cells:
            if c.method is method and c.objective is objective:
                return c
        raise KeyError((method, objective))


def _cell_init(init: ParamPoint | RandomInit | None, obj: ObjectiveId) -> ParamPoint | RandomInit | None:
    """A point given for two parameters fitted to ``obj``; any other init as given, for
    ``RunConfig`` to take or refuse."""
    if not isinstance(init, ParamPoint):
        return init
    if obj.arity == 1:
        return ParamPoint(w=init.w)
    return ParamPoint(w=init.w, b=init.w if init.b is None else init.b)


def reproduce_table2(
    defaults: HyperParams = DEFAULT_HYPERS,
    sample: RegressionSample = DEFAULT_SAMPLE,
    init: ParamPoint | RandomInit | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_epochs: int = 1000,
    f3_half_gradient: bool = True,
) -> ComparisonMatrix:
    """Run both arms for all 12 method/objective cells.

    The fixed arm runs ``defaults`` unchanged; the optimal arm re-derives
    every hyperparameter meaningful for the method each epoch. F3 runs use
    the halved regression gradient by default because the closed forms are
    exact under that convention.
    """
    cells = []
    for method in Method:
        for obj in ObjectiveId:
            common = dict(
                method=method,
                objective=obj,
                sample=sample if obj is ObjectiveId.F3 else None,
                init=_cell_init(init, obj),
                max_epochs=max_epochs,
                tolerance=tolerance,
                f3_half_gradient=f3_half_gradient,
            )
            optimal = run_training(
                RunConfig(policy=HyperPolicy.optimal(defaults, OPTIMIZED_HYPERS[method]), **common)
            )
            fixed = run_training(RunConfig(policy=HyperPolicy.fixed(defaults), **common))
            cells.append(
                ComparisonCell(
                    method=method,
                    objective=obj,
                    optimal=optimal,
                    fixed=fixed,
                    published=PUBLISHED_RESULTS[(method, obj)],
                )
            )
    return ComparisonMatrix(cells=tuple(cells))
