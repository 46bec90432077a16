"""Per-layer tracing installed from outside the program.

Every public function of the six hyperstep modules is wrapped, and the
wrapper is bound wherever the original is looked up: in its own module, in
every module that imported it by name, and in the package namespace. So
``step`` is traced as bound in ``harness``, ``analyzer`` and ``optimizers``,
and ``gradient`` as bound in ``optimizers`` and ``hyperopt``. Private
helpers and the ``optimizers._STEP_FNS`` table stay untouched; their time
is self time of the public function that called them.

Each wrapped call records one span (function, start, end, parent span, op
id) in flat arrays kept in memory, plus a few counters read from its
arguments or result. ``summarise`` turns the spans into per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("objectives", "optimizers", "hyperopt", "analyzer", "harness", "cli")

_RESOLVED_FLAGS = ("closed_form", "clamped", "fallback")


def _modules() -> list:
    package = importlib.import_module("hyperstep")
    return [package] + [importlib.import_module(f"hyperstep.{layer}") for layer in LAYERS]


def public_functions(layer: str) -> dict[str, object]:
    """Functions a layer module defines under a public name."""
    module = importlib.import_module(f"hyperstep.{layer}")
    return {
        name: fn
        for name, fn in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__
    }


def _nonfinite_rows(params) -> int:
    w, b = params.w, params.b
    if isinstance(w, np.ndarray):
        ok = np.isfinite(w)
        if b is not None:
            ok &= np.isfinite(b)
        return int(ok.size - np.count_nonzero(ok))
    return 0 if math.isfinite(w) and (b is None or math.isfinite(b)) else 1


def _state_rows(args, kwargs) -> int:
    state = args[1] if len(args) > 1 else kwargs["state"]
    return int(np.size(state.params.w))


class Tracer:
    """Span store and counters for one process; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._op = [0]
        self._patches: list[tuple[object, str, object]] = []

    def set_op(self, op_id: int) -> None:
        self._op[0] = op_id

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- counters fed from arguments and results -------------------------

    def _hooks(self, qualname: str):
        counts = self.counts
        if qualname == "optimizers.step":
            def post(result, args, kwargs):
                counts["optimizers.step_rows"] += _state_rows(args, kwargs)
                counts["optimizers.nonfinite"] += _nonfinite_rows(result.params)

            def on_error(exc, args, kwargs):
                if type(exc).__name__ == "NonFiniteGradientError":
                    rows = _state_rows(args, kwargs)
                    counts["optimizers.step_rows"] += rows
                    counts["optimizers.nonfinite"] += rows

            return post, on_error
        if qualname.startswith("hyperopt."):
            def post(result, args, kwargs):
                counts["hyperopt.results"] += 1
                if not result.defined:
                    counts["hyperopt.undefined"] += 1
                elif not result.feasible:
                    counts["hyperopt.infeasible"] += 1

            return post, None
        if qualname in ("analyzer.argmin_hyper", "analyzer.pointwise_argmin_hyper"):
            def post(result, args, kwargs):
                counts["analyzer.curve_evals"] += result.evaluations
                counts["analyzer.flat"] += int(result.flat)
                counts["analyzer.multimodal"] += int(result.multimodal)

            return post, None
        if qualname == "harness.run_training":
            def post(result, args, kwargs):
                counts["harness.epochs"] += len(result.records) - 1
                counts["harness.diverged"] += int(result.diverged)
                for rec in result.records:
                    f = rec.hyper_flags
                    for flag in (f.eta, f.alpha, f.beta):
                        if flag in _RESOLVED_FLAGS:
                            counts["harness.resolved"] += 1
                            if flag == "fallback":
                                counts["harness.fallback"] += 1

            return post, None
        return None, None

    def _wrap(self, qualname: str, fn):
        nid = self._name_id(qualname)
        post, on_error = self._hooks(qualname)
        names_append = self.span_name.append
        parent_append = self.parent.append
        op_append = self.op.append
        start_append = self.start.append
        end_append = self.end.append
        ends = self.end
        stack = self._stack
        current_op = self._op
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(ends)
            names_append(nid)
            parent_append(stack[-1])
            op_append(current_op[0])
            end_append(0.0)
            stack.append(i)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[i] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc, args, kwargs)
                raise
            ends[i] = clock()
            stack.pop()
            if post is not None:
                post(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Bind a wrapper in place of every public layer function, wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            for name, fn in public_functions(layer).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in _modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- persistence --------------------------------------------------------

    def save(self, path: Path) -> None:
        np.savez(
            path,
            span_name=np.frombuffer(self.span_name, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names, dtype=str),
            counts=np.array(json.dumps(self.counts)),
        )

    def absorb(self, path: Path, op_id: int) -> None:
        """Append the spans and counters another process saved, as op ``op_id``."""
        with np.load(path, allow_pickle=False) as data:
            remap = np.array([self._name_id(str(n)) for n in data["names"]] or [0], dtype=np.int16)
            parent = data["parent"]
            offset = len(self.end)
            self.span_name.extend(remap[data["span_name"]].tolist())
            self.parent.extend(np.where(parent >= 0, parent + offset, -1).tolist())
            self.op.extend([op_id] * len(parent))
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.counts.update(json.loads(str(data["counts"])))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_times(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per layer: spans entered from outside the layer, their inclusive ms, and self ms.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap, because calls nest.
    """
    name = np.frombuffer(tracer.span_name, dtype=np.int16).astype(np.intp)
    parent = np.frombuffer(tracer.parent, dtype=np.int32).astype(np.intp)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
    layer_of_name = np.array([LAYERS.index(q.split(".", 1)[0]) for q in tracer.names] or [0], dtype=np.intp)
    layer = layer_of_name[name]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)
    entry = parent_layer != layer
    out = {}
    for idx, lname in enumerate(LAYERS):
        mask = layer == idx
        out[lname] = {
            "calls": float(np.count_nonzero(mask & entry)),
            "incl_ms": float(dur[mask & entry].sum() * 1e3),
            "self_ms": float(own[mask].sum() * 1e3),
        }
    return out


def function_counts(tracer: Tracer) -> dict[str, int]:
    """Number of spans per traced function."""
    per = np.bincount(np.frombuffer(tracer.span_name, dtype=np.int16), minlength=len(tracer.names))
    return {q: int(per[i]) for i, q in enumerate(tracer.names)}


def function_incl_ms(tracer: Tracer, qualname: str) -> float:
    if qualname not in tracer.names:
        return 0.0
    mask = np.frombuffer(tracer.span_name, dtype=np.int16) == tracer.names.index(qualname)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
    return float(dur[mask].sum() * 1e3)


def summarise(tracer: Tracer, rounds: int, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics, each count and time divided by the number of traced rounds.

    Times are multiplied by ``scale``, the calibration factor to reference speed.

    The cli ``output_bytes`` and ``import_ms`` and ``trace.overhead_frac``
    are measured by the runner, not from spans, and are added there.
    """
    r = float(max(rounds, 1))
    times = {
        layer: {k: v * scale if k.endswith("_ms") else v for k, v in t.items()}
        for layer, t in layer_times(tracer).items()
    }
    calls = function_counts(tracer)
    c = tracer.counts

    step_calls = calls.get("optimizers.step", 0)
    rows = c["optimizers.step_rows"]
    hyper_calls = times["hyperopt"]["calls"]
    searches = calls.get("analyzer.argmin_hyper", 0) + calls.get("analyzer.pointwise_argmin_hyper", 0)
    return {
        "objectives.calls": times["objectives"]["calls"] / r,
        "objectives.self_ms": times["objectives"]["self_ms"] / r,
        "optimizers.step_calls": step_calls / r,
        "optimizers.step_rows": rows / r,
        "optimizers.rows_per_call": _ratio(rows, step_calls),
        "optimizers.self_ms": times["optimizers"]["self_ms"] / r,
        "optimizers.us_per_row": _ratio(function_incl_ms(tracer, "optimizers.step") * 1e3 * scale, rows),
        "optimizers.nonfinite": c["optimizers.nonfinite"] / r,
        "hyperopt.calls": hyper_calls / r,
        "hyperopt.self_ms": times["hyperopt"]["self_ms"] / r,
        "hyperopt.us_per_call": _ratio(times["hyperopt"]["incl_ms"] * 1e3, hyper_calls),
        "hyperopt.undefined_frac": _ratio(c["hyperopt.undefined"], c["hyperopt.results"]),
        "hyperopt.infeasible_frac": _ratio(c["hyperopt.infeasible"], c["hyperopt.results"]),
        "analyzer.searches": searches / r,
        "analyzer.curve_evals": c["analyzer.curve_evals"] / r,
        "analyzer.evals_per_search": _ratio(c["analyzer.curve_evals"], searches),
        "analyzer.self_ms": times["analyzer"]["self_ms"] / r,
        "analyzer.flat": c["analyzer.flat"] / r,
        "analyzer.multimodal": c["analyzer.multimodal"] / r,
        "analyzer.fd_calls": calls.get("analyzer.finite_diff_gradient", 0) / r,
        "harness.runs": calls.get("harness.run_training", 0) / r,
        "harness.epochs": c["harness.epochs"] / r,
        "harness.self_ms": times["harness"]["self_ms"] / r,
        "harness.fallback_frac": _ratio(c["harness.fallback"], c["harness.resolved"]),
        "harness.diverged": c["harness.diverged"] / r,
        "cli.calls": calls.get("cli.main", 0) / r,
        "cli.self_ms": times["cli"]["self_ms"] / r,
    }
