"""Measurement loop, metrics and result line of the benchmark.

Untraced runs (``--trace 0``) report the end-to-end metrics named in
BENCHMARK.json. Traced runs (``--trace 1``) alternate an untraced and a
traced pass over the same round, check that both give identical outputs,
and report the per-layer metrics, counts and times per traced round.
Metric names and units are read from BENCHMARK.json, so the file and the
result line cannot drift apart.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import calibrate, workloads
from perfbench import tracer as tracing
from perfbench.workloads import BENCH_DIR, ROOT, CliOp, Outcome, TrainOp

SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
MIN_OPS_FOR_P90 = 100  # at least ten samples beyond the 90th percentile


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _commit_hash() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "commit": _commit_hash(),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# set-up


class SetupError(RuntimeError):
    pass


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> tuple[list[float], list[float]]:
    """Spawn fresh interpreters that import hyperstep and build the inputs.

    Returns each probe's spawn-to-exit time and its ``import hyperstep.cli``
    time in ms, both at reference speed.
    """
    seconds, import_ms = [], []
    with calibrate.Calibration(in_process=False) as cal:
        for _ in range(probes):
            child = workloads.spawn([sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)])
            if child.returncode != 0:
                raise SetupError(f"set-up probe exited {child.returncode}: {child.stderr.decode(errors='replace')}")
            cal.after_block()
            seconds.append(child.seconds)
            import_ms.append(json.loads(child.stdout)["import_ms"])
    scale = cal.scale()
    seconds = [s * scale for s in seconds]
    import_ms = [ms * scale for ms in import_ms]
    return seconds, import_ms


# ---------------------------------------------------------------------------
# the timed phase


@dataclass
class Measurement:
    untraced: list[list[Outcome]] = field(default_factory=list)
    traced: list[list[Outcome]] = field(default_factory=list)
    checks: list[Outcome] = field(default_factory=list)
    tracer: tracing.Tracer | None = None
    peak_rss_kb: int = 0

    def outcomes(self) -> list[Outcome]:
        return [o for r in self.untraced + self.traced for o in r] + self.checks


def _failed(why: str) -> Outcome:
    return Outcome(seconds=0.0, digest="", ok=False, why=why)


def execute(workload: str, op, golden: dict, tracer: tracing.Tracer | None = None, op_id: int = 0,
            clock=time.perf_counter) -> Outcome:
    """Run one op; an op that raises is a failed op, not a failed run.

    ``clock`` times in-process ops; the runner passes one that stops while
    the calibration sampler runs.
    """
    if tracer is not None:
        tracer.set_op(op_id)
    try:
        if isinstance(op, TrainOp):
            return workloads.execute_train(op, golden, clock)
        if workload != "cli-cold":
            return workloads.execute_cli_in_process(op, golden, clock)
        if tracer is None:
            return workloads.execute_cli_child(op, golden)
        spans = OUT_DIR / f"child-{os.getpid()}.npz"
        try:
            outcome = workloads.execute_cli_child(op, golden, spans)
            tracer.absorb(spans, op_id)
        finally:
            spans.unlink(missing_ok=True)
        return outcome
    except Exception:
        return _failed(f"{getattr(op, 'key', op)!r} raised:\n{traceback.format_exc()}")


def _run_rounds(workload: str, rounds: list[list], seconds: float, golden: dict, m: Measurement,
                cal: calibrate.Calibration) -> list[tuple[list[Outcome], float, float]]:
    """The closed loop itself; returns each timed block's outcomes and its start and end."""
    blocks = []
    deadline = time.perf_counter() + seconds

    def block(run_ops) -> list[Outcome]:
        start = time.perf_counter()
        outcomes = run_ops()
        end = time.perf_counter()
        cal.after_block()
        blocks.append((outcomes, start, end))
        return outcomes

    op_id = 0
    i = 0
    while True:
        ops = rounds[i % len(rounds)]
        i += 1
        m.untraced.append(block(lambda: [execute(workload, op, golden, clock=cal.clock) for op in ops]))
        if m.tracer is not None:
            first_op = op_id
            op_id += len(ops)
            m.tracer.install()
            try:
                traced = block(lambda: [
                    execute(workload, op, golden, m.tracer, first_op + k, cal.clock) for k, op in enumerate(ops)
                ])
            finally:
                m.tracer.uninstall()
            for u, t in zip(m.untraced[-1], traced):
                if t.ok and t.digest != u.digest:
                    t.ok, t.why = False, "traced output differs from untraced output"
            m.traced.append(traced)
        if time.perf_counter() >= deadline:
            return blocks


def run_timed(workload: str, rounds: list[list], seconds: float, golden: dict, trace: bool) -> Measurement:
    """Closed loop, one client: run rounds in order until ``seconds`` have passed.

    With ``trace`` each round runs untraced and then traced, and the traced
    outputs must equal the untraced ones.
    """
    m = Measurement(tracer=tracing.Tracer() if trace else None)
    with calibrate.Calibration(in_process=workload != "cli-cold") as cal:
        blocks = _run_rounds(workload, rounds, seconds, golden, m, cal)
    for outcomes, start, end in blocks:
        scale = cal.scale(start, end)
        for o in outcomes:
            o.scale = scale
    if workload == "cli-cold":
        m.peak_rss_kb = max(o.maxrss_kb for r in m.untraced for o in r)
    else:
        m.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "train-sweep":
        m.checks = [execute(workload, CliOp(argv), golden) for argv in workloads.TABLE2_CHECKS]
    return m


# ---------------------------------------------------------------------------
# metrics


def _round_seconds(rounds: list[list[Outcome]]) -> list[float]:
    return [sum(o.ref_seconds for o in r) for r in rounds]


def end_to_end(m: Measurement, setup_seconds: list[float]) -> dict[str, float]:
    """Every end-to-end metric, from the untraced rounds; times at reference speed."""
    ops = [o for r in m.untraced for o in r]
    op_seconds = [o.ref_seconds for o in ops]
    return {
        "setup_s": statistics.median(setup_seconds),
        "wall_s": statistics.median(_round_seconds(m.untraced)),
        "ops_per_s": len(ops) / sum(op_seconds),
        "op_p50_ms": statistics.median(op_seconds) * 1e3,
        "peak_rss_mb": m.peak_rss_kb / 1024.0,
    }


def workload_extras(workload: str, m: Measurement) -> dict[str, float]:
    """Metrics that hold only on some workloads, so BENCHMARK.json cannot bound them."""
    ops = [o for r in m.untraced for o in r]
    op_seconds = [o.ref_seconds for o in ops]
    outcomes = m.outcomes()
    extras = {
        "failed_frac": sum(not o.ok for o in outcomes) / len(outcomes),
        "ops": float(len(ops)),
        "raw_wall_s": statistics.median(sum(o.seconds for o in r) for r in m.untraced),
        "raw_op_p50_ms": statistics.median(o.seconds for o in ops) * 1e3,
        "speed_scale": statistics.median(o.scale for o in ops),
    }
    if len(ops) >= MIN_OPS_FOR_P90:
        extras["op_p90_ms"] = statistics.quantiles(op_seconds, n=10)[8] * 1e3
    if workload == "train-sweep":
        extras["epochs_per_s"] = sum(o.epochs for o in ops) / sum(op_seconds)
    return extras


def per_layer(m: Measurement, import_ms: list[float]) -> dict[str, float]:
    rounds = len(m.traced)
    metrics = tracing.summarise(m.tracer, rounds, statistics.mean(r[0].scale for r in m.traced))
    metrics["cli.output_bytes"] = sum(o.out_bytes for r in m.traced for o in r) / rounds
    metrics["cli.import_ms"] = statistics.median(import_ms)
    untraced = statistics.median(_round_seconds(m.untraced))
    metrics["trace.overhead_frac"] = statistics.median(_round_seconds(m.traced)) / untraced - 1.0
    return metrics


# ---------------------------------------------------------------------------
# entry


def run(workload: str, seed: int, seconds: float, trace: bool, golden: dict | None = None,
        rounds: list[list] | None = None, probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the full record.

    ``golden`` and ``rounds`` default to the stored goldens and the seeded
    inputs; tests pass small ones.
    """
    spec = load_spec()
    env = environment()
    golden = workloads.load_golden() if golden is None else golden
    rounds = workloads.make_rounds(workload, seed) if rounds is None else rounds
    setup_seconds, import_ms = measure_setup(workload, seed, probes)
    OUT_DIR.mkdir(exist_ok=True)
    m = run_timed(workload, rounds, seconds, golden, trace)

    if trace:
        values = per_layer(m, import_ms)
        wanted = spec["per_layer"]
        m.tracer.save(OUT_DIR / f"spans-{workload}.npz")
    else:
        values = end_to_end(m, setup_seconds)
        wanted = spec["end_to_end"]
    outcomes = m.outcomes()
    failed = [o for o in outcomes if not o.ok]
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "result": result,
        "extras": workload_extras(workload, m),
        "setup_seconds": setup_seconds,
        "failures": [o.why for o in failed[:20]],
    }
    if trace:
        record["layers"] = tracing.layer_times(m.tracer)
        record["traced_rounds"] = len(m.traced)
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2))
    return result, record


def report(result: dict, record: dict) -> None:
    """Human lines first, then the result object as the last line of stdout."""
    print("env " + json.dumps(record["environment"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    for name, value in record["extras"].items():
        print(f"  {name:28s} {value:.6g}")
    for lname, t in record.get("layers", {}).items():
        print(f"  layer {lname:12s} calls={t['calls']:.0f} incl_ms={t['incl_ms']:.1f} self_ms={t['self_ms']:.1f} (raw, all traced rounds)")
    for why in record["failures"]:
        print(f"failed op: {why}", file=sys.stderr)
    print(json.dumps(result), flush=True)
