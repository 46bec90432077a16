"""The benchmark's three workloads: their inputs, their ops and their checks.

A workload turns a seed into a list of rounds. A round is the workload's
fixed unit of work and ``wall_s`` is its duration; an op is one call the
benchmark times on its own. Every op's output is checked against the golden
digests in ``golden.json``, taken from the seed commit (``make_golden.py``).

- ``oracle-verify``: one op, and one round, is one in-process
  ``hyperstep verify`` report (all scopes, 1000 samples) through
  ``cli.main``. The analyzer does nearly all the work; the harness none.
- ``train-sweep``: one op is one ``run_training`` call. A round is the 24
  configs ``reproduce_table2`` builds (12 cells, optimal and fixed arm) at
  one seeded ``RandomInit`` draw, under the half-gradient f3 convention and
  then the standard one. Scalar steps, closed forms and the harness loop do
  the work; the analyzer none.
- ``cli-cold``: one op is one ``python -m hyperstep.cli`` process, timed
  from spawn to exit; a round is one of each command in the mix. Start-up
  and imports dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from hyperstep import cli, harness
from hyperstep.harness import (
    DEFAULT_HYPERS,
    DEFAULT_SAMPLE,
    OPTIMIZED_HYPERS,
    HyperPolicy,
    RandomInit,
    RunConfig,
    Trace,
)
from hyperstep.objectives import ObjectiveId
from hyperstep.optimizers import Method

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

WORKLOADS = ("oracle-verify", "train-sweep", "cli-cold")

# Input pools. Every input a workload can draw has a golden output.
VERIFY_SEEDS = tuple(range(8))
INIT_SEEDS = tuple(range(32))
RUN_INIT_SEEDS = tuple(range(4))
OPTIMAL_STATES_PER_CELL = 4
CLI_PLAN_ROUNDS = 64
CHILD_TIMEOUT_S = 120.0

TABLE2_CHECKS = (("table2",), ("table2", "--format", "json"))


# ---------------------------------------------------------------------------
# ops and outcomes


@dataclass(frozen=True)
class CliOp:
    """One ``hyperstep`` command line; ``key`` indexes its golden output."""

    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class TrainOp:
    """One training run; ``key`` is "init_seed/convention/index" into the golden list."""

    config: RunConfig
    init_seed: int
    convention: str
    index: int

    @property
    def key(self) -> str:
        return f"{self.init_seed}/{self.convention}/{self.index}"


@dataclass
class Outcome:
    """What one op did: its time, its output digest and whether the checks passed."""

    seconds: float
    digest: str
    ok: bool
    why: str = ""
    out_bytes: int = 0
    epochs: int = 0
    maxrss_kb: int = 0
    scale: float = 1.0  # set by the runner from the calibration loop around the op

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_digest(trace: Trace) -> str:
    """Digest of every field of every record, with floats taken bit for bit."""
    h = hashlib.sha256()
    nan = float("nan")
    for rec in trace.records:
        p, hy, f = rec.params, rec.hyper_used, rec.hyper_flags
        h.update(
            struct.pack(
                "<q7d", rec.epoch, p.w, nan if p.b is None else p.b, rec.loss,
                hy.eta, hy.alpha, hy.beta, hy.epsilon,
            )
        )
        h.update(f"{f.eta},{f.alpha},{f.beta};".encode())
    h.update(repr((trace.converged_epoch, trace.final_loss, trace.diverged)).encode())
    return h.hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# input pools


def _fmt(x: float) -> str:
    return repr(round(x, 6))


def run_pool() -> list[tuple[str, ...]]:
    """``run`` command lines: every cell, both policies, a few seeded inits."""
    return [
        ("run", "--method", m.value, "--objective", o.value, "--policy", policy, "--init-seed", str(k))
        for m in Method
        for o in ObjectiveId
        for policy in ("fixed", "optimal")
        for k in RUN_INIT_SEEDS
    ]


def optimal_pool() -> list[tuple[str, ...]]:
    """``optimal`` command lines at fixed pseudo-random states, a few per cell."""
    rng = random.Random(2212)
    pool = []
    for m in Method:
        for o in ObjectiveId:
            two = o.arity == 2
            for _ in range(OPTIMAL_STATES_PER_CELL):
                argv = ["optimal", "--method", m.value, "--objective", o.value]
                if o is ObjectiveId.F3:
                    argv += ["--x", _fmt(rng.uniform(0.1, 2.0)), "--y", _fmt(rng.uniform(0.0, 1.0))]
                if m is Method.GD:
                    pass
                elif m is Method.MOMENTUM:
                    argv += ["--w", _fmt(rng.random()), "--v-w", _fmt(rng.uniform(-0.5, 0.5))]
                    if two:
                        argv += ["--b", _fmt(rng.random()), "--v-b", _fmt(rng.uniform(-0.5, 0.5))]
                    argv += ["--alpha", _fmt(rng.random()), "--eta", _fmt(rng.random())]
                elif m is Method.ADAGRAD:
                    argv += ["--phi-w", _fmt(rng.uniform(0.01, 1.0))]
                    if two:
                        argv += ["--phi-b", _fmt(rng.uniform(0.01, 1.0))]
                else:
                    argv += ["--w", _fmt(rng.random()), "--u-w", _fmt(rng.uniform(0.01, 1.0))]
                    if two:
                        argv += ["--b", _fmt(rng.random()), "--u-b", _fmt(rng.uniform(0.01, 1.0))]
                    argv += ["--beta", _fmt(rng.random()), "--eta", _fmt(rng.random())]
                pool.append(tuple(argv))
    return pool


def verify_argv(seed: int, scope: str | None = None) -> tuple[str, ...]:
    argv = ("verify", "--seed", str(seed))
    return argv + ("--scope", scope) if scope else argv


def matrix_configs(init_seed: int, f3_half_gradient: bool) -> list[RunConfig]:
    """The 24 configs ``reproduce_table2`` runs at a seeded init, in its order."""
    configs = []
    for method in Method:
        for obj in ObjectiveId:
            common = dict(
                method=method,
                objective=obj,
                sample=DEFAULT_SAMPLE if obj is ObjectiveId.F3 else None,
                init=RandomInit(seed=init_seed),
                max_epochs=1000,
                f3_half_gradient=f3_half_gradient,
            )
            configs.append(RunConfig(policy=HyperPolicy.optimal(DEFAULT_HYPERS, OPTIMIZED_HYPERS[method]), **common))
            configs.append(RunConfig(policy=HyperPolicy.fixed(DEFAULT_HYPERS), **common))
    return configs


def train_round(init_seed: int) -> list[TrainOp]:
    ops = []
    for convention, half in (("half", True), ("standard", False)):
        for i, cfg in enumerate(matrix_configs(init_seed, half)):
            ops.append(TrainOp(config=cfg, init_seed=init_seed, convention=convention, index=i))
    return ops


def cli_golden_argvs() -> list[tuple[str, ...]]:
    """Every command line any workload can run, and so every one needing a golden."""
    argvs = [verify_argv(s) for s in VERIFY_SEEDS]
    argvs += [verify_argv(s, "gradients") for s in VERIFY_SEEDS]
    argvs += list(TABLE2_CHECKS)
    for argv in run_pool():
        argvs += [argv, argv + ("--format", "json")]
    argvs += optimal_pool()
    return argvs


# ---------------------------------------------------------------------------
# rounds per workload


def make_rounds(workload: str, seed: int) -> list[list]:
    """The workload's rounds for ``seed``; the runner cycles through them."""
    rng = random.Random(seed)
    if workload == "oracle-verify":
        seeds = list(VERIFY_SEEDS)
        rng.shuffle(seeds)
        return [[CliOp(verify_argv(s))] for s in seeds]
    if workload == "train-sweep":
        seeds = list(INIT_SEEDS)
        rng.shuffle(seeds)
        return [train_round(s) for s in seeds]
    if workload == "cli-cold":
        runs, optimal = run_pool(), optimal_pool()
        rounds = []
        for _ in range(CLI_PLAN_ROUNDS):
            ops = [
                CliOp(rng.choice(runs)),
                CliOp(rng.choice(runs) + ("--format", "json")),
                CliOp(rng.choice(optimal)),
                CliOp(("table2",)),
                CliOp(verify_argv(rng.choice(VERIFY_SEEDS), "gradients")),
            ]
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# executing ops


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's sources, inherited thread pins."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kb: int


def spawn(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run a child to exit, timing spawn to exit and reading its own peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out, err, time.perf_counter() - start, usage.ru_maxrss)


def run_cli_in_process(argv: tuple[str, ...], clock=time.perf_counter) -> tuple[int, bytes, float]:
    buf = io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    seconds = clock() - start
    return code, buf.getvalue().encode(), seconds


def check_cli(op: CliOp, code: int, out: bytes, golden: dict) -> tuple[str, bool, str]:
    digest = sha256(out)
    expected = golden["cli"].get(op.key)
    if expected is None:
        return digest, False, f"no golden output for {op.key!r}"
    want_code, want_digest = expected
    if code != want_code:
        return digest, False, f"{op.key!r} exited {code}, expected {want_code}"
    if digest != want_digest:
        return digest, False, f"{op.key!r} output differs from golden"
    return digest, True, ""


def execute_cli_in_process(op: CliOp, golden: dict, clock=time.perf_counter) -> Outcome:
    code, out, seconds = run_cli_in_process(op.argv, clock)
    digest, ok, why = check_cli(op, code, out, golden)
    return Outcome(seconds, digest, ok, why, out_bytes=len(out))


def execute_cli_child(op: CliOp, golden: dict, spans_path: Path | None = None) -> Outcome:
    """Untraced: ``python -m hyperstep.cli``. Traced: the same call under trace_child.py."""
    if spans_path is None:
        argv = [sys.executable, "-m", "hyperstep.cli", *op.argv]
    else:
        argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans_path), *op.argv]
    child = spawn(argv)
    digest, ok, why = check_cli(op, child.returncode, child.stdout, golden)
    err = child.stderr.decode(errors="replace").strip()
    if not ok and err:
        why += ": " + err.splitlines()[-1]
    return Outcome(child.seconds, digest, ok, why, out_bytes=len(child.stdout), maxrss_kb=child.maxrss_kb)


def execute_train(op: TrainOp, golden: dict, clock=time.perf_counter) -> Outcome:
    start = clock()
    trace = harness.run_training(op.config)
    seconds = clock() - start
    digest = trace_digest(trace)
    epochs = len(trace.records) - 1
    expected = golden["train"].get(str(op.init_seed))
    if expected is None:
        return Outcome(seconds, digest, False, f"no golden traces for init seed {op.init_seed}", epochs=epochs)
    offset = 0 if op.convention == "half" else len(expected) // 2
    if digest != expected[offset + op.index]:
        return Outcome(seconds, digest, False, f"train {op.key} trace differs from golden", epochs=epochs)
    optimal_arm = op.index % 2 == 0
    if op.convention == "half" and optimal_arm and trace.converged_epoch != 2:
        why = f"train {op.key}: optimal arm converged at {trace.converged_epoch}, expected 2"
        return Outcome(seconds, digest, False, why, epochs=epochs)
    return Outcome(seconds, digest, True, epochs=epochs)
