"""Command-line interface: training runs, closed-form queries, oracle checks,
and the convergence comparison report.

Exit codes: 0 success, 1 usage or input error (including divergence) or a
closed stdout pipe (quietly, nothing on stderr), 2 a run hit its epoch budget
without converging, 3 an internal check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable

from .objectives import ObjectiveId, ParamPoint, RegressionSample
from .optimizers import HyperParams, Method, OptimizerState, PerCoord
from . import hyperopt, verify
from .harness import (
    DEFAULT_HYPERS,
    DEFAULT_SAMPLE,
    DEFAULT_TOLERANCE,
    OPTIMIZED_HYPERS,
    HyperPolicy,
    RandomInit,
    RunConfig,
    Trace,
    reproduce_table2,
    resolve_init,
    run_training,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CHECK_FAILED = 3

_TRACE_COLUMNS = ("epoch", "loss", "w", "b", "eta", "alpha", "beta", "eta_flag", "alpha_flag", "beta_flag")
TRACE_HEADER = ",".join(_TRACE_COLUMNS)
TABLE2_HEADER = (
    "method,objective,optimal_epoch,optimal_loss,fixed_epoch,fixed_loss,"
    "published_optimal_epoch,published_optimal_loss,published_fixed_epoch,published_fixed_loss"
)


class _UsageError(Exception):
    """Input problem detected after argument parsing; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for
    # non-convergence, so usage problems are remapped to 1.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _method_arg(text: str) -> Method:
    try:
        return Method(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown method {text!r} (choose from gd, momentum, adagrad, rmsprop)"
        ) from None


def _objective_arg(text: str) -> ObjectiveId:
    try:
        return ObjectiveId(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown objective {text!r} (choose from f1, f2, f3)") from None


def _init_arg(text: str) -> ParamPoint:
    values: dict[str, float] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, raw = piece.partition("=")
        key = key.strip()
        if not sep or key not in ("w", "b"):
            raise argparse.ArgumentTypeError(f"bad init component {piece!r}; expected w=... or b=...")
        try:
            values[key] = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad number in init component {piece!r}") from None
    if "w" not in values:
        raise argparse.ArgumentTypeError(f"init {text!r} must set w")
    return ParamPoint(w=values["w"], b=values.get("b"))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _csv_cell(value) -> str:
    """Empty for None, integers (epochs) and text as they are, floats by ``_fmt``."""
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return _fmt(value)


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def _json_text(payload) -> str:
    """Strict JSON: a non-finite float becomes null (the run or check that made
    it says why), never the token Infinity or NaN, which JSON lacks."""
    return json.dumps(_finite_or_null(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _pick(*values):
    for v in values:
        if v is not None:
            return v
    return None


# ---------------------------------------------------------------------------
# options of run and table2 as (flag, converter, argparse extras); the parser
# and the config-file loader both read these tables.

_TRUE_WORDS = {"true", "yes", "on", "1"}
_FALSE_WORDS = {"false", "no", "off", "0"}


def _bool_word(text: str) -> bool:
    word = text.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise _UsageError(f"expected a boolean, got {text!r}")


_TABLE2_OPTIONS = (
    ("--eta", float, {}),
    ("--alpha", float, {}),
    ("--beta", float, {}),
    ("--epsilon", float, {}),
    ("--init", _init_arg, {"help": 'initial parameters, e.g. "w=0.3,b=0.4"'}),
    ("--init-seed", int, {"help": "draw the initial parameters from this seed"}),
    ("--x", float, {"help": "regression input (f3)"}),
    ("--y", float, {"help": "regression target (f3)"}),
    ("--max-epochs", int, {}),
    ("--tolerance", float, {}),
    ("--f3-half-gradient", _bool_word, {
        "action": argparse.BooleanOptionalAction,
        "help": "use the halved regression gradient (x*r, r) for f3",
    }),
    ("--format", str, {"choices": ["csv", "json"]}),
    ("--output", str, {"help": "write the output here instead of stdout"}),
)

_RUN_OPTIONS = (
    ("--method", _method_arg, {}),
    ("--objective", _objective_arg, {}),
    ("--policy", str, {"choices": ["fixed", "optimal"]}),
    ("--optimize", str, {"help": "comma list of hyperparameters to re-derive each epoch"}),
) + _TABLE2_OPTIONS


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _add_options(p: argparse.ArgumentParser, options) -> None:
    for flag, convert, extras in options:
        typed = {} if "action" in extras else {"type": convert}
        p.add_argument(flag, **typed, **extras)
    p.add_argument("--config", help="flat key=value file supplying any of the above")


# config files: flat "key = value" lines, '#' comments, keys matching the
# long flag names with dashes or underscores. Explicit flags win.

def _load_config(path: str) -> dict[str, str]:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path!r}: {exc}") from None
    entries: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _apply_config(args: argparse.Namespace, options) -> None:
    if args.config is None:
        return
    known = {flag[2:].replace("-", "_"): (convert, extras.get("choices")) for flag, convert, extras in options}
    for key, raw in _load_config(args.config).items():
        if key not in known:
            raise _UsageError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            convert, choices = known[key]
            try:
                value = convert(raw)
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise _UsageError(f"config key {key!r}: {exc}") from None
            if choices is not None and value not in choices:
                raise _UsageError(f"config key {key!r}: invalid choice {value!r} (choose from {', '.join(choices)})")
            setattr(args, key, value)


# ---------------------------------------------------------------------------
# resolution shared by run and table2

def _base_hypers(args: argparse.Namespace) -> HyperParams:
    return HyperParams(**{k: _pick(getattr(args, k), v) for k, v in asdict(DEFAULT_HYPERS).items()})


def _init_choice(args: argparse.Namespace) -> ParamPoint | RandomInit | None:
    if args.init is not None and args.init_seed is not None:
        raise _UsageError("--init and --init-seed are mutually exclusive")
    return RandomInit(seed=args.init_seed) if args.init_seed is not None else args.init


def _emit(args: argparse.Namespace, to_csv: Callable[[], str], to_json: Callable[[], str]) -> None:
    text = to_csv() if _pick(args.format, "csv") == "csv" else to_json()
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        Path(args.output).write_text(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {args.output!r}: {exc}") from None


# ---------------------------------------------------------------------------
# run

def _record_values(rec) -> tuple:
    """One record's values in ``_TRACE_COLUMNS`` order."""
    h, f = rec.hyper_used, rec.hyper_flags
    return (rec.epoch, rec.loss, rec.params.w, rec.params.b, h.eta, h.alpha, h.beta, f.eta, f.alpha, f.beta)


def _render_trace_csv(trace: Trace) -> str:
    lines = [TRACE_HEADER]
    lines.extend(",".join(map(_csv_cell, _record_values(rec))) for rec in trace.records)
    return "\n".join(lines) + "\n"


def _config_echo(cfg: RunConfig, init_seed: int | None) -> dict:
    return {
        "method": cfg.method.value,
        "objective": cfg.objective.value,
        "sample": None if cfg.sample is None else asdict(cfg.sample),
        "init": asdict(resolve_init(cfg)),
        "init_seed": init_seed,
        "policy": {
            "kind": cfg.policy.kind.value,
            "optimize": sorted(cfg.policy.optimize),
            "base": asdict(cfg.policy.base),
        },
        "max_epochs": cfg.max_epochs,
        "tolerance": cfg.tolerance,
        "f3_half_gradient": cfg.f3_half_gradient,
    }


def _trace_summary(trace: Trace) -> dict:
    return {"converged_epoch": trace.converged_epoch, "final_loss": trace.final_loss, "diverged": trace.diverged}


def _render_artifact_json(trace: Trace, cfg: RunConfig, init_seed: int | None) -> str:
    records = [dict(zip(_TRACE_COLUMNS, _record_values(rec))) for rec in trace.records]
    payload = {
        "format": "json",
        "config": _config_echo(cfg, init_seed),
        "trace": {"records": records, **_trace_summary(trace)},
    }
    return _json_text(payload)


def _build_run_config(args: argparse.Namespace) -> tuple[RunConfig, int | None]:
    _apply_config(args, _RUN_OPTIONS)
    if args.method is None or args.objective is None:
        raise _UsageError("both --method and --objective are required")
    method: Method = args.method
    objective: ObjectiveId = args.objective

    base = _base_hypers(args)

    if _pick(args.policy, "fixed") == "fixed":
        if args.optimize is not None:
            raise _UsageError("--optimize only applies to the optimal policy")
        policy = HyperPolicy.fixed(base)
    else:
        if args.optimize is None:
            names = OPTIMIZED_HYPERS[method]
        else:
            names = frozenset(p.strip() for p in args.optimize.split(",") if p.strip())
            if not names:
                raise _UsageError("--optimize names no hyperparameters")
        policy = HyperPolicy.optimal(base, names)

    init = _init_choice(args)

    sample = None
    if objective is ObjectiveId.F3:
        sample = RegressionSample(x=_pick(args.x, DEFAULT_SAMPLE.x), y=_pick(args.y, DEFAULT_SAMPLE.y))
    elif args.x is not None or args.y is not None:
        raise _UsageError(f"--x/--y only apply to f3, not {objective.value}")

    cfg = RunConfig(
        method=method,
        objective=objective,
        policy=policy,
        sample=sample,
        init=init,
        max_epochs=_pick(args.max_epochs, 200),
        tolerance=_pick(args.tolerance, DEFAULT_TOLERANCE),
        f3_half_gradient=_pick(args.f3_half_gradient, False),
    )
    return cfg, args.init_seed


def _cmd_run(args: argparse.Namespace) -> int:
    cfg, init_seed = _build_run_config(args)
    trace = run_training(cfg)
    _emit(args, lambda: _render_trace_csv(trace), lambda: _render_artifact_json(trace, cfg, init_seed))
    if trace.diverged:
        print("run diverged: loss, gradient or optimizer state became non-finite", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if trace.converged_epoch is not None else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# optimal

def _require(args: argparse.Namespace, names: list[str]) -> None:
    missing = [_flag(n) for n in names if getattr(args, n) is None]
    if missing:
        raise _UsageError(f"the formula needs {', '.join(missing)}")


def _build_state(args: argparse.Namespace, obj: ObjectiveId) -> OptimizerState:
    # the b flags are unset on one-parameter objectives (_cmd_optimal rejects them)
    zero_b = 0.0 if obj.arity == 2 else None
    return OptimizerState(
        params=ParamPoint(w=_pick(args.w, 0.0), b=_pick(args.b, zero_b)),
        velocity=PerCoord(w=_pick(args.v_w, 0.0), b=_pick(args.v_b, zero_b)),
        grad_sq_sum=PerCoord(w=_pick(args.phi_w, 0.0), b=_pick(args.phi_b, zero_b)),
        weighted_grad_sq=PerCoord(w=_pick(args.u_w, 0.0), b=_pick(args.u_b, zero_b)),
    )


# Per method: the state flags its rules read (any objective, then two-parameter
# ones only) and one (solved, given flag) row per rule; rows lacking the flag skip.
_OPTIMAL_ROWS = {
    Method.GD: ([], [], [("eta", None)]),
    Method.MOMENTUM: (["w"], ["b"], [("eta", "alpha"), ("alpha", "eta")]),
    Method.ADAGRAD: (["phi_w"], ["phi_b"], [("eta", None)]),
    Method.RMSPROP: (["w", "u_w"], ["b", "u_b"], [("eta", "beta"), ("beta", "eta")]),
}


def _cmd_optimal(args: argparse.Namespace) -> int:
    method: Method = args.method
    obj: ObjectiveId = args.objective
    unused = [] if obj is ObjectiveId.F3 else ["x", "y"]
    if obj.arity == 1:
        unused += ["b", "v_b", "phi_b", "u_b"]
    stray = [_flag(n) for n in unused if getattr(args, n) is not None]
    if stray:
        raise _UsageError(f"{obj.value} does not use {', '.join(stray)}")
    sample = None
    if obj is ObjectiveId.F3:
        _require(args, ["x", "y"])
        sample = RegressionSample(x=args.x, y=args.y)

    needs, needs_two, rows = _OPTIMAL_ROWS[method]
    _require(args, needs + (needs_two if obj.arity == 2 else []))
    state = _build_state(args, obj)
    wanted = [target for target, given in rows if given is None or getattr(args, given) is not None]
    if not wanted:
        choices = ", ".join(f"--{given} to solve {target}" for target, given in rows)
        raise _UsageError(f"provide {choices}, or both")

    epsilon = _pick(args.epsilon, DEFAULT_HYPERS.epsilon)
    half = _pick(args.f3_half_gradient, False)
    given = dict(eta=args.eta, alpha=args.alpha, beta=args.beta, epsilon=epsilon, f3_half_gradient=half)
    solved = [(target, hyperopt.solve(method, target, obj, state, sample, **given)) for target in wanted]
    for name, fv in solved:
        print(
            f"{name}: value={_fmt(fv.value)} raw={_fmt(fv.raw)} "
            f"feasible={_fmt_bool(fv.feasible)} defined={_fmt_bool(fv.defined)}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify.report(
        args.scope or "all",
        args.samples if args.samples is not None else 1000,
        args.seed if args.seed is not None else 0,
        args.method,
    )
    sys.stdout.write(_json_text(report))
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# table2

def _render_table2_csv(matrix) -> str:
    lines = [TABLE2_HEADER]
    for c in matrix.cells:
        values = (
            c.method.value, c.objective.value,
            c.optimal.converged_epoch, c.optimal.final_loss, c.fixed.converged_epoch, c.fixed.final_loss,
            *asdict(c.published).values(),
        )
        lines.append(",".join(map(_csv_cell, values)))
    return "\n".join(lines) + "\n"


def _render_table2_json(matrix, settings: dict) -> str:
    cells = [
        {
            "method": c.method.value,
            "objective": c.objective.value,
            "optimal": _trace_summary(c.optimal),
            "fixed": _trace_summary(c.fixed),
            "published": asdict(c.published),
        }
        for c in matrix.cells
    ]
    return _json_text({"settings": settings, "cells": cells})


def _cmd_table2(args: argparse.Namespace) -> int:
    _apply_config(args, _TABLE2_OPTIONS)
    defaults = _base_hypers(args)
    sample = RegressionSample(x=_pick(args.x, DEFAULT_SAMPLE.x), y=_pick(args.y, DEFAULT_SAMPLE.y))
    init = _init_choice(args)
    half = _pick(args.f3_half_gradient, True)
    tolerance = _pick(args.tolerance, DEFAULT_TOLERANCE)
    max_epochs = _pick(args.max_epochs, 1000)
    matrix = reproduce_table2(
        defaults=defaults,
        sample=sample,
        init=init,
        tolerance=tolerance,
        max_epochs=max_epochs,
        f3_half_gradient=half,
    )
    settings = {
        **asdict(defaults),
        **asdict(sample),
        "init": None if init is None else asdict(init),
        "tolerance": tolerance,
        "max_epochs": max_epochs,
        "f3_half_gradient": half,
    }
    _emit(args, lambda: _render_table2_csv(matrix), lambda: _render_table2_json(matrix, settings))
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_state_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--w", type=float, help="current w")
    p.add_argument("--b", type=float, help="current b (two-parameter objectives)")
    p.add_argument("--v-w", type=float, help="velocity, w component")
    p.add_argument("--v-b", type=float, help="velocity, b component")
    p.add_argument("--phi-w", type=float, help="gradient-square sum divisor, w component")
    p.add_argument("--phi-b", type=float, help="gradient-square sum divisor, b component")
    p.add_argument("--u-w", type=float, help="weighted gradient-square, w component")
    p.add_argument("--u-b", type=float, help="weighted gradient-square, b component")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyperstep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run one training configuration and emit its trace")
    _add_options(run, _RUN_OPTIONS)
    run.set_defaults(handler=_cmd_run)

    optimal = sub.add_parser("optimal", help="closed-form optimal hyperparameters at one state")
    optimal.add_argument("--method", type=_method_arg, required=True)
    optimal.add_argument("--objective", type=_objective_arg, required=True)
    _add_state_options(optimal)
    optimal.add_argument("--x", type=float, help="regression input (f3)")
    optimal.add_argument("--y", type=float, help="regression target (f3)")
    optimal.add_argument("--eta", type=float, help="given eta (solves the coefficient rules)")
    optimal.add_argument("--alpha", type=float, help="given alpha (solves the momentum eta rule)")
    optimal.add_argument("--beta", type=float, help="given beta (solves the rmsprop eta rule)")
    optimal.add_argument("--epsilon", type=float)
    optimal.add_argument("--f3-half-gradient", action=argparse.BooleanOptionalAction)
    optimal.set_defaults(handler=_cmd_optimal)

    oracles = sub.add_parser("verify", help="run the numeric oracles against the closed forms")
    oracles.add_argument("--scope", choices=verify.SCOPES)
    oracles.add_argument("--samples", type=int)
    oracles.add_argument("--seed", type=int)
    oracles.add_argument("--method", type=_method_arg, help="restrict to one method")
    oracles.set_defaults(handler=_cmd_verify)

    table2 = sub.add_parser("table2", help="4x3 convergence comparison against published values")
    _add_options(table2, _TABLE2_OPTIONS)
    table2.set_defaults(handler=_cmd_table2)

    return parser


def _dispatch(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # a reader that closed the pipe surfaces here, not at exit
    except BrokenPipeError:
        # stdout goes to devnull so the interpreter's flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
