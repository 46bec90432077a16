"""Command-line interface: training runs, closed-form queries, oracle checks,
and the convergence comparison report.

Exit codes: 0 success, 1 usage or input error (including divergence) or a
closed stdout pipe (quietly, nothing on stderr), 2 a run hit its epoch budget
without converging, 3 an internal check failed. ``hyperstep optimal`` reads its
state flags through ``optimizers._flat_state`` and solves ``OPTIMIZED_HYPERS``' pairs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, is_dataclass
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable

from .objectives import ObjectiveId, ParamPoint, RegressionSample
from .optimizers import HyperParams, Method, _flat_state
from . import hyperopt
from .harness import (
    DEFAULT_HYPERS,
    DEFAULT_SAMPLE,
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
_TABLE2_COLUMNS = (
    "method", "objective", "optimal_epoch", "optimal_loss", "fixed_epoch", "fixed_loss",
    "published_optimal_epoch", "published_optimal_loss", "published_fixed_epoch", "published_fixed_loss",
)


class _UsageError(Exception):
    """Input problem detected after argument parsing; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for
    # non-convergence, so usage problems are remapped to 1.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _enum_arg(enum: type[Enum], noun: str, text: str) -> Enum:
    """The member of ``enum`` named ``text`` in any case; the error lists the values."""
    try:
        return enum(text.lower())
    except ValueError:
        values = ", ".join(member.value for member in enum)
        raise argparse.ArgumentTypeError(f"unknown {noun} {text!r} (choose from {values})") from None


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
    """Empty for None, booleans as true/false, integers (epochs) and text as they are, floats by ``_fmt``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (str, int)):
        return str(value)
    return _fmt(value)


def _jsonable(value):
    """``value`` as plain JSON data: a dataclass becomes a dict of its fields, an
    enum its value, a set a sorted list, and a non-finite float null (the run or
    check that made it says why), never the token Infinity or NaN, which JSON lacks."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return value


def _json_text(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# every flag of every command, once, as dest -> (converter, argparse extras);
# _COMMANDS picks each command's flags, and the parser and the config-file
# loader both read this table.

def _bool_word(text: str) -> bool:
    word = text.strip().lower()
    if word in ("true", "yes", "on", "1"):
        return True
    if word in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_OPTIONS = {
    "method": (partial(_enum_arg, Method, "method"), {}),
    "objective": (partial(_enum_arg, ObjectiveId, "objective"), {}),
    "policy": (str, {"choices": ["fixed", "optimal"]}),
    "optimize": (str, {"help": "comma list of hyperparameters to re-derive each epoch"}),
    "w": (float, {"help": "current w"}),
    "b": (float, {"help": "current b (two-parameter objectives)"}),
    "v_w": (float, {"help": "velocity, w component"}),
    "v_b": (float, {"help": "velocity, b component"}),
    "phi_w": (float, {"help": "gradient-square sum divisor, w component"}),
    "phi_b": (float, {"help": "gradient-square sum divisor, b component"}),
    "u_w": (float, {"help": "weighted gradient-square, w component"}),
    "u_b": (float, {"help": "weighted gradient-square, b component"}),
    "eta": (float, {}),
    "alpha": (float, {}),
    "beta": (float, {}),
    "epsilon": (float, {}),
    "init": (_init_arg, {"help": 'initial parameters, e.g. "w=0.3,b=0.4"'}),
    "init_seed": (int, {"help": "draw the initial parameters from this seed"}),
    "x": (float, {"help": "regression input (f3)"}),
    "y": (float, {"help": "regression target (f3)"}),
    "max_epochs": (int, {}),
    "tolerance": (float, {}),
    "f3_half_gradient": (_bool_word, {
        "action": argparse.BooleanOptionalAction,
        "help": "use the halved regression gradient (x*r, r) for f3",
    }),
    "format": (str, {"choices": ["csv", "json"]}),
    "output": (str, {"help": "write the output here instead of stdout"}),
    "config": (str, {"help": "flat key=value file supplying any of the above"}),
    "scope": (str, {"choices": hyperopt.SCOPES}),
    "samples": (int, {}),
    "seed": (int, {}),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


# config files: flat "key = value" lines, '#' comments, keys matching the
# long flag names with dashes or underscores. Explicit flags win: over the file's
# entry for the same key, and ``--init`` or ``--init-seed`` over its entry for the other.

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


def _resolve(args: argparse.Namespace, flags: list[str], defaults: dict) -> None:
    """Fill the unset flags of ``args`` from its config file, if the command takes one, then
    from ``defaults``; ``args.given`` keeps those the command line or config file set."""
    path = getattr(args, "config", None)
    entries = _load_config(path) if path is not None else {}
    for key, rival in (("init", "init_seed"), ("init_seed", "init")):
        if getattr(args, rival, None) is not None:
            entries.pop(key, None)
    for key, raw in entries.items():
        if key not in flags or key == "config":
            raise _UsageError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            convert, extras = _OPTIONS[key]
            choices = extras.get("choices")
            try:
                value = convert(raw)
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise _UsageError(f"config key {key!r}: {exc}") from None
            if choices is not None and value not in choices:
                raise _UsageError(f"config key {key!r}: invalid choice {value!r} (choose from {', '.join(choices)})")
            setattr(args, key, value)
    args.given = {dest for dest in flags if getattr(args, dest) is not None}
    for dest in flags:
        if dest not in args.given and dest in defaults:
            setattr(args, dest, defaults[dest])


# ---------------------------------------------------------------------------
# resolution shared by run and table2

def _init_choice(args: argparse.Namespace) -> ParamPoint | RandomInit | None:
    if args.init is not None and args.init_seed is not None:
        raise _UsageError("--init and --init-seed are mutually exclusive")
    return RandomInit(seed=args.init_seed) if args.init_seed is not None else args.init


@contextmanager
def _output(args: argparse.Namespace):
    """Stdout, or the ``--output`` file: created or truncated on entry, before the
    work, so a bad path fails at once, and closed on every path. The work inside
    does no I/O of its own, so an ``OSError`` is the file's open, write or close."""
    if args.output is None:
        yield sys.stdout
        return
    try:
        with open(args.output, "w") as stream:
            yield stream
    except OSError as exc:
        raise _UsageError(f"cannot write {args.output!r}: {exc}") from None


def _emit(out, args: argparse.Namespace, columns: tuple[str, ...], rows, payload) -> None:
    """The CSV header and ``rows``, every cell by ``_csv_cell``, or the JSON ``payload``."""
    if args.format == "json":
        out.write(_json_text(payload))
    else:
        out.write("".join(",".join(map(_csv_cell, row)) + "\n" for row in (columns, *rows)))


def _summary(trace: Trace) -> dict:
    """A trace's fields but its records."""
    return {k: v for k, v in vars(trace).items() if k != "records"}


# ---------------------------------------------------------------------------
# run

def _record_values(rec) -> tuple:
    """One record's values in ``_TRACE_COLUMNS`` order."""
    h, f = rec.hyper_used, rec.hyper_flags
    return (rec.epoch, rec.loss, rec.params.w, rec.params.b, h.eta, h.alpha, h.beta, f.eta, f.alpha, f.beta)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.method is None or args.objective is None:
        raise _UsageError("both --method and --objective are required")
    base = HyperParams(args.eta, args.alpha, args.beta, args.epsilon)

    if args.policy == "fixed":
        if args.optimize is not None:
            raise _UsageError("--optimize only applies to the optimal policy")
        policy = HyperPolicy.fixed(base)
    else:
        names = OPTIMIZED_HYPERS[args.method]
        if args.optimize is not None:
            names = frozenset(p.strip() for p in args.optimize.split(",") if p.strip())
            if not names:
                raise _UsageError("--optimize names no hyperparameters")
        policy = HyperPolicy.optimal(base, names)

    init = _init_choice(args)

    sample = None
    if args.objective is ObjectiveId.F3:
        sample = RegressionSample(x=args.x, y=args.y)
    elif {"x", "y"} & args.given:
        raise _UsageError(f"--x/--y only apply to f3, not {args.objective.value}")

    cfg = RunConfig(
        method=args.method, objective=args.objective, policy=policy, sample=sample, init=init,
        max_epochs=args.max_epochs, tolerance=args.tolerance, f3_half_gradient=args.f3_half_gradient,
    )
    with _output(args) as out:
        trace = run_training(cfg)
        rows = [_record_values(rec) for rec in trace.records]
        records = [dict(zip(_TRACE_COLUMNS, row)) for row in rows]
        config = {**asdict(cfg), "init": resolve_init(cfg), "init_seed": args.init_seed}
        payload = {"format": "json", "config": config, "trace": {**_summary(trace), "records": records}}
        _emit(out, args, _TRACE_COLUMNS, rows, payload)
    if trace.diverged:
        print("run diverged: loss, gradient or optimizer state became non-finite", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if trace.converged_epoch is not None else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# optimal

def _require(args: argparse.Namespace, names: list[str]) -> None:
    missing = [_flag(n) for n in names if n not in args.given]
    if missing:
        raise _UsageError(f"the formula needs {', '.join(missing)}")


# Per method: the state flags its rules read; two-parameter objectives also read each one's b.
_OPTIMAL_NEEDS = {Method.GD: [], Method.MOMENTUM: ["w"], Method.ADAGRAD: ["phi_w"], Method.RMSPROP: ["w", "u_w"]}


def _cmd_optimal(args: argparse.Namespace) -> int:
    method: Method = args.method
    obj: ObjectiveId = args.objective
    flags = _STATE_FLAGS.split()  # the flat layout: w then b of each slot
    unused = [] if obj is ObjectiveId.F3 else ["x", "y"]
    if obj.arity == 1:
        unused += flags[1::2]
    stray = [_flag(n) for n in unused if n in args.given]
    if stray:
        raise _UsageError(f"{obj.value} does not use {', '.join(stray)}")
    for name in flags[4:]:  # the accumulators
        if not getattr(args, name) >= 0.0:
            raise _UsageError(f"{_flag(name)} must be non-negative, got {getattr(args, name)!r}")
    # run's ranges and error texts; alpha stays free, as momentum's rules read it
    # only as the velocity's coefficient, where any real is defined
    HyperParams(eta=args.eta or 0.0, beta=args.beta or 0.0, epsilon=args.epsilon)
    sample = None
    if obj is ObjectiveId.F3:
        _require(args, ["x", "y"])
        sample = RegressionSample(x=args.x, y=args.y)

    needs = _OPTIMAL_NEEDS[method]
    _require(args, needs + ([flags[flags.index(n) + 1] for n in needs] if obj.arity == 2 else []))
    state = _flat_state(obj, [getattr(args, n) for n in flags if n not in unused])
    # eta first, each rule given the method's other tunable hyperparameter, as a run pairs them
    tunable = OPTIMIZED_HYPERS[method]
    rows = [(target, next(iter(tunable - {target}), None)) for target in sorted(tunable, key="eta".__ne__)]
    wanted = [target for target, given in rows if given is None or given in args.given]
    if not wanted:
        choices = ", ".join(f"--{given} to solve {target}" for target, given in rows)
        raise _UsageError(f"provide {choices}, or both")

    known = {name: getattr(args, name) for name in ("eta", "alpha", "beta", "epsilon", "f3_half_gradient")}
    solved = [(target, hyperopt.solve(method, target, obj, state, sample, **known)) for target in wanted]
    for name, fv in solved:
        print(f"{name}: " + " ".join(f"{k}={_csv_cell(v)}" for k, v in vars(fv).items()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # the oracles load numpy, which no other command needs

    report = verify.report(args.scope, args.samples, args.seed, args.method)
    sys.stdout.write(_json_text(report))
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# table2

def _cmd_table2(args: argparse.Namespace) -> int:
    defaults = HyperParams(args.eta, args.alpha, args.beta, args.epsilon)
    sample = RegressionSample(x=args.x, y=args.y)
    init = _init_choice(args)
    chosen = dict(tolerance=args.tolerance, max_epochs=args.max_epochs, f3_half_gradient=args.f3_half_gradient)
    # RunConfig's checks on the settings every cell shares, before --output is opened
    RunConfig(Method.GD, ObjectiveId.F1, HyperPolicy.fixed(defaults), **chosen)
    with _output(args) as out:
        matrix = reproduce_table2(defaults=defaults, sample=sample, init=init, **chosen)
        rows = [(c.method.value, c.objective.value, c.optimal.converged_epoch, c.optimal.final_loss,
                 c.fixed.converged_epoch, c.fixed.final_loss, *vars(c.published).values()) for c in matrix.cells]
        cells = [{**vars(c), "optimal": _summary(c.optimal), "fixed": _summary(c.fixed)} for c in matrix.cells]
        settings = {**asdict(defaults), **asdict(sample), "init": init, **chosen}
        _emit(out, args, _TABLE2_COLUMNS, rows, {"settings": settings, "cells": cells})
    return EXIT_OK


# ---------------------------------------------------------------------------

def _defaults(fn: Callable, **extra) -> dict:
    """``fn``'s parameter defaults overlaid with ``extra``; a dataclass value (the
    hyperparameters, the regression sample) spreads into one entry per field."""
    params = inspect.signature(fn).parameters.values()
    merged = {**{p.name: p.default for p in params if p.default is not p.empty}, **extra}
    out: dict = {}
    for name, value in merged.items():
        out.update(asdict(value) if is_dataclass(value) else {name: value})
    return out


_STATE_FLAGS = "w b v_w v_b phi_w phi_b u_w u_b"
_TABLE2_FLAGS = "eta alpha beta epsilon init init_seed x y max_epochs tolerance f3_half_gradient format output config"

# name -> (help, handler, flags in help order, per-flag argparse overrides, defaults)
_COMMANDS = {
    "run": (
        "run one training configuration and emit its trace", _cmd_run,
        "method objective policy optimize " + _TABLE2_FLAGS, {},
        _defaults(RunConfig, hypers=DEFAULT_HYPERS, sample=DEFAULT_SAMPLE, policy="fixed", format="csv"),
    ),
    "optimal": (
        "closed-form optimal hyperparameters at one state", _cmd_optimal,
        f"method objective {_STATE_FLAGS} x y eta alpha beta epsilon f3_half_gradient",
        {
            "method": {"required": True},
            "objective": {"required": True},
            "eta": {"help": "given eta (solves the coefficient rules)"},
            "alpha": {"help": "given alpha (solves the momentum eta rule)"},
            "beta": {"help": "given beta (solves the rmsprop eta rule)"},
            "f3_half_gradient": {"help": None},
        },
        _defaults(hyperopt.solve, epsilon=DEFAULT_HYPERS.epsilon, **dict.fromkeys(_STATE_FLAGS.split(), 0.0)),
    ),
    "verify": (
        "run the numeric oracles against the closed forms", _cmd_verify,
        "scope samples seed method", {"method": {"help": "restrict to one method"}},
        {"scope": "all", "samples": 1000, "seed": 0},
    ),
    "table2": (
        "4x3 convergence comparison against published values", _cmd_table2,
        _TABLE2_FLAGS, {}, _defaults(reproduce_table2, format="csv"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyperstep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, _, flags, overrides, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for dest in flags.split():
            convert, extras = _OPTIONS[dest]
            extras = {**extras, **overrides.get(dest, {})}
            typed = {} if "action" in extras else {"type": convert}
            command.add_argument(_flag(dest), **typed, **extras)
    return parser


def _dispatch(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    _, handler, flags, _, defaults = _COMMANDS[args.command]
    try:
        _resolve(args, flags.split(), defaults)
        return handler(args)
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
