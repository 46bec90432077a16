"""Command-line interface: exit codes, output schemas, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hyperstep import HyperPolicy, RandomInit, RunConfig, cli, verify
from hyperstep.harness import ComparisonCell, PublishedCell, Trace
from hyperstep.cli import EXIT_CHECK_FAILED, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_USAGE, TRACE_HEADER, main

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_optimal_policy_converges(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--method", "gd", "--objective", "f1", "--policy", "optimal"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 3  # header plus two epochs


def test_run_exit_code_on_non_convergence(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--method", "gd", "--objective", "f1",
        "--policy", "fixed", "--eta", "0", "--max-epochs", "5",
    )
    assert code == EXIT_NO_CONVERGENCE
    assert len(out.strip().splitlines()) == 6


def test_run_exit_code_on_bad_objective(capsys):
    code, _, err = run_cli(capsys, "run", "--method", "gd", "--objective", "f9")
    assert code == EXIT_USAGE
    assert "f9" in err


def test_run_exit_code_on_divergence(capsys):
    code, out, err = run_cli(
        capsys, "run", "--method", "gd", "--objective", "f1",
        "--eta", "1e150", "--max-epochs", "10",
    )
    assert code == EXIT_USAGE
    assert "diverged" in err


def test_run_requires_method_and_objective(capsys):
    code, _, err = run_cli(capsys, "run", "--objective", "f1")
    assert code == EXIT_USAGE


def test_trace_csv_round_trips_floats(capsys):
    from hyperstep import (
        DEFAULT_HYPERS,
        HyperPolicy,
        Method,
        ObjectiveId,
        RunConfig,
        run_training,
    )

    code, out, _ = run_cli(
        capsys, "run", "--method", "gd", "--objective", "f1",
        "--policy", "fixed", "--max-epochs", "4",
    )
    assert code == EXIT_NO_CONVERGENCE
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    trace = run_training(
        RunConfig(
            method=Method.GD,
            objective=ObjectiveId.F1,
            policy=HyperPolicy.fixed(DEFAULT_HYPERS),
            max_epochs=4,
        )
    )
    assert len(rows) == len(trace.records)
    for row, rec in zip(rows, trace.records):
        # %.17g text recovers every float bit for bit
        assert float(row[1]) == rec.loss
        assert float(row[2]) == rec.params.w
        assert row[3] == ""  # one-parameter objective leaves the b column empty


def test_trace_csv_flag_columns(capsys):
    _, out, _ = run_cli(
        capsys, "run", "--method", "momentum", "--objective", "f1", "--policy", "optimal"
    )
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows[0][7:10] == ["", "", ""]
    assert rows[1][7] == "closed_form"
    assert rows[1][8] == "fallback"
    assert rows[1][9] == "fixed"


def test_run_json_artifact_structure(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--method", "gd", "--objective", "f3", "--policy", "optimal",
        "--format", "json", "--f3-half-gradient",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["method"] == "gd"
    assert doc["config"]["objective"] == "f3"
    assert doc["config"]["sample"] == {"x": 0.3, "y": 0.23}
    assert doc["config"]["f3_half_gradient"] is True
    assert doc["config"]["init"] == {"w": 0.3, "b": 0.3}
    assert doc["trace"]["converged_epoch"] == 2
    assert len(doc["trace"]["records"]) == 2
    assert doc["trace"]["records"][0]["eta_flag"] == ""


def test_run_json_config_follows_the_dataclasses(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--method", "rmsprop", "--objective", "f3", "--policy", "optimal",
        "--init-seed", "3", "--format", "json",
    )
    assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
    config = json.loads(out)["config"]
    assert set(config) == {f.name for f in fields(RunConfig)} | {"init_seed"}
    assert set(config["policy"]) == {f.name for f in fields(HyperPolicy)}
    assert config["policy"]["kind"] == "optimal_per_epoch"
    assert config["policy"]["optimize"] == ["beta", "eta"]
    assert config["init_seed"] == 3
    assert set(config["init"]) == {"w", "b"}  # the drawn point, not the seed


def test_run_output_file(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "run", "--method", "gd", "--objective", "f1",
        "--policy", "optimal", "--output", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().startswith(TRACE_HEADER)


def test_init_and_init_seed_are_mutually_exclusive(capsys):
    code, _, err = run_cli(
        capsys, "run", "--method", "gd", "--objective", "f1",
        "--init", "w=0.2", "--init-seed", "3",
    )
    assert code == EXIT_USAGE
    assert "mutually exclusive" in err


@pytest.mark.parametrize(
    "entry, flags",
    [("init_seed = 3", ["--init", "w=0.2"]), ("init = w=0.2", ["--init-seed", "3"])],
    ids=["init-over-config-seed", "seed-over-config-init"],
)
def test_an_init_flag_drops_the_config_entry_for_the_other(tmp_path, capsys, entry, flags):
    # an explicit flag wins over the config file, also where the file sets the other way to start
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{entry}\n")
    argv = ["run", "--method", "gd", "--objective", "f1", "--format", "json", *flags]
    by_flags = run_cli(capsys, *argv)
    assert by_flags[0] == EXIT_OK
    assert run_cli(capsys, *argv, "--config", str(cfg)) == by_flags


def test_init_and_init_seed_in_one_config_file_are_mutually_exclusive(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("init = w=0.2\ninit_seed = 3\n")
    code, out, err = run_cli(capsys, "run", "--method", "gd", "--objective", "f1", "--config", str(cfg))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --init and --init-seed are mutually exclusive\n"


def test_empty_init_pieces_are_skipped(capsys):
    argv = ["run", "--method", "gd", "--objective", "f2", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--init", "w=0.3,,b=0.4,")
    assert code == EXIT_OK
    assert json.loads(out)["config"]["init"] == {"w": 0.3, "b": 0.4}
    assert run_cli(capsys, *argv, "--init", "w=0.3,b=0.4") == (code, out, "")



# a malformed argument or config file: exit 1 with one error naming what is wrong, before any output
_RUN = ("run", "--method", "gd", "--objective", "f1")


@pytest.mark.parametrize(
    "argv, config, message",
    [
        pytest.param(["--init", "w=abc"], None, "bad number in init component 'w=abc'", id="init-number"),
        pytest.param(["--init", "b=0.4"], None, "init 'b=0.4' must set w", id="init-without-w"),
        pytest.param([], "missing", "cannot read config file {cfg!r}", id="config-missing"),
        pytest.param(
            [], "# a comment\nbogus line\n", "{cfg}:2: expected 'key = value', got 'bogus line'", id="config-line"
        ),
        pytest.param(["--policy", "optimal", "--optimize", ","], None, "--optimize names no hyperparameters",
                     id="optimize-empty"),
    ],
)
def test_a_malformed_argument_or_config_file_is_a_usage_error(tmp_path, capsys, argv, config, message):
    cfg = str(tmp_path / "run.cfg")
    if config is not None:
        if config != "missing":
            Path(cfg).write_text(config)
        argv = [*argv, "--config", cfg]
    code, out, err = run_cli(capsys, *_RUN, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert message.format(cfg=cfg) in err


def test_optimal_subcommand_output_format(capsys):
    code, out, _ = run_cli(
        capsys, "optimal", "--method", "momentum", "--objective", "f1",
        "--w", "0.3", "--v-w", "0.1", "--alpha", "0.5", "--eta", "0.375",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    pattern = r"^(eta|alpha): value=\S+ raw=\S+ feasible=(true|false) defined=(true|false)$"
    for line in lines:
        assert re.match(pattern, line), line
    assert lines[0].startswith("eta: value=0.375")
    assert lines[1].startswith("alpha: value=0.5 ")


def test_optimal_subcommand_takes_given_values_outside_unit_interval(capsys):
    # the given alpha is the rule's input, not a step setting, so it is not range-checked
    code, out, _ = run_cli(
        capsys, "optimal", "--method", "momentum", "--objective", "f1",
        "--w", "0.3", "--v-w", "0.1", "--alpha", "1.5",
    )
    assert code == EXIT_OK
    assert out.startswith("eta: value=0.12499999999999997 ")


def test_optimal_subcommand_reports_infeasible_values(capsys):
    code, out, _ = run_cli(
        capsys, "optimal", "--method", "rmsprop", "--objective", "f1",
        "--w", "0.3", "--u-w", "0.2", "--eta", "0.1", "--epsilon", "0",
    )
    assert code == EXIT_OK
    assert "feasible=false" in out
    assert "raw=-3" in out


def test_optimal_subcommand_requires_state(capsys):
    code, _, err = run_cli(capsys, "optimal", "--method", "adagrad", "--objective", "f1")
    assert code == EXIT_USAGE
    assert "--phi-w" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--method", "gd", "--objective", "f1", "--x", "5", "--y", "1"], "--x, --y"),
        (["--method", "gd", "--objective", "f2", "--y", "1"], "--y"),
        (["--method", "gd", "--objective", "f1", "--b", "0.2"], "--b"),
        (["--method", "momentum", "--objective", "f1", "--w", "0.3", "--v-w", "0.1", "--v-b", "0.1",
          "--alpha", "0.5"], "--v-b"),
        (["--method", "adagrad", "--objective", "f1", "--phi-w", "0.3", "--phi-b", "0.3"], "--phi-b"),
        (["--method", "rmsprop", "--objective", "f1", "--w", "0.3", "--u-w", "0.2", "--u-b", "0.2",
          "--eta", "0.1"], "--u-b"),
    ],
    ids=["x-y-on-f1", "y-on-f2", "b", "v-b", "phi-b", "u-b"],
)
def test_optimal_subcommand_rejects_flags_the_objective_does_not_use(capsys, argv, flag):
    code, out, err = run_cli(capsys, "optimal", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"does not use {flag}\n" in err


def test_optimal_subcommand_requires_a_given_hyper(capsys):
    code, _, err = run_cli(
        capsys, "optimal", "--method", "momentum", "--objective", "f1",
        "--w", "0.3", "--v-w", "0.1",
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--method", "adagrad", "--objective", "f1", "--phi-w", "0.1", "--epsilon", "-1"],
         "epsilon must be a finite non-negative real, got -1.0"),
        (["--method", "adagrad", "--objective", "f1", "--phi-w", "-1"], "--phi-w must be non-negative, got -1.0"),
        (["--method", "adagrad", "--objective", "f2", "--phi-w", "0.1", "--phi-b", "-0.5"],
         "--phi-b must be non-negative, got -0.5"),
        (["--method", "rmsprop", "--objective", "f1", "--w", "0.3", "--u-w", "0.2", "--eta", "0.1", "--beta", "2"],
         "beta must lie in [0, 1], got 2.0"),
        (["--method", "rmsprop", "--objective", "f1", "--w", "0.3", "--u-w", "-0.2", "--eta", "0.1"],
         "--u-w must be non-negative, got -0.2"),
        (["--method", "rmsprop", "--objective", "f2", "--w", "0.3", "--u-w", "0.2", "--b", "0.1", "--u-b", "nan",
          "--beta", "0.5"], "--u-b must be non-negative, got nan"),
        (["--method", "momentum", "--objective", "f1", "--w", "0.3", "--v-w", "0.1", "--alpha", "0.5", "--eta", "-1"],
         "eta must be a finite non-negative real, got -1.0"),
        (["--method", "gd", "--objective", "f1", "--eta", "inf"], "eta must be a finite non-negative real, got inf"),
    ],
    ids=["epsilon", "phi-w", "phi-b", "beta", "u-w", "u-b-nan", "eta", "eta-inf"],
)
def test_optimal_subcommand_rejects_values_outside_their_ranges(capsys, argv, message):
    code, out, err = run_cli(capsys, "optimal", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"
    hyper = re.match(r"(eta|beta|epsilon) ", message)
    if hyper:  # the same range and text as a run's step setting
        value = argv[argv.index(f"--{hyper[1]}") + 1]
        run_argv = ["run", "--method", "rmsprop", "--objective", "f1", f"--{hyper[1]}", value]
        assert run_cli(capsys, *run_argv)[2] == err


def test_verify_gradients_scope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "gradients", "--samples", "100")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == ["gradients/f1", "gradients/f2", "gradients/f3"]


def test_verify_one_step_scope_single_method(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--scope", "one-step", "--samples", "100", "--method", "momentum"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["passed"] is True
    (check,) = report["checks"]
    assert check["name"] == "one-step/momentum"
    assert check["max_deviation"] <= 1e-20
    assert check["tested"] > 0


def test_verify_argmin_scope_single_method(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "argmin", "--method", "adagrad")
    assert code == EXIT_OK
    report = json.loads(out)
    (check,) = report["checks"]
    assert check["name"] == "argmin/adagrad"
    assert check["min_defined_fraction"] >= 0.95


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_sample_counts_below_one(capsys, samples):
    with pytest.raises(ValueError, match="samples"):
        verify.report("gradients", int(samples), 0)
    with pytest.raises(ValueError, match="scope"):
        verify.report("gradient", 10, 0)
    code, out, err = run_cli(capsys, "verify", "--scope", "gradients", "--samples", samples)
    assert code == EXIT_USAGE
    assert out == ""
    assert "samples must be at least 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--method", "gd", "--objective", "f1", "--init-seed", "-1"],
        ["table2", "--init-seed", "-1"],
        ["verify", "--scope", "gradients", "--samples", "10", "--seed", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seeds_are_rejected_by_name(capsys, argv):
    with pytest.raises(ValueError, match="seed must be non-negative"):
        RandomInit(seed=-1)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        verify.report("gradients", 10, -1)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "seed must be non-negative, got -1" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method, expected", [("adagrad", EXIT_OK), ("rmsprop", EXIT_NO_CONVERGENCE)])
def test_coordinate_without_gradient_stays_put_at_zero_epsilon(capsys, method, expected):
    # at x = 0 f3's w has no gradient, so with epsilon = 0 its divisor is 0;
    # w must stay put while b alone fits y (rmsprop then sits at its plateau)
    code, out, err = run_cli(
        capsys, "run", "--method", method, "--objective", "f3",
        "--x", "0", "--y", "0.5", "--epsilon", "0",
    )
    assert code == expected
    assert err == ""
    assert all(float(line.split(",")[2]) == 0.3 for line in out.strip().splitlines()[1:])


_STATE_DIVERGED = "run diverged: loss, gradient or optimizer state became non-finite\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, expected, expected_err, digest",
    [
        (
            ["table2", "--init", "w=1e154"],
            EXIT_OK,
            "",
            "b02daac3495a28ca99be6e65f57881e88e0f98aa24b1a140b45c592e4a073946",
        ),
        (
            ["run", "--method", "adagrad", "--objective", "f1", "--init", "w=1e154"],
            EXIT_USAGE,
            _STATE_DIVERGED,
            "7ef40d5929e37788ede8c60f63c66a4d1c75c8b2027e67ad481e1c31e889af34",
        ),
    ],
    ids=["table2", "run"],
)
def test_overflow_inside_a_run_writes_no_warnings(capsys, argv, expected, expected_err, digest):
    # the trace already records the overflow; stdout is the reference output
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    assert err == expected_err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("method", ["adagrad", "rmsprop"])
def test_overflowed_accumulator_ends_the_run_as_diverged(capsys, method):
    # phi + g * g overflows to inf at w = 1e154; every later step would divide by sqrt(inf)
    code, out, err = run_cli(
        capsys, "run", "--method", method, "--objective", "f1", "--init", "w=1e154", "--format", "json"
    )
    trace = json.loads(out)["trace"]
    assert code == EXIT_USAGE
    assert err == _STATE_DIVERGED
    assert trace["diverged"] is True
    assert len(trace["records"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--method", "gd", "--objective", "f1"],
        ["table2"],
        ["verify", "--scope", "gradients", "--samples", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exits_quietly(argv):
    # the read end is closed before the child starts, so its first flush fails;
    # buffered output, as a user's shell gives it, fails only at the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hyperstep.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == EXIT_USAGE


# numpy stays unloaded through the scalar commands, a zero divisor included, then
# loads where it is needed: at the first analyzer name, and in verify
_COLD_PATH = """
import contextlib, io, json, sys
import hyperstep
from hyperstep import cli

seen = {"import": "numpy" in sys.modules}
for name, argv in (
    ("optimal", ["optimal", "--method", "rmsprop", "--objective", "f1", "--w", "0.3", "--u-w", "0.2", "--eta", "0.1"]),
    ("run", ["run", "--method", "adagrad", "--objective", "f3", "--init-seed", "3", "--format", "json"]),
    ("table2", ["table2"]),
    ("zero_divisor", ["run", "--method", "rmsprop", "--objective", "f1", "--beta", "1", "--epsilon", "0"]),
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        seen[name] = [cli.main(argv), "numpy" in sys.modules, err.getvalue()]
seen["dir"] = "argmin_hyper" in dir(hyperstep)
seen["argmin_hyper"] = hyperstep.argmin_hyper is sys.modules["hyperstep.analyzer"].argmin_hyper
with contextlib.redirect_stdout(io.StringIO()):
    seen["verify"] = cli.main(["verify", "--scope", "gradients", "--samples", "10"])
print(json.dumps(seen))
"""


def test_numpy_stays_off_the_cold_path():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _COLD_PATH], capture_output=True, env=env, timeout=120, check=True
    )
    seen = json.loads(proc.stdout)
    assert seen["import"] is False
    assert seen["optimal"] == [EXIT_OK, False, ""]
    assert seen["run"] == [EXIT_OK, False, ""]
    assert seen["table2"] == [EXIT_OK, False, ""]
    # IEEE's inf in plain floats, no warning and no ZeroDivisionError: the run ends as diverged
    code, loaded, err = seen["zero_divisor"]
    assert (code, loaded) == (EXIT_USAGE, False)
    assert err.startswith("run diverged")
    assert seen["dir"] is seen["argmin_hyper"] is True
    assert seen["verify"] == EXIT_OK


# each scalar command's exit code, stdout and stderr; with "blocked", numpy cannot be imported
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # an import of numpy now raises ImportError
from hyperstep import cli

seen = {}
for name, argv in json.loads(sys.argv[2]).items():
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        seen[name] = [cli.main(argv), out.getvalue(), err.getvalue()]
print(json.dumps(seen))
"""

_SCALAR_COMMANDS = {
    "optimal": ["optimal", "--method", "rmsprop", "--objective", "f1", "--w", "0.3", "--u-w", "0.2", "--eta", "0.1"],
    "run": ["run", "--method", "adagrad", "--objective", "f3", "--init-seed", "3", "--format", "json"],
    # rmsprop at beta = 1 and epsilon = 0 divides by 0: x / 0 gives inf, and 0 / 0 (at eta = 0) NaN
    "x_over_zero": ["run", "--method", "rmsprop", "--objective", "f1", "--beta", "1", "--epsilon", "0"],
    "zero_over_zero": [
        "run", "--method", "rmsprop", "--objective", "f1", "--beta", "1", "--epsilon", "0", "--eta", "0",
    ],
    "table2": ["table2"],
    "table2_json": ["table2", "--format", "json"],
}


def test_scalar_commands_run_without_numpy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    commands = json.dumps(_SCALAR_COMMANDS)
    blocked, loaded = (
        json.loads(
            subprocess.run(
                [sys.executable, "-W", "error", "-c", _WITHOUT_NUMPY, mode, commands],
                capture_output=True, env=env, timeout=120, check=True,
            ).stdout
        )
        for mode in ("blocked", "loaded")
    )
    assert blocked == loaded
    diverged = {"x_over_zero": "inf", "zero_over_zero": "nan"}
    assert {name: code for name, (code, _, _) in blocked.items()} == {
        name: EXIT_USAGE if name in diverged else EXIT_OK for name in _SCALAR_COMMANDS
    }
    for name, w in diverged.items():
        _, out, err = blocked[name]
        assert err.startswith("run diverged"), name
        assert [row.split(",")[2] for row in out.splitlines()[1:]] == ["0.29999999999999999", w]  # the w column


def test_table2_is_byte_identical_across_invocations(capsys):
    code_a, out_a, _ = run_cli(capsys, "table2")
    code_b, out_b, _ = run_cli(capsys, "table2")
    assert code_a == code_b == EXIT_OK
    assert out_a == out_b
    lines = out_a.strip().splitlines()
    assert len(lines) == 13  # header plus 12 cells
    assert lines[0].startswith("method,objective,optimal_epoch")


def test_table2_json_structure(capsys):
    code, out, _ = run_cli(capsys, "table2", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["cells"]) == 12
    first = doc["cells"][0]
    assert first["method"] == "gd" and first["objective"] == "f1"
    assert first["optimal"]["converged_epoch"] == 2
    assert first["published"]["fixed_epoch"] == 63
    assert doc["settings"]["f3_half_gradient"] is True
    # each cell is a ComparisonCell, its arms Traces without their records
    assert set(first) == {f.name for f in fields(ComparisonCell)}
    assert set(first["published"]) == {f.name for f in fields(PublishedCell)}
    assert set(first["optimal"]) == set(first["fixed"]) == {f.name for f in fields(Trace)} - {"records"}


def test_config_file_fills_unset_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults for a quick run\n"
        "method = gd\n"
        "objective = f1\n"
        "policy = optimal\n"
        "eta = 0.4\n"
    )
    code, out, _ = run_cli(
        capsys, "run", "--config", str(cfg), "--format", "json", "--eta", "0.3"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    # the explicit flag wins over the config entry
    assert doc["config"]["policy"]["base"]["eta"] == 0.3
    assert doc["config"]["method"] == "gd"


@pytest.mark.parametrize(
    "config, argv",
    [
        (
            "method = rmsprop\nobjective = f3\npolicy = optimal\noptimize = eta\nbeta = 0.4\n"
            "epsilon = 1e-6\ninit = w=0.2,b=0.4\nx = 0.5\ny = 0.1\nmax_epochs = 30\ntolerance = 1e-10\n"
            "f3-half-gradient = yes\nformat = json\n",
            ["run", "--method", "rmsprop", "--objective", "f3", "--policy", "optimal", "--optimize", "eta",
             "--beta", "0.4", "--epsilon", "1e-6", "--init", "w=0.2,b=0.4", "--x", "0.5", "--y", "0.1",
             "--max-epochs", "30", "--tolerance", "1e-10", "--f3-half-gradient", "--format", "json"],
        ),
        (
            "init_seed = 3\nmax-epochs = 50\nf3_half_gradient = no\nformat = json\n",
            ["table2", "--init-seed", "3", "--max-epochs", "50", "--no-f3-half-gradient", "--format", "json"],
        ),
    ],
    ids=["run", "table2"],
)
def test_config_file_matches_flags(tmp_path, capsys, config, argv):
    cfg = tmp_path / "same.cfg"
    cfg.write_text(config)
    by_flags = run_cli(capsys, *argv)
    assert by_flags[1] != ""
    assert run_cli(capsys, argv[0], "--config", str(cfg)) == by_flags


@pytest.mark.parametrize(
    "argv, count",
    [
        (["run", "--method", "gd", "--objective", "f1", "--max-epochs", "2"], 17),
        (["table2", "--max-epochs", "1"], 13),
    ],
    ids=["run", "table2"],
)
def test_every_long_option_is_a_config_key(tmp_path, monkeypatch, capsys, argv, count):
    _, help_text, _ = run_cli(capsys, argv[0], "--help")
    options = set(re.findall(r"--[a-z][a-z0-9-]*", help_text)) - {"--help", "--config"}
    options = {o for o in options if not o.startswith("--no-")}
    assert len(options) == count
    monkeypatch.chdir(tmp_path)  # an "output = 1" entry writes here
    cfg = tmp_path / "one.cfg"
    for option in sorted(options):
        for key in (option[2:], option[2:].replace("-", "_")):
            cfg.write_text(f"{key} = 1\n")
            _, _, err = run_cli(capsys, *argv, "--config", str(cfg))
            assert "unknown config key" not in err, key


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for argv, key in [
        (["run", "--method", "gd", "--objective", "f1"], "velocity"),
        (["run", "--method", "gd", "--objective", "f1"], "help"),
        (["run", "--method", "gd", "--objective", "f1"], "config"),
        (["table2"], "help"),
        (["table2"], "method"),
    ]:
        cfg.write_text(f"{key} = gd\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_USAGE, key
        assert out == ""
        assert f"unknown config key {key!r}" in err


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["table2"], "format", "xml"),
        (["run", "--method", "gd", "--objective", "f1"], "format", "xml"),
        (["run", "--method", "gd", "--objective", "f1"], "policy", "best"),
    ],
    ids=["table2-format", "run-format", "run-policy"],
)
def test_config_value_outside_choices_fails_before_any_work(tmp_path, monkeypatch, capsys, argv, key, value):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config file was checked")

    monkeypatch.setattr(cli, "reproduce_table2", no_work)
    monkeypatch.setattr(cli, "run_training", no_work)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == EXIT_USAGE
    assert out == ""
    assert f"config key {key!r}: invalid choice {value!r}" in err


@pytest.mark.parametrize("argv", [["run", "--method", "gd", "--objective", "f1"], ["table2"]], ids=lambda a: a[0])
def test_unwritable_output_fails_before_any_work(tmp_path, monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --output was opened")

    monkeypatch.setattr(cli, "reproduce_table2", no_work)
    monkeypatch.setattr(cli, "run_training", no_work)
    target = str(tmp_path / "missing" / "out.csv")
    code, out, err = run_cli(capsys, *argv, "--output", target)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot write {target!r}: ")


def test_output_file_is_truncated_and_closed_when_the_work_fails(tmp_path, monkeypatch, capsys):
    def failing_run(cfg):
        raise ValueError("the run failed")

    monkeypatch.setattr(cli, "run_training", failing_run)
    target = tmp_path / "trace.csv"
    target.write_text("stale\n")
    code, out, err = run_cli(capsys, "run", "--method", "gd", "--objective", "f1", "--output", str(target))
    assert (code, out, err) == (EXIT_USAGE, "", "error: the run failed\n")
    assert target.read_text() == ""  # created or truncated up front, as a shell redirect is


@pytest.mark.parametrize("argv", [["run", "--method", "gd", "--objective", "f1"], ["table2"]], ids=lambda a: a[0])
def test_invalid_settings_leave_the_output_file_alone(tmp_path, capsys, argv):
    target = tmp_path / "kept.csv"
    target.write_text("kept\n")
    code, out, err = run_cli(capsys, *argv, "--max-epochs", "0", "--output", str(target))
    assert (code, out, err) == (EXIT_USAGE, "", "error: max_epochs must be at least 1, got 0\n")
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [["run", "--method", "gd", "--objective", "f1"], ["table2"]], ids=lambda a: a[0])
def test_config_bad_boolean_names_its_key(tmp_path, capsys, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("f3-half-gradient = maybe\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: config key 'f3_half_gradient': expected a boolean, got 'maybe'\n"


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_diverged_run_json_is_strict(capsys):
    code, out, _ = run_cli(capsys, "run", "--method", "gd", "--objective", "f1", "--eta", "5", "--format", "json")
    assert code == EXIT_USAGE
    trace = json.loads(out, parse_constant=_reject_constant)["trace"]
    assert trace["diverged"] is True
    assert trace["final_loss"] is None
    assert trace["records"][-1]["loss"] is None


def test_diverged_table2_json_is_strict(capsys):
    code, out, _ = run_cli(capsys, "table2", "--format", "json", "--eta", "5")
    assert code == EXIT_OK
    cells = json.loads(out, parse_constant=_reject_constant)["cells"]
    diverged = [c["fixed"] for c in cells if c["fixed"]["diverged"]]
    assert diverged
    assert all(arm["final_loss"] is None for arm in diverged)


def test_x_y_rejected_off_f3(capsys):
    code, _, err = run_cli(
        capsys, "run", "--method", "gd", "--objective", "f1", "--x", "0.5"
    )
    assert code == EXIT_USAGE


def test_help_exits_cleanly(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == EXIT_OK
    assert "run" in out and "verify" in out and "table2" in out


def test_every_golden_command_line_reproduces_its_output(capsys):
    # the benchmark's reference outputs, run in process: exit code and stdout
    # sha256 of every run, optimal and table2 line (table2 pins the fixed arm
    # against the published numbers) and every verify line, the eight
    # full-scope ones included
    golden = json.loads(GOLDEN.read_text())["cli"]
    assert len(golden) == 252
    wrong = []
    for key in golden:
        code, out, _ = run_cli(capsys, *key.split(" "))
        if [code, hashlib.sha256(out.encode()).hexdigest()] != golden[key]:
            wrong.append(key)
    assert wrong == []


# Every flag of ``cli._OPTIONS`` takes values from these: half of each number or count
# in range, half an edge of parsing or garbage. Paths lie in the example's directory,
# "{tmp}" in the drawn text, a missing one and the directory itself included.
_NUMBERS = st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "-0", "1e400", "-1e400", "5e-324", "-1", "", "abc"]))
_COUNT_EDGES = ["", "abc", "1.5", "nan", "1e400", "-0", "-1", "0"]
_EPOCHS = st.one_of(st.integers(1, 40).map(str), st.sampled_from(_COUNT_EDGES))
# a seed of 2**128 + 1 costs nothing; as an epoch cap it would let a fixed arm that
# neither converges nor diverges (rmsprop's 2-cycle) run on without end
_COUNTS = st.one_of(st.integers(1, 40).map(str), st.sampled_from(
    _COUNT_EDGES + ["340282366920938463463374607431768211457"]))
_VALUES = {
    "method": st.sampled_from(["gd", "Momentum", "ADAGRAD", "rmsprop", "sgd"]),
    "objective": st.sampled_from(["f1", "F2", "f3", "f4"]),
    "policy": st.sampled_from(["fixed", "optimal", "best"]),
    "optimize": st.sampled_from(["eta", "alpha", "beta", "eta,alpha", "eta, beta", "", ",", "gamma"]),
    "init": st.sampled_from(["w=0.3", "w=0.3,b=0.4", "w=nan", "w=-inf,b=1e400", "b=0.4", "w=", "w=0.3,b=x", "", "x"]),
    "init_seed": _COUNTS,
    "max_epochs": _EPOCHS,
    "f3_half_gradient": st.sampled_from(["true", "no", "1", "maybe", ""]),
    "format": st.sampled_from(["csv", "json", "xml"]),
    "output": st.sampled_from(["{tmp}/out.txt", "{tmp}", "{tmp}/missing/out.txt", ""]),
    "config": st.sampled_from(["{tmp}/config.txt", "{tmp}", "{tmp}/missing.txt"]),
    # verify stays cheap: never the argmin scope, and a handful of samples
    "scope": st.sampled_from(["gradients", "one-step", "everything", ""]),
    "samples": st.sampled_from(["", "abc", "nan", "1e400", "-1", "0", "1", "2", "5"]),
    "seed": _COUNTS,
}


@st.composite
def _cli_cases(draw):
    """A command, a subset of its flags with drawn values, and 0-4 config-file lines;
    run and optimal always name a method and an objective, which they need to go further."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = cli._COMMANDS[command][2].split()
    needed = ["method", "objective"] if command in ("run", "optimal") else []
    drawn = draw(st.lists(st.sampled_from([f for f in flags if f not in needed]), unique=True, max_size=5))
    argv = [command]
    for dest in needed + drawn:
        if dest == "f3_half_gradient":
            argv.append(draw(st.sampled_from(["--f3-half-gradient", "--no-f3-half-gradient"])))
        else:
            argv += [cli._flag(dest), draw(_VALUES.get(dest, _NUMBERS))]
    if command == "verify":  # given on the line, so no config line can widen them
        argv += ["--scope", draw(_VALUES["scope"]), "--samples", draw(st.sampled_from(["1", "2", "3"]))]
    entry = st.sampled_from(flags).flatmap(
        lambda k: st.tuples(st.sampled_from([k, k.replace("_", "-")]), _VALUES.get(k, _NUMBERS)))
    line = st.one_of(entry.map(" = ".join), st.sampled_from(["no equals sign", "# a comment", "", "unknown = 1"]))
    return argv, draw(st.lists(line, max_size=4))


@settings(max_examples=120, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_cli_cases())
def test_any_command_line_ends_in_an_exit_code(tmp_path, case):
    # whatever the flags and the config file say, main returns 0-3 and raises nothing
    argv, lines = ([text.replace("{tmp}", str(tmp_path)) for text in texts] for texts in case)
    (tmp_path / "config.txt").write_text("\n".join(lines))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NO_CONVERGENCE, EXIT_CHECK_FAILED)
