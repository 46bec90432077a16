"""Time the numeric oracles in one process: the checks of a full verify report, the page
faults of one report and the public f2 eta search of each method on large grids.

Prints, for ``verify.report("all", 1000, seed)``:

- the best-of-N process time of each of its checks, run as the report runs it, and of
  the whole report;
- the minor page faults one report takes after a first report has warmed the process;

then the best-of-N process time of ``argmin_hyper(method, F2, "eta", ...)`` per method on
grids of 200x200, 300x300 and 600x600 points over the domain (-1, 1), every state slot
at 0.5 and the default hyperparameters. Standard library and hyperstep only::

    python tools/oracle_times.py [--src SRC_DIR] [--repeat N] [--seed S]

``SRC_DIR`` (the repository's ``src`` by default) is the tree hyperstep is imported from,
so that two checkouts can be timed alike, in alternating processes.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path


def _best_ms(call, repeat: int) -> float:
    """The least process time of ``repeat`` calls of ``call``, in ms."""
    best = float("inf")
    for _ in range(repeat):
        start = time.process_time()
        call()
        best = min(best, time.process_time() - start)
    return best * 1e3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeat", type=int, default=9, help="calls per timing; the best is printed")
    parser.add_argument("--seed", type=int, default=0, help="the report's seed")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from hyperstep import (
        DEFAULT_HYPERS, Method, ObjectiveId, OptimizerState, ParamPoint, PerCoord, SamplingMode, SamplingSpec,
        argmin_hyper, verify,
    )

    samples, seed = 1000, args.seed
    # the report's checks in its order: gradients, each method's argmin, each method's one-step
    checks = {"gradients": lambda: verify._check_gradients(samples, seed), "argmin/gd": verify.check_argmin_gd}
    for method in list(Method)[1:]:
        checks[f"argmin/{method.value}"] = lambda m=method: verify.check_argmin_pointwise(m, seed)
    for method in Method:
        checks[f"one-step/{method.value}"] = lambda m=method: verify._check_one_step(m, samples, seed)
    checks["report"] = lambda: verify.report("all", samples, seed)

    print(f"hyperstep from {Path(verify.__file__).parent}; best of {args.repeat}, process time")
    checks["report"]()  # warm the process: imports, caches, numpy's first calls
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    checks["report"]()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    for name, call in checks.items():
        print(f"{name:<24} {_best_ms(call, args.repeat):9.2f} ms")
    print(f"{'report minor faults':<24} {faults:9d}")

    half = PerCoord(0.5, 0.5)
    template = OptimizerState(ParamPoint(0.0, 0.0), velocity=half, grad_sq_sum=half, weighted_grad_sq=half)
    for n in (200, 300, 600):
        spec = SamplingSpec(SamplingMode.GRID, n, domain=(-1.0, 1.0))
        for method in Method:
            def search(m=method):
                argmin_hyper(m, ObjectiveId.F2, "eta", DEFAULT_HYPERS, None, spec, template)
            print(f"{f'f2 eta {n}x{n} {method.value}':<24} {_best_ms(search, args.repeat):9.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
