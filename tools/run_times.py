"""Time the training runs of one train-sweep round in one process: each arm that uses the
whole epoch budget, per epoch, and the whole round.

A round is the benchmark's train-sweep round: the 24 configs ``reproduce_table2`` builds
(12 cells, optimal and fixed arm) from one seeded ``RandomInit`` draw, under the halved f3
gradient and then the standard one, each run once by ``run_training``. Prints the best-of-N
process time per epoch of each arm whose run records its whole 1,000-epoch budget (at the
default seed: the standard-f3 optimal gd, momentum and rmsprop arms and the fixed rmsprop
arms), then of one whole round. Standard library and hyperstep only::

    python tools/run_times.py [--src SRC_DIR] [--repeat N] [--seed S]

``SRC_DIR`` (the repository's ``src`` by default) is the tree hyperstep is imported from,
so that two checkouts can be timed alike, in alternating processes.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

MAX_EPOCHS = 1000


def _best_s(call, repeat: int) -> float:
    """The least process time of ``repeat`` calls of ``call``, in s."""
    best = float("inf")
    for _ in range(repeat):
        start = time.process_time()
        call()
        best = min(best, time.process_time() - start)
    return best


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeat", type=int, default=15, help="calls per timing; the best is printed")
    parser.add_argument("--seed", type=int, default=0, help="the round's init seed")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from hyperstep import (
        DEFAULT_HYPERS, DEFAULT_SAMPLE, OPTIMIZED_HYPERS, HyperPolicy, Method, ObjectiveId, RandomInit, RunConfig,
        harness, run_training,
    )

    arms = {}  # label -> config, in the round's order
    for convention, half in (("half", True), ("standard", False)):
        for method in Method:
            for obj in ObjectiveId:
                common = dict(
                    method=method, objective=obj, sample=DEFAULT_SAMPLE if obj is ObjectiveId.F3 else None,
                    init=RandomInit(args.seed), max_epochs=MAX_EPOCHS, f3_half_gradient=half,
                )
                for policy in ("optimal", "fixed"):
                    chosen = (
                        HyperPolicy.optimal(DEFAULT_HYPERS, OPTIMIZED_HYPERS[method]) if policy == "optimal"
                        else HyperPolicy.fixed(DEFAULT_HYPERS)
                    )
                    arms[f"{convention} {obj.value} {policy} {method.value}"] = RunConfig(policy=chosen, **common)

    def round_():
        for cfg in arms.values():
            run_training(cfg)

    print(f"hyperstep from {Path(harness.__file__).parent}; best of {args.repeat}, process time")
    round_()  # warm the process: imports, the seeded draw, the shared flags
    for label, cfg in arms.items():
        if len(run_training(cfg).records) == MAX_EPOCHS:
            per_epoch = _best_s(lambda c=cfg: run_training(c), args.repeat) / (MAX_EPOCHS - 1)
            print(f"{label:<32} {per_epoch * 1e6:9.2f} us/epoch")
    print(f"{'round':<32} {_best_s(round_, args.repeat) * 1e3:9.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
