"""Time one kind of hyperstep's work in one process: the training runs of a train-sweep
round, the checks of a verify report, or the public f2 eta searches on large grids.

- ``runs``: a train-sweep round is the 24 configs ``reproduce_table2`` builds (12 cells,
  optimal and fixed arm) from one seeded ``RandomInit`` draw, under the halved f3 gradient
  and then the standard one, each run once by ``run_training``. Prints the best-of-N
  process time per epoch of each arm whose run records its whole 1,000-epoch budget (at
  the default seed: the standard-f3 optimal gd, momentum and rmsprop arms and the fixed
  rmsprop arms), then of one whole round.
- ``oracle``: for ``verify.report("all", 1000, seed)``, the best-of-N process time of each
  of its checks, run as the report runs it, and of the whole report; then the minor page
  faults one report takes after a first report has warmed the process.
- ``grids``: the best-of-N process time of ``argmin_hyper(method, F2, "eta", ...)`` per
  method on grids of 200x200, 300x300 and 600x600 points over the domain (-1, 1), every
  state slot at 0.5 and the default hyperparameters. It takes no seed.

One kind per process, so no figure follows what another kind allocated before it.
Standard library and hyperstep only::

    python tools/times.py {runs,oracle,grids} [--src SRC_DIR] [--repeat N] [--seed S]

``SRC_DIR`` (the repository's ``src`` by default) is the tree hyperstep is imported from,
so that two checkouts can be timed alike, in alternating processes.
"""

from __future__ import annotations

import argparse
import resource
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


def _runs(hs, repeat: int, seed: int) -> None:
    arms = {}  # label -> config, in the round's order
    for convention, half in (("half", True), ("standard", False)):
        for method in hs.Method:
            for obj in hs.ObjectiveId:
                common = dict(
                    method=method, objective=obj, sample=hs.DEFAULT_SAMPLE if obj is hs.ObjectiveId.F3 else None,
                    init=hs.RandomInit(seed), max_epochs=MAX_EPOCHS, f3_half_gradient=half,
                )
                for policy in ("optimal", "fixed"):
                    chosen = (
                        hs.HyperPolicy.optimal(hs.DEFAULT_HYPERS, hs.OPTIMIZED_HYPERS[method]) if policy == "optimal"
                        else hs.HyperPolicy.fixed(hs.DEFAULT_HYPERS)
                    )
                    arms[f"{convention} {obj.value} {policy} {method.value}"] = hs.RunConfig(policy=chosen, **common)

    def round_():
        for cfg in arms.values():
            hs.run_training(cfg)

    round_()  # warm the process: imports, the seeded draw, the shared flags
    for label, cfg in arms.items():
        if len(hs.run_training(cfg).records) == MAX_EPOCHS:
            per_epoch = _best_s(lambda c=cfg: hs.run_training(c), repeat) / (MAX_EPOCHS - 1)
            print(f"{label:<32} {per_epoch * 1e6:9.2f} us/epoch")
    print(f"{'round':<32} {_best_s(round_, repeat) * 1e3:9.2f} ms")


def _oracle(hs, repeat: int, seed: int) -> None:
    from hyperstep import verify

    samples = 1000
    # the report's checks in its order: gradients, each method's argmin, each method's one-step
    checks = {"gradients": lambda: verify._check_gradients(samples, seed), "argmin/gd": verify.check_argmin_gd}
    for method in list(hs.Method)[1:]:
        checks[f"argmin/{method.value}"] = lambda m=method: verify.check_argmin_pointwise(m, seed)
    for method in hs.Method:
        checks[f"one-step/{method.value}"] = lambda m=method: verify._check_one_step(m, samples, seed)
    checks["report"] = lambda: verify.report("all", samples, seed)

    checks["report"]()  # warm the process: imports, caches, numpy's first calls
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    checks["report"]()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    for name, call in checks.items():
        print(f"{name:<24} {_best_s(call, repeat) * 1e3:9.2f} ms")
    print(f"{'report minor faults':<24} {faults:9d}")


def _grids(hs, repeat: int, seed: int) -> None:
    half = hs.PerCoord(0.5, 0.5)
    template = hs.OptimizerState(hs.ParamPoint(0.0, 0.0), velocity=half, grad_sq_sum=half, weighted_grad_sq=half)
    for n in (200, 300, 600):
        spec = hs.SamplingSpec(hs.SamplingMode.GRID, n, domain=(-1.0, 1.0))
        for method in hs.Method:
            def search(m=method):
                hs.argmin_hyper(m, hs.ObjectiveId.F2, "eta", hs.DEFAULT_HYPERS, None, spec, template)
            print(f"{f'f2 eta {n}x{n} {method.value}':<24} {_best_s(search, repeat) * 1e3:9.2f} ms")


_KINDS = {"runs": _runs, "oracle": _oracle, "grids": _grids}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=list(_KINDS), help="the work to time")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeat", type=int, default=9, help="calls per timing; the best is printed")
    parser.add_argument("--seed", type=int, default=0, help="the round's init seed or the report's seed")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import hyperstep

    print(f"hyperstep from {Path(hyperstep.__file__).parent}; best of {args.repeat}, process time")
    _KINDS[args.kind](hyperstep, args.repeat, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
