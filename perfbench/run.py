"""Benchmark entry point.

    python3 perfbench/run.py --workload train-sweep --seed 0 --seconds 30 --trace 0

Runs one workload on the hyperstep sources of the checkout it sits in and
prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

import argparse
import os
import sys
from pathlib import Path

# Pinned before numpy is imported, here and, by inheritance, in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["oracle-verify", "train-sweep", "cli-cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hyperstep" / "__init__.py").is_file():
        print(f"error: no hyperstep sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import hyperstep

    if Path(hyperstep.__file__).resolve().parent != src / "hyperstep":
        print(f"error: imported hyperstep from {hyperstep.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import bench

    try:
        result, record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bench.report(result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
