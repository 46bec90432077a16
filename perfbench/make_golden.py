"""Write golden.json: the reference outputs every benchmark op is checked against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_golden.py

For each command line a workload can run it stores the exit code and the
sha256 of stdout; for each seeded init of train-sweep it stores a digest of
all 48 traces. It refuses to write if a verify report fails or if an optimal
half-gradient arm does not converge at epoch 2, so the goldens only hold
inputs on which no op fails.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    from hyperstep import harness
    from perfbench import workloads

    golden = {"cli": {}, "train": {}}
    for argv in workloads.cli_golden_argvs():
        code, out, _ = workloads.run_cli_in_process(argv)
        if argv[0] == "verify" and not json.loads(out)["passed"]:
            print(f"refusing: {' '.join(argv)} does not pass", file=sys.stderr)
            return 1
        golden["cli"][" ".join(argv)] = [code, workloads.sha256(out)]
    for seed in workloads.INIT_SEEDS:
        digests = []
        for op in workloads.train_round(seed):
            trace = harness.run_training(op.config)
            if op.convention == "half" and op.index % 2 == 0 and trace.converged_epoch != 2:
                print(f"refusing: train {op.key} optimal arm converged at {trace.converged_epoch}", file=sys.stderr)
                return 1
            digests.append(workloads.trace_digest(trace))
        golden["train"][str(seed)] = digests
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['cli'])} command goldens and {len(golden['train'])} train rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
