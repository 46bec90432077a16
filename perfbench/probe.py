"""Set-up probe: a fresh interpreter that imports hyperstep and builds a workload's inputs.

The runner times each probe from spawn to exit; the median is ``setup_s``.
The probe prints how long ``import hyperstep.cli`` took inside it, which
the traced run reports as ``cli.import_ms``.

Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root)]
    start = time.perf_counter()
    import hyperstep.cli  # noqa: F401

    import_ms = (time.perf_counter() - start) * 1e3
    from perfbench import workloads

    workloads.make_rounds(sys.argv[1], int(sys.argv[2]))
    print(json.dumps({"import_ms": import_ms}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
