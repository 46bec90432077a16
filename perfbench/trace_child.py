"""A traced ``hyperstep`` command: the cli-cold op with the tracer installed.

Runs ``hyperstep.cli.main(ARGS)`` as ``python -m hyperstep.cli ARGS`` would,
then saves the spans to SPANS_PATH for the runner to absorb.

Usage: python3 perfbench/trace_child.py SPANS_PATH ARGS...
"""

import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.tracer import Tracer
    import hyperstep.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.save(Path(sys.argv[1]))
    return code


if __name__ == "__main__":
    sys.exit(main())
