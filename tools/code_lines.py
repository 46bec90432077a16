"""Count the lines of each module of ``src/hyperstep`` and of the package in total.

Three counts per module, so change records can quote one measure:

- ``lines``: every line of the file, as ``wc -l`` counts them;
- ``code``: lines that hold a token of code (``tokenize``), less the lines of
  docstrings (found by ``ast``); comments and blank lines hold no such token;
- ``docstring``: lines that a module, class or function docstring spans.

Standard library only::

    python tools/code_lines.py [SRC_DIR]

``SRC_DIR`` defaults to the repository's ``src/hyperstep``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers each module, class and function docstring spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _token_lines(source: str) -> set[int]:
    """The line numbers that hold a token other than a comment or a line break."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The three counts of one module's ``source``."""
    docs = _docstring_lines(ast.parse(source))
    return {"lines": len(source.splitlines()), "code": len(_token_lines(source) - docs), "docstring": len(docs)}


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "hyperstep"
    rows = [(path.name, count(path.read_text())) for path in sorted(src.glob("*.py"))]
    rows.append(("total", {key: sum(c[key] for _, c in rows) for key in ("lines", "code", "docstring")}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}  {'docstring':>9}")
    for name, c in rows:
        print(f"{name:<{width}}  {c['lines']:>6}  {c['code']:>6}  {c['docstring']:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
