"""Every name the docs cite exists: each ``module.name`` (module one of hyperstep's seven) and
each bare ``_name`` quoted in a docstring or comment of ``src/hyperstep``, or in README.md,
resolves in ``hyperstep`` or one of its modules. ROADMAP.md and CHANGES.md are history and
may name what is gone."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperstep"
MODULES = ("objectives", "optimizers", "hyperopt", "analyzer", "verify", "harness", "cli")

# a quoted span that is exactly ``module.name`` or a bare ``_name`` (a dunder is neither)
_CITED = re.compile(rf"^(?:(?P<module>{'|'.join(MODULES)})\.(?P<name>\w+)|(?P<private>_[A-Za-z]\w*))$")


def _source_texts(path: Path):
    """The docstrings and comments of one module."""
    source = path.read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.string


def _citations():
    """(where, cited span) for every quoted span the docs cite by name."""
    for path in sorted(PACKAGE.glob("*.py")):
        for text in _source_texts(path):
            for span in re.findall(r"``([^`]+)``", text):
                yield path.name, span
    for line in (ROOT / "README.md").read_text().splitlines():
        for span in re.findall(r"(?<!`)`([^`]+)`(?!`)", line):
            yield "README.md", span


def _resolves(match) -> bool:
    if match["module"]:
        return hasattr(importlib.import_module(f"hyperstep.{match['module']}"), match["name"])
    homes = ["hyperstep", *(f"hyperstep.{m}" for m in MODULES)]
    return any(hasattr(importlib.import_module(home), match["private"]) for home in homes)


def test_the_docs_cite_names():
    # the scan finds the names it is meant to check
    cited = {span for _, span in _citations() if _CITED.match(span)}
    assert {"hyperopt._FORMS", "optimizers._RULES", "_solved"} <= cited


def test_every_name_the_docs_cite_exists():
    stale = sorted({(where, span) for where, span in _citations() if (m := _CITED.match(span)) and not _resolves(m)})
    assert stale == []


@pytest.mark.parametrize("span", ["optimizers._no_such_rule", "_no_such_rule", "hyperopt.no_such_rule"])
def test_a_name_that_is_gone_is_caught(span):
    assert not _resolves(_CITED.match(span))
