"""Snapshot of the public API: every name in ``hyperstep.__all__`` keeps its
signature, enum members and constant values.

``api_snapshot.json`` records each callable as ``str(inspect.signature(...))``
(classes by their ``__init__``) and each enum's members. Constants are
compared by equality here, so set-valued ones do not depend on iteration order.
"""

import enum
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperstep
from hyperstep import HyperParams, Method, ObjectiveId, PublishedCell, RegressionSample

SNAPSHOT = json.loads(Path(__file__).with_name("api_snapshot.json").read_text())
SRC = Path(__file__).resolve().parent.parent / "src"

_GD, _MOM, _ADA, _RMS = Method.GD, Method.MOMENTUM, Method.ADAGRAD, Method.RMSPROP
_F1, _F2, _F3 = ObjectiveId.F1, ObjectiveId.F2, ObjectiveId.F3

CONSTANTS = {
    "SINGULAR_TOL": 1e-12,
    "DEFAULT_HYPERS": HyperParams(eta=0.1, alpha=0.5, beta=0.5, epsilon=1e-08),
    "DEFAULT_SAMPLE": RegressionSample(x=0.3, y=0.23),
    "DEFAULT_TOLERANCE": 1e-12,
    "OPTIMIZED_HYPERS": {
        _GD: frozenset({"eta"}),
        _MOM: frozenset({"alpha", "eta"}),
        _ADA: frozenset({"eta"}),
        _RMS: frozenset({"beta", "eta"}),
    },
    "PUBLISHED_RESULTS": {
        (_GD, _F1): PublishedCell(2, 0.0, 63, 2e-13),
        (_GD, _F2): PublishedCell(2, 0.0, 58, 2e-13),
        (_GD, _F3): PublishedCell(2, 0.0, 127, 0.0),
        (_MOM, _F1): PublishedCell(2, 0.0, 32, 2e-13),
        (_MOM, _F2): PublishedCell(2, 0.0, 26, 2e-13),
        (_MOM, _F3): PublishedCell(4, 4e-14, 205, 2e-13),
        (_ADA, _F1): PublishedCell(2, 0.0, 123, 2e-13),
        (_ADA, _F2): PublishedCell(2, 0.0, 461, 2e-13),
        (_ADA, _F3): PublishedCell(2, 0.0, 311, 2e-13),
        (_RMS, _F1): PublishedCell(2, 0.0, 48, 0.0025),
        (_RMS, _F2): PublishedCell(2, 0.0, 56, 0.01),
        (_RMS, _F3): PublishedCell(2, 6e-33, 13, 5e-09),
    },
    "__version__": "0.1.0",
}


def test_every_public_name_is_snapshotted():
    recorded = [*SNAPSHOT["signatures"], *SNAPSHOT["enums"], *CONSTANTS]
    assert sorted(hyperstep.__all__) == sorted(recorded)


def test_signatures_unchanged():
    for name, expected in SNAPSHOT["signatures"].items():
        obj = getattr(hyperstep, name)
        assert str(inspect.signature(obj.__init__ if isinstance(obj, type) else obj)) == expected, name


def test_enum_members_unchanged():
    for name, expected in SNAPSHOT["enums"].items():
        cls = getattr(hyperstep, name)
        assert issubclass(cls, enum.Enum)
        assert [[m.name, m.value] for m in cls] == expected, name


def test_constant_values_unchanged():
    for name, expected in CONSTANTS.items():
        assert getattr(hyperstep, name) == expected, name


# The export table: a bare import loads no submodule; each name resolves from its home module.
_BARE_IMPORT = """
import json, sys
import hyperstep

seen = {"modules": sorted(m for m in sys.modules if m.startswith("hyperstep")), "numpy": "numpy" in sys.modules}
seen["harness"] = hyperstep.harness is sys.modules["hyperstep.harness"]
try:
    hyperstep.no_such_name
except AttributeError as exc:
    seen["unknown"] = str(exc)
print(json.dumps(seen))
"""


def test_a_bare_import_loads_no_submodule_and_resolves_a_home_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _BARE_IMPORT], capture_output=True, env=env, timeout=60, check=True)
    assert json.loads(proc.stdout) == {
        "modules": ["hyperstep"],
        "numpy": False,
        "harness": True,
        "unknown": "module 'hyperstep' has no attribute 'no_such_name'",
    }


@pytest.mark.parametrize("name", sorted(set(hyperstep.__all__) - {"__version__"}))
def test_each_public_name_is_its_home_modules_object(name):
    (home,) = [home for home, names in hyperstep._EXPORTS.items() if name in names]
    assert getattr(hyperstep, name) is getattr(importlib.import_module(f"hyperstep.{home}"), name)


def test_dir_lists_every_public_name():
    assert set(hyperstep.__all__) <= set(dir(hyperstep))
