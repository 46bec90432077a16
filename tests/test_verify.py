"""Pinned oracle reports: a moved random draw or a changed bit anywhere in the
oracle layer (``analyzer`` searches, ``verify`` samplers and rows) fails here.

``oracle_reports.json`` holds each report as ``cli._json_text`` renders it;
JSON floats round-trip exactly, so the comparison is bit for bit.
"""

import json
from pathlib import Path

import pytest

from hyperstep import Method, verify
from hyperstep.cli import _json_text

PINNED = json.loads(Path(__file__).with_name("oracle_reports.json").read_text())

CASES = {
    **{
        f"report/{scope}/{seed}": (verify.report, (scope, 200, seed), {})
        for scope in ("gradients", "one-step")
        for seed in (0, 3)
    },
    **{
        f"pointwise/{m.value}": (verify.check_argmin_pointwise, (m,), {"seed": 7, "states": 5})
        for m in (Method.MOMENTUM, Method.ADAGRAD, Method.RMSPROP)
    },
    # at the size ``hyperstep verify`` runs: seed 0, 100 states
    **{
        f"pointwise/{m.value}/0": (verify.check_argmin_pointwise, (m, 0), {})
        for m in (Method.MOMENTUM, Method.ADAGRAD, Method.RMSPROP)
    },
    "gd": (verify.check_argmin_gd, (0,), {}),
}


def test_every_pinned_report_has_a_case():
    assert sorted(CASES) == sorted(PINNED)


@pytest.mark.parametrize("key", sorted(CASES))
def test_oracle_report_is_pinned(key):
    fn, args, kwargs = CASES[key]
    assert _json_text(fn(*args, **kwargs)) == _json_text(PINNED[key])
