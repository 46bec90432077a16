"""Pinned oracle reports: a moved random draw or a changed bit anywhere in the
oracle layer (``analyzer`` searches, ``verify`` samplers and rows) fails here.

``oracle_reports.json`` holds each report as ``cli._json_text`` renders it;
JSON floats round-trip exactly, so the comparison is bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hyperstep import Method, ObjectiveId, verify
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


# every column layout the checks draw: gradients, pointwise per target, one-step per coefficient
LAYOUTS = {
    **{f"gradients/{o.value}": [verify._UNIT] * o.arity for o in ObjectiveId},
    **{
        f"pointwise/{o.value}/{t}": verify._pointwise_columns(o, t)
        for o in ObjectiveId for t in ("eta", "alpha", "beta")
    },
    **{
        f"one-step/{o.value}/{c}": verify._one_step_columns(o, c)
        for o in ObjectiveId for c in (None, "alpha", "beta")
    },
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_block_draw_equals_successive_single_row_draws(layout):
    columns = LAYOUTS[layout]
    block = verify._draw(np.random.default_rng(9), 40, columns)
    rng = np.random.default_rng(9)
    rows = np.vstack([verify._draw(rng, 1, columns) for _ in range(40)])
    assert block.tobytes() == rows.tobytes()
    # and one row is the scalar draws, column by column: uniform(lo, hi), or 1 - u from (0, 1]
    rng = np.random.default_rng(9)
    for row in block.tolist():
        scalar = [
            1.0 - float(rng.random()) if c == verify._OPEN_UNIT else float(rng.uniform(*c)) for c in columns
        ]
        assert [x.hex() for x in row] == [x.hex() for x in scalar]
