"""Smoke test of the growth ladder: one small row of two families, in process.

``ladder/run.py`` times each row in its own subprocess; here ``time_row``
runs directly on the smallest torus row and on S4 over the wedge, and only
its shape and verdicts are checked, not its timings.
"""

import importlib.util
import os

import pytest

from flatconn.theorems import GATE, HOLDS

LADDER = os.path.join(os.path.dirname(__file__), os.pardir, "ladder", "run.py")


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder_run", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "family,k,index,verdicts",
    [
        ("torus", 6, 64, [HOLDS, HOLDS, GATE]),
        ("sym_kernel", 4, 24, [HOLDS, HOLDS, HOLDS]),
        ("sym_quotient", 4, 12, [HOLDS, HOLDS, HOLDS]),
    ],
)
def test_time_row_reports_every_stage(ladder, family, k, index, verdicts):
    assert k in ladder.FAMILIES[family]
    row = ladder.time_row(family, k)
    assert row["index"] == index
    assert row["verdicts"] == verdicts
    assert list(row["seconds"]) == list(ladder.STAGES)
    assert all(t >= 0 for t in row["seconds"].values())
