"""Smoke test of the growth ladder: the smallest row of each kind, in process.

``ladder/run.py`` times each row in its own subprocess; here ``time_row``
runs directly on the smallest torus row, on S4 over the wedge and on the
shortest Stallings word, and only its shape and verdicts are checked, not
its timings.  The A/B runner is run once, on one checkout against itself.
"""

import importlib.util
import json
import os
import subprocess
import sys

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
        # theorem_1_1, triviality, cor_2_2, functoriality, prop_2_1, prop_2_3, prop_2_4
        ("torus", 6, 64, [HOLDS, HOLDS, GATE, HOLDS, GATE, GATE, HOLDS]),
        ("sym_kernel", 4, 24, [HOLDS] * 7),
        ("sym_quotient", 4, 12, [HOLDS, HOLDS, HOLDS, HOLDS, GATE, GATE, HOLDS]),
        ("stallings", 4, 120, [HOLDS, HOLDS, GATE, HOLDS, GATE, GATE, HOLDS]),
    ],
)
def test_time_row_reports_every_stage(ladder, family, k, index, verdicts):
    assert k in ladder.FAMILIES[family]
    row = ladder.time_row(family, k)
    assert row["index"] == index
    assert row["verdicts"] == verdicts
    assert list(row["seconds"]) == list(ladder.STAGES)
    assert all(t >= 0 for t in row["seconds"].values())


def test_stallings_rows_grow_by_their_random_word(ladder):
    """Every Stallings row covers by the same index-120 kernel; its letters
    are the Schreier generators' plus a random word of 10^(k/2) letters."""
    rows = {k: ladder.stallings_document(k)["covering"]["words"] for k in (4, 8)}
    schreier = rows[4][:-1]
    assert len(schreier) == 121 and rows[8][:-1] == schreier
    assert len(rows[4][-1].split()) >= 100 and len(rows[8][-1].split()) >= 10_000
    assert ladder.AXIS["stallings"] == "letters"


def test_ab_runner_compares_a_checkout_with_itself():
    """``ladder/ab.py`` with the same checkout on both sides, at perfbench's
    self-test sizes: only the keys of its result are checked, not times."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    runner = os.path.join(root, "ladder", "ab.py")
    out = subprocess.run(
        [sys.executable, runner, root, root, "--workload", "big_group", "--passes", "2", "--small"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(out.stdout)
    assert set(result) == {"workload", "seed", "passes", "same_verdicts", "correct", "metrics", "peak_rss_mb"}
    assert set(result["peak_rss_mb"]) == {"parent", "change"}
    assert all(mb > 0 for mb in result["peak_rss_mb"].values())
    assert set(result["metrics"]) == {"verify_s", "setup_s"}
    for metric in result["metrics"].values():
        assert set(metric) == {"ratio_median", "ratio_q1", "ratio_q3", "wins", "parent", "change"}
    assert result["same_verdicts"] is True and result["correct"] is True and result["passes"] == 2
