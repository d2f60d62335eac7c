"""Smoke test of the growth ladder: the smallest row of each kind, in process.

``ladder/run.py`` times each row in its own subprocess; here ``time_row``
runs directly on the smallest torus row, on S4 over the wedge, on the
shortest Stallings word, on S5 over the wedge of two loops and on the
Coxeter presentations of S4 and S5, and only its shape and verdicts are
checked, not its timings; the S7 and S8 Coxeter rows are left to the
ladder itself.  The A/B runner is run once, on one checkout against itself,
and once with its workers replaced by stand-ins, to read the environment
they would be started with.
"""

import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest

from flatconn.theorems import GATE, HOLDS

AB = os.path.join(os.path.dirname(__file__), os.pardir, "ladder", "ab.py")


@pytest.mark.parametrize(
    "family,k,index,verdicts",
    [
        # theorem_1_1, triviality, cor_2_2, functoriality, prop_2_1, prop_2_3, prop_2_4
        ("torus", 6, 64, [HOLDS, HOLDS, GATE, HOLDS, GATE, GATE, HOLDS]),
        ("sym_kernel", 4, 24, [HOLDS] * 7),
        ("sym_quotient", 4, 12, [HOLDS, HOLDS, HOLDS, HOLDS, GATE, GATE, HOLDS]),
        ("stallings", 4, 120, [HOLDS, HOLDS, GATE, HOLDS, GATE, GATE, HOLDS]),
        ("wedge_rank", 1, 120, [HOLDS] * 7),
        ("coxeter", 4, 4, [HOLDS, HOLDS, GATE, HOLDS, GATE, GATE, HOLDS]),
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


def test_wedge_rank_rows_grow_by_their_loops(ladder):
    """Every ``wedge_rank`` row covers S5's kernel (index 120) over a wedge
    of 2^k loops, and its slopes are taken against that rank."""
    assert list(ladder.FAMILIES["wedge_rank"]) == list(range(1, 8))
    assert ladder.AXIS["wedge_rank"] == "rank"
    for k in (1, 7):
        doc = ladder.document("wedge_rank", k)
        assert len(doc["complex"]["edges"]) == len(doc["voltage"]) == 2**k
        assert doc["covering"] == {"kind": "quotient", "subgroup": ["e"]}
    assert ladder.time_row("wedge_rank", 1)["rank"] == 2


def test_coxeter_rows_cover_s_k_by_two_involutions(ladder):
    """Each ``coxeter`` row presents S_k on k - 1 involutions, one square,
    braid or commutation relator per generator or pair, and covers by
    H = <s0, s1> = S3, so the index is k!/6; slopes are against the index."""
    assert list(ladder.FAMILIES["coxeter"]) == list(range(4, 9))
    assert "coxeter" not in ladder.AXIS
    for k in (4, 8):
        doc = ladder.document("coxeter", k)
        assert len(doc["complex"]["edges"]) == k - 1
        assert len(doc["complex"]["relators"]) == (k - 1) + (k - 1) * (k - 2) // 2
        assert doc["complex"]["relators"][:2] == ["s0 s0", "s0 s1 s0 s1 s0 s1"]
        assert doc["covering"] == {"kind": "words", "words": ["s0", "s1"]}
    assert [ladder.time_row("coxeter", k)["index"] for k in (4, 5)] == [4, 20]


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
        assert set(metric) == {
            "ratio_median", "ratio_q1", "ratio_q3", "wins", "gain",
            "parent", "parent_q1", "parent_q3", "change", "change_q1", "change_q3",
        }
    assert result["same_verdicts"] is True and result["correct"] is True and result["passes"] == 2


# verify_s of the warm-up and ten passes per side: the change wins every pair
STAND_IN_VERIFY_S = {
    "parent": [9.0, 10.0, 12.0, 10.0, 11.0, 10.0, 10.0, 13.0, 10.0, 9.0, 10.0],
    "change": [8.0, 8.0, 8.0, 9.0, 8.0, 8.0, 7.0, 8.0, 8.0, 8.0, 8.0],
}


def test_ab_workers_compile_every_module_from_source(monkeypatch, capsys):
    """Each worker starts with bytecode writing off and its cache prefix on a
    fresh, empty directory, removed once the run ends, so neither side reads
    a checkout's ``__pycache__``.  The workers here are stand-ins that answer
    every pass at once; no process is started.  Their times give each side's
    median and quartiles, and the gain rule: the change wins all ten verify
    pairs, by 2 s at the median against a parent IQR of 1.25 s, and no setup
    pair."""
    spec = importlib.util.spec_from_file_location("ladder_ab", AB)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    started = []

    class StandIn:
        def __init__(self, command, env, **kwargs):
            cache = env["PYTHONPYCACHEPREFIX"]
            started.append((command, env, cache, os.listdir(cache)))
            self.stdin = io.StringIO()
            answers = [
                {"setup_s": 1.0, "verify_s": t, "codes": "HH", "failures": 0, "peak_rss_mb": 9.0}
                for t in STAND_IN_VERIFY_S[command[3]]
            ]
            self.stdout = io.StringIO("".join(json.dumps(a) + "\n" for a in answers))

        def wait(self):
            return 0

    monkeypatch.setattr(ab.subprocess, "Popen", StandIn)
    assert ab.main(["parent", "change", "--workload", "corpus", "--passes", "10"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["correct"] is True
    verify, setup = result["metrics"]["verify_s"], result["metrics"]["setup_s"]
    assert (verify["parent"], verify["parent_q1"], verify["parent_q3"]) == (10.0, 10.0, 11.25)
    assert (verify["change"], verify["change_q1"], verify["change_q3"]) == (8.0, 8.0, 8.0)
    assert verify["wins"] == 10 and verify["gain"] is True
    assert setup["wins"] == 0 and setup["gain"] is False
    assert [command[3] for command, *_ in started] == ["parent", "change"]
    for _, env, cache, listed in started:
        assert env == dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
        assert listed == [] and not os.path.exists(cache)
