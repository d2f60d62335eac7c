"""Fast self-test of the benchmark at tiny input sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def metric_units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(workload, trace):
    result = run.measure(workload, seed=3, seconds=0, trace=trace, small=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = metric_units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def corrupt(reference, workload):
    bad = copy.deepcopy(reference)
    if workload == "corpus":
        key = str(workloads.corpus_seed(3))
        text = bad["corpus"][key]
        bad["corpus"][key] = ("00" if text[:2] != "00" else "01") + text[2:]
    else:
        role = next(iter(bad[workload]))
        code = bad[workload][role]
        bad[workload][role] = code[:-1] + ("G" if code[-1] == "H" else "H")
    return bad


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_reference_is_caught(workload):
    result = run.measure(workload, seed=3, seconds=0, trace=False, small=True,
                         reference=corrupt(REFERENCE, workload))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
