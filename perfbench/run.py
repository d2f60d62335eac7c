"""flatconn benchmark: seeded workloads through the full verification pipeline.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.

One single-threaded process per workload runs a closed loop: one caller,
and the next instance starts when the previous one's seven verdicts
return.  A *pass* sets up the workload's inputs (timed as set-up: corpus
generation or document parsing, with group closure, subgroup enumeration and
the flatness check) and then verifies every instance with
``theorems.standard_reports`` (timed as verify).  Passes repeat while the
next one still fits in ``--seconds`` (at least three), and the run reports
medians over passes.

Every instance's verdict vector and skip status is checked against
``reference.json``, recorded from the code the benchmark was defined on; on
``corpus`` the tally must also equal what ``flatconn verify --all-random``
prints for the same corpus, run in-process before the timed passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: self time and
calls per library function, output sizes, verdict counts, per-instance
latency, and the tracing overhead (traced minus untraced verify time).  The
spans of the last traced pass are written under ``perfbench/.out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io as text_io
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import CLAIMS, SKIP  # noqa: E402

WORKLOADS = ("corpus", "big_group", "deep_cover")
CLAIM_FUNCTIONS = {
    "theorem_1_1": "verify_theorem_1_1",
    "functoriality": "verify_functoriality",
    "triviality": "is_induced_trivial",
    "prop_2_1": "verify_prop_2_1",
    "cor_2_2": "verify_cor_2_2",
    "prop_2_3": "verify_prop_2_3",
    "prop_2_4": "verify_prop_2_4",
}
TIMED_FUNCTIONS = (
    "groups.group_from_permutations",
    "groups.enumerate_subgroups",
    "groups.subgroup_closure",
    "complexes.spanning_tree",
    "complexes.pi1_presentation",
    "subgroups.stallings_core",
    "subgroups.todd_coxeter",
    "subgroups.automaton_from_quotient",
    "subgroups.reidemeister_schreier",
    "subgroups.is_normal_subgroup",
    "connections.word_holonomy",
    "connections.holonomy_morphism",
    "connections.check_flatness",
    "covers.build_cover",
    "covers.is_covering_map",
    "covers.subgroup_of_cover",
    "bundles.derived_bundle",
    "bundles.holonomy_bundle",
    "theorems.pullback_voltage",
    "corpus.generate_corpus",
    "io.parse_instance_data",
)
CALL_COUNTS = (
    "groups.subgroup_closure",
    "complexes.spanning_tree",
    "subgroups.is_normal_subgroup",
    "connections.word_holonomy",
    "covers.is_covering_map",
)
SIZE_COUNTERS = (
    "groups.group.order",
    "subgroups.stallings_core.letters",
    "subgroups.automaton.states",
    "covers.cover.vertices",
    "covers.cover.edges",
    "bundles.bundle.vertices",
    "bundles.bundle.edges",
    "bundles.components",
)


@dataclass
class Pass:
    """Timings and outcomes of one set-up plus verification of every case."""

    setup_s: float = 0.0
    verify_s: float = 0.0
    instance_s: list = field(default_factory=list)
    codes: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def run_pass(setup, reference, tracer=None) -> Pass:
    """Set up fresh instances and verify them one after another.

    Each instance is released once verified, so peak memory is that of the
    largest instance rather than of the whole workload.
    """
    result = Pass()
    gc.collect()
    t0 = perf_counter()
    cases = setup()
    t1 = perf_counter()
    for k, case in enumerate(cases):
        if tracer is not None:
            tracer.instance = k
            tracer.count("groups.group.order", case.instance.group.order)
        start = perf_counter()
        try:
            code = workloads.verdict_code(case)
        except Exception:  # any other exception fails the instance
            code = "error"
            traceback.print_exc(file=sys.stderr)
        result.instance_s.append(perf_counter() - start)
        result.codes.append(code)
        expected = reference(case.name)
        if code != expected:
            result.failures.append(f"{case.name}: {code}, expected {expected}")
        cases[k] = None
    t2 = perf_counter()
    result.setup_s = t1 - t0
    result.verify_s = t2 - t1
    return result


def tally(codes) -> dict:
    joined = "".join(c for c in codes if c != SKIP)
    return {
        "skipped": sum(c == SKIP for c in codes),
        "holds": joined.count("H"),
        "fails": joined.count("F"),
        "gates-not-met": joined.count("G"),
    }


def cli_check(setup, reference, seed: int) -> list[str]:
    """Run ``flatconn verify --all-random`` in-process on the same corpus and
    compare its per-instance verdicts and summary line with the benchmark's."""
    from flatconn import cli

    names = [case.name for case in setup()]
    out = text_io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", "--all-random", str(len(names)), "--seed", str(workloads.corpus_seed(seed))])
    lines = out.getvalue().splitlines()
    codes = []
    for line in lines[:-1]:
        cells = line.split(": ", 1)[1]
        if cells.startswith("skipped"):
            codes.append(SKIP)
        else:
            codes.append("".join(workloads.VERDICT_CODE[c.split("=")[1]] for c in cells.split()))
    problems = []
    expected = [reference(name) for name in names]
    if codes != expected:
        problems.append("verify --all-random verdicts differ from the reference")
    t = tally(expected)
    summary = (
        f"summary: instances={len(names)} skipped={t['skipped']} holds={t['holds']} "
        f"fails={t['fails']} gates-not-met={t['gates-not-met']}"
    )
    if lines[-1] != summary:
        problems.append(f"verify --all-random printed {lines[-1]!r}, expected {summary!r}")
    return problems


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def layer_metrics(tracer, traced, untraced) -> dict:
    """Per-layer metrics from the spans of the last traced pass."""
    seconds, calls, sizes = tracer.summary()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in TIMED_FUNCTIONS:
        put(f"{name}.s", seconds.get(name, 0.0), "s")
    for name in CALL_COUNTS:
        put(f"{name}.calls", calls.get(name, 0), "count")
    for name in SIZE_COUNTERS:
        put(name, sizes.get(name, 0), "count")
    for claim in CLAIMS:
        put(f"theorems.{claim}.s", seconds.get(f"theorems.{CLAIM_FUNCTIONS[claim]}", 0.0), "s")
    for layer in LAYERS:
        layer_s = sum((s for name, s in seconds.items() if name.startswith(layer + ".")), 0.0)
        put(f"{layer}.self_s", layer_s, "s")
    normal_calls = calls.get("subgroups.is_normal_subgroup", 0)
    distinct = len(tracer.normality_inputs)
    put("subgroups.is_normal_subgroup.repeat_ratio", normal_calls / distinct if distinct else 0.0, "ratio")
    verdicts = tally(traced[-1].codes)
    put("theorems.verdict.holds", verdicts["holds"], "count")
    put("theorems.verdict.gate", verdicts["gates-not-met"], "count")
    latencies = [s * 1000.0 for p in untraced for s in p.instance_s]
    put("theorems.instance_p50_ms", statistics.median(latencies), "ms")
    put("theorems.instance_p99_ms", percentile(latencies, 99), "ms")
    put("theorems.instance.samples", len(latencies), "count")
    plain = statistics.median(p.verify_s for p in untraced)
    overhead = statistics.median(p.verify_s for p in traced) - plain
    put("trace.overhead_s", overhead, "s")
    put("trace.overhead_ratio", overhead / plain, "ratio")
    put("trace.spans", len(tracer.names), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flatconn" / "__init__.py").is_file():
        print(f"no flatconn library under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False,
            reference: dict | None = None) -> dict:
    """Run one workload for ``seconds`` and return the result object.

    ``small`` and ``reference`` let the self-test shrink the inputs and
    substitute the recorded references.
    """
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    setup = workloads.make_setup(workload, seed, small)
    expected = workloads.reference_lookup(workload, seed, reference)
    problems = []
    if workload == "corpus":
        problems += cli_check(setup, expected, seed)
    untraced, traced = [], []
    tracer = None
    deadline = perf_counter() + seconds
    while True:
        if trace and len(untraced) > len(traced):
            tracer = Tracer()
            with tracer:
                traced.append(run_pass(setup, expected, tracer))
        else:
            untraced.append(run_pass(setup, expected))
        # Stop before a pass that would run past the deadline, once there
        # are enough passes for a median (or one of each kind when tracing).
        done = untraced + traced
        longest = max(p.setup_s + p.verify_s for p in done)
        if perf_counter() + longest > deadline and len(done) >= (2 if trace else 3):
            break
    passes = untraced + traced
    attempted = sum(len(p.codes) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for p in passes:
        problems += p.failures
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if trace:
        out = HERE / ".out"
        out.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}"
        tracer.write(out / f"{stem}-spans.csv.gz", out / f"{stem}-sizes.csv")
        metrics = layer_metrics(tracer, traced, untraced)
    else:
        metrics = {
            "verify_s": {"value": statistics.median(p.verify_s for p in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(p.setup_s for p in untraced), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
