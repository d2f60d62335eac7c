"""A/B runner: one perfbench workload, two checkouts, alternating passes.

    python3 ladder/ab.py PARENT CHANGE --workload big_group --seed 3 --passes 20

PARENT and CHANGE are the roots of two checkouts.  Standard library only.
Exactly two worker processes are started, one per checkout; each imports
that checkout's ``src/`` and ``perfbench/``, so each side builds its inputs
and verifies them with its own code.  Both workers run with
``PYTHONDONTWRITEBYTECODE=1`` and with ``PYTHONPYCACHEPREFIX`` set to a fresh,
empty temporary directory, removed when the run ends: Python then neither
reads a checkout's ``__pycache__`` nor writes one, so both sides compile
every module from source and their peak RSS does not depend on where a
checkout lives or on whether it holds bytecode.  A pass is that checkout's
``perfbench/run.py::run_pass``: set up the workload's instances, then verify
each one, timing the set-up and the verification and checking every
verdict against ``perfbench/reference.json``.

After one warm-up pass on each side, the runner asks for ``--passes``
pairs, the parent first in even pairs and the change first in odd ones, so
a drift of the machine's speed falls on both sides alike.  It prints one
JSON object with, for ``verify_s`` and ``setup_s`` each, the median
change/parent ratio over the pairs, its quartiles, the number of pairs the
change won and both sides' medians, whether every pass gave both sides
the same verdicts, and whether every verdict matched the reference.  It
also prints each side's peak RSS in MB (``ru_maxrss`` of its worker, as
perfbench reads it).  A worker keeps no pass once it has answered, so,
unlike perfbench's ``peak_rss_mb``, the peak does not grow with the number
of passes that fit in a run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def worker(root: str, workload: str, seed: int, small: bool) -> int:
    """Serve passes over stdin/stdout: one JSON line per request line, each
    pass timed by the checkout's own ``perfbench/run.py::run_pass``."""
    bench = Path(root) / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)  # puts the checkout's src/ and perfbench/ first on the path
    workloads = run.workloads
    setup = workloads.make_setup(workload, seed, small)
    reference = json.loads((bench / "reference.json").read_text())
    expected = workloads.reference_lookup(workload, seed, reference)
    for _ in sys.stdin:
        p = run.run_pass(setup, expected)
        answer = {"setup_s": p.setup_s, "verify_s": p.verify_s, "codes": p.codes, "failures": len(p.failures)}
        answer["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(answer), flush=True)
    return 0


def start_worker(root: str, args, cache: str) -> subprocess.Popen:
    """A worker whose bytecode caches are looked up under the empty ``cache``
    and never written, so it compiles every module from source."""
    command = [sys.executable, __file__, "--worker", root, "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        command.append("--small")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
    return subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)


def ask_pass(proc: subprocess.Popen) -> dict:
    proc.stdin.write("pass\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError("a worker exited before answering")
    return json.loads(line)


def summary(parent: list, change: list) -> dict:
    """Median change/parent ratio over pairs, its quartiles and the wins."""
    ratios = [c / p for p, c in zip(parent, change)]
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {
        "ratio_median": statistics.median(ratios),
        "ratio_q1": q1,
        "ratio_q3": q3,
        "wins": sum(r < 1 for r in ratios),
        "parent": statistics.median(parent),
        "change": statistics.median(change),
    }


def compare(args) -> dict:
    with tempfile.TemporaryDirectory(prefix="ab-pycache-") as cache:
        parent, change = (start_worker(root, args, cache) for root in (args.parent, args.change))
        try:
            warm = [ask_pass(parent), ask_pass(change)]
            same = warm[0]["codes"] == warm[1]["codes"]
            failures = warm[0]["failures"] + warm[1]["failures"]
            passes = {"parent": [], "change": []}
            for i in range(args.passes):
                order = (("parent", parent), ("change", change))
                result = {side: ask_pass(proc) for side, proc in (order if i % 2 == 0 else order[::-1])}
                same = same and result["parent"]["codes"] == result["change"]["codes"]
                failures += result["parent"]["failures"] + result["change"]["failures"]
                for side in passes:
                    passes[side].append(result[side])
        finally:
            for proc in (parent, change):
                proc.stdin.close()
                proc.wait()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "passes": args.passes,
        "same_verdicts": same,
        "correct": failures == 0,
        "metrics": {
            metric: summary(*([p[metric] for p in passes[side]] for side in ("parent", "change")))
            for metric in ("verify_s", "setup_s")
        },
        "peak_rss_mb": {side: max(p["peak_rss_mb"] for p in passes[side]) for side in passes},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="root of the parent checkout")
    parser.add_argument("change", nargs="?", help="root of the changed checkout")
    parser.add_argument("--workload", default="big_group", choices=("corpus", "big_group", "deep_cover"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--passes", type=int, default=20, help="pairs of timed passes after the warm-up")
    parser.add_argument("--small", action="store_true", help="perfbench's self-test sizes")
    parser.add_argument("--worker", metavar="ROOT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker, args.workload, args.seed, args.small)
    if not (args.parent and args.change) or args.passes < 1:
        parser.error("give PARENT and CHANGE checkouts and at least one pass")
    print(json.dumps(compare(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
