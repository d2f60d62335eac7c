"""Growth ladder: how each pipeline stage's cost grows with the covering index.

    python3 ladder/run.py --label change --out BENCH.json

Run from the root of a checkout; the library is imported from ``src/``.
Standard library only.  Each row is one instance verified in its own
subprocess, so every row reports its own peak RSS (``ru_maxrss``) and no row
warms a cache for the next.

Rows are Todd-Coxeter covers of the torus and the Klein bottle, with
H = <a^p, b^q> and p q = 2^k (p = 2^ceil(k/2)): the torus at index
2^6 ... 2^14 with the voltage a -> 1, b -> 2 into Z4 (H lies in the holonomy
kernel, so every Schreier generator is checked), the Klein bottle at index
2^6 ... 2^12 with a -> (01), b -> (012) into S3 (h(H) = A3).  The
symmetric-group rows put S_k (k = 4 ... 7, given by (01) and the full
cycle) over the wedge of two circles, with the voltage onto a seeded random
generating pair: ``sym_kernel`` covers by the holonomy kernel (index k!),
``sym_quotient`` by the preimage of a seeded involution's subgroup (index
k!/2, not normal).  There the group itself grows with the row, so ``parse``
carries the group closure.  The ``stallings`` rows fold long words over the
wedge: H = ker(F2 -> S5) (index 120 on every row), given by its Schreier
generators plus one seeded random word of 10^(k/2) letters (k = 4 ... 8, so
10^2 ... 10^4) closed back into H, with the voltage a -> (01), b -> (012)
into S3.  There ``parse`` reads every letter and ``subgroup_aut`` folds them.
The ``wedge_rank`` rows put S5 over a wedge of r = 2^k loops (k = 1 ... 7,
so r = 2 ... 128), with the voltage r seeded random elements that generate
S5, covered by the holonomy kernel (index 120 on every row): the first
family whose rank grows, so its slopes are taken against r.  The
``coxeter`` rows present S_k by its Coxeter presentation on k - 1
involutions s_i (s_i^2, (s_i s_{i+1})^3 and (s_i s_j)^2 for j > i + 1),
with the sign voltage s_i -> 1 into Z2 and H = <s0, s1> (k = 4 ... 8, so
the index is k!/6, 4 ... 6720): Todd-Coxeter on involutions.

Stages are timed from outside the library, by reading the ``Instance``
artifacts and calling the claim checks in pipeline order; each stage's time
is what it adds once the earlier stages are cached:

* ``parse``: the document into an ``Instance`` (group closure, flatness);
* ``subgroup_aut``: coset enumeration of H;
* ``cover``: the covering complex;
* ``induced_image``: pullback, cover spanning tree and induced holonomy;
* ``restricted_image``: h(H), the base holonomy image of H;
* ``theorem_1_1``, ``triviality``: the first two claim checks;
* ``normality``: the deck-map test of the covering subgroup, which
  ``cor_2_2`` reads as a note and ``prop_2_1`` and ``prop_2_3`` as a gate.
  Files before ``BENCH_31.json`` have no such stage and count it in
  ``cor_2_2``: across that line, compare ``normality`` + ``cor_2_2``;
* ``cor_2_2``, ``functoriality``, ``prop_2_1``, ``prop_2_3``, ``prop_2_4``:
  the other claim checks.  The last four come after ``cor_2_2`` so that the
  earlier stages time as they did before they were added.

``theorem_1_1+triviality`` sums ``restricted_image``, ``theorem_1_1`` and
``triviality``: what the two claims cost once the cover and its induced
image exist.  Each stage is the median of ``REPEAT`` fresh instances.  The
slope of a stage is the least-squares slope of log(seconds) against
log(index) over a family's rows (against log(letters), the letters of all
covering words, on ``stallings``, and against log(rank), the number of
loops, on ``wedge_rank``), and ``slope_top`` the same over its
three largest rows.  With ``--out``, the result is stored under ``--label``
in that JSON file, next to any labels already there.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

FAMILIES = {
    # name: the k of its rows (the index is 2^k on a surface, k! or k!/2 for S_k)
    "torus": range(6, 15),
    "klein": range(6, 13),
    "sym_kernel": range(4, 8),
    "sym_quotient": range(4, 8),
    "stallings": range(4, 9),  # a random word of 10^(k/2) letters
    "wedge_rank": range(1, 8),  # 2^k loops
    "coxeter": range(4, 9),  # S_k, index k!/6
}
# what a family's slope is taken against, if not the index
AXIS = {"stallings": "letters", "wedge_rank": "rank"}
SURFACES = {
    # name: (relator, group, voltage on a and b)
    "torus": ("a b a^-1 b^-1", "Z4", (1, 2)),
    "klein": ("a b a^-1 b", "S3", ("(01)", "(012)")),
}
STAGES = (
    "parse",
    "subgroup_aut",
    "cover",
    "induced_image",
    "restricted_image",
    "theorem_1_1",
    "triviality",
    "normality",
    "cor_2_2",
    "functoriality",
    "prop_2_1",
    "prop_2_3",
    "prop_2_4",
)
COMBINED = ("restricted_image", "theorem_1_1", "triviality")
REPEAT = 5  # fresh instances per row


def document(family: str, k: int) -> dict:
    if family == "stallings":
        return stallings_document(k)
    if family == "wedge_rank":
        return wedge_rank_document(k)
    if family == "coxeter":
        return coxeter_document(k)
    if family not in SURFACES:
        return symmetric_document(k, kernel=family == "sym_kernel")
    relator, group, (va, vb) = SURFACES[family]
    p, q = 2 ** ((k + 1) // 2), 2 ** (k // 2)
    return wedge_document(group, [relator], (va, vb), {"kind": "words", "words": [" ".join(["a"] * p), " ".join(["b"] * q)]})


def wedge_document(group, relators: list, voltage: tuple, covering: dict) -> dict:
    """One loop at one vertex per voltage element, the first two named a
    and b, with the given relators."""
    return {
        "group": group,
        "complex": {
            "vertices": 1,
            "edges": [{"id": k, "tail": 0, "head": 0} for k in range(len(voltage))],
            "aliases": {"a": 0, "b": 1},
            "relators": relators,
        },
        "voltage": [{"edge": k, "element": x} for k, x in enumerate(voltage)],
        "covering": covering,
    }


def closure_order(gens: list) -> int:
    """The order of the permutation group the generators generate."""
    seen = {tuple(range(len(gens[0])))}
    frontier = list(seen)
    for p in frontier:  # the list grows while it is walked
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)


def symmetric_document(degree: int, kernel: bool) -> dict:
    """S_degree over the wedge of two circles, seeded by the degree; element
    names are the library's cycle labels (``src/`` is on the path)."""
    from flatconn.groups import cycle_label

    rng = random.Random(degree)
    pair = None
    while pair is None or closure_order(pair) != math.factorial(degree):
        pair = [tuple(rng.sample(range(degree), degree)) for _ in range(2)]
    identity = tuple(range(degree))
    t = identity
    while t == identity or tuple(t[i] for i in t) != identity:
        t = tuple(rng.sample(range(degree), degree))
    group = {"degree": degree, "generators": [[1, 0, *range(2, degree)], [*range(1, degree), 0]]}
    subgroup = ["e"] if kernel else [cycle_label(t)]
    return wedge_document(group, [], tuple(map(cycle_label, pair)), {"kind": "quotient", "subgroup": subgroup})


def coxeter_document(degree: int) -> dict:
    """S_degree by its Coxeter presentation over a wedge of degree - 1
    loops s0, s1, ..., every loop of sign 1 in Z2, covered by H = <s0, s1>."""
    names = [f"s{i}" for i in range(degree - 1)]
    relators = []
    for i, si in enumerate(names):
        relators.append(f"{si} {si}")
        for j in range(i + 1, len(names)):
            relators.append(" ".join([si, names[j]] * (3 if j == i + 1 else 2)))
    return {
        "group": "Z2",
        "complex": {
            "vertices": 1,
            "edges": [{"id": k, "tail": 0, "head": 0} for k in range(len(names))],
            "aliases": {name: k for k, name in enumerate(names)},
            "relators": relators,
        },
        "voltage": [{"edge": k, "element": "1"} for k in range(len(names))],
        "covering": {"kind": "words", "words": ["s0", "s1"]},
    }


def wedge_rank_document(k: int) -> dict:
    """S5 over a wedge of 2^k loops, the voltage seeded random elements
    that generate S5, covered by the holonomy kernel."""
    from flatconn.groups import cycle_label

    rank = 2**k
    rng = random.Random(rank)
    images = None
    while images is None or closure_order(images) != math.factorial(5):
        images = [tuple(rng.sample(range(5), 5)) for _ in range(rank)]
    group = {"degree": 5, "generators": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]}
    return wedge_document(group, [], tuple(map(cycle_label, images)), {"kind": "quotient", "subgroup": ["e"]})


def stallings_document(k: int, degree: int = 5) -> dict:
    """H = ker(F2 -> S_degree), a -> the full cycle, b -> (01): the
    non-trivial Schreier generators over a breadth-first transversal, and one
    random reduced word of 10^(k/2) letters closed back into H, seeded by k;
    every word freely reduced."""
    rng = random.Random(k)
    cycle, swap = (*range(1, degree), 0), (1, 0, *range(2, degree))
    moves = {"a": cycle, "b": swap, "a^-1": tuple(sorted(range(degree), key=cycle.__getitem__)), "b^-1": swap}
    inverse = {"a": "a^-1", "a^-1": "a", "b": "b^-1", "b^-1": "b"}
    identity = tuple(range(degree))
    reps = {identity: []}
    order = [identity]
    for p in order:  # the list grows while it is walked
        for tok, g in moves.items():
            q = tuple(g[i] for i in p)
            if q not in reps:
                reps[q] = reps[p] + [tok]
                order.append(q)

    def closed(word: list, p: tuple) -> str:
        """The word, which reaches coset p, closed by rep(p)^-1 and freely reduced."""
        out = []
        for tok in word + [inverse[tok] for tok in reversed(reps[p])]:
            if out and out[-1] == inverse[tok]:
                out.pop()
            else:
                out.append(tok)
        return " ".join(out)

    words = [closed(reps[p] + [tok], tuple(moves[tok][i] for i in p)) for p in order for tok in ("a", "b")]
    word, p = [], identity
    while len(word) < round(10 ** (k / 2)):
        tok = rng.choice(list(moves))
        if not word or inverse[word[-1]] != tok:
            word.append(tok)
            p = tuple(moves[tok][i] for i in p)
    words = [w for w in words if w] + [closed(word, p)]
    return wedge_document("S3", [], ("(01)", "(012)"), {"kind": "words", "words": words})


def time_row(family: str, k: int) -> dict:
    """Verify one instance, timing each stage; runs inside the row's subprocess."""
    sys.path.insert(0, str(SRC))
    from flatconn import io, theorems

    data = document(family, k)
    gc.collect()
    seconds = {}
    t0 = perf_counter()
    inst = io.parse_instance_data(data, name=f"{family}-{k}")
    calls = (
        lambda: inst.subgroup_aut,
        lambda: inst.cover,
        lambda: inst.induced_image,
        lambda: inst.restricted_image,
        lambda: theorems.verify_theorem_1_1(inst),
        lambda: theorems.is_induced_trivial(inst),
        lambda: inst.subgroup_aut.complete and inst.subgroup_normal,
        lambda: theorems.verify_cor_2_2(inst),
        lambda: theorems.verify_functoriality(inst),
        lambda: theorems.verify_prop_2_1(inst),
        lambda: theorems.verify_prop_2_3(inst),
        lambda: theorems.verify_prop_2_4(inst),
    )
    seconds["parse"] = perf_counter() - t0
    verdicts = []
    for stage, call in zip(STAGES[1:], calls):
        t0 = perf_counter()
        result = call()
        seconds[stage] = perf_counter() - t0
        if isinstance(result, theorems.VerificationReport):
            verdicts.append(result.verdict)
    letters = sum(len(w.split()) for w in data["covering"].get("words", []))
    rank = len(data["complex"]["edges"]) - data["complex"]["vertices"] + 1
    return {
        "index": inst.subgroup_aut.state_count,
        "letters": letters,
        "rank": rank,
        "seconds": seconds,
        "verdicts": verdicts,
    }


def run_row(family: str, k: int) -> dict:
    """One subprocess: ``REPEAT`` fresh instances, stage medians, peak RSS."""
    runs = [time_row(family, k) for _ in range(REPEAT)]
    if any(r["verdicts"] != runs[0]["verdicts"] or r["index"] != runs[0]["index"] for r in runs):
        raise RuntimeError("repeated runs of one row disagree")
    seconds = {s: statistics.median(r["seconds"][s] for r in runs) for s in STAGES}
    seconds["theorem_1_1+triviality"] = sum(seconds[s] for s in COMBINED)
    return {
        "family": family,
        "k": k,
        "index": runs[0]["index"],
        "letters": runs[0]["letters"],
        "rank": runs[0]["rank"],
        "verdicts": runs[0]["verdicts"],
        "seconds": {s: round(t, 6) for s, t in seconds.items()},
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def slope(rows: list, stage: str, axis: str = "index") -> float:
    xs = [math.log(r[axis]) for r in rows]
    ys = [math.log(max(r["seconds"][stage], 1e-9)) for r in rows]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="change", help="key of this run in --out")
    parser.add_argument("--out", default=None, help="JSON file to store the run in")
    parser.add_argument("--row", nargs=2, metavar=("FAMILY", "K"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.row:
        print(json.dumps(run_row(args.row[0], int(args.row[1]))))
        return 0
    result = {
        "python": sys.version.split()[0],
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "repeat": REPEAT,
        "families": {},
    }
    for family in FAMILIES:
        axis = AXIS.get(family, "index")
        rows = []
        for k in FAMILIES[family]:
            out = subprocess.run(
                [sys.executable, __file__, "--row", family, str(k)],
                check=True,
                capture_output=True,
                text=True,
            ).stdout
            rows.append(json.loads(out))
            row = rows[-1]
            print(f"{family} {row[axis]:>6}: {row['seconds']}  {row['peak_rss_mb']} MB", file=sys.stderr)
        stages = list(rows[0]["seconds"])
        result["families"][family] = {
            "rows": rows,
            "axis": axis,
            "slope": {s: round(slope(rows, s, axis), 3) for s in stages},
            "slope_top": {s: round(slope(rows[-3:], s, axis), 3) for s in stages},
        }
    if args.out:
        path = Path(args.out)
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored[args.label] = result
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
