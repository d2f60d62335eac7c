"""Seeded inputs for the flatconn benchmark.

Every workload is a list of cases built from the workload seed alone.  The
library only ever sees the generated inputs: corpus items from
``corpus.generate_corpus``, or instance documents (plain JSON-shaped dicts)
handed to ``io.parse_instance_data``.  Documents are generated here with the
benchmark's own permutation helpers, so a change to the library cannot
change the inputs it is measured on.

Workloads:

* ``corpus``: the seeded random corpus of ``verify --all-random``.  Thousands
  of tiny instances (|G| <= 24), where per-instance constant costs dominate.
* ``big_group``: S6 (|G| = 720) over the wedge of two circles with a random
  generating-pair voltage; one kernel covering (index 720) and one
  non-normal quotient covering (index 360).  Derived bundles of ~500k
  vertices and the normality check dominate.
* ``deep_cover``: covers of high index under small structure groups (Z2, Z4,
  S3): Todd-Coxeter on a Coxeter presentation of S7 (index 840) and on the
  torus (512) and Klein bottle (256), and Stallings folding of the kernel of
  F2 -> S5 plus one long redundant word.  The work lands in subgroups,
  covers and complexes, not in bundles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

CORPUS_COUNT = 1000
# Corpus references are recorded for this many corpus seeds; the workload
# seed is reduced modulo it so that every run is checked per instance.
CORPUS_REFERENCE_SEEDS = 32
STALLINGS_WORD_LETTERS = 2000


@dataclass
class Case:
    """One instance to verify, with the key of its reference verdicts."""

    name: str
    instance: object
    sample_seed: int


# --- permutations, composed left to right as in the library ---------------


def compose(p, q) -> tuple:
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def inverse(p) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def closure(gens) -> set:
    """All products of the generators (a finite group, so no inverses needed)."""
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def cycle_label(p) -> str:
    """Cycle notation in the document format: fixed points omitted, 'e' for
    the identity, each cycle started at its smallest point."""
    seen = set()
    cycles = []
    for start in range(len(p)):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = p[start]
        while cur != start:
            seen.add(cur)
            cyc.append(cur)
            cur = p[cur]
        if len(cyc) > 1:
            cycles.append(cyc)
    if not cycles:
        return "e"
    sep = "" if len(p) <= 10 else ","
    return "".join("(" + sep.join(map(str, c)) + ")" for c in cycles)


def random_perm(rng: random.Random, degree: int) -> tuple:
    return tuple(rng.sample(range(degree), degree))


def generating_pair(rng: random.Random, degree: int) -> tuple:
    """A uniformly random pair of permutations generating the full S_degree."""
    full = 1
    for k in range(2, degree + 1):
        full *= k
    while True:
        x, y = random_perm(rng, degree), random_perm(rng, degree)
        if len(closure([x, y])) == full:
            return x, y


# --- documents ---------------------------------------------------------------


def word_text(letters) -> str:
    """[("a", 1), ("b", -1)] -> "a b^-1"."""
    return " ".join(name if sign > 0 else f"{name}^-1" for name, sign in letters)


def wedge(names) -> dict:
    """A wedge of circles, one loop per alias name, with optional relators."""
    return {
        "vertices": 1,
        "edges": [{"id": k, "tail": 0, "head": 0} for k in range(len(names))],
        "basepoint": 0,
        "aliases": {name: k for k, name in enumerate(names)},
        "relators": [],
    }


def document(group, complex_, voltage: dict, covering: dict) -> dict:
    return {
        "group": group,
        "complex": complex_,
        "voltage": [{"edge": name, "element": elt} for name, elt in voltage.items()],
        "covering": covering,
    }


def big_group_documents(rng: random.Random, degree: int = 6) -> list:
    """Kernel and non-normal quotient coverings for S_degree over wedge2."""
    group = {
        "degree": degree,
        "generators": [
            [1, 0] + list(range(2, degree)),
            list(range(1, degree)) + [0],
        ],
    }
    x, y = generating_pair(rng, degree)
    voltage = {"a": cycle_label(x), "b": cycle_label(y)}
    identity = tuple(range(degree))
    while True:
        t = random_perm(rng, degree)
        if t != identity and compose(t, t) == identity:
            break
    base = wedge(["a", "b"])
    return [
        ("kernel", document(group, base, voltage, {"kind": "quotient", "subgroup": ["e"]})),
        ("quotient", document(group, base, voltage, {"kind": "quotient", "subgroup": [cycle_label(t)]})),
    ]


def coxeter_document(degree: int = 7) -> dict:
    """S_degree by its Coxeter presentation, sign voltage into Z2, H = <s0, s1>."""
    names = [f"s{i}" for i in range(degree - 1)]
    complex_ = wedge(names)
    relators = []
    for i, si in enumerate(names):
        relators.append(word_text([(si, 1), (si, 1)]))
        for j in range(i + 1, len(names)):
            power = 3 if j == i + 1 else 2
            relators.append(word_text([(si, 1), (names[j], 1)] * power))
    complex_["relators"] = relators
    return document(
        "Z2",
        complex_,
        {name: "1" for name in names},
        {"kind": "words", "words": ["s0", "s1"]},
    )


def torus_document(rng: random.Random, a_power: int, b_power: int) -> dict:
    """Torus, generating voltage into Z4, H = <a^a_power, b^b_power>."""
    while True:
        va, vb = rng.randrange(4), rng.randrange(4)
        if va % 2 or vb % 2:
            break
    complex_ = wedge(["a", "b"])
    complex_["relators"] = ["a b a^-1 b^-1"]
    words = [word_text([("a", 1)] * a_power), word_text([("b", 1)] * b_power)]
    return document("Z4", complex_, {"a": va, "b": vb}, {"kind": "words", "words": words})


def klein_document(rng: random.Random, a_power: int, b_power: int) -> dict:
    """Klein bottle, a -> transposition and b -> 3-cycle in S3 (always flat
    and generating), H = <a^a_power, b^b_power>."""
    transpositions = [(1, 0, 2), (2, 1, 0), (0, 2, 1)]
    three_cycles = [(1, 2, 0), (2, 0, 1)]
    complex_ = wedge(["a", "b"])
    complex_["relators"] = ["a b a^-1 b"]
    voltage = {
        "a": cycle_label(rng.choice(transpositions)),
        "b": cycle_label(rng.choice(three_cycles)),
    }
    words = [word_text([("a", 1)] * a_power), word_text([("b", 1)] * b_power)]
    return document("S3", complex_, voltage, {"kind": "words", "words": words})


def stallings_document(rng: random.Random, degree: int = 5, letters: int = STALLINGS_WORD_LETTERS) -> dict:
    """Wedge2 with H = ker(F2 -> S_degree), given by its Schreier generators
    plus one random redundant word of about ``letters`` letters in H."""
    images = {"a": tuple(list(range(1, degree)) + [0]), "b": tuple([1, 0] + list(range(2, degree)))}
    steps = [(name, sign) for name in ("a", "b") for sign in (1, -1)]

    def act(p, step):
        name, sign = step
        g = images[name]
        return compose(p, g if sign > 0 else inverse(g))

    identity = tuple(range(degree))
    reps = {identity: []}
    order = [identity]
    for p in order:
        for step in steps:
            q = act(p, step)
            if q not in reps:
                reps[q] = reps[p] + [step]
                order.append(q)

    def rep_inverse(p):
        return [(name, -sign) for name, sign in reversed(reps[p])]

    def reduced(word):
        out = []
        for step in word:
            if out and out[-1] == (step[0], -step[1]):
                out.pop()
            else:
                out.append(step)
        return out

    words = []
    for p in order:
        for name in ("a", "b"):
            w = reduced(reps[p] + [(name, 1)] + rep_inverse(act(p, (name, 1))))
            if w:
                words.append(w)
    long_word = []
    state = identity
    while len(long_word) < letters:
        step = rng.choice(steps)
        if long_word and long_word[-1] == (step[0], -step[1]):
            continue
        long_word.append(step)
        state = act(state, step)
    words.append(reduced(long_word + rep_inverse(state)))
    x, y = generating_pair(rng, 3)
    return document(
        "S3",
        wedge(["a", "b"]),
        {"a": cycle_label(x), "b": cycle_label(y)},
        {"kind": "words", "words": [word_text(w) for w in words]},
    )


def deep_cover_documents(rng: random.Random, small: bool = False) -> list:
    """The four deep covers; ``small`` shrinks every index for the self-test."""
    if small:
        return [
            ("coxeter", coxeter_document(4)),
            ("torus", torus_document(rng, 4, 4)),
            ("klein", klein_document(rng, 4, 4)),
            ("stallings", stallings_document(rng, 4, 40)),
        ]
    return [
        ("coxeter", coxeter_document(7)),
        ("torus", torus_document(rng, 32, 16)),
        ("klein", klein_document(rng, 16, 16)),
        ("stallings", stallings_document(rng)),
    ]


# --- verdict codes and references ---------------------------------------------

CLAIMS = (
    "theorem_1_1",
    "functoriality",
    "triviality",
    "prop_2_1",
    "cor_2_2",
    "prop_2_3",
    "prop_2_4",
)
VERDICT_CODE = {"holds": "H", "hypotheses-not-met": "G", "fails": "F"}
SKIP = "skip"


def encode_corpus(codes) -> str:
    """Per-instance verdict codes -> two hex digits each.

    Bit k is set when claim k holds and clear when its hypotheses are not
    met; "--" marks a skipped instance.  A "fails" verdict is never
    recorded, because the references come from code that fails nothing.
    """
    out = []
    for code in codes:
        if code == SKIP:
            out.append("--")
            continue
        if set(code) - {"H", "G"}:
            raise ValueError(f"cannot record verdict code {code!r}")
        out.append(f"{sum(1 << k for k, c in enumerate(code) if c == 'H'):02x}")
    return "".join(out)


def decode_corpus(text: str) -> list:
    codes = []
    for i in range(0, len(text), 2):
        byte = text[i:i + 2]
        if byte == "--":
            codes.append(SKIP)
        else:
            mask = int(byte, 16)
            codes.append("".join("H" if mask >> k & 1 else "G" for k in range(len(CLAIMS))))
    return codes


def corpus_seed(seed: int) -> int:
    return seed % CORPUS_REFERENCE_SEEDS


def make_setup(workload: str, seed: int, small: bool = False) -> Callable[[], list]:
    """The timed set-up of one workload: it builds fresh cases on each call.

    ``small`` shrinks every input for the self-test.
    """
    from flatconn import corpus, io

    if workload == "corpus":
        cseed = corpus_seed(seed)
        count = 20 if small else CORPUS_COUNT

        def setup_corpus():
            items = corpus.generate_corpus(cseed, count)
            return [Case(item.name, item.instance, cseed + k) for k, item in enumerate(items)]

        return setup_corpus
    rng = random.Random(seed)
    if workload == "big_group":
        docs = big_group_documents(rng, 4 if small else 6)
    elif workload == "deep_cover":
        docs = deep_cover_documents(rng, small)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    def setup_documents():
        return [
            Case(role, io.parse_instance_data(doc, name=role), seed + k)
            for k, (role, doc) in enumerate(docs)
        ]

    return setup_documents


def reference_lookup(workload: str, seed: int, reference: dict) -> Callable[[str], str]:
    """Case name -> expected verdict code, from the recorded references.

    Corpus cases are keyed by their position in the corpus; document cases
    by their role, whose verdicts do not depend on the seed.
    """
    if workload == "corpus":
        expected = decode_corpus(reference["corpus"][str(corpus_seed(seed))])
        return lambda name: expected[int(name.split("-", 1)[0])]
    return reference[workload].__getitem__


def verdict_code(case: Case) -> str:
    """Verify one case the way ``flatconn verify --all-random`` does."""
    from flatconn import theorems
    from flatconn.errors import EnumerationCapError, IncompleteAutomatonError

    inst = case.instance
    try:
        if not inst.subgroup_aut.complete:
            raise IncompleteAutomatonError("subgroup has infinite index (core incomplete)")
        reports = theorems.standard_reports(inst, seed=case.sample_seed)
    except (EnumerationCapError, IncompleteAutomatonError):
        return SKIP
    return "".join(VERDICT_CODE[r.verdict] for r in reports)
