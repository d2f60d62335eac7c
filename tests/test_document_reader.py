"""The document reader against the long way round, and what it reads.

Word strings: the reader behind ``parse_complex`` and ``parse_covering``
keeps one token table per document and checks each covering word's path
while it rewrites it.  Here every outcome (the words, or the InputError's
text and location) is compared with ``tests/helpers.py``'s reference, which
matches every token and walks every word vertex by vertex: on the
documents of the repository, on Stallings-style documents of 10^2 to 10^4
letters and on seeded random token soups.

Labels: a permutation group makes its cycle labels when they are read.  The
labels read one by one, in element order and in a shuffled order, and the
resolution of a label back to its element are compared with the eager
``cycle_label`` of every element.

Counts: parsing an S6 document makes a handful of labels, verifying it
none, and the token regex runs once per distinct token of a document.
"""

import json
import os
import random

import pytest

from flatconn import groups, io
from flatconn.errors import InputError
from flatconn.groups import catalog_group, compose_perms, cycle_label, group_from_permutations
from flatconn.io import parse_complex, parse_covering, parse_instance_data
from flatconn.theorems import GATE, HOLDS, standard_reports

from helpers import parse_word_string, reference_covering_words

HERE = os.path.dirname(__file__)
DOCUMENT_DIRS = (os.path.join(HERE, os.pardir, "instances"), os.path.join(HERE, "documents"))


def outcome(read):
    """What a read gives: ("ok", value) or ("error", location, message)."""
    try:
        return ("ok", read())
    except InputError as exc:
        return ("error", exc.location, exc.args[0])


def assert_words_match(complex_data, covering_data):
    """Relators token by token, then the covering's words, each against the
    reference; the reader is the one ``parse_complex`` returns, shared by
    both as it is in a document parse."""
    c, reader = parse_complex(complex_data)
    aliases = dict(reader)
    known = {e.id for e in c.edges}
    for k, text in enumerate(complex_data.get("relators", [])):
        loc = f"/complex/relators/{k}"
        assert outcome(lambda: reader.edge_word(text, loc)) == outcome(
            lambda: parse_word_string(text, aliases, known, loc)
        )
        assert c.relators[k] == parse_word_string(text, aliases, known, loc)
    got = outcome(lambda: parse_covering(covering_data, c, None, reader).words)
    want = outcome(lambda: reference_covering_words(covering_data["words"], c, aliases))
    assert got == want
    return got


def repository_documents():
    for folder in DOCUMENT_DIRS:
        for name in sorted(os.listdir(folder)):
            if name.endswith(".json"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    yield name, json.load(fh)


def test_repository_documents_read_as_the_reference():
    read = 0
    for name, doc in repository_documents():
        if name == "wedge_s3_50_vertices.json":  # its complex is refused before any word is read
            assert outcome(lambda: parse_complex(doc["complex"]))[:2] == ("error", "/complex/vertices")
            continue
        covering = doc.get("covering") or {}
        texts = covering.get("words", [])
        assert_words_match(doc["complex"], {"kind": "words", "words": texts})
        if covering.get("kind") == "words":
            inst = parse_instance_data(doc, name=name)
            c, reader = parse_complex(doc["complex"])
            assert inst.covering_spec.words == reference_covering_words(texts, c, dict(reader)), name
            read += 1
    assert read == 2


def kernel_words(degree, letters, rng):
    """Word strings over a, b for H = ker(F2 -> S_degree), a -> the full
    cycle, b -> (01): the Schreier generators over a breadth-first
    transversal, then one random reduced word of ``letters`` letters closed
    back into H."""
    gens = {"a": tuple([*range(1, degree), 0]), "b": (1, 0, *range(2, degree))}
    moves = []
    for name, p in gens.items():
        inverse = tuple(sorted(range(degree), key=p.__getitem__))
        moves += [(name, p), (f"{name}^-1", inverse)]
    inverse_token = {"a": "a^-1", "a^-1": "a", "b": "b^-1", "b^-1": "b"}
    identity = tuple(range(degree))
    reps = {identity: []}
    order = [identity]
    for x in order:
        for tok, p in moves:
            y = compose_perms(x, p)
            if y not in reps:
                reps[y] = reps[x] + [tok]
                order.append(y)

    def back(x):
        return [inverse_token[t] for t in reversed(reps[x])]

    words = [reps[x] + [name] + back(compose_perms(x, gens[name])) for x in order for name in "ab"]
    word, x = [], identity
    while len(word) < letters:
        tok, p = rng.choice(moves)
        if not (word and inverse_token[word[-1]] == tok):
            word.append(tok)
            x = compose_perms(x, p)
    words.append(word + back(x))
    return [" ".join(w) for w in words]


def wedge(relators=()):
    return {
        "vertices": 1,
        "edges": [{"id": 0, "tail": 0, "head": 0}, {"id": 1, "tail": 0, "head": 0}],
        "aliases": {"a": 0, "b": 1},
        "relators": list(relators),
    }


@pytest.mark.parametrize("letters", [100, 1000, 10_000])
def test_stallings_documents_read_as_the_reference(letters):
    texts = kernel_words(5, letters, random.Random(letters))
    assert sum(len(t.split()) for t in texts) > letters
    status, words = assert_words_match(wedge(), {"kind": "words", "words": texts})
    assert status == "ok" and len(words) == 241
    # the torus relator shares the document's token table with the words
    assert_words_match(wedge(["a b a^-1 b^-1"]), {"kind": "words", "words": texts})


def soup_complex():
    """Three vertices and six edges, with aliases that shadow edge names."""
    edges = [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 0), (4, 1, 0), (5, 2, 2)]
    return {
        "vertices": 3,
        "edges": [{"id": i, "tail": t, "head": h} for i, t, h in edges],
        "basepoint": 0,
        "aliases": {"a": 0, "b": 1, "c": 2, "loop": 3, "e3": 4, "e10": 5},
        "relators": ["a b c", "loop", "a e3", "e5"],
    }


SOUP_NAMES = ["a", "b", "c", "loop", "e3", "e10", "e0", "e1", "e2", "e4", "e5", "e03", "e6", "e99"]
SOUP_BAD = ["zz", "b^-2", "3e", "a^", "e", "^-1", "a^-1^-1", "é"]


def soup(rng, size):
    tokens = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.03:
            tokens.append(rng.choice(SOUP_BAD))
        else:
            tokens.append(rng.choice(SOUP_NAMES) + ("^-1" if rng.random() < 0.4 else ""))
    return " ".join(tokens)


SOUP_OUTCOMES = (
    "cannot parse word token",
    "unknown edge or alias",
    "word references unknown edge",
    "covering word must be a closed loop at the basepoint: steps do not compose",
    "covering word must be a closed loop at the basepoint: word is not a closed path",
)


def test_random_token_soups_read_as_the_reference():
    rng = random.Random(20260)
    shared = parse_complex(soup_complex())[1]  # one table across every soup, as across one document
    seen = set()
    for _ in range(800):
        texts = [soup(rng, rng.randrange(0, 7)) for _ in range(rng.randrange(1, 4))]
        got = assert_words_match(soup_complex(), {"kind": "words", "words": texts})
        seen.add("ok" if got[0] == "ok" else next(k for k in SOUP_OUTCOMES if got[2].startswith(k)))
        for k, text in enumerate(texts):
            loc = f"/complex/relators/{k}"
            assert outcome(lambda: shared.edge_word(text, loc)) == outcome(
                lambda: parse_word_string(text, dict(shared), set(range(6)), loc)
            )
    assert seen == {"ok", *SOUP_OUTCOMES}


def test_a_failed_token_is_not_kept():
    _, reader = parse_complex(soup_complex())
    for _ in range(2):
        with pytest.raises(InputError, match="unknown edge or alias 'zz'"):
            reader.edge_word("a zz", "/x")
    assert reader.edge_word("a b^-1", "/x") == ((0, 1), (1, -1))


# ---------------------------------------------------------------------------
# labels


def random_groups():
    """Seeded groups of degree 2 to 13, each generated by one or two
    permutations that move at most five points."""
    rng = random.Random(7)
    out = []
    for _ in range(12):
        degree = rng.randrange(2, 14)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            support = rng.sample(range(degree), min(degree, 5))
            images = list(range(degree))
            for x, y in zip(support, rng.sample(support, len(support))):
                images[x] = y
            gens.append(tuple(images))
        out.append(group_from_permutations(degree, gens))
    return out


def symmetric(degree):
    return group_from_permutations(degree, [(1, 0, *range(2, degree)), (*range(1, degree), 0)], name=f"S{degree}")


LABEL_GROUPS = {
    **{name: (lambda name=name: [catalog_group(name)]) for name in groups.CATALOG_GROUP_NAMES},
    **{f"S{k}": (lambda k=k: [symmetric(k)]) for k in (5, 6, 7)},
    "random": random_groups,
}


def other_spellings(label, degree):
    """Other spellings of a cycle label's permutation: each cycle rotated,
    the cycles reversed (the label itself when there is one cycle), the
    other separator, the label twice, a fixed point written out, a space."""
    if label == "e":
        return ["()", "(0)", "e ", "E"]
    sep = "," if degree > 10 else ""
    cycles = [c.split(",") if sep else list(c) for c in label[1:-1].split(")(")]

    def spell(cs, s=sep):
        return "".join("(" + s.join(c) + ")" for c in cs)

    return [
        spell([c[1:] + c[:1] for c in cycles]),
        spell(cycles[::-1]),
        spell(cycles, "" if sep else ","),
        label + label,
        label + f"({degree - 1})",
        label.replace("(", "( "),
    ]


@pytest.mark.parametrize("name", sorted(LABEL_GROUPS))
def test_labels_made_on_demand_match_the_eager_labels(name):
    for g, fresh in zip(LABEL_GROUPS[name](), LABEL_GROUPS[name]()):
        cycles = name not in ("Z2", "Z3", "Z4", "Z6")  # the catalog's cyclic groups carry their own labels
        eager = tuple(cycle_label(p) for p in g.perms) if cycles else tuple(map(str, range(g.order)))
        assert tuple(map(fresh.label, range(fresh.order))) == eager  # in element order
        order = list(range(g.order))
        random.Random(g.order).shuffle(order)
        assert [g.label(a) for a in order] == [eager[a] for a in order]  # one by one, in any order
        assert tuple(map(g.label, range(g.order))) == eager
        assert len(set(eager)) == g.order
        degree = len(g.perms[0])
        element = {text: a for a, text in enumerate(eager)}
        for a, text in enumerate(eager):
            assert g.labelled(text) == a
            for other in other_spellings(text, degree) if cycles else []:
                assert g.labelled(other) == element.get(other), (text, other)


def test_random_groups_have_labels_with_and_without_commas():
    degrees = {len(g.perms[0]) for g in random_groups()}
    assert min(degrees) <= 10 < max(degrees)


def test_caller_labels_are_checked_and_resolved_by_their_text():
    z4 = catalog_group("Z4")
    assert [z4.labelled(t) for t in ("0", "3", "e", "(0123)", "4")] == [0, 3, None, None, None]
    with pytest.raises(ValueError, match="distinct"):
        group_from_permutations(2, [(1, 0)], labels=["x", "x"])
    with pytest.raises(ValueError, match="length"):
        group_from_permutations(2, [(1, 0)], labels=["x"])


# ---------------------------------------------------------------------------
# counts


def s6_document(kernel):
    """S6 over the wedge with a seeded generating voltage, covered by the
    holonomy kernel or by the preimage of a seeded involution's subgroup."""
    rng = random.Random(6)
    identity = tuple(range(6))
    x = y = t = identity
    while group_from_permutations(6, [x, y]).order != 720:
        x, y = (tuple(rng.sample(range(6), 6)) for _ in range(2))
    while t == identity or compose_perms(t, t) != identity:
        t = tuple(rng.sample(range(6), 6))
    return {
        "group": {"degree": 6, "generators": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]},
        "complex": wedge(),
        "voltage": [{"edge": "a", "element": cycle_label(x)}, {"edge": "b", "element": cycle_label(y)}],
        "covering": {"kind": "quotient", "subgroup": ["e" if kernel else cycle_label(t)]},
    }


@pytest.mark.parametrize(
    "kernel,verdicts",
    [(True, [HOLDS] * 7), (False, [HOLDS, HOLDS, HOLDS, GATE, HOLDS, GATE, HOLDS])],
    ids=["kernel", "quotient"],
)
def test_an_s6_document_makes_a_handful_of_labels(monkeypatch, kernel, verdicts):
    doc = s6_document(kernel)
    calls = []

    def counting(p):
        calls.append(p)
        return cycle_label(p)

    monkeypatch.setattr(groups, "cycle_label", counting)
    inst = parse_instance_data(doc)
    assert inst.group.order == 720
    assert len(calls) == 3  # one per element the document names
    calls.clear()
    assert [r.verdict for r in standard_reports(inst, seed=1)] == verdicts
    assert calls == []


def test_the_token_regex_runs_once_per_distinct_token(monkeypatch):
    class Counting:
        def __init__(self, pattern):
            self.pattern, self.tokens = pattern, []

        def match(self, tok):
            self.tokens.append(tok)
            return self.pattern.match(tok)

    texts = kernel_words(4, 300, random.Random(4)) + ["e0 e1 e0^-1 e1^-1"]
    doc = {
        "group": "S3",
        "complex": wedge(["a b a^-1 b^-1", "b a b^-1 a^-1"]),
        "voltage": [{"edge": "a", "element": "e"}, {"edge": "b", "element": "e"}],
        "covering": {"kind": "words", "words": texts},
    }
    counting = Counting(io._TOKEN_RE)
    monkeypatch.setattr(io, "_TOKEN_RE", counting)
    parse_instance_data(doc)
    assert sorted(counting.tokens) == ["a", "a^-1", "b", "b^-1", "e0", "e0^-1", "e1", "e1^-1"]
