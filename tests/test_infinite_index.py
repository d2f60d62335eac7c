"""The infinite-index certificate that runs before Todd-Coxeter.

``subgroups._proves_infinite_index`` must be exact where it answers: it
never flags a finite-index subgroup, and on the torus and Klein-bottle
groups it flags every subgroup whose enumeration runs past the cap.  The
oracle is a copy of the plain HLT enumeration, kept here so that the
certificate in front of ``todd_coxeter`` cannot decide its own reference.
"""

import json
import os
import random
from fractions import Fraction

import pytest

from flatconn.complexes import BaseComplex, Edge, pi1_presentation
from flatconn.corpus import CORPUS_TC_CAP, generate_corpus
from flatconn.errors import EnumerationCapError, InputError
from flatconn.io import parse_complex, parse_instance, parse_instance_data
from flatconn.subgroups import _CosetTable, _proves_infinite_index, todd_coxeter
from helpers import reidemeister_schreier

A, A_, B, B_ = (0, 1), (0, -1), (1, 1), (1, -1)
INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


def presentation_of(relators, rank=2):
    c = BaseComplex(1, [Edge(i, 0, 0) for i in range(rank)], relators=relators)
    return pi1_presentation(c)


TORUS = presentation_of([(A, B, A_, B_)])
KLEIN = presentation_of([(A, B, A_, B)])


def coxeter_presentation(degree):
    """S_degree by its Coxeter presentation on degree - 1 involutions."""
    n = degree - 1
    relators = []
    for i in range(n):
        relators.append(((i, 1), (i, 1)))
        for j in range(i + 1, n):
            relators.append(((i, 1), (j, 1)) * (3 if j == i + 1 else 2))
    return presentation_of(relators, rank=n)


def hlt_hits_cap(presentation, words, cap=CORPUS_TC_CAP):
    """The HLT enumeration without the certificate: True iff it runs past
    ``cap`` coset definitions."""
    rank = presentation.rank
    ct = _CosetTable(rank, cap)
    try:
        ct.scan_words(words)
        relators = [ct.columns(rel) for rel in presentation.relators if rel]
        table, parent = ct.table, ct.parent
        alpha = 0
        while alpha < len(table):
            if parent[alpha] == alpha:
                for rel in relators:
                    ct.scan_and_fill(alpha, rel)
                    if parent[alpha] != alpha:
                        break
                else:
                    row = table[alpha]
                    for c in range(2 * rank):
                        if row[c] is None:
                            ct.define(alpha, c)
            alpha += 1
    except EnumerationCapError:
        return True
    return False


def rational_rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def exponent_sums(word, rank):
    row = [0] * rank
    for sym, sign in word:
        row[sym] += sign
    return row


def test_torus_unit_cases():
    assert _proves_infinite_index(TORUS, [(A,)])
    assert not _proves_infinite_index(TORUS, [(A, A), (B, B, B)])
    assert todd_coxeter(TORUS, [(A, A), (B, B, B)]).state_count == 6


def test_edge_presentations():
    # the trivial group: no columns, nothing to prove
    trivial = presentation_of([], rank=0)
    assert not _proves_infinite_index(trivial, [])
    assert todd_coxeter(trivial, []).state_count == 1
    # Z^4 has four independent maps to Z2, so only a basis of them is tried
    z4 = presentation_of(
        [((i, 1), (j, 1), (i, -1), (j, -1)) for i in range(4) for j in range(i + 1, 4)], rank=4
    )
    assert _proves_infinite_index(z4, [((0, 1),), ((1, 1),), ((2, 1),)])
    assert not _proves_infinite_index(z4, [((0, 1), (0, 1)), ((1, 1),), ((2, 1),), ((3, 1),)])
    assert todd_coxeter(z4, [((0, 1), (0, 1)), ((1, 1),), ((2, 1),), ((3, 1),)]).state_count == 2
    # <a, b | b> = Z: only the relator read from coset 1 of ker(a -> 1)
    # kills the column of b there, so <a> (index 1) is not flagged
    assert not _proves_infinite_index(presentation_of([(B,)]), [(A,)])


def test_klein_needs_the_orientation_subgroup():
    # a b a^-1 b = 1: G^ab = Z x Z2 and <a> has finite index there, so the
    # abelianisation of G alone proves nothing ...
    rows = [exponent_sums(w, 2) for w in KLEIN.relators + ((A,),)]
    assert rational_rank(rows) == 2
    # ... but <a> meets the orientation subgroup <a^2, b> = Z^2 in <a^2>
    assert _proves_infinite_index(KLEIN, [(A,)])
    assert hlt_hits_cap(KLEIN, [(A,)])
    assert not _proves_infinite_index(KLEIN, [(A, A), (B,)])
    assert todd_coxeter(KLEIN, [(A, A), (B,)]).state_count == 2


def test_certificate_raises_the_cap_error_of_the_enumeration():
    for cap in (1, 7, 4096):
        with pytest.raises(EnumerationCapError) as exc:
            todd_coxeter(TORUS, [(A,)], cap=cap)
        assert str(exc.value) == f"enumeration did not complete within cap ({cap} cosets)"
    with pytest.raises(ValueError, match="cap must be at least 1"):
        todd_coxeter(TORUS, [(A,)], cap=0)


def test_short_circuit_defines_no_coset(monkeypatch):
    calls = []
    define = _CosetTable.define

    def counting_define(self, alpha, c):
        calls.append((alpha, c))
        return define(self, alpha, c)

    monkeypatch.setattr(_CosetTable, "define", counting_define)
    inst = parse_instance(os.path.join(INSTANCES, "torus_infinite_index.json"))
    with pytest.raises(EnumerationCapError) as exc:
        inst.subgroup_aut
    assert str(exc.value) == "enumeration did not complete within cap (1000 cosets)"
    assert calls == []


def test_oracle_sweep_over_presented_corpus_words():
    """On every torus/Klein words instance of corpus seeds 0-7, proven
    infinite iff the plain enumeration runs past the corpus cap."""
    counts = {(base, capped): 0 for base in ("torus", "klein") for capped in (False, True)}
    for seed in range(8):
        for item in generate_corpus(seed, 1000):
            spec = item.instance.covering_spec
            if item.base_name not in ("torus", "klein") or spec.kind != "words":
                continue
            pres = item.instance.presentation
            capped = hlt_hits_cap(pres, spec.words)
            assert _proves_infinite_index(pres, spec.words) == capped, item.name
            counts[item.base_name, capped] += 1
    assert sum(counts.values()) == 903
    assert counts["torus", True] + counts["klein", True] == 207
    assert min(counts.values()) > 0, counts


def test_no_false_flags_on_coxeter_presentations():
    for degree, order in ((4, 24), (5, 120)):
        pres = coxeter_presentation(degree)
        n = pres.rank
        families = [[], [((0, 1),)], [((i, 1),) for i in range(n - 1)], [((i, 1),) for i in range(n)]]
        families.append([((0, 1), (1, 1))])
        for words in families:
            aut = todd_coxeter(pres, words)
            assert order % aut.state_count == 0
            assert not _proves_infinite_index(pres, words), (degree, words)
            assert not _proves_infinite_index(pres, reidemeister_schreier(aut, pres))


def test_no_false_flags_on_instance_documents():
    names = sorted(n for n in os.listdir(INSTANCES) if n.endswith(".json"))
    assert len(names) == 8
    for name in names:
        with open(os.path.join(INSTANCES, name), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        c, _ = parse_complex(doc["complex"])
        pres = pi1_presentation(c)
        whole = [((g, 1),) for g in range(pres.rank)]
        assert not _proves_infinite_index(pres, whole), name
        assert _proves_infinite_index(pres, []) == hlt_hits_cap(pres, []), name
        try:
            inst = parse_instance_data(doc, name=name)
        except InputError:
            continue
        kernel = inst.kernel_aut
        assert not _proves_infinite_index(pres, reidemeister_schreier(kernel, pres)), name
        spec = inst.covering_spec
        if spec is not None and spec.kind == "words":
            cap = inst.tc_cap or CORPUS_TC_CAP
            assert _proves_infinite_index(pres, spec.words) == hlt_hits_cap(pres, spec.words, cap), name


def test_no_false_flags_on_random_presentations():
    """Seeded two-generator presentations and subgroups: whatever the plain
    enumeration finishes is never flagged."""
    rng = random.Random(7)

    def random_word(longest):
        return tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(1, longest)))

    finished = flagged = 0
    for _ in range(400):
        pres = presentation_of([random_word(7) for _ in range(rng.randint(1, 3))])
        words = [random_word(4) for _ in range(rng.randint(0, 2))]
        proven = _proves_infinite_index(pres, words)
        if not hlt_hits_cap(pres, words, cap=3000):
            assert not proven, (pres.relators, words)
            finished += 1
        flagged += proven
    assert finished > 200 and flagged > 50, (finished, flagged)
