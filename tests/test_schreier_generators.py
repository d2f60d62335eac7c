"""Schreier generators read off the transversal, against free reduction.

The breadth-first transversal is prefix-closed and reduced, so
``reidemeister_schreier`` skips the tree steps and keeps the other words as
written.  That list equals the non-empty freely reduced words
rep(s) * g * rep(s g)^-1 (in ``helpers``), in the same order, and every
word in it is already reduced.
"""

import pytest

from flatconn.complexes import pi1_presentation
from flatconn.corpus import base_catalog, generate_corpus
from flatconn.errors import EnumerationCapError, IncompleteAutomatonError
from flatconn.subgroups import todd_coxeter
from flatconn.words import reduce_word
from helpers import reduced_schreier_words, reidemeister_schreier
from test_low_index_sweep import CASES, based_subgroups

A, B = (0, 1), (1, 1)


def _check(a, presentation, label):
    words = reidemeister_schreier(a, presentation)
    assert words == reduced_schreier_words(a), label
    assert all(reduce_word(w) == w for w in words), label
    return len(words)


@pytest.mark.parametrize("seed", range(8))
def test_corpus_cover_and_kernel_automata(seed):
    checked = 0
    for item in generate_corpus(seed, 250):
        inst = item.instance
        checked += _check(inst.kernel_aut, inst.presentation, item.name) > 0
        try:
            a = inst.subgroup_aut
        except (EnumerationCapError, IncompleteAutomatonError):
            continue
        if a.complete:
            _check(a, inst.presentation, item.name)
    assert checked > 200


@pytest.mark.parametrize("case", sorted(CASES))
def test_low_index_sweep_automata(case):
    base, _, _, max_index, subgroup_count, _ = CASES[case]
    presentation = pi1_presentation(base)
    for n in range(1, max_index + 1):
        subgroups = based_subgroups(presentation.rank, n, abelian=bool(base.relators))
        assert len(subgroups) == subgroup_count(n), (case, n)
        for a in subgroups:
            _check(a, presentation, (case, n))


@pytest.mark.parametrize("name", ["torus", "klein"])
def test_todd_coxeter_outputs(name):
    base = base_catalog()[name]
    presentation = pi1_presentation(base)
    for p in range(1, 5):
        for q in range(1, 5):
            for words in ([(A,) * p, (B,) * q], [(A,) * p + (B,), (B,) * q]):
                a = todd_coxeter(presentation, words)
                assert _check(a, presentation, (name, words)) >= a.state_count
