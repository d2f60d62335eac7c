"""The normality test pruned by the orbit of its deck maps, against the
unpruned test.

``is_normal_subgroup`` skips a generator g whose 0.g the deck maps found so
far already reach, so it builds at most floor(log2 n) + 1 maps.  Its
verdict must be that of ``helpers.normal_by_every_generator``, which builds
a map for every generator that moves state 0: on the complete subgroup and
kernel automata of corpus seeds 0-7, on every document, and on D4 cases
where an early generator normalises and a later one does not.  Counting
column reads shows that the pruned test skips most generators of a wedge of
many loops.
"""

import glob
import math
import os

import pytest

from flatconn.corpus import generate_corpus
from flatconn.errors import EnumerationCapError, InputError
from flatconn.groups import catalog_group, subgroup_closure
from flatconn.io import parse_instance
from flatconn.subgroups import automaton_from_quotient, is_normal_subgroup
from helpers import normal_by_every_generator

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def complete_automata(inst):
    """The instance's kernel automaton, and its covering automaton when
    that one is complete."""
    out = [inst.kernel_aut]
    try:
        aut = inst.subgroup_aut
    except EnumerationCapError:
        return out
    return out + [aut] if aut.complete else out


@pytest.mark.parametrize("seed", range(8))
def test_pruned_test_agrees_with_the_unpruned_one_on_the_corpus(seed):
    verdicts = []
    for item in generate_corpus(seed, 300):
        for aut in complete_automata(item.instance):
            verdict = is_normal_subgroup(aut)
            assert verdict == normal_by_every_generator(aut), (item.name, aut)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_pruned_test_agrees_with_the_unpruned_one_on_every_document():
    paths = sorted(glob.glob(os.path.join(ROOT, "instances", "*.json")))
    paths += sorted(glob.glob(os.path.join(ROOT, "tests", "documents", "*.json")))
    checked = 0
    for path in paths:
        try:
            automata = complete_automata(parse_instance(path))
        except InputError:
            continue  # a document that pins an error path
        for aut in automata:
            assert is_normal_subgroup(aut) == normal_by_every_generator(aut), path
            checked += 1
    assert checked >= 12


def d4_preimage(*letters):
    """The preimage of S = <s> in D4 = <r, s> under the map sending the
    wedge's loops to the named elements.  N(S) = {e, r^2, s, s r^2}, so r^2
    normalises S without lying in it, and r does not normalise it."""
    d4 = catalog_group("D4")
    r, s = d4.index[(1, 2, 3, 0)], d4.index[(0, 3, 2, 1)]
    element = {"r": r, "r2": d4.mul(r, r), "s": s, "e": 0}
    sub = subgroup_closure(d4, [s])
    return automaton_from_quotient([element[x] for x in letters], d4, sub)


@pytest.mark.parametrize(
    "letters,normal",
    [
        (("r2", "r", "s"), False),  # r^2 builds a deck map, then r conflicts
        (("r2", "r2", "s", "e", "r"), False),  # the second r^2, s and e are skipped before r conflicts
        (("s", "r2", "r2"), True),  # no generator leaves N(S): the preimage is normal in the free group
        (("r", "r2"), True),  # images <r>, which meets S trivially: a regular cover of index 4
    ],
)
def test_an_early_deck_map_does_not_hide_a_later_conflict(letters, normal):
    aut = d4_preimage(*letters)
    assert is_normal_subgroup(aut) is normal_by_every_generator(aut) is normal


class CountingColumn(tuple):
    """A transition column that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        CountingColumn.reads += 1
        return tuple.__getitem__(self, i)


def column_reads(test, aut):
    aut.forward = tuple(map(CountingColumn, aut.forward))
    aut.backward = tuple(map(CountingColumn, aut.backward))
    CountingColumn.reads = 0
    verdict = test(aut)
    return verdict, CountingColumn.reads


def test_pruning_skips_most_generators_of_a_wedge_of_many_loops():
    """The D4 kernel over a wedge of 40 loops, each sent to a non-trivial
    element: 8 states, so at most 3 deck maps are built, where the unpruned
    test builds one for each of the 40 loops.  A deck map reads two entries
    of each of the 2r columns at each of the n states."""
    d4 = catalog_group("D4")
    rank, n = 40, d4.order
    images = [1 + k % (n - 1) for k in range(rank)]
    kernel = subgroup_closure(d4, [])
    pruned, pruned_reads = column_reads(is_normal_subgroup, automaton_from_quotient(images, d4, kernel))
    full, full_reads = column_reads(normal_by_every_generator, automaton_from_quotient(images, d4, kernel))
    per_map = 2 * (2 * rank) * n
    assert pruned is full is True
    assert full_reads == rank * per_map + rank
    assert pruned_reads <= int(math.log2(n)) * per_map + rank
