"""The spanning-tree search against the search through ``star`` it replaces.

The library's breadth-first search reads each edge-end as the (edge id,
sign, far vertex) entry a complex builds once; ``reference_spanning_tree``
resolves every end of ``star(v)`` through ``step_endpoints``.  Both must give
the same ``parent``, ``up``, ``order`` and ``generators`` on the base and
the cover of every document that parses, of the four ladder rows that CI
runs and of corpus seeds 0-3.
"""

import importlib.util
import os

import pytest

from flatconn.complexes import spanning_tree
from flatconn.corpus import generate_corpus
from flatconn.errors import EnumerationCapError, IncompleteAutomatonError, InputError
from flatconn.io import parse_instance, parse_instance_data
from helpers import reference_spanning_tree

HERE = os.path.dirname(__file__)
DOCUMENTS = [os.path.join(HERE, os.pardir, "instances"), os.path.join(HERE, "documents")]
LADDER = os.path.join(HERE, os.pardir, "ladder", "run.py")
CI_ROWS = (("torus", 6), ("sym_kernel", 4), ("sym_quotient", 4), ("stallings", 4))
CORPUS_SEEDS = range(4)
CORPUS_COUNT = 300


def tree_fields(t):
    return t.parent, t.up, t.order, t.generators


def complexes(inst):
    """The instance's base, and its cover's total space when it has one."""
    yield inst.complex
    try:
        if inst.covering_spec is None or not inst.subgroup_aut.complete:
            return
    except (EnumerationCapError, IncompleteAutomatonError):
        return
    yield inst.cover.total


def check(inst):
    for c in complexes(inst):
        assert tree_fields(spanning_tree(c)) == tree_fields(reference_spanning_tree(c)), inst.name


def test_documents():
    names = [os.path.join(d, name) for d in DOCUMENTS for name in sorted(os.listdir(d))]
    checked = 0
    for path in names:
        try:
            inst = parse_instance(path)
        except InputError:
            continue
        check(inst)
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("family,k", CI_ROWS)
def test_ladder_rows(family, k):
    spec = importlib.util.spec_from_file_location("ladder_run", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    check(parse_instance_data(ladder.document(family, k), name=f"{family}-{k}"))


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus(seed):
    for item in generate_corpus(seed, CORPUS_COUNT):
        check(item.instance)

