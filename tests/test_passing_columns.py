"""Passing checks read whole columns; the per-step walks are their oracles.

h(H) and the first Schreier generator outside another subgroup are read
from one column walk, ``subgroups._schreier_columns``.  The oracles in
``helpers`` walk the Schreier steps one at a time (``schreier_steps``,
``schreier_points``): they must give the same h(H) and the same first step
on every document, on corpus seeds 0-3, on partial (infinite-index)
automata and on the growth ladder's CI rows.

The fast paths rest on facts pinned here as well: a finished coset table,
after Todd-Coxeter or Stallings folding, has no live row that names a dead
coset, so its columns are read whole; a complex whose ids are not 0 ... E - 1
keeps its id -> position dict, with the same errors; and a seed element
already taken is skipped by ``subgroup_closure`` only when it is an integer,
so a bad seed raises where it always did.
"""

import glob
import os
import random
from itertools import combinations

import pytest

from flatconn.complexes import BaseComplex, Edge
from flatconn.connections import HolonomyMorphism, Voltage, kernel_automaton
from flatconn.corpus import generate_corpus
from flatconn.covers import CoveringComplex, check_incidence
from flatconn.errors import ComplexError, EnumerationCapError, IncidenceError, IncompleteAutomatonError, InputError
from flatconn.groups import catalog_group, subgroup_closure
from flatconn.io import parse_instance, parse_instance_data
from flatconn.subgroups import (
    CosetAutomaton,
    SubgroupSpec,
    _CosetTable,
    _first_step_outside,
    stallings_core,
    todd_coxeter,
)
from flatconn.theorems import Instance
from helpers import coxeter_presentation, stepwise_first_step_outside, stepwise_restricted_image
from test_involution_columns import random_words

HERE = os.path.dirname(__file__)
DOCUMENTS = sorted(
    glob.glob(os.path.join(HERE, os.pardir, "instances", "*.json")) + glob.glob(os.path.join(HERE, "documents", "*"))
)
CI_LADDER_ROWS = [("torus", 6), ("sym_kernel", 4), ("sym_quotient", 4), ("stallings", 4), ("coxeter", 4)]


def assert_matches_stepwise(inst, label):
    """h(H) and the first step outside, both ways between the subgroup and
    the holonomy kernel, against the step-at-a-time oracle.  Returns
    whether the subgroup's automaton is complete; only the kernel's steps
    are read against a partial one."""
    a, kernel = inst.subgroup_aut, inst.kernel_aut
    if a.complete:
        assert inst.restricted_image.members == stepwise_restricted_image(inst).members, label
        assert _first_step_outside(a, kernel) == stepwise_first_step_outside(a, kernel), label
        assert _first_step_outside(a, a) is None and stepwise_first_step_outside(a, a) is None, label
    assert _first_step_outside(kernel, a) == stepwise_first_step_outside(kernel, a), label
    return a.complete


# ---------------------------------------------------------------------------
# Schreier generators against the per-step oracle


def test_documents():
    compared = []
    for path in DOCUMENTS:
        try:
            inst = parse_instance(path)
            inst.subgroup_aut
        except (InputError, EnumerationCapError):
            continue
        assert_matches_stepwise(inst, path)
        compared.append(os.path.basename(path))
    assert len(compared) == 7


@pytest.mark.parametrize("seed", range(4))
def test_corpus(seed):
    outcomes = []
    for item in generate_corpus(seed, 300):
        try:
            outcomes.append(assert_matches_stepwise(item.instance, item.name))
        except EnumerationCapError:
            continue
    assert outcomes.count(True) > 250 and outcomes.count(False) > 5


@pytest.mark.parametrize("family,k", CI_LADDER_ROWS)
def test_ci_ladder_rows(ladder, family, k):
    assert assert_matches_stepwise(parse_instance_data(ladder.document(family, k)), (family, k))


@pytest.mark.parametrize("rank,group_name", [(2, "S3"), (2, "S4"), (3, "D4")])
def test_partial_automata_both_ways(rank, group_name):
    """Stallings cores of random words, most of infinite index, against the
    kernels of random maps to a small group: the kernel's first generator
    outside a partial core (its path may leave the core on a tree step of
    the kernel, which is no generator), and a core's first generator outside
    the kernel once it is complete."""
    g = catalog_group(group_name)
    rng = random.Random(rank * 100 + g.order)
    partial = 0
    for _ in range(60):
        core = stallings_core(random_words(rng, rank, rng.randint(1, 3)), rank)
        kernel = kernel_automaton(HolonomyMorphism(g, tuple(rng.randrange(g.order) for _ in range(rank))))
        assert _first_step_outside(kernel, core) == stepwise_first_step_outside(kernel, core)
        if core.complete:
            assert _first_step_outside(core, kernel) == stepwise_first_step_outside(core, kernel)
        else:
            partial += 1
            with pytest.raises(IncompleteAutomatonError, match="^Schreier generators require a complete automaton$"):
                _first_step_outside(core, kernel)
    assert partial > 30


# ---------------------------------------------------------------------------
# no live row names a dead coset


def read_through_find(ct):
    """The automaton of a finished table, each live entry read through the
    union-find, as the table was read before its columns were read whole."""
    moves = [[None] * len(ct.table) for _ in ct.inverse]
    for x, px in enumerate(ct.parent):
        if px == x:
            for move, y in zip(moves, ct.table[x]):
                if y is not None:
                    move[x] = ct.find(y)
    return CosetAutomaton.from_action(ct.rank, 0, [moves[c] for c in ct.letter])


@pytest.fixture()
def finished(monkeypatch):
    """Each finished table, checked when its automaton is read: every entry
    of a live row is None or a live coset, and the whole-column read equals
    the read through the union-find.  Returns the number of tables checked
    and of cosets folded away in them."""
    seen = {"tables": 0, "dead": 0}
    automaton = _CosetTable.automaton

    def checked(self):
        a = automaton(self)
        live = [x == px for x, px in enumerate(self.parent)]
        for x, row in enumerate(self.table):
            if live[x]:
                assert all(y is None or live[y] for y in row), x
        assert a.key() == read_through_find(self).key()
        seen["tables"] += 1
        seen["dead"] += live.count(False)
        return a

    monkeypatch.setattr(_CosetTable, "automaton", checked)
    return seen


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_live_rows_after_todd_coxeter_on_coxeter_presentations(finished, degree):
    pres = coxeter_presentation(degree)
    n = pres.rank
    families = [[((i, 1),)] for i in range(n)] + [[((i, 1),), ((j, 1),)] for i, j in combinations(range(n), 2)]
    rng = random.Random(degree)
    families += [random_words(rng, n, rng.randint(1, 3)) for _ in range(12)]
    for words in families:
        todd_coxeter(pres, words)
    assert finished["tables"] == len(families) and finished["dead"] > 0


@pytest.mark.parametrize("family,k", [("torus", 6), ("torus", 8), ("klein", 6), ("klein", 8)])
def test_live_rows_after_todd_coxeter_on_surface_rows(ladder, finished, family, k):
    inst = parse_instance_data(ladder.document(family, k))
    assert inst.subgroup_aut.state_count == 2**k
    assert finished["tables"] == 1 and finished["dead"] > 0


@pytest.mark.parametrize("seed", range(4))
def test_live_rows_after_todd_coxeter_and_stallings_on_the_corpus(finished, seed):
    for item in generate_corpus(seed, 300):
        try:
            item.instance.subgroup_aut
        except EnumerationCapError:
            continue
    assert finished["tables"] > 50 and finished["dead"] > 0


# ---------------------------------------------------------------------------
# positions by id


def test_dense_ids_are_their_own_positions_and_others_keep_a_dict(z2):
    base = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 1, 0)])
    cov = Instance(Voltage(base, z2, {0: 0, 1: 1}), SubgroupSpec(kind="quotient", subgroup=(0,))).cover
    total = cov.total
    assert total.ids == (0, 1, 2, 3) and isinstance(total._pos.__self__, range)
    assert [total.edge_pos(eid) for eid in total.ids] == [0, 1, 2, 3]
    sparse = BaseComplex._trusted(2, (0, 1, 5), (0, 1, 1), (1, 0, 1), 0)
    assert isinstance(sparse._pos.__self__, dict) and sparse.edge_pos(5) == 2
    for c, eid in ((total, 4), (total, -1), (total, 2.5), (sparse, 2), (sparse, 6)):
        with pytest.raises(ComplexError, match=f"^unknown edge id {eid}$"):
            c.edge_pos(eid)


def test_a_cover_with_sparse_ids_keeps_its_dict_and_its_messages(z2):
    """The two-cycle's index-2 cover, every lift id shifted by 2 n E = 8 so
    that each still lies over its id mod E, rebuilt by the public
    constructor: positions come from its dict, and the layout check reads
    the base under each id mod E and names the first bad lift."""
    base = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 1, 0)])
    cov = Instance(Voltage(base, z2, {0: 0, 1: 1}), SubgroupSpec(kind="quotient", subgroup=(0,))).cover
    edges = [Edge(e.id + 8, e.tail, e.head) for e in cov.total.edges]
    total = BaseComplex(4, edges)
    assert total.ids == (8, 9, 10, 11) and isinstance(total._pos.__self__, dict)
    assert [total.edge_pos(eid) for eid in total.ids] == [0, 1, 2, 3]
    with pytest.raises(ComplexError, match="^unknown edge id 0$"):
        total.edge_pos(0)
    check_incidence(CoveringComplex(base, cov.automaton, total))
    edges[2] = Edge(10, 2, 2)  # over edge 0 of the base, but it ends over vertex 0, not 1
    bad = CoveringComplex(base, cov.automaton, BaseComplex(4, edges))
    with pytest.raises(IncidenceError, match=r"^edge 10 -> 0 does not respect incidences: \(0, 0\) vs \(0, 1\)$"):
        check_incidence(bad)


# ---------------------------------------------------------------------------
# subgroup closure seeds


@pytest.mark.parametrize(
    "seed,message",
    [
        ([1, 1, 1.0], "seed element 1.0 is not an integer"),
        ([1, 2, True], "seed element True is not an integer"),
        ([2, 2, [2]], r"seed element \[2\] is not an integer"),
        ([3, 3, 6], "seed element 6 out of range"),
        ([1, "1", 1], "seed element '1' is not an integer"),
    ],
)
def test_a_bad_seed_raises_at_the_same_element_after_a_taken_one(s3, seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        subgroup_closure(s3, seed)
