"""Tree-path products read in one pass, against the per-loop walks they replace.

Every generator of the fundamental group is the loop
``path_from_base(tail) . e . path_to_base(head)`` of a non-tree edge e.  The
holonomy images, the subgroup of a covering and the presentation's relators
are all defined through such loops; each oracle below walks or lifts those
loops one by one and compares with the library's result, on corpus seeds 0-7
and every instance document that parses, over the base and over the cover.
"""

import os

import pytest

from flatconn.complexes import (
    BaseComplex,
    Edge,
    SpanningTreeData,
    pi1_presentation,
    spanning_tree,
)
from flatconn.connections import Voltage, holonomy_morphism
from flatconn.corpus import generate_corpus
from flatconn.errors import EnumerationCapError, IncompleteAutomatonError, InputError
from flatconn.groups import catalog_group
from flatconn.io import parse_instance
from flatconn.subgroups import CosetAutomaton
from flatconn.words import invert_word
from helpers import (
    composite_map,
    cover_nx,
    holonomy_projection,
    lift_path,
    loop_to_generator_word,
    projection,
    subgroup_of_cover,
    word_holonomy,
)

INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")
CORPUS_SEEDS = range(8)
CORPUS_COUNT = 45


def _instances():
    out = []
    for seed in CORPUS_SEEDS:
        out.extend(item.instance for item in generate_corpus(seed, CORPUS_COUNT))
    for name in sorted(os.listdir(INSTANCES)):
        try:
            out.append(parse_instance(os.path.join(INSTANCES, name)))
        except InputError:
            continue
    return out


def _covered(inst):
    """Whether the instance's covering automaton completes."""
    try:
        return inst.subgroup_aut.complete
    except (EnumerationCapError, IncompleteAutomatonError):
        return False


@pytest.fixture(scope="module")
def instances():
    found = _instances()
    covered = [inst for inst in found if _covered(inst)]
    assert len(found) > 8 * CORPUS_COUNT and len(covered) > len(found) // 2
    return found, covered


def generator_loop(c, t, eid):
    e = c.edge(eid)
    return t.path_from_base(e.tail) + ((eid, 1),) + t.path_to_base(e.head)


def walked_images(v, t):
    """Holonomy of each generator loop, walked step by step."""
    return tuple(
        word_holonomy(v, generator_loop(v.complex, t, eid), start=v.complex.basepoint) for eid in t.generators
    )


def lifted_loop_automaton(m, base_lift, t):
    """Transitions read off the lift of each generator loop at each sheet."""
    c = m.target
    loops = [w for eid in t.generators for w in (generator_loop(c, t, eid), invert_word(generator_loop(c, t, eid)))]
    fiber = [x for x, u in enumerate(m.vertex_map) if u == m.target.basepoint]
    moves = [{x: m.source.step_endpoints(lift_path(m, w, x)[-1])[1] for x in fiber} for w in loops]
    return CosetAutomaton.from_action(len(t.generators), base_lift, moves)


def conjugated_relators(c, t):
    """Each relator conjugated to the basepoint along the tree, rewritten."""
    out = []
    for w in c.relators:
        if not w:
            continue
        start = c.path_vertices(w)[0]
        conjugated = t.path_from_base(start) + tuple(w) + t.path_to_base(start)
        out.append(loop_to_generator_word(c, t, conjugated))
    return tuple(out)


def automaton_key(a):
    return a.rank, a.forward, a.backward


def test_holonomy_images_match_walked_loops(instances):
    found, covered = instances
    for inst in found:
        assert inst.morphism.images == walked_images(inst.voltage, inst.tree), inst.name
    for inst in covered:
        assert inst.induced_morphism.images == walked_images(inst.pullback, inst.cover_tree), inst.name


def test_holonomy_images_match_walked_loops_on_a_non_bfs_tree():
    # theta graph with edge 1 as the tree: generators 0 and 2 close through it
    c = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 0, 1), Edge(2, 0, 1)])
    alt_tree = SpanningTreeData(parent=(None, (1, 1)), up=(0, 0), order=(0, 1), generators=(0, 2))
    g = catalog_group("S4")
    for a in range(0, g.order, 5):
        for b in range(0, g.order, 7):
            v = Voltage(c, g, {0: a, 1: b, 2: g.mul(a, b)})
            assert holonomy_morphism(v, alt_tree).images == walked_images(v, alt_tree)


def test_subgroup_of_cover_matches_lifted_loops(instances):
    found, covered = instances
    for inst in found:
        hb = holonomy_projection(inst.base_bundle)
        got = subgroup_of_cover(hb, hb.source.basepoint)
        want = lifted_loop_automaton(hb, hb.source.basepoint, inst.tree)
        assert automaton_key(got) == automaton_key(want), inst.name
    for inst in covered:
        got = inst.composite_subgroup
        nx = cover_nx(inst)
        want = lifted_loop_automaton(composite_map(inst, nx), nx.source.basepoint, inst.tree)
        assert automaton_key(got) == automaton_key(want), inst.name
        got = subgroup_of_cover(projection(inst.cover), inst.cover.total.basepoint)
        want = lifted_loop_automaton(projection(inst.cover), inst.cover.total.basepoint, inst.tree)
        assert automaton_key(got) == automaton_key(want), inst.name


def test_presentation_matches_conjugated_relators(instances):
    found, covered = instances
    for inst in found:
        assert inst.presentation.relators == conjugated_relators(inst.complex, inst.tree), inst.name
    for inst in covered:
        total = inst.cover.total
        pres = pi1_presentation(total)
        assert pres.generators == inst.cover_tree.generators
        assert pres.relators == conjugated_relators(total, inst.cover_tree), inst.name


def test_one_spanning_tree_per_complex(instances):
    found, covered = instances
    for inst in found:
        assert inst.tree is spanning_tree(inst.complex), inst.name
    for inst in covered:
        assert inst.cover_tree is spanning_tree(inst.cover.total), inst.name
