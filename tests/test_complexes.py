import random

import pytest

from flatconn.complexes import (
    BaseComplex,
    Edge,
    pi1_presentation,
    spanning_tree,
    validate_complex,
)
from flatconn.errors import ComplexError
from flatconn.words import invert_word, reduce_word
from helpers import loop_to_generator_word, star, tree_edges


def test_wedge_valid(wedge):
    validate_complex(wedge)
    assert wedge.free_rank == 2


def test_disconnected_rejected():
    c = BaseComplex(2, [])
    with pytest.raises(ComplexError, match="disconnected"):
        validate_complex(c)


def test_torus_valid(torus):
    validate_complex(torus)


def test_open_relator_rejected():
    c = BaseComplex(2, [Edge(0, 0, 1)], relators=[((0, 1),)])
    with pytest.raises(ComplexError, match="not a closed path"):
        validate_complex(c)


def test_disconnected_reported_before_open_relator():
    # vertex 2 is unreachable and relator 0 is open: connectivity is checked first
    c = BaseComplex(3, [Edge(0, 0, 1)], relators=[((0, 1),)])
    with pytest.raises(ComplexError) as err:
        validate_complex(c)
    assert str(err.value) == "graph is disconnected; unreachable vertices [2]"


def test_dangling_references_rejected():
    with pytest.raises(ComplexError):
        BaseComplex(1, [Edge(0, 0, 2)])
    with pytest.raises(ComplexError):
        BaseComplex(1, [Edge(0, 0, 0)], relators=[((5, 1),)])
    with pytest.raises(ComplexError):
        BaseComplex(1, [Edge(0, 0, 0), Edge(0, 0, 0)])


def test_spanning_tree_wedge(wedge):
    t = spanning_tree(wedge)
    assert tree_edges(t) == frozenset()
    assert t.generators == (0, 1)


def test_spanning_tree_path_graph():
    c = BaseComplex(3, [Edge(0, 0, 1), Edge(1, 1, 2)])
    t = spanning_tree(c)
    assert tree_edges(t) == frozenset({0, 1})
    assert t.generators == ()


def test_spanning_tree_two_cycle_tie_break():
    c = BaseComplex(2, [Edge(1, 0, 1), Edge(2, 0, 1)])
    t = spanning_tree(c)
    assert tree_edges(t) == frozenset({1})
    assert t.generators == (2,)


def test_loop_word_tree_only():
    c = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 0, 1)])
    t = spanning_tree(c)
    assert loop_to_generator_word(c, t, ((0, 1), (0, -1))) == ()


def test_loop_word_single_generator(wedge):
    t = spanning_tree(wedge)
    assert loop_to_generator_word(wedge, t, ((0, 1),)) == ((0, 1),)


def test_loop_word_two_cycle():
    # tree edge e1, non-tree e2; the loop e1 . e2^-1 reads off e2^-1
    c = BaseComplex(2, [Edge(1, 0, 1), Edge(2, 0, 1)])
    t = spanning_tree(c)
    w = loop_to_generator_word(c, t, ((1, 1), (2, -1)))
    assert w == ((0, -1),)


def test_loop_word_requires_closed_loop(wedge):
    c = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 0, 1)])
    t = spanning_tree(c)
    with pytest.raises(ComplexError):
        loop_to_generator_word(c, t, ((0, 1),))


def test_pi1_wedge(wedge):
    pres = pi1_presentation(wedge)
    assert pres.rank == 2
    assert pres.relators == ()


def test_pi1_torus(torus):
    pres = pi1_presentation(torus)
    assert pres.rank == 2
    assert pres.relators == (((0, 1), (1, 1), (0, -1), (1, -1)),)


def test_pi1_point():
    c = BaseComplex(1, [])
    pres = pi1_presentation(c)
    assert pres.rank == 0
    assert pres.relators == ()


def test_pi1_relator_conjugated_off_basepoint():
    # square relator based at vertex 1; conjugation to the basepoint keeps
    # only the non-tree letters
    c = BaseComplex(
        2,
        [Edge(0, 0, 1), Edge(1, 1, 1)],
        relators=[((1, 1),)],
    )
    pres = pi1_presentation(c)
    assert pres.generators == (1,)
    assert pres.relators == (((0, 1),),)


def test_rank_counts():
    cases = [
        BaseComplex(1, [Edge(0, 0, 0), Edge(1, 0, 0)]),
        BaseComplex(2, [Edge(0, 0, 1), Edge(1, 0, 1), Edge(2, 0, 1)]),
        BaseComplex(2, [Edge(0, 0, 1), Edge(1, 1, 0)]),
    ]
    for c in cases:
        t = spanning_tree(c)
        assert len(t.generators) == len(c.edges) - (c.vertex_count - 1)


def _random_closed_walk(rng, c, length):
    cur = c.basepoint
    steps = []
    for _ in range(length):
        choices = star(c, cur)
        step = rng.choice(choices)
        steps.append(step)
        _, cur = c.step_endpoints(step)
    t = spanning_tree(c)
    return tuple(steps) + t.path_to_base(cur)


def test_loop_word_homomorphism_property():
    rng = random.Random(11)
    c = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 0, 1), Edge(2, 0, 1)])
    t = spanning_tree(c)
    for _ in range(50):
        w1 = _random_closed_walk(rng, c, rng.randint(0, 8))
        w2 = _random_closed_walk(rng, c, rng.randint(0, 8))
        combined = loop_to_generator_word(c, t, w1 + w2)
        split = reduce_word(
            loop_to_generator_word(c, t, w1) + loop_to_generator_word(c, t, w2)
        )
        assert combined == split


def test_loop_word_reversal_property():
    rng = random.Random(12)
    c = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 0, 1), Edge(2, 0, 1)])
    t = spanning_tree(c)
    for _ in range(50):
        w = _random_closed_walk(rng, c, rng.randint(0, 8))
        assert loop_to_generator_word(c, t, invert_word(w)) == invert_word(
            loop_to_generator_word(c, t, w)
        )


def test_star_counts_loops_twice(wedge):
    assert star(wedge, 0) == [(0, 1), (0, -1), (1, 1), (1, -1)]
