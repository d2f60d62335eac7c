import random

import pytest

from flatconn.complexes import BaseComplex, Edge, spanning_tree
from flatconn.connections import (
    Voltage,
    check_flatness,
    holonomy_group,
    holonomy_morphism,
    kernel_automaton,
)
from flatconn.errors import FlatnessError
from flatconn.groups import catalog_group
from flatconn.words import invert_word
from helpers import GaugeTransform, apply_gauge, loop_to_generator_word, word_holonomy


def test_voltage_requires_every_edge(wedge, s3):
    with pytest.raises(ValueError, match="missing for edge 1"):
        Voltage(wedge, s3, {0: 1})
    with pytest.raises(ValueError, match="unknown edges"):
        Voltage(wedge, s3, {0: 1, 1: 2, 9: 0})


def test_voltage_rejects_values_that_are_not_ints(wedge, s3):
    # a float used to fail later inside holonomy_morphism, and a bool was
    # read as element 0 or 1
    with pytest.raises(ValueError, match=r"voltage on edge 0 is not an integer: 1\.0"):
        Voltage(wedge, s3, {0: 1.0, 1: 2})
    with pytest.raises(ValueError, match="voltage on edge 0 is not an integer: True"):
        Voltage(wedge, s3, {0: True, 1: 2})


def test_flatness_relator_free(wedge_s3_voltage):
    assert check_flatness(wedge_s3_voltage) == ()


def test_flatness_torus_abelian(torus, z4):
    v = Voltage(torus, z4, {0: 1, 1: 2})
    assert check_flatness(v) == ()


def test_flatness_violation_product(torus, s3):
    v = Voltage(torus, s3, {0: 1, 1: 3})  # a -> (01), b -> (02)
    violations = check_flatness(v)
    assert len(violations) == 1
    assert violations[0].relator_index == 0
    assert violations[0].product_label == "(021)"


def test_word_holonomy_examples(wedge_s3_voltage, s3):
    assert word_holonomy(wedge_s3_voltage, ()) == 0
    ab = word_holonomy(wedge_s3_voltage, ((0, 1), (1, 1)))
    assert s3.label(ab) == "(02)"
    assert word_holonomy(wedge_s3_voltage, ((0, 1), (0, 1))) == 0


def test_word_holonomy_reversal(wedge_s3_voltage, s3):
    rng = random.Random(5)
    for _ in range(50):
        w = tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 10)))
        val = word_holonomy(wedge_s3_voltage, w)
        assert word_holonomy(wedge_s3_voltage, invert_word(w)) == s3.inverse[val]


def test_word_holonomy_homomorphism(wedge_s3_voltage, s3):
    rng = random.Random(6)
    for _ in range(50):
        w1 = tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 8)))
        w2 = tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 8)))
        assert word_holonomy(wedge_s3_voltage, w1 + w2) == s3.mul(
            word_holonomy(wedge_s3_voltage, w1), word_holonomy(wedge_s3_voltage, w2)
        )


def test_holonomy_morphism_wedge(wedge_s3_voltage, wedge, s3):
    h = holonomy_morphism(wedge_s3_voltage, spanning_tree(wedge))
    assert [s3.label(x) for x in h.images] == ["(01)", "(012)"]


def test_holonomy_morphism_tree_conjugation(s3):
    # parallel two-cycle: tree edge id 1 (voltage g1), generator edge id 2
    # (voltage g2).  The generator image under the stated traversal is
    # g2 * g1^-1, so the loop e1 . e2^-1 picks up g1 * g2^-1.
    c = BaseComplex(2, [Edge(1, 0, 1), Edge(2, 0, 1)])
    g1, g2 = 2, 1  # (012), (01)
    v = Voltage(c, s3, {1: g1, 2: g2})
    t = spanning_tree(c)
    h = holonomy_morphism(v, t)
    assert h.images == (s3.mul(g2, s3.inverse[g1]),)
    loop = ((1, 1), (2, -1))
    gen_word = loop_to_generator_word(c, t, loop)
    assert h.evaluate(gen_word) == word_holonomy(v, loop)
    assert word_holonomy(v, loop) == s3.mul(g1, s3.inverse[g2])


def test_holonomy_morphism_trivial_voltage(wedge, s3):
    v = Voltage(wedge, s3, {0: 0, 1: 0})
    h = holonomy_morphism(v, spanning_tree(wedge))
    assert h.images == (0, 0)


def test_holonomy_morphism_rejects_nonflat(torus, s3):
    v = Voltage(torus, s3, {0: 1, 1: 3})
    with pytest.raises(FlatnessError):
        holonomy_morphism(v, spanning_tree(torus))


def test_holonomy_group_examples(wedge, circle, s3, z4, wedge_s3_voltage):
    h = holonomy_morphism(wedge_s3_voltage, spanning_tree(wedge))
    assert len(holonomy_group(h)) == 6
    v0 = Voltage(wedge, s3, {0: 0, 1: 0})
    assert holonomy_group(holonomy_morphism(v0, spanning_tree(wedge))).members == (0,)
    vz = Voltage(circle, z4, {0: 1})
    assert len(holonomy_group(holonomy_morphism(vz, spanning_tree(circle)))) == 4


def test_gauge_identity(wedge, s3, wedge_s3_voltage):
    t = GaugeTransform((0,))
    assert apply_gauge(wedge_s3_voltage, t).assignment == wedge_s3_voltage.assignment


def test_gauge_constant_conjugates(wedge, s3, wedge_s3_voltage):
    t = GaugeTransform((1,))  # constant (01)
    out = apply_gauge(wedge_s3_voltage, t)
    for eid in (0, 1):
        expected = s3.mul(s3.mul(s3.inverse[1], wedge_s3_voltage.on_edge(eid)), 1)
        assert out.on_edge(eid) == expected
    h = holonomy_morphism(out, spanning_tree(wedge))
    assert [s3.label(x) for x in h.images] == ["(01)", "(021)"]


def test_gauge_covariance_random():
    rng = random.Random(7)
    c = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 0, 1), Edge(2, 0, 1)])
    g = catalog_group("S4")
    tree = spanning_tree(c)
    for _ in range(20):
        v = Voltage(c, g, {eid: rng.randrange(g.order) for eid in (0, 1, 2)})
        gauge = GaugeTransform(tuple(rng.randrange(g.order) for _ in range(2)))
        h = holonomy_morphism(v, tree)
        h2 = holonomy_morphism(apply_gauge(v, gauge), tree)
        t0 = gauge.at(c.basepoint)
        for before, after in zip(h.images, h2.images):
            assert after == g.mul(g.mul(g.inverse[t0], before), t0)


def test_gauge_preserves_flatness(torus, z4):
    rng = random.Random(8)
    v = Voltage(torus, z4, {0: 1, 1: 2})
    for _ in range(10):
        gauge = GaugeTransform((rng.randrange(4),))
        assert check_flatness(apply_gauge(v, gauge)) == ()


def _conjugator_between(g, members_a, members_b):
    """Explicit search for x with x^-1 * A * x == B."""
    set_b = set(members_b)
    for x in range(g.order):
        if {g.mul(g.mul(g.inverse[x], a), x) for a in members_a} == set_b:
            return x
    return None


def test_holonomy_image_tree_independence():
    # theta graph: three candidate spanning trees at the same basepoint
    from flatconn.complexes import SpanningTreeData

    c = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 0, 1), Edge(2, 0, 1)])
    g = catalog_group("S4")
    rng = random.Random(13)
    for _ in range(10):
        v = Voltage(c, g, {eid: rng.randrange(g.order) for eid in (0, 1, 2)})
        h_canonical = holonomy_morphism(v, spanning_tree(c))
        alt_tree = SpanningTreeData(
            complex=c,
            tree_edges=frozenset({1}),
            parent=(None, (1, 1)),
            order=(0, 1),
            generators=(0, 2),
        )
        h_alt = holonomy_morphism(v, alt_tree)
        im1 = holonomy_group(h_canonical)
        im2 = holonomy_group(h_alt)
        assert len(im1) == len(im2)
        assert _conjugator_between(g, im1.members, im2.members) is not None
        # at a fixed basepoint the image subgroup does not depend on the tree
        assert im1.members == im2.members


def test_holonomy_image_basepoint_change_conjugates():
    g = catalog_group("S4")
    rng = random.Random(14)
    for _ in range(10):
        assignment = {eid: rng.randrange(g.order) for eid in (0, 1, 2)}
        at0 = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 0, 1), Edge(2, 0, 1)], basepoint=0)
        at1 = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 0, 1), Edge(2, 0, 1)], basepoint=1)
        im0 = holonomy_group(holonomy_morphism(Voltage(at0, g, assignment), spanning_tree(at0)))
        im1 = holonomy_group(holonomy_morphism(Voltage(at1, g, assignment), spanning_tree(at1)))
        assert len(im0) == len(im1)
        assert _conjugator_between(g, im0.members, im1.members) is not None


def test_kernel_automaton(wedge, circle, s3, z2, wedge_s3_voltage):
    h = holonomy_morphism(wedge_s3_voltage, spanning_tree(wedge))
    assert kernel_automaton(h).state_count == 6
    v0 = Voltage(wedge, s3, {0: 0, 1: 0})
    h0 = holonomy_morphism(v0, spanning_tree(wedge))
    assert kernel_automaton(h0).state_count == 1
    vz = Voltage(circle, z2, {0: 1})
    hz = holonomy_morphism(vz, spanning_tree(circle))
    ker = kernel_automaton(hz)
    assert ker.state_count == 2
    assert ker.forward[0] == (1, 0)
