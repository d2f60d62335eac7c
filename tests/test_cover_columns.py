"""A complex is its edge columns, and a cover is built as columns.

``BaseComplex`` keeps ``ids``, ``tails`` and ``heads``; one stored from
its columns makes its ``Edge`` objects only when ``edges`` is read.  ``build_cover`` makes the
total space's columns one base position at a time, with no ``Edge``; the
reference, ``helpers.reference_build_cover``, builds one ``Edge`` per lift
and hands the list to the public constructor.  Both must give the same
columns, edges, incidence lists, lifted relators and spanning tree on every
document, on corpus seeds 0-3 and on the growth ladder's CI rows; and
verifying an S7 cover of 5,040 edges must make no ``Edge`` at all.
"""

import glob
import os

import pytest

from flatconn.complexes import BaseComplex, Edge, spanning_tree
from flatconn.corpus import generate_corpus
from flatconn.covers import build_cover
from flatconn.errors import ComplexError, EnumerationCapError, InputError
from flatconn.io import parse_instance, parse_instance_data
from flatconn.theorems import GATE, HOLDS, standard_reports
from helpers import reference_build_cover

HERE = os.path.dirname(__file__)
DOCUMENTS = sorted(
    glob.glob(os.path.join(HERE, os.pardir, "instances", "*.json")) + glob.glob(os.path.join(HERE, "documents", "*"))
)
CI_LADDER_ROWS = [("torus", 6), ("sym_kernel", 4), ("sym_quotient", 4), ("stallings", 4), ("coxeter", 4)]


def assert_same_cover(c, a):
    new, old = build_cover(c, a).total, reference_build_cover(c, a).total
    assert (new.vertex_count, new.basepoint) == (old.vertex_count, old.basepoint)
    assert (new.ids, new.tails, new.heads) == (old.ids, old.tails, old.heads)
    assert new._incidence == old._incidence
    assert list(new.relators) == list(old.relators)
    assert spanning_tree(new) == spanning_tree(old)
    assert new.edges == old.edges


def test_documents():
    compared = []
    for path in DOCUMENTS:
        try:
            inst = parse_instance(path)
            aut = inst.subgroup_aut
        except (InputError, EnumerationCapError):
            continue
        assert_same_cover(inst.complex, aut)
        compared.append(os.path.basename(path))
    assert compared == [
        "circle_z2.json",
        "torus_z4.json",
        "wedge_s3_01.json",
        "wedge_s3_a3.json",
        "wedge_s3_kernel.json",
        "wedge_s3_parity.json",
        "offbase_s3_components.json",
    ]


@pytest.mark.parametrize("seed", range(4))
def test_corpus(seed):
    compared = 0
    for item in generate_corpus(seed, 300):
        try:
            aut = item.instance.subgroup_aut
        except EnumerationCapError:
            continue
        if aut.complete:
            assert_same_cover(item.instance.complex, aut)
            compared += 1
    assert compared > 250


@pytest.mark.parametrize("family,k", CI_LADDER_ROWS)
def test_ci_ladder_rows(ladder, family, k):
    inst = parse_instance_data(ladder.document(family, k))
    assert_same_cover(inst.complex, inst.subgroup_aut)


def test_edges_are_made_from_the_columns_once():
    c = BaseComplex._trusted(2, (0, 1, 5), (0, 1, 1), (1, 0, 1), 0)
    assert c.edges == (Edge(0, 0, 1), Edge(1, 1, 0), Edge(5, 1, 1))
    assert c.edges is c.edges
    built = BaseComplex(2, [Edge(5, 1, 1), Edge(0, 0, 1), Edge(1, 1, 0)])
    assert (built.ids, built.tails, built.heads) == (c.ids, c.tails, c.heads)
    assert built._incidence == c._incidence


def test_construction_reports_the_first_bad_edge_in_id_order():
    """The message names the first edge, in ascending id, that repeats an
    id or leaves the vertex range."""
    cases = [
        ([Edge(3, 0, 0), Edge(1, 0, 0), Edge(3, 0, 0)], "duplicate edge id 3"),
        ([Edge(4, 0, 0), Edge(2, 0, 2), Edge(4, 0, 0)], "edge 2 references a vertex out of range"),
        ([Edge(2, 0, 0), Edge(2, 0, 0), Edge(4, -1, 0)], "duplicate edge id 2"),
        ([Edge(0, 0, 0), Edge(1, 1, -1)], "edge 1 references a vertex out of range"),
    ]
    for edges, message in cases:
        with pytest.raises(ComplexError, match=f"^{message}$"):
            BaseComplex(2, edges)


def test_verifying_an_s7_cover_makes_no_edge(ladder, monkeypatch):
    """The ladder's S7 Coxeter document: six involutions of sign 1 in Z2,
    covered by <s0, s1> (index 840)."""
    inst = parse_instance_data(ladder.document("coxeter", 7))
    made = []
    init = Edge.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Edge, "__init__", counting_init)
    verdicts = [r.verdict for r in standard_reports(inst, seed=5)]
    assert verdicts == [HOLDS, HOLDS, HOLDS, GATE, GATE, GATE, HOLDS]
    assert len(inst.cover.total.ids) == 5040
    assert made == []
    assert len(inst.cover.total.edges) == 5040 and len(made) == 5040
