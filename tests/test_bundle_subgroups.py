"""The bundle subgroups read off the derived bundles, against the extracted complexes.

``Instance.base_nx_subgroup`` and ``composite_subgroup`` lift each pi1
generator loop through the fiber maps of the derived bundle (through the
cover's own edges for the composite).  The oracle builds the basepoint
component as its own complex with the public constructors
(``helpers.holonomy_projection``), composes its projection with the
cover's (``helpers.compose_complex_maps``) and reads the subgroup off the
sheets (``helpers.subgroup_of_cover``).  Both must give the same automaton on
corpus seeds 0-7, on every parsable document, on the S4-S6 symmetric
ladder documents and on a base whose spanning tree runs edges backwards
and whose generators start and end off the basepoint (the catalog bases
have neither); prop 2.4's rank, read from the sheet count, must be the
extracted component's free rank; and the claim checks must build no map of
complexes, reading each cover's projection off its id layout, whose
incidence they check once per set of reports.
"""

import importlib.util
import os
import pkgutil
import random
from importlib import import_module

import pytest

import flatconn
from flatconn import covers, theorems

from flatconn.bundles import LiftedGraph, _basepoint_subgroup, derived_bundle
from flatconn.complexes import BaseComplex, Edge, spanning_tree
from flatconn.connections import Voltage
from flatconn.corpus import generate_corpus
from flatconn.errors import EnumerationCapError, IncompleteAutomatonError, InputError
from flatconn.groups import catalog_group
from flatconn.io import parse_instance, parse_instance_data
from flatconn.subgroups import CosetAutomaton, SubgroupSpec, automata_equal
from flatconn.theorems import GATE, Instance, standard_reports, verify_prop_2_4
from helpers import (
    compose_complex_maps,
    composite_map,
    cover_nx,
    covering_degree,
    holonomy_projection,
    projection,
    subgroup_of_cover,
)
from test_library_surface import identifiers

HERE = os.path.dirname(__file__)
DOCUMENTS = [os.path.join(HERE, os.pardir, "instances"), os.path.join(HERE, "documents")]
LADDER = os.path.join(HERE, os.pardir, "ladder", "run.py")
CORPUS_COUNT = 250
SOURCES = [*range(8), "documents", "ladder", "backward_tree"]


def backward_tree_instances():
    """Three vertices, the basepoint 0 reached from nowhere: the tree takes
    edges 0 (1 -> 0) and 3 (2 -> 0) backwards, and the generators 1 (2 -> 1),
    2 (1 -> 2) and 4 (a loop at 1) all lie off the basepoint.  Seeded voltages
    into S3 and S4, covered by the holonomy kernel, by the preimage of a
    two-element subgroup and by random words."""
    c = BaseComplex(3, [Edge(0, 1, 0), Edge(1, 2, 1), Edge(2, 1, 2), Edge(3, 2, 0), Edge(4, 1, 1)])
    assert {step[1] for step in spanning_tree(c).parent[1:]} == {-1}
    rng = random.Random(5)
    out = []
    for name in ("S3", "S4"):
        g = catalog_group(name)
        for _ in range(4):
            v = Voltage(c, g, {e.id: rng.randrange(g.order) for e in c.edges})
            words = tuple(tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(3)) for _ in range(2))
            for spec in (
                SubgroupSpec(kind="quotient"),
                SubgroupSpec(kind="quotient", subgroup=(0, v.as_tuple()[4])),
                SubgroupSpec(kind="words", words=words),
            ):
                out.append(Instance(c, g, v, spec, name=f"backward-{name}-{len(out)}", tc_cap=4096))
    return out


def source_instances(source):
    """Corpus seed ``source``, the parsable documents, the S4-S6
    ``sym_kernel`` and ``sym_quotient`` ladder documents, or the backward
    tree instances."""
    if source == "backward_tree":
        return backward_tree_instances()
    if source == "documents":
        out = []
        for folder in DOCUMENTS:
            for name in sorted(os.listdir(folder)):
                try:
                    out.append(parse_instance(os.path.join(folder, name)))
                except InputError:
                    continue
        return out
    if source == "ladder":
        spec = importlib.util.spec_from_file_location("ladder_run", LADDER)
        ladder = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ladder)
        return [
            parse_instance_data(ladder.document(family, k), name=f"{family}-{k}")
            for family in ("sym_kernel", "sym_quotient")
            for k in (4, 5, 6)
        ]
    return [item.instance for item in generate_corpus(source, CORPUS_COUNT)]


def has_finite_cover(inst):
    try:
        return inst.subgroup_aut.complete
    except (EnumerationCapError, IncompleteAutomatonError):
        return False


@pytest.mark.parametrize("source", SOURCES)
def test_walked_subgroups_match_the_extracted_components(source):
    found = source_instances(source)
    covered = 0
    for inst in found:
        hb = holonomy_projection(inst.base_bundle)
        assert automata_equal(inst.base_nx_subgroup, subgroup_of_cover(hb, hb.source.basepoint)), inst.name
        if not has_finite_cover(inst):
            continue
        covered += 1
        nx = cover_nx(inst)
        want = subgroup_of_cover(composite_map(inst, nx), nx.source.basepoint)
        assert automata_equal(inst.composite_subgroup, want), inst.name
    assert found and covered > len(found) // 2


@pytest.mark.parametrize("source", SOURCES)
def test_rank_formula_reads_the_extracted_free_rank(source):
    """On a relator-free base the holonomy bundle is k sheets, one vertex
    over each base vertex and one edge over each base edge, so its free rank
    is k (E - V) + 1; prop 2.4 reports that rank without extracting it."""
    checked = 0
    for inst in source_instances(source):
        if inst.complex.relators:
            continue
        hb = holonomy_projection(inst.base_bundle)
        c = inst.complex
        assert hb.source.free_rank == covering_degree(hb) * (len(c.edges) - c.vertex_count) + 1, inst.name
        report = verify_prop_2_4(inst)
        if report.verdict != GATE:
            assert f"rank pi1(holonomy bundle) = {hb.source.free_rank}" in report.notes[1], inst.name
            checked += 1
    assert checked


@pytest.mark.parametrize("source", ["documents", "ladder", "backward_tree", 3])
def test_claim_checks_extract_no_component(monkeypatch, source):
    """No component, composite, bundle map or projection is built as a map
    of complexes: no library module names a vertex or edge map, and the one
    incidence check the claim checks run is on each instance's own cover,
    once per set of reports."""
    for info in pkgutil.iter_modules(flatconn.__path__):
        module = import_module("flatconn." + info.name)
        assert not {"vertex_map", "edge_map"} & set(identifiers(module.__file__)), module.__name__
    checked = []
    check = covers.check_incidence

    def counting(cov):
        checked.append(cov)
        return check(cov)

    for module in (covers, theorems):  # every name the check is called by
        monkeypatch.setattr(module, "check_incidence", counting)
    reports = 0
    for inst in source_instances(source):
        if has_finite_cover(inst):
            checked.clear()
            reports += len(standard_reports(inst, seed=0))
            assert len(checked) == 1 and checked[0] is inst.cover, inst.name
    assert reports


def test_base_walk_rejects_a_fiber_map_that_does_not_undo_its_edge(monkeypatch):
    """The base bundle walk reads each inverse loop's element through the
    fiber maps too: if running an edge backwards does not undo it, the walk
    raises the automaton's ValueError instead of handing back a subgroup."""
    inst = parse_instance(os.path.join(DOCUMENTS[0], "wedge_s3_kernel.json"))  # b -> (012), not an involution
    fiber_maps = LiftedGraph._fiber_maps

    def forward_both_ways(self, positions, sign=1):
        return fiber_maps(self, positions)

    monkeypatch.setattr(LiftedGraph, "_fiber_maps", forward_both_ways)
    with pytest.raises(ValueError, match="^transitions for generator 1 are not mutually inverse$"):
        inst.base_nx_subgroup


def test_composite_walk_rejects_a_fiber_map_that_does_not_undo_its_edge(monkeypatch):
    """Through the cover (six states over the basepoint) the walk reads each
    lift's fiber map too, and raises the same ValueError when running a lift
    backwards does not undo it, before it walks anything."""
    inst = parse_instance(os.path.join(DOCUMENTS[0], "wedge_s3_kernel.json"))  # b -> (012), not an involution
    assert inst.cover.degree == 6
    inst.cover_bundle
    fiber_maps, from_action = LiftedGraph._fiber_maps, CosetAutomaton.from_action.__func__
    walks = []

    def forward_both_ways(self, positions, sign=1):
        return fiber_maps(self, positions)

    def counted(cls, *args):
        walks.append(args)
        return from_action(cls, *args)

    monkeypatch.setattr(LiftedGraph, "_fiber_maps", forward_both_ways)
    monkeypatch.setattr(CosetAutomaton, "from_action", classmethod(counted))
    with pytest.raises(ValueError, match="^transitions for generator 1 are not mutually inverse$"):
        inst.composite_subgroup
    assert walks == []


def test_composite_walk_reads_each_lift_of_an_edge_at_its_own_state():
    """The walk reads the fiber map of the lift leaving the state a loop is
    at.  A pulled-back voltage gives every lift of a base edge one value, so
    here each cover edge gets a seeded value of its own: the walked subgroup
    must still be the extracted component's, composed with the cover."""
    rng = random.Random(11)
    checked = 0
    for source in ("documents", 0):
        for inst in source_instances(source):
            if inst.complex.relators or not has_finite_cover(inst) or inst.cover.degree < 2:
                continue
            total, g = inst.cover.total, inst.group
            v = Voltage(total, g, {e.id: rng.randrange(g.order) for e in total.edges})
            d = derived_bundle(total, g, v)
            nx = holonomy_projection(d)
            want = subgroup_of_cover(compose_complex_maps(nx, projection(inst.cover)), nx.source.basepoint)
            assert automata_equal(_basepoint_subgroup(d, inst.cover), want), inst.name
            checked += 1
    assert checked > 50
