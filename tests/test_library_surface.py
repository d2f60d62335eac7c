"""The library holds only what its pipeline reads.

The general route over arbitrary maps of complexes (the map type itself, a
cover's projection and the bundle map over it, star-bijection covering
checks, subgroups read off any covering's sheets, composition), Schreier
generators spelled out or walked one step at a time, path holonomy walked
edge by edge, gauge moves, edge loops rewritten as generator words outside
a document and the brute-force holonomy oracle are test oracles and live in
``tests/helpers.py``; a cover lies over its base by its id layout alone,
with no per-edge table, and a derived bundle's graph is not a complex.  No
module of ``flatconn``, and no script of the growth ladder, defines,
exports, imports or calls them.  The library asks only for what it cannot
work out: an instance and a derived bundle read their complex and group off
the voltage, the presentation reads the complex's own tree, a cover is based
at its total space's basepoint, and each export and document section has one
name and one location.
"""

import ast
import inspect
import os
import pkgutil
from importlib import import_module

import pytest

import flatconn
from flatconn import dot, io
from flatconn.bundles import DerivedBundle, LiftedGraph, derived_bundle
from flatconn.complexes import BaseComplex, Edge, pi1_presentation
from flatconn.connections import HolonomyMorphism, Voltage
from flatconn.corpus import CorpusItem
from flatconn.covers import CoveringComplex
from flatconn.groups import catalog_group
from flatconn.subgroups import SubgroupSpec
from flatconn.theorems import Instance, VerificationReport
from helpers import ComplexMap

HERE = os.path.dirname(__file__)
LADDER = os.path.join(HERE, os.pardir, "ladder")
MOVED = {
    "word_holonomy",
    "GaugeTransform",
    "apply_gauge",
    "membership",
    "reidemeister_schreier",
    "is_covering_map",
    "subgroup_of_cover",
    "compose_complex_maps",
    "_lift_index",
    "loop_to_generator_word",
    "ComplexMap",
    "induced_bundle_map",
    "projection",
    "edge_to_base",
    "vertex_to_base",
    "oracle_holonomy",
    "OracleResult",
    "star",
    "base_lift",
    "_schreier_steps",
    "_schreier_points",
}


def identifiers(path):
    """Every name a module defines, imports, reads or reads as an attribute."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_no_module_defines_or_exports_a_moved_name():
    modules = [flatconn] + [import_module("flatconn." + info.name) for info in pkgutil.iter_modules(flatconn.__path__)]
    for module in modules:
        assert not MOVED & set(vars(module)), module.__name__
        assert not MOVED & set(identifiers(module.__file__)), module.__name__
    assert not hasattr(ComplexMap, "_lift_index")
    assert not hasattr(DerivedBundle, "projection")


def test_the_ladder_reads_no_moved_name():
    scripts = [name for name in sorted(os.listdir(LADDER)) if name.endswith(".py")]
    assert scripts
    for name in scripts:
        assert not MOVED & set(identifiers(os.path.join(LADDER, name))), name


def test_no_member_exists_only_for_a_test():
    """The bundle map, the corpus's voltage key, the report's gate flag and
    the morphism's word evaluation are read through the code under them:
    ``helpers.induced_bundle_map``, ``voltage.as_tuple``, the hypotheses and
    ``GroupTable.evaluate_word``."""
    assert not hasattr(Instance, "bundle_map")
    assert not hasattr(CorpusItem, "voltage_key")
    assert not hasattr(VerificationReport, "gate_passed")
    assert not hasattr(HolonomyMorphism, "evaluate")


def test_a_complex_is_read_through_its_columns():
    """The pipeline reads a complex's ``ids``, ``tails`` and ``heads`` and its
    incidence entries; a single edge's record and a vertex's edge-ends
    without their far vertices are test oracles, ``helpers.star`` among
    them.  A derived bundle's base lift is the basepoint times |G|."""
    for name in ("edge", "star"):
        assert not hasattr(BaseComplex, name), name
    assert not hasattr(DerivedBundle, "base_lift")


def test_a_bundle_graph_is_not_a_complex():
    """A derived bundle's graph keeps its vertex count, its computed edges
    and its fiber maps; ``helpers.induced_bundle_map`` is the one place
    that stores it as a complex."""
    assert not issubclass(LiftedGraph, BaseComplex)
    for name in ("star", "edge", "edge_pos", "relators", "basepoint", "_fiber_map", "_validated", "_tree"):
        assert not hasattr(LiftedGraph, name), name
    s3 = catalog_group("S3")
    base = BaseComplex(2, [Edge(0, 0, 1), Edge(3, 1, 0)], basepoint=1)
    d = derived_bundle(Voltage(base, s3, {0: 1, 3: 2}))
    assert not isinstance(d.graph, BaseComplex)
    assert (d.graph.vertex_count, len(d.graph.edges), d.base.basepoint * d.group.order) == (12, 12, 6)


EMPTY = inspect.Parameter.empty


@pytest.mark.parametrize(
    "function,parameters",
    [
        (Instance, [("voltage", EMPTY), ("covering_spec", None), ("name", "instance"), ("tc_cap", None)]),
        (derived_bundle, [("v", EMPTY)]),
        (pi1_presentation, [("c", EMPTY)]),
        (CoveringComplex, [("base", EMPTY), ("automaton", EMPTY), ("total", EMPTY)]),
        (dot.complex_dot, [("v", EMPTY)]),
        (dot.cover_dot, [("cov", EMPTY)]),
        (dot.bundle_dot, [("d", EMPTY)]),
        (dot.holonomy_bundle_dot, [("d", EMPTY)]),
        (io.parse_complex, [("data", EMPTY)]),
        (io.parse_voltage, [("data", EMPTY), ("c", EMPTY), ("g", EMPTY), ("aliases", EMPTY)]),
        (io.parse_covering, [("data", EMPTY), ("c", EMPTY), ("g", EMPTY), ("aliases", EMPTY)]),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_no_parameter_asks_for_what_the_library_works_out(function, parameters):
    """The complex and group come off the voltage, the tree off the complex,
    the base lift off the total space; graph names and document locations
    are fixed."""
    got = [(p.name, p.default) for p in inspect.signature(function).parameters.values()]
    assert got == parameters


def test_instances_and_bundles_read_their_complex_and_group_off_the_voltage():
    s3 = catalog_group("S3")
    base = BaseComplex(2, [Edge(0, 0, 1), Edge(3, 1, 0)], basepoint=1)
    v = Voltage(base, s3, {0: 1, 3: 2})
    inst = Instance(v, SubgroupSpec(kind="quotient", subgroup=(0,)))
    assert inst.complex is v.complex and inst.group is v.group
    d = derived_bundle(v)
    assert d.base is v.complex and d.group is v.group
    assert inst.cover.total.basepoint == base.basepoint
