"""The library holds only what its pipeline reads.

The general route over arbitrary maps of complexes (the map type itself, a
cover's projection and the bundle map over it, star-bijection covering
checks, subgroups read off any covering's sheets, composition), Schreier
generators spelled out, path holonomy walked edge by edge, gauge moves and
edge loops rewritten as generator words outside a document are test
oracles and live in ``tests/helpers.py``; a cover lies over its base by its
id layout alone, with no per-edge table.  No module of ``flatconn``, and
no script of the growth ladder, defines, exports, imports or calls them.
"""

import ast
import os
import pkgutil
from importlib import import_module

import flatconn
from flatconn.bundles import DerivedBundle
from flatconn.connections import HolonomyMorphism
from flatconn.corpus import CorpusItem
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
