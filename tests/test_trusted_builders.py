"""The library's builders hand over what they build without re-checking it.

Groups from ``group_from_permutations``, subgroups from
``subgroup_closure``, the total space of ``build_cover``, the pulled-back
voltage and the map of ``CoveringComplex.projection`` are valid by
construction, so the library does not run the public validators on them.
These oracles check those outputs instead, along with the holonomy bundles,
upstairs and down, and their composite map, built in ``tests/helpers.py``.  A group has no public validator, since
the closure is its only construction, so every group passes the group
oracle of ``tests/helpers.py`` (composition of its own permutations and
generators).  Fresh copies of the other outputs go through the public
validators: every closure passes ``SubgroupSet``, every complex passes
``validate_complex``, every pullback is flat and every map passes
``ComplexMap`` and ``check_incidence``.
"""

import os
import random

import pytest

from flatconn.complexes import BaseComplex, validate_complex
from flatconn.connections import Voltage, check_flatness
from flatconn.corpus import generate_corpus
from flatconn.covers import ComplexMap, check_incidence
from flatconn.errors import EnumerationCapError, IncompleteAutomatonError, InputError
from flatconn.groups import (
    CATALOG_GROUP_NAMES,
    SubgroupSet,
    _catalog_specs,
    catalog_group,
    enumerate_subgroups,
    group_from_permutations,
    subgroup_closure,
)
from flatconn.io import parse_instance

from helpers import check_permutation_group, composite_map, cover_nx, holonomy_projection

INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")
CORPUS_SEEDS = range(8)
CORPUS_COUNT = 250
S5_GENERATORS = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
S6_GENERATORS = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]


def _random_closures(count, seed=0):
    """(generators, labels, group) for seeded random groups of degree 1 to 5."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(1, 5)
        gens = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(0, 3))]
        out.append((gens, None, group_from_permutations(degree, gens)))
    return out


def test_built_groups_pass_the_group_oracle():
    specs = _catalog_specs()
    closures = [(specs[name][1], specs[name][2], catalog_group(name)) for name in CATALOG_GROUP_NAMES]
    for gens in (S5_GENERATORS, S6_GENERATORS):
        closures.append((gens, None, group_from_permutations(len(gens[0]), gens)))
    closures.extend(_random_closures(100))
    assert max(g.order for _, _, g in closures) == 720
    for gens, labels, g in closures:
        check_permutation_group(g, gens, labels)


def test_closures_pass_the_public_constructor():
    rng = random.Random(5)
    checked = 0
    for name in CATALOG_GROUP_NAMES:
        g = catalog_group(name)
        closures = list(enumerate_subgroups(g))
        for _ in range(40):
            seed = [rng.randrange(g.order) for _ in range(rng.randint(0, 4))]
            closures.append(subgroup_closure(g, seed))
        for s in closures:
            assert SubgroupSet(g, s.members).members == s.members
            checked += 1
    assert checked > 8 * 40


def _fresh_copy(c):
    """The same complex, built again by the public constructor: unflagged."""
    return BaseComplex(c.vertex_count, list(c.edges), basepoint=c.basepoint, relators=c.relators)


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
def covered_instances():
    found = _instances()
    covered = [inst for inst in found if _covered(inst)]
    assert len(found) > 8 * CORPUS_COUNT and len(covered) > len(found) // 2
    return covered


def test_built_complexes_pass_validate_complex(covered_instances):
    for inst in covered_instances:
        for c in (inst.cover.total, holonomy_projection(inst.base_bundle).source, cover_nx(inst).source):
            fresh = _fresh_copy(c)
            assert not fresh._validated
            assert validate_complex(fresh) is fresh, inst.name


def test_pullbacks_are_flat(covered_instances):
    for inst in covered_instances:
        pullback = inst.pullback
        fresh = Voltage(_fresh_copy(pullback.complex), pullback.group, dict(pullback.assignment))
        assert check_flatness(fresh) == (), inst.name
        assert fresh.assignment == pullback.assignment, inst.name


def test_built_maps_pass_the_public_constructor(covered_instances):
    for inst in covered_instances:
        cover_map = inst.cover.projection()
        assert inst.cover.projection() is cover_map  # built once per cover
        nx = cover_nx(inst)
        for m in (cover_map, holonomy_projection(inst.base_bundle), nx, composite_map(inst, nx)):
            fresh = ComplexMap(m.source, m.target, tuple(m.vertex_map), dict(m.edge_map))
            check_incidence(fresh)
            assert fresh.vertex_map == m.vertex_map and fresh.edge_map == m.edge_map, inst.name
