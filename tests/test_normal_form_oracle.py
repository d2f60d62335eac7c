"""Every coset automaton the pipeline builds is in breadth-first normal form.

The oracle is the long route, kept in ``tests/helpers.py``: an action's
orbit found over the forward generators with the backward columns filled
by inversion (``discover_then_renumber``), or a finished coset table's live
cosets compacted (``compact_then_renumber``), then the columns checked and
renumbered by a second breadth-first walk.  Quotient automata are checked
against the orbit of cosets named by least element, products composed
one at a time.  Over corpus seeds 0-7 and every document, each automaton
handed back on the way (the covering subgroup, the holonomy kernel, both
bundle subgroups, and every Stallings and Todd-Coxeter output), including
the kernel automaton an instance hands out again as its base bundle
subgroup or as a covering subgroup that names the kernel, is compared with
the oracle's field by field.
"""

import os
import sys

import pytest

from flatconn import subgroups, theorems
from flatconn.bundles import _base_loop_elements
from flatconn.connections import HolonomyMorphism, kernel_automaton
from flatconn.corpus import generate_corpus
from flatconn.errors import EnumerationCapError, IncompleteAutomatonError, InputError
from flatconn.groups import catalog_group, subgroup_closure
from flatconn.io import parse_instance
from flatconn.subgroups import CosetAutomaton, SubgroupSpec, _CosetTable, automaton_from_spec
from flatconn.theorems import Instance

from helpers import automaton_fields, compact_then_renumber, discover_then_renumber

INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")
DOCUMENTS = os.path.join(os.path.dirname(__file__), "documents")
CORPUS_SEEDS = range(8)
CORPUS_COUNT = 250


def _instances():
    out = []
    for seed in CORPUS_SEEDS:
        out.extend(item.instance for item in generate_corpus(seed, CORPUS_COUNT))
    for folder in (INSTANCES, DOCUMENTS):
        for name in sorted(os.listdir(folder)):
            try:
                out.append(parse_instance(os.path.join(folder, name)))
            except InputError:
                continue
    return out


def _quotient_oracle(images, group, subgroup):
    """The quotient automaton the long way: generator g sends a coset S x,
    named by its least element, to S x h(g), each product composed."""

    def act(x, g):
        y = group.mul(x, images[g])
        return min(group.mul(t, y) for t in subgroup.members)

    return discover_then_renumber(len(images), 0, act)


def _replace_quotient_builder(monkeypatch, replacement):
    """Put ``replacement`` in place of ``automaton_from_quotient`` in every
    flatconn module that bound it by name; returns the original."""
    original = subgroups.automaton_from_quotient
    for module in list(sys.modules.values()):
        if module.__name__.startswith("flatconn") and getattr(module, "automaton_from_quotient", None) is original:
            monkeypatch.setattr(module, "automaton_from_quotient", replacement)
    return original


@pytest.fixture
def checked(monkeypatch):
    """Counts of the automata built, by route, each checked against the
    oracle; a quotient automaton is checked once, against the quotient
    oracle, not again as the action it walks."""
    counts = {"action": 0, "table": 0}
    from_action = CosetAutomaton.from_action.__func__
    table_automaton = _CosetTable.automaton
    inside = []

    def checked_from_action(cls, rank, start, moves):
        a = from_action(cls, rank, start, moves)
        if not inside:
            assert automaton_fields(a) == discover_then_renumber(rank, start, lambda x, g: moves[2 * g][x])
            counts["action"] += 1
        return a

    def checked_table_automaton(table):
        expected = compact_then_renumber(table)
        inside.append(table)
        try:
            a = table_automaton(table)
        finally:
            inside.pop()
        assert automaton_fields(a) == expected
        counts["table"] += 1
        return a

    def checked_quotient_automaton(images, group, subgroup, relators=()):
        inside.append(images)
        try:
            a = quotient_automaton(images, group, subgroup, relators)
        finally:
            inside.pop()
        assert automaton_fields(a) == _quotient_oracle(images, group, subgroup)
        counts["action"] += 1
        return a

    monkeypatch.setattr(CosetAutomaton, "from_action", classmethod(checked_from_action))
    monkeypatch.setattr(_CosetTable, "automaton", checked_table_automaton)
    quotient_automaton = _replace_quotient_builder(monkeypatch, checked_quotient_automaton)
    return counts


def _resolved_quotient(inst):
    """The (images, group, subgroup) that a quotient covering spec names."""
    spec = inst.covering_spec
    group = spec.group or inst.group
    images = inst.morphism.images if spec.images is None else spec.images
    return images, group, subgroup_closure(group, spec.subgroup)


def _check_shared(inst, counts):
    """Check the kernel automaton wherever the instance hands it out again:
    as the base bundle subgroup, against the quotient oracle of the loop
    elements lifted through the bundle, and as a covering subgroup, against
    the quotient oracle of what its spec names."""
    kernel = inst.kernel_aut
    if inst.base_nx_subgroup is kernel:
        trivial = subgroup_closure(inst.group, ())
        assert automaton_fields(kernel) == _quotient_oracle(_base_loop_elements(inst.base_bundle), inst.group, trivial)
        counts["action"] += 1
    if inst.subgroup_aut is kernel:
        assert automaton_fields(kernel) == _quotient_oracle(*_resolved_quotient(inst))
        counts["action"] += 1


def test_every_pipeline_automaton_matches_the_renumbering_oracle(checked):
    covered = 0
    for inst in _instances():
        inst.kernel_aut
        inst.base_nx_subgroup
        try:
            complete = inst.subgroup_aut.complete
        except (EnumerationCapError, IncompleteAutomatonError):
            continue
        _check_shared(inst, checked)
        if complete:
            inst.composite_subgroup
            covered += 1
    assert covered > 1800
    assert checked["action"] > 7000 and checked["table"] > 600


FIELDS = ("forward", "backward", "parent", "column", "complete")


def test_shared_kernel_walks_equal_fresh_walks():
    """The kernel automaton an instance hands back as its base bundle
    subgroup equals the kernel automaton of the lifted loop elements, and
    the one it hands back as its covering subgroup equals what the spec
    resolves to, each walked afresh; a quotient spec is shared exactly when
    it names the trivial subgroup through the instance's own holonomy."""
    shared = {"base": 0, "cover": 0}
    for inst in _instances():
        fresh = kernel_automaton(HolonomyMorphism(inst.group, _base_loop_elements(inst.base_bundle)))
        assert [getattr(inst.base_nx_subgroup, f) for f in FIELDS] == [getattr(fresh, f) for f in FIELDS]
        shared["base"] += inst.base_nx_subgroup is inst.kernel_aut
        spec = inst.covering_spec
        if spec.kind != "quotient":
            continue
        images, group, sub = _resolved_quotient(inst)
        names_kernel = group is inst.group and tuple(images) == inst.morphism.images and len(sub) == 1
        assert (inst.subgroup_aut is inst.kernel_aut) == names_kernel, inst.name
        fresh = automaton_from_spec(spec, inst.presentation, default_group=inst.group, default_images=inst.morphism.images)
        assert [getattr(inst.subgroup_aut, f) for f in FIELDS] == [getattr(fresh, f) for f in FIELDS]
        shared["cover"] += names_kernel
    assert shared["base"] > 1800 and shared["cover"] > 600


def test_a_kernel_spec_with_other_images_or_another_group_walks_its_own():
    """Explicit images other than the holonomy's, or an equal group that is
    another table, are not the kernel walk: the covering subgroup is walked
    for them, and equals the fresh walk of what the spec names.  The
    holonomy's own images through the instance's group are."""
    checked = 0
    for item in generate_corpus(0, CORPUS_COUNT):
        inst = item.instance
        c, g, v, images = inst.complex, inst.group, inst.voltage, inst.morphism.images
        if c.relators or len(images) < 2 or images[0] == images[1]:
            continue
        swapped = (images[1], images[0], *images[2:])
        twin = catalog_group(g.name)
        for spec, shared in (
            (SubgroupSpec(kind="quotient", group=g, images=images), True),
            (SubgroupSpec(kind="quotient", group=g, images=swapped), False),
            (SubgroupSpec(kind="quotient", group=twin, images=images), False),
        ):
            kin = Instance(v, spec)
            assert (kin.subgroup_aut is kin.kernel_aut) == shared
            want = subgroups.automaton_from_quotient(spec.images, spec.group, subgroup_closure(spec.group, ()))
            assert [getattr(kin.subgroup_aut, f) for f in FIELDS] == [getattr(want, f) for f in FIELDS]
        checked += 1
    assert checked > 50


def test_a_base_bundle_with_other_loop_elements_walks_its_own(monkeypatch):
    """Where the loop elements lifted through the base bundle are not h(g),
    the base bundle subgroup is walked for them and is not the kernel's."""
    lifted = {}
    monkeypatch.setattr(theorems, "_base_loop_elements", lambda d: lifted["elements"])
    checked = 0
    for item in generate_corpus(0, CORPUS_COUNT):
        inst = item.instance
        g, images = inst.group, inst.morphism.images
        if len(images) < 2 or images[0] == images[1]:
            continue
        lifted["elements"] = (images[1], images[0], *images[2:])
        assert inst.base_nx_subgroup is not inst.kernel_aut
        want = subgroups.automaton_from_quotient(lifted["elements"], g, subgroup_closure(g, ()))
        assert [getattr(inst.base_nx_subgroup, f) for f in FIELDS] == [getattr(want, f) for f in FIELDS]
        checked += 1
    assert checked > 50
