"""Acceptance suite: every release criterion, one test per criterion.

The shared corpus is 200 instances from the seeded generator.  Instances
whose subgroup automaton does not complete (infinite index or enumeration
cap) are skipped by the criteria that need a cover, as counted below.  All
arithmetic is exact; there are no tolerances anywhere.

Each test prints one "criterion-N ...: PASS" line (visible under pytest -s
or in the captured output summary).
"""

import time

import pytest

from flatconn.bundles import derived_bundle
from flatconn.complexes import spanning_tree
from flatconn.connections import holonomy_morphism, holonomy_group, kernel_automaton
from flatconn.corpus import generate_corpus
from flatconn.errors import EnumerationCapError, IncompleteAutomatonError
from flatconn.subgroups import automata_equal
from flatconn.theorems import (
    FAILS,
    HOLDS,
    is_induced_trivial,
    verify_cor_2_2,
    verify_functoriality,
    verify_prop_2_1,
    verify_prop_2_3,
    verify_prop_2_4,
    verify_theorem_1_1,
)
from helpers import (
    graph_diameter,
    holonomy_projection,
    induced_bundle_map,
    is_covering_map,
    oracle_holonomy,
    reidemeister_schreier,
    subgroup_of_cover,
)

CORPUS_SEED = 1
CORPUS_SIZE = 200
MIN_GATE_PASSES = 20


@pytest.fixture(scope="module")
def corpus():
    items = list(generate_corpus(CORPUS_SEED, CORPUS_SIZE))
    complete = []
    skipped = []
    for item in items:
        try:
            if item.instance.subgroup_aut.complete:
                complete.append(item)
            else:
                skipped.append(item)
        except (EnumerationCapError, IncompleteAutomatonError):
            skipped.append(item)
    assert len(complete) + len(skipped) == CORPUS_SIZE
    assert complete, "corpus produced no completing instances"
    return items, complete


def _announce(msg):
    print(msg)


def test_criterion_1_theorem_1_1_suite():
    # the timer covers the full pipeline: generation, automata, covers, check
    start = time.perf_counter()
    items = list(generate_corpus(CORPUS_SEED, CORPUS_SIZE))
    checked = 0
    for item in items:
        try:
            if not item.instance.subgroup_aut.complete:
                continue
        except (EnumerationCapError, IncompleteAutomatonError):
            continue
        report = verify_theorem_1_1(item.instance)
        assert report.verdict == HOLDS, f"{item.name}: {report.witnesses}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"theorem suite took {elapsed:.1f}s"
    _announce(
        f"criterion-1 theorem_1_1 on {checked}/{len(items)} completing instances "
        f"in {elapsed:.2f}s end-to-end: PASS"
    )


def test_criterion_2_triviality_biconditional(corpus):
    _, complete = corpus
    trivial_count = 0
    for item in complete:
        report = is_induced_trivial(item.instance)
        assert report.verdict == HOLDS, f"{item.name}: {report.witnesses}"
        if "trivial: yes" in report.notes:
            trivial_count += 1
            assert any(n.startswith("product-form:") for n in report.notes)
    assert trivial_count > 0, "corpus produced no trivial induced connections"
    _announce(
        f"criterion-2 triviality biconditional on {len(complete)} instances "
        f"({trivial_count} trivial, product form verified): PASS"
    )


def test_criterion_3_functoriality(corpus):
    _, complete = corpus
    for k, item in enumerate(complete):
        report = verify_functoriality(item.instance, sample_count=100, seed=CORPUS_SEED + k)
        assert report.verdict == HOLDS, f"{item.name}: {report.witnesses}"
    _announce(
        f"criterion-3 functoriality, 100 exact word samples x {len(complete)} instances: PASS"
    )


def test_criterion_4_bundle_map_is_covering(corpus):
    _, complete = corpus
    for item in complete:
        inst = item.instance
        assert is_covering_map(induced_bundle_map(inst.cover_bundle, inst.base_bundle, inst.cover)), item.name
    _announce(f"criterion-4 induced bundle map covering check on {len(complete)} instances: PASS")


def test_criterion_5_section_2_suite(corpus):
    _, complete = corpus
    passes = {"prop_2_1": 0, "cor_2_2": 0, "prop_2_3": 0, "prop_2_4": 0}
    checks = {
        "prop_2_1": verify_prop_2_1,
        "cor_2_2": verify_cor_2_2,
        "prop_2_3": verify_prop_2_3,
        "prop_2_4": verify_prop_2_4,
    }
    for item in complete:
        for claim, fn in checks.items():
            report = fn(item.instance)
            assert report.verdict != FAILS, f"{item.name} {claim}: {report.witnesses}"
            if report.verdict == HOLDS:
                passes[claim] += 1
    for claim, count in passes.items():
        assert count >= MIN_GATE_PASSES, f"{claim} passed its gate only {count} times"
    summary = " ".join(f"{claim}={count}" for claim, count in passes.items())
    _announce(f"criterion-5 gate-passing holds ({summary}, all >= {MIN_GATE_PASSES}): PASS")


def test_criterion_6_oracle_equivalence(corpus):
    items, _ = corpus
    cache = {}
    checked = 0
    for item in items:
        inst = item.instance
        if graph_diameter(inst.complex) > 3:
            continue
        key = (item.base_name, item.group_name, inst.voltage.as_tuple())
        if key not in cache:
            cache[key] = oracle_holonomy(inst.complex, inst.voltage, 8)
        result = cache[key]
        assert result.stabilized, item.name
        assert result.subgroup.members == inst.image.members, item.name
        checked += 1
    assert checked == len(items)  # every catalog base has diameter <= 3
    _announce(
        f"criterion-6 oracle (length 8, stabilized) on {checked} instances "
        f"({len(cache)} distinct voltages): PASS"
    )


def test_criterion_7_structural_identities(corpus):
    items, complete = corpus
    seen = set()
    for item in items:
        inst = item.instance
        key = (item.base_name, item.group_name, inst.voltage.as_tuple())
        if key in seen:
            continue
        seen.add(key)
        bundle = derived_bundle(inst.voltage)
        assert len(bundle.components) == inst.group.order // len(inst.image), item.name
        hb = holonomy_projection(bundle)
        sub = subgroup_of_cover(hb, hb.source.basepoint)
        assert automata_equal(sub, inst.kernel_aut), item.name
    for item in complete:
        inst = item.instance
        if inst.complex.relators:
            continue
        d = inst.cover.degree
        assert inst.cover.total.free_rank == d * (inst.complex.free_rank - 1) + 1, item.name
    _announce(
        f"criterion-7 structural identities ({len(seen)} voltages, "
        f"{len(complete)} covers): PASS"
    )


def test_criterion_8_regression_vector(s3, wedge, wedge_s3_voltage):
    from flatconn.subgroups import SubgroupSpec
    from flatconn.theorems import Instance

    tree = spanning_tree(wedge)
    h = holonomy_morphism(wedge_s3_voltage, tree)
    assert len(holonomy_group(h)) == 6
    assert kernel_automaton(h).state_count == 6

    a3 = Instance(wedge_s3_voltage, SubgroupSpec(kind="quotient", subgroup=(2,)))
    assert a3.cover.degree == 2
    assert a3.cover.total.free_rank == 3
    assert a3.induced_image.label_list() == ["e", "(012)", "(021)"]
    mapped = [s3.evaluate_word(a3.morphism.images, w) for w in reidemeister_schreier(a3.subgroup_aut, a3.presentation)]
    from flatconn.groups import subgroup_closure

    assert subgroup_closure(s3, mapped).members == a3.induced_image.members

    ker = Instance(wedge_s3_voltage, SubgroupSpec(kind="quotient", subgroup=(0,)))
    assert is_induced_trivial(ker).verdict == HOLDS
    assert ker.induced_image.members == (0,)
    assert automata_equal(ker.composite_subgroup, ker.kernel_aut)
    assert holonomy_projection(ker.base_bundle).source.free_rank == 7
    _announce("criterion-8 fixed regression vector (wedge / S3): PASS")


def test_criterion_9_negative_controls(capsys):
    import os

    from flatconn.cli import main

    instances = os.path.join(os.path.dirname(__file__), os.pardir, "instances")

    code = main(["holonomy", os.path.join(instances, "torus_s3_nonflat.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "(021)" in captured.err

    code = main(["cover", os.path.join(instances, "torus_infinite_index.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "did not complete within cap" in captured.err

    code = main(["cover", os.path.join(instances, "wedge_s3_01.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert "regular: no" in captured.out

    print("criterion-9 negative controls (flatness, cap, regularity; exit codes): PASS")
