"""The table-driven functoriality sampler against the per-step walk it replaces.

``reference_functoriality`` below is the straightforward sampler: each step
draws from the vertex's star, and each word is closed by walking the tree
path back to the base lift, multiplying the pulled-back value and the base
value of the projected step one step at a time.  The library's sampler must
give byte-identical reports: the same words, verdicts and witnesses, on
corpus seeds 0-7, on every instance document that parses, and on every
single-edge tampering of the pulled-back voltage over those documents.
"""

import os
import random

import pytest

from flatconn.connections import Voltage
from flatconn.corpus import generate_corpus
from flatconn.errors import EnumerationCapError, IncompleteAutomatonError, InputError
from flatconn.io import parse_instance
from flatconn.theorems import FAILS, HOLDS, HypothesisCheck, VerificationReport, verify_functoriality
from helpers import check_map_incidence, projection, tree_edges

INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")
CORPUS_SEEDS = range(8)
CORPUS_COUNT = 250


def reference_functoriality(inst, sample_count=100, seed=0):
    """One star draw per step; each word closed by its tree path, walked."""
    rng = random.Random(seed)
    cov = inst.cover
    proj = projection(cov)
    check_map_incidence(proj)
    stars = [cov.total.star(v) for v in range(cov.total.vertex_count)]
    mismatches = []
    for _ in range(sample_count):
        cur = cov.base_lift
        steps = []
        for _ in range(rng.randint(0, 12)):
            if not stars[cur]:
                break
            steps.append(rng.choice(stars[cur]))
            _, cur = cov.total.step_endpoints(steps[-1])
        w = tuple(steps) + inst.cover_tree.path_to_base(cur)
        up = down = 0
        for step in w:
            up = inst.group.mul(up, inst.pullback.on_step(step))
            down = inst.group.mul(down, inst.voltage.on_step(proj.map_step(step)))
        if up != down:
            mismatches.append((w, up, down))
    hyp = (HypothesisCheck("automaton-complete", True, f"samples {sample_count}, seed {seed}"),)
    if not mismatches:
        return VerificationReport("functoriality", HOLDS, hypotheses=hyp)
    w, up, down = mismatches[0]
    return VerificationReport(
        "functoriality",
        FAILS,
        hypotheses=hyp,
        witnesses=(
            ("word", str(w)),
            ("holonomy-upstairs", inst.group.label(up)),
            ("holonomy-downstairs", inst.group.label(down)),
        ),
    )


def _covered(inst):
    try:
        return inst.subgroup_aut.complete
    except (EnumerationCapError, IncompleteAutomatonError):
        return False


def _documents():
    """(name, instance) for every instance document that parses."""
    out = []
    for name in sorted(os.listdir(INSTANCES)):
        try:
            out.append((name, parse_instance(os.path.join(INSTANCES, name))))
        except InputError:
            continue
    return out


def _assert_same(inst, seed):
    got = verify_functoriality(inst, sample_count=100, seed=seed).to_lines()
    assert got == reference_functoriality(inst, sample_count=100, seed=seed).to_lines(), (inst.name, seed)
    return got


@pytest.mark.parametrize("corpus_seed", CORPUS_SEEDS)
def test_sampler_matches_reference_on_corpus(corpus_seed):
    checked = 0
    for k, item in enumerate(generate_corpus(corpus_seed, CORPUS_COUNT)):
        if not _covered(item.instance):
            continue
        assert _assert_same(item.instance, corpus_seed * CORPUS_COUNT + k)[2] == f"verdict: {HOLDS}"
        checked += 1
    assert checked > CORPUS_COUNT // 2


def test_sampler_matches_reference_on_documents():
    docs = [(name, inst) for name, inst in _documents() if _covered(inst)]
    assert len(docs) >= 4
    for _, inst in docs:
        for seed in range(4):
            _assert_same(inst, seed)


def test_sampler_matches_reference_on_tampered_pullbacks():
    """Every cover edge of every document, its pulled-back value moved by each
    non-identity element: the reports agree and every tampering is caught,
    those on a cover-tree edge too, because the downstairs values, walk and
    closing alike, never come from the pullback."""
    tampered = on_tree = 0
    for _, inst in _documents():
        if not _covered(inst):
            continue
        honest, g = inst.pullback, inst.group
        on_tree_ids = tree_edges(inst.cover_tree)
        for e in inst.cover.total.edges:
            for shift in range(1, g.order):
                assignment = dict(honest.assignment)
                assignment[e.id] = g.mul(assignment[e.id], shift)
                inst.__dict__["pullback"] = Voltage(inst.cover.total, g, assignment)
                for seed in (0, 3):
                    assert _assert_same(inst, seed)[2] == f"verdict: {FAILS}", (inst.name, e.id, shift, seed)
                    tampered += 1
                    on_tree += e.id in on_tree_ids
        inst.__dict__["pullback"] = honest
    assert tampered == 312 and on_tree == 110
