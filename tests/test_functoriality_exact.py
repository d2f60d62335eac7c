"""Functoriality is decided on the generators of pi1(cover), not on samples.

Every tampering of the pulled-back voltage must read ``fails``, also where
100 sampled words all happen to agree.  There the witness is the loop of the
first disagreeing non-tree cover edge, and its holonomies are checked here
by walking the loop one step at a time: over the pullback upstairs, and over
the base voltage along the projected word downstairs.
"""

from flatconn.connections import Voltage
from flatconn.corpus import generate_corpus
from flatconn.theorems import FAILS, HOLDS, verify_functoriality
from helpers import projection
from test_functoriality_sampler import reference_functoriality

SAMPLE_SEED = 111  # the seed `verify --all-random N --seed 0` gives instance 111


def walk(inst, w):
    """(upstairs, downstairs) holonomy of a closed word at the base lift."""
    cov, g = inst.cover, inst.group
    verts = cov.total.path_vertices(w, start=cov.base_lift)
    assert verts[-1] == cov.base_lift
    proj = projection(cov)
    projected = tuple(proj.map_step(step) for step in w)
    verts = inst.complex.path_vertices(projected, start=inst.complex.basepoint)
    assert verts[-1] == inst.complex.basepoint
    up = down = 0
    for step in w:
        up = g.mul(up, inst.pullback.on_step(step))
    for step in projected:
        down = g.mul(down, inst.voltage.on_step(step))
    return up, down


def generator_loop(inst, eid):
    tree, e = inst.cover_tree, inst.cover.total.edge(eid)
    return tree.path_from_base(e.tail) + ((eid, 1),) + tree.path_to_base(e.head)


def generator_witness_lines(inst, sample_count, seed):
    """The report expected when no sampled word disagrees: the first
    disagreeing generator loop, with its walked holonomies."""
    for eid in inst.cover_tree.generators:
        w = generator_loop(inst, eid)
        up, down = walk(inst, w)
        if up != down:
            return [
                "claim: functoriality",
                f"hypothesis automaton-complete: ok (samples {sample_count}, seed {seed})",
                "verdict: fails",
                f"witness word: {w}",
                f"witness holonomy-upstairs: {inst.group.label(up)}",
                f"witness holonomy-downstairs: {inst.group.label(down)}",
            ]
    raise AssertionError("every generator loop agrees")


def theta_s4_kernel():
    inst = list(generate_corpus(0, 112))[111].instance
    assert inst.name == "111-theta-S4-kernel"
    assert (inst.group.order, inst.cover.total.vertex_count, len(inst.cover.total.edges)) == (24, 48, 72)
    return inst


def test_every_single_edge_tampering_fails():
    """All 1,656 tamperings (every cover edge, every non-identity shift) fail.
    The sampler alone misses 552 of them; those carry the generator loop."""
    inst = theta_s4_kernel()
    assert verify_functoriality(inst, sample_count=100, seed=SAMPLE_SEED).verdict == HOLDS
    honest, g = inst.pullback, inst.group
    tampered = missed = 0
    for e in inst.cover.total.edges:
        for shift in range(1, g.order):
            assignment = dict(honest.assignment)
            assignment[e.id] = g.mul(assignment[e.id], shift)
            inst.__dict__["pullback"] = Voltage(inst.cover.total, g, assignment)
            got = verify_functoriality(inst, sample_count=100, seed=SAMPLE_SEED).to_lines()
            assert got[2] == f"verdict: {FAILS}", (e.id, shift)
            sampled = reference_functoriality(inst, sample_count=100, seed=SAMPLE_SEED).to_lines()
            if sampled[2] == f"verdict: {HOLDS}":
                assert got == generator_witness_lines(inst, 100, SAMPLE_SEED), (e.id, shift)
                missed += 1
            else:
                assert got == sampled, (e.id, shift)
            tampered += 1
    inst.__dict__["pullback"] = honest
    assert tampered == 1656 and missed == 552
