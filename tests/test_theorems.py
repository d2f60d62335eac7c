import pytest

from flatconn.complexes import BaseComplex, Edge
from flatconn.connections import Voltage, check_flatness
from flatconn.covers import build_cover
from flatconn.errors import FlatnessError
from flatconn.groups import group_from_permutations, subgroup_closure
from flatconn.subgroups import SubgroupSpec, automaton_from_quotient
from flatconn.theorems import (
    FAILS,
    GATE,
    HOLDS,
    Instance,
    VerificationReport,
    is_induced_trivial,
    pullback_voltage,
    standard_reports,
    verify_cor_2_2,
    verify_functoriality,
    verify_prop_2_1,
    verify_prop_2_3,
    verify_prop_2_4,
    verify_theorem_1_1,
)
from helpers import (
    holonomy_projection,
    induced_bundle_map,
    is_covering_map,
    lift_path,
    oracle_holonomy,
    projection,
    reidemeister_schreier,
    word_holonomy,
)

A = (0, 1)
B = (1, 1)
A_ = (0, -1)
B_ = (1, -1)

KERNEL_SPEC = SubgroupSpec(kind="quotient", subgroup=(0,))
A3_SPEC = SubgroupSpec(kind="quotient", subgroup=(2,))


@pytest.fixture()
def inst_a3(wedge, s3, wedge_s3_voltage):
    return Instance(wedge_s3_voltage, A3_SPEC, name="wedge-s3-a3")


@pytest.fixture()
def inst_kernel(wedge, s3, wedge_s3_voltage):
    return Instance(wedge_s3_voltage, KERNEL_SPEC, name="wedge-s3-kernel")


def test_instance_rejects_nonflat(torus, s3):
    v = Voltage(torus, s3, {0: 1, 1: 3})  # constructs fine, but is not flat
    with pytest.raises(FlatnessError):
        Instance(v, KERNEL_SPEC)


def test_pullback_index_one(wedge, s3, wedge_s3_voltage):
    aut_spec = SubgroupSpec(kind="words", words=((A,), (B,)))
    inst = Instance(wedge_s3_voltage, aut_spec)
    assert inst.cover.degree == 1
    assert inst.pullback.as_tuple() == wedge_s3_voltage.as_tuple()


def test_pullback_a3_cover(inst_a3, s3):
    pb = inst_a3.pullback
    cov = inst_a3.cover
    edge_map = projection(cov).edge_map
    a_lift_values = {pb.on_edge(e.id) for e in cov.total.edges if edge_map[e.id] == 0}
    b_lift_values = {pb.on_edge(e.id) for e in cov.total.edges if edge_map[e.id] == 1}
    assert a_lift_values == {1}  # both a-lifts carry (01)
    assert b_lift_values == {2}  # both b-loops carry (012)


def test_pullback_of_nonflat_voltage_keeps_its_violations(torus, s3, z4):
    # a flat base hands its flatness over; a non-flat base's pullback evaluates its lifted relators
    cov = build_cover(torus, automaton_from_quotient([1, 2], z4, subgroup_closure(z4, (2,))))
    pb = pullback_voltage(cov, Voltage(torus, s3, {0: 1, 1: 3}))
    fresh = Voltage(cov.total, s3, dict(pb.assignment))
    assert check_flatness(pb) == check_flatness(fresh)
    assert len(check_flatness(pb)) == cov.degree


def test_pullback_identity_voltage(wedge, s3):
    v = Voltage(wedge, s3, {0: 0, 1: 0})
    inst = Instance(v, A3_SPEC)
    assert set(inst.pullback.assignment.values()) == {0}


def test_induced_image_kernel(inst_kernel):
    assert inst_kernel.induced_image.members == (0,)


def test_induced_image_a3(inst_a3):
    assert inst_a3.induced_image.label_list() == ["e", "(012)", "(021)"]


def test_induced_image_index_one(wedge, s3, wedge_s3_voltage):
    inst = Instance(wedge_s3_voltage, SubgroupSpec(kind="words", words=((A,), (B,))))
    assert len(inst.induced_image) == 6


def test_theorem_1_1_examples(inst_a3, inst_kernel, wedge, s3, wedge_s3_voltage):
    assert verify_theorem_1_1(inst_a3).verdict == HOLDS
    assert verify_theorem_1_1(inst_kernel).verdict == HOLDS
    index1 = Instance(wedge_s3_voltage, SubgroupSpec(kind="words", words=((A,), (B,))))
    assert verify_theorem_1_1(index1).verdict == HOLDS


def test_functoriality_hand_checked_words(inst_a3, s3):
    cov = inst_a3.cover
    proj = projection(cov)
    # lift of a^2 from the base lift: closed, holonomy e on both sides
    lifted = lift_path(proj, (A, A), cov.total.basepoint)
    assert word_holonomy(inst_a3.pullback, lifted, start=cov.total.basepoint) == 0
    assert word_holonomy(inst_a3.voltage, (A, A)) == 0
    # b-loop on the base sheet maps to (012) on both sides
    lifted_b = lift_path(proj, (B,), cov.total.basepoint)
    up = word_holonomy(inst_a3.pullback, lifted_b, start=cov.total.basepoint)
    down = word_holonomy(inst_a3.voltage, (B,))
    assert s3.label(up) == s3.label(down) == "(012)"


def test_functoriality_sampled(inst_a3, inst_kernel):
    assert verify_functoriality(inst_a3, sample_count=100, seed=3).verdict == HOLDS
    assert verify_functoriality(inst_kernel, sample_count=100, seed=4).verdict == HOLDS


def test_functoriality_fails_on_tampered_pullback(inst_a3, s3):
    # the b-loop on the base sheet carries e instead of its image's (012)
    assignment = dict(inst_a3.pullback.assignment)
    assignment[1] = 0
    inst_a3.__dict__["pullback"] = Voltage(inst_a3.cover.total, s3, assignment)
    report = verify_functoriality(inst_a3, sample_count=100, seed=3)
    assert report.verdict == FAILS
    assert report.to_lines() == [
        "claim: functoriality",
        "hypothesis automaton-complete: ok (samples 100, seed 3)",
        "verdict: fails",
        "witness word: ((0, 1), (0, -1), (2, -1), (3, 1), (2, 1), (1, 1), (2, -1), (3, -1), (3, -1), (2, 1))",
        "witness holonomy-upstairs: (012)",
        "witness holonomy-downstairs: (021)",
    ]


def test_functoriality_without_samples_is_decided(inst_a3, s3):
    # no sampled word: the generators decide, and the first failing one's loop is the witness
    report = verify_functoriality(inst_a3, sample_count=0, seed=3)
    assert report.to_lines() == [
        "claim: functoriality",
        "hypothesis automaton-complete: ok (samples 0, seed 3)",
        "verdict: holds",
    ]
    assignment = dict(inst_a3.pullback.assignment)
    assignment[1] = 0
    inst_a3.__dict__["pullback"] = Voltage(inst_a3.cover.total, s3, assignment)
    assert verify_functoriality(inst_a3, sample_count=0, seed=3).to_lines() == [
        "claim: functoriality",
        "hypothesis automaton-complete: ok (samples 0, seed 3)",
        "verdict: fails",
        "witness word: ((1, 1),)",
        "witness holonomy-upstairs: e",
        "witness holonomy-downstairs: (012)",
    ]


def test_functoriality_rejects_a_negative_sample_count(inst_a3):
    with pytest.raises(ValueError, match="non-negative"):
        verify_functoriality(inst_a3, sample_count=-1, seed=3)


def test_trivial_kernel_cover(inst_kernel, s3):
    report = is_induced_trivial(inst_kernel)
    assert report.verdict == HOLDS
    assert "trivial: yes" in report.notes
    assert len(inst_kernel.cover_bundle.components) == s3.order


def test_trivial_a3_cover_is_not(inst_a3):
    report = is_induced_trivial(inst_a3)
    assert report.verdict == HOLDS
    assert "trivial: no" in report.notes
    # witness-level detail: some Schreier generator escapes the kernel
    gens = reidemeister_schreier(inst_a3.subgroup_aut, inst_a3.presentation)
    bad = [w for w in gens if inst_a3.kernel_aut.trace(w) != 0]
    assert bad


def test_trivial_base_voltage_any_cover(wedge, s3):
    v = Voltage(wedge, s3, {0: 0, 1: 0})
    index2_words = ((A, A), (B,), (A, B, A_))
    inst = Instance(v, SubgroupSpec(kind="words", words=index2_words))
    report = is_induced_trivial(inst)
    assert report.verdict == HOLDS
    assert "trivial: yes" in report.notes


def test_prop_2_1_kernel_holds(inst_kernel):
    report = verify_prop_2_1(inst_kernel)
    assert report.verdict == HOLDS
    assert all(h.passed for h in report.hypotheses)


def test_prop_2_1_gate_requires_full_holonomy(wedge, s3):
    v = Voltage(wedge, s3, {0: 1, 1: 0})  # Hol = <(01)> != S3
    inst = Instance(v, KERNEL_SPEC)
    report = verify_prop_2_1(inst)
    assert report.verdict == GATE
    assert not all(h.passed for h in report.hypotheses)


def test_prop_2_1_degenerate_index_one():
    trivial_group = group_from_permutations(1, [])
    wedge = BaseComplex(1, [Edge(0, 0, 0), Edge(1, 0, 0)])
    v = Voltage(wedge, trivial_group, {0: 0, 1: 0})
    inst = Instance(v, KERNEL_SPEC)
    assert inst.subgroup_aut.state_count == 1
    report = verify_prop_2_1(inst)
    assert report.verdict == HOLDS


def test_cor_2_2_a3(inst_a3):
    report = verify_cor_2_2(inst_a3)
    assert report.verdict == HOLDS
    assert "covering-regular: yes" in report.notes


def test_cor_2_2_non_normal_subgroup(wedge, s3, wedge_s3_voltage):
    inst = Instance(wedge_s3_voltage, SubgroupSpec(kind="quotient", subgroup=(1,)))
    report = verify_cor_2_2(inst)
    assert report.verdict == HOLDS
    assert "covering-regular: no" in report.notes


def test_cor_2_2_gate_fails_when_kernel_escapes(wedge, s3, wedge_s3_voltage):
    # H = <b^2, a, b a b^-1> is the kernel of the b-parity map; b^3 lies in
    # Ker h but has odd b-parity, so the kernel is not inside H.
    words = ((B, B), (A,), (B, A, B_))
    inst = Instance(wedge_s3_voltage, SubgroupSpec(kind="words", words=words))
    assert inst.subgroup_aut.complete
    report = verify_cor_2_2(inst)
    assert report.verdict == GATE
    gate = {h.name: h for h in report.hypotheses}
    assert not gate["kernel-inside-subgroup"].passed


def test_prop_2_3_kernel(inst_kernel, s3):
    report = verify_prop_2_3(inst_kernel)
    assert report.verdict == HOLDS
    assert any("product-form" in n for n in report.notes)


def test_prop_2_3_gate_on_index_one(wedge, s3, wedge_s3_voltage):
    inst = Instance(wedge_s3_voltage, SubgroupSpec(kind="words", words=((A,), (B,))))
    report = verify_prop_2_3(inst)
    assert report.verdict == GATE  # Hol = G but Ker != pi1


def test_prop_2_3_circle_z2(circle, z2):
    v = Voltage(circle, z2, {0: 1})
    inst = Instance(v, KERNEL_SPEC)
    report = verify_prop_2_3(inst)
    assert report.verdict == HOLDS
    # two disjoint two-cycles upstairs
    assert len(inst.cover_bundle.components) == 2
    for comp in inst.cover_bundle.components:
        assert len(comp) == 2


def test_prop_2_4_wedge(inst_kernel):
    report = verify_prop_2_4(inst_kernel)
    assert report.verdict == HOLDS
    assert any("= 7" in n for n in report.notes)


def test_prop_2_4_circle(circle, z2):
    v = Voltage(circle, z2, {0: 1})
    inst = Instance(v, KERNEL_SPEC)
    report = verify_prop_2_4(inst)
    assert report.verdict == HOLDS
    assert holonomy_projection(inst.base_bundle).source.free_rank == 1


def test_prop_2_4_trivial_group():
    trivial_group = group_from_permutations(1, [])
    wedge = BaseComplex(1, [Edge(0, 0, 0), Edge(1, 0, 0)])
    v = Voltage(wedge, trivial_group, {0: 0, 1: 0})
    inst = Instance(v, KERNEL_SPEC)
    report = verify_prop_2_4(inst)
    assert report.verdict == HOLDS
    assert inst.base_nx_subgroup.state_count == 1  # subgroup is everything


def test_oracle_wedge_s3(wedge, s3, wedge_s3_voltage):
    result = oracle_holonomy(wedge, wedge_s3_voltage, 6)
    assert result.stabilized
    assert len(result.subgroup) == 6


def test_oracle_trivial_voltage(wedge, s3):
    v = Voltage(wedge, s3, {0: 0, 1: 0})
    result = oracle_holonomy(wedge, v, 6)
    assert result.stabilized
    assert result.subgroup.members == (0,)


def test_oracle_circle_z4(circle, z4):
    v = Voltage(circle, z4, {0: 1})
    result = oracle_holonomy(circle, v, 8)
    assert result.stabilized
    assert len(result.subgroup) == 4


def test_oracle_matches_holonomy_group(wedge, s3):
    for assignment in ({0: 1, 1: 2}, {0: 1, 1: 0}, {0: 2, 1: 5}, {0: 0, 1: 0}):
        v = Voltage(wedge, s3, assignment)
        inst = Instance(v, KERNEL_SPEC)
        result = oracle_holonomy(wedge, v, 8)
        assert result.stabilized
        assert result.subgroup.members == inst.image.members


def test_induced_image_monotone_in_subgroup(wedge, s3, wedge_s3_voltage):
    chains = [((0,), (2,)), ((0,), (1,)), ((2,), (1, 2))]
    for small_seed, large_seed in chains:
        small = Instance(wedge_s3_voltage, SubgroupSpec(kind="quotient", subgroup=small_seed))
        large = Instance(wedge_s3_voltage, SubgroupSpec(kind="quotient", subgroup=large_seed))
        # verify the inclusion H1 <= H2 through Schreier membership
        gens = reidemeister_schreier(small.subgroup_aut, small.presentation)
        assert all(large.subgroup_aut.trace(w) == 0 for w in gens)
        assert set(small.induced_image.members) <= set(large.induced_image.members)


def test_lemma_1_1_discrete_analog(inst_a3, inst_kernel):
    for inst in (inst_a3, inst_kernel):
        assert is_covering_map(induced_bundle_map(inst.cover_bundle, inst.base_bundle, inst.cover))


def test_report_invariants():
    with pytest.raises(ValueError):
        VerificationReport("x", FAILS)  # failing verdict needs a witness
    with pytest.raises(ValueError):
        VerificationReport("x", "unknown")
    report = VerificationReport("x", HOLDS, notes=("n",))
    assert report.to_lines() == ["claim: x", "verdict: holds", "note: n"]


def test_simply_connected_base_degenerates_cleanly():
    point = BaseComplex(1, [])
    z2 = group_from_permutations(2, [(1, 0)], labels=["0", "1"])
    inst = Instance(Voltage(point, z2, {}), KERNEL_SPEC)
    assert inst.subgroup_aut.state_count == 1
    assert verify_theorem_1_1(inst).verdict == HOLDS
    report = is_induced_trivial(inst)
    assert report.verdict == HOLDS
    assert "trivial: yes" in report.notes


def test_standard_reports_order(inst_kernel):
    reports = standard_reports(inst_kernel, seed=1)
    assert [r.claim for r in reports] == [
        "theorem_1_1",
        "functoriality",
        "triviality",
        "prop_2_1",
        "cor_2_2",
        "prop_2_3",
        "prop_2_4",
    ]
    assert all(r.verdict == HOLDS for r in reports)


# ---------------------------------------------------------------------------
# FAILS reports, each forced by overriding one cached artifact


def test_theorem_1_1_fails_report(inst_a3, s3):
    inst_a3.__dict__["induced_image"] = subgroup_closure(s3, ())
    assert verify_theorem_1_1(inst_a3).to_lines() == [
        "claim: theorem_1_1",
        "hypothesis automaton-complete: ok (index 2)",
        "verdict: fails",
        "witness h(H): {e, (012), (021)}",
        "witness Im(h-induced): {e}",
    ]


def test_prop_2_1_fails_report(inst_kernel, inst_a3):
    inst_kernel.__dict__["composite_subgroup"] = inst_a3.subgroup_aut
    assert verify_prop_2_1(inst_kernel).to_lines() == [
        "claim: prop_2_1",
        "hypothesis subgroup-equals-kernel: ok (index 6 vs kernel index 6)",
        "hypothesis subgroup-normal: ok (regular covering)",
        "hypothesis holonomy-spans-group: ok (|Hol| = 6, |G| = 6)",
        "verdict: fails",
        "witness base-holonomy-bundle-index: 6",
        "witness composite-index: 2",
    ]


def test_cor_2_2_fails_report(inst_a3):
    inst_a3.__dict__["base_nx_subgroup"] = inst_a3.subgroup_aut
    assert verify_cor_2_2(inst_a3).to_lines() == [
        "claim: cor_2_2",
        "hypothesis kernel-inside-subgroup: ok",
        "hypothesis holonomy-spans-group: ok (|Hol| = 6, |G| = 6)",
        "verdict: fails",
        "witness base-equals-kernel: False",
        "witness composite-equals-kernel: True",
        "note: covering-regular: yes",
    ]


def test_prop_2_3_fails_report(inst_kernel, inst_a3):
    inst_kernel.__dict__["composite_subgroup"] = inst_a3.subgroup_aut
    assert verify_prop_2_3(inst_kernel).to_lines() == [
        "claim: prop_2_3",
        "hypothesis subgroup-equals-kernel: ok (index 6 vs kernel index 6)",
        "hypothesis subgroup-normal: ok (regular covering)",
        "hypothesis holonomy-spans-group: ok (|Hol| = 6, |G| = 6)",
        "verdict: fails",
        "witness product-form: True",
        "witness base-equals-kernel: True",
        "witness composite-equals-kernel: False",
        "note: product-form: 6 components, each 6 vertices / 12 edges",
    ]


def test_prop_2_4_fails_report(inst_kernel, inst_a3):
    inst_kernel.__dict__["base_nx_subgroup"] = inst_a3.subgroup_aut
    assert verify_prop_2_4(inst_kernel).to_lines() == [
        "claim: prop_2_4",
        "hypothesis holonomy-spans-group: ok (|Hol| = 6, |G| = 6)",
        "verdict: fails",
        "witness bundle-subgroup-equals-kernel: False",
        "witness rank-formula: True",
        "note: fiber-orbit loop group is trivial here; the quotient is degenerate",
        "note: rank pi1(holonomy bundle) = 7, expected 7",
    ]


def test_gate_misses_compute_no_gated_artifact(inst_a3, wedge, s3):
    # the a3 cover is not the kernel cover: prop_2_1 and prop_2_3 stop at their gates
    assert verify_prop_2_1(inst_a3).verdict == GATE
    assert verify_prop_2_3(inst_a3).verdict == GATE
    # holonomy {e, (01)} does not span S3: prop_2_4 and cor_2_2 stop at their gates
    partial = Instance(Voltage(wedge, s3, {0: 1, 1: 0}), A3_SPEC)
    assert verify_prop_2_4(partial).verdict == GATE
    assert verify_cor_2_2(partial).verdict == GATE
    for inst in (inst_a3, partial):
        for artifact in ("base_nx_subgroup", "cover_bundle", "composite_subgroup"):
            assert artifact not in inst.__dict__
