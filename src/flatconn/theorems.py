"""Pulled-back connections and mechanical verification of their structure.

Given a base instance (a flat voltage, on its complex with values in its
group) and a finite-index subgroup of the fundamental group, this module
builds the covering, pulls the voltage back, and checks a catalog of
structural claims with exact finite-group arithmetic:

* ``theorem_1_1``: the induced holonomy image equals the image of the
  covering subgroup under the base holonomy map;
* ``functoriality``: holonomy upstairs equals holonomy of the projected
  word, decided on the generators of pi1(cover); words are sampled only to
  find a witness;
* ``triviality``: the induced connection is trivial exactly when the
  covering subgroup sits inside the holonomy kernel, and then the bundle
  upstairs splits into |G| sheets;
* ``prop_2_1 / cor_2_2 / prop_2_3 / prop_2_4``: identification of holonomy
  bundles across the cover, under their hypothesis gates.

Claims whose hypotheses fail report "hypotheses-not-met" rather than a
vacuous "holds".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .bundles import (
    DerivedBundle,
    _base_loop_elements,
    _basepoint_subgroup,
    derived_bundle,
)
from .complexes import (
    Presentation,
    SpanningTreeData,
    pi1_presentation,
    spanning_tree,
)
from .connections import (
    HolonomyMorphism,
    Voltage,
    _require_flat,
    _tree_potentials,
    holonomy_group,
    holonomy_morphism,
    kernel_automaton,
)
from .covers import CoveringComplex, build_cover, check_incidence
from .groups import SubgroupSet, subgroup_closure
from .subgroups import (
    CosetAutomaton,
    SubgroupSpec,
    _first_step_outside,
    _schreier_points,
    _schreier_word,
    automaton_from_spec,
    automata_equal,
    is_normal_subgroup,
)

HOLDS = "holds"
FAILS = "fails"
GATE = "hypotheses-not-met"


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one claim check; failures always carry witnesses."""

    claim: str
    verdict: str
    hypotheses: tuple = ()
    witnesses: tuple = ()  # (name, value) pairs
    notes: tuple = ()

    def __post_init__(self):
        if self.verdict not in (HOLDS, FAILS, GATE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == FAILS and not self.witnesses:
            raise ValueError("a failing verdict must carry a witness")

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_lines(self) -> list[str]:
        lines = [f"claim: {self.claim}"]
        for h in self.hypotheses:
            status = "ok" if h.passed else "failed"
            detail = f" ({h.detail})" if h.detail else ""
            lines.append(f"hypothesis {h.name}: {status}{detail}")
        lines.append(f"verdict: {self.verdict}")
        for name, value in self.witnesses:
            lines.append(f"witness {name}: {value}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return lines


class Instance:
    """A base instance plus covering datum, with cached derived artifacts.

    The complex and the group are the voltage's.  The voltage is checked for
    flatness at construction; everything else (tree, holonomy, automata,
    cover, pullback, bundles) is derived lazily and cached.  All artifacts
    are immutable once built.
    """

    def __init__(
        self,
        voltage: Voltage,
        covering_spec: Optional[SubgroupSpec] = None,
        name: str = "instance",
        tc_cap: Optional[int] = None,
    ):
        _require_flat(voltage)
        self.complex = voltage.complex
        self.group = voltage.group
        self.voltage = voltage
        self.covering_spec = covering_spec
        self.name = name
        self.tc_cap = tc_cap

    @cached_property
    def tree(self) -> SpanningTreeData:
        return spanning_tree(self.complex)

    @cached_property
    def presentation(self) -> Presentation:
        return pi1_presentation(self.complex)

    @cached_property
    def morphism(self) -> HolonomyMorphism:
        return holonomy_morphism(self.voltage, self.tree)

    @cached_property
    def image(self) -> SubgroupSet:
        return holonomy_group(self.morphism)

    @cached_property
    def kernel_aut(self) -> CosetAutomaton:
        return kernel_automaton(self.morphism)

    @cached_property
    def subgroup_aut(self) -> CosetAutomaton:
        """The covering subgroup's automaton.  A spec that names the
        holonomy kernel itself (a quotient by the trivial subgroup, through
        this instance's group and holonomy images) hands back
        :attr:`kernel_aut`, the same walk."""
        spec = self.covering_spec
        if spec is None:
            raise ValueError("instance has no covering spec")
        if (
            spec.kind == "quotient"
            and (spec.group is None or spec.group is self.group)
            and (spec.images is None or tuple(spec.images) == self.morphism.images)
            and set(spec.subgroup) <= {0}
        ):
            return self.kernel_aut
        return automaton_from_spec(
            spec,
            self.presentation,
            default_group=self.group,
            default_images=self.morphism.images,
            cap=self.tc_cap,
        )

    @cached_property
    def cover(self) -> CoveringComplex:
        return build_cover(self.complex, self.subgroup_aut)

    @cached_property
    def pullback(self) -> Voltage:
        return pullback_voltage(self.cover, self.voltage)

    @cached_property
    def cover_tree(self) -> SpanningTreeData:
        return spanning_tree(self.cover.total)

    @cached_property
    def induced_morphism(self) -> HolonomyMorphism:
        return holonomy_morphism(self.pullback, self.cover_tree)

    @cached_property
    def induced_image(self) -> SubgroupSet:
        return holonomy_group(self.induced_morphism)

    @cached_property
    def subgroup_normal(self) -> bool:
        """Is the covering subgroup normal, i.e. is the covering regular?"""
        return is_normal_subgroup(self.subgroup_aut)

    @cached_property
    def restricted_image(self) -> SubgroupSet:
        """h(H): the base holonomy image of the covering subgroup.

        It is generated by the images hol(s) * h(g) * hol(t)^-1 of the
        Schreier generators, where hol(s) is the holonomy of rep(s), read
        once down the coset transversal; no Schreier word is spelled out.
        Raises :class:`IncompleteAutomatonError` on an incomplete automaton.
        """
        g, images = self.group, self.morphism.images
        forward = [g.column(h) for h in images]
        backward = [g.column(g.inverse[h]) for h in images]
        mapped = {g.mul_inv(x, y) for _, _, x, y in _schreier_points(self.subgroup_aut, forward, backward)}
        return subgroup_closure(g, mapped)

    @cached_property
    def base_bundle(self) -> DerivedBundle:
        return derived_bundle(self.voltage)

    @cached_property
    def base_nx_subgroup(self) -> CosetAutomaton:
        """The kernel of g -> the element its loop, lifted through the base
        bundle's fiber maps, ends at.  Where those elements equal h(g), as
        they do when the bundle is right, that is the kernel's own walk, and
        :attr:`kernel_aut` is handed back."""
        elements = _base_loop_elements(self.base_bundle)
        if elements == self.morphism.images:
            return self.kernel_aut
        return kernel_automaton(HolonomyMorphism(self.group, elements))

    @cached_property
    def cover_bundle(self) -> DerivedBundle:
        return derived_bundle(self.pullback)

    @cached_property
    def composite_subgroup(self) -> CosetAutomaton:
        return _basepoint_subgroup(self.cover_bundle, self.cover)

    def holonomy_spans_group(self) -> bool:
        return len(self.image) == self.group.order

    def __repr__(self) -> str:
        return f"Instance({self.name})"


def pullback_voltage(cov: CoveringComplex, v: Voltage) -> Voltage:
    """Pull a voltage back along a covering: each lifted edge inherits the
    value of its image.  The values are the base voltage's, already checked,
    so the result is handed over unchecked.  Each lifted relator multiplies
    to its base relator's product, so a flat base gives a pullback known to
    be flat; a non-flat base's pullback evaluates its relators when asked."""
    if v.complex is not cov.base:
        raise ValueError("voltage is not defined on the covering's base")
    assignment = dict(enumerate(v.as_tuple() * cov.degree))  # lift s * E + p takes the value on p
    return Voltage._trusted(cov.total, v.group, assignment, () if v._violations == () else None)


def _subgroup_witness(name: str, s: SubgroupSet) -> tuple:
    return (name, "{" + ", ".join(s.label_list()) + "}")


def _verdict(claim: str, hyp: tuple, ok: bool, witnesses: tuple, notes: tuple = ()) -> VerificationReport:
    """The verdict once the hypotheses pass: HOLDS if the check holds, else
    FAILS with the claim's witnesses."""
    if ok:
        return VerificationReport(claim, HOLDS, hypotheses=hyp, notes=notes)
    return VerificationReport(claim, FAILS, hypotheses=hyp, witnesses=witnesses, notes=notes)


def verify_theorem_1_1(inst: Instance) -> VerificationReport:
    """Check: induced holonomy image equals the base holonomy image of the
    covering subgroup (computed through its Schreier generators)."""
    aut = inst.subgroup_aut
    hyp = (HypothesisCheck("automaton-complete", aut.complete, f"index {aut.state_count}"),)
    restricted, induced = inst.restricted_image, inst.induced_image
    ok = restricted.members == induced.members
    witnesses = () if ok else (_subgroup_witness("h(H)", restricted), _subgroup_witness("Im(h-induced)", induced))
    return _verdict("theorem_1_1", hyp, ok, witnesses)


def verify_functoriality(
    inst: Instance, sample_count: int = 100, seed: int = 0
) -> VerificationReport:
    """Decide h-induced(w) == h(projection of w) for every closed word w.

    The loops of the non-tree cover edges generate the closed words at the
    base lift, and each side's holonomy of edge e's loop is its T-reduced
    value pot(tail) * w(e) * pot(head)^-1 (Gross-Tucker), so the claim holds
    exactly when both sides agree on every generator.  Downstairs values
    come from the base voltage through the projection only, never from the
    pullback.

    Words are sampled only when a generator disagrees, to pick the witness:
    random walks of length <= 12 on the cover, closed by the tree path back
    to the base lift; sampling is seeded and reproducible.  Each
    vertex's row of moves (far vertex, pulled-back value, base value of the
    projected step, step) is built from its incidence entries on its first
    visit.  The first sampled mismatch is the witness; failing that, the
    first disagreeing generator's loop.
    """
    if sample_count < 0:
        raise ValueError(f"sample count must be non-negative, got {sample_count}")
    cov, tree = inst.cover, inst.cover_tree
    check_incidence(cov)  # so the projection of every closed word is a closed word
    total, g = cov.total, inst.group
    mul_inv, column, inverse = g.mul_inv, g.column, g.inverse
    up_value = inst.pullback.on_step
    values, E = inst.voltage.as_tuple(), len(cov.base.edges)

    def down_value(step: tuple[int, int]) -> int:
        """The base value of the projected step: cover edge s * E + p lies over position p."""
        eid, sign = step
        x = values[eid % E]
        return x if sign > 0 else inverse[x]

    pot_up = _tree_potentials(tree, inst.group, up_value)
    pot_down = _tree_potentials(tree, inst.group, down_value)
    hyp = (HypothesisCheck("automaton-complete", True, f"samples {sample_count}, seed {seed}"),)
    for e in map(total.edge, tree.generators):
        u, d = up_value((e.id, 1)), down_value((e.id, 1))
        t, h = e.tail, e.head
        if (u, pot_up[t], pot_up[h]) == (d, pot_down[t], pot_down[h]):
            continue  # the same three factors give the same T-reduced value
        loop_up = mul_inv(column(u)[pot_up[t]], pot_up[h])
        loop_down = mul_inv(column(d)[pot_down[t]], pot_down[h])
        if loop_up != loop_down:
            break
    else:
        return VerificationReport("functoriality", HOLDS, hypotheses=hyp)
    rng = random.Random(seed)
    moves: list = [None] * total.vertex_count
    for _ in range(sample_count):
        cur = total.basepoint
        steps = []
        up = down = 0
        for _ in range(rng.randint(0, 12)):
            row = moves[cur]
            if row is None:
                ends = [((eid, sign), far) for eid, sign, far in total._incidence[cur]]
                row = moves[cur] = tuple((far, up_value(s), down_value(s), s) for s, far in ends)
            if not row:
                break
            cur, u, d, step = rng.choice(row)
            up, down = column(u)[up], column(d)[down]
            steps.append(step)
        up, down = mul_inv(up, pot_up[cur]), mul_inv(down, pot_down[cur])
        if up != down:
            w = tuple(steps) + tree.path_to_base(cur)
            break
    else:
        w = tree.path_from_base(e.tail) + ((e.id, 1),) + tree.path_to_base(e.head)
        up, down = loop_up, loop_down
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


def _product_form(inst: Instance) -> tuple[bool, str]:
    """Does the bundle upstairs split into |G| copies of the cover?

    Components are unions of the |G| sheets, so |G| components are one sheet
    each: one vertex over each cover vertex, one edge over each cover edge.
    """
    n, total = inst.group.order, inst.cover.total
    count = len(inst.cover_bundle.components)
    if count != n:
        return False, f"{count} components, expected {n}"
    return True, f"{n} components, each {total.vertex_count} vertices / {len(total.edges)} edges"


def is_induced_trivial(inst: Instance) -> VerificationReport:
    """Triviality criterion, both sides computed independently.

    Side one: the induced holonomy image is trivial.  Side two: every
    Schreier generator of the covering subgroup lies in the holonomy kernel,
    decided by carrying the kernel automaton's state down the covering
    automaton's transversal; the first generator outside the kernel is
    spelled out only when it is the witness.  The verdict asserts the
    biconditional; when trivial, the bundle upstairs must additionally split
    into |G| sheets isomorphic to the cover (the product form).
    """
    side_induced = inst.induced_image.members == (0,)
    outside = _first_step_outside(inst.subgroup_aut, inst.kernel_aut)
    side_kernel = outside is None
    hyp = (
        HypothesisCheck(
            "automaton-complete", inst.subgroup_aut.complete, f"index {inst.subgroup_aut.state_count}"
        ),
    )
    notes = [f"trivial: {'yes' if side_induced else 'no'}"]
    witnesses = []
    ok = side_induced == side_kernel
    if not ok:
        witnesses.append(("induced-image-trivial", str(side_induced)))
        witnesses.append(("subgroup-inside-kernel", str(side_kernel)))
        if outside is not None:
            witnesses.append(("kernel-membership-failure", str(_schreier_word(inst.subgroup_aut, *outside))))
    product_ok = True
    if side_induced:
        product_ok, detail = _product_form(inst)
        notes.append(f"product-form: {detail}")
        if not product_ok:
            witnesses.append(("product-form", detail))
    verdict = HOLDS if ok and product_ok else FAILS
    return VerificationReport(
        "triviality",
        verdict,
        hypotheses=hyp,
        witnesses=tuple(witnesses),
        notes=tuple(notes),
    )


def _gate_full_holonomy(inst: Instance) -> HypothesisCheck:
    ok = inst.holonomy_spans_group()
    return HypothesisCheck(
        "holonomy-spans-group",
        ok,
        f"|Hol| = {len(inst.image)}, |G| = {inst.group.order}",
    )


def _gate_subgroup_is_kernel(inst: Instance) -> HypothesisCheck:
    ok = automata_equal(inst.subgroup_aut, inst.kernel_aut)
    return HypothesisCheck(
        "subgroup-equals-kernel",
        ok,
        f"index {inst.subgroup_aut.state_count} vs kernel index {inst.kernel_aut.state_count}",
    )


def _gate_subgroup_normal(inst: Instance) -> HypothesisCheck:
    ok = inst.subgroup_normal
    return HypothesisCheck("subgroup-normal", ok, "regular covering" if ok else "covering not regular")


def _gate_kernel_inside_subgroup(inst: Instance) -> HypothesisCheck:
    """Does the holonomy kernel lie inside the covering subgroup?

    The triviality walk with the roles swapped: the covering automaton's
    state is carried down the kernel automaton's transversal.  The covering
    automaton may be partial (an infinite-index core); a generator whose
    path leaves it escapes.  The first escaping generator is the detail.
    """
    outside = _first_step_outside(inst.kernel_aut, inst.subgroup_aut)
    if outside is None:
        return HypothesisCheck("kernel-inside-subgroup", True, "")
    word = _schreier_word(inst.kernel_aut, *outside)
    return HypothesisCheck("kernel-inside-subgroup", False, f"kernel generator {word} escapes the subgroup")


def verify_prop_2_1(inst: Instance) -> VerificationReport:
    """When the covering subgroup IS the holonomy kernel (and the covering is
    regular, and holonomy spans the group), the holonomy bundles upstairs
    and downstairs are the same based cover of the base."""
    hyp = (
        _gate_subgroup_is_kernel(inst),
        _gate_subgroup_normal(inst),
        _gate_full_holonomy(inst),
    )
    if not all(h.passed for h in hyp):
        return VerificationReport("prop_2_1", GATE, hypotheses=hyp)
    base, comp = inst.base_nx_subgroup, inst.composite_subgroup
    witnesses = (
        ("base-holonomy-bundle-index", str(base.state_count)),
        ("composite-index", str(comp.state_count)),
    )
    return _verdict("prop_2_1", hyp, automata_equal(base, comp), witnesses)


def verify_cor_2_2(inst: Instance) -> VerificationReport:
    """For any covering whose subgroup contains the holonomy kernel, both
    holonomy bundles define the kernel subgroup over the base.

    Regularity of the covering is reported as a note, not required.
    """
    hyp = (
        _gate_kernel_inside_subgroup(inst),
        _gate_full_holonomy(inst),
    )
    regular = inst.subgroup_normal if inst.subgroup_aut.complete else False
    notes = (f"covering-regular: {'yes' if regular else 'no'}",)
    if not all(h.passed for h in hyp):
        return VerificationReport("cor_2_2", GATE, hypotheses=hyp, notes=notes)
    base_ok = automata_equal(inst.base_nx_subgroup, inst.kernel_aut)
    comp_ok = automata_equal(inst.composite_subgroup, inst.kernel_aut)
    witnesses = (("base-equals-kernel", str(base_ok)), ("composite-equals-kernel", str(comp_ok)))
    return _verdict("cor_2_2", hyp, base_ok and comp_ok, witnesses, notes)


def verify_prop_2_3(inst: Instance) -> VerificationReport:
    """Over the kernel covering, the bundle upstairs is the product bundle
    and the basepoint component covers the base with the kernel subgroup."""
    hyp = (
        _gate_subgroup_is_kernel(inst),
        _gate_subgroup_normal(inst),
        _gate_full_holonomy(inst),
    )
    if not all(h.passed for h in hyp):
        return VerificationReport("prop_2_3", GATE, hypotheses=hyp)
    product_ok, detail = _product_form(inst)
    base_ok = automata_equal(inst.base_nx_subgroup, inst.kernel_aut)
    comp_ok = automata_equal(inst.composite_subgroup, inst.kernel_aut)
    witnesses = (
        ("product-form", str(product_ok)),
        ("base-equals-kernel", str(base_ok)),
        ("composite-equals-kernel", str(comp_ok)),
    )
    notes = (f"product-form: {detail}",)
    return _verdict("prop_2_3", hyp, product_ok and base_ok and comp_ok, witnesses, notes)


def verify_prop_2_4(inst: Instance) -> VerificationReport:
    """The holonomy bundle over the base defines exactly the kernel subgroup;
    in this discrete model the fiber orbit has trivial loop group, so the
    quotient in the general statement degenerates away (recorded as a note).
    For relator-free bases the rank of the bundle's fundamental group is
    checked against index * (rank - 1) + 1."""
    hyp = (_gate_full_holonomy(inst),)
    notes = ["fiber-orbit loop group is trivial here; the quotient is degenerate"]
    if not all(h.passed for h in hyp):
        return VerificationReport("prop_2_4", GATE, hypotheses=hyp, notes=tuple(notes))
    sub_ok = automata_equal(inst.base_nx_subgroup, inst.kernel_aut)
    rank_ok = True
    if not inst.complex.relators:
        index = inst.kernel_aut.state_count
        expected = index * (inst.presentation.rank - 1) + 1
        d, c = inst.base_bundle, inst.complex  # the bundle is k sheets of V vertices and E edges
        actual = d.sheets * (len(c.edges) - c.vertex_count) + 1
        rank_ok = actual == expected
        notes.append(f"rank pi1(holonomy bundle) = {actual}, expected {expected}")
    witnesses = (("bundle-subgroup-equals-kernel", str(sub_ok)), ("rank-formula", str(rank_ok)))
    return _verdict("prop_2_4", hyp, sub_ok and rank_ok, witnesses, tuple(notes))


def standard_reports(
    inst: Instance, seed: int, sample_count: int = 100
) -> list[VerificationReport]:
    """All claim checks for one instance, in the fixed reporting order."""
    return [
        verify_theorem_1_1(inst),
        verify_functoriality(inst, sample_count=sample_count, seed=seed),
        is_induced_trivial(inst),
        verify_prop_2_1(inst),
        verify_cor_2_2(inst),
        verify_prop_2_3(inst),
        verify_prop_2_4(inst),
    ]
