import glob
import os
from collections import Counter
from itertools import chain

import pytest

from flatconn.bundles import derived_bundle
from flatconn.complexes import BaseComplex, Edge, spanning_tree, validate_complex
from flatconn.connections import Voltage, holonomy_morphism, holonomy_group, kernel_automaton
from flatconn.corpus import generate_corpus
from flatconn.covers import CoveringComplex, build_cover
from flatconn.errors import (
    ComplexError,
    EnumerationCapError,
    IncidenceError,
    IncompleteAutomatonError,
    InputError,
)
from flatconn.groups import catalog_group, group_from_permutations, subgroup_closure
from flatconn.io import parse_instance
from flatconn.subgroups import (
    CosetAutomaton,
    automata_equal,
    automaton_from_quotient,
    SubgroupSpec,
    stallings_core,
)
from flatconn.theorems import Instance, _product_form, verify_functoriality
from helpers import (
    ComplexMap,
    compose_complex_maps,
    covering_degree,
    holonomy_projection,
    induced_bundle_map,
    induced_projection,
    is_covering_map,
    left_translation,
    lift_path,
    projection,
    subgroup_of_cover,
)

INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


def base_lift(d):
    """The bundle vertex (basepoint, identity)."""
    return d.base.basepoint * d.group.order


def a3_automaton(s3):
    return automaton_from_quotient([1, 2], s3, subgroup_closure(s3, [2]))


def test_build_cover_index_one(wedge, s3):
    aut = automaton_from_quotient([1, 2], s3, subgroup_closure(s3, [1, 2]))
    cov = build_cover(wedge, aut)
    assert cov.degree == 1
    assert cov.total.vertex_count == wedge.vertex_count
    assert len(cov.total.edges) == len(wedge.edges)
    assert is_covering_map(projection(cov))


def test_build_cover_a3_preimage(wedge, s3):
    cov = build_cover(wedge, a3_automaton(s3))
    total = cov.total
    assert total.vertex_count == 2
    assert len(total.edges) == 4
    edge_map = projection(cov).edge_map
    a_lifts = [e for e in total.edges if edge_map[e.id] == 0]
    b_lifts = [e for e in total.edges if edge_map[e.id] == 1]
    # the two a-edges cross between the sheets, the b-edges loop
    assert sorted((e.tail, e.head) for e in a_lifts) == [(0, 1), (1, 0)]
    assert all(e.tail == e.head for e in b_lifts)
    assert is_covering_map(projection(cov))


def test_build_cover_circle_double(circle, z2):
    aut = automaton_from_quotient([1], z2, subgroup_closure(z2, ()))
    cov = build_cover(circle, aut)
    assert cov.total.vertex_count == 2
    assert sorted((e.tail, e.head) for e in cov.total.edges) == [(0, 1), (1, 0)]


def test_build_cover_requires_complete(wedge):
    core = stallings_core([((0, 1),)], 2)
    with pytest.raises(IncompleteAutomatonError):
        build_cover(wedge, core)


def test_build_cover_scaling_counts(torus, z4):
    aut = automaton_from_quotient([1, 2], z4, subgroup_closure(z4, ()), )
    cov = build_cover(torus, aut)
    d = cov.degree
    assert cov.total.vertex_count == d * torus.vertex_count
    assert len(cov.total.edges) == d * len(torus.edges)
    assert len(cov.total.relators) == d * len(torus.relators)
    validate_complex(cov.total)


def test_build_cover_rank_formula(wedge, s3):
    for seed in ((), (1,), (2,)):
        aut = automaton_from_quotient([1, 2], s3, subgroup_closure(s3, seed))
        cov = build_cover(wedge, aut)
        d = cov.degree
        assert cov.total.free_rank == d * (wedge.free_rank - 1) + 1


def test_build_cover_rejects_incompatible_relators(torus):
    # a acts as a transposition, b as a 3-cycle: the commutator moves state 0
    aut = CosetAutomaton(2, [[1, 0, 2], [1, 2, 0]], [[1, 0, 2], [2, 0, 1]])
    with pytest.raises(ComplexError, match="does not close"):
        build_cover(torus, aut)


def test_is_covering_map_rejects_folded_parallel_edges():
    # two parallel edges mapping onto one loop: not star-bijective
    src = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 0, 1)])
    dst = BaseComplex(1, [Edge(0, 0, 0)])
    m = ComplexMap(src, dst, (0, 0), {0: 0, 1: 0})
    assert not is_covering_map(m)


def test_path_onto_loop_is_not_a_covering():
    # one-to-one at each vertex but not onto: the loop's incoming end has no preimage at 0
    src = BaseComplex(2, [Edge(0, 0, 1)])
    dst = BaseComplex(1, [Edge(0, 0, 0)])
    m = ComplexMap(src, dst, (0, 0), {0: 0})
    assert not is_covering_map(m)
    with pytest.raises(IncidenceError, match="requires a covering map"):
        subgroup_of_cover(m, 0)


def test_is_covering_map_incidence_error():
    src = BaseComplex(2, [Edge(0, 0, 1)])
    dst = BaseComplex(2, [Edge(0, 0, 1)])
    m = ComplexMap(src, dst, (0, 0), {0: 0})
    with pytest.raises(IncidenceError):
        is_covering_map(m)


def test_functoriality_rejects_a_lift_over_the_wrong_vertex(z2):
    """A cover lies over its base by its id layout alone: lift s * E + p
    must run over base edge position p.  Here the two-cycle's index-2 cover
    has its first lift re-pointed into the fiber over vertex 0, not 1."""
    base = BaseComplex(2, [Edge(0, 0, 1), Edge(1, 1, 0)])
    inst = Instance(Voltage(base, z2, {0: 0, 1: 1}), SubgroupSpec(kind="quotient", subgroup=(0,)))
    cov = inst.cover
    assert [(e.id, e.tail, e.head) for e in cov.total.edges] == [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0)]
    edges = [Edge(0, 0, 2)] + list(cov.total.edges[1:])
    inst.__dict__["cover"] = CoveringComplex(base, cov.automaton, BaseComplex(4, edges))
    with pytest.raises(IncidenceError) as err:
        verify_functoriality(inst)
    assert str(err.value) == "edge 0 -> 0 does not respect incidences: (0, 0) vs (0, 1)"


def test_identity_is_covering(wedge):
    m = ComplexMap(wedge, wedge, (0,), {0: 0, 1: 1})
    assert is_covering_map(m)
    assert covering_degree(m) == 1


def test_subgroup_of_cover_round_trip(wedge, torus, s3, z4):
    cases = []
    for seed in ((), (1,), (2,)):
        cases.append((wedge, automaton_from_quotient([1, 2], s3, subgroup_closure(s3, seed))))
    cases.append((torus, automaton_from_quotient([1, 2], z4, subgroup_closure(z4, (2,)))))
    for base, aut in cases:
        cov = build_cover(base, aut)
        assert automata_equal(subgroup_of_cover(projection(cov), cov.total.basepoint), aut)


def test_lift_path_unique(wedge, s3):
    cov = build_cover(wedge, a3_automaton(s3))
    proj = projection(cov)
    lifted = lift_path(proj, ((0, 1), (0, 1)), cov.total.basepoint)
    assert tuple(proj.map_step(step) for step in lifted) == ((0, 1), (0, 1))
    end = cov.total.path_vertices(lifted, start=cov.total.basepoint)[-1]
    assert end == cov.total.basepoint  # a^2 lies in the index-2 subgroup


def test_compose_maps(wedge, s3):
    cov = build_cover(wedge, a3_automaton(s3))
    ident = ComplexMap(wedge, wedge, (0,), {0: 0, 1: 1})
    comp = compose_complex_maps(projection(cov), ident)
    assert is_covering_map(comp)
    assert comp.vertex_map == projection(cov).vertex_map


# ---------------------------------------------------------------------------
# derived bundles


def test_derived_bundle_identity_voltage(wedge, s3):
    v = Voltage(wedge, s3, {0: 0, 1: 0})
    d = derived_bundle(v)
    assert len(d.components) == 6
    for comp in d.components:
        assert len(comp) == wedge.vertex_count


def test_derived_bundle_wedge_connected(wedge, s3, wedge_s3_voltage):
    d = derived_bundle(wedge_s3_voltage)
    assert d.graph.vertex_count == 6
    assert len(d.graph.edges) == 12
    assert len(d.components) == 1
    assert is_covering_map(induced_projection(d, range(d.graph.vertex_count), base_lift(d))[0])


def test_derived_bundle_circle_z2(circle, z2):
    v = Voltage(circle, z2, {0: 1})
    d = derived_bundle(v)
    assert len(d.components) == 1
    assert sorted((e.tail, e.head) for e in d.graph.edges) == [(0, 1), (1, 0)]


def components_by_bfs(vertex_count, edges):
    """Components over materialised edges, numbered by minimal vertex."""
    neighbors = [[] for _ in range(vertex_count)]
    for e in edges:
        neighbors[e.tail].append(e.head)
        neighbors[e.head].append(e.tail)
    component_of = [None] * vertex_count
    components = []
    for start in range(vertex_count):
        if component_of[start] is not None:
            continue
        component_of[start] = len(components)
        members = [start]
        for v in members:
            for u in neighbors[v]:
                if component_of[u] is None:
                    component_of[u] = len(components)
                    members.append(u)
        components.append(tuple(sorted(members)))
    return tuple(components), tuple(component_of)


def component_ids(d):
    """The component of every bundle vertex, read from ``d.components``."""
    ids = [None] * d.graph.vertex_count
    for i, comp in enumerate(d.components):
        for v in comp:
            ids[v] = i
    return tuple(ids)


def fiber_elements(d, comp):
    """The elements x with (basepoint, x) in a component, ascending."""
    n, b = d.group.order, d.base.basepoint
    return tuple(v % n for v in comp if v // n == b)


def holonomy_component(d):
    """The vertex ids of the component of the basepoint lift."""
    return d.components[component_ids(d)[base_lift(d)]]


def has_finite_cover(inst):
    try:
        return inst.subgroup_aut.complete
    except EnumerationCapError:
        return False


def document_instances():
    for path in sorted(glob.glob(os.path.join(INSTANCES, "*.json"))):
        try:
            yield parse_instance(path)
        except InputError:  # the document with a non-flat voltage
            continue


def wedge_s4_instances():
    """S4 over the wedge of two circles: the kernel cover (index 24) and the
    preimage of <(01)> (index 12, not normal)."""
    s4 = catalog_group("S4")
    wedge = BaseComplex(1, [Edge(0, 0, 0), Edge(1, 0, 0)])
    a, b = s4.perms.index((1, 0, 2, 3)), s4.perms.index((1, 2, 3, 0))
    v = Voltage(wedge, s4, {0: a, 1: b})
    for sub in ((0,), (0, a)):
        yield Instance(v, SubgroupSpec(kind="quotient", subgroup=sub))


def source_instances(source):
    """Corpus seed ``source`` (30 instances), the instance documents, or the
    S4 covers over the wedge."""
    if source == "documents":
        return document_instances()
    if source == "wedge_s4":
        return wedge_s4_instances()
    return (item.instance for item in generate_corpus(source, 30))


BUNDLE_SOURCES = [*range(8), "documents", "wedge_s4"]


@pytest.mark.parametrize("seed", BUNDLE_SOURCES)
def test_bundle_components_match_bfs_over_edges(seed):
    for inst in source_instances(seed):
        bundles = [inst.base_bundle] + ([inst.cover_bundle] if has_finite_cover(inst) else [])
        for d in bundles:
            n = d.group.order
            edges = list(d.graph.edges)
            assert d.graph.vertex_count == n * d.base.vertex_count
            assert len(d.graph.edges) == len(edges) == n * len(d.base.edges)
            assert [e.id for e in edges] == list(range(len(edges)))
            expected = components_by_bfs(d.graph.vertex_count, edges)
            assert tuple(d.components) == expected[0]
            assert all(len(comp) == d.sheets * d.base.vertex_count for comp in expected[0])


@pytest.mark.parametrize("seed", BUNDLE_SOURCES)
def test_extracted_components_match_bfs_over_edges(seed):
    for inst in source_instances(seed):
        bundles = [inst.base_bundle] + ([inst.cover_bundle] if has_finite_cover(inst) else [])
        for d in bundles:
            edges = list(d.graph.edges)
            components, component_of = components_by_bfs(d.graph.vertex_count, edges)
            for i, comp in enumerate(components):
                assert d.components[i] == comp
                part, lifts = induced_projection(d, comp, comp[0])
                assert lifts == tuple(e.id for e in edges if component_of[e.tail] == i)
                assert is_covering_map(part)
                assert covering_degree(part) == d.sheets
            assert holonomy_component(d) == components[component_of[base_lift(d)]]


def test_bundle_sequences_slice_like_lists():
    inst = parse_instance(os.path.join(INSTANCES, "wedge_s3_a3.json"))
    components = inst.cover_bundle.components
    assert len(components) == 2
    edges = inst.cover_bundle.graph.edges
    for seq in (components, edges):
        for cut in (slice(0, 2), slice(None), slice(1, None), slice(None, None, -1), slice(-3, 7, 2), slice(5, 1)):
            assert seq[cut] == list(seq)[cut]
    assert components[0:2] != list(chain.from_iterable(components))
    assert edges[0:2] == [edges[0], edges[1]]
    assert components[-1] == components[1]
    with pytest.raises(IndexError):
        components[2]
    with pytest.raises(IndexError):
        edges[len(edges)]


def product_form_by_counter(inst):
    """The product-form check over materialised components and edges."""
    bundle = inst.cover_bundle
    n = inst.group.order
    v_hat = inst.cover.total.vertex_count
    e_hat = len(inst.cover.total.edges)
    components, component_of = components_by_bfs(bundle.graph.vertex_count, bundle.graph.edges)
    if len(components) != n:
        return False, f"{len(components)} components, expected {n}"
    for comp in components:
        if len(comp) != v_hat:
            return False, f"component with {len(comp)} vertices, expected {v_hat}"
    edges_per = Counter(component_of[e.tail] for e in bundle.graph.edges)
    for cid in range(len(components)):
        if edges_per[cid] != e_hat:
            return False, f"component {cid} has {edges_per[cid]} edges, expected {e_hat}"
    return True, f"{n} components, each {v_hat} vertices / {e_hat} edges"


@pytest.mark.parametrize("source", BUNDLE_SOURCES)
def test_product_form_matches_counter_over_edges(source):
    for inst in source_instances(source):
        if has_finite_cover(inst):
            assert _product_form(inst) == product_form_by_counter(inst)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("wedge_s3_kernel.json", (True, "6 components, each 6 vertices / 12 edges")),
        ("wedge_s3_01.json", (False, "3 components, expected 6")),
        ("wedge_s3_a3.json", (False, "2 components, expected 6")),
        ("circle_z2.json", (True, "2 components, each 2 vertices / 2 edges")),
    ],
)
def test_product_form_detail(name, expected):
    assert _product_form(parse_instance(os.path.join(INSTANCES, name))) == expected


def test_lifted_graph_matches_materialised_complex(wedge, circle, torus, s3, z4):
    trivial = group_from_permutations(1, [])
    cases = [
        Voltage(wedge, s3, {0: 1, 1: 2}),
        Voltage(wedge, s3, {0: 0, 1: 1}),
        Voltage(circle, s3, {0: 2}),
        Voltage(torus, z4, {0: 1, 1: 3}),
        Voltage(BaseComplex(2, [Edge(0, 0, 1), Edge(3, 1, 0), Edge(5, 1, 1)]), s3,
                {0: 1, 3: 4, 5: 3}),
        # the trivial group: one sheet, each fiber map a single element
        Voltage(BaseComplex(2, [Edge(0, 0, 1), Edge(1, 1, 0), Edge(2, 1, 1)]), trivial,
                {0: 0, 1: 0, 2: 0}),
        # tree edges 0 and 1 point toward the basepoint 2, edge 4 away from it
        Voltage(BaseComplex(4, [Edge(0, 0, 2), Edge(1, 1, 0), Edge(4, 2, 3), Edge(6, 3, 1)], basepoint=2),
                s3, {0: 2, 1: 3, 4: 1, 6: 5}),
    ]
    for v in cases:
        d = derived_bundle(v)
        n = v.group.order
        # the lifted-edge rule by composing permutations, not reading columns
        expected = [
            Edge(p * n + x, e.tail * n + x, e.head * n + v.group.mul(x, v.on_edge(e.id)))
            for p, e in enumerate(v.complex.edges)
            for x in range(n)
        ]
        edges = d.graph.edges
        assert d.graph.vertex_count == n * v.complex.vertex_count
        assert len(edges) == len(expected)
        assert [edges[i] for i in range(len(edges))] == list(edges) == edges[:] == expected
        assert edges[-1] == expected[-1]
        for eid in (len(edges), -len(edges) - 1):
            with pytest.raises(IndexError):
                edges[eid]
        assert tuple(d.components) == components_by_bfs(d.graph.vertex_count, expected)[0]


def test_component_count_is_holonomy_index(wedge, s3):
    # Hol = <(01)> of order 2 inside S3: three components
    v = Voltage(wedge, s3, {0: 1, 1: 0})
    d = derived_bundle(v)
    h = holonomy_morphism(v, spanning_tree(wedge))
    assert len(d.components) == s3.order // len(holonomy_group(h))


def test_left_translation_is_automorphism(wedge, s3, wedge_s3_voltage):
    d = derived_bundle(wedge_s3_voltage)
    edge_set = {(e.tail, e.head, d.edge_pair(e.id)[0]) for e in d.graph.edges}
    for g in range(s3.order):
        perm = left_translation(d, g)
        translated = {
            (perm[e.tail], perm[e.head], d.edge_pair(e.id)[0]) for e in d.graph.edges
        }
        assert translated == edge_set
        # commutes with the projection
        n = s3.order
        assert all(perm[idx] // n == idx // n for idx in range(d.graph.vertex_count))


def test_left_translation_permutes_components(wedge, s3):
    v = Voltage(wedge, s3, {0: 1, 1: 0})  # Hol = <(01)>
    d = derived_bundle(v)
    hol = {0, 1}
    ids = component_ids(d)
    base_comp = set(d.components[ids[base_lift(d)]])
    for g in range(s3.order):
        perm = left_translation(d, g)
        image = {perm[idx] for idx in base_comp}
        cids = {ids[idx] for idx in image}
        assert len(cids) == 1
        if g in hol:
            assert image == base_comp


def test_holonomy_bundle_full(wedge, s3, wedge_s3_voltage):
    d = derived_bundle(wedge_s3_voltage)
    hb = holonomy_component(d)
    assert (len(d.components), d.sheets) == (1, 6)
    assert len(hb) == d.graph.vertex_count
    assert fiber_elements(d, hb) == tuple(range(6))


def test_holonomy_bundle_trivial(wedge, s3):
    v = Voltage(wedge, s3, {0: 0, 1: 0})
    d = derived_bundle(v)
    hb = holonomy_component(d)
    assert d.sheets == 1
    assert len(hb) == wedge.vertex_count
    assert sum(e.tail in hb for e in d.graph.edges) == len(wedge.edges)


def test_holonomy_bundle_proper_subgroup(wedge, s3):
    v = Voltage(wedge, s3, {0: 1, 1: 0})
    d = derived_bundle(v)
    hb = holonomy_component(d)
    assert d.sheets == 2
    assert fiber_elements(d, hb) == (0, 1)  # e and (01)
    # (vertex 0, e), (vertex 0, (01)) and the a- and b-lifts through them
    assert hb == (0, 1)
    assert [(e.id, e.tail, e.head) for e in d.graph.edges if e.tail in hb] == [(0, 0, 1), (1, 1, 0), (6, 0, 0), (7, 1, 1)]
    assert base_lift(d) == 0
    # another component of the same bundle, with a gap in its vertex ids
    other = d.components[1]
    assert other == (2, 4)
    assert tuple(e.id for e in d.graph.edges if e.tail in other) == (2, 4, 8, 10)


def test_component_complex_off_the_basepoint_lift(s3):
    # Hol = <(12)>: three components; the basepoint lift (1, e) = 6 lies in component 2
    base = BaseComplex(2, [Edge(0, 0, 1), Edge(3, 1, 0), Edge(5, 1, 1)], basepoint=1)
    d = derived_bundle(Voltage(base, s3, {0: 2, 3: 3, 5: 0}))
    assert component_ids(d) == (0, 0, 1, 2, 1, 2, 2, 1, 0, 0, 2, 1)
    assert (len(d.components), d.sheets) == (3, 2)
    part = d.components[1]
    assert part == (2, 4, 7, 11)
    assert fiber_elements(d, part) == (1, 5)
    lifts = [(e.id, e.tail, e.head) for e in d.graph.edges if e.tail in part]
    assert lifts == [(2, 2, 11), (4, 4, 7), (7, 7, 2), (11, 11, 4), (13, 7, 7), (17, 11, 11)]
    proj, _ = induced_projection(d, part, part[0])
    assert proj.vertex_map == (0, 0, 1, 1)
    assert proj.edge_map == {0: 0, 1: 0, 2: 3, 3: 3, 4: 5, 5: 5}
    assert is_covering_map(proj)
    hb = holonomy_component(d)
    assert hb == (3, 5, 6, 10)
    assert hb.index(base_lift(d)) == 2
    assert fiber_elements(d, hb) == (0, 4)


def test_holonomy_bundle_fiber_is_holonomy_group(wedge, s3):
    for assignment in ({0: 1, 1: 2}, {0: 1, 1: 0}, {0: 2, 1: 2}, {0: 0, 1: 0}):
        v = Voltage(wedge, s3, assignment)
        d = derived_bundle(v)
        h = holonomy_morphism(v, spanning_tree(wedge))
        assert fiber_elements(d, holonomy_component(d)) == holonomy_group(h).members
        assert d.sheets == len(holonomy_group(h))


def test_bundle_subgroup_equals_kernel(wedge, torus, s3, z4):
    cases = [
        (wedge, s3, {0: 1, 1: 2}),
        (wedge, s3, {0: 1, 1: 0}),
        (torus, z4, {0: 1, 1: 2}),
    ]
    for base, group, assignment in cases:
        v = Voltage(base, group, assignment)
        tree = spanning_tree(base)
        hb = holonomy_projection(derived_bundle(v))
        sub = subgroup_of_cover(hb, hb.source.basepoint)
        assert automata_equal(sub, kernel_automaton(holonomy_morphism(v, tree)))


def test_full_bundle_subgroup_equals_kernel_when_connected(wedge, s3, wedge_s3_voltage):
    d = derived_bundle(wedge_s3_voltage)
    tree = spanning_tree(wedge)
    sub = subgroup_of_cover(induced_projection(d, range(d.graph.vertex_count), base_lift(d))[0], base_lift(d))
    h = holonomy_morphism(wedge_s3_voltage, tree)
    assert automata_equal(sub, kernel_automaton(h))


def test_induced_bundle_map_is_covering(wedge, s3, wedge_s3_voltage):
    from flatconn.theorems import Instance
    from flatconn.subgroups import SubgroupSpec

    inst = Instance(wedge_s3_voltage, SubgroupSpec(kind="quotient", subgroup=(2,)))
    qhat = induced_bundle_map(inst.cover_bundle, inst.base_bundle, inst.cover)
    assert is_covering_map(qhat)
    assert covering_degree(qhat) == inst.cover.degree


def test_bundle_map_component_restrictions_are_coverings(wedge, s3, wedge_s3_voltage):
    from flatconn.theorems import Instance
    from flatconn.subgroups import SubgroupSpec

    inst = Instance(wedge_s3_voltage, SubgroupSpec(kind="quotient", subgroup=(0,)))
    qhat = induced_bundle_map(inst.cover_bundle, inst.base_bundle, inst.cover)
    upper, lower = inst.cover_bundle, inst.base_bundle
    lower_ids = component_ids(lower)
    for comp in upper.components:
        part, lifts = induced_projection(upper, comp, comp[0])
        targets = {lower_ids[qhat.vertex_map[gv]] for gv in comp}
        assert len(targets) == 1
        target_comp = lower.components[targets.pop()]
        target_part, target_lifts = induced_projection(lower, target_comp, target_comp[0])
        vmap = tuple(target_comp.index(qhat.vertex_map[gv]) for gv in comp)
        target_edge_local = {geid: i for i, geid in enumerate(target_lifts)}
        emap = {i: target_edge_local[qhat.edge_map[geid]] for i, geid in enumerate(lifts)}
        restricted = ComplexMap(part.source, target_part.source, vmap, emap)
        assert is_covering_map(restricted)
