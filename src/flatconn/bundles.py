"""Derived graphs of voltage assignments: discrete principal bundles.

The total space of a flat voltage has vertex set (base vertex, group
element) and, for every base edge e and element g, one lifted edge from
(tail e, g) to (head e, g * w(e)).  Left translation by any group element is
then a graph automorphism commuting with the projection, which is the
structure-group action.  The connected component of the basepoint lift is
the holonomy bundle: its fiber over the basepoint is exactly the holonomy
group.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count
from typing import Optional

from .complexes import BaseComplex, Edge, validate_complex
from .connections import Voltage, check_flatness
from .covers import ComplexMap, CoveringComplex, is_covering_map
from .errors import ComplexError, FlatnessError
from .groups import GroupTable


class LiftedEdges(Sequence):
    """The edges of a lifted graph, as ``Edge`` objects made on demand."""

    __slots__ = ("_tail", "_head")

    def __init__(self, tail: array, head: array):
        self._tail = tail
        self._head = head

    def __len__(self) -> int:
        return len(self._tail)

    def __getitem__(self, i: int) -> Edge:
        eid = range(len(self._tail))[i]
        return Edge(eid, self._tail[eid], self._head[eid])

    def __iter__(self):
        return map(Edge, count(), self._tail, self._head)


class LiftedGraph(BaseComplex):
    """The derived graph of a voltage, stored as flat integer arrays.

    Lifted edge ``p * |G| + x`` runs from ``tail[p * |G| + x]`` to
    ``head[p * |G| + x]``, that is from (tail p, x) to (head p, x * w(p));
    the lifts of one base edge fill one column, read off the product table.
    The :class:`BaseComplex` queries (edges, edge lookup, stars, paths) are
    answered from the arrays and the base, without an ``Edge`` per lift.
    """

    __slots__ = ("tail", "head", "_voltage")

    def __init__(self, v: Voltage):
        c, n = v.complex, v.group.order
        columns = tuple(zip(*v.group.product))  # columns[w][x] = x * w
        tail = array("i")
        head = array("i")
        for e in c.edges:
            tail.extend(range(e.tail * n, e.tail * n + n))
            offset = e.head * n
            head.extend([offset + y for y in columns[v.on_edge(e.id)]])
        self.vertex_count = c.vertex_count * n
        self.edges = LiftedEdges(tail, head)
        self.basepoint = c.basepoint * n  # the lift (basepoint, identity)
        self.relators = ()
        self.tail = tail
        self.head = head
        self._voltage = v
        self._validated = False

    def edge(self, eid: int) -> Edge:
        return Edge(self.edge_pos(eid), self.tail[eid], self.head[eid])

    def edge_pos(self, eid: int) -> int:
        if not 0 <= eid < len(self.tail):
            raise ComplexError(f"unknown edge id {eid}")
        return eid

    def star(self, v: int) -> list[tuple[int, int]]:
        """Edge-ends at (u, x): (p|G| + x, +1) out of it, and for base edges
        p into u, (p|G| + x w(p)^-1, -1) into it; same order as the base class."""
        base, group = self._voltage.complex, self._voltage.group
        n = group.order
        u, x = divmod(v, n)
        ends = []
        for eid, sign in base.star(u):
            p = base.edge_pos(eid)
            if sign > 0:
                ends.append((p * n + x, 1))
            else:
                w_inv = group.inverse[self._voltage.on_edge(eid)]
                ends.append((p * n + group.product[x][w_inv], -1))
        ends.sort(key=lambda end: (end[0], -end[1]))
        return ends


@dataclass(frozen=True, eq=False)
class DerivedBundle:
    """Total space of a voltage assignment, with component decomposition.

    Vertex (v, g) has index v * |G| + g and the lift of base edge position p
    at element g has id p * |G| + g, so components, numbered by minimal
    vertex, follow (vertex, element) lexicographic order.  The graph is not
    necessarily connected: there are [|G| : |Hol|] components.
    """

    base: BaseComplex
    group: GroupTable
    voltage: Voltage
    graph: LiftedGraph
    components: tuple
    component_of: tuple
    base_lift: int

    def edge_pair(self, eid: int) -> tuple[int, int]:
        """(base edge position, group element) of a lifted edge id."""
        return divmod(eid, self.group.order)

    def projection(self) -> ComplexMap:
        n = self.group.order
        vertex_map = tuple(idx // n for idx in range(self.graph.vertex_count))
        edge_map = {
            eid: self.base.edges[eid // n].id for eid in range(len(self.graph.edges))
        }
        return ComplexMap(
            source=self.graph, target=self.base, vertex_map=vertex_map, edge_map=edge_map
        )

    def left_translation(self, g: int) -> tuple:
        """Vertex permutation (v, x) -> (v, g * x); an automorphism over the base."""
        n = self.group.order
        mul = self.group.product
        return tuple(
            (idx // n) * n + mul[g][idx % n] for idx in range(self.graph.vertex_count)
        )


def derived_bundle(c: BaseComplex, g: GroupTable, v: Voltage) -> DerivedBundle:
    """Build the derived graph of a flat voltage and its components.

    Components come from a union-find over the lifted edges that keeps the
    smaller root, so every vertex's parent is at most the vertex and each
    root is the minimal vertex of its component.
    """
    validate_complex(c)
    if v.complex is not c:
        raise ValueError("voltage is not defined on the given complex")
    if v.group is not g:
        raise ValueError("voltage takes values in a different group")
    violations = check_flatness(v)
    if violations:
        raise FlatnessError(violations)
    graph = LiftedGraph(v)
    parent = list(range(graph.vertex_count))
    for a, b in zip(graph.tail, graph.head):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if b < a:
                a, b = b, a
            parent[b] = a
    # parent[x] <= x, so the parent is labelled before the vertex.
    component_of = [0] * graph.vertex_count
    components: list[list[int]] = []
    for x, p in enumerate(parent):
        if p == x:
            component_of[x] = len(components)
            components.append([x])
        else:
            cid = component_of[p]
            component_of[x] = cid
            components[cid].append(x)
    return DerivedBundle(
        base=c,
        group=g,
        voltage=v,
        graph=graph,
        components=tuple(map(tuple, components)),
        component_of=tuple(component_of),
        base_lift=graph.basepoint,
    )


@dataclass(frozen=True, eq=False)
class HolonomyBundle:
    """One component of a derived bundle as its own based complex.

    Local vertex and edge i are ``global_vertices[i]`` and ``global_edges[i]``
    (both ascending); the basepoint-lift component is the holonomy bundle."""

    bundle: DerivedBundle
    complex: BaseComplex
    projection: ComplexMap
    base_lift: int
    global_vertices: tuple
    global_edges: tuple

    @property
    def fiber_elements(self) -> tuple:
        """The elements g with (basepoint, g) in the component, ascending."""
        n, b = self.bundle.group.order, self.bundle.base.basepoint
        return tuple(x % n for x in self.global_vertices if x // n == b)

    @property
    def degree(self) -> int:
        return len(self.fiber_elements)

    def to_local_vertex(self, global_idx: int) -> int:
        i = bisect_left(self.global_vertices, global_idx)
        if i == len(self.global_vertices) or self.global_vertices[i] != global_idx:
            raise KeyError(global_idx)
        return i


def component_complex(d: DerivedBundle, comp_index: int, basepoint: Optional[int] = None) -> HolonomyBundle:
    """Extract a component as a connected complex with projection to the base.

    Only the component's own edges are visited: the lifts leaving (v, x) are
    p * |G| + x for the base edges p with tail v.  Listing them base edge by
    base edge, and x ascending, keeps them in ascending global id.
    """
    verts = d.components[comp_index]
    local = {g: i for i, g in enumerate(verts)}
    n = d.group.order
    fibers: list[list[int]] = [[] for _ in range(d.base.vertex_count)]
    for g in verts:
        fibers[g // n].append(g % n)
    global_edges = tuple(p * n + x for p, e in enumerate(d.base.edges) for x in fibers[e.tail])
    tail, head = d.graph.tail, d.graph.head
    edges = [Edge(i, local[tail[eid]], local[head[eid]]) for i, eid in enumerate(global_edges)]
    base_lift = local[verts[0] if basepoint is None else basepoint]
    sub = BaseComplex(vertex_count=len(verts), edges=edges, basepoint=base_lift, relators=())
    validate_complex(sub)
    vertex_map = tuple(g // n for g in verts)
    edge_map = {i: d.base.edges[eid // n].id for i, eid in enumerate(global_edges)}
    proj = ComplexMap(source=sub, target=d.base, vertex_map=vertex_map, edge_map=edge_map)
    return HolonomyBundle(
        bundle=d,
        complex=sub,
        projection=proj,
        base_lift=base_lift,
        global_vertices=verts,
        global_edges=global_edges,
    )


def holonomy_bundle(d: DerivedBundle) -> HolonomyBundle:
    """Extract the holonomy bundle: the basepoint-lift component.

    Its fiber elements over the basepoint form the holonomy group of the
    voltage.  The restricted projection is verified to be a covering map.
    """
    hb = component_complex(d, d.component_of[d.base_lift], basepoint=d.base_lift)
    if not is_covering_map(hb.projection):
        raise AssertionError("holonomy bundle projection failed the covering check")
    return hb


def induced_bundle_map(
    upper: DerivedBundle,
    lower: DerivedBundle,
    cov: CoveringComplex,
) -> ComplexMap:
    """The bundle map over a covering: (v^, g) -> (q(v^), g) on vertices and
    likewise on lifted edges.  ``upper`` must be the derived bundle of the
    pulled-back voltage on ``cov.total`` and ``lower`` the bundle downstairs.
    """
    if upper.base is not cov.total or lower.base is not cov.base:
        raise ValueError("bundles do not sit over the given covering")
    if upper.group is not lower.group:
        raise ValueError("bundles carry different structure groups")
    n = upper.group.order
    vertex_map = []
    for idx in range(upper.graph.vertex_count):
        v_hat, g = divmod(idx, n)
        vertex_map.append(cov.vertex_to_base[v_hat] * n + g)
    edge_map = {}
    for eid in range(len(upper.graph.edges)):
        pos_hat, g = divmod(eid, n)
        cover_edge = cov.total.edges[pos_hat].id
        base_edge = cov.edge_to_base[cover_edge]
        edge_map[eid] = lower.base.edge_pos(base_edge) * n + g
    return ComplexMap(
        source=upper.graph,
        target=lower.graph,
        vertex_map=tuple(vertex_map),
        edge_map=edge_map,
    )
