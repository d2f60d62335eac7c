"""Derived graphs of voltage assignments: discrete principal bundles.

The total space of a flat voltage has vertex set (base vertex, group
element) and, for every base edge e and element g, one lifted edge from
(tail e, g) to (head e, g * w(e)).  Left translation by any group element is
then a graph automorphism commuting with the projection, which is the
structure-group action.  The connected component of the basepoint lift is
the holonomy bundle: its fiber over the basepoint is exactly the holonomy
group.

Fiber maps are right multiplications, so a bundle is stored as elements,
not |G|-long tables: over a spanning tree the sheet through (u, x) is
x * shift[u], and a non-tree edge maps sheet s to s * gamma.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress
from typing import Optional

from .complexes import BaseComplex, Edge, spanning_tree
from .connections import Voltage, _require_flat
from .covers import CoveringComplex
from .errors import ComplexError
from .groups import GroupTable, subgroup_closure
from .subgroups import CosetAutomaton


class LiftedEdges(Sequence):
    """The edges of a lifted graph, as ``Edge`` objects made on demand; a
    slice is the list that slicing ``list(self)`` gives."""

    __slots__ = ("_graph",)

    def __init__(self, graph: LiftedGraph):
        self._graph = graph

    def __len__(self) -> int:
        v = self._graph._voltage
        return len(v.complex.edges) * v.group.order

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return self._graph.edge(range(len(self))[i])


class LiftedGraph(BaseComplex):
    """The derived graph of a voltage, with its edges computed, not stored.

    Lifted edge ``p * |G| + x`` runs from (tail p, x) to (head p, x * w(p)):
    vertex ``tail(p) * |G| + x`` to vertex ``head(p) * |G| + x * w(p)``.  The
    map x -> x * w(p) is the fiber map of p, the group's column of w(p);
    the :class:`BaseComplex` queries (edges, edge lookup, stars, paths) are
    answered from the fiber maps and the base, without an ``Edge`` per lift.
    """

    __slots__ = ("_voltage", "_values")

    def __init__(self, v: Voltage):
        n = v.group.order
        self.vertex_count = v.complex.vertex_count * n
        self.basepoint = v.complex.basepoint * n  # the lift (basepoint, identity)
        self.relators = ()
        self._voltage = v
        self._values = v.as_tuple()
        self._validated = False
        self._tree = None

    @property
    def edges(self) -> LiftedEdges:
        """Made on each access, so that no graph points back at itself."""
        return LiftedEdges(self)

    def _fiber_map(self, p: int, sign: int = 1) -> tuple:
        """x -> x * w(p)^sign for the base edge at position p: with sign +1,
        the lift of p at x ends at element x * w(p); with sign -1, the lift
        ending at x starts at element x * w(p)^-1."""
        group = self._voltage.group
        return group.column(self._values[p] if sign > 0 else group.inverse[self._values[p]])

    def _fiber_maps(self, positions, sign: int = 1) -> list:
        """:meth:`_fiber_map` of each base edge position in ``positions``."""
        group, values = self._voltage.group, self._values
        column, inverse = group.column, group.inverse
        if sign > 0:
            return [column(values[p]) for p in positions]
        return [column(inverse[values[p]]) for p in positions]

    def edge(self, eid: int) -> Edge:
        base, n = self._voltage.complex, self._voltage.group.order
        p, x = divmod(self.edge_pos(eid), n)
        e = base.edges[p]
        return Edge(eid, e.tail * n + x, e.head * n + self._fiber_map(p)[x])

    def edge_pos(self, eid: int) -> int:
        if not 0 <= eid < len(self.edges):
            raise ComplexError(f"unknown edge id {eid}")
        return eid

    def star(self, v: int) -> list[tuple[int, int]]:
        """Edge-ends at (u, x): (p|G| + x, +1) out of it, and for base edges
        p into u, (p|G| + x w(p)^-1, -1) into it; same order as the base class."""
        base = self._voltage.complex
        n = self._voltage.group.order
        u, x = divmod(v, n)
        ends = []
        for eid, sign in base.star(u):
            p = base.edge_pos(eid)
            ends.append((p * n + (x if sign > 0 else self._fiber_map(p, -1)[x]), sign))
        ends.sort(key=lambda end: (end[0], -end[1]))
        return ends


class BundleComponents(Sequence):
    """The vertex ids of each component, ascending, listed from the stored
    shifts only when a component is asked for: (u, x) lies on sheet
    x * shift[u], so the fiber of component i over u is the x whose sheet
    lies in it.  A slice is a list, as for ``list(self)``."""

    __slots__ = ("_bundle",)

    def __init__(self, bundle: DerivedBundle):
        self._bundle = bundle

    def __len__(self) -> int:
        d = self._bundle
        return d.group.order // d.sheets

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        d = self._bundle
        n, column, sheet_component = d.group.order, d.group.column, d._sheet_component.__getitem__
        return tuple(
            chain.from_iterable(
                compress(range(u * n, u * n + n), map(i.__eq__, map(sheet_component, column(shift))))
                for u, shift in enumerate(d._shift)
            )
        )


@dataclass(frozen=True, eq=False)
class DerivedBundle:
    """Total space of a voltage assignment, with component decomposition.

    Vertex (v, g) has index v * |G| + g and the lift of base edge position p
    at element g has id p * |G| + g, so components, numbered by minimal
    vertex, follow (vertex, element) lexicographic order.  The graph is not
    necessarily connected: there are [|G| : |Hol|] components, and each is
    the union of ``sheets`` = |Hol| sheets (lifts of a spanning tree), each
    sheet with one vertex over every base vertex and one edge over every
    base edge.  It stores V + |G| entries, not |G| * V: the sheet through
    (u, x) is x * ``_shift[u]``, and sheet s lies in ``_sheet_component[s]``.
    """

    base: BaseComplex
    group: GroupTable
    voltage: Voltage
    graph: LiftedGraph
    _shift: tuple
    _sheet_component: tuple
    sheets: int
    base_lift: int

    @property
    def components(self) -> BundleComponents:
        return BundleComponents(self)

    def edge_pair(self, eid: int) -> tuple[int, int]:
        """(base edge position, group element) of a lifted edge id."""
        return divmod(eid, self.group.order)


def derived_bundle(c: BaseComplex, g: GroupTable, v: Voltage) -> DerivedBundle:
    """Build the derived graph of a flat voltage and its components.

    The lifts of a spanning tree split the graph into |G| sheets; sheet s is
    the one through (basepoint, s).  Fiber maps are right multiplications, so
    the sheet through (u, x) is x * shift[u], one element per base vertex
    carried out along the tree, and base edge p from t to h maps sheet s to
    s * gamma(p), gamma(p) = shift[t]^-1 * w(p) * shift[h] (e on tree edges).
    The component of sheet 0 is the subgroup H the gammas generate, and the
    components are its cosets s * H.  Only the lifted-edge rule is read,
    never the holonomy morphism, so the claim checks, which read the
    basepoint component's subgroup and sheet count off this bundle without
    extracting it, compare two independent computations.
    """
    if v.complex is not c:  # the voltage validated its complex
        raise ValueError("voltage is not defined on the given complex")
    if v.group is not g:
        raise ValueError("voltage takes values in a different group")
    _require_flat(v)
    graph = LiftedGraph(v)
    column, inverse, values = g.column, g.inverse, graph._values
    tree = spanning_tree(c)
    unshift = [0] * c.vertex_count  # shift[u]^-1
    for u in tree.order[1:]:
        eid, sign = tree.parent[u]
        # (parent, y) is joined to (u, y * w^sign), so (u, x) lies on the
        # sheet of (parent, x * w^-sign): shift[u] = w^-sign * shift[parent],
        # and its inverse is a column read, unshift[parent] * w^sign.
        w = values[c.edge_pos(eid)]
        unshift[u] = column(w if sign > 0 else inverse[w])[unshift[tree.up[u]]]
    gammas = set()
    for e, w in zip(c.edges, values):
        x, y = column(w)[unshift[e.tail]], unshift[e.head]
        if x != y:  # gamma = x * y^-1 is the identity on tree edges
            gammas.add(g.mul_inv(x, y))
    shift = [inverse[x] for x in unshift]
    # Sheets s and s * gamma share a component, so the components are the
    # orbits of the gammas' columns, the cosets of the subgroup H they
    # generate.  Every component meets fiber 0, so seeding orbits in order of
    # the sheets of (0, x), x ascending, numbers them by minimal vertex.
    gamma_columns = [column(gamma) for gamma in gammas]
    sheet_component = [None] * g.order
    count = 0
    for s in column(shift[0]):
        if sheet_component[s] is None:
            sheet_component[s] = count
            orbit = [s]
            for a in orbit:  # forward images suffice: the gammas generate a finite group
                for col in gamma_columns:
                    b = col[a]
                    if sheet_component[b] is None:
                        sheet_component[b] = count
                        orbit.append(b)
            count += 1
    return DerivedBundle(
        base=c,
        group=g,
        voltage=v,
        graph=graph,
        _shift=tuple(shift),
        _sheet_component=tuple(sheet_component),
        sheets=g.order // count,
        base_lift=graph.basepoint,
    )


def _lifted_loops(d: DerivedBundle, cover: Optional[CoveringComplex] = None) -> tuple[list, list]:
    """Each pi1 generator loop of the base lifted through the fiber maps of
    ``d``: letter c (2g for generator g, 2g + 1 for its inverse) carries the
    point (s, x) over the basepoint to (targets[c][s], x * elements[c][s]).
    With a cover, ``d`` is the bundle of the pulled-back voltage and s is
    the cover state; without one, s = 0.

    Base edge p moves (s, x) along the cover's edge s * E + p and then by
    that edge's fiber map.  Fiber maps are right multiplications, so a
    generator loop (its tree path out, its edge and its tree path back; its
    inverse runs the edge backwards) carries (s, x) to (t, x * g), one pair
    per state and letter: g is read through the loop's three fiber maps as
    c[b[a[0]]], where a[0] is the element the path out carries e to, each
    map the one of the lift leaving the state the loop is at.  Raises the
    automaton's ValueError where an inverse letter does not undo its loop.
    """
    fiber_maps, inverse = d.graph._fiber_maps, d.group.inverse
    base, k = (d.base, 1) if cover is None else (cover.base, cover.degree)
    V, E = base.vertex_count, len(base.edges)

    def moves(p: int, sign: int) -> tuple[list, list]:
        """The state each state s reaches along base edge p, and the fiber
        map of that step, as two lists indexed by s."""
        lifts = range(p, k * E, E)  # the cover's edge s * E + p over p, for each state s
        heads = [0] if cover is None else [cover.total.edges[q].head // V for q in lifts]
        if sign > 0:
            return heads, fiber_maps(lifts)
        tails, maps = [0] * k, [None] * k  # a -1 step runs the lift that ends at state t backwards
        for s, (t, m) in enumerate(zip(heads, fiber_maps(lifts, -1))):
            tails[t], maps[t] = s, m
        return tails, maps

    column = d.group.column
    tree = spanning_tree(base)
    # the tree path to u carries (s, e) to (reach[u][s], out[u][s]); the path
    # back from u carries (t, x) to (home[u][t], back[u][t][x])
    reach, out, home, back = [None] * V, [None] * V, [None] * V, [None] * V
    reach[base.basepoint], out[base.basepoint] = list(range(k)), [0] * k
    for u in tree.order[1:]:
        eid, sign = tree.parent[u]
        to, maps = moves(base.edge_pos(eid), sign)
        v = tree.up[u]
        reach[u] = [to[s] for s in reach[v]]
        out[u] = [maps[s][y] for s, y in zip(reach[v], out[v])]
    for u in range(V):
        home[u], back[u] = [0] * k, [None] * k
        for s, t, y in zip(range(k), reach[u], out[u]):
            home[u][t], back[u][t] = s, column(inverse[y])
    targets, elements = [], []
    for e in map(base.edge, tree.generators):
        p = base.edge_pos(e.id)
        for tail, sign, head in ((e.tail, 1, e.head), (e.head, -1, e.tail)):
            to, maps = moves(p, sign)
            ts, gs = [], []
            for s, a in zip(reach[tail], out[tail]):
                t = to[s]
                ts.append(home[head][t])
                gs.append(back[head][t][maps[s][a]])
            targets.append(ts)
            elements.append(gs)
    for i in range(len(tree.generators)):
        ts, gs = targets[2 * i + 1], elements[2 * i + 1]
        if any(ts[t] != s or gs[t] != inverse[g] for s, t, g in zip(range(k), targets[2 * i], elements[2 * i])):
            raise ValueError(f"transitions for generator {i} are not mutually inverse")
    return targets, elements


def _base_loop_elements(d: DerivedBundle) -> tuple:
    """The element each pi1 generator loop of the base, lifted at the
    basepoint's lift over e through the fiber maps of ``d``, ends at.  It
    equals the loop's holonomy when the bundle is right, but is read off
    the fiber maps, not off the voltage's holonomy morphism."""
    return tuple(gs[0] for gs in _lifted_loops(d)[1][0::2])


def _basepoint_subgroup(d: DerivedBundle, cover: CoveringComplex) -> CosetAutomaton:
    """The subgroup of pi1 of the base that the basepoint component of
    ``d``, the bundle of the voltage pulled back to ``cover``, defines as a
    covering of the base through the cover, read off the bundle without
    extracting it.

    The walk runs over the points (cover state s, element x) over the
    basepoint, each generator loop acting as :func:`_lifted_loops` gives
    it.  The points it reaches over state u are K * y(u), for the subgroup
    K of elements it reaches over state 0 and the element y(u) along the
    tree of the walk of the states, so it runs over (state, element of K).
    No gamma, holonomy morphism or automaton of H is read.
    """
    group = d.group
    column = group.column
    targets, elements = _lifted_loops(d, cover)
    rank = len(targets) // 2
    states = CosetAutomaton.from_action(rank, 0, targets)
    at, y = [0] * states.state_count, [0] * states.state_count  # walk state u: cover state at[u], element y[u]
    for u in range(1, states.state_count):
        v, c = states.parent[u], states.column[u]
        at[u], y[u] = targets[c][at[v]], column(elements[c][at[v]])[y[v]]
    # (u, x y(u)) goes to (v, x y(u) g) = (v, x gamma y(v)), gamma in K
    letters = [col for g in range(rank) for col in (states.forward[g], states.backward[g])]
    gammas = [
        [group.mul_inv(column(gs[s])[x], y[v]) for s, x, v in zip(at, y, col)] for gs, col in zip(elements, letters)
    ]
    fiber = subgroup_closure(group, set(chain.from_iterable(gammas))).members
    if len(fiber) == 1:
        return states
    where = {x: j for j, x in enumerate(fiber)}
    size = len(fiber)
    return CosetAutomaton.from_action(
        rank,
        0,
        [
            [v * size + where[x] for v, gamma in zip(col, row) for x in map(column(gamma).__getitem__, fiber)]
            for col, row in zip(letters, gammas)
        ],
    )
