"""Graph helpers and reference loops that only the tests use.

They are written against the public complex and map interfaces and share no
lookup structure with the library, so the tests that use them stay
independent oracles.  The general route of Gross & Tucker's derived graphs
lives here: a path's holonomy walked edge by edge (``word_holonomy``), gauge
moves (``GaugeTransform``, ``apply_gauge``), the Schreier generators spelled
out over the library's transversal (``reidemeister_schreier``) or walked one
step at a time (``schreier_steps``, ``schreier_points``, and through them
h(H) and the first generator outside another subgroup), and, for any
``ComplexMap`` (a vertex/edge map between complexes, its incidence check
``check_map_incidence``), the star-bijection covering check (``lift_index``,
``is_covering_map``), the subgroup read off its sheets
(``subgroup_of_cover``) and composition (``compose_complex_maps``, through
the public constructor).  A cover's projection and the bundle map over it
(``projection``, ``induced_bundle_map``) are such maps, read off the id
layouts: cover vertex s V + u lies over u, cover edge s E + p over base
position p, and bundle vertex (or lifted edge) i |G| + x over i.  The
reference loops compute lifted relators and Schreier generators the long
way: every lift traced step by step, and
every Schreier word, over a transversal built here, freely reduced or
spelled out, evaluated and traced letter by letter.  Word strings are read
the long way too: every token matched, and every covering word walked
vertex by vertex before it is rewritten.  A closed permutation group is
checked against composition of its own permutations and its generators,
written out point by point (``compose``) rather than through the library's
kernel, and against a closure that inverts every element point by point
(``reference_closure``).  The normality test is checked against its
unpruned form, one deck map per generator (``normal_by_every_generator``).
A component of a derived bundle, or any vertex set of it, is extracted as
its own complex with its projection to the base, both made by the public,
validating constructors: the long way round that the claim checks, which
read the basepoint component off the bundle's sheets, do not take.  A
coset automaton's normal form is reached the long way too: an action's
orbit over the forward generators or a coset table's live cosets,
compacted, then checked and renumbered by a second walk.  A spanning tree
is searched the long way as well: each edge-end read through ``star`` and
``step_endpoints`` (``reference_spanning_tree``).  The brute-force holonomy
oracle (``oracle_holonomy``) enumerates closed paths at the basepoint, with
no tree and no morphism.  Coset enumeration has its plain HLT form here, two
columns per generator and every relator scanned
(``two_column_todd_coxeter``), and a cover is built the long way, one
``Edge`` per lift through the public constructor
(``reference_build_cover``).
"""

import re
from collections import deque
from dataclasses import dataclass

from flatconn.complexes import (
    _NO_LETTER,
    BaseComplex,
    Edge,
    SpanningTreeData,
    _closed_loop_word,
    pi1_presentation,
    spanning_tree,
    validate_complex,
)
from flatconn.connections import Voltage
from flatconn.covers import CoveringComplex, LiftedRelators
from flatconn.errors import ComplexError, EnumerationCapError, IncidenceError, IncompleteAutomatonError, InputError
from flatconn.groups import SubgroupSet, compose_perms, cycle_label, subgroup_closure
from flatconn.subgroups import CosetAutomaton, _rep_word
from flatconn.words import invert_word, reduce_word


def loop_to_generator_word(c, t, w):
    """Rewrite a loop at the basepoint as a reduced word in the non-tree
    edge generators, through the document reader's one-pass rewrite."""
    letters = t.letters
    path = [(*c.step_endpoints(step), step, *letters.get(step, _NO_LETTER)) for step in w]
    return _closed_loop_word(path, c.basepoint)


@dataclass(frozen=True, eq=False)
class ComplexMap:
    """A vertex/edge map between complexes.

    ``vertex_map`` is indexed by source vertex; ``edge_map`` sends source
    edge ids to target edge ids.  Orientation is preserved (a map never
    flips an edge); incidence is checked by :func:`check_map_incidence`.
    """

    source: BaseComplex
    target: BaseComplex
    vertex_map: tuple
    edge_map: dict

    def __post_init__(self):
        if len(self.vertex_map) != self.source.vertex_count:
            raise ValueError("vertex map must cover every source vertex")
        for v in self.vertex_map:
            if not 0 <= v < self.target.vertex_count:
                raise ValueError(f"vertex image {v} out of range")
        for e in self.source.edges:
            if e.id not in self.edge_map:
                raise ValueError(f"edge map missing source edge {e.id}")
        for eid, tid in self.edge_map.items():
            self.source.edge_pos(eid)
            self.target.edge_pos(tid)
        object.__setattr__(self, "edge_map", dict(self.edge_map))

    def map_step(self, step):
        eid, sign = step
        return (self.edge_map[eid], sign)


def check_map_incidence(m):
    """Raise IncidenceError unless the map respects tails and heads."""
    for e in m.source.edges:
        img = m.target.edges[m.target.edge_pos(m.edge_map[e.id])]
        if m.vertex_map[e.tail] != img.tail or m.vertex_map[e.head] != img.head:
            raise IncidenceError(
                f"edge {e.id} -> {img.id} does not respect incidences: "
                f"({m.vertex_map[e.tail]}, {m.vertex_map[e.head]}) vs ({img.tail}, {img.head})"
            )


def projection(cov):
    """The covering map of a cover, read off its id layout."""
    base = cov.base
    V, E = base.vertex_count, len(base.edges)
    vertex_map = tuple(v % V for v in range(cov.total.vertex_count))
    edge_map = {e.id: base.edges[e.id % E].id for e in cov.total.edges}
    return ComplexMap(cov.total, base, vertex_map, edge_map)


def induced_bundle_map(upper, lower, cov):
    """The bundle map over a covering: (v^, g) -> (q(v^), g) on vertices and
    likewise on lifted edges.  ``upper`` must be the derived bundle of the
    pulled-back voltage on ``cov.total`` and ``lower`` the bundle downstairs."""
    if upper.base is not cov.total or lower.base is not cov.base:
        raise ValueError("bundles do not sit over the given covering")
    if upper.group is not lower.group:
        raise ValueError("bundles carry different structure groups")
    n, V, E = upper.group.order, cov.base.vertex_count, len(cov.base.edges)
    vertex_map = tuple((i // n % V) * n + i % n for i in range(upper.graph.vertex_count))
    edge_map = {i: (i // n % E) * n + i % n for i in range(len(upper.graph.edges))}
    # a bundle's graph is not a complex: each is stored as one, based at its basepoint lift
    source, target = (
        BaseComplex(d.graph.vertex_count, list(d.graph.edges), basepoint=d.base.basepoint * d.group.order)
        for d in (upper, lower)
    )
    return ComplexMap(source, target, vertex_map, edge_map)


def tree_edges(t):
    """The ids of a spanning tree's edges, read off its parent steps."""
    return frozenset(step[0] for step in t.parent if step is not None)


def word_holonomy(v, w, start=None):
    """Left-to-right product of edge voltages along a path."""
    v.complex.path_vertices(w, start=start)  # validates that w is a path
    return v.group.evaluate_word(v.assignment, w)


@dataclass(frozen=True)
class GaugeTransform:
    """A vertex -> group element change of fiber trivialization."""

    values: tuple

    def at(self, v):
        return self.values[v]


def apply_gauge(v, t):
    """Transformed voltage t(tail)^-1 * w(e) * t(head).

    Loop products telescope, so the holonomy morphism is conjugated by the
    gauge value at the basepoint; flatness is preserved.
    """
    if len(t.values) != v.complex.vertex_count:
        raise ValueError("gauge transform must assign a value to every vertex")
    g = v.group
    new = {e.id: g.mul(g.mul(g.inverse[t.at(e.tail)], v.on_edge(e.id)), t.at(e.head)) for e in v.complex.edges}
    return Voltage(v.complex, g, new)


def schreier_steps(a):
    """The steps s -> t = s g of the non-trivial Schreier generators
    rep(s) * g * rep(t)^-1 of a complete automaton, in (state, generator)
    order, as (s, g, t), one step at a time.

    The generator is trivial exactly on a tree step, where rep(t) = rep(s) g
    or rep(s) = rep(t) g^-1, and freely reduced as written otherwise; for a
    free group of rank r and index d there are d(r-1)+1 of them.
    """
    if not a.complete:
        raise IncompleteAutomatonError("Schreier generators require a complete automaton")
    column = a.column
    for s in range(a.state_count):
        up = column[s]
        for g, col in enumerate(a.forward):
            t = col[s]
            if column[t] != 2 * g and up != 2 * g + 1:
                yield s, g, t


def schreier_points(a, forward, backward):
    """Where the Schreier generators of a complete automaton a take point 0
    of another right action, one step at a time: pot(s), the point rep(s)
    reaches, carried down the transversal, then (s, g, x, y) for each step of
    :func:`schreier_steps`, with x = pot(s) g (None where undefined) and
    y = pot(s g).  The action's columns may hold None."""
    moves = [col for g in range(a.rank) for col in (forward[g], backward[g])]
    pot = [0] * a.state_count
    for t in range(1, a.state_count):
        x = pot[a.parent[t]]
        pot[t] = None if x is None else moves[a.column[t]][x]
    for s, g, t in schreier_steps(a):
        x = pot[s]
        yield s, g, None if x is None else forward[g][x], pot[t]


def stepwise_restricted_image(inst):
    """h(H) from every Schreier step's pair (x, y) on its own."""
    g, images = inst.group, inst.morphism.images
    forward = [g.column(h) for h in images]
    backward = [g.column(g.inverse[h]) for h in images]
    points = schreier_points(inst.subgroup_aut, forward, backward)
    return subgroup_closure(g, {g.mul_inv(x, y) for _, _, x, y in points})


def stepwise_first_step_outside(a, b):
    """The first Schreier step (s, g) of a whose generator b does not accept,
    every step read on its own; b may be partial."""
    points = schreier_points(a, b.forward, b.backward)
    return next(((s, g) for s, g, x, y in points if x is None or x != y), None)


def reidemeister_schreier(a, presentation):
    """Schreier generators rep(s) * g * rep(s g)^-1 with trivial ones dropped,
    in the (state, generator) order of :func:`schreier_steps`."""
    steps = list(schreier_steps(a))  # an incomplete automaton raises before the rank check
    if presentation.rank != a.rank:
        raise ValueError("presentation rank does not match automaton alphabet")
    reps = [_rep_word(a, t) for t in range(a.state_count)]
    inverses = [invert_word(w) for w in reps]
    return [reps[s] + ((g, 1),) + inverses[t] for s, g, t in steps]


def lift_index(m):
    """Per source vertex: the target edge-end 2 t (out of target edge t) or
    2 t + 1 (into it) -> the source edge whose end there lifts it; None
    unless the edge-ends at every source vertex map one to one (no key is
    taken twice) and onto (as many keys as ends at the image vertex).
    Incidence is checked first, so every key is such an end."""
    check_map_incidence(m)
    idx = [{} for _ in range(m.source.vertex_count)]
    for e in m.source.edges:
        out = 2 * m.edge_map[e.id]
        if idx[e.tail].setdefault(out, e.id) != e.id or idx[e.head].setdefault(out + 1, e.id) != e.id:
            return None
    for v, ends in enumerate(idx):
        if len(ends) != len(star(m.target, m.vertex_map[v])):
            return None
    return idx


def is_covering_map(m):
    """Star bijectivity at every source vertex (loops count twice).

    Incidence violations raise; a failed bijection returns False.
    """
    return lift_index(m) is not None


def subgroup_of_cover(m, base_lift):
    """The subgroup of base loops whose lift at the base lift is closed.

    The lifts of the base's spanning tree at the fiber points are the sheets,
    labelled in one pass down the tree; generator i moves sheet(tail) to
    sheet(head) along each lift of its edge, and its inverse moves back.
    States are the sheets reached from the base lift's: for a connected
    source, every sheet.
    """
    end_index = lift_index(m)
    if end_index is None:
        raise IncidenceError("subgroup extraction requires a covering map")
    base, source = m.target, m.source
    if m.vertex_map[base_lift] != base.basepoint:
        raise ValueError("base lift does not sit over the basepoint")
    tree = spanning_tree(base)
    lifts = [()] * base.vertex_count  # lifts[u][k]: the vertex over u on sheet k
    lifts[base.basepoint] = [x for x, u in enumerate(m.vertex_map) if u == base.basepoint]
    for u in tree.order[1:]:
        step = tree.parent[u]
        end = 2 * step[0] + (step[1] < 0)
        lifts[u] = [
            source.step_endpoints((end_index[x][end], step[1]))[1]
            for x in lifts[base.step_endpoints(step)[0]]
        ]
    sheet = [0] * source.vertex_count
    for row in lifts:
        for k, x in enumerate(row):
            sheet[x] = k

    # letter 2i leaves the tail of generator i's edge by its end 2 t, letter
    # 2i + 1 leaves the head by its end 2 t + 1
    ends = [
        (base.step_endpoints((eid, sign))[0], 2 * eid + (sign < 0), sign)
        for eid in tree.generators
        for sign in (1, -1)
    ]

    moves = [
        [sheet[source.step_endpoints((end_index[x][end], sign))[1]] for x in lifts[at]]
        for at, end, sign in ends
    ]
    return CosetAutomaton.from_action(len(tree.generators), sheet[base_lift], moves)


def compose_complex_maps(f, g):
    """g after f; requires f.target is g.source."""
    if f.target is not g.source:
        raise ValueError("maps do not compose: target/source mismatch")
    return ComplexMap(
        f.source,
        g.target,
        tuple(g.vertex_map[v] for v in f.vertex_map),
        {eid: g.edge_map[t] for eid, t in f.edge_map.items()},
    )


def lift_path(m, w, start):
    """The unique lift of a target path starting at a given source vertex,
    read through a per-vertex end index built here."""
    end_index = [dict() for _ in range(m.source.vertex_count)]
    for e in m.source.edges:
        end_index[e.tail][(m.edge_map[e.id], 1)] = e.id
        end_index[e.head][(m.edge_map[e.id], -1)] = e.id
    cur = start
    lifted = []
    for eid, sign in w:
        try:
            src_edge = end_index[cur][(eid, sign)]
        except KeyError:
            raise ComplexError(f"no lift of edge {eid} (sign {sign}) at source vertex {cur}") from None
        lifted.append((src_edge, sign))
        cur = m.source.step_endpoints((src_edge, sign))[1]
    return tuple(lifted)


def induced_projection(d, vertices, basepoint):
    """The subcomplex of the derived graph of ``d`` induced on the ascending
    vertex ids ``vertices``, and its projection to the base.  Local vertex i
    is vertices[i], local edge j is the j-th lift, in id order, with both
    ends in the set, and the basepoint is the local vertex of ``basepoint``.
    Returns the projection and the lifted edge ids."""
    n, base, lifted = d.group.order, d.base, d.graph.edges
    local = {v: i for i, v in enumerate(vertices)}
    out_of = [[] for _ in range(base.vertex_count)]  # base edge positions by tail
    for p, e in enumerate(base.edges):
        out_of[e.tail].append(p)
    # the lifts out of (u, x) are p |G| + x for the base edges p out of u
    out = sorted(p * n + v % n for v in vertices for p in out_of[v // n])
    lifts = [e for e in map(lifted.__getitem__, out) if e.head in local]
    edges = [Edge(j, local[e.tail], local[e.head]) for j, e in enumerate(lifts)]
    sub = BaseComplex(len(vertices), edges, basepoint=local[basepoint])
    edge_map = {j: d.base.edges[e.id // n].id for j, e in enumerate(lifts)}
    return ComplexMap(sub, d.base, tuple(v // n for v in vertices), edge_map), tuple(e.id for e in lifts)


def holonomy_projection(d):
    """The holonomy bundle of ``d``, the component of the basepoint lift,
    as the projection of its own complex, based at that lift."""
    return induced_projection(d, d.components[d._sheet_component[0]], d.base.basepoint * d.group.order)[0]


def cover_nx(inst):
    """The holonomy bundle upstairs: the basepoint component of the
    pulled-back bundle, as :func:`holonomy_projection`."""
    return holonomy_projection(inst.cover_bundle)


def composite_map(inst, nx=None):
    """The covering N(basepoint lift upstairs) -> base, through the cover;
    ``nx`` is :func:`cover_nx` of the instance, if already extracted."""
    return compose_complex_maps(nx or cover_nx(inst), projection(inst.cover))


def covering_degree(m):
    """Number of sheets: the size of the fiber over the target basepoint."""
    return sum(1 for v in m.vertex_map if v == m.target.basepoint)


def left_translation(d, g):
    """Vertex permutation (v, x) -> (v, g * x) of a derived bundle; an
    automorphism over the base."""
    n = d.group.order
    row = [d.group.mul(g, x) for x in range(n)]
    return tuple((idx // n) * n + row[idx % n] for idx in range(d.graph.vertex_count))


def compose(p, q):
    """Apply p, then q, one point at a time: the composition the library's
    ``compose_perms`` kernel is checked against."""
    return tuple(q[x] for x in p)


def reference_closure(degree, gens):
    """The closure of ``gens`` the long way, numbered as the library numbers
    it: breadth-first from the identity, generators in input order.
    Returns (perms, index, inverse, parent, via, columns), with each
    inverse found by inverting a permutation point by point and
    ``columns[k][i]`` the index of perms[i] * gens[k]."""
    gens = [tuple(p) for p in gens]
    identity = tuple(range(degree))
    perms, index, parent, via = [identity], {identity: 0}, [0], [0]
    columns = [[] for _ in gens]
    i = 0
    while i < len(perms):
        for k, gen in enumerate(gens):
            q = compose(perms[i], gen)
            if q not in index:
                index[q] = len(perms)
                perms.append(q)
                parent.append(i)
                via.append(k)
            columns[k].append(index[q])
        i += 1
    inverse = []
    for p in perms:
        inv = [0] * degree
        for x, y in enumerate(p):
            inv[y] = x
        inverse.append(index[tuple(inv)])
    return perms, index, inverse, parent, via, columns


def normal_by_every_generator(a):
    """The deck-map normality test without pruning: one map 0 -> 0.g built
    along both transition tables for every generator g that moves state 0,
    O(n r^2) for n states and rank r.  The library's test skips a generator
    whose 0.g the maps found so far already reach."""
    columns = a.forward + a.backward
    for start in (col[0] for col in a.forward):
        if start == 0:
            continue
        phi = [None] * a.state_count
        phi[0] = start
        queue = [0]
        for s in queue:
            image = phi[s]
            for col in columns:
                t, u = col[s], col[image]
                if phi[t] is None:
                    phi[t] = u
                    queue.append(t)
                elif phi[t] != u:
                    return False
    return True


def check_permutation_group(g, gens, labels=None):
    """The group oracle for a group closed from ``gens``: its permutations
    are distinct, the identity first, and ``index`` inverts them; each
    generator's column is composition and the group is closed under the
    generators; the closure tree and the inverses hold by composition; and
    caller labels are kept, or else each label is the cycle label."""
    n = g.order
    gens = [tuple(p) for p in gens]
    identity = tuple(range(len(g.perms[0])))
    assert len(g.perms) == n and g.perms[0] == identity
    assert all(sorted(p) == list(identity) for p in g.perms)
    assert len(set(g.perms)) == n == len(g.index)
    assert all(g.index[p] == a for a, p in enumerate(g.perms))
    for gen in gens:
        # a product outside the group is a KeyError here
        assert g.column(g.index[gen]) == tuple(g.index[compose(p, gen)] for p in g.perms)
    for i in range(1, n):
        assert g.perms[i] == compose(g.perms[g.parent[i]], gens[g.via[i]])
    for a in range(n):
        p, q = g.perms[a], g.perms[g.inverse[a]]
        assert compose(p, q) == identity == compose(q, p)
    expected = [str(x) for x in labels] if labels is not None else [cycle_label(p) for p in g.perms]
    assert [g.label(a) for a in range(n)] == expected


def graph_diameter(c):
    """Diameter of the underlying undirected graph of a connected complex."""
    neighbors = [set() for _ in range(c.vertex_count)]
    for e in c.edges:
        neighbors[e.tail].add(e.head)
        neighbors[e.head].add(e.tail)
    diameter = 0
    for start in range(c.vertex_count):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in neighbors[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        diameter = max(diameter, max(dist.values()))
    return diameter


def eager_lifted_relators(c, a):
    """The lifted relators of the cover of c by the automaton a, as one list:
    each non-empty relator traced from each state in turn, step by step
    through the transition of each edge."""
    gen_index = {eid: i for i, eid in enumerate(spanning_tree(c).generators)}
    E = len(c.edges)

    def fwd_state(eid, s):
        g = gen_index.get(eid)
        return s if g is None else a.forward[g][s]

    def bwd_state(eid, s):
        g = gen_index.get(eid)
        return s if g is None else a.backward[g][s]

    lifted = []
    for k, rel in enumerate(c.relators):
        if not rel:
            continue
        for s in range(a.state_count):
            cur = s
            steps = []
            for eid, sign in rel:
                pos = c.edge_pos(eid)
                if sign > 0:
                    steps.append((cur * E + pos, 1))
                    cur = fwd_state(eid, cur)
                else:
                    src = bwd_state(eid, cur)
                    steps.append((src * E + pos, -1))
                    cur = src
            if cur != s:
                raise ComplexError(f"relator {k} does not close over state {s}")
            lifted.append(tuple(steps))
    return lifted


def reduced_schreier_words(a):
    """The non-trivial Schreier generators rep(s) * g * rep(s g)^-1 of a
    complete automaton, each freely reduced, in (state, generator) order over
    :func:`breadth_first_reps`."""
    reps = breadth_first_reps(a)
    words = []
    for s in range(a.state_count):
        for g in range(a.rank):
            w = reduce_word(reps[s] + ((g, 1),) + invert_word(reps[a.forward[g][s]]))
            if w:
                words.append(w)
    return words


def breadth_first_reps(a):
    """Coset representative words, built letter by letter: each state gets
    its first word in a walk of the states in number order, letters in the
    order g0, g0^-1, g1, ...; state 0 gets the empty word."""
    reps = [None] * a.state_count
    reps[0] = ()
    for s in range(a.state_count):
        for g in range(a.rank):
            for col, sign in ((a.forward, 1), (a.backward, -1)):
                t = col[g][s]
                if t is not None and reps[t] is None:
                    reps[t] = reps[s] + ((g, sign),)
    return reps


def spelled_schreier_words(a):
    """The non-trivial Schreier generators rep(s) * g * rep(s g)^-1 of a
    complete automaton, spelled out in (state, generator) order over
    :func:`breadth_first_reps`."""
    reps = breadth_first_reps(a)
    last = [w[-1] if w else None for w in reps]
    words = []
    for s in range(a.state_count):
        for g, col in enumerate(a.forward):
            t = col[s]
            if last[t] != (g, 1) and last[s] != (g, -1):
                words.append(reps[s] + ((g, 1),) + invert_word(reps[t]))
    return words


def word_path_image(a, morphism):
    """h(H) the long way: every spelled-out Schreier generator evaluated."""
    g = morphism.group
    return subgroup_closure(g, [g.evaluate_word(morphism.images, w) for w in spelled_schreier_words(a)])


def word_path_outside(a, b):
    """The first spelled-out Schreier generator of a that b does not accept,
    traced letter by letter; None if there is none."""
    return next((w for w in spelled_schreier_words(a) if b.trace(w) != 0), None)


_TOKEN_RE = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z_0-9]*)(?P<inv>\^-1)?$")


def parse_word_string(text, aliases, known_edges, location):
    """Parse "e3 a^-1 b" into an edge word, matching every token."""
    steps = []
    for tok in text.split():
        m = _TOKEN_RE.match(tok)
        if not m:
            raise InputError(f"cannot parse word token {tok!r}", location)
        name = m.group("name")
        sign = -1 if m.group("inv") else 1
        if name in aliases:
            eid = aliases[name]
        elif name.startswith("e") and name[1:].isdigit():
            eid = int(name[1:])
        else:
            raise InputError(f"unknown edge or alias {name!r} in word", location)
        if eid not in known_edges:
            raise InputError(f"word references unknown edge {eid}", location)
        steps.append((eid, sign))
    return tuple(steps)


def reference_loop_word(c, t, w):
    """A loop at the basepoint as a reduced generator word: the vertex
    itinerary first, then the non-tree letters, then free reduction."""
    verts = c.path_vertices(w)
    if verts[0] != c.basepoint or verts[-1] != c.basepoint:
        raise ComplexError("word is not a closed path at the basepoint")
    gen_index = {eid: i for i, eid in enumerate(t.generators)}
    return reduce_word(tuple((gen_index[eid], sign) for eid, sign in w if eid in gen_index))


def reference_covering_words(texts, c, aliases):
    """The generator words of a covering's word strings, each parsed by
    :func:`parse_word_string` and rewritten by :func:`reference_loop_word`,
    with the document reader's error texts and locations."""
    tree = spanning_tree(c)
    known = {e.id for e in c.edges}
    words = []
    for k, text in enumerate(texts):
        loc = f"/covering/words/{k}"
        ew = parse_word_string(text, aliases, known, loc)
        try:
            words.append(reference_loop_word(c, tree, ew))
        except ComplexError as exc:
            raise InputError(f"covering word must be a closed loop at the basepoint: {exc}", loc) from None
    return tuple(words)


def automaton_fields(a):
    """Every field of a coset automaton, in the order the oracles below
    return them."""
    return a.rank, a.forward, a.backward, a.complete, a.parent, a.column


def renumbered_fields(rank, forward, backward):
    """The breadth-first normal form of a coset table the long way: check
    that the columns are mutually inverse at every state, walk from state 0
    taking letters in the order g0, g0^-1, g1, ..., and renumber every
    column through the map that walk built.  Returns the fields of
    :func:`automaton_fields`."""
    state_count = len(forward[0]) if rank else 1
    fwd = [list(col) for col in forward]
    bwd = [list(col) for col in backward]
    if rank and any(len(col) != state_count for col in fwd + bwd):
        raise ValueError("transition columns have inconsistent lengths")
    for g in range(rank):
        for s in range(state_count):
            t, u = fwd[g][s], bwd[g][s]
            if (t is not None and bwd[g][t] != s) or (u is not None and fwd[g][u] != s):
                raise ValueError(f"transitions for generator {g} are not mutually inverse")
    letters = list(enumerate(col for g in range(rank) for col in (fwd[g], bwd[g])))
    order, remap, parent, column = [0], {0: 0}, [0], [-1]
    for new, old in enumerate(order):
        for c, col in letters:
            t = col[old]
            if t is not None and t not in remap:
                remap[t] = len(order)
                order.append(t)
                parent.append(new)
                column.append(c)

    def renumber(cols):
        return tuple(tuple(None if col[old] is None else remap[col[old]] for old in order) for col in cols)

    forward, backward = renumber(fwd), renumber(bwd)
    complete = all(t is not None for col in forward + backward for t in col)
    return rank, forward, backward, complete, tuple(parent), tuple(column)


def discover_then_renumber(rank, start, act):
    """The automaton of a permutation action the long way: the orbit of
    start found over the forward generators alone (``act(x, g)`` for
    generator g), the backward columns filled by inverting the forward
    ones, then :func:`renumbered_fields`."""
    index, points = {start: 0}, [start]
    forward = [[] for _ in range(rank)]
    for x in points:
        for g in range(rank):
            y = act(x, g)
            if y not in index:
                index[y] = len(points)
                points.append(y)
            forward[g].append(index[y])
    backward = [[None] * len(points) for _ in range(rank)]
    for g in range(rank):
        for s, t in enumerate(forward[g]):
            backward[g][t] = s
    return renumbered_fields(rank, forward, backward)


def compact_then_renumber(table):
    """The automaton of a finished coset table the long way: the live
    cosets compacted in number order, every entry read through the
    union-find and the compaction, then :func:`renumbered_fields`.  Each
    letter reads its column through the table's letter map, so both letters
    of an involution read its one column."""
    live = [x for x, px in enumerate(table.parent) if px == x]
    remap = {x: i for i, x in enumerate(live)}
    columns = [
        [None if table.table[x][c] is None else remap[table.find(table.table[x][c])] for x in live]
        for c in table.letter
    ]
    return renumbered_fields(table.rank, columns[0::2], columns[1::2])


def star(c, v):
    """Edge-ends at a vertex: (edge id, +1) for outgoing, (edge id, -1) for
    incoming; a loop contributes both ends.  Ordered by ascending edge id,
    the outgoing end of a loop first: the complex's incidence entries
    without their far vertices."""
    return [(eid, sign) for eid, sign, _ in c._incidence[v]]


def reference_spanning_tree(c):
    """The breadth-first spanning tree the long way: each edge-end of the
    vertex's star, in star order, resolved through ``step_endpoints``."""
    base = c.basepoint
    parent = [None] * c.vertex_count
    up = [None] * c.vertex_count
    up[base] = base
    order = [base]
    for v in order:
        for step in star(c, v):
            _, u = c.step_endpoints(step)
            if up[u] is None:
                up[u], parent[u] = v, step
                order.append(u)
    tree = {step[0] for step in parent if step is not None}
    generators = tuple(e.id for e in c.edges if e.id not in tree)
    return SpanningTreeData(parent=tuple(parent), up=tuple(up), order=tuple(order), generators=generators)


@dataclass(frozen=True)
class OracleResult:
    subgroup: SubgroupSet
    stabilized: bool
    max_length: int


def oracle_holonomy(c: BaseComplex, v: Voltage, max_length: int) -> OracleResult:
    """Brute-force holonomy oracle, independent of trees and morphisms.

    Enumerates every closed edge path at the basepoint of length up to
    ``max_length`` by depth-first search, collects the holonomy values and
    returns their closure.  The result is sound; it is complete when the
    stabilization witness holds: the closure is unchanged between lengths
    max_length - 2 and max_length.  (Enumeration stops early once the raw
    values already exhaust the group, which cannot change either closure.)
    """
    if max_length < 2:
        raise ValueError("max_length must be at least 2")
    validate_complex(c)
    g = v.group
    order = g.order
    base = c.basepoint
    ends: list[list[tuple[int, tuple]]] = [[] for _ in range(c.vertex_count)]  # (next vertex, step's column)
    for e in c.edges:
        w = v.on_edge(e.id)
        ends[e.tail].append((e.head, g.column(w)))
        ends[e.head].append((e.tail, g.column(g.inverse[w])))
    short_cut = max_length - 2
    vals_full = {0}
    vals_short = {0}
    stack = [(base, 0, 0)]
    while stack:
        vtx, acc, depth = stack.pop()
        if len(vals_short) == order:
            break
        nd = depth + 1
        for nv, col in ends[vtx]:
            ng = col[acc]
            if nv == base:
                vals_full.add(ng)
                if nd <= short_cut:
                    vals_short.add(ng)
            if nd < max_length:
                stack.append((nv, ng, nd))
    closure_full = subgroup_closure(g, vals_full)
    if len(vals_short) == order:
        return OracleResult(closure_full, True, max_length)
    closure_short = subgroup_closure(g, vals_short)
    return OracleResult(
        closure_full, closure_short.members == closure_full.members, max_length
    )


def presentation_of(relators, rank=2):
    """The presentation of a one-vertex complex with ``rank`` loops and the
    given relator paths."""
    c = BaseComplex(1, [Edge(i, 0, 0) for i in range(rank)], relators=relators)
    return pi1_presentation(c)


def coxeter_presentation(degree):
    """S_degree by its Coxeter presentation on degree - 1 involutions s_i:
    s_i^2, (s_i s_{i+1})^3 and (s_i s_j)^2 for j > i + 1."""
    n = degree - 1
    relators = []
    for i in range(n):
        relators.append(((i, 1), (i, 1)))
        for j in range(i + 1, n):
            relators.append(((i, 1), (j, 1)) * (3 if j == i + 1 else 2))
    return presentation_of(relators, rank=n)


class TwoColumnTable:
    """The HLT coset table with two columns per generator: column 2g holds
    generator g and column 2g+1 its inverse, so ``c ^ 1`` is the inverse
    column, even for a generator of order two.  ``defined`` counts the
    cosets defined."""

    def __init__(self, rank, cap=None):
        self.rank = rank
        self.table = [[None] * (2 * rank)]
        self.parent = [0]
        self.cap = cap
        self.defined = 0

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def define(self, alpha, c):
        if self.cap is not None and len(self.table) >= self.cap:
            raise EnumerationCapError(f"enumeration did not complete within cap ({self.cap} cosets)")
        beta = len(self.table)
        row = [None] * (2 * self.rank)
        row[c ^ 1] = alpha
        self.table.append(row)
        self.parent.append(beta)
        self.table[alpha][c] = beta
        self.defined += 1

    def merge(self, x, y, queue):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            mu, nu = (rx, ry) if rx < ry else (ry, rx)
            self.parent[nu] = mu
            queue.append(nu)

    def coincidence(self, alpha, beta):
        table, find = self.table, self.find
        queue = deque()
        self.merge(alpha, beta, queue)
        while queue:
            gamma = queue.popleft()
            for c, delta in enumerate(table[gamma]):
                if delta is None:
                    continue
                table[delta][c ^ 1] = None
                mu, nu = find(gamma), find(delta)
                if table[mu][c] is not None:
                    self.merge(nu, table[mu][c], queue)
                elif table[nu][c ^ 1] is not None:
                    self.merge(mu, table[nu][c ^ 1], queue)
                else:
                    table[mu][c] = nu
                    table[nu][c ^ 1] = mu

    def scan_and_fill(self, alpha, cols):
        table = self.table
        f, b = alpha, alpha
        i, j = 0, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][cols[j] ^ 1] is not None:
                b = table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            self.define(f, cols[i])


def two_column_todd_coxeter(presentation, words, cap=None):
    """Plain HLT coset enumeration of H = <words>, two columns per
    generator: the words scanned and filled at coset 0, then every relator
    (a square g^2 included) scanned and filled at each live coset in input
    order, and the remaining gaps defined in column order.  Returns the
    automaton of the finished table and the number of cosets defined."""
    rank = presentation.rank
    ct = TwoColumnTable(rank, cap)

    def columns(w):
        return [2 * sym + (sign < 0) for sym, sign in w]

    for w in words:
        w = reduce_word(tuple(w))
        if w:
            ct.scan_and_fill(0, columns(w))
    relators = [columns(rel) for rel in presentation.relators if rel]
    alpha = 0
    while alpha < len(ct.table):
        if ct.parent[alpha] == alpha:
            for rel in relators:
                ct.scan_and_fill(alpha, rel)
                if ct.parent[alpha] != alpha:
                    break
            else:
                for c in range(2 * rank):
                    if ct.table[alpha][c] is None:
                        ct.define(alpha, c)
        alpha += 1
    moves = [[None] * len(ct.table) for _ in range(2 * rank)]
    for x, px in enumerate(ct.parent):
        if px == x:
            for c, y in enumerate(ct.table[x]):
                if y is not None:
                    moves[c][x] = ct.find(y)
    return CosetAutomaton.from_action(rank, 0, moves), ct.defined


def reference_build_cover(c, a):
    """The cover of c by a complete automaton the long way: one ``Edge``
    per lift s E + p, from s V + tail(p) to a's state after p times V plus
    head(p), built by the public constructor from the edge list; every
    relator traced from every state, state by state."""
    tree = spanning_tree(c)
    gen_index = {eid: i for i, eid in enumerate(tree.generators)}
    n, V, E = a.state_count, c.vertex_count, len(c.edges)
    identity = range(n)
    fwd = [identity if e.id not in gen_index else a.forward[gen_index[e.id]] for e in c.edges]
    bwd = [identity if e.id not in gen_index else a.backward[gen_index[e.id]] for e in c.edges]
    edges = [Edge(s * E + p, s * V + e.tail, fwd[p][s] * V + e.head) for s in range(n) for p, e in enumerate(c.edges)]
    relators = []
    for k, rel in enumerate(c.relators):
        if not rel:
            continue
        steps = [(c.edge_pos(eid), sign) for eid, sign in rel]
        ends = identity
        for p, sign in steps:
            ends = compose_perms(ends, (fwd if sign > 0 else bwd)[p])
        for s, t in enumerate(ends):
            if t != s:
                raise ComplexError(f"relator {k} does not close over state {s}")
        relators.append(tuple(steps))
    total = BaseComplex(n * V, edges, basepoint=c.basepoint)
    total.relators = LiftedRelators(relators, fwd, bwd, n, E)
    total._validated = True
    return CoveringComplex(base=c, automaton=a, total=total)
