"""Finite 2-complexes with basepoint: edges, relators, spanning trees, loops.

A complex is a directed multigraph plus a list of relator paths (the 2-cells).
Edges are oriented once; traversing an edge against its orientation is a
sign, not a second edge.  An edge path is a word of (edge id, sign) steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import ComplexError
from .words import Word, invert_word, reduce_word

EdgeWord = Word
_NO_LETTER = (None, None)  # the (letter, inverse) of a tree step


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int


class BaseComplex:
    """A finite directed multigraph with basepoint and relator paths.

    Construction checks referential integrity only; connectivity and relator
    closure are enforced by :func:`validate_complex` so that malformed inputs
    can be built and then rejected with a precise error.  The per-vertex
    incidence behind :meth:`star` is built once here, each edge-end as
    (edge id, sign, far vertex); the spanning tree is built once, by the
    validation's connectivity check, and kept with the validation flag.
    """

    __slots__ = (
        "vertex_count", "edges", "basepoint", "relators", "_pos", "_incidence", "_validated", "_tree",
    )

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[Edge],
        basepoint: int = 0,
        relators: Iterable[EdgeWord] = (),
    ):
        if vertex_count < 1:
            raise ComplexError("vertex count must be positive")
        edge_list = sorted(edges, key=lambda e: e.id)
        pos = {}  # edge id -> position in ascending-id order
        for i, e in enumerate(edge_list):
            if e.id in pos:
                raise ComplexError(f"duplicate edge id {e.id}")
            if not (0 <= e.tail < vertex_count and 0 <= e.head < vertex_count):
                raise ComplexError(f"edge {e.id} references a vertex out of range")
            pos[e.id] = i
        if not 0 <= basepoint < vertex_count:
            raise ComplexError(f"basepoint {basepoint} out of range")
        rel = []
        for k, w in enumerate(relators):
            for eid, sign in w:
                if eid not in pos:
                    raise ComplexError(f"relator {k} references unknown edge {eid}")
                if sign not in (1, -1):
                    raise ComplexError(f"relator {k} has invalid sign {sign}")
            rel.append(tuple(w))
        self.vertex_count = vertex_count
        self.edges = tuple(edge_list)
        self.basepoint = basepoint
        self.relators = tuple(rel)
        self._pos = pos
        incidence: list[list[tuple[int, int, int]]] = [[] for _ in range(vertex_count)]
        for e in self.edges:
            incidence[e.tail].append((e.id, 1, e.head))
            incidence[e.head].append((e.id, -1, e.tail))
        self._incidence = incidence
        self._validated = False
        self._tree = None

    @property
    def free_rank(self) -> int:
        """E - V + 1: the rank of the fundamental group before relators."""
        return len(self.edges) - self.vertex_count + 1

    def edge(self, eid: int) -> Edge:
        try:
            return self.edges[self._pos[eid]]
        except KeyError:
            raise ComplexError(f"unknown edge id {eid}") from None

    def edge_pos(self, eid: int) -> int:
        """Position of an edge in the ascending-id ordering."""
        try:
            return self._pos[eid]
        except KeyError:
            raise ComplexError(f"unknown edge id {eid}") from None

    def step_endpoints(self, step: tuple[int, int]) -> tuple[int, int]:
        """(from, to) vertices of a signed step."""
        eid, sign = step
        e = self.edge(eid)
        return (e.tail, e.head) if sign > 0 else (e.head, e.tail)

    def star(self, v: int) -> list[tuple[int, int]]:
        """Edge-ends at a vertex: (edge id, +1) for outgoing, (edge id, -1)
        for incoming; a loop contributes both ends.  Ordered by ascending
        edge id, the outgoing end of a loop first."""
        return [(eid, sign) for eid, sign, _ in self._incidence[v]]

    def path_vertices(self, w: EdgeWord, start: Optional[int] = None) -> list[int]:
        """Vertex itinerary of an edge word; raises if steps do not chain."""
        if not w:
            if start is None:
                start = self.basepoint
            return [start]
        first_from, _ = self.step_endpoints(w[0])
        if start is not None and start != first_from:
            raise ComplexError(f"path starts at vertex {first_from}, expected {start}")
        verts = [first_from]
        cur = first_from
        for step in w:
            frm, to = self.step_endpoints(step)
            if frm != cur:
                raise ComplexError(f"steps do not compose as a path at vertex {cur}")
            cur = to
            verts.append(cur)
        return verts

    def __repr__(self) -> str:
        return (
            f"BaseComplex(V={self.vertex_count}, E={len(self.edges)}, "
            f"relators={len(self.relators)})"
        )


def validate_complex(c: BaseComplex) -> BaseComplex:
    """Check connectivity and relator closure; returns the same complex.

    Connectivity is checked by the spanning-tree BFS, whose tree is kept on
    the complex; a complex built valid skips only the relator check."""
    if c._tree is None:
        c._tree = _breadth_first_tree(c)
    if not c._validated:
        for k, w in enumerate(c.relators):
            verts = c.path_vertices(w)
            if verts[0] != verts[-1]:
                raise ComplexError(f"relator {k} is not a closed path ({verts[0]} != {verts[-1]})")
        c._validated = True
    return c


@dataclass(frozen=True)
class SpanningTreeData:
    """Breadth-first spanning tree rooted at the basepoint.

    ``parent[v]`` is the signed step taken from the parent of v into v (None
    at the root) and ``up[v]`` is the vertex that step leaves from (the root
    maps to itself), so a walk down the tree reads no edge.  ``order`` lists
    the vertices in the order the search reached them, the root first.
    ``generators`` lists the non-tree edge ids in ascending order; they index
    the fundamental-group generators everywhere else.
    """

    parent: tuple
    up: tuple
    order: tuple
    generators: tuple

    def path_from_base(self, v: int) -> EdgeWord:
        """The unique reduced tree path basepoint -> v."""
        steps = []
        while self.parent[v] is not None:
            steps.append(self.parent[v])
            v = self.up[v]
        return tuple(reversed(steps))

    def path_to_base(self, v: int) -> EdgeWord:
        return invert_word(self.path_from_base(v))

    @cached_property
    def letters(self) -> dict:
        """Signed step on a non-tree edge -> (its generator letter, that
        letter's inverse).  Each letter is one shared tuple, so a letter
        followed by its inverse is found by identity."""
        out = {}
        for i, eid in enumerate(self.generators):
            fwd, bwd = (i, 1), (i, -1)
            out[eid, 1], out[eid, -1] = (fwd, bwd), (bwd, fwd)
        return out


def spanning_tree(c: BaseComplex) -> SpanningTreeData:
    """Deterministic BFS tree: edges explored in ascending id, forward
    orientation before reverse.  Built once per complex and kept on it."""
    return validate_complex(c)._tree


def _breadth_first_tree(c: BaseComplex) -> SpanningTreeData:
    base = c.basepoint
    parent: list = [None] * c.vertex_count
    up: list = [None] * c.vertex_count
    up[base] = base
    order = [base]
    for v in order:  # the list grows behind the walk: a breadth-first queue
        for eid, sign, u in c._incidence[v]:
            if up[u] is None:
                up[u], parent[u] = v, (eid, sign)
                order.append(u)
    if len(order) != c.vertex_count:
        missing = [u for u in range(c.vertex_count) if up[u] is None]
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise ComplexError(f"graph is disconnected; unreachable vertices {missing[:10]}{more}")
    tree = {step[0] for step in parent if step is not None}
    generators = tuple(e.id for e in c.edges if e.id not in tree)
    return SpanningTreeData(parent=tuple(parent), up=tuple(up), order=tuple(order), generators=generators)


def _closed_loop_word(path: Sequence[tuple], basepoint: int) -> Word:
    """One pass over a path given as (from, to, step, letter, inverse)
    entries, the letters of :attr:`SpanningTreeData.letters` or None on tree
    edges: check that the steps chain into a loop at the basepoint while
    rewriting it as generator letters, freely reduced."""
    cur = path[0][0] if path else basepoint
    start = cur
    out: list = [None]  # a sentinel below the reduced letters
    for frm, to, _, letter, inverse in path:
        if frm != cur:
            raise ComplexError(f"steps do not compose as a path at vertex {cur}")
        cur = to
        if letter is not None:
            if out[-1] is inverse:
                out.pop()
            else:
                out.append(letter)
    if start != basepoint or cur != basepoint:
        raise ComplexError("word is not a closed path at the basepoint")
    return tuple(out[1:])


@dataclass(frozen=True)
class Presentation:
    """Fundamental-group presentation: free generators from non-tree edges,
    relators rewritten through the tree."""

    generators: tuple  # non-tree edge ids, ascending
    relators: tuple  # reduced words over generator indices

    @property
    def rank(self) -> int:
        return len(self.generators)


def pi1_presentation(c: BaseComplex) -> Presentation:
    """Present the fundamental group at the basepoint, over the complex's
    spanning tree.

    Each relator, conjugated to the basepoint along tree paths, rewrites to
    its own non-tree letters freely reduced: the conjugating tree paths add
    only tree letters, which vanish.
    """
    t = validate_complex(c)._tree
    letters = t.letters
    relators = tuple(reduce_word(tuple(letters[s][0] for s in w if s in letters)) for w in c.relators if w)
    return Presentation(generators=t.generators, relators=relators)
