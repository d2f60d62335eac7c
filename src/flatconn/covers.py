"""Covering complexes: construction from coset automata.

A covering built from a coset automaton is the derived graph of a
permutation voltage: it has vertex set (state, base vertex), a tree edge
stays within a sheet, and a non-tree edge's lifts move sheets by its
automaton column, which is read once per lift.  Lifted relators are traced
through the same columns to check that they close, and are listed only
when read.  Every cover carries an explicit base lift, the vertex
(state 0, basepoint), at which its subgroup is based.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .complexes import BaseComplex, Edge, spanning_tree
from .errors import ComplexError, IncidenceError, IncompleteAutomatonError
from .subgroups import CosetAutomaton


@dataclass(frozen=True, eq=False)
class CoveringComplex:
    """A covering of a base complex built from a coset automaton.

    The id layout is the covering map: vertex s * V + u of the total space
    lies over base vertex u, and edge s * E + p over the base edge at
    position p, for state s, V base vertices and E base edges.
    """

    base: BaseComplex
    automaton: CosetAutomaton
    total: BaseComplex
    base_lift: int

    @property
    def degree(self) -> int:
        return self.automaton.state_count


def check_incidence(cov: CoveringComplex) -> None:
    """Raise IncidenceError unless every lift s * E + p runs from a vertex
    over tail(p) to a vertex over head(p)."""
    base = cov.base
    V, E = base.vertex_count, len(base.edges)
    for e in cov.total.edges:
        img = base.edges[e.id % E]
        if e.tail % V != img.tail or e.head % V != img.head:
            raise IncidenceError(
                f"edge {e.id} -> {img.id} does not respect incidences: "
                f"({e.tail % V}, {e.head % V}) vs ({img.tail}, {img.head})"
            )


class LiftedRelators(Sequence):
    """The lifted relators of a cover, each traced through the automaton
    columns when it is read.  Item ``k * n + s`` is the k-th non-empty base
    relator lifted at state s, for n states; a slice is the list that
    slicing ``list(self)`` gives."""

    __slots__ = ("_relators", "_fwd", "_bwd", "_n", "_E")

    def __init__(self, relators: list, fwd: list, bwd: list, n: int, E: int):
        self._relators = relators  # non-empty base relators as (edge position, sign) steps
        self._fwd = fwd
        self._bwd = bwd
        self._n = n
        self._E = E

    def __len__(self) -> int:
        return len(self._relators) * self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        k, cur = divmod(range(len(self))[i], self._n)
        fwd, bwd, E = self._fwd, self._bwd, self._E
        steps = []
        for pos, sign in self._relators[k]:
            if sign > 0:
                steps.append((cur * E + pos, 1))
                cur = fwd[pos][cur]
            else:
                cur = bwd[pos][cur]
                steps.append((cur * E + pos, -1))
        return tuple(steps)


def build_cover(c: BaseComplex, a: CosetAutomaton) -> CoveringComplex:
    """Assemble the covering complex of a complete coset automaton.

    Base edge position p has forward column ``fwd[p]``, the automaton's
    column for a non-tree edge and the identity for a tree edge: its lift
    at state s is edge s * E + p, from vertex s * V + tail to vertex
    fwd[p][s] * V + head.  Every relator is traced from every state through
    the columns and must close up (automatic for enumeration output,
    checked for everything else); the total space lists its lifted
    relators only when they are read.
    """
    if not a.complete:
        raise IncompleteAutomatonError("covering construction requires a complete automaton")
    tree = spanning_tree(c)
    if len(tree.generators) != a.rank:
        raise ValueError("automaton alphabet does not match the non-tree generators")
    gen_index = {eid: i for i, eid in enumerate(tree.generators)}
    n_states = a.state_count
    V, E = c.vertex_count, len(c.edges)
    identity = range(n_states)
    fwd = [identity if e.id not in gen_index else a.forward[gen_index[e.id]] for e in c.edges]
    bwd = [identity if e.id not in gen_index else a.backward[gen_index[e.id]] for e in c.edges]

    edges = [
        Edge(s * E + pos, s * V + e.tail, fwd[pos][s] * V + e.head)
        for s in range(n_states)
        for pos, e in enumerate(c.edges)
    ]

    relators = []
    for k, rel in enumerate(c.relators):
        if not rel:
            continue
        steps = [(c.edge_pos(eid), sign) for eid, sign in rel]
        ends = list(identity)  # ends[s]: where the relator read from state s has got to
        for pos, sign in steps:
            ends = list(map((fwd if sign > 0 else bwd)[pos].__getitem__, ends))
        for s, t in enumerate(ends):
            if t != s:
                raise ComplexError(
                    f"relator {k} does not close over state {s}; "
                    "the automaton is not compatible with the relators"
                )
        relators.append(tuple(steps))

    total = BaseComplex(
        vertex_count=n_states * V,
        edges=edges,
        basepoint=c.basepoint,  # vertex (state 0, basepoint) has index basepoint
    )
    total.relators = LiftedRelators(relators, fwd, bwd, n_states, E)
    # valid as built: each lifted relator closed above, and each sheet is joined to
    # state 0's (an automaton keeps only the states reachable from state 0)
    total._validated = True
    return CoveringComplex(base=c, automaton=a, total=total, base_lift=c.basepoint)
