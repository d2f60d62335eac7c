"""Covering complexes: construction from coset automata.

A covering built from a coset automaton is the derived graph of a
permutation voltage: it has vertex set (state, base vertex), a tree edge
stays within a sheet, and a non-tree edge's lifts move sheets by its
automaton column.  The total space is built as edge columns: the lifts of
one base edge are a tail column, an arithmetic range, and a head column,
the automaton column read at a range, and the columns of all base edges
are interleaved by state; no :class:`~flatconn.complexes.Edge` is made.
Lifted relators are traced through the same columns to check that they
close, and are listed only when read.  A cover's subgroup is based at its
total space's basepoint, the vertex (state 0, basepoint).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from .complexes import BaseComplex, spanning_tree
from .errors import ComplexError, IncidenceError, IncompleteAutomatonError
from .groups import _reader, compose_perms
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

    @property
    def degree(self) -> int:
        return self.automaton.state_count


def _under_lifts(cov: CoveringComplex):
    """The function that reads a column of the base, indexed by edge
    position, under every lift of the total space, at its id mod E.  Under
    ids 0 ... nE - 1, a cover's, that is the base's column repeated n times."""
    ids, N, E = cov.total.ids, len(cov.total.ids), len(cov.base.ids)
    if ids and ids[0] == 0 and ids[-1] == N - 1 and N % E == 0:  # ascending, so the ids are 0 ... N - 1
        return lambda column: column * (N // E)
    return _reader(list(map(E.__rmod__, ids)))


def check_incidence(cov: CoveringComplex) -> None:
    """Raise IncidenceError unless every lift s * E + p runs from a vertex
    over tail(p) to a vertex over head(p): the total space's tail and head
    columns, mod V, against the base's columns read under the lifts.  Over
    a single vertex every lift passes."""
    base, total = cov.base, cov.total
    V, E = base.vertex_count, len(base.ids)
    if V == 1:
        return
    over = _under_lifts(cov)
    for ends, base_ends in ((total.tails, base.tails), (total.heads, base.heads)):
        if tuple(map(V.__rmod__, ends)) != over(base_ends):
            for eid, t, h in zip(total.ids, total.tails, total.heads):
                p = eid % E
                if t % V != base.tails[p] or h % V != base.heads[p]:
                    raise IncidenceError(
                        f"edge {eid} -> {base.ids[p]} does not respect incidences: "
                        f"({t % V}, {h % V}) vs ({base.tails[p]}, {base.heads[p]})"
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
    gen_index = dict(zip(tree.generators, range(a.rank)))
    n_states = a.state_count
    V, E = c.vertex_count, len(c.ids)
    identity = range(n_states)
    fwd = [identity if eid not in gen_index else a.forward[gen_index[eid]] for eid in c.ids]
    bwd = [identity if eid not in gen_index else a.backward[gen_index[eid]] for eid in c.ids]

    nV = n_states * V
    # one column per base position p, indexed by state: the lift s * E + p
    # runs from s * V + tail to fwd[p][s] * V + head; interleaving them by
    # state gives the s * E + p order
    tails = [range(t, nV, V) for t in c.tails]
    heads = [compose_perms(f, range(h, nV, V)) for f, h in zip(fwd, c.heads)]

    relators = []
    closed = tuple(identity)
    for k, rel in enumerate(c.relators):
        if not rel:
            continue
        steps = [(c.edge_pos(eid), sign) for eid, sign in rel]
        columns = [(fwd if sign > 0 else bwd)[pos] for pos, sign in steps]
        ends = tuple(columns[0])  # ends[s]: where the relator read from state s has got to
        for column in columns[1:]:
            ends = compose_perms(ends, column)
        if ends != closed:
            s = next(s for s, t in enumerate(ends) if t != s)
            raise ComplexError(
                f"relator {k} does not close over state {s}; "
                "the automaton is not compatible with the relators"
            )
        relators.append(tuple(steps))

    total = BaseComplex._trusted(
        n_states * V,
        tuple(range(n_states * E)),
        tuple(chain.from_iterable(zip(*tails))),
        tuple(chain.from_iterable(zip(*heads))),
        c.basepoint,  # vertex (state 0, basepoint) has index basepoint
    )
    total.relators = LiftedRelators(relators, fwd, bwd, n_states, E)
    # valid as built: each lifted relator closed above, and each sheet is joined to
    # state 0's (an automaton keeps only the states reachable from state 0)
    total._validated = True
    return CoveringComplex(base=c, automaton=a, total=total)
