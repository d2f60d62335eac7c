"""Finite-index subgroups as coset transition systems.

A subgroup H of a (free or presented) group is represented by the action of
the generators on the right cosets of H: state 0 is H itself, and generator
g sends Hx to Hxg.  Subgroups are compared as based subgroups: exact
equality at the basepoint, not conjugacy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .complexes import Presentation
from .errors import EnumerationCapError, IncompleteAutomatonError
from .groups import GroupTable, SubgroupSet, subgroup_closure
from .words import Word, invert_word, reduce_word

DEFAULT_TABLE_CELL_CAP = 1_000_000


class CosetAutomaton:
    """Right-coset transition system over a free generating set.

    ``forward[g][s]`` is the state reached from s by generator g, and
    ``backward[g][s]`` the state reached by its inverse; the two are mutually
    inverse partial bijections.  States are renumbered at construction into
    breadth-first discovery order from state 0, visiting letters in the
    order g0, g0^-1, g1, g1^-1, ...; so two automata describe the same
    based subgroup exactly when their tables are equal.
    """

    __slots__ = ("rank", "forward", "backward", "complete")

    def __init__(self, rank: int, forward, backward):
        state_count = len(forward[0]) if rank else 1
        fwd = [list(col) for col in forward]
        bwd = [list(col) for col in backward]
        if rank and any(len(col) != state_count for col in fwd + bwd):
            raise ValueError("transition columns have inconsistent lengths")
        # Consistency: forward and backward are mutually inverse partials.
        for g in range(rank):
            for s in range(state_count):
                t = fwd[g][s]
                if t is not None and bwd[g][t] != s:
                    raise ValueError(f"transitions for generator {g} are not mutually inverse")
                u = bwd[g][s]
                if u is not None and fwd[g][u] != s:
                    raise ValueError(f"transitions for generator {g} are not mutually inverse")
        order = self._bfs_order(rank, fwd, bwd, state_count)
        remap = {old: new for new, old in enumerate(order)}
        n = len(order)
        self.rank = rank
        self.forward = tuple(
            tuple(
                remap[fwd[g][old]] if fwd[g][old] is not None and fwd[g][old] in remap else None
                for old in order
            )
            for g in range(rank)
        )
        self.backward = tuple(
            tuple(
                remap[bwd[g][old]] if bwd[g][old] is not None and bwd[g][old] in remap else None
                for old in order
            )
            for g in range(rank)
        )
        self.complete = all(
            self.forward[g][s] is not None and self.backward[g][s] is not None
            for g in range(rank)
            for s in range(n)
        )

    @staticmethod
    def _bfs_order(rank, fwd, bwd, state_count):
        seen = {0}
        order = [0]
        head = 0
        while head < len(order):
            s = order[head]
            head += 1
            for g in range(rank):
                for t in (fwd[g][s], bwd[g][s]):
                    if t is not None and t not in seen:
                        seen.add(t)
                        order.append(t)
        return order

    @property
    def state_count(self) -> int:
        return len(self.forward[0]) if self.rank else 1

    def trace(self, w: Word, start: int = 0) -> Optional[int]:
        """Follow a word from a state; None if a transition is undefined."""
        s = start
        for sym, sign in w:
            col = self.forward[sym] if sign > 0 else self.backward[sym]
            s = col[s]
            if s is None:
                return None
        return s

    def key(self) -> tuple:
        return (self.rank, self.forward, self.backward)

    def __repr__(self) -> str:
        kind = "complete" if self.complete else "partial"
        return f"CosetAutomaton(rank={self.rank}, states={self.state_count}, {kind})"


@dataclass(frozen=True)
class SubgroupSpec:
    """How a finite-index subgroup is described.

    kind "words": generated by free words over the presentation generators.
    kind "quotient": the preimage h^-1(S) of a subgroup S under a
    homomorphism h into a finite group, given by generator images.  When
    ``group`` / ``images`` are None the caller supplies a default morphism
    (normally the holonomy map of the instance at hand).
    """

    kind: str
    words: tuple = ()
    group: Optional[GroupTable] = None
    images: Optional[tuple] = None
    subgroup: tuple = (0,)

    def __post_init__(self):
        if self.kind not in ("words", "quotient"):
            raise ValueError(f"unknown subgroup spec kind {self.kind!r}")


def membership(a: CosetAutomaton, w: Word) -> bool:
    """True iff the word traces from state 0 back to state 0."""
    return a.trace(tuple(w)) == 0


def automata_equal(x: CosetAutomaton, y: CosetAutomaton) -> bool:
    """Based-subgroup equality: identical canonical transition tables."""
    if not (x.complete and y.complete):
        raise IncompleteAutomatonError("automata comparison requires complete automata")
    if x.rank != y.rank:
        raise ValueError("automata are over different generator alphabets")
    return x.key() == y.key()


def _rep_words(a: CosetAutomaton) -> list[Word]:
    """Breadth-first coset representative words (state 0 gets the empty word)."""
    reps: list[Optional[Word]] = [None] * a.state_count
    reps[0] = ()
    queue = [0]
    head = 0
    while head < len(queue):
        s = queue[head]
        head += 1
        for g in range(a.rank):
            for col, sign in ((a.forward, 1), (a.backward, -1)):
                t = col[g][s]
                if t is not None and reps[t] is None:
                    reps[t] = reps[s] + ((g, sign),)
                    queue.append(t)
    return reps  # type: ignore[return-value]


def reidemeister_schreier(a: CosetAutomaton, presentation: Presentation) -> list[Word]:
    """Schreier generators u * g * rep(u g)^-1 with trivial ones dropped.

    Order is (state, generator) ascending; for a free group of rank r and
    index d this yields d(r-1)+1 words.
    """
    if not a.complete:
        raise IncompleteAutomatonError("Schreier generators require a complete automaton")
    if presentation.rank != a.rank:
        raise ValueError("presentation rank does not match automaton alphabet")
    reps = _rep_words(a)
    out = []
    for s in range(a.state_count):
        for g in range(a.rank):
            t = a.forward[g][s]
            w = reduce_word(reps[s] + ((g, 1),) + invert_word(reps[t]))
            if w:
                out.append(w)
    return out


def is_normal_subgroup(a: CosetAutomaton) -> bool:
    """True iff the subgroup is normal, by the deck-transformation test.

    The automaton is the Schreier graph of the right cosets of H, and a
    label-preserving automorphism sending state 0 (H) to state s (Hx)
    exists exactly when x normalises H.  The normaliser is a subgroup, so H
    is normal iff every generator g normalises it, that is iff the map
    0 -> 0.g extends along both transition tables without a conflict.  On a
    complete connected automaton a conflict-free extension is an
    automorphism: it is a covering of the graph onto itself with as many
    states as the graph.  Each generator costs one pass over the 2r
    transitions of every state, O(n r^2) in all for n states and rank r.
    """
    if not a.complete:
        raise IncompleteAutomatonError("normality check requires a complete automaton")
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


def stallings_core(generators: Sequence[Word], rank: int) -> CosetAutomaton:
    """Folded core graph of the subgroup generated by free words.

    Builds a wedge of loops at the base state and folds to a fixpoint,
    always keeping the lowest-numbered state of a coincident pair.  The
    result is complete exactly when the subgroup has finite index.
    """
    for w in generators:
        for sym, sign in w:
            if not 0 <= sym < rank:
                raise ValueError(f"word letter {sym} outside generator range 0..{rank - 1}")
    triples = []  # (src, gen, dst) meaning src . g = dst
    n = 1
    for w in generators:
        w = reduce_word(tuple(w))
        if not w:
            continue
        cur = 0
        for i, (sym, sign) in enumerate(w):
            nxt = 0 if i == len(w) - 1 else n
            if nxt == n:
                n += 1
            if sign > 0:
                triples.append((cur, sym, nxt))
            else:
                triples.append((nxt, sym, cur))
            cur = nxt

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx

    # Fold to a fixpoint: rebuild transition dicts from the triples, collect
    # every coincidence seen in one scan, merge, repeat until a clean pass.
    while True:
        fwd = [dict() for _ in range(rank)]
        bwd = [dict() for _ in range(rank)]
        merges = []
        for src, g, dst in triples:
            s, t = find(src), find(dst)
            u = fwd[g].get(s)
            if u is None:
                fwd[g][s] = t
            elif u != t:
                merges.append((u, t))
            v = bwd[g].get(t)
            if v is None:
                bwd[g][t] = s
            elif v != s:
                merges.append((v, s))
        if not merges:
            break
        for x, y in merges:
            union(x, y)

    states = sorted({find(x) for x in range(n) if find(x) == x} | {find(0)})
    # Only states connected to the base matter; the construction keeps
    # everything reachable, so renumber representatives directly.
    remap = {rep: i for i, rep in enumerate(sorted(states, key=lambda r: (r != find(0), r)))}
    m = len(remap)
    forward = [[None] * m for _ in range(rank)]
    backward = [[None] * m for _ in range(rank)]
    for g in range(rank):
        for s, t in fwd[g].items():
            forward[g][remap[find(s)]] = remap[find(t)]
        for t, s in bwd[g].items():
            backward[g][remap[find(t)]] = remap[find(s)]
    return CosetAutomaton(rank, forward, backward)


def todd_coxeter(
    presentation: Presentation,
    subgroup_words: Sequence[Word],
    cap: Optional[int] = None,
) -> CosetAutomaton:
    """Coset enumeration for H = <subgroup words> in a presented group.

    HLT strategy: subgroup words are scanned and filled at coset 0, then
    every relator is scanned and filled at each live coset in input order,
    and remaining gaps are filled by definitions in scan order.  Coincidences
    collapse onto the smallest state.  ``cap`` bounds the total number of
    coset definitions; running past it raises :class:`EnumerationCapError`
    (finite index cannot be distinguished from an insufficient cap).
    """
    rank = presentation.rank
    if cap is None:
        cap = max(1, DEFAULT_TABLE_CELL_CAP // max(1, 2 * rank))
    if cap < 1:
        raise ValueError("cap must be at least 1")
    width = 2 * rank

    def col(sym: int, sign: int) -> int:
        return 2 * sym + (0 if sign > 0 else 1)

    def inv_col(c: int) -> int:
        return c ^ 1

    table: list[list[Optional[int]]] = [[None] * width]
    p = [0]

    def find(x: int) -> int:
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def define(alpha: int, c: int) -> None:
        if len(table) >= cap:
            raise EnumerationCapError(
                f"enumeration did not complete within cap ({cap} cosets)"
            )
        beta = len(table)
        table.append([None] * width)
        p.append(beta)
        table[alpha][c] = beta
        table[beta][inv_col(c)] = alpha

    def merge(x: int, y: int, queue: deque) -> None:
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        mu, nu = (rx, ry) if rx < ry else (ry, rx)
        p[nu] = mu
        queue.append(nu)

    def coincidence(alpha: int, beta: int) -> None:
        queue: deque = deque()
        merge(alpha, beta, queue)
        while queue:
            gamma = queue.popleft()
            for c in range(width):
                delta = table[gamma][c]
                if delta is None:
                    continue
                table[delta][inv_col(c)] = None
                mu, nu = find(gamma), find(delta)
                if table[mu][c] is not None:
                    merge(nu, table[mu][c], queue)
                elif table[nu][inv_col(c)] is not None:
                    merge(mu, table[nu][inv_col(c)], queue)
                else:
                    table[mu][c] = nu
                    table[nu][inv_col(c)] = mu

    def scan_and_fill(alpha: int, letters: tuple) -> None:
        cols = [col(sym, sign) for sym, sign in letters]
        f, b = alpha, alpha
        i, j = 0, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][inv_col(cols[j])] is not None:
                b = table[b][inv_col(cols[j])]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][inv_col(cols[i])] = f
                return
            define(f, cols[i])

    for w in subgroup_words:
        w = reduce_word(tuple(w))
        if w:
            scan_and_fill(0, w)
    alpha = 0
    while alpha < len(table):
        if find(alpha) == alpha:
            for rel in presentation.relators:
                if not rel:
                    continue
                scan_and_fill(alpha, rel)
                if find(alpha) != alpha:
                    break
            if find(alpha) == alpha:
                for c in range(width):
                    if table[alpha][c] is None:
                        define(alpha, c)
        alpha += 1

    live = [x for x in range(len(table)) if find(x) == x]
    remap = {x: i for i, x in enumerate(live)}
    m = len(live)
    forward = [[None] * m for _ in range(rank)]
    backward = [[None] * m for _ in range(rank)]
    for x in live:
        for g in range(rank):
            t = table[x][col(g, 1)]
            if t is not None:
                forward[g][remap[x]] = remap[find(t)]
            u = table[x][col(g, -1)]
            if u is not None:
                backward[g][remap[x]] = remap[find(u)]
    aut = CosetAutomaton(rank, forward, backward)
    if not aut.complete:
        raise EnumerationCapError("enumeration finished with an incomplete table")
    return aut


def automaton_from_quotient(
    images: Sequence[int],
    group: GroupTable,
    subgroup: SubgroupSet,
    relators: Iterable[Word] = (),
) -> CosetAutomaton:
    """Coset automaton of h^-1(S) for h given by generator images.

    States are the right cosets of S ∩ Im(h) in Im(h); generator g acts by
    right multiplication with h(g).  Relator words must map to the identity
    for h to be well defined on the presented group.
    """
    rank = len(images)
    for k, x in enumerate(images):
        if not 0 <= x < group.order:
            raise ValueError(f"image {k} out of range for group of order {group.order}")
    for k, rel in enumerate(relators):
        val = group.evaluate_word(images, rel)
        if val != 0:
            raise ValueError(
                f"relator {k} maps to {group.label(val)}, not the identity; "
                "the quotient morphism is not well defined"
            )
    image = subgroup_closure(group, images)
    t_members = tuple(sorted(set(subgroup.members) & set(image.members)))

    def coset_of(x: int) -> tuple:
        return tuple(sorted(group.product[t][x] for t in t_members))

    base = coset_of(0)
    index = {base: 0}
    order = [base]
    head = 0
    while head < len(order):
        rep = order[head][0]
        head += 1
        for g in range(rank):
            for elt in (images[g], group.inverse[images[g]]):
                nxt = coset_of(group.product[rep][elt])
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
    n = len(order)
    forward = [[None] * n for _ in range(rank)]
    backward = [[None] * n for _ in range(rank)]
    for i, cos in enumerate(order):
        rep = cos[0]
        for g in range(rank):
            forward[g][i] = index[coset_of(group.product[rep][images[g]])]
            backward[g][i] = index[coset_of(group.product[rep][group.inverse[images[g]]])]
    return CosetAutomaton(rank, forward, backward)


def automaton_from_spec(
    spec: SubgroupSpec,
    presentation: Presentation,
    default_group: Optional[GroupTable] = None,
    default_images: Optional[Sequence[int]] = None,
    cap: Optional[int] = None,
) -> CosetAutomaton:
    """Resolve a subgroup description into its coset automaton.

    kind "words" routes through Todd-Coxeter when the presentation has
    relators and through Stallings folding otherwise; kind "quotient" always
    builds the coset action directly.
    """
    if spec.kind == "words":
        if presentation.relators:
            return todd_coxeter(presentation, spec.words, cap=cap)
        return stallings_core(spec.words, presentation.rank)
    group = spec.group if spec.group is not None else default_group
    images = spec.images if spec.images is not None else default_images
    if group is None or images is None:
        raise ValueError("quotient subgroup spec needs a group and generator images")
    if len(images) != presentation.rank:
        raise ValueError(
            f"quotient spec has {len(images)} images for {presentation.rank} generators"
        )
    sub = subgroup_closure(group, spec.subgroup)
    return automaton_from_quotient(images, group, sub, relators=presentation.relators)
