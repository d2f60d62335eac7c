"""Finite-index subgroups as coset transition systems.

A subgroup H of a (free or presented) group is represented by the action of
the generators on the right cosets of H: state 0 is H itself, and generator
g sends Hx to Hxg.  Subgroups are compared as based subgroups: exact
equality at the basepoint, not conjugacy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

from .complexes import Presentation
from .errors import EnumerationCapError, IncompleteAutomatonError
from .groups import GroupTable, SubgroupSet, compose_perms, subgroup_closure
from .words import Word, invert_word, reduce_word

DEFAULT_TABLE_CELL_CAP = 1_000_000
_CAP_MESSAGE = "enumeration did not complete within cap ({} cosets)"


def _check_mutually_inverse(forward, backward) -> None:
    """Raise ValueError unless each generator's forward and backward columns
    are mutually inverse partial maps.  A pair without None is checked as
    two compositions, each of which must be the identity."""
    for g, (fwd, bwd) in enumerate(zip(forward, backward)):
        if None in fwd or None in bwd:
            bad = any(t is not None and bwd[t] != s for s, t in enumerate(fwd)) or any(
                u is not None and fwd[u] != s for s, u in enumerate(bwd)
            )
        else:
            identity = tuple(range(len(fwd)))
            bad = compose_perms(fwd, bwd) != identity or compose_perms(bwd, fwd) != identity
        if bad:
            raise ValueError(f"transitions for generator {g} are not mutually inverse")


class CosetAutomaton:
    """Right-coset transition system over a free generating set.

    ``forward[g][s]`` is the state reached from s by generator g, and
    ``backward[g][s]`` the state reached by its inverse; the two are mutually
    inverse partial bijections.  States are numbered in breadth-first
    discovery order from state 0, visiting letters in the order g0, g0^-1,
    g1, g1^-1, ...; so two automata describe the same based subgroup exactly
    when their tables are equal.

    The tree of that walk is the coset transversal: state t > 0 was
    discovered from state ``parent[t]`` < t by the letter in ``column[t]``,
    2g for generator g and 2g+1 for its inverse (the coset table's columns);
    state 0 has column -1.
    """

    __slots__ = ("rank", "forward", "backward", "complete", "parent", "column")

    def __init__(self, rank: int, forward, backward):
        state_count = len(forward[0]) if rank else 1
        if rank and any(len(col) != state_count for col in (*forward, *backward)):
            raise ValueError("transition columns have inconsistent lengths")
        _check_mutually_inverse(forward, backward)  # at every state, reachable or not
        self._walk(rank, 0, [col for g in range(rank) for col in (forward[g], backward[g])])

    @classmethod
    def from_action(cls, rank: int, start, moves) -> "CosetAutomaton":
        """The automaton of a finite permutation action on the orbit of start.

        ``moves[c][x]`` is the image of point x under letter c, 2g for
        generator g and 2g+1 for its inverse, or None where undefined: one
        column per letter, indexed by point.
        """
        a = cls.__new__(cls)
        a._walk(rank, start, moves)
        return a

    def _walk(self, rank: int, start, moves) -> None:
        """Number the points reached from start in one breadth-first walk,
        taking letters c = 0 ... 2 rank - 1 as ``moves[c][x]`` gives them
        (None: undefined).  Points are numbered when found, so the walk
        fills ``parent`` and ``column``; each whole column is then read at
        the points in that order and renamed, and the columns numbered are
        checked to be mutually inverse."""
        index = {None: None, start: 0}  # an undefined move is never a new point, and renames to None
        points = [start]
        parent, column = [0], [-1]
        letters = list(enumerate(moves))
        for s, x in enumerate(points):
            for c, move in letters:
                y = move[x]
                if y not in index:
                    index[y] = len(points)
                    points.append(y)
                    parent.append(s)
                    column.append(c)
        name = index.__getitem__
        columns = [tuple(map(name, compose_perms(points, move))) for move in moves]
        self.rank = rank
        self.forward = tuple(columns[0::2])
        self.backward = tuple(columns[1::2])
        _check_mutually_inverse(self.forward, self.backward)
        self.complete = all(None not in col for col in columns)
        self.parent = tuple(parent)
        self.column = tuple(column)

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


def automata_equal(x: CosetAutomaton, y: CosetAutomaton) -> bool:
    """Based-subgroup equality: identical canonical transition tables."""
    if not (x.complete and y.complete):
        raise IncompleteAutomatonError("automata comparison requires complete automata")
    if x.rank != y.rank:
        raise ValueError("automata are over different generator alphabets")
    return x.key() == y.key()


def _rep_word(a: CosetAutomaton, t: int) -> Word:
    """rep(t), read back along the transversal from state t to state 0."""
    letters = []
    while t:
        c = a.column[t]
        letters.append((c >> 1, -1 if c & 1 else 1))
        t = a.parent[t]
    return tuple(reversed(letters))


def _schreier_steps(a: CosetAutomaton):
    """The steps s -> t = s g of the non-trivial Schreier generators
    rep(s) * g * rep(t)^-1 of a complete automaton, in (state, generator)
    order, as (s, g, t).

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


def _schreier_points(a: CosetAutomaton, forward, backward):
    """Where the Schreier generators of a complete automaton a take point 0
    of another right action, without spelling them out.

    The action is given by columns, ``forward[g][x]`` = x g and
    ``backward[g][x]`` = x g^-1, None where undefined.  One walk down the
    transversal carries pot(s), the point rep(s) reaches (Gross-Tucker's
    T-reduced values).  The generator rep(s) * g * rep(t)^-1 of the step
    s -> t = s g fixes 0 exactly when x = pot(s) g is defined and equals
    y = pot(t); in a group acting on itself x * y^-1 is its value.
    Yields (s, g, x, y) for the steps of :func:`_schreier_steps`.
    """
    moves = [col for g in range(a.rank) for col in (forward[g], backward[g])]
    pot: list = [0] * a.state_count
    for t in range(1, a.state_count):
        x = pot[a.parent[t]]
        pot[t] = None if x is None else moves[a.column[t]][x]
    for s, g, t in _schreier_steps(a):
        x = pot[s]
        yield s, g, None if x is None else forward[g][x], pot[t]


def _first_step_outside(a: CosetAutomaton, b: CosetAutomaton) -> Optional[tuple[int, int]]:
    """The step (s, g) of the first Schreier generator of a's subgroup that
    b's does not contain; None when a's subgroup lies inside b's.

    b may be partial: a generator whose path leaves b's table is outside, as
    ``b.trace(w) == 0`` decides.
    """
    points = _schreier_points(a, b.forward, b.backward)
    return next(((s, g) for s, g, x, y in points if x is None or x != y), None)


def _schreier_word(a: CosetAutomaton, s: int, g: int) -> Word:
    """The Schreier generator rep(s) * g * rep(s g)^-1, spelled out."""
    return _rep_word(a, s) + ((g, 1),) + invert_word(_rep_word(a, a.forward[g][s]))


def is_normal_subgroup(a: CosetAutomaton) -> bool:
    """True iff the subgroup is normal, by the deck-transformation test.

    The automaton is the Schreier graph of the right cosets of H, and a
    label-preserving automorphism sending state 0 (H) to state s (Hx)
    exists exactly when x normalises H.  The normaliser is a subgroup, so H
    is normal iff every generator g normalises it, that is iff the map
    0 -> 0.g extends along both transition tables without a conflict.  On a
    complete connected automaton a conflict-free extension is an
    automorphism: it is a covering of the graph onto itself with as many
    states as the graph.

    The states reached from 0 by the deck maps found so far are the cosets
    Hx of normalising x, so a generator g whose 0.g is among them
    normalises H (Hg = Hx) and is skipped; 0.g = 0 is the case g in H.
    The orbit is closed over new maps only when a generator falls outside
    it.  The deck maps act freely, so each new one at least doubles the
    orbit: at most floor(log2 n) maps are built, plus one that fails, each
    one pass over the 2r transitions of every state.  That is O(n r log n)
    for n states and rank r, and the orbit walks cost O(n log^2 n).
    """
    if not a.complete:
        raise IncompleteAutomatonError("normality check requires a complete automaton")
    columns = a.forward + a.backward
    deck = []  # the deck maps found, each a list: state -> its image
    orbit, seen = [0], {0}  # the orbit of state 0 under the first `walked` maps in deck
    walked = 0
    for start in (col[0] for col in a.forward):
        if start not in seen and walked < len(deck):  # close the orbit over the maps found since
            walked = len(deck)
            for s in orbit:  # walked from its start, so each map meets every point; the list grows
                for m in deck:
                    t = m[s]
                    if t not in seen:
                        seen.add(t)
                        orbit.append(t)
        if start in seen:
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
        deck.append(phi)
    return True


class _CosetTable:
    """A coset table with the HLT scan-and-fill and coincidence routines.

    Column 2g holds generator g and column 2g+1 its inverse, so ``c ^ 1`` is
    the inverse column; entries are kept symmetric.  ``parent`` is the one
    union-find over cosets: a coset is live while it is its own root, and
    a coincidence keeps the lower-numbered coset.  Stallings folding is the
    scan of the subgroup words at coset 0 in a table without relators (each
    fold is a coincidence); Todd-Coxeter runs the relator/gap loop on top.
    ``cap`` bounds the number of coset definitions (None: no bound).
    """

    __slots__ = ("rank", "table", "parent", "cap")

    def __init__(self, rank: int, cap: Optional[int] = None):
        self.rank = rank
        self.table: list[list[Optional[int]]] = [[None] * (2 * rank)]
        self.parent = [0]
        self.cap = cap

    @staticmethod
    def columns(w: Word) -> list[int]:
        return [2 * sym + (sign < 0) for sym, sign in w]

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def define(self, alpha: int, c: int) -> None:
        table = self.table
        if self.cap is not None and len(table) >= self.cap:
            raise EnumerationCapError(_CAP_MESSAGE.format(self.cap))
        beta = len(table)
        row = [None] * (2 * self.rank)
        row[c ^ 1] = alpha
        table.append(row)
        self.parent.append(beta)
        table[alpha][c] = beta

    def _merge(self, x: int, y: int, queue: deque) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            mu, nu = (rx, ry) if rx < ry else (ry, rx)
            self.parent[nu] = mu
            queue.append(nu)

    def coincidence(self, alpha: int, beta: int) -> None:
        table, find = self.table, self.find
        queue: deque = deque()
        self._merge(alpha, beta, queue)
        while queue:
            gamma = queue.popleft()
            for c, delta in enumerate(table[gamma]):
                if delta is None:
                    continue
                table[delta][c ^ 1] = None
                mu, nu = find(gamma), find(delta)
                if table[mu][c] is not None:
                    self._merge(nu, table[mu][c], queue)
                elif table[nu][c ^ 1] is not None:
                    self._merge(mu, table[nu][c ^ 1], queue)
                else:
                    table[mu][c] = nu
                    table[nu][c ^ 1] = mu

    def scan_and_fill(self, alpha: int, cols: Sequence[int]) -> None:
        """Trace a word (as columns) both ways from alpha and close it up."""
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

    def scan_words(self, words: Iterable[Word]) -> None:
        for w in words:
            w = reduce_word(tuple(w))
            if w:
                self.scan_and_fill(0, self.columns(w))

    def automaton(self) -> CosetAutomaton:
        """The automaton of the finished table: each live coset's entries
        read once through ``find``, as one column per letter; rows folded
        away are not read."""
        table, parent, find = self.table, self.parent, self.find
        moves = [[None] * len(table) for _ in range(2 * self.rank)]
        for x, px in enumerate(parent):
            if px == x:
                for move, y in zip(moves, table[x]):
                    if y is not None:
                        move[x] = y if parent[y] == y else find(y)
        return CosetAutomaton.from_action(self.rank, 0, moves)


def _check_letters(words: Iterable[Word], rank: int) -> None:
    """Raise ValueError unless every letter of every word names a generator."""
    for w in words:
        for sym, _ in w:
            if not 0 <= sym < rank:
                raise ValueError(f"word letter {sym} outside generator range 0..{rank - 1}")


def stallings_core(generators: Sequence[Word], rank: int) -> CosetAutomaton:
    """Folded core graph of the subgroup generated by free words.

    Folding the wedge of the word loops is coincidence processing in a coset
    table without relators: each reduced word is scanned and filled at the
    base coset, defining at most one coset per letter.  The result is
    complete exactly when the subgroup has finite index.
    """
    _check_letters(generators, rank)
    table = _CosetTable(rank)
    table.scan_words(generators)
    return table.automaton()


def _proves_infinite_index(presentation: Presentation, words: Sequence[Word]) -> bool:
    """True only if H = <words> has infinite index in the presented group G.

    For finite-index H and K, the image of H ∩ K spans K^ab ⊗ Q.  K runs
    over G and the kernels of maps G -> Z2 (all of them while a GF(2) basis
    has at most three, else the basis), read as bit masks.  Reidemeister-
    Schreier gives K^ab: column (u, x) counts letter x read forward at coset
    u, the Schreier-tree column is a unit pivot, and each relator read from
    each coset is a row.  H ∩ K adds one row per loop at coset 0 of H's
    words acting on K's cosets, read between tree potentials.  The index is
    infinite if the rank, exact by fraction-free elimination, stays short.
    """
    rank = presentation.rank
    relators = [rel for rel in presentation.relators if rel]
    pivots: dict = {}  # reduced GF(2) exponent-sum rows, by top bit
    for rel in relators:
        m = 0
        for x, _ in rel:
            m ^= 1 << x
        for c, p in pivots.items():
            if m >> c & 1:
                m ^= p
        if m:
            top = m.bit_length() - 1
            for c in pivots:
                if pivots[c] >> top & 1:
                    pivots[c] ^= m
            pivots[top] = m
    free = [f for f in range(rank) if f not in pivots]
    basis = [1 << f | sum(1 << c for c, p in pivots.items() if p >> f & 1) for f in free]
    maps = [0]
    for b in basis:
        maps += [m ^ b for m in maps] if len(basis) <= 3 else [b]
    for phi in maps:
        cols = rank * (2 if phi else 1)

        def read(w: Word, u: int) -> tuple[list, int]:
            v = [0] * cols
            for x, sign in w:
                if sign < 0:
                    u ^= phi >> x & 1
                v[u * rank + x] += sign
                if sign > 0:
                    u ^= phi >> x & 1
            return v, u

        rows = [read(rel, u)[0] for rel in relators for u in ((0, 1) if phi else (0,))]
        pot, order = {0: [0] * cols}, [0]
        for u in order:
            for w in words:
                v, t = read(w, u)
                if t in pot:
                    rows.append([p + a - q for p, a, q in zip(pot[u], v, pot[t])])
                else:
                    pot[t] = [p + a for p, a in zip(pot[u], v)]
                    order.append(t)
        tree = (phi & -phi).bit_length() - 1  # generator from coset 0 to 1
        echelon = {tree: [int(c == tree) for c in range(cols)]} if phi else {}
        for row in rows:
            while any(row) and len(echelon) < cols:
                lead = next(c for c, a in enumerate(row) if a)
                if lead not in echelon:
                    g = gcd(*row)
                    echelon[lead] = [a // g for a in row]
                    break
                p = echelon[lead]
                row = [p[lead] * a - row[lead] * b for a, b in zip(row, p)]
        if len(echelon) < cols:
            return True
    return False


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
    coset definitions; running past it raises :class:`EnumerationCapError`,
    at once if :func:`_proves_infinite_index` shows that H has infinite index
    (the enumeration would then pass any cap); otherwise a finite index
    cannot be told from an insufficient cap.
    """
    rank = presentation.rank
    _check_letters(subgroup_words, rank)
    if cap is None:
        cap = max(1, DEFAULT_TABLE_CELL_CAP // max(1, 2 * rank))
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if _proves_infinite_index(presentation, subgroup_words):
        raise EnumerationCapError(_CAP_MESSAGE.format(cap))
    ct = _CosetTable(rank, cap)
    ct.scan_words(subgroup_words)
    relators = [ct.columns(rel) for rel in presentation.relators if rel]
    table, parent = ct.table, ct.parent
    alpha = 0
    while alpha < len(table):
        if parent[alpha] == alpha:
            for rel in relators:
                ct.scan_and_fill(alpha, rel)
                if parent[alpha] != alpha:
                    break
            else:
                row = table[alpha]
                for c in range(2 * rank):
                    if row[c] is None:
                        ct.define(alpha, c)
        alpha += 1
    aut = ct.automaton()
    if not aut.complete:
        raise EnumerationCapError("enumeration finished with an incomplete table")
    return aut


def _check_images(images: Sequence[int], group: GroupTable, relators: Iterable[Word]) -> None:
    """Raise ValueError unless every image is an element of the group and
    every relator word maps to the identity."""
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


def automaton_from_quotient(
    images: Sequence[int],
    group: GroupTable,
    subgroup: SubgroupSet,
    relators: Iterable[Word] = (),
) -> CosetAutomaton:
    """Coset automaton of h^-1(S) for h given by generator images.

    States are the right cosets S x met by Im(h), each named by its least
    element; generator g acts by right multiplication with h(g), so its
    moves are the group's columns of h(g) and h(g)^-1, each entry renamed
    by its coset when S is not trivial.  For x and y in Im(h), S x = S y
    exactly when x y^-1 lies in S ∩ Im(h), so these are the cosets of
    S ∩ Im(h) in Im(h).  Relator words must map to the identity for h to
    be well defined on the presented group.
    """
    _check_images(images, group, relators)
    moves = [group.column(y) for x in images for y in (x, group.inverse[x])]
    if len(subgroup) > 1:
        name = [None] * group.order  # element -> the least element of its coset
        for x in range(group.order):  # ascending, so the first of a coset met is its least
            if name[x] is None:
                for t in subgroup.members:
                    name[group.mul(t, x)] = x
        moves = [compose_perms(col, name) for col in moves]
    return CosetAutomaton.from_action(len(images), 0, moves)


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


def check_quotient_images(images: Sequence[int], group: GroupTable, presentation: Presentation) -> None:
    """Raise the ValueError of :func:`automaton_from_spec` unless the
    generator images define a homomorphism of the presented group: one image
    per generator, and every relator mapped to the identity."""
    if len(images) != presentation.rank:
        raise ValueError(
            f"quotient spec has {len(images)} images for {presentation.rank} generators"
        )
    _check_images(images, group, presentation.relators)
