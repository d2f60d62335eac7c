"""Finite groups as permutation groups, with subgroup machinery.

A group is kept as its elements' permutations, an index from permutation to
element, inverses, labels and the breadth-first tree of its closure, never
as a |G| x |G| product table.  Products with a fixed right factor w are read
from ``column(w)``, the map x -> x * w: each generator's column falls out
of the closure, and any other column is built from its ancestors' in the
tree on first read and then cached.  Any other product a * b composes the
two permutations and looks the result up.

Conventions used throughout the package:

* element 0 is always the identity;
* permutations compose left-to-right, ``compose_perms(p, q)`` means "apply
  p, then q", matching the path-ordered products used for holonomy;
* element numbering is breadth-first discovery order over the generators in
  input order, which makes every construction reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import ClosureCapError
from .words import Word

Perm = tuple

DEFAULT_CLOSURE_CAP = 10_000
SUBGROUP_ENUM_MAX_ORDER = 64


def _is_int(value) -> bool:
    """An ``int`` but not a ``bool``, the one type an element index has."""
    return isinstance(value, int) and not isinstance(value, bool)


def compose_perms(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Left-to-right composition: apply ``p`` first, then ``q``; the tuple
    of ``q[x]`` for x in ``p``.  Any sequences serve (tuples, lists,
    ranges), and ``p`` need not be a permutation, so this is also how a
    column is read at many points at once.  The reads run in C, through
    the ``itemgetter`` of :func:`_reader`."""
    return _reader(p)(q)


def _reader(p: Sequence[int]):
    """The function q -> compose_perms(p, q), built once for many q.
    ``itemgetter`` returns a bare item for one index and refuses none:
    those two lengths build the tuple directly."""
    if len(p) > 1:
        return itemgetter(*p)
    return lambda q: tuple([q[x] for x in p])


def invert_perm(p: Sequence[int]) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def is_permutation(p: Sequence[int], degree: int) -> bool:
    return len(p) == degree and sorted(p) == list(range(degree))


def cycle_label(p: Sequence[int]) -> str:
    """Cycle-notation label; fixed points are omitted and the identity is 'e'."""
    seen = set()
    cycles = []
    for start in range(len(p)):
        if start in seen:
            continue
        cur, cyc = start, [start]
        seen.add(start)
        while p[cur] != start:
            cur = p[cur]
            seen.add(cur)
            cyc.append(cur)
        if len(cyc) > 1:
            cycles.append(cyc)
    if not cycles:
        return "e"
    sep = "" if len(p) <= 10 else ","
    return "".join("(" + sep.join(str(x) for x in c) + ")" for c in cycles)


def _parse_cycles(text: str, degree: int) -> Optional[Perm]:
    """The permutation a cycle-notation string spells, read leniently, or
    None: a caller accepts it only if its :func:`cycle_label` is ``text``."""
    if text == "e":
        return tuple(range(degree))
    if not (text.startswith("(") and text.endswith(")")):
        return None
    images = list(range(degree))
    for body in text[1:-1].split(")("):
        try:
            points = [int(x) for x in (body.split(",") if degree > 10 else body)]
            for x, y in zip(points, points[1:] + points[:1]):
                images[x] = y
        except (ValueError, IndexError):
            return None
    return tuple(images)


class _Columns(dict):
    """Element w -> its column, the tuple x -> x * w, kept once built.  A
    missing column is built from the nearest ancestor of w in the closure
    tree whose column is known, one generator column per tree step."""

    __slots__ = ("_gens", "_parent", "_via")

    def __init__(self, gens: tuple, parent: tuple, via: tuple):
        super().__init__((col[0], col) for col in gens)  # 0 * g = g names generator g's column
        self._gens, self._parent, self._via = gens, parent, via

    def __missing__(self, w: int) -> tuple:
        path = []
        a = w
        while a and a not in self:
            path.append(self._gens[self._via[a]])
            a = self._parent[a]
        col = self[a] if a else tuple(range(len(self._parent)))
        for gen in reversed(path):  # x * a * g: the generator's column read after a's
            col = compose_perms(col, gen)
        self[w] = col
        return col


class GroupTable:
    """A finite permutation group with right-multiplication columns, as
    :func:`group_from_permutations` closes it.

    ``perms[i]`` is element i's permutation and ``index`` maps it back;
    ``parent[i]`` and ``via[i]`` say that i = parent[i] * generator via[i]
    in the closure's breadth-first tree.  ``column(w)`` is the tuple
    x -> x * w, a plain lookup once built (see :class:`_Columns`), and
    ``mul(a, b)`` any product, composed from the two permutations.  Without
    caller labels an element's label is its :func:`cycle_label`, made when
    first read and kept.
    """

    __slots__ = (
        "order", "perms", "index", "inverse", "_labels", "_made", "name", "parent", "via", "_columns", "column",
    )

    def __init__(
        self, perms: tuple, index: dict, inverse: tuple, parent: tuple, via: tuple, gens: tuple, labels, name
    ):
        """Keep a closed group, its closure tree and generator columns; check
        the caller's labels, or keep None for cycle labels made when read."""
        self.order = order = len(perms)
        self.perms = perms
        self.index = index
        self.inverse = inverse
        self.parent = parent
        self.via = via
        self._columns = _Columns(gens, parent, via)
        self.column = self._columns.__getitem__
        self._labels = self._made = None
        if labels is None:
            self._made = {}  # element -> its cycle label, once read; distinct by construction
        else:
            if len(labels) != order:
                raise ValueError("labels length does not match group order")
            self._labels = tuple(str(x) for x in labels)
            if len(set(self._labels)) != order:
                raise ValueError("element labels must be distinct")
        self.name = name

    def mul(self, a: int, b: int) -> int:
        return self.index[compose_perms(self.perms[a], self.perms[b])]

    def mul_inv(self, a: int, b: int) -> int:
        """a * b^-1, the identity without composing when a == b."""
        return 0 if a == b else self.index[compose_perms(self.perms[a], self.perms[self.inverse[b]])]

    def label(self, a: int) -> str:
        if self._labels is not None:
            return self._labels[a]
        text = self._made.get(a)
        if text is None:
            text = self._made[a] = cycle_label(self.perms[a])
        return text

    def labelled(self, text: str) -> Optional[int]:
        """The element whose label is exactly ``text``, or None.  A cycle
        label is parsed into its permutation, which is looked up and then
        accepted only if ``text`` is that element's label: no other
        spelling of a permutation names it."""
        if self._made is None:
            try:
                return self._labels.index(text)
            except ValueError:
                return None
        a = self.index.get(_parse_cycles(text, len(self.perms[0])))
        return a if a is not None and self.label(a) == text else None

    def evaluate_word(self, images: Sequence[int], w: Word) -> int:
        """Evaluate a free word left-to-right through generator ``images``."""
        acc = 0
        for sym, sign in w:
            g = images[sym]
            acc = self.column(g if sign > 0 else self.inverse[g])[acc]
        return acc

    def __repr__(self) -> str:
        name = self.name or "group"
        return f"GroupTable({name}, order={self.order})"


@dataclass(frozen=True)
class SubgroupSet:
    """A subgroup of a parent group, stored as a sorted member tuple."""

    parent: GroupTable = field(compare=False, repr=False)
    members: tuple = ()

    def __post_init__(self):
        for m in self.members:
            if not _is_int(m):
                raise ValueError(f"subgroup member {m!r} is not an integer")
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))
        g = self.parent
        for m in self.members:
            if not 0 <= m < g.order:
                raise ValueError(f"subgroup member {m} out of range")
        if 0 not in self.members:
            raise ValueError("subgroup must contain the identity")
        memberset = set(self.members)
        for a in self.members:
            if g.inverse[a] not in memberset:
                raise ValueError(f"subgroup not closed under inverse at {g.label(a)}")
            for b in self.members:
                if g.mul(a, b) not in memberset:
                    raise ValueError(f"subgroup not closed under product at ({g.label(a)}, {g.label(b)})")

    @classmethod
    def _from_closure(cls, parent: GroupTable, orbit: list) -> SubgroupSet:
        """A subgroup closed by construction, stored without the checks."""
        s = cls.__new__(cls)
        object.__setattr__(s, "parent", parent)
        object.__setattr__(s, "members", tuple(sorted(orbit)))
        return s

    def __contains__(self, a: int) -> bool:
        return a in set(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def label_list(self) -> list[str]:
        return [self.parent.label(m) for m in self.members]


def group_from_permutations(
    degree: int,
    generators: Iterable[Sequence[int]],
    labels: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> GroupTable:
    """Close permutation generators into a group.

    Elements are numbered by breadth-first discovery: the identity first,
    then products ``current * generator`` with generators taken in input
    order.  Each such product is one entry of that generator's column, so
    the closure keeps the generator columns and the tree it walked.  Each
    element's permutation is read through one :func:`compose_perms` reader
    for all the generators, and a new element's inverse is carried down the
    tree as (parent * g)^-1 = g^-1 * parent^-1, one composition with the
    generator's inverse, so no permutation is inverted point by point.
    Raises :class:`ClosureCapError` once the closure passes ``cap``.
    """
    if not _is_int(degree):
        raise ValueError(f"degree {degree!r} is not an integer")
    if degree < 1:
        raise ValueError("degree must be positive")
    gens = [tuple(p) for p in generators]
    for k, p in enumerate(gens):
        for x in p:
            if not _is_int(x):
                raise ValueError(f"generator {k} image {x!r} is not an integer")
        if not is_permutation(p, degree):
            raise ValueError(f"generator {k} is not a permutation of 0..{degree - 1}: {p}")
    identity = tuple(range(degree))
    elements = [identity]
    inverses = [identity]  # inverses[i]: the permutation inverse to elements[i]
    index = {identity: 0}
    parent = [0]  # elements[i] == elements[parent[i]] * gens[via[i]] for i > 0
    via = [0]
    columns = [[] for _ in gens]  # columns[k][i]: the index of elements[i] * gens[k]
    steps = list(zip(gens, columns, map(_reader, map(invert_perm, gens))))
    for i, cur in enumerate(elements):  # the list grows while it is walked
        after = _reader(cur)
        for k, (g, col, inverse_then) in enumerate(steps):
            nxt = after(g)
            j = index.get(nxt)
            if j is None:
                if len(elements) >= cap:
                    raise ClosureCapError(f"closure exceeded cap of {cap} elements")
                j = index[nxt] = len(elements)
                elements.append(nxt)
                inverses.append(inverse_then(inverses[i]))  # g^-1 * cur^-1
                parent.append(i)
                via.append(k)
            col.append(j)
    inverse = tuple(map(index.__getitem__, inverses))
    columns = tuple(map(tuple, columns))
    return GroupTable(tuple(elements), index, inverse, tuple(parent), tuple(via), columns, labels, name)


def subgroup_closure(g: GroupTable, seed: Iterable[int]) -> SubgroupSet:
    """Smallest subgroup of ``g`` containing ``seed``.

    This is the orbit of the identity under right multiplication by the
    distinct seed elements, read from their columns: in a finite group
    every inverse is a power, so the orbit is closed under inverses too.
    """
    gens = set()
    for s in seed:
        if not _is_int(s):
            raise ValueError(f"seed element {s!r} is not an integer")
        if not 0 <= s < g.order:
            raise ValueError(f"seed element {s} out of range")
        gens.add(s)
    columns = [g.column(s) for s in gens]
    members = {0}
    orbit = [0]
    for a in orbit:  # the list grows while it is walked
        for col in columns:
            b = col[a]
            if b not in members:
                members.add(b)
                orbit.append(b)
    return SubgroupSet._from_closure(g, orbit)


def enumerate_subgroups(g: GroupTable) -> list[SubgroupSet]:
    """Every subgroup of ``g``, as the join-closure of its cyclic subgroups.

    A subgroup is generated by its elements, so it is a join of cyclic
    subgroups: starting from <x> for every x, each newly found subgroup is
    joined with each cyclic subgroup it does not contain until no new one
    appears.  Orders above 64 are rejected.
    """
    if g.order > SUBGROUP_ENUM_MAX_ORDER:
        raise ValueError(f"subgroup enumeration limited to order {SUBGROUP_ENUM_MAX_ORDER}")
    found: dict[tuple, SubgroupSet] = {}
    cyclic_generators = []  # one generator per cyclic subgroup
    for x in range(g.order):
        sub = subgroup_closure(g, (x,))
        if sub.members not in found:
            found[sub.members] = sub
            cyclic_generators.append(x)
    frontier = list(found.values())
    while frontier:
        new = []
        for sub in frontier:
            members = set(sub.members)
            for x in cyclic_generators:
                if x not in members:
                    join = subgroup_closure(g, sub.members + (x,))
                    if join.members not in found:
                        found[join.members] = join
                        new.append(join)
        frontier = new
    return sorted(found.values(), key=lambda s: (len(s.members), s.members))


def _catalog_specs():
    return {
        "Z2": (2, [(1, 0)], ["0", "1"]),
        "Z3": (3, [(1, 2, 0)], ["0", "1", "2"]),
        "Z4": (4, [(1, 2, 3, 0)], ["0", "1", "2", "3"]),
        "Z6": (6, [(1, 2, 3, 4, 5, 0)], ["0", "1", "2", "3", "4", "5"]),
        "S3": (3, [(1, 0, 2), (1, 2, 0)], None),
        "D4": (4, [(1, 2, 3, 0), (0, 3, 2, 1)], None),
        "A4": (4, [(1, 2, 0, 3), (1, 0, 3, 2)], None),
        "S4": (4, [(1, 0, 2, 3), (1, 2, 3, 0)], None),
    }


CATALOG_GROUP_NAMES = tuple(_catalog_specs())


def catalog_group(name: str) -> GroupTable:
    """Build a named group from the catalog (Z2, Z3, Z4, Z6, S3, D4, A4, S4).

    Cyclic groups use additive labels; with breadth-first numbering the
    label of element k is simply ``str(k)``.  The others carry cycle-notation
    labels.
    """
    specs = _catalog_specs()
    if name not in specs:
        known = ", ".join(sorted(specs))
        raise ValueError(f"unknown group name {name!r}; known: {known}")
    degree, gens, labels = specs[name]
    return group_from_permutations(degree, gens, labels=labels, name=name)
