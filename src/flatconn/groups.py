"""Finite groups as explicit multiplication tables, with subgroup machinery.

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
    """Left-to-right composition: apply ``p`` first, then ``q``."""
    return tuple(q[p[i]] for i in range(len(p)))


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


class GroupTable:
    """A finite group given by its full multiplication table.

    ``product[i][j]`` is the index of the product of elements i and j (in
    that order, left-to-right).  Identity checks and inverse totality are
    enforced at construction; associativity can be checked exhaustively for
    small orders via :meth:`check_associativity`.
    """

    __slots__ = ("order", "product", "inverse", "labels", "name", "perms")

    def __init__(
        self,
        product: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
        perms: Optional[Sequence[Perm]] = None,
    ):
        table = tuple(tuple(row) for row in product)
        order = len(table)
        if order == 0:
            raise ValueError("group order must be positive")
        for i, row in enumerate(table):
            if len(row) != order:
                raise ValueError(f"product row {i} has length {len(row)}, expected {order}")
            for x in row:
                if not _is_int(x):
                    raise ValueError(f"product entry {x!r} is not an integer")
                if not 0 <= x < order:
                    raise ValueError(f"product entry {x} out of range 0..{order - 1}")
        if table[0] != tuple(range(order)) or any(table[i][0] != i for i in range(order)):
            raise ValueError("element 0 must act as the identity")
        for i, row in enumerate(table):
            if 0 not in row:
                raise ValueError(f"element {i} has no inverse")
            if table[row.index(0)][i] != 0:
                raise ValueError(f"one-sided inverse at element {i}")
        self._store(table, labels, name, perms)

    @classmethod
    def _from_closure(cls, product: tuple, labels, name, perms: tuple) -> GroupTable:
        """A closure's table, stored unchecked: its rows are permutations."""
        g = cls.__new__(cls)
        g._store(product, labels, name, perms)
        return g

    def _store(self, product: tuple, labels, name, perms) -> None:
        """Keep a valid table (i's inverse is where row i holds 0); check the caller's labels."""
        self.order = order = len(product)
        self.product = product
        self.inverse = tuple(row.index(0) for row in product)
        if labels is not None:
            if len(labels) != order:
                raise ValueError("labels length does not match group order")
            self.labels = tuple(str(x) for x in labels)
        else:
            self.labels = tuple(str(i) for i in range(order))
        if len(set(self.labels)) != order:
            raise ValueError("element labels must be distinct")
        self.name = name
        self.perms = tuple(tuple(p) for p in perms) if perms is not None else None

    def mul(self, a: int, b: int) -> int:
        return self.product[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugate(self, x: int, a: int) -> int:
        """x * a * x^-1."""
        return self.mul(self.mul(x, a), self.inverse[x])

    def label(self, a: int) -> str:
        return self.labels[a]

    def evaluate_word(self, images: Sequence[int], w: Word) -> int:
        """Evaluate a free word left-to-right through generator ``images``."""
        acc = 0
        for sym, sign in w:
            g = images[sym]
            acc = self.product[acc][g if sign > 0 else self.inverse[g]]
        return acc

    def check_associativity(self) -> None:
        """Exhaustive associativity check; refuses orders above 64."""
        if self.order > SUBGROUP_ENUM_MAX_ORDER:
            raise ValueError(f"exhaustive associativity check limited to order {SUBGROUP_ENUM_MAX_ORDER}")
        t = self.product
        n = self.order
        for a in range(n):
            for b in range(n):
                ab = t[a][b]
                for c in range(n):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise ValueError(f"product is not associative at ({a}, {b}, {c})")

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
                if g.product[a][b] not in memberset:
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
    """Close permutation generators into a full multiplication table.

    Elements are numbered by breadth-first discovery: the identity first,
    then products ``current * generator`` with generators taken in input
    order.  Raises :class:`ClosureCapError` once the closure passes ``cap``.
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
    index = {identity: 0}
    parent = [0]  # elements[i] == elements[parent[i]] * gens[via[i]] for i > 0
    via = [0]
    for i, cur in enumerate(elements):  # the list grows while it is walked
        for k, g in enumerate(gens):
            nxt = compose_perms(cur, g)
            if nxt not in index:
                if len(elements) >= cap:
                    raise ClosureCapError(f"closure exceeded cap of {cap} elements")
                index[nxt] = len(elements)
                elements.append(nxt)
                parent.append(i)
                via.append(k)
    # i * j = parent(i) * (g * j), so row i is row parent(i) read through
    # left multiplication by g: |G| * |gens| products, then one C-level
    # permutation per row instead of |G| products (an itemgetter returns a
    # tuple once |G| >= 2, the only case in which the loop runs)
    left = [itemgetter(*(index[compose_perms(g, p)] for p in elements)) for g in gens]
    product = [tuple(range(len(elements)))]
    for i in range(1, len(elements)):
        product.append(left[via[i]](product[parent[i]]))
    if labels is None:
        labels = [cycle_label(p) for p in elements]
    return GroupTable._from_closure(tuple(product), labels, name, tuple(elements))


def subgroup_closure(g: GroupTable, seed: Iterable[int]) -> SubgroupSet:
    """Smallest subgroup of ``g`` containing ``seed``.

    This is the orbit of the identity under right multiplication by the
    distinct seed elements: in a finite group every inverse is a power, so
    the orbit is closed under inverses too.
    """
    gens = set()
    for s in seed:
        if not _is_int(s):
            raise ValueError(f"seed element {s!r} is not an integer")
        if not 0 <= s < g.order:
            raise ValueError(f"seed element {s} out of range")
        gens.add(s)
    members = {0}
    orbit = [0]
    for a in orbit:  # the list grows while it is walked
        row = g.product[a]
        for s in gens:
            if row[s] not in members:
                members.add(row[s])
                orbit.append(row[s])
    return SubgroupSet._from_closure(g, orbit)


def is_normal(g: GroupTable, s: SubgroupSet) -> bool:
    """True iff x * m * x^-1 lies in ``s`` for all x in g, m in s."""
    memberset = set(s.members)
    return all(g.conjugate(x, m) in memberset for x in range(g.order) for m in s.members)


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
