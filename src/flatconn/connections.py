"""Flat connections as voltage assignments and their holonomy.

A voltage assigns one group element to each edge (forward orientation);
traversing an edge backwards contributes the inverse.  Path products are
taken left-to-right, matching the permutation composition convention, and a
voltage is flat when every relator path multiplies to the identity; then
the holonomy of a loop depends only on its homotopy class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional

from .complexes import BaseComplex, SpanningTreeData, validate_complex
from .errors import FlatnessError
from .groups import GroupTable, SubgroupSet, _is_int, subgroup_closure
from .subgroups import CosetAutomaton, automaton_from_quotient


@dataclass(frozen=True, eq=False)
class Voltage:
    """An edge -> group element assignment on a validated complex; it owns
    its copy of the assignment, so flatness is evaluated once."""

    complex: BaseComplex
    group: GroupTable
    assignment: Mapping[int, int]

    def __post_init__(self):
        validate_complex(self.complex)
        seen = dict(self.assignment)
        for eid in self.complex.ids:
            if eid not in seen:
                raise ValueError(f"voltage missing for edge {eid}")
            val = seen.pop(eid)
            if not _is_int(val):
                raise ValueError(f"voltage on edge {eid} is not an integer: {val!r}")
            if not 0 <= val < self.group.order:
                raise ValueError(f"voltage on edge {eid} out of range: {val}")
        if seen:
            raise ValueError(f"voltage assigned to unknown edges {sorted(seen)}")
        object.__setattr__(self, "assignment", dict(self.assignment))

    @classmethod
    def _trusted(
        cls, complex: BaseComplex, group: GroupTable, assignment: dict, violations: Optional[tuple] = None
    ) -> Voltage:
        """A voltage valid by construction, stored without the checks; known
        ``violations`` are kept as its flatness result."""
        v = cls.__new__(cls)
        object.__setattr__(v, "complex", complex)
        object.__setattr__(v, "group", group)
        object.__setattr__(v, "assignment", assignment)
        if violations is not None:
            v.__dict__["_violations"] = violations
        return v

    @cached_property
    def _violations(self) -> tuple:
        g, out = self.group, []
        for k, rel in enumerate(self.complex.relators):
            prod = g.evaluate_word(self.assignment, rel)
            if prod != 0:
                out.append(FlatnessViolation(k, prod, g.label(prod)))
        return tuple(out)

    def on_edge(self, eid: int) -> int:
        return self.assignment[eid]

    def on_step(self, step: tuple[int, int]) -> int:
        eid, sign = step
        g = self.assignment[eid]
        return g if sign > 0 else self.group.inverse[g]

    def as_tuple(self) -> tuple:
        """Assignment in ascending edge order; handy as a cache key."""
        return tuple(map(self.assignment.__getitem__, self.complex.ids))


@dataclass(frozen=True)
class FlatnessViolation:
    relator_index: int
    product: int
    product_label: str

    def __str__(self) -> str:
        return f"relator {self.relator_index} multiplies to {self.product_label}"


def check_flatness(v: Voltage) -> tuple[FlatnessViolation, ...]:
    """All relators whose path-ordered product is not the identity.

    Violations are reported exhaustively; an empty result means flat.
    """
    return v._violations


def _require_flat(v: Voltage) -> None:
    if v._violations:
        raise FlatnessError(v._violations)


@dataclass(frozen=True)
class HolonomyMorphism:
    """The holonomy homomorphism on the fundamental group.

    Images are indexed by the spanning tree's non-tree edge generators; the
    image of generator e is the holonomy of (tree path to tail of e) . e .
    (tree path from head of e back to the basepoint).
    """

    group: GroupTable
    images: tuple

    @property
    def rank(self) -> int:
        return len(self.images)


def _tree_potentials(t: SpanningTreeData, g: GroupTable, value: Callable[[tuple], int]) -> list:
    """pot[u]: the product of value(step) along the tree path to u, read in
    one pass down the tree (Gross-Tucker's T-reduced voltage)."""
    column, parent, up = g.column, t.parent, t.up
    pot = [0] * len(up)
    for u in t.order[1:]:
        pot[u] = column(value(parent[u]))[pot[up[u]]]
    return pot


def holonomy_morphism(v: Voltage, t: SpanningTreeData) -> HolonomyMorphism:
    """Generator images of the holonomy map; requires a flat voltage.

    The image of e is pot(tail e) * w(e) * pot(head e)^-1, where the
    potential pot(u) is the product along the tree path to u.
    """
    _require_flat(v)
    g, c, w = v.group, v.complex, v.assignment
    pot = _tree_potentials(t, g, v.on_step)
    tails, heads, column, mul_inv = c.tails, c.heads, g.column, g.mul_inv
    gens = t.generators
    images = tuple(
        [mul_inv(column(w[eid])[pot[tails[p]]], pot[heads[p]]) for eid, p in zip(gens, map(c.edge_pos, gens))]
    )
    return HolonomyMorphism(group=v.group, images=images)


def holonomy_group(h: HolonomyMorphism) -> SubgroupSet:
    """The holonomy group: closure of the generator images."""
    return subgroup_closure(h.group, h.images)


def kernel_automaton(h: HolonomyMorphism) -> CosetAutomaton:
    """Coset automaton of the holonomy kernel; index equals |Im h|."""
    trivial = subgroup_closure(h.group, ())
    return automaton_from_quotient(h.images, h.group, trivial)
