"""Every based subgroup of small index, counted against classical formulas.

A based subgroup of index n of pi1 is a transitive action of pi1 on n
points, up to relabelling the points other than the base point 0.  The
enumerator below takes every r-tuple of permutations of {0..n-1} (on the
torus only the commuting pairs, so that the relator acts trivially), keeps
the transitive ones and dedupes them by the coset automaton's breadth-first
normal form.  The counts come from formulas that share no code with the
library:

* M. Hall (Canad. J. Math. 1, 1949): the free group F_r has
  a_n = n (n!)^(r-1) - sum_{k<n} ((n-k)!)^(r-1) a_k subgroups of index n;
* Z^2, the torus group, has sigma(n) subgroups of index n.

The induced connection is trivial exactly when the subgroup lies in the
holonomy kernel K, of index m.  Such subgroups have index n/m in K, so there
are none unless m divides n, and otherwise a_{n/m}(F_{1+m(r-1)}) on a wedge
(K is free of that rank) and sigma(n/m) on the torus (K is again Z^2).

Each subgroup is rebuilt from its Schreier generators, through Stallings
folding on the wedges and Todd-Coxeter on the torus, and all seven claims
are checked on it.
"""

from itertools import permutations, product
from math import factorial
from operator import itemgetter

import pytest

from flatconn.complexes import BaseComplex, Edge
from flatconn.connections import Voltage
from flatconn.groups import catalog_group
from flatconn.subgroups import CosetAutomaton, SubgroupSpec, automata_equal
from flatconn.theorems import FAILS, Instance, standard_reports
from helpers import reidemeister_schreier


def hall(n, r):
    """a_n(F_r): the number of subgroups of index n in the free group of rank r."""
    a = [0]
    for m in range(1, n + 1):
        a.append(m * factorial(m) ** (r - 1) - sum(factorial(m - k) ** (r - 1) * a[k] for k in range(1, m)))
    return a[n]


def sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def wedge(r):
    return BaseComplex(1, [Edge(i, 0, 0) for i in range(r)])


def torus():
    return BaseComplex(1, [Edge(0, 0, 0), Edge(1, 0, 0)], relators=[((0, 1), (1, 1), (0, -1), (1, -1))])


def commute(p, q):
    return itemgetter(*q)(p) == itemgetter(*p)(q)


def based_subgroups(rank, n, abelian):
    """Each based subgroup of index n once, as its canonical coset automaton."""
    found = {}
    everything = list(permutations(range(n)))
    inverse = {p: tuple(sorted(range(n), key=p.__getitem__)) for p in everything}
    for perms in product(everything, repeat=rank):
        if abelian and not commute(*perms):
            continue
        moves = [q for p in perms for q in (p, inverse[p])]
        a = CosetAutomaton.from_action(rank, 0, moves)
        if a.state_count == n:
            found.setdefault(a.key(), a)
    return list(found.values())


CASES = {
    # base, group, voltage, largest index, subgroup count, trivialising count in K of index n/m
    "wedge2-Z2": (wedge(2), "Z2", (1, 0), 5, lambda n: hall(n, 2), lambda n, m: hall(n, 1 + m)),
    "torus-Z4": (torus(), "Z4", (2, 0), 6, sigma, lambda n, m: sigma(n)),
    "wedge3-Z3": (wedge(3), "Z3", (1, 2, 0), 3, lambda n: hall(n, 3), lambda n, m: hall(n, 1 + 2 * m)),
}


def test_hall_and_sigma_counts():
    assert [hall(n, 2) for n in range(1, 6)] == [1, 3, 13, 71, 461]
    assert [hall(n, 3) for n in range(1, 4)] == [1, 7, 97]
    assert [sigma(n) for n in range(1, 7)] == [1, 3, 4, 7, 6, 12]


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_low_index_subgroup(case):
    base, group_name, values, max_index, subgroup_count, kernel_count = CASES[case]
    group = catalog_group(group_name)
    voltage = Voltage(base, group, dict(enumerate(values)))
    probe = Instance(voltage)
    m, presentation = probe.kernel_aut.state_count, probe.presentation
    assert m == len(probe.image) > 1
    for n in range(1, max_index + 1):
        subgroups = based_subgroups(presentation.rank, n, abelian=bool(base.relators))
        assert len(subgroups) == subgroup_count(n), (case, n)
        trivialising = 0
        for k, a in enumerate(subgroups):
            spec = SubgroupSpec("words", tuple(reidemeister_schreier(a, presentation)))
            inst = Instance(voltage, spec)
            assert automata_equal(inst.subgroup_aut, a), (case, n, k)
            reports = standard_reports(inst, seed=k)
            assert not [r.claim for r in reports if r.verdict == FAILS], (case, n, k)
            trivialising += "trivial: yes" in reports[2].notes
        assert trivialising == (kernel_count(n // m, m) if n % m == 0 else 0), (case, n)
