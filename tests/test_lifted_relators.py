"""Covers built from automaton columns, against the step-by-step lifting.

``build_cover`` traces every relator from every state through the automaton
columns, and the total space lists its lifted relators only when they are
read.  On every cover of corpus seeds 0-7 and of every instance document,
the listed relators equal the eager loop's list (in ``helpers``), index and
slice as that list does, and pass the public validator on a fresh complex.
The verify path checks the incidence of one map, the cover's projection, once.
"""

import os
from collections import Counter

import pytest

from flatconn import covers, theorems
from flatconn.complexes import BaseComplex, Edge, validate_complex
from flatconn.covers import build_cover
from flatconn.errors import ComplexError
from flatconn.io import parse_instance
from flatconn.subgroups import CosetAutomaton
from flatconn.theorems import standard_reports
from helpers import eager_lifted_relators
from test_trusted_builders import covered_instances  # noqa: F401  (a fixture)

INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


def test_lifted_relators_match_the_eager_loop(covered_instances):
    with_relators = 0
    for inst in covered_instances:
        lazy = inst.cover.total.relators
        eager = eager_lifted_relators(inst.complex, inst.subgroup_aut)
        assert list(lazy) == eager, inst.name
        assert len(lazy) == len(eager), inst.name
        assert lazy[:] == eager and lazy[::-1] == eager[::-1] and lazy[1::3] == eager[1::3], inst.name
        assert lazy[-2:] == eager[-2:] and lazy[5:-5] == eager[5:-5], inst.name
        for i in (-1, -len(eager)) if eager else ():
            assert lazy[i] == eager[i], inst.name
        for i in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                lazy[i]
        with_relators += bool(eager)
    assert with_relators > 8 * 20


def test_listed_relators_pass_validate_complex(covered_instances):
    for inst in covered_instances:
        total = inst.cover.total
        fresh = BaseComplex(total.vertex_count, list(total.edges), basepoint=total.basepoint,
                            relators=list(total.relators))
        assert not fresh._validated
        assert validate_complex(fresh) is fresh, inst.name


def test_closure_error_counts_empty_relators():
    commutator = ((0, 1), (1, 1), (0, -1), (1, -1))
    torus = BaseComplex(1, [Edge(0, 0, 0), Edge(1, 0, 0)], relators=[(), commutator])
    # a acts as a transposition, b as a 3-cycle: the commutator moves state 0
    aut = CosetAutomaton(2, [[1, 0, 2], [1, 2, 0]], [[1, 0, 2], [2, 0, 1]])
    with pytest.raises(ComplexError) as err:
        build_cover(torus, aut)
    assert str(err.value) == (
        "relator 1 does not close over state 0; the automaton is not compatible with the relators"
    )


def test_each_map_checks_its_incidence_once(monkeypatch):
    checked = Counter()
    maps = []  # kept alive, so that no two maps share an id
    check = covers.check_incidence

    def counting(m):
        checked[id(m)] += 1
        maps.append(m)
        return check(m)

    for module in (covers, theorems):  # every name the check is called by
        monkeypatch.setattr(module, "check_incidence", counting)
    inst = parse_instance(os.path.join(INSTANCES, "wedge_s3_kernel.json"))
    standard_reports(inst, seed=0)
    # functoriality projects words through the cover, whose projection is checked once
    assert checked == {id(inst.cover.projection()): 1}
