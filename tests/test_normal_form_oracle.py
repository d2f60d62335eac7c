"""Every coset automaton the pipeline builds is in breadth-first normal form.

The oracle is the long route, kept in ``tests/helpers.py``: an action's
orbit found over the forward generators with the backward columns filled
by inversion (``discover_then_renumber``), or a finished coset table's live
cosets compacted (``compact_then_renumber``), then the columns checked and
renumbered by a second breadth-first walk.  Over corpus seeds 0-7 and every
document, each automaton built on the way (the covering subgroup, the
holonomy kernel, both bundle subgroups, and every Stallings and
Todd-Coxeter output) is compared with the oracle's field by field.
"""

import os

import pytest

from flatconn.corpus import generate_corpus
from flatconn.errors import EnumerationCapError, IncompleteAutomatonError, InputError
from flatconn.io import parse_instance
from flatconn.subgroups import CosetAutomaton, _CosetTable

from helpers import automaton_fields, compact_then_renumber, discover_then_renumber

INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")
DOCUMENTS = os.path.join(os.path.dirname(__file__), "documents")
CORPUS_SEEDS = range(8)
CORPUS_COUNT = 250


def _instances():
    out = []
    for seed in CORPUS_SEEDS:
        out.extend(item.instance for item in generate_corpus(seed, CORPUS_COUNT))
    for folder in (INSTANCES, DOCUMENTS):
        for name in sorted(os.listdir(folder)):
            try:
                out.append(parse_instance(os.path.join(folder, name)))
            except InputError:
                continue
    return out


@pytest.fixture
def checked(monkeypatch):
    """Counts of the automata built, by route, each checked against the oracle."""
    counts = {"action": 0, "table": 0}
    from_action = CosetAutomaton.from_action.__func__
    table_automaton = _CosetTable.automaton
    inside_table = []

    def checked_from_action(cls, rank, start, act):
        a = from_action(cls, rank, start, act)
        if not inside_table:
            assert automaton_fields(a) == discover_then_renumber(rank, start, lambda x, g: act(x, 2 * g))
            counts["action"] += 1
        return a

    def checked_table_automaton(table):
        expected = compact_then_renumber(table)
        inside_table.append(table)
        try:
            a = table_automaton(table)
        finally:
            inside_table.pop()
        assert automaton_fields(a) == expected
        counts["table"] += 1
        return a

    monkeypatch.setattr(CosetAutomaton, "from_action", classmethod(checked_from_action))
    monkeypatch.setattr(_CosetTable, "automaton", checked_table_automaton)
    return counts


def test_every_pipeline_automaton_matches_the_renumbering_oracle(checked):
    covered = 0
    for inst in _instances():
        inst.kernel_aut
        inst.base_nx_subgroup
        try:
            complete = inst.subgroup_aut.complete
        except (EnumerationCapError, IncompleteAutomatonError):
            continue
        if complete:
            inst.composite_subgroup
            covered += 1
    assert covered > 1800
    assert checked["action"] > 7000 and checked["table"] > 600
