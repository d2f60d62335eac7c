"""Permutation-native groups against composition of their permutations.

A group keeps its elements' permutations, the breadth-first tree of its
closure and one right-multiplication column per generator; any other column
is built from the tree when first read, and any other product composes two
permutations.  Here columns, products, quotients and inverses are checked
against composition written out point by point over ``perms`` on the
catalog, S5, S6, random groups and the right-regular groups their columns
generate, and an S6 document over the wedge of two circles is shown to
build no |G|^2 structure.  The closure itself, which composes through the
``compose_perms`` kernel and carries inverses down its tree, is checked
against a plain-loop closure, and the kernel on its edge cases.
"""

import random

import pytest

from flatconn.groups import (
    CATALOG_GROUP_NAMES,
    _catalog_specs,
    catalog_group,
    compose_perms,
    cycle_label,
    group_from_permutations,
    invert_perm,
)
from flatconn.io import parse_instance_data
from flatconn.theorems import HOLDS, standard_reports
from helpers import compose, reference_closure

S5_GENERATORS = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
S6_GENERATORS = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]


def closures():
    """(generators, group) for the catalog, S5, S6 and 100 random groups."""
    specs = [
        ([(1, 0)], "Z2"), ([(1, 2, 0)], "Z3"), ([(1, 2, 3, 0)], "Z4"), ([(1, 2, 3, 4, 5, 0)], "Z6"),
        ([(1, 0, 2), (1, 2, 0)], "S3"), ([(1, 2, 3, 0), (0, 3, 2, 1)], "D4"),
        ([(1, 2, 0, 3), (1, 0, 3, 2)], "A4"), ([(1, 0, 2, 3), (1, 2, 3, 0)], "S4"),
    ]
    out = [(gens, catalog_group(name)) for gens, name in specs]
    assert [g.name for _, g in out] == list(CATALOG_GROUP_NAMES)
    out += [(S5_GENERATORS, group_from_permutations(5, S5_GENERATORS))]
    out += [(S6_GENERATORS, group_from_permutations(6, S6_GENERATORS))]
    rng = random.Random(0)
    for _ in range(100):
        degree = rng.randint(1, 5)
        gens = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(0, 3))]
        out.append((gens, group_from_permutations(degree, gens)))
    return out


def check_against_composition(g, rng):
    """Every read of g against composing its permutations: all of them up to
    order 120, a seeded sample of columns and pairs above."""
    index = {p: i for i, p in enumerate(g.perms)}
    assert len(index) == g.order
    n = g.order
    columns = range(n) if n <= 120 else rng.sample(range(n), 40)
    pairs = [(a, b) for a in range(n) for b in range(n)] if n <= 120 else [
        (rng.randrange(n), rng.randrange(n)) for _ in range(4000)
    ]
    for w in columns:
        assert g.column(w) == tuple(index[compose(p, g.perms[w])] for p in g.perms)
    for a, b in pairs:
        assert g.mul(a, b) == index[compose(g.perms[a], g.perms[b])]
        assert g.mul_inv(a, b) == index[compose(g.perms[a], invert_perm(g.perms[b]))]
    for a in range(n):
        assert g.perms[g.inverse[a]] == invert_perm(g.perms[a])


def test_closure_reads_match_composition():
    rng = random.Random(1)
    for gens, g in closures():
        # before any read, only the generators' columns exist
        assert set(g._columns) == {g.index[tuple(p)] for p in gens}
        for i in range(1, g.order):
            assert g.parent[i] < i
            assert g.perms[i] == compose(g.perms[g.parent[i]], gens[g.via[i]])
        check_against_composition(g, rng)


def test_right_regular_groups_of_tables_match_composition():
    rng = random.Random(2)
    for _, g in closures():
        if g.order > 24:  # a right-regular permutation has degree |G|
            continue
        columns = [g.column(a) for a in range(g.order)]
        cayley = group_from_permutations(g.order, columns)  # every element a generator
        assert cayley.perms == tuple(columns)  # element a acts as column a
        assert cayley.inverse == g.inverse
        check_against_composition(cayley, rng)
        assert all(cayley.mul(a, b) == g.mul(a, b) for a in range(g.order) for b in range(g.order))


def s6_document(kernel: bool) -> dict:
    """S6 over the wedge of two circles, a voltage onto a seeded generating
    pair, covered by the holonomy kernel or by an involution's preimage."""
    rng = random.Random(3)
    while True:
        pair = [tuple(rng.sample(range(6), 6)) for _ in range(2)]
        if group_from_permutations(6, pair).order == 720:
            break
    return {
        "group": {"degree": 6, "generators": [list(p) for p in S6_GENERATORS]},
        "complex": {
            "vertices": 1,
            "edges": [{"id": 0, "tail": 0, "head": 0}, {"id": 1, "tail": 0, "head": 0}],
            "aliases": {"a": 0, "b": 1},
        },
        "voltage": [{"edge": "a", "element": cycle_label(pair[0])}, {"edge": "b", "element": cycle_label(pair[1])}],
        "covering": {"kind": "quotient", "subgroup": ["e" if kernel else "(01)"]},
    }


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "quotient"])
def test_s6_document_builds_no_square_table(kernel):
    inst = parse_instance_data(s6_document(kernel))
    g = inst.group
    assert g.order == 720
    # parsing keeps at most the generator columns, 2 x 720 entries
    assert set(g._columns) <= {g.index[p] for p in S6_GENERATORS}
    reports = standard_reports(inst, seed=3)
    assert inst.subgroup_aut.state_count == (720 if kernel else 360)
    assert reports[0].verdict == reports[1].verdict == HOLDS
    # verifying reads the columns of a few elements, not of all 720
    assert len(g._columns) <= 16


@pytest.mark.parametrize(
    "degree,gens",
    [
        *(_catalog_specs()[name][:2] for name in CATALOG_GROUP_NAMES),
        (5, S5_GENERATORS),
        (6, S6_GENERATORS),
        (12, [tuple(range(1, 12)) + (0,)]),
        (1, []),
        (1, [[0], [0]]),
        (3, [(1, 0, 2), (1, 0, 2), (0, 1, 2), (1, 2, 0)]),  # a duplicate and the identity
        (4, [[0, 1, 2, 3], [1, 0, 2, 3], [1, 0, 2, 3]]),
    ],
    ids=[*CATALOG_GROUP_NAMES, "S5", "S6", "Z12", "degree1", "degree1-identities", "S3-repeats", "Z2-repeats"],
)
def test_closure_matches_a_plain_loop_closure(degree, gens):
    """Numbering, index, inverses, tree and generator columns are those of
    a closure that composes point by point and inverts every element."""
    g = group_from_permutations(degree, gens)
    perms, index, inverse, parent, via, columns = reference_closure(degree, gens)
    assert g.perms == tuple(perms)
    assert g.index == index
    assert g.inverse == tuple(inverse)
    assert g.parent == tuple(parent) and g.via == tuple(via)
    assert [g.column(g.index[tuple(p)]) for p in gens] == [tuple(col) for col in columns]


def test_compose_perms_on_short_and_non_tuple_inputs():
    """``itemgetter`` gives a bare item for one index and refuses none, so
    lengths 0 and 1 are built directly; every length gives a tuple."""
    assert compose_perms((), (4, 5)) == () == compose_perms([], [])
    assert compose_perms((1,), (4, 5)) == (5,) == compose_perms([1], [4, 5])
    assert compose_perms((1, 0), (4, 5)) == (5, 4)
    assert compose_perms(range(2), [7, 8, 9]) == (7, 8) == compose_perms([0, 1], range(7, 10))
    assert compose_perms(range(1), range(3)) == (0,)
    assert compose_perms([2, 2, 0], "abc") == ("c", "c", "a")  # a column read at repeated points
    rng = random.Random(4)
    for n in (0, 1, 2, 3, 9, 840):
        p, q = rng.sample(range(n), n), rng.sample(range(n), n)
        assert compose_perms(p, q) == compose(p, q) == compose_perms(tuple(p), tuple(q))
