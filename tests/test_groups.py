import random
from itertools import permutations

import pytest

from flatconn.errors import ClosureCapError
from flatconn.groups import (
    SubgroupSet,
    catalog_group,
    compose_perms,
    cycle_label,
    enumerate_subgroups,
    group_from_permutations,
    invert_perm,
    subgroup_closure,
    CATALOG_GROUP_NAMES,
)
from helpers import compose

S5_GENERATORS = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]


def brute_force_closure(degree, gens):
    """Independent oracle: close a set of permutations under composition."""
    elems = {tuple(range(degree))}
    while True:
        new = {compose(p, q) for p in elems for q in list(gens) + list(elems)} - elems
        if not new:
            return elems
        elems |= new


def test_s3_from_transposition_and_cycle():
    g = group_from_permutations(3, [(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    assert set(g.perms) == set(permutations(range(3)))
    assert set(g.perms) == brute_force_closure(3, [(1, 0, 2), (1, 2, 0)])
    # breadth-first numbering pinned by hand
    assert tuple(map(g.label, range(g.order))) == ("e", "(01)", "(012)", "(02)", "(12)", "(021)")


def test_trivial_group():
    g = group_from_permutations(1, [])
    assert g.order == 1
    assert g.label(0) == "e"


def test_cyclic_from_four_cycle():
    g = group_from_permutations(4, [(1, 2, 3, 0)])
    assert g.order == 4
    # index k is the k-th power of the generator
    for k in range(4):
        assert g.mul(k, 1) == (k + 1) % 4


def test_left_to_right_composition():
    # apply (01) then (012): 0 -> 1 -> 2
    assert compose_perms((1, 0, 2), (1, 2, 0)) == (2, 1, 0)
    assert cycle_label((2, 1, 0)) == "(02)"
    assert invert_perm((1, 2, 0)) == (2, 0, 1)


def test_non_bijective_generator_rejected():
    with pytest.raises(ValueError):
        group_from_permutations(3, [(0, 0, 2)])


def test_non_integer_generator_image_rejected():
    # not truncated into the transposition (01)
    with pytest.raises(ValueError) as err:
        group_from_permutations(3, [(1.5, 0, 2)])
    assert str(err.value) == "generator 0 image 1.5 is not an integer"


def test_closure_cap():
    with pytest.raises(ClosureCapError):
        group_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)], cap=10)


@pytest.mark.parametrize(
    "members,message",
    [
        ((0, 6), "subgroup member 6 out of range"),
        ((-1, 0), "subgroup member -1 out of range"),
        ((7, 1), "subgroup member 7 out of range"),  # range is checked before the identity
        ((1, 2), "subgroup must contain the identity"),
        ((0, 2), "subgroup not closed under inverse at (012)"),
        ((0, 1, 3), "subgroup not closed under product at ((01), (02))"),
        # the product check at (01) runs before the inverse check at (012)
        ((0, 1, 2), "subgroup not closed under product at ((01), (012))"),
        ((0, 2, 3), "subgroup not closed under inverse at (012)"),
        ((0, 3, 4), "subgroup not closed under product at ((02), (12))"),
        # members are not truncated: 1.7 is not (01)
        ((0, 1.7), "subgroup member 1.7 is not an integer"),
        ((0, True), "subgroup member True is not an integer"),
    ],
)
def test_subgroup_set_constructor_errors(members, message):
    s3 = catalog_group("S3")
    with pytest.raises(ValueError) as err:
        SubgroupSet(s3, members)
    assert str(err.value) == message
    assert SubgroupSet(s3, (3, 0, 3)).members == (0, 3)


def test_table_matches_composition_oracle():
    groups = [catalog_group(name) for name in CATALOG_GROUP_NAMES]
    groups.append(group_from_permutations(5, S5_GENERATORS))
    for g in groups:
        index = {p: i for i, p in enumerate(g.perms)}
        assert len(index) == g.order
        for i in range(g.order):
            for j in range(g.order):
                assert g.column(j)[i] == index[compose(g.perms[i], g.perms[j])]
            assert g.mul(i, g.inverse[i]) == 0 == g.mul(g.inverse[i], i)


@pytest.mark.parametrize("degree,gens,order", [(4, [(1, 0, 2, 3), (1, 2, 3, 0)], 24), (5, S5_GENERATORS, 120)])
def test_closure_cap_boundary(degree, gens, order):
    assert group_from_permutations(degree, gens, cap=order).order == order
    with pytest.raises(ClosureCapError) as err:
        group_from_permutations(degree, gens, cap=order - 1)
    assert str(err.value) == f"closure exceeded cap of {order - 1} elements"


def test_permutation_action_matches_table():
    for name in ("S3", "D4", "A4", "S4"):
        g = catalog_group(name)
        specs = {
            "S3": [(1, 0, 2), (1, 2, 0)],
            "D4": [(1, 2, 3, 0), (0, 3, 2, 1)],
            "A4": [(1, 2, 0, 3), (1, 0, 3, 2)],
            "S4": [(1, 0, 2, 3), (1, 2, 3, 0)],
        }
        for p in specs[name]:
            i = g.perms.index(tuple(p))
            for j in range(g.order):
                assert g.perms[g.column(i)[j]] == compose(g.perms[j], p)


def test_identity_and_inverse_axioms():
    for name in CATALOG_GROUP_NAMES:
        g = catalog_group(name)
        col = g.column
        for a in range(g.order):
            for b in range(g.order):
                for c in range(g.order):
                    assert col(c)[col(b)[a]] == col(col(c)[b])[a], (a, b, c)
        for i in range(g.order):
            assert g.mul(0, i) == i == g.mul(i, 0)
            assert g.mul(i, g.inverse[i]) == 0


def test_subgroup_closure_a3(s3):
    a3 = subgroup_closure(s3, [2])
    assert a3.label_list() == ["e", "(012)", "(021)"]


def test_subgroup_closure_trivial(s3):
    assert subgroup_closure(s3, []).members == (0,)


def test_subgroup_closure_whole_group(s3):
    assert len(subgroup_closure(s3, [1, 2])) == 6


def brute_force_subgroup(g, seed):
    """Independent oracle: close {e} and the seed under products until stable."""
    members = {0} | set(seed)
    while True:
        new = {g.mul(a, b) for a in members for b in members} - members
        if not new:
            return tuple(sorted(members))
        members |= new


def test_subgroup_closure_random_seeds():
    groups = [catalog_group(name) for name in CATALOG_GROUP_NAMES]
    groups.append(group_from_permutations(5, S5_GENERATORS))
    for g in groups:
        rng = random.Random(g.order)
        for _ in range(40):
            seed = [rng.randrange(g.order) for _ in range(rng.randint(0, 4))]
            seed += seed[: rng.randint(0, len(seed))]  # repeated seed elements
            assert subgroup_closure(g, seed).members == brute_force_subgroup(g, seed)


def test_subgroup_closure_rejects_out_of_range_seed(s3):
    for bad in (-1, 6):
        with pytest.raises(ValueError, match="out of range"):
            subgroup_closure(s3, [1, bad])


def test_subgroup_closure_rejects_non_integer_seed(s3):
    # not truncated into <(01)>
    with pytest.raises(ValueError) as err:
        subgroup_closure(s3, (1.9,))
    assert str(err.value) == "seed element 1.9 is not an integer"


def test_subgroup_closure_idempotent():
    for name in ("S3", "D4", "A4"):
        g = catalog_group(name)
        for sub in enumerate_subgroups(g):
            again = subgroup_closure(g, sub.members)
            assert again.members == sub.members


def test_enumerate_subgroups_s3(s3):
    subs = enumerate_subgroups(s3)
    assert len(subs) == 6
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]


def test_enumerate_subgroups_z4(z4):
    subs = enumerate_subgroups(z4)
    assert [s.members for s in subs] == [(0,), (0, 2), (0, 1, 2, 3)]


def test_enumerate_subgroups_needs_four_generators():
    # Z2^4 as four disjoint transpositions: the whole group needs four
    # generators; subgroup counts by order are the Gaussian binomials
    # 1, 15, 35, 15, 1
    gens = [tuple(i ^ 1 if i // 2 == k else i for i in range(8)) for k in range(4)]
    g = group_from_permutations(8, gens)
    assert g.order == 16
    subs = enumerate_subgroups(g)
    assert len(subs) == 67
    sizes = [len(s) for s in subs]
    assert [sizes.count(2**k) for k in range(5)] == [1, 15, 35, 15, 1]
    assert subs[-1].members == tuple(range(16))


def test_enumerate_subgroups_trivial():
    g = group_from_permutations(1, [])
    assert len(enumerate_subgroups(g)) == 1


def test_enumerate_subgroups_lagrange():
    for name in CATALOG_GROUP_NAMES:
        g = catalog_group(name)
        for sub in enumerate_subgroups(g):
            assert g.order % len(sub) == 0
            # construction re-checks the subgroup axioms
            SubgroupSet(g, sub.members)


def test_enumerate_subgroups_order_bound():
    big = group_from_permutations(65, [tuple(list(range(1, 65)) + [0])])
    with pytest.raises(ValueError):
        enumerate_subgroups(big)


def test_evaluate_word(s3):
    # a b a^-1 with a -> (01), b -> (012): (01)(012)(01)
    val = s3.evaluate_word([1, 2], ((0, 1), (1, 1), (0, -1)))
    assert s3.label(val) == "(021)"


def test_catalog_orders():
    expected = {"Z2": 2, "Z3": 3, "Z4": 4, "Z6": 6, "S3": 6, "D4": 8, "A4": 12, "S4": 24}
    for name, order in expected.items():
        assert catalog_group(name).order == order


def test_unknown_catalog_name():
    with pytest.raises(ValueError):
        catalog_group("Q8")
