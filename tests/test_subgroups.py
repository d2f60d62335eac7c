import functools
import random

import pytest

from flatconn.complexes import Presentation, pi1_presentation
from flatconn.corpus import generate_corpus
from flatconn.errors import EnumerationCapError, IncompleteAutomatonError
from flatconn.groups import catalog_group, subgroup_closure
from flatconn.subgroups import (
    CosetAutomaton,
    SubgroupSpec,
    automata_equal,
    automaton_from_quotient,
    automaton_from_spec,
    is_normal_subgroup,
    stallings_core,
    todd_coxeter,
)
from flatconn.words import reduce_word
from helpers import reidemeister_schreier

FREE2 = Presentation(generators=(0, 1), relators=())

A = (0, 1)
B = (1, 1)
A_ = (0, -1)
B_ = (1, -1)

INDEX2 = [(A, A), (B,), (A, B, A_)]  # kernel of the a-parity map


def test_stallings_index_two():
    aut = stallings_core(INDEX2, 2)
    assert aut.complete
    assert aut.state_count == 2
    assert aut.forward == ((1, 0), (0, 1))


def test_stallings_infinite_index():
    aut = stallings_core([(A,)], 2)
    assert not aut.complete
    assert aut.state_count == 1
    assert aut.forward == ((0,), (None,))


def test_stallings_empty():
    aut = stallings_core([], 2)
    assert aut.state_count == 1
    assert aut.forward == ((None,), (None,))
    assert not aut.complete


# Tables of partial (infinite-index) cores, pinned from the fixpoint-folding
# implementation that the coset-table scan replaced: the canonical numbering
# must make them identical, hairs and undefined transitions included.
PINNED_PARTIAL_CORES = [
    ([(A,)], ((0,), (None,)), ((0,), (None,))),
    ([(A, B, A_)], ((1, None), (None, 1)), ((None, 0), (None, 1))),
    (
        [(A, A), (B, A, B_)],
        ((1, 0, 2), (2, None, None)),
        ((1, 0, 2), (None, None, 0)),
    ),
    (
        [(A, B, A_, B_)],
        ((1, None, 3, None), (2, 3, None, None)),
        ((None, 0, None, 2), (None, None, 0, 1)),
    ),
    (
        [(A, A, B), (B_, A, B, B)],
        ((1, 2, 3, None), (None, None, 0, 2)),
        ((None, 0, 1, 2), (2, None, 3, None)),
    ),
]


@pytest.mark.parametrize("words,forward,backward", PINNED_PARTIAL_CORES)
def test_stallings_partial_tables_pinned(words, forward, backward):
    aut = stallings_core(words, 2)
    assert not aut.complete
    assert aut.forward == forward
    assert aut.backward == backward


def test_membership_examples():
    aut = stallings_core(INDEX2, 2)
    assert aut.trace((A, A)) == 0
    assert aut.trace((A, B)) != 0
    assert aut.trace(()) == 0


def test_membership_incomplete_core():
    aut = stallings_core([(A,)], 2)
    assert aut.trace((A,)) == 0
    assert aut.trace((B,)) is None  # undefined transition: not a member


def test_membership_invariant_under_free_reduction():
    rng = random.Random(3)
    aut = stallings_core(INDEX2, 2)
    for _ in range(100):
        w = tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 8)))
        k = rng.randint(0, len(w))
        sym, sign = rng.randrange(2), rng.choice((1, -1))
        padded = w[:k] + ((sym, sign), (sym, -sign)) + w[k:]
        assert aut.trace(padded) == aut.trace(w)
        assert aut.trace(reduce_word(w)) == aut.trace(w)


def test_automata_equal_reflexive():
    aut = stallings_core(INDEX2, 2)
    assert automata_equal(aut, aut)


def test_automata_equal_across_constructions(z2):
    core = stallings_core(INDEX2, 2)
    quot = automaton_from_quotient([1, 0], z2, subgroup_closure(z2, ()))
    assert automata_equal(core, quot)


def test_automata_not_equal_different_index(s3):
    a3 = automaton_from_quotient([1, 2], s3, subgroup_closure(s3, [2]))
    ker = automaton_from_quotient([1, 2], s3, subgroup_closure(s3, ()))
    assert a3.state_count == 2 and ker.state_count == 6
    assert not automata_equal(a3, ker)


def test_automata_equal_requires_complete():
    core = stallings_core([(A,)], 2)
    with pytest.raises(IncompleteAutomatonError):
        automata_equal(core, core)


def test_quotient_automaton_a3(s3):
    aut = automaton_from_quotient([1, 2], s3, subgroup_closure(s3, [2]))
    assert aut.state_count == 2
    assert aut.forward[0] == (1, 0)  # a swaps the two cosets
    assert aut.forward[1] == (0, 1)  # b fixes both


def test_quotient_automaton_whole_group(s3):
    aut = automaton_from_quotient([1, 2], s3, subgroup_closure(s3, [1, 2]))
    assert aut.state_count == 1


def test_quotient_automaton_cayley(s3):
    aut = automaton_from_quotient([1, 2], s3, subgroup_closure(s3, ()))
    assert aut.state_count == 6
    assert aut.complete


def test_quotient_rejects_bad_relator_image(s3):
    rel = ((0, 1), (1, 1), (0, -1), (1, -1))
    with pytest.raises(ValueError, match="relator"):
        automaton_from_quotient([1, 3], s3, subgroup_closure(s3, ()), relators=[rel])


def test_todd_coxeter_torus_index_two(torus):
    pres = pi1_presentation(torus)
    aut = todd_coxeter(pres, [(A,), (B, B)])
    assert aut.complete
    assert aut.state_count == 2


def test_todd_coxeter_index_one(torus):
    pres = pi1_presentation(torus)
    aut = todd_coxeter(pres, [(A,), (B,)])
    assert aut.state_count == 1


def test_todd_coxeter_cap_exceeded(torus):
    pres = pi1_presentation(torus)
    with pytest.raises(EnumerationCapError, match="did not complete within cap"):
        todd_coxeter(pres, [(A,)], cap=1000)


@functools.lru_cache(maxsize=None)
def corpus_quotient_automata():
    """(presentation, automaton) for every kernel and quotient automaton of
    corpus seeds 0-3; all are complete."""
    out = []
    for seed in range(4):
        for item in generate_corpus(seed, 45):
            inst = item.instance
            out.append((inst.presentation, inst.kernel_aut))
            if item.spec_kind == "quotient":
                out.append((inst.presentation, inst.subgroup_aut))
    return out


def test_todd_coxeter_agrees_with_quotient(torus, z2):
    pres = pi1_presentation(torus)
    tc = todd_coxeter(pres, [(B,), (A, A)])
    quot = automaton_from_quotient([1, 0], z2, subgroup_closure(z2, ()), relators=pres.relators)
    assert automata_equal(tc, quot)
    # Schreier generators of every presented corpus quotient enumerate back
    # to the same table
    presented = [(p, aut) for p, aut in corpus_quotient_automata() if p.relators]
    assert len(presented) >= 20
    for p, aut in presented:
        assert automata_equal(aut, todd_coxeter(p, reidemeister_schreier(aut, p)))


def test_normality(s3, z2):
    ker = automaton_from_quotient([1, 2], s3, subgroup_closure(s3, ()))
    assert is_normal_subgroup(ker)
    assert is_normal_subgroup(stallings_core(INDEX2, 2))
    nonnormal = automaton_from_quotient([1, 2], s3, subgroup_closure(s3, [1]))
    assert nonnormal.state_count == 3
    assert not is_normal_subgroup(nonnormal)


def normal_by_schreier(a):
    """Reference normality check: every Schreier generator of the subgroup
    traces a closed loop from every state, O(n^2 r |w|)."""
    free = Presentation(generators=tuple(range(a.rank)), relators=())
    gens = reidemeister_schreier(a, free)
    return all(a.trace(w, s) == s for w in gens for s in range(a.state_count))


def corpus_automata(seed, count):
    for item in generate_corpus(seed, count):
        inst = item.instance
        yield inst.kernel_aut
        try:
            aut = inst.subgroup_aut
        except EnumerationCapError:
            continue
        if aut.complete:
            yield aut


def test_normality_matches_schreier_oracle_on_corpus():
    verdicts = []
    for seed in (0, 3, 5):
        for aut in corpus_automata(seed, 45):
            verdict = is_normal_subgroup(aut)
            assert verdict == normal_by_schreier(aut), aut
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_normality_matches_schreier_oracle_on_torus_kernels(torus):
    pres = pi1_presentation(torus)
    for m in range(1, 6):
        for n in range(1, 6):
            aut = todd_coxeter(pres, [(A,) * m, (B,) * n])
            assert aut.state_count == m * n
            assert is_normal_subgroup(aut)
            assert normal_by_schreier(aut)


def test_normality_matches_schreier_oracle_on_non_normal_quotients(s3):
    s4 = catalog_group("S4")
    cases = [([1, 2], s3, [1]), ([1, 2], s3, [2])]
    cases += [(images, s4, [k]) for images in ([1, 2], [3, 5]) for k in range(1, s4.order)]
    seen = set()
    for images, group, members in cases:
        aut = automaton_from_quotient(images, group, subgroup_closure(group, members))
        verdict = is_normal_subgroup(aut)
        assert verdict == normal_by_schreier(aut)
        seen.add(verdict)
    assert seen == {True, False}


def test_schreier_index_one():
    aut = stallings_core([(A,), (B,)], 2)
    assert reidemeister_schreier(aut, FREE2) == [(A,), (B,)]


def test_schreier_rejects_an_incomplete_automaton_before_a_rank_mismatch():
    rank3 = Presentation(generators=(0, 1, 2), relators=())
    with pytest.raises(IncompleteAutomatonError, match="^Schreier generators require a complete automaton$"):
        reidemeister_schreier(stallings_core([(A,)], 2), rank3)
    with pytest.raises(ValueError, match="^presentation rank does not match automaton alphabet$"):
        reidemeister_schreier(stallings_core(INDEX2, 2), rank3)


def test_schreier_index_two_count():
    aut = stallings_core(INDEX2, 2)
    gens = reidemeister_schreier(aut, FREE2)
    assert len(gens) == 2 * (2 - 1) + 1


def test_schreier_kernel_count(s3):
    ker = automaton_from_quotient([1, 2], s3, subgroup_closure(s3, ()))
    gens = reidemeister_schreier(ker, FREE2)
    assert len(gens) == 6 * (2 - 1) + 1


def test_schreier_generators_are_members(s3):
    for sub_seed in ((), (1,), (2,)):
        aut = automaton_from_quotient([1, 2], s3, subgroup_closure(s3, sub_seed))
        for w in reidemeister_schreier(aut, FREE2):
            assert aut.trace(w) == 0


def test_schreier_index_consistency(s3):
    for sub_seed in ((), (1,), (2,)):
        aut = automaton_from_quotient([1, 2], s3, subgroup_closure(s3, sub_seed))
        gens = reidemeister_schreier(aut, FREE2)
        assert len(gens) == aut.state_count * (2 - 1) + 1


def test_stallings_round_trip(s3):
    cases = [
        (FREE2, automaton_from_quotient([1, 2], s3, subgroup_closure(s3, sub_seed)))
        for sub_seed in ((), (1,), (2,))
    ]
    free = [(p, aut) for p, aut in corpus_quotient_automata() if not p.relators]
    assert len(free) >= 20
    for p, aut in cases + free:
        gens = reidemeister_schreier(aut, p)
        rebuilt = stallings_core(gens, aut.rank)
        assert automata_equal(aut, rebuilt)
        # enumeration without relators folds to the same core
        assert automata_equal(rebuilt, todd_coxeter(p, gens))


def test_spec_routing(torus, s3):
    pres_free = FREE2
    spec = SubgroupSpec(kind="words", words=tuple(INDEX2))
    aut = automaton_from_spec(spec, pres_free)
    assert aut.state_count == 2
    pres_torus = pi1_presentation(torus)
    spec2 = SubgroupSpec(kind="words", words=((A,), (B, B)))
    aut2 = automaton_from_spec(spec2, pres_torus)
    assert aut2.state_count == 2
    spec3 = SubgroupSpec(kind="quotient", subgroup=(2,))
    aut3 = automaton_from_spec(spec3, pres_free, default_group=s3, default_images=[1, 2])
    assert aut3.state_count == 2


def test_spec_unknown_kind():
    with pytest.raises(ValueError):
        SubgroupSpec(kind="mystery")


def test_canonical_numbering_is_bfs():
    # state 1 must be the a-successor of state 0
    aut = stallings_core(INDEX2, 2)
    assert aut.forward[0][0] == 1
    assert aut.trace((A, A)) == 0
    assert aut.trace((A,)) == 1


def test_constructor_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="^transition columns have inconsistent lengths$"):
        CosetAutomaton(2, [[1, 0], [0, 1]], [[1, 0], [0]])


@pytest.mark.parametrize(
    "forward,backward",
    [
        # generator 1 sends 0 to 1, but its inverse is undefined at 1
        ([[1, 0], [1, None]], [[1, 0], [None, None]]),
        # the inverse of generator 1 sends 0 to 1, but generator 1 is undefined at 1
        ([[1, 0], [None, None]], [[1, 0], [1, None]]),
    ],
    ids=["forward", "backward"],
)
def test_constructor_rejects_transitions_that_are_not_mutually_inverse(forward, backward):
    with pytest.raises(ValueError, match="^transitions for generator 1 are not mutually inverse$"):
        CosetAutomaton(2, forward, backward)


def test_todd_coxeter_recovers_finite_group_orders():
    # two-generator torsion presentations with classically known orders
    from flatconn.complexes import BaseComplex, Edge

    cases = [
        ([(A, A), (B, B, B), (A, B, A, B)], 6),  # dihedral of order 6
        ([(A, A), (B, B, B), (A, B, A, B, A, B)], 12),  # even permutations of 4 points
    ]
    for relators, order in cases:
        c = BaseComplex(1, [Edge(0, 0, 0), Edge(1, 0, 0)], relators=relators)
        pres = pi1_presentation(c)
        assert todd_coxeter(pres, []).state_count == order


def test_todd_coxeter_lattice_indices(torus):
    # sublattices of Z^2: the index is |det| of the generator matrix
    pres = pi1_presentation(torus)
    assert todd_coxeter(pres, [(A, B), (A_, B)]).state_count == 2
    assert todd_coxeter(pres, [(A, A, B), (B, B, B)]).state_count == 6


def test_stallings_kernel_of_z3_map():
    z3 = catalog_group("Z3")
    words = [(A, A, A), (B,), (A, B, A_), (A, A, B, A_, A_)]
    core = stallings_core(words, 2)
    quot = automaton_from_quotient([1, 0], z3, subgroup_closure(z3, ()))
    assert core.state_count == 3
    assert automata_equal(core, quot)


@pytest.mark.parametrize("letter", [5, 2, -1])
@pytest.mark.parametrize("builder", ["todd_coxeter", "stallings_core"])
def test_builders_reject_letters_outside_the_generators(builder, letter):
    torus = Presentation(generators=(0, 1), relators=((A, B, A_, B_),))
    words = [(A, B), (A, (letter, 1))]
    with pytest.raises(ValueError, match=rf"^word letter {letter} outside generator range 0\.\.1$"):
        if builder == "todd_coxeter":
            todd_coxeter(torus, words)
        else:
            stallings_core(words, torus.rank)


def test_constructor_rejects_columns_inconsistent_only_off_the_reachable_states():
    # only state 0 is reachable; generator 0 sends 1 to 2, its inverse sends 1 to 1
    with pytest.raises(ValueError, match="^transitions for generator 0 are not mutually inverse$"):
        CosetAutomaton(1, [[0, 2, 1]], [[0, 1, 1]])


def test_constructor_rejects_complete_columns_inconsistent_only_off_the_reachable_states():
    # states 0 and 1 swap under both generators; off them generator 1 sends
    # 2 and 3 to 3, and its inverse sends 3 back to 2: complete, not inverse
    with pytest.raises(ValueError, match="^transitions for generator 1 are not mutually inverse$"):
        CosetAutomaton(2, [[1, 0, 3, 2], [1, 0, 3, 3]], [[1, 0, 3, 2], [1, 0, 2, 2]])


def test_from_action_rejects_an_action_that_is_not_a_permutation():
    # both 0 and 1 go to 1, whatever the letter
    with pytest.raises(ValueError, match="^transitions for generator 0 are not mutually inverse$"):
        CosetAutomaton.from_action(1, 0, [[1, 1], [1, 1]])


def test_quotient_automaton_of_a_subgroup_outside_the_image(s3):
    # h maps onto A3, and S = <(01)> meets A3 in the identity: h^-1(S) is the kernel
    s = subgroup_closure(s3, [1])
    assert s.members == (0, 1)
    kernel = automaton_from_quotient([2, 5], s3, subgroup_closure(s3, ()))
    assert kernel.state_count == 3
    assert automaton_from_quotient([2, 5], s3, s).key() == kernel.key()
