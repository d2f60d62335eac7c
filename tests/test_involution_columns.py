"""Todd-Coxeter with one self-inverse column per involution.

A generator g whose presentation has the relator g^2 or g^-2 is its own
inverse, so ``todd_coxeter`` gives it one column and does not scan that
relator.  The oracle is ``helpers.two_column_todd_coxeter``: plain HLT with
two columns per generator, every relator scanned.  Both must give the same
based subgroup (identical automata), and the shared column must define
fewer cosets where a square exists and exactly as many where none does.
"""

import random
from itertools import combinations

import pytest

from flatconn.subgroups import automata_equal, todd_coxeter
from helpers import coxeter_presentation, presentation_of, two_column_todd_coxeter

A, A_, B, B_ = (0, 1), (0, -1), (1, 1), (1, -1)


def random_words(rng, rank, count):
    """``count`` words of 1-4 letters, each letter a random generator or
    its inverse."""
    return [
        tuple((rng.randrange(rank), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))) for _ in range(count)
    ]


def assert_matches_oracle(presentation, words):
    a = todd_coxeter(presentation, words)
    expected, _ = two_column_todd_coxeter(presentation, words)
    assert a.complete
    assert automata_equal(a, expected), words


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_coxeter_subgroups_of_one_or_two_involutions(degree):
    pres = coxeter_presentation(degree)
    n = pres.rank
    families = [[((i, 1),)] for i in range(n)]
    families += [[((i, 1),), ((j, 1),)] for i, j in combinations(range(n), 2)]
    for words in families:
        assert_matches_oracle(pres, words)


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_coxeter_subgroups_of_random_short_words(degree):
    pres = coxeter_presentation(degree)
    rng = random.Random(degree)
    for _ in range(12):
        assert_matches_oracle(pres, random_words(rng, pres.rank, rng.randint(1, 3)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mixed_involutory_and_other_generators(n):
    """The dihedral group <a, b | a^2, b^n, abab>: a gets one column, b two."""
    pres = presentation_of([(A, A), (B,) * n, (A, B, A, B)])
    assert todd_coxeter(pres, []).state_count == 2 * n
    for words in ([], [(A,)], [(B,)], [(A, B)], [(B, B)]):
        assert_matches_oracle(pres, words)
    rng = random.Random(n)
    for _ in range(12):
        assert_matches_oracle(pres, random_words(rng, 2, rng.randint(1, 2)))


def test_a_square_written_with_inverses_is_an_involution(defined):
    """a^-1 a^-1 = 1 makes a an involution: S3 as <a, b | a^-2, b^3, (ab)^2>."""
    pres = presentation_of([(A_, A_), (B, B, B), (A, B, A, B)])
    for words in ([], [(A,)], [(B,)], [(A_, B)]):
        assert_matches_oracle(pres, words)
    defined.clear()
    todd_coxeter(pres, [])
    ((table, _),) = defined.items()
    assert table.letter == (0, 0, 1, 2) and table.inverse == (0, 2, 1)


def test_s7_defines_fewer_cosets_than_the_two_column_oracle(defined):
    pres = coxeter_presentation(7)
    words = [((0, 1),), ((1, 1),)]
    expected, oracle_defined = two_column_todd_coxeter(pres, words)
    assert oracle_defined == 2032
    defined.clear()
    a = todd_coxeter(pres, words)
    assert a.state_count == 840 and automata_equal(a, expected)
    assert list(defined.values()) == [941]


@pytest.mark.parametrize(
    "relator,words",
    [
        ((A, B, A_, B_), [(A,) * 32, (B,) * 16]),
        ((A, B, A_, B_), [(A, A, B), (B, B, B)]),
        ((A, B, A_, B), [(A,) * 16, (B,) * 16]),
        ((A, B, A_, B), [(A, A), (B, B, B)]),
    ],
    ids=["torus-512", "torus-6", "klein-256", "klein-6"],
)
def test_surfaces_without_squares_define_as_before(defined, relator, words):
    """Torus and Klein bottle have no g^2 relator: the same cosets defined."""
    pres = presentation_of([relator])
    expected, oracle_defined = two_column_todd_coxeter(pres, words)
    defined.clear()
    assert automata_equal(todd_coxeter(pres, words), expected)
    assert list(defined.values()) == [oracle_defined]
