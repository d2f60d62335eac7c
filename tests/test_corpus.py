import random

from flatconn.complexes import validate_complex
from flatconn.connections import check_flatness
from flatconn.corpus import (
    GROUP_NAMES,
    base_catalog,
    generate_corpus,
    random_flat_voltage,
)
from flatconn.groups import catalog_group


def test_catalog_bases_validate():
    bases = base_catalog()
    assert set(bases) == {"wedge2", "wedge3", "two-cycle", "theta", "torus", "klein"}
    for c in bases.values():
        validate_complex(c)


def test_klein_relator_shape():
    klein = base_catalog()["klein"]
    assert klein.relators == (((0, 1), (1, 1), (0, -1), (1, 1)),)


def test_random_flat_voltage_is_flat():
    rng = random.Random(2)
    bases = base_catalog()
    for name in ("torus", "klein"):
        for gname in GROUP_NAMES:
            g = catalog_group(gname)
            v = random_flat_voltage(rng, bases[name], g)
            assert check_flatness(v) == ()


def test_random_flat_voltage_fallback_path():
    # with a single try the sampler usually lands in the fallback branch;
    # the result must still be flat
    rng = random.Random(9)
    klein = base_catalog()["klein"]
    g = catalog_group("S4")
    for _ in range(10):
        v = random_flat_voltage(rng, klein, g, tries=1)
        assert check_flatness(v) == ()


def test_generate_corpus_deterministic():
    first = list(generate_corpus(17, 30))
    second = list(generate_corpus(17, 30))
    assert [it.name for it in first] == [it.name for it in second]
    keys = [[(it.base_name, it.group_name, it.instance.voltage.as_tuple()) for it in run] for run in (first, second)]
    assert keys[0] == keys[1]


def test_generate_corpus_mix():
    items = list(generate_corpus(1, 60))
    kinds = {it.spec_kind for it in items}
    assert "kernel" in kinds
    assert "quotient" in kinds
    assert kinds & {"words-finite", "words-random"}
    for it in items:
        assert check_flatness(it.instance.voltage) == ()


def test_corpus_names_carry_provenance():
    items = generate_corpus(3, 9)
    for i, it in enumerate(items):
        assert it.name.startswith(f"{i:03d}-")
        assert it.base_name in it.name
        assert it.group_name in it.name
