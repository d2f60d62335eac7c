"""Base-complex catalog and the seeded random instance generator.

Instances are drawn from a fixed catalog of small bases and groups.  The
generator is fully determined by its seed: voltage sampling is uniform over
flat assignments by rejection (with a fallback into a cyclic subgroup when
rejection keeps failing), and covering specs cycle through kernel
preimages, enumerated subgroup preimages and word-generated subgroups so
that every claim's hypothesis gate gets exercised often.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product as iter_product
from .complexes import BaseComplex, Edge
from .connections import Voltage, check_flatness
from .groups import GroupTable, catalog_group, enumerate_subgroups
from .subgroups import SubgroupSpec
from .theorems import Instance

REJECTION_TRIES = 1000
CORPUS_TC_CAP = 4096


def _wedge(n: int) -> BaseComplex:
    return BaseComplex(1, [Edge(i, 0, 0) for i in range(n)])


def base_catalog() -> dict[str, BaseComplex]:
    """The fixed bases: wedges of 2-3 circles, 2-cycle, theta graph, torus
    and Klein-bottle complexes."""
    torus_rel = ((0, 1), (1, 1), (0, -1), (1, -1))
    klein_rel = ((0, 1), (1, 1), (0, -1), (1, 1))
    return {
        "wedge2": _wedge(2),
        "wedge3": _wedge(3),
        "two-cycle": BaseComplex(2, [Edge(0, 0, 1), Edge(1, 1, 0)]),
        "theta": BaseComplex(2, [Edge(0, 0, 1), Edge(1, 0, 1), Edge(2, 0, 1)]),
        "torus": BaseComplex(1, [Edge(0, 0, 0), Edge(1, 0, 0)], relators=[torus_rel]),
        "klein": BaseComplex(1, [Edge(0, 0, 0), Edge(1, 0, 0)], relators=[klein_rel]),
    }


GROUP_NAMES = ("Z2", "Z3", "Z4", "Z6", "S3", "D4", "A4", "S4")


def random_flat_voltage(
    rng: random.Random,
    c: BaseComplex,
    g: GroupTable,
    tries: int = REJECTION_TRIES,
) -> Voltage:
    """Uniform flat voltage by rejection sampling against the relators.

    After ``tries`` rejections the sampler falls back to a uniform choice
    among the flat assignments inside a random cyclic subgroup (the identity
    assignment is always flat, so the fallback cannot come up empty).
    """
    edge_ids = [e.id for e in c.edges]
    for _ in range(max(1, tries)):
        assignment = {eid: rng.randrange(g.order) for eid in edge_ids}
        v = Voltage(c, g, assignment)
        if not check_flatness(v):
            return v
    seed_elt = rng.randrange(g.order)
    cyc = [0]
    x, times_seed = seed_elt, g.column(seed_elt)
    while x != 0:
        cyc.append(x)
        x = times_seed[x]
    flat = []
    for combo in iter_product(cyc, repeat=len(edge_ids)):
        v = Voltage(c, g, dict(zip(edge_ids, combo)))
        if not check_flatness(v):
            flat.append(v)
    return flat[rng.randrange(len(flat))]


def _finite_index_words(rng: random.Random, rank: int, has_relators: bool) -> tuple:
    """A word family with finite index by construction.

    For a free base: squares of one generator plus the others and their
    conjugates (index 2).  For the presented bases in the catalog: one
    generator plus the square of the other (index 2 there as well).
    """
    if rank == 0:
        return ()
    k = rng.randrange(rank)
    words = [((k, 1), (k, 1))]
    for j in range(rank):
        if j == k:
            continue
        words.append(((j, 1),))
        if not has_relators:
            words.append(((k, 1), (j, 1), (k, -1)))
    return tuple(words)


def _random_words(rng: random.Random, rank: int) -> tuple:
    if rank == 0:
        return ()
    words = []
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(1, 6)
        w = tuple((rng.randrange(rank), rng.choice((1, -1))) for _ in range(length))
        words.append(w)
    return tuple(words)


@dataclass(frozen=True)
class CorpusItem:
    name: str
    base_name: str
    group_name: str
    spec_kind: str
    instance: Instance


def generate_corpus(seed: int, count: int) -> Iterator[CorpusItem]:
    """Seeded corpus of instances over the base and group catalogs, made
    one at a time as they are read.

    Covering specs cycle: kernel preimage, enumerated-subgroup preimage,
    words (alternating a finite-index family with fully random words).  The
    kernel share keeps the strict hypothesis gates well fed.
    """
    rng = random.Random(seed)
    bases = base_catalog()
    base_names = sorted(bases)
    groups = {name: catalog_group(name) for name in GROUP_NAMES}
    subgroup_pool = {name: enumerate_subgroups(g) for name, g in groups.items()}
    for i in range(count):
        base_name = base_names[rng.randrange(len(base_names))]
        group_name = GROUP_NAMES[rng.randrange(len(GROUP_NAMES))]
        base = bases[base_name]
        group = groups[group_name]
        voltage = random_flat_voltage(rng, base, group)
        rank = base.free_rank
        mode = i % 3
        if mode == 0:
            spec = SubgroupSpec(kind="quotient", subgroup=(0,))
            kind = "kernel"
        elif mode == 1:
            pool = subgroup_pool[group_name]
            sub = pool[rng.randrange(len(pool))]
            spec = SubgroupSpec(kind="quotient", subgroup=sub.members)
            kind = "quotient"
        else:
            if i % 6 == 2:
                words = _finite_index_words(rng, rank, bool(base.relators))
                kind = "words-finite"
            else:
                words = _random_words(rng, rank)
                kind = "words-random"
            spec = SubgroupSpec(kind="words", words=words)
        name = f"{i:03d}-{base_name}-{group_name}-{kind}"
        yield CorpusItem(
            name=name,
            base_name=base_name,
            group_name=group_name,
            spec_kind=kind,
            instance=Instance(voltage, spec, name=name, tc_cap=CORPUS_TC_CAP),
        )
