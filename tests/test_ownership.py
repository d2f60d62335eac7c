"""No pipeline object points back at its owner.

A spanning tree keeps parent vertices, not its complex, and a lifted graph
makes its edge sequence on access, so every object a verification builds is
freed by reference counting as soon as its instance is dropped.  With the
cycle collector off, verifying corpus instances and every document that
parses leaves nothing of ``flatconn`` for a later collection to find.
"""

import gc
import glob
import os
from collections import Counter

from flatconn.corpus import generate_corpus
from flatconn.errors import EnumerationCapError, IncompleteAutomatonError, InputError
from flatconn.io import parse_instance
from flatconn.theorems import standard_reports

HERE = os.path.dirname(__file__)
DOCUMENTS = sorted(
    glob.glob(os.path.join(HERE, os.pardir, "instances", "*.json"))
    + glob.glob(os.path.join(HERE, "documents", "*.json"))
)
CORPUS_SEEDS = range(3)
CORPUS_COUNT = 300


def _verify(inst, seed):
    """The claims ``flatconn verify`` checks, skipped as it skips them
    where the covering's index is not finite or not found."""
    try:
        if inst.covering_spec is not None and inst.subgroup_aut.complete:
            standard_reports(inst, seed=seed)
    except (EnumerationCapError, IncompleteAutomatonError):
        pass


def _verify_and_drop_everything():
    verified = 0
    for seed in CORPUS_SEEDS:
        for k, item in enumerate(generate_corpus(seed, CORPUS_COUNT)):
            _verify(item.instance, seed + k)
            verified += 1
    for path in DOCUMENTS:
        try:
            inst = parse_instance(path)
        except InputError:
            continue
        _verify(inst, 0)
        verified += 1
    return verified


def test_verified_instances_leave_nothing_for_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        verified = _verify_and_drop_everything()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("flatconn")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert verified > len(CORPUS_SEEDS) * CORPUS_COUNT
    assert not left, left.most_common(10)
