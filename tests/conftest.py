import importlib.util
import os

import pytest

from flatconn.complexes import BaseComplex, Edge
from flatconn.connections import Voltage
from flatconn.groups import catalog_group
from flatconn.subgroups import _CosetTable


LADDER = os.path.join(os.path.dirname(__file__), os.pardir, "ladder", "run.py")


@pytest.fixture(scope="session")
def ladder():
    """The growth ladder script, ``ladder/run.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("ladder_run", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def s3():
    return catalog_group("S3")


@pytest.fixture(scope="session")
def z2():
    return catalog_group("Z2")


@pytest.fixture(scope="session")
def z4():
    return catalog_group("Z4")


@pytest.fixture()
def wedge():
    return BaseComplex(1, [Edge(0, 0, 0), Edge(1, 0, 0)])


@pytest.fixture()
def circle():
    return BaseComplex(1, [Edge(0, 0, 0)])


@pytest.fixture()
def torus():
    rel = ((0, 1), (1, 1), (0, -1), (1, -1))
    return BaseComplex(1, [Edge(0, 0, 0), Edge(1, 0, 0)], relators=[rel])


@pytest.fixture()
def wedge_s3_voltage(wedge, s3):
    # a -> (01), b -> (012): the running example
    return Voltage(wedge, s3, {0: 1, 1: 2})


@pytest.fixture()
def defined(monkeypatch):
    """Coset definitions per ``_CosetTable``, counted through ``define``."""
    counts = {}
    define = _CosetTable.define

    def counting_define(self, alpha, c):
        counts[self] = counts.get(self, 0) + 1
        return define(self, alpha, c)

    monkeypatch.setattr(_CosetTable, "define", counting_define)
    return counts
