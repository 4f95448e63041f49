"""The guard on the fault catalogue (tests/faults.py): every fault can still
be planted, and every test said to catch it exists.  Planting the faults and
running their tests is `python tests/faults.py`, outside the suite."""

import re

import pytest

from faults import FAULTS, PACKAGE, ROOT, patched


def test_the_names_are_unique():
    names = [f.name for f in FAULTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name)
def test_each_fault_plants_once_and_compiles(fault):
    text = (ROOT / PACKAGE / fault.path).read_text()
    assert text.count(fault.old) == 1
    assert fault.new != fault.old
    compile(patched(fault), str(PACKAGE / fault.path), "exec")


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name)
def test_each_catching_test_is_defined(fault):
    assert fault.tests
    for node in fault.tests:
        path, _, name = node.partition("::")
        name = name.partition("[")[0]
        source = (ROOT / path).read_text()
        assert re.search(rf"^def {name}\(", source, re.M), node
