"""The guard on the fault catalogue (tests/faults.py): every fault can still
be planted, no two plant the same change, and every test said to catch it
exists.  Planting the faults and running their tests is
`python tests/faults.py`, outside the suite."""

import os
import subprocess
import sys

import pytest

from faults import FAULTS, PACKAGE, ROOT, patched


def test_the_names_are_unique():
    names = [f.name for f in FAULTS]
    assert len(set(names)) == len(names)


def test_no_two_faults_plant_the_same_change():
    plants = [(f.path, f.old, f.new) for f in FAULTS]
    assert len(set(plants)) == len(plants)


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name)
def test_each_fault_plants_once_and_compiles(fault):
    text = (ROOT / PACKAGE / fault.path).read_text()
    assert text.count(fault.old) == 1
    assert fault.new != fault.old
    compile(patched(fault), str(PACKAGE / fault.path), "exec")


@pytest.fixture(scope="module")
def collected():
    """The node ids of one collection of every file a fault names, as the
    runner's pytest sees them, parameter ids included."""
    files = sorted({node.partition("::")[0] for f in FAULTS
                    for node in f.tests})
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True).stdout
    return {line for line in out.splitlines() if "::" in line}


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name)
def test_each_catching_test_is_defined(fault, collected):
    """Each node id is collected as it stands; one without parameter ids
    may name a parametrized test, whose every case pytest then runs."""
    assert fault.tests
    for node in fault.tests:
        assert node in collected or (
            "[" not in node
            and any(c.startswith(node + "[") for c in collected)), node
