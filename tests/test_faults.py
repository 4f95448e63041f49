"""The guard on the fault catalogue (tests/faults.py): every fault can still
be planted, no two plant the same change, and every test said to catch it
exists.  Planting the faults and running their tests is
`python tests/faults.py`, outside the suite."""

import ast
import os
import subprocess
import sys

import pytest

from ecasim import SimConfig, Simulation
from faults import FAULTS, PACKAGE, ROOT, patched


def test_the_reference_imports_only_the_config():
    """The differential tests' oracle, tests/reference.py, shares no code
    with the engine: a fault in shared code would pass them.  Of ecasim it
    may import config and timing only."""
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text())
    for node in ast.walk(tree):
        imports = isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names if imports else ():
            name = (f"{node.module}.{alias.name}"
                    if isinstance(node, ast.ImportFrom) else alias.name)
            parts = name.split(".")
            assert parts[0] != "ecasim" or parts[1:2] in (
                ["config"], ["timing"]), name


def test_only_protocols_holds_raising_stubs():
    """The names only perfbench/tracer.py patches raise through one
    function in src/ecasim/protocols.py; no other module defines a function
    whose body only raises NotImplementedError, so they cannot scatter."""
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        if path.name == "protocols.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body[1:] if ast.get_docstring(node) else node.body
            raised = (body[0].exc if len(body) == 1
                      and isinstance(body[0], ast.Raise) else None)
            raised = getattr(raised, "func", raised)  # the class, if called
            assert not (isinstance(raised, ast.Name)
                        and raised.id == "NotImplementedError"), (
                f"{path.name}:{node.lineno} {node.name}")


def test_the_engine_names_no_book():
    """Where a node's instants come from, how they grow and what is dropped
    of them is src/ecasim/traffic.py's alone: the engine names no trace
    book or any part of one, and deletes no slice of a stream's instants.
    It only reads instants, through its cursors."""
    source = (ROOT / PACKAGE / "engine.py").read_text()
    book = {"book", "_book", "TraceBook", "traces", "room", "let_go",
            "LOOKAHEAD"}
    for node in ast.walk(ast.parse(source)):
        names = {getattr(node, field, None)
                 for field in ("id", "attr", "arg", "name", "asname")}
        assert not names & book, (
            f"engine.py:{node.lineno} names {names & book}")
        for target in node.targets if isinstance(node, ast.Delete) else ():
            assert not isinstance(target, ast.Subscript), (
                f"engine.py:{node.lineno} trims a stream")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the key-sharing limit of CPython 3.11")
def test_a_simulation_keeps_to_29_attributes():
    """CPython 3.11 shares the keys of an instance __dict__ of at most 29
    attributes (a 296-byte __dict__); a thirtieth gives every Simulation a
    dict of its own (1584 bytes)."""
    assert len(vars(Simulation(SimConfig()))) <= 29


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
