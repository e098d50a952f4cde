"""The library holds no code that only the tests run.

Every module-level function and class of src/cupid, and every method of
such a class (dunders aside), must be referenced by name in src/cupid
(where its definition is no reference), in a non-test perfbench module, or
be exported in cupid.__all__. The module hooks of PEP 562, which the
interpreter calls, are exempt. Code that only the tests use lives in
tests/helpers.py.
"""
import ast
from pathlib import Path

import cupid

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cupid").glob("*.py"))
BENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))

# Methods of an exported class that no library path calls but that are part
# of its interface: the random-access read of one video by id (README's
# File formats section) and the in-memory constructor.
API_METHODS = {"CorpusHandle.load_video", "CorpusHandle.from_arrays"}
# A module's __getattr__ and __dir__ (PEP 562): attribute access and dir() call them.
MODULE_HOOKS = {"__getattr__", "__dir__"}


def _definitions():
    """module.name of each module-level def and class, and
    module.Class.method of each non-dunder method."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name in MODULE_HOOKS):
                continue
            yield f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                yield from (f"{path.stem}.{node.name}.{m.name}" for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__")))


def _references():
    """Every name, attribute and imported name used in src/cupid and the
    non-test perfbench modules."""
    names = set()
    for path in SOURCES + BENCH:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_definition_has_a_caller_outside_the_tests():
    used = _references() | set(cupid.__all__)
    unreferenced = [qualname for qualname in _definitions()
                    if qualname.rpartition(".")[2] not in used
                    and qualname.partition(".")[2] not in API_METHODS]
    assert not unreferenced, f"no caller outside the tests: {', '.join(unreferenced)}"


def test_api_methods_are_defined():
    assert {qualname.partition(".")[2] for qualname in _definitions()} >= API_METHODS
