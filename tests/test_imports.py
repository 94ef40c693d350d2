"""Every name a module imports must be used in that module, and every
exported name must be needed outside the tests.

No linter ships with the package, so these guards parse the source
modules with ``ast``.  The first reports imported names that are never
referenced; ``__init__.py`` is skipped, since it imports names to
re-export them.  The second requires each name in ``gf2count.__all__``
to be read by another module of the package or imported by the
acceptance tests.  The third requires ``cli`` to import no name with a
leading underscore from the package, so the front end uses only what
the other modules offer.  The fourth requires ``__init__.py`` to import
exactly the names listed in ``__all__``, since each is written in both
places.
"""

import ast
from pathlib import Path

import pytest

import gf2count

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "gf2count"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside quoted annotations such as -> "CountReport"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_guard_finds_an_unused_name():
    assert unused_imports("import os\nfrom sys import argv, path\nprint(argv)\n") == [
        (1, "os"), (2, "path"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def loaded_names(source: str) -> set[str]:
    return {
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def imported_from_package(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "gf2count"
        for alias in node.names
    }


def test_public_names_are_needed_outside_the_tests():
    acceptance = (TESTS / "test_acceptance.py").read_text(encoding="utf-8")
    needed = imported_from_package(acceptance)
    for path in MODULES:
        needed |= loaded_names(path.read_text(encoding="utf-8"))
    assert sorted(set(gf2count.__all__) - needed) == []


def test_cli_imports_no_private_name():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "gf2count")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_package_imports_exactly_its_public_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(imported) == sorted(gf2count.__all__)
