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
places.  The last run commands in a fresh interpreter and require the
package to load no module that the command does not use.
"""

import ast
import subprocess
import sys
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


# dataclasses and what it pulls in, typing, random, which only sampled search and verify
# use, and array, which only search's bit-parallel scorer uses
NOT_LOADED_BY_COUNT = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "random",
                       "array")


def modules_loaded_by(argv: list[str]) -> set[str]:
    """sys.modules after ``cli.main(argv)`` in a fresh ``python -I -S``, src on its path."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "from gf2count import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, *sorted(sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *names = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    return set(names)


def test_count_loads_neither_dataclasses_nor_typing_nor_random():
    loaded = modules_loaded_by(["count", str(TESTS / "fixtures" / "g_7_4.txt"),
                                "--format", "json"])
    assert "gf2count.counting" in loaded and "json" in loaded
    assert sorted(loaded.intersection(NOT_LOADED_BY_COUNT)) == []


def test_text_weights_loads_no_json():
    loaded = modules_loaded_by(["weights", str(TESTS / "fixtures" / "g_7_4.txt")])
    assert "gf2count.codes" in loaded
    assert sorted(loaded.intersection(NOT_LOADED_BY_COUNT + ("json",))) == []
