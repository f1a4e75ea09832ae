import ast
from pathlib import Path

import difftrace

PACKAGE = Path(difftrace.__file__).resolve().parent

# Imported only so that perfbench/traced.py can rebind them, each marked
# "# noqa: F401" where it is imported.
REBOUND = {("cli", "admm_solve"), ("cli", "bic_score"), ("solver", "solve_axb_plus_gx")}


def unused_imports(source):
    """(name, line) of each name that ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {(name, line) for name, line in imported.items() if name not in used}


def test_every_imported_name_is_used():
    # __init__.py imports to re-export; every other module imports only
    # what it reads, apart from the names the benchmark's traced run rebinds.
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        for name, line in unused_imports(source):
            found.add((path.stem, name))
            assert "# noqa: F401" in source.splitlines()[line - 1], f"{path.name}:{line} {name}"
    assert found == REBOUND


def unread_definitions(sources):
    """(module, name) of each top-level function and class of ``sources``
    (module stem -> source) that no module reads, as a name or an attribute."""
    trees = {stem: ast.parse(source) for stem, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {(stem, node.name) for stem, tree in trees.items() for node in tree.body
            if isinstance(node, definitions) and node.name not in read}


def test_every_definition_is_read_or_exported():
    # A function or class that no module of the package reads is either
    # public API, listed in __all__, or dead code.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    found = unread_definitions(sources)
    assert {(stem, name) for stem, name in found
            if stem != "__init__" and name not in difftrace.__all__} == set()


def test_an_unread_helper_is_found():
    sources = {"a": "def used():\n    pass\n\n\ndef unused():\n    used()\n",
               "b": "from . import a\n\n\nclass Kept:\n    x = a.used\n"}
    assert unread_definitions(sources) == {("a", "unused"), ("b", "Kept")}
