"""Every name a module of the package imports is read in that module; the
package's ``__init__.py``, whose imports are its re-exports, is exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dgreg"


def unread_imports(source: str) -> list:
    """The names an import statement in ``source`` binds that no expression
    in it reads, in line order."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_read(path):
    assert unread_imports((PACKAGE / path).read_text()) == []


def test_an_unread_import_is_found():
    source = "import os.path\nfrom .module import a, b as c\nfrom __future__ import annotations\nprint(a)\n"
    assert unread_imports(source) == [(1, "os"), (2, "c")]
