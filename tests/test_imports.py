"""Every name a module imports is used in it, in the package and in its tests."""

import ast
from pathlib import Path

import pytest

import skelcal

MODULES = sorted([*Path(skelcal.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """The (line, name) of each name that ``source`` imports and never reads or writes."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nimport sys\nfrom a import b as c, d\nsys.exit(d)\n"
    assert unused_imports(source) == [(2, "os"), (4, "c")]
