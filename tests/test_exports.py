"""The package's hand-kept export list."""

import ast
from pathlib import Path

import compnoma


def test_export_list_resolves_and_covers_every_import():
    names = compnoma.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(compnoma, n)]
    assert not missing, missing
    tree = ast.parse(Path(compnoma.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imported, "no package imports found in __init__.py"
    assert imported <= set(names), sorted(imported - set(names))
