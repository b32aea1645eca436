"""The package's hand-kept export list, and the references' independence."""

import ast
from pathlib import Path

import compnoma

ENGINE = {"compnoma.allocation", "compnoma.scenarios", "compnoma.harness"}


def package_imports() -> dict:
    """name -> defining module of every name __init__.py imports."""
    tree = ast.parse(Path(compnoma.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name: f"compnoma.{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_export_list_resolves_and_covers_every_import():
    names = compnoma.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(compnoma, n)]
    assert not missing, missing
    imported = set(package_imports())
    assert imported, "no package imports found in __init__.py"
    assert imported <= set(names), sorted(imported - set(names))


def test_references_import_nothing_from_the_engine():
    # the scalar references must not share code with the kernels they check,
    # neither directly nor through the package's re-exports
    origin = package_imports()
    tree = ast.parse(Path(__file__).with_name("reference.py").read_text(encoding="utf-8"))
    sources = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            sources.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "compnoma":
            sources.update(origin.get(alias.name, f"compnoma.{alias.name}") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            sources.add(node.module)
    assert "compnoma.channel" in sources, sorted(sources)
    assert not sources & ENGINE, sorted(sources & ENGINE)
