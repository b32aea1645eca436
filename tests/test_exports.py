"""The package's hand-kept export list, the references' independence,
the one Shannon formula and the fixed-order float sums."""

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


def log2_scopes(path: Path) -> list:
    """Qualified name of the function (or module) around every mention of
    log2 in path: an attribute such as np.log2, a bare name or an import."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Attribute) and child.attr == "log2"
                or isinstance(child, ast.Name) and child.id == "log2"
                or isinstance(child, ast.alias) and child.name == "log2"
            ):
                found.append(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_only_allocation_rates_takes_a_log2():
    # every rate in the package, orthogonal baselines included, goes through
    # the one formula width * log2(1 + num/den)
    package = Path(compnoma.__file__).parent
    scopes = [scope for path in sorted(package.glob("*.py")) for scope in log2_scopes(path)]
    assert scopes == ["allocation.rates"], scopes


def test_no_builtin_sum_in_the_package():
    # from Python 3.12 on, sum() adds floats with compensated summation, so
    # its result would depend on the interpreter; the package sums in a fixed
    # order (allocation.seq_sum, math.fsum), which decides floor-bound
    # verdicts.  An array's own .sum(...) is an attribute, not this name.
    package = Path(compnoma.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert not calls, calls
