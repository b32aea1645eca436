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


def mention_scopes(path: Path, name: str) -> list:
    """Qualified name of the function (or module) around every mention of
    name in path: an attribute such as np.log2, a bare name or an import."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Attribute) and child.attr == name
                or isinstance(child, ast.Name) and child.id == name
                or isinstance(child, ast.alias) and child.name == name
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
    scopes = [scope for path in sorted(package.glob("*.py")) for scope in mention_scopes(path, "log2")]
    assert scopes == ["allocation.rates"], scopes


def test_no_builtin_sum_in_the_package():
    # every sum inside a trial (powers, interference, a trial's rates over
    # its users) is allocation.seq_sum, left to right, which decides
    # floor-bound verdicts; the per-point mean and variance over trials are
    # math.fsum, in _reduce_point alone.  From Python 3.12 on, sum() adds
    # floats with compensated summation, and numpy's reductions (.sum,
    # np.sum, np.add.reduce, .cumsum, .mean) add in a pairwise or SIMD order:
    # either would make a trial's sum depend on the interpreter or the host
    package = Path(compnoma.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (
                isinstance(f, ast.Name) and f.id == "sum"
                or isinstance(f, ast.Attribute) and f.attr in ("sum", "cumsum", "mean")
                or isinstance(f, ast.Attribute) and f.attr == "reduce"
                and isinstance(f.value, ast.Attribute) and f.value.attr == "add"
            ):
                calls.append(f"{path.name}:{node.lineno}")
    assert not calls, calls
    scopes = {scope for path in sorted(package.glob("*.py")) for scope in mention_scopes(path, "fsum")}
    assert scopes == {"harness._reduce_point"}, scopes
