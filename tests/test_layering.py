"""Module layering: package imports sit at module top, schubert never reaches the
oracle, the package imports nothing outside the standard library, derived data
is stored in one place, and every name the traced benchmark run wraps still
resolves."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import quiver_schubert

PACKAGE = Path(quiver_schubert.__file__).resolve().parent


def _package_imports(node: ast.AST) -> list[str]:
    """Dotted names of the package modules imported anywhere under node."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom):
            module = sub.module or ""
            if sub.level or module.split(".")[0] == "quiver_schubert":
                names.append(module)
                names.extend(f"{module}.{alias.name}" for alias in sub.names)
        elif isinstance(sub, ast.Import):
            names.extend(a.name for a in sub.names if a.name.split(".")[0] == "quiver_schubert")
    return names


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_function_local_package_imports():
    offenders = [
        f"{name}:{fn.name}"
        for name, tree in _modules()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_package_imports(stmt) for stmt in fn.body)
    ]
    assert offenders == []


def test_schubert_does_not_import_oracle():
    tree = dict(_modules())["schubert.py"]
    assert not [n for n in _package_imports(tree) if "oracle" in n.split(".")]


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"quiver_schubert"}
    outside = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue  # relative imports name the package itself
            outside += [f"{name}: {top}" for top in tops if top not in allowed]
    assert outside == []


def _setattr_sites(node: ast.AST, scope: str) -> list[str]:
    """The dotted scope of every `object.__setattr__(...)` call under node."""
    sites = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            sites += _setattr_sites(child, f"{scope}.{child.name}")
            continue
        func = child.func if isinstance(child, ast.Call) else None
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            sites.append(scope)
        sites += _setattr_sites(child, scope)
    return sites


def test_derived_data_is_stored_only_by_kept_and_the_basis():
    sites = {site for name, tree in _modules() for site in _setattr_sites(tree, name.removesuffix(".py"))}
    assert sites == {"quiver.kept", "representation.OrderedBasis.__post_init__"}


def _load_perfbench(name: str):
    path = PACKAGE.parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve_and_restore():
    layers, spans = _load_perfbench("layers"), _load_perfbench("spans")
    names = [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    ns = SimpleNamespace(**{n: importlib.import_module(f"quiver_schubert.{n}") for n in names})
    owners = list(vars(ns).values()) + [ns.hypothesis_h.WindingContext]
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer, ns)
        entry = ns.catalog.catalog("two_lines")
        (report,) = ns.oracle.count(entry.representation, entry.dim_vector, primes=(3,))
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in owners] == before
    assert report.total == 7
    assert tracer.calls["oracle._cell_points"] == len(report.per_cell)
    assert tracer.counters["oracle._cell_points.points"] == 7


def test_traced_count_sees_every_cell_and_point():
    layers, spans = _load_perfbench("layers"), _load_perfbench("spans")
    names = [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    ns = SimpleNamespace(**{n: importlib.import_module(f"quiver_schubert.{n}") for n in names})
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer, ns)
        entry = ns.catalog.catalog("degenerate_flag(3)")
        (report,) = ns.oracle.count(entry.representation, entry.dim_vector, primes=(2,))
    finally:
        tracer.restore()
    assert len(report.per_cell) == 96
    assert tracer.calls["oracle._cell_points"] == 96
    assert tracer.counters["oracle._cell_points.points"] == report.total
    assert tracer.counters["oracle._cell_points.nonempty"] == sum(1 for c in report.per_cell.values() if c)
