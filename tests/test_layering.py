"""Module layering: package imports sit at module top, schubert never reaches the
oracle, and every name the traced benchmark run wraps still resolves."""

import ast
import importlib
import importlib.util
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
