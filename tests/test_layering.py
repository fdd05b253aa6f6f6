"""Module layering: package imports sit at module top, and schubert never reaches the oracle."""

import ast
from pathlib import Path

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
