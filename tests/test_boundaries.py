"""Module boundaries inside the package: construction's private names stay its own."""

import ast
from pathlib import Path

import mkpolar

PACKAGE = Path(mkpolar.__file__).parent


def _private_construction_imports(path):
    """(line, name) of every underscore-prefixed name the module imports from mkpolar.construction."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and "." * node.level + (node.module or "") in (
            ".construction", "mkpolar.construction"
        ):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_private_construction_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    offenders = {p.name: found for p in modules if (found := _private_construction_imports(p))}
    assert offenders == {}
