"""The public API holds only names the package, its scripts, its benchmark or the
README's library example use; an oracle that only tests read lives in tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mkpolar"

# A benchmark span target, "module:name" or "module:Class.method", names a use of `name`.
SPAN_TARGET = re.compile(r"mkpolar(?:\.\w+)*:(\w+)")


def public_names():
    """Every name mkpolar/__init__.py imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def readme_examples():
    """The README's python code blocks."""
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def used_names(source):
    """Names a module loads as a Name or an Attribute, or names in a span-target string."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = SPAN_TARGET.fullmatch(node.value)
            if match:
                used.add(match.group(1))
    return used


def integer_rule_lines(source):
    """Lines of a module that import numbers or name operator.index or __index__."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [f"{getattr(node.value, 'id', '')}.{node.attr}"]
        else:
            continue
        if any(name.split(".")[0] == "numbers" or name == "operator.index" or name.endswith(".__index__")
               for name in names):
            lines.append(node.lineno)
    return lines


def test_readme_has_a_library_example():
    assert any("from mkpolar import" in block for block in readme_examples())


def test_every_public_name_has_a_use_outside_tests():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    sources += [path.read_text() for path in sorted((ROOT / "scripts").glob("*.py"))]
    sources += [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    sources += readme_examples()
    used = set().union(*map(used_names, sources))
    assert sorted(public_names() - used) == []


def test_kernels_as_integer_is_the_only_integer_rule():
    # A second rule would bring back a second message form for the same mistake.
    offenders = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "kernels.py" and (lines := integer_rule_lines(path.read_text()))}
    assert offenders == {}
    assert integer_rule_lines((PACKAGE / "kernels.py").read_text())
