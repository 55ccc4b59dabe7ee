"""The public API holds only names the package, its scripts, its benchmark or the
README's library example use; an oracle that only tests read lives in tests. A bad
argument fails with a one-line ValueError."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from mkpolar import FastSSCDecoder, SCDecoder, build_schedule, run_fer, schedule_stats
from mkpolar.analysis import latency_table, sc_node_count
from mkpolar.construction import CodeSpec, design_code
from mkpolar.encoding import encode_message, expand_message
from mkpolar.kernels import rep_pattern, stage_transform

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mkpolar"

# The LLR steps of sc.py, each run per element by one frame's list walk.
LLR_STEPS = {"f_op", "g_op", "lambda0", "lambda1", "lambda2"}

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


def matrix_product_lines(source):
    """Lines of a module that take a matrix product: `@` or a numpy product function."""
    products = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr in products)


def builtin_min_max_lines(source):
    """Lines where an LLR step of a module calls the builtin min or max, and the steps found."""
    steps = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef) and node.name in LLR_STEPS]
    lines = sorted(node.lineno for step in steps for node in ast.walk(step) if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name) and node.func.id in ("min", "max"))
    return lines, {step.name for step in steps}

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


def test_no_module_takes_a_matrix_product():
    # A BLAS build picks its own summation order and threads, so a decision made
    # through a product could change with the machine; decoding sums in numpy's order.
    offenders = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
                 if (lines := matrix_product_lines(path.read_text()))}
    assert offenders == {}
    assert matrix_product_lines("x = a @ b\nx @= b\ny = np.einsum('i,i', a, b)\n") == [1, 2, 3]


def test_no_llr_step_calls_builtin_min_or_max():
    # A single frame's list walk runs each step once per element, where a builtin min or
    # max call costs more than the comparisons that give the same value and zero sign.
    assert builtin_min_max_lines((PACKAGE / "sc.py").read_text()) == ([], LLR_STEPS)
    source = "def f_op(a, b):\n    return [max(min(x, y), -max(x, y)) for x, y in zip(a, b)]\n"
    assert builtin_min_max_lines(source) == ([2, 2, 2], {"f_op"})


@pytest.mark.parametrize("call", [
    lambda: design_code(5, 2),
    lambda: rep_pattern(5),
    lambda: sc_node_count(5),
    lambda: CodeSpec(2, 1, 5, np.array([1, 0], dtype=np.uint8)),
    lambda: stage_transform([0, 1], 5),
    lambda: stage_transform([0, 1], 5, inverse=True),
], ids=["design_code", "rep_pattern", "sc_node_count", "CodeSpec", "stage_transform", "inverse"])
def test_a_kernel_vector_that_is_not_iterable_fails_in_one_line(call):
    with pytest.raises(ValueError, match=r"^kernel vector 5 is not a sequence$"):
        call()


def test_an_unhashable_kernel_size_fails_in_one_line():
    with pytest.raises(ValueError, match=r"^kernel size \[2\] is not an integer$"):
        stage_transform([0, 1], [[2]])


@pytest.mark.parametrize("call", [expand_message, encode_message])
def test_a_0d_message_fails_in_one_line(call):
    spec = design_code((2, 3), 3)
    with pytest.raises(ValueError, match=r"^message shape \(\) does not end in K = 3$"):
        call(True, spec)


@pytest.mark.parametrize("call,message", [
    (lambda: run_fer("spec"), "spec must be a CodeSpec, got str"),
    (lambda: SCDecoder(None), "spec must be a CodeSpec, got NoneType"),
    (lambda: FastSSCDecoder(42), "spec must be a CodeSpec, got int"),
    (lambda: encode_message([0, 1], None), "spec must be a CodeSpec, got NoneType"),
    (lambda: expand_message([0, 1], None), "spec must be a CodeSpec, got NoneType"),
    (lambda: build_schedule((2, 3)), "spec must be a CodeSpec, got tuple"),
    (lambda: latency_table(["x"]), "spec must be a CodeSpec, got str"),
    (lambda: schedule_stats("x"), "schedule must be a PrunedSchedule, got str"),
    (lambda: schedule_stats(design_code((2, 3), 3)), "schedule must be a PrunedSchedule, got CodeSpec"),
], ids=["run_fer", "SCDecoder", "FastSSCDecoder", "encode_message", "expand_message", "build_schedule",
        "latency_table", "schedule_stats", "schedule_stats-spec"])
def test_a_spec_or_schedule_of_another_type_fails_in_one_line(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
