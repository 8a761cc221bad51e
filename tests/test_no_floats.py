"""No floats in the package: every value it computes is exact, so no
module may hold a float literal, call float(), or use a float-valued math
function.  The check walks the syntax tree of every module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "exactlie"
FLOAT_MATH = {"sqrt", "log", "exp", "pow"}


def float_uses(source: str):
    """(line, what) for each float construct in the source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float() call"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH:
                    yield node.lineno, f"from math import {alias.name}"


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("x = 0.5", True),
        ("x = 1e3", True),
        ("y = float(x)", True),
        ("y = math.sqrt(2)", True),
        ("y = math.log(x)", True),
        ("y = math.exp(x)", True),
        ("y = math.pow(x, 2)", True),
        ("from math import sqrt", True),
        ("y = math.isqrt(8) + math.comb(4, 2) + math.factorial(3)", False),
        ("y = Fraction(1, 2) ** 2", False),
        ("y = x.sqrt2()", False),
    ],
)
def test_guard_flags_floats(source, flagged):
    assert bool(list(float_uses(source))) == flagged


def test_package_holds_no_floats():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in float_uses(path.read_text())
    ]
    assert not found, "\n".join(found)
