"""Only the sampled checks draw random points: in the package, no module
but cli and dualpair imports random.  Every other identity is proved on a
generic element, or checked on every basis element or pair.  The check
walks the syntax tree of every module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "exactlie"
SAMPLED = {"cli.py", "dualpair.py"}


def random_imports(source: str):
    """Line numbers of the imports of the standard random module."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "random" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "random":
                yield node.lineno


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("import random", True),
        ("import random as rnd", True),
        ("import os, random", True),
        ("from random import Random", True),
        ("def f():\n    import random", True),
        ("import randomness", False),
        ("from .random import x", False),
        ("rng = Random(0)", False),
    ],
)
def test_guard_flags_random_imports(source, flagged):
    assert bool(list(random_imports(source))) == flagged


def test_only_the_sampled_checks_import_random():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{line}"
        for path in modules
        if path.name not in SAMPLED
        for line in random_imports(path.read_text())
    ]
    assert not found, "\n".join(found)
