"""Polynomial kernels work on packed exponents: in the package, no module
but mpoly reads the ``terms`` attribute, the view of a polynomial's terms
keyed by exponent tuples that is built on each access.  Every other module
goes through MPoly's methods.  The check walks the syntax tree of every
module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "exactlie"


def terms_reads(source: str):
    """Line numbers of the reads of an attribute named terms."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "terms":
            yield node.lineno


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("p.terms", True),
        ("n = len(p.terms)", True),
        ("for e, c in p.terms.items():\n    pass", True),
        ("f(q).terms.get(e)", True),
        ("terms = {}", False),
        ("p._terms", False),
        ("p.sorted_terms()", False),
        ("getattr(p, 'term')", False),
    ],
)
def test_guard_flags_terms_reads(source, flagged):
    assert bool(list(terms_reads(source))) == flagged


def test_only_mpoly_reads_terms():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{line}"
        for path in modules
        if path.name != "mpoly.py"
        for line in terms_reads(path.read_text())
    ]
    assert not found, "\n".join(found)
