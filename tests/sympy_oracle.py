"""sympy as an independent oracle, shared by the test modules.

sympy is optional: each helper skips the calling test when it is not
installed.
"""

import pytest

from exactlie.mpoly import MPoly
from exactlie.polymat import PolyMatrix


def to_sympy(poly: MPoly, symbols):
    """poly as an expanded sympy expression in symbols[var], with its
    sqrt 2 parts exact."""
    sympy = pytest.importorskip("sympy")
    total = sympy.Integer(0)
    for exps, c in poly.terms.items():
        term = sympy.Rational(c.r0.numerator, c.r0.denominator) + sympy.Rational(
            c.r1.numerator, c.r1.denominator
        ) * sympy.sqrt(2)
        for var, e in zip(poly.vars, exps):
            if e:
                term *= symbols[var] ** e
        total += term
    return sympy.expand(total)


def sympy_charpoly_coefficients(matrix: PolyMatrix, symbols):
    """sympy's own charpoly of an MPoly matrix: [1, c_1, ..., c_n] with
    det(t I - matrix) = sum_k c_k t^(n-k).  It runs on a DomainMatrix over
    Q[symbols], or over Q(sqrt 2)[symbols] when an entry has a sqrt 2
    part; over sympy's generic EX domain the same charpoly takes seconds."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rational = all(
        c.is_rational() for _, _, entry in matrix.nonzeros() for c in entry.terms.values()
    )
    ground = sympy.QQ if rational else sympy.QQ.algebraic_field(sympy.sqrt(2))
    ring = ground[tuple(symbols.values())]
    n = matrix.nrows
    mat = sympy.Matrix(n, n, lambda i, j: to_sympy(matrix.entry(i, j), symbols))
    coeffs = DomainMatrix.from_Matrix(mat).convert_to(ring).charpoly()
    return [ring.to_sympy(c) for c in coeffs]
