"""The one-pass kernels against the formulations they replace: the Lie
bracket as one signed sum of products (polymat.product_sum) against two
products and a difference, and Berkowitz's algorithm on stored rows
against its formulation on dense entries and the cofactor determinant.
Seeded Q(sqrt2) and polynomial matrices of sizes 0..8, with sqrt2
coefficients, empty rows and empty columns."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from exactlie.liealg import bracket
from exactlie.mpoly import MPoly
from exactlie.polymat import (
    PolyMatrix,
    charpoly_coefficients,
    det_cofactor,
    determinant,
    product_sum,
)
from exactlie.scalar import Scalar
from oracles import dense_berkowitz

VARS = ("x", "y")


def sqrt2_entry(rng):
    """Zero half of the time, else a small rational with a sqrt2 part half
    of the time."""
    if rng.random() < 0.5:
        return Scalar(0)
    return Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  rng.choice((0, 1, -1, Fraction(1, 2))))


def poly_entry(rng):
    x, y = (MPoly.variable(v, VARS) for v in VARS)
    if rng.random() < 0.5:
        return x - x
    return rng.randint(-2, 2) * x + rng.choice((0, 1)) * x * y + sqrt2_entry(rng)


RINGS = {"sqrt2": (sqrt2_entry, Scalar(0)), "poly": (poly_entry, MPoly.zero(VARS))}


def seeded(rng, n, m, ring):
    """An n x m matrix of the ring's entries, with an empty row and an
    empty column half of the time."""
    entry, zero = RINGS[ring]
    if not (n and m):
        return PolyMatrix.zeros(n, m, zero)
    rows = [[entry(rng) for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.5:
        rows[rng.randrange(n)] = [zero] * m
        j = rng.randrange(m)
        for row in rows:
            row[j] = zero
    return PolyMatrix(rows)


def assert_in_ring(m: PolyMatrix, zero):
    assert type(m.zero) is type(zero)
    assert all(type(x) is type(zero) and x for _, _, x in m.nonzeros())


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_bracket_is_the_difference_of_the_two_products(ring):
    rng = random.Random(131)
    zero = RINGS[ring][1]
    for n in range(9):
        for _ in range(4):
            x, y = seeded(rng, n, n, ring), seeded(rng, n, n, ring)
            got = bracket(x, y)
            assert got == x * y - y * x
            assert_in_ring(got, zero)
            assert bracket(x, x).is_zero()
            assert bracket(x, PolyMatrix.identity(n, one=x.one)).is_zero()
            assert bracket(y, x) == -got


def test_bracket_of_a_scalar_and_a_polynomial_matrix():
    rng = random.Random(137)
    for n in range(9):
        s, p = seeded(rng, n, n, "sqrt2"), seeded(rng, n, n, "poly")
        for x, y in ((s, p), (p, s)):
            got = bracket(x, y)
            assert got == x * y - y * x
            assert_in_ring(got, RINGS["poly"][1])


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_product_sum_is_the_signed_sum_of_its_products(ring):
    rng = random.Random(139)
    for _ in range(40):
        n, k, m = (rng.randint(0, 5) for _ in range(3))
        factors = [(seeded(rng, n, k, ring), seeded(rng, k, m, ring)) for _ in range(3)]
        signs = [rng.choice((1, -1)) for _ in factors]
        want = PolyMatrix.zeros(n, m, RINGS[ring][1])
        for s, (a, b) in zip(signs, factors):
            want = want + a * b if s > 0 else want - a * b
        got = product_sum([(s, a, b) for s, (a, b) in zip(signs, factors)])
        assert got == want
        assert (got.nrows, got.ncols) == (n, m)
        assert_in_ring(got, RINGS[ring][1])
    a = seeded(rng, 2, 3, ring)
    with pytest.raises(ValueError, match="shape mismatch"):
        product_sum(((1, a, a),))
    with pytest.raises(ValueError, match="shape mismatch"):
        product_sum(((1, a, a.transpose()), (-1, a.transpose(), a)))


def test_product_sum_checks_the_variables_of_every_factor():
    t = MPoly.variable("t", ("t",))
    x = MPoly.variable("x", VARS)
    pt, px = PolyMatrix([[t]]), PolyMatrix([[x]])
    with pytest.raises(ValueError, match="variable mismatch"):
        product_sum(((1, px, px), (-1, pt, pt)))
    with pytest.raises(ValueError, match="variable mismatch"):
        bracket(px, pt)


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_charpoly_coefficients_equal_dense_berkowitz_and_the_cofactor_determinant(ring):
    rng = random.Random(149)
    zero = RINGS[ring][1]
    for n in range(9):
        for _ in range(3 if n < 7 else 1):
            a = seeded(rng, n, n, ring)
            coeffs = charpoly_coefficients(a)
            assert coeffs == dense_berkowitz(a)
            assert all(type(c) is type(zero) for c in coeffs)
            assert coeffs[0] == a.one
            assert determinant(a) == det_cofactor(a)
