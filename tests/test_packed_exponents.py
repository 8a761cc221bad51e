"""Packed exponents: each MPoly term is keyed by one int, variable i in the
16-bit field [16 i, 16 i + 16), every exponent at most MAX_EXPONENT.

The kernels that work on the packed ints are compared with term loops
over exponent tuples (tests/oracles.py) at 1, 3, 14 and 48 variables, with
exponents up to the bound, so that every field and every field boundary
is crossed.  The bound is checked where exponents come in and where a
product makes them."""

import json
import random
from fractions import Fraction

import pytest

from exactlie.mpoly import MAX_EXPONENT, MPoly
from exactlie.scalar import Scalar
from oracles import (
    term_loop_as_univariate_in,
    term_loop_coefficient_in,
    term_loop_derivative,
    term_loop_dot,
    term_loop_substitute,
    term_loop_with_vars,
)

SIZES = (1, 3, 14, 48)
# field edges: a byte, a half field, and the bound itself
EXPONENTS = (0, 0, 0, 1, 2, 3, 255, 256, 16383, MAX_EXPONENT)
HALF = tuple(k for k in EXPONENTS if 2 * k <= MAX_EXPONENT)  # a product of two stays bounded


def _vars(n):
    return tuple(f"v{i}" for i in range(n))


def _poly(rng, vars, exponents=EXPONENTS, terms=5):
    return MPoly(vars, {
        tuple(rng.choice(exponents) for _ in vars):
            Scalar(rng.randint(-4, 4), rng.choice((0, 0, 1, Fraction(1, 2))))
        for _ in range(rng.randint(0, terms))
    })


def test_the_bound_is_the_largest_exponent_below_a_guard_bit():
    assert MAX_EXPONENT == 32767 == 2 ** 15 - 1


@pytest.mark.parametrize("n", SIZES)
def test_dot_matches_the_term_loop(n):
    rng = random.Random(300 + n)
    vars = _vars(n)
    for _ in range(20):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            p, q = _poly(rng, vars, HALF), _poly(rng, vars, HALF)
            pairs.append(rng.choice(((p, q), (p, Scalar(3, -1)), (rng.randint(-3, 3), q))))
        assert MPoly.dot(vars, pairs) == term_loop_dot(vars, pairs)


@pytest.mark.parametrize("n", SIZES)
def test_substitute_matches_the_term_loop(n):
    rng = random.Random(400 + n)
    vars = _vars(n)
    for target in (vars, vars[::-1] + ("w",), ("w",) + vars):
        for _ in range(5):
            mapped = set(rng.sample(vars, rng.randint(1, min(n, 3))))
            # a mapped variable carries a small power, an unmapped one up
            # to half the bound, and the images small powers
            p = MPoly(vars, {
                tuple(rng.choice((0, 1, 2, 3)) if v in mapped else rng.choice(HALF)
                      for v in vars): Scalar(rng.randint(1, 5))
                for _ in range(rng.randint(0, 5))
            })
            mapping = {v: _poly(rng, target, (0, 0, 1, 2), 3) for v in mapped}
            assert p.substitute(mapping) == term_loop_substitute(p, mapping)


@pytest.mark.parametrize("n", SIZES)
def test_per_variable_kernels_match_the_term_loops(n):
    rng = random.Random(500 + n)
    vars = _vars(n)
    for _ in range(10):
        p = _poly(rng, vars)
        for v in rng.sample(vars, min(n, 4)):
            assert p.derivative(v) == term_loop_derivative(p, v)
            for power in (0, 1, 256, MAX_EXPONENT):
                assert p.coefficient_in(v, power) == term_loop_coefficient_in(p, v, power)
            assert p.as_univariate_in(v) == term_loop_as_univariate_in(p, v)
            assert p.degree_in(v) == max((e[vars.index(v)] for e in p.terms), default=0)
            assert p.involves(v) == any(e[vars.index(v)] for e in p.terms)
        for new_vars in (vars[::-1], ("w",) + vars, vars + ("w",), tuple(rng.sample(vars, n))):
            assert p.with_vars(new_vars) == term_loop_with_vars(p, new_vars)
        used = [v for i, v in enumerate(vars) if any(e[i] for e in p.terms)]
        assert p.variables_used() == tuple(used)


@pytest.mark.parametrize("n", SIZES)
def test_terms_view_and_wire_formats_round_trip(n):
    rng = random.Random(600 + n)
    vars = _vars(n)
    for _ in range(10):
        p = _poly(rng, vars)
        view = p.terms
        assert MPoly(vars, dict(view)) == p
        assert all(p.coefficient(e) == c for e, c in view.items())
        with pytest.raises(TypeError):
            view[(0,) * n] = Scalar(1)
        assert MPoly.from_text(p.to_text(), vars) == p
        assert MPoly.from_json(p.to_json()) == p


def test_the_bound_round_trips_through_text_and_json():
    vars = ("x", "y", "z")
    p = MPoly.monomial(vars, (MAX_EXPONENT, 0, 1), 3) - MPoly.monomial(vars, (0, MAX_EXPONENT, 0))
    assert p.to_text() == "3*x^32767*z - y^32767"
    assert MPoly.from_text(p.to_text(), vars) == p
    assert json.loads(p.to_json())["terms"][0]["exps"] == [32767, 0, 1]
    assert MPoly.from_json(p.to_json()) == p
    assert p.degree_in("x") == MAX_EXPONENT
    assert p.coefficient((MAX_EXPONENT, 0, 1)) == Scalar(3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: MPoly(("x", "y"), {(32768, 0): 1}),
        lambda: MPoly(("x", "y"), {(0, -1): 1}),
        lambda: MPoly.monomial(("x", "y"), (0, 32768)),
        lambda: MPoly.from_text("x^32768", ("x", "y")),
        lambda: MPoly.from_text("y*x^20000*x^20000", ("x", "y")),
        lambda: MPoly.from_text("x^32767*x^32767*x^32767", ("x", "y")),
        lambda: MPoly.from_json('{"vars":["x"],"terms":[{"coef":"1","exps":[32768]}]}'),
        lambda: MPoly.monomial(("x", "y"), (32767, 0)) * MPoly.variable("x", ("x", "y")),
        lambda: MPoly.dot(("x", "y"), [(MPoly.monomial(("x", "y"), (16384, 1)),) * 2]),
        lambda: MPoly.variable("y", ("x", "y")) ** 32768,
        lambda: MPoly.from_text("x^16384 + y", ("x", "y")) ** 2,
    ],
    ids=[
        "constructor", "negative", "monomial", "from_text", "from_text-sum",
        "from_text-carry", "from_json", "product", "dot", "power", "power-of-a-sum",
    ],
)
def test_an_exponent_above_the_bound_raises(make):
    with pytest.raises(ValueError, match="32767"):
        make()


def test_a_product_at_the_bound_does_not_carry():
    # x^32767 * x^32767 would carry into y's field if the guard bit were a
    # value bit; below the bound the fields add independently
    vars = ("x", "y")
    a = MPoly.monomial(vars, (16383, 32767))
    b = MPoly.monomial(vars, (16384, 0))
    assert (a * b).terms == {(32767, 32767): Scalar(1)}
    assert MPoly.monomial(vars, (0, 1)).coefficient((32768, 0)) == Scalar(0)
    assert MPoly.monomial(vars, (0, 1)).coefficient((1,)) == Scalar(0)
