"""Kernel tests: scalars, polynomials, matrices, elimination.

Oracles here are independent of the implementations under test: closed
forms (4x4 pfaffian), cofactor determinants, and reconstruction identities.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from exactlie import cli, polymat
from exactlie.elim import (
    eliminate_triangular,
    ideal_membership_bounded,
    weighted_monomials,
)
from exactlie.mpoly import MPoly, divide_by_monic_in_var, grevlex_key
from exactlie.polymat import (
    PolyMatrix,
    charpoly,
    charpoly_coefficients,
    det_cofactor,
    determinant,
    exp_nilpotent,
    invert,
    linear_combination,
    nullspace,
    pfaffian,
    rank,
    rref,
    solve_linear,
)
from exactlie.scalar import Scalar
from oracles import evaluate, term_loop_dot, term_loop_substitute
from sympy_oracle import sympy_charpoly_coefficients, to_sympy


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------


def test_scalar_field_axioms_spot():
    s = Scalar.sqrt2()
    assert s * s == Scalar(2)
    assert (Scalar(1) + s) * (Scalar(1) - s) == Scalar(-1)
    x = Scalar(Fraction(3, 4), Fraction(-2, 5))
    assert x * x.inverse() == Scalar(1)
    assert x ** 3 == x * x * x
    assert (x ** -2) * x * x == Scalar(1)


def test_scalar_sign_and_str():
    assert Scalar(1, -1).sign_key() == -1  # 1 - sqrt2 < 0
    assert Scalar(-1, 1).sign_key() == 1  # sqrt2 - 1 > 0
    assert Scalar(3, -2).sign_key() == 1  # 3 > 2*sqrt2? 9 > 8 yes
    assert Scalar(0).sign_key() == 0
    assert str(Scalar(Fraction(1, 2), Fraction(-1, 3))) == "1/2 - 1/3*sqrt2"
    assert str(Scalar(0, 1)) == "sqrt2"


def test_scalar_zero_division():
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def sqrt2_formula_quotient(x: Scalar, y: Scalar) -> Scalar:
    """x / y by the Q(sqrt2) formula: x (c - d s) / (c^2 - 2 d^2)."""
    c, d = y.r0, y.r1
    norm = c * c - 2 * d * d
    return x * Scalar(Fraction(c, norm), Fraction(-d, norm))


def test_rational_division_matches_the_sqrt2_formula():
    rng = random.Random(59)

    def operand():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-6, 6)
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if kind == 1:
            return q
        return Scalar(q, Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 5)))

    def form(x):
        return (x.r0, type(x.r0), x.r1, type(x.r1))

    zeros = 0
    for _ in range(400):
        x, y = operand(), operand()
        sx, sy = Scalar.coerce(x), Scalar.coerce(y)
        if not sy:
            zeros += 1
            for divide in (lambda: sx / y, lambda: x / sy, lambda: sy.inverse()):
                with pytest.raises(ZeroDivisionError):
                    divide()
            continue
        want = form(sqrt2_formula_quotient(sx, sy))
        assert form(sx / y) == want
        assert form(x / sy) == want  # an int or Fraction x divides reflected
        assert form(sy.inverse()) == form(sqrt2_formula_quotient(Scalar(1), sy))
    assert zeros > 5
    with pytest.raises(ZeroDivisionError):
        Scalar(1, 1) / 0


def _assert_stored_form(x: Scalar):
    """Each component is an int (not a bool) or a non-integral Fraction."""
    for q in (x.r0, x.r1):
        assert type(q) is int or (type(q) is Fraction and q.denominator != 1), repr(q)


def test_scalar_integral_components_are_ints():
    built = [
        Scalar(), Scalar(3), Scalar(-2, 5), Scalar(Fraction(4, 2)), Scalar(Fraction(0)),
        Scalar("6"), Scalar("-8/4", "0"), Scalar(True), Scalar(False, True),
        Scalar.coerce(7), Scalar.coerce(Fraction(9, 3)), Scalar.sqrt2(),
    ]
    for x in built:
        _assert_stored_form(x)
        assert type(x.r0) is int and type(x.r1) is int
    a, b = Scalar(3, -1), Scalar(-5, 2)
    half = Scalar(Fraction(1, 2), Fraction(1, 2))
    results = [
        a + b, a - b, a * b, -a, a + 4, 4 + a, a - 4, 4 - a, a * 4, 4 * a,
        half + half, half * 2, half - Scalar(Fraction(-1, 2), Fraction(1, 2)),
        Scalar(Fraction(2, 3)) * Scalar(Fraction(3, 2)),
        Scalar(Fraction(1, 3)) + Fraction(2, 3),
        Scalar(Fraction(1, 2)).inverse(), Scalar(Fraction(-1, 4)) ** -2,
        Scalar(6) / Scalar(3), Scalar(6) / 2, 6 / Scalar(Fraction(1, 2)),
        Scalar(3, 2).inverse(),  # norm 9 - 8 = 1: 3 - 2*sqrt2
        Scalar(3, 2) ** -1 * Scalar(3, 2), a ** 0, a ** 3,
    ]
    for x in results:
        _assert_stored_form(x)
        assert type(x.r0) is int and type(x.r1) is int, repr(x)


def test_scalar_non_integral_components_are_fractions():
    results = [
        Scalar(Fraction(1, 2)), Scalar("3/4", "-1/6"), Scalar(1) / Scalar(3),
        Scalar(2).inverse(), Scalar(1, 1).inverse() / 3, Scalar(2) ** -3,
        Scalar(Fraction(1, 3)) + Scalar(Fraction(1, 3)), Scalar(Fraction(1, 2), 1) * 3,
        Scalar(0, Fraction(1, 2)) * Scalar(0, Fraction(1, 3)), Scalar(5) - Fraction(1, 7),
    ]
    for x in results:
        _assert_stored_form(x)
        assert type(x.r0) is Fraction or type(x.r1) is Fraction, repr(x)
    third = Scalar(1) / Scalar(3)
    assert third.r0 == Fraction(1, 3) and type(third.r0) is Fraction
    assert third.r1 == 0 and type(third.r1) is int


def test_scalar_equal_across_constructions():
    forms = [Scalar(Fraction(4, 2)), Scalar(2), Scalar("2"), Scalar("4/2"), Scalar(1) + 1]
    assert all(x == forms[0] for x in forms)
    assert len({hash(x) for x in forms}) == 1
    assert len(set(forms)) == 1
    table = {Scalar(Fraction(4, 2)): "two"}
    assert table[Scalar(2)] == table[Scalar("2")] == "two"
    assert Scalar(2) == 2 and Scalar(2) == Fraction(2) and Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(Scalar(Fraction(1, 2), 3)) == hash((Fraction(1, 2), Fraction(3)))


def test_scalar_repr_and_str_are_pinned():
    assert repr(Scalar(2)) == "Scalar(Fraction(2, 1), Fraction(0, 1))"
    assert repr(Scalar(Fraction(-1, 2), 3)) == "Scalar(Fraction(-1, 2), Fraction(3, 1))"
    assert str(Scalar(2)) == "2" and str(Scalar(0)) == "0"
    assert str(Scalar(-3, 2)) == "-3 + 2*sqrt2"
    assert str(Scalar(Fraction(1, 2), -1)) == "1/2 - sqrt2"
    assert str(Scalar(0, -2)) == "-2*sqrt2"
    assert Scalar(-3, 2).sign_key() == -1 and Scalar(Fraction(3, 2), -1).sign_key() == 1


# ---------------------------------------------------------------------------
# MPoly basics and canonical order
# ---------------------------------------------------------------------------


def _poly(text, vars):
    return MPoly.from_text(text, tuple(vars))


def test_grevlex_order_frozen_examples():
    # ascending sort of the key lists descending grevlex
    assert grevlex_key((2, 0)) < grevlex_key((1, 1))  # x^2 before x*y
    assert grevlex_key((3, 0)) < grevlex_key((2, 1))
    assert grevlex_key((1, 1)) < grevlex_key((0, 2))  # x*y before y^2
    p = _poly("y^2 + x*y + x^2 + x + 1", "xy")
    assert p.to_text() == "x^2 + x*y + y^2 + x + 1"


def test_mpoly_arithmetic_against_expansion():
    vars = ("x", "y")
    x = MPoly.variable("x", vars)
    y = MPoly.variable("y", vars)
    left = (x + y) ** 3
    right = x ** 3 + 3 * x ** 2 * y + 3 * x * y ** 2 + y ** 3
    assert left == right
    assert (x - y) * (x + y) == x ** 2 - y ** 2
    assert (x * 0).is_zero()


def test_mpoly_substitute_and_evaluate():
    vars = ("x", "y")
    p = _poly("x^2 - 2*y", vars)
    q = p.substitute({"x": _poly("y + 1", vars)})
    assert q == _poly("y^2 + 1", vars)
    val = evaluate(p, {"x": Scalar(3), "y": Scalar(2)})
    assert val == Scalar(5)


def test_mpoly_derivative_and_weights():
    vars = ("x", "y")
    p = _poly("x^3*y + x", vars)
    assert p.derivative("x") == _poly("3*x^2*y + 1", vars)
    w = {"x": 2, "y": 3}
    assert _poly("x^3*y", vars).quasi_homogeneous_degree(w) == 9
    assert _poly("x^3*y + x", vars).quasi_homogeneous_degree(w) is None


def random_scalar(rng, sqrt2=True):
    num = rng.randint(-9, 9)
    den = rng.randint(1, 9)
    r1 = Fraction(0)
    if sqrt2 and rng.random() < 0.3:
        r1 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    return Scalar(Fraction(num, den), r1)


def random_poly(rng, vars, max_terms=6, max_exp=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in vars)
        terms[e] = random_scalar(rng)
    return MPoly(tuple(vars), terms)


def test_mpoly_text_roundtrip_random():
    rng = random.Random(20260814)
    vars = ("x", "y", "z")
    for _ in range(300):
        p = random_poly(rng, vars)
        assert MPoly.from_text(p.to_text(), vars) == p


def test_mpoly_json_roundtrip_random():
    rng = random.Random(99)
    vars = ("u", "v")
    for _ in range(300):
        p = random_poly(rng, vars)
        assert MPoly.from_json(p.to_json()) == p


def test_mpoly_roundtrip_edge_cases():
    vars = ("x", "y")
    cases = [
        MPoly.zero(vars),
        MPoly.constant(Fraction(-7, 3), vars),
        MPoly.constant(Scalar(0, Fraction(1, 2)), vars),
        _poly("-x", vars),
        MPoly(vars, {(1, 0): Scalar(1, 1), (0, 0): Scalar(0, -1)}),
    ]
    for p in cases:
        assert MPoly.from_text(p.to_text(), vars) == p
        assert MPoly.from_json(p.to_json()) == p


def _json_term(**changes):
    return {"coef": "1", "coef_sqrt2": "0", "exps": [1], **changes}


@pytest.mark.parametrize(
    "data",
    [
        {"vars": ["x"], "terms": [_json_term(coef="1.5")]},
        {"vars": ["x"], "terms": [_json_term(coef="1e3")]},
        {"vars": ["x"], "terms": [_json_term(coef_sqrt2=" 2")]},
        {"vars": ["x"], "terms": [_json_term(exps=[1.5])]},
        {"vars": ["x"], "terms": [_json_term(exps=[True])]},
        {"vars": ["x"], "terms": [_json_term(exps=[-1])]},
        {"vars": ["x"], "terms": [_json_term(), _json_term(coef="2")]},
        {"vars": ["x", "x"], "terms": [_json_term(exps=[1, 0])]},
        {"vars": ["x"], "terms": [_json_term(coef="1/0")]},
        {"vars": ["x"], "terms": [{"coef_sqrt2": "0", "exps": [1]}]},
    ],
    ids=[
        "decimal-coef", "exponent-coef", "spaced-sqrt2-coef", "float-exponent",
        "bool-exponent", "negative-exponent", "repeated-exponents", "repeated-vars",
        "zero-denominator", "missing-coef",
    ],
)
def test_mpoly_from_json_rejects_what_to_json_never_writes(data):
    with pytest.raises(ValueError):
        MPoly.from_json_dict(data)
    with pytest.raises(ValueError):
        MPoly.from_json(json.dumps(data))
    good = {"vars": ["x"], "terms": [_json_term(coef="-3/2", coef_sqrt2="1")]}
    assert MPoly.from_json_dict(good) == MPoly.from_text("(-3/2 + sqrt2)*x", ("x",))


@pytest.mark.parametrize(
    "text",
    ["()", "x y", "2 3", "1/0*x",
     "--x", "- -x", "x + -y", "x - -y", "(+1)*x", "(--1)*x", "+x"],
)
def test_mpoly_from_text_rejects_what_to_text_never_emits(text):
    # an empty coefficient, two terms with no sign between them, and a zero
    # denominator are malformed input, not 0, x + y, 5 or an internal error;
    # to_text writes at most one sign before a term or a coefficient
    # component and never a leading '+', so the last seven, which read as
    # x, x, x - y, x + y, x, x and x if any run of signs is taken, are too
    with pytest.raises(ValueError):
        MPoly.from_text(text, ("x", "y"))


_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<pow>\^)|(?P<star>\*)"
    r"|(?P<sign>[+-])|(?P<frac>\d+/\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*))"
)


def token_loop_from_text(text, vars):
    """MPoly.from_text as a token loop, one regex match and one
    groupdict() per token and one MPoly sum per term: the oracle for the
    per-term parser, which must accept the same texts with the same
    values."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        for kind, val in m.groupdict().items():
            if val is not None:
                tokens.append((kind, val))
                break

    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, None)

    def take(kind):
        nonlocal i
        k, v = peek()
        if k != kind:
            raise ValueError(f"expected {kind}, found {k} {v!r}")
        i += 1
        return v

    def take_sign(first):
        k, v = peek()
        if k != "sign":
            if not first:
                raise ValueError(f"missing sign before {v!r}")
            return 1
        if first and v == "+":
            raise ValueError("leading '+'")
        take("sign")
        if peek()[0] == "sign":
            raise ValueError("repeated sign")
        return -1 if v == "-" else 1

    def take_fraction():
        num, _, den = take("frac").partition("/")
        if den and int(den) == 0:
            raise ValueError("zero denominator")
        return Fraction(int(num), int(den or 1))

    def parse_paren_scalar():
        take("lpar")
        r0 = Fraction(0)
        r1 = Fraction(0)
        first = True
        while first or peek()[0] != "rpar":
            sgn = take_sign(first)
            if peek()[0] == "frac":
                q = take_fraction()
                if peek() == ("star", "*"):
                    take("star")
                    if take("name") != "sqrt2":
                        raise ValueError("only sqrt2 allowed in coefficients")
                    r1 += sgn * q
                else:
                    r0 += sgn * q
            elif peek()[0] == "name":
                if take("name") != "sqrt2":
                    raise ValueError("only sqrt2 allowed in coefficients")
                r1 += sgn
            else:
                raise ValueError(f"bad coefficient token {peek()!r}")
            first = False
        take("rpar")
        return Scalar(r0, r1)

    result = MPoly.zero(vars)
    nvars = len(vars)
    while i < len(tokens):
        coef = Scalar(take_sign(i == 0))
        exps = [0] * nvars
        expect_factor = True
        saw_any = False
        while expect_factor:
            kind, val = peek()
            if kind == "frac":
                coef = coef * take_fraction()
            elif kind == "lpar":
                coef = coef * parse_paren_scalar()
            elif kind == "name":
                name = take("name")
                if name == "sqrt2":
                    coef = coef * Scalar.sqrt2()
                else:
                    if name not in vars:
                        raise ValueError(f"unknown variable {name!r}")
                    k = 1
                    if peek()[0] == "pow":
                        take("pow")
                        k = int(take("frac"))
                    exps[vars.index(name)] += k
            else:
                raise ValueError(f"unexpected token {val!r}")
            saw_any = True
            if peek()[0] == "star":
                take("star")
            else:
                expect_factor = False
        if not saw_any:
            raise ValueError("empty term")
        result = result + MPoly.monomial(vars, tuple(exps), coef)
    return result


def parse_outcome(parse, text, vars):
    """The parsed polynomial, or None where the text raises ValueError."""
    try:
        return parse(text, vars)
    except ValueError:
        return None


@pytest.mark.parametrize(
    "text,want",
    [
        ("x*x", "x^2"),
        ("2*3*x", "6*x"),
        ("x*2", "2*x"),
        ("x^0", "1"),
        ("0*x", "0"),
        ("(1)*x", "x"),
        ("x - x", "0"),
        ("", "0"),
        (" \t", "0"),
        ("x^2*y*x", "x^3*y"),
        ("sqrt2*sqrt2*y", "2*y"),
        ("(1 + sqrt2)*(1 - sqrt2)", "-1"),
        ("(-sqrt2 + 1/2 - 1/2*sqrt2)*x*(2)", "-(-1 + 3*sqrt2)*x"),
        ("1/2*y + x - 3/2*y + y", "x"),
        (" - x ^ 2 *y+ 4/6 ", "-x^2*y + 2/3"),
    ],
)
def test_mpoly_from_text_reads_products_of_factors(text, want):
    # the grammar is wider than what to_text writes: a term is any product
    # of factors, and like terms are summed
    vars = ("x", "y")
    got = MPoly.from_text(text, vars)
    assert got.to_text() == want
    assert got == token_loop_from_text(text, vars)


def test_mpoly_from_text_matches_the_token_loop_on_the_roundtrip_texts():
    texts = [p.to_text() for p in cli.roundtrip_polys()] + list(cli.MALFORMED_TEXTS)
    assert len(texts) == 587
    for text in texts:
        got = parse_outcome(MPoly.from_text, text, cli.ROUNDTRIP_VARS)
        assert got == parse_outcome(token_loop_from_text, text, cli.ROUNDTRIP_VARS), text


TEXT_ALPHABET = (
    "x", "y", "z", "w", "sqrt2", "sqrt2x", "x1", "_", "0", "1", "2", "12", "007",
    "1/2", "2/3", "3/0", "(", ")", "^", "*", "+", "-", "/", " ", "\t",
)


def random_text(rng):
    """A string over the token alphabet: tokens drawn at random, or a
    to_text output or product of factors with a few tokens inserted,
    deleted or replaced, so that both parsers meet accepted and rejected
    texts near every rule."""
    kind = rng.random()
    if kind < 0.35:
        return "".join(rng.choice(TEXT_ALPHABET) for _ in range(rng.randint(0, 12)))
    if kind < 0.7:
        pieces = list(random_poly(rng, ("x", "y", "z"), max_terms=3, max_exp=3).to_text())
    else:
        factor = ("2", "1/2", "(1 - sqrt2)", "(sqrt2)", "sqrt2", "x", "y^2", "z^0")
        pieces = list(" - ".join(
            " * ".join(rng.choice(factor) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ))
    for _ in range(rng.choice((0, 1, 1, 2))):
        k = rng.randint(0, len(pieces))
        op = rng.random()
        if op < 0.4 or not pieces:
            pieces.insert(k, rng.choice(TEXT_ALPHABET))
        elif op < 0.7:
            del pieces[min(k, len(pieces) - 1)]
        else:
            pieces[min(k, len(pieces) - 1)] = rng.choice(TEXT_ALPHABET)
    return "".join(pieces)


def test_mpoly_from_text_matches_the_token_loop_on_random_strings():
    rng = random.Random(2101)
    vars = ("x", "y", "z")
    accepted = rejected = 0
    for _ in range(5000):
        text = random_text(rng)
        got = parse_outcome(MPoly.from_text, text, vars)
        assert got == parse_outcome(token_loop_from_text, text, vars), text
        if got is None:
            rejected += 1
        else:
            accepted += 1
    assert accepted > 1000 and rejected > 1000


def test_divide_by_monic_in_var():
    vars = ("lam", "x", "y")
    rng = random.Random(7)
    d = _poly("lam^2 + x - y^2", vars)
    for _ in range(25):
        q = random_poly(rng, vars, max_terms=4, max_exp=3)
        r = random_poly(rng, vars, max_terms=2, max_exp=1)
        r = r.coefficient_in("lam", 0) + MPoly.variable("lam", vars) * random_poly(
            rng, vars, max_terms=2, max_exp=0
        )
        f = q * d + r
        q2, r2 = divide_by_monic_in_var(f, d, "lam")
        assert q2 == q and r2 == r


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def random_scalar_matrix(rng, n, m=None):
    m = n if m is None else m
    return PolyMatrix(
        [[Scalar(Fraction(rng.randint(-6, 6))) for _ in range(m)] for _ in range(n)]
    )


def test_charpoly_known_2x2():
    a = PolyMatrix([[1, 2], [3, 4]])
    cp = charpoly(a, "lam")
    assert cp == MPoly.from_text("lam^2 - 5*lam - 2", ("lam",))
    assert determinant(a) == Scalar(-2)


def test_charpoly_matches_cofactor_det_small_dims():
    rng = random.Random(4)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            a = random_scalar_matrix(rng, n)
            cp = charpoly(a, "t")
            lam_minus_a = PolyMatrix(
                [
                    [
                        MPoly.variable("t", ("t",))
                        - MPoly.constant(a.entry(i, j), ("t",))
                        if i == j
                        else -MPoly.constant(a.entry(i, j), ("t",))
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
            )
            assert det_cofactor(lam_minus_a) == cp


def test_charpoly_polynomial_entries():
    vars = ("lam", "x")
    x = MPoly.variable("x", vars)
    z = MPoly.zero(vars)
    one = MPoly.constant(1, vars)
    a = PolyMatrix([[z, one], [x, z]])
    assert charpoly(a, "lam") == _poly("lam^2 - x", vars)


# charpoly_coefficients (Berkowitz) against two independent oracles: the
# Faddeev-LeVerrier recurrence, kept here only as a reference, and the
# cofactor expansion of det(lam*I - A).


def faddeev_leverrier(a: PolyMatrix):
    """c_0..c_n from M_1 = I, c_k = -tr(A M_k)/k, M_(k+1) = A M_k + c_k I."""
    n = a.nrows
    one = a.one
    coeffs = [one]
    m = PolyMatrix.identity(n, one=one)
    for k in range(1, n + 1):
        am = a * m
        c = am.trace() / (-k)
        coeffs.append(c)
        if k < n:
            m = am + PolyMatrix.identity(n, one=one).scale(c)
    return coeffs


ORACLE_VARS = ("x", "y")


def _lift(c, vars):
    return c.with_vars(vars) if isinstance(c, MPoly) else MPoly.constant(c, vars)


def cofactor_coefficients(a: PolyMatrix):
    """Coefficients of det_cofactor(lam*I - A) by falling power of lam."""
    n = a.nrows
    vars = ("lam",) + ORACLE_VARS
    lam = MPoly.variable("lam", vars)
    zero = MPoly.zero(vars)
    shifted = PolyMatrix(
        [[(lam if i == j else zero) - _lift(a.entry(i, j), vars) for j in range(n)]
         for i in range(n)]
    )
    det = det_cofactor(shifted) if n else MPoly.constant(1, vars)
    return [det.coefficient_in("lam", n - k) for k in range(n + 1)]


def assert_charpoly_oracles(a: PolyMatrix):
    coeffs = charpoly_coefficients(a)
    assert len(coeffs) == a.nrows + 1
    assert coeffs == faddeev_leverrier(a)
    vars = ("lam",) + ORACLE_VARS
    assert [_lift(c, vars) for c in coeffs] == cofactor_coefficients(a)
    return coeffs


def random_sqrt2_entry(rng):
    return Scalar(0) if rng.random() < 0.3 else random_scalar(rng)


def random_mpoly_entry(rng):
    if rng.random() < 0.5:
        return MPoly.zero(ORACLE_VARS)
    x, y = (MPoly.variable(v, ORACLE_VARS) for v in ORACLE_VARS)
    return rng.randint(-3, 3) + rng.randint(-2, 2) * x + rng.randint(-2, 2) * y


def random_matrix(rng, n, entry):
    return PolyMatrix([[entry(rng) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("entry", [random_sqrt2_entry, random_mpoly_entry])
def test_charpoly_coefficients_match_oracles_sizes_0_to_7(entry):
    rng = random.Random(29)
    for n in range(8):
        assert_charpoly_oracles(random_matrix(rng, n, entry))


def test_charpoly_coefficients_empty_matrix_is_one():
    assert charpoly_coefficients(PolyMatrix([])) == [Scalar(1)]


def _with(a: PolyMatrix, fn) -> PolyMatrix:
    n = a.nrows
    return PolyMatrix([[fn(i, j, a.entry(i, j)) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("entry", [random_sqrt2_entry, random_mpoly_entry])
def test_charpoly_coefficients_structured_cases(entry):
    rng = random.Random(31)
    for n in range(1, 6):
        a = random_matrix(rng, n, entry)
        zero = a.entry(0, 0) - a.entry(0, 0)
        one = a.one
        # Berkowitz's first step reads A[0][0]; zero it, or zero the
        # first row or column, which the Krylov products start from
        assert_charpoly_oracles(_with(a, lambda i, j, c: zero if i == j == 0 else c))
        assert_charpoly_oracles(_with(a, lambda i, j, c: zero if i == 0 else c))
        assert_charpoly_oracles(_with(a, lambda i, j, c: zero if j == 0 else c))

        # triangular: the product of (lam - a_ii)
        upper = _with(a, lambda i, j, c: c if i <= j else zero)
        coeffs = assert_charpoly_oracles(upper)
        expected = [one]
        for i in range(n):
            d = upper.entry(i, i)
            expected = [
                (expected[k] if k < len(expected) else zero)
                - (d * expected[k - 1] if k else zero)
                for k in range(len(expected) + 1)
            ]
        assert coeffs == expected

        # nilpotent, not triangular: conjugate a strictly upper triangular
        # matrix by L = I + N, N strictly lower, with L^-1 = sum (-N)^k
        strict = _with(a, lambda i, j, c: c if i < j else zero)
        below = _with(a, lambda i, j, c: c if i > j else zero)
        identity = PolyMatrix.identity(n, one=one)
        inverse, power = identity, identity
        for _ in range(n - 1):
            power = -(power * below)
            inverse = inverse + power
        assert (identity + below) * inverse == identity
        nilpotent = (identity + below) * strict * inverse
        assert assert_charpoly_oracles(nilpotent) == [one] + [zero] * n

        # rank-deficient: an n x r times r x n product; c_k = 0 for k > r
        r = n // 2
        if r:
            left = PolyMatrix([[entry(rng) for _ in range(r)] for _ in range(n)])
            right = PolyMatrix([[entry(rng) for _ in range(n)] for _ in range(r)])
            coeffs = assert_charpoly_oracles(left * right)
            assert all(not c for c in coeffs[r + 1:])


def test_hook_slice_charpoly_against_sympy():
    sympy = pytest.importorskip("sympy")
    from exactlie.liealg import hook_slice
    from exactlie.slicegeom import LAMBDA, restrict_invariants

    inv = restrict_invariants(hook_slice(5))
    symbols = {name: sympy.Symbol(name) for name in inv.vars if name != LAMBDA}
    coeffs = sympy_charpoly_coefficients(inv.matrix, symbols)
    lam = symbols[LAMBDA] = sympy.Symbol(LAMBDA)
    n = inv.matrix.nrows
    want = sum(c * lam ** (n - k) for k, c in enumerate(coeffs))
    assert sympy.expand(to_sympy(inv.charpoly, symbols) - want) == 0


def test_g2_slice_chi_against_sympy():
    sympy = pytest.importorskip("sympy")
    from exactlie import g2
    from exactlie.slicegeom import slice_matrix

    xi = slice_matrix(g2.g2_chart(), g2.VARS8)
    symbols = {name: sympy.Symbol(name) for name in g2.VARS8}
    want = sympy_charpoly_coefficients(xi, symbols)
    c2, c6 = g2.chi_from_charpoly(xi)
    assert sympy.expand(to_sympy(c2, symbols) - want[2]) == 0
    assert sympy.expand(to_sympy(c6, symbols) - want[6]) == 0


def test_pfaffian_4x4_closed_form():
    # frozen oracle: pf [[0,a,b,c],[-a,0,e,g*0+d... ] use symbols
    vars = ("a", "b", "c", "d", "e", "g")
    a, b, c, d, e, g = (MPoly.variable(v, vars) for v in vars)
    z = MPoly.zero(vars)
    m = PolyMatrix(
        [
            [z, a, b, c],
            [-a, z, d, e],
            [-b, -d, z, g],
            [-c, -e, -g, z],
        ]
    )
    assert pfaffian(m) == a * g - b * e + c * d


def random_skew(rng, n):
    rows = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Scalar(Fraction(rng.randint(-5, 5)))
            rows[i][j] = v
            rows[j][i] = -v
    return PolyMatrix(rows)


def test_pfaffian_squares_to_determinant():
    rng = random.Random(11)
    for n in (2, 4, 6, 8):
        for _ in range(4):
            m = random_skew(rng, n)
            assert pfaffian(m) * pfaffian(m) == determinant(m)


def test_pfaffian_odd_and_nonskew():
    assert pfaffian(random_skew(random.Random(1), 5)) == Scalar(0)
    with pytest.raises(ValueError):
        pfaffian(PolyMatrix([[0, 1], [1, 0]]))


def test_rref_solve_invert():
    a = PolyMatrix([[2, 1], [4, 2]])
    assert rank(a) == 1
    ns = nullspace(a)
    assert len(ns) == 1
    assert (a * PolyMatrix([[v] for v in ns[0]])).is_zero()
    assert solve_linear(a, [1, 3]) is None  # inconsistent -> value, not raise
    sol = solve_linear(a, [1, 2])
    assert sol is not None
    assert sol[0] * 2 + sol[1] == Scalar(1)
    b = PolyMatrix([[1, 2], [3, 5]])
    assert b * invert(b) == PolyMatrix.identity(2)


def test_solve_linear_random_consistency():
    rng = random.Random(23)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = random_scalar_matrix(rng, n, m)
        x = [Scalar(rng.randint(-3, 3)) for _ in range(m)]
        b = [(a * PolyMatrix([[v] for v in x])).entry(i, 0) for i in range(n)]
        sol = solve_linear(a, b)
        assert sol is not None
        ax = a * PolyMatrix([[v] for v in sol])
        assert all(ax.entry(i, 0) == b[i] for i in range(n))


def test_exp_nilpotent_inverse():
    a = PolyMatrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    e = exp_nilpotent(a)
    einv = exp_nilpotent(-a)
    assert e * einv == PolyMatrix.identity(3)
    with pytest.raises(ValueError):
        exp_nilpotent(PolyMatrix([[1]]))


# ---------------------------------------------------------------------------
# PolyMatrix against plain list-of-lists arithmetic
# ---------------------------------------------------------------------------


def small_sqrt2_entry(rng):
    return Scalar(rng.choice((-1, 0, 0, 1)), rng.choice((0, 0, 1)))


def small_mpoly_entry(rng):
    x, y = (MPoly.variable(v, ORACLE_VARS) for v in ORACLE_VARS)
    return rng.choice((-1, 0, 0, 1)) * x + rng.choice((0, 0, 1)) * y


def reference_rows(rng, n, m, entry, zero):
    """n x m entries, half of the time with a zero row and a zero column."""
    rows = [[entry(rng) for _ in range(m)] for _ in range(n)]
    if n and m and rng.random() < 0.5:
        zi, zj = rng.randrange(n), rng.randrange(m)
        rows[zi] = [zero] * m
        for row in rows:
            row[zj] = zero
    return rows


def as_matrix(rows, n, m, zero):
    if not (n and m):
        return PolyMatrix.zeros(n, m, zero)
    a = PolyMatrix(rows)
    if isinstance(zero, Scalar):
        entries = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)}
        assert PolyMatrix.from_entries(n, m, entries) == a
    return a


def assert_matches(got, want, n, m):
    """got is the n x m matrix with entries want, storing no zero."""
    assert (got.nrows, got.ncols) == (n, m)
    assert [[got.entry(i, j) for j in range(m)] for i in range(n)] == want
    assert all(x for _, _, x in got.nonzeros())


@pytest.mark.parametrize(
    "entry, zero",
    [(small_sqrt2_entry, Scalar(0)), (small_mpoly_entry, MPoly.zero(ORACLE_VARS))],
)
def test_polymatrix_matches_list_arithmetic(entry, zero):
    rng = random.Random(53)
    cancelled = {"product": 0, "sum": 0, "difference": 0}
    for n, k, m in itertools.product(range(4), repeat=3):
        a_rows = reference_rows(rng, n, k, entry, zero)
        b_rows = reference_rows(rng, k, m, entry, zero)
        # the same entry, its negative or a fresh one: sums and
        # differences cancel to zero at some positions
        c_rows = [
            [rng.choice((x, -x, entry(rng))) for x in row] for row in a_rows
        ]
        a, b, c = as_matrix(a_rows, n, k, zero), as_matrix(b_rows, k, m, zero), as_matrix(
            c_rows, n, k, zero
        )

        product = [
            [sum((a_rows[i][t] * b_rows[t][j] for t in range(k)), zero) for j in range(m)]
            for i in range(n)
        ]
        cancelled["product"] += sum(
            1 for i in range(n) for j in range(m)
            if not product[i][j] and any(a_rows[i][t] and b_rows[t][j] for t in range(k))
        )
        assert_matches(a * b, product, n, m)
        for name, got, op in (("sum", a + c, lambda x, y: x + y),
                              ("difference", a - c, lambda x, y: x - y)):
            want = [[op(x, y) for x, y in zip(ra, rc)] for ra, rc in zip(a_rows, c_rows)]
            cancelled[name] += sum(
                1 for ra, rc, rw in zip(a_rows, c_rows, want)
                for x, y, w in zip(ra, rc, rw) if x and y and not w
            )
            assert_matches(got, want, n, k)
        assert_matches(-a, [[-x for x in row] for row in a_rows], n, k)
        s = entry(rng)
        assert_matches(a.scale(s), [[x * s for x in row] for row in a_rows], n, k)
        assert_matches(a.transpose(), [[a_rows[i][j] for i in range(n)] for j in range(k)], k, n)
        assert a.is_zero() == all(not x for row in a_rows for x in row)
        assert a == as_matrix([list(row) for row in a_rows], n, k, zero)
        assert (a == c) == (a_rows == c_rows)
        if n != k:
            assert PolyMatrix.zeros(n, k) != PolyMatrix.zeros(k, n)
            assert not a.is_symmetric() and not a.is_skew()
            continue
        assert a.trace() == sum((a_rows[i][i] for i in range(n)), zero)
        at_rows = [[a_rows[j][i] for j in range(n)] for i in range(n)]
        for rows in (
            a_rows,
            [[x + y for x, y in zip(r, rt)] for r, rt in zip(a_rows, at_rows)],
            [[x - y for x, y in zip(r, rt)] for r, rt in zip(a_rows, at_rows)],
        ):
            square = as_matrix(rows, n, n, zero)
            pairs = [(rows[i][j], rows[j][i]) for i in range(n) for j in range(n)]
            assert square.is_symmetric() == all(x == y for x, y in pairs)
            assert square.is_skew() == all(x == -y for x, y in pairs)
    assert all(cancelled.values()), cancelled


def test_sum_of_mismatched_shapes_raises():
    with pytest.raises(ValueError, match="shape mismatch"):
        PolyMatrix([[1, 2]]) + PolyMatrix([[1]])
    with pytest.raises(ValueError, match="shape mismatch"):
        PolyMatrix([[1, 2]]) - PolyMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="shape mismatch"):
        PolyMatrix.zeros(0, 3) + PolyMatrix.zeros(0, 2)


def test_from_entries_takes_scalar_entries_only():
    x = MPoly.variable(ORACLE_VARS[0], ORACLE_VARS)
    with pytest.raises(TypeError):
        PolyMatrix.from_entries(1, 1, {(0, 0): x})
    a = PolyMatrix.from_entries(2, 3, {(1, 2): 5, (0, 1): Fraction(1, 2), (1, 0): 0})
    assert a == PolyMatrix([[0, Fraction(1, 2), 0], [0, 0, 5]])
    assert list(a.nonzeros()) == [(0, 1, Scalar(Fraction(1, 2))), (1, 2, Scalar(5))]


def test_a_polynomial_entry_anywhere_makes_a_polynomial_matrix():
    # the ring comes from every entry and coefficient, not from the first
    t = MPoly.variable("t", ("t",))
    one = MPoly.constant(1, ("t",))
    diag = PolyMatrix([[1, 0], [0, t]])
    assert diag.zero == MPoly.zero(("t",))
    assert determinant(diag) == t
    assert PolyMatrix([[t, 0], [0, 1]]) == PolyMatrix([[t, 0], [0, one]])
    nil = PolyMatrix([[0, 1], [0, 0]])
    m = linear_combination([Scalar(1), t], [PolyMatrix.identity(2), nil], 2, 2)
    assert m == PolyMatrix([[one, t], [0, one]])
    assert m * m == PolyMatrix([[one, t + t], [0, one]])
    assert all(type(x) is MPoly for _, _, x in m.nonzeros())


def test_matrix_indices_and_powers_are_checked():
    m = PolyMatrix([[1, 2], [3, 4]])
    assert m.row(1) == [Scalar(3), Scalar(4)]
    assert m.column(1) == [Scalar(2), Scalar(4)]
    for k in (-1, 2, 5):
        with pytest.raises(IndexError, match="outside a 2x2 matrix"):
            m.row(k)
        with pytest.raises(IndexError, match="outside a 2x2 matrix"):
            m.column(k)
    with pytest.raises(ValueError, match="negative power"):
        PolyMatrix.identity(2) ** -1
    assert m ** 0 == PolyMatrix.identity(2)


def test_empty_matrices_keep_their_shape():
    wide = PolyMatrix.zeros(0, 3)
    assert (wide.nrows, wide.ncols) == (0, 3)
    units = [[Scalar(int(i == k)) for i in range(3)] for k in range(3)]
    assert nullspace(wide) == units
    assert rank(wide) == 0
    assert solve_linear(wide, []) == [Scalar(0)] * 3
    tall = PolyMatrix.zeros(3, 0).transpose()
    assert (tall.nrows, tall.ncols) == (0, 3)
    assert tall == wide


def ring_pfaffian(m):
    """pf(m) expanded along the first remaining row on the ring entries
    themselves, memoized on index subsets: the oracle for pfaffian's raw
    path, which expands rational Scalar matrices on their components."""
    if not m.is_skew():
        raise ValueError("not skew")
    if m.nrows % 2:
        return m.zero
    cache = {}

    def rec(idx):
        if not idx:
            return m.one
        if idx not in cache:
            total = m.zero
            for pos, j in enumerate(idx[1:]):
                a = m.entry(idx[0], j)
                if a:
                    sub = rec(idx[1:pos + 1] + idx[pos + 2:])
                    total = total - a * sub if pos % 2 else total + a * sub
            cache[idx] = total
        return cache[idx]

    return rec(tuple(range(m.nrows)))


PF_ENTRIES = {
    "int": lambda rng: Scalar(rng.randint(-5, 5)),
    "fraction": lambda rng: Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
    "sqrt2": lambda rng: SCALAR_KINDS["sqrt2"](rng),
    "mpoly": lambda rng: small_mpoly_entry(rng) + rng.randint(-2, 2),
}


def skew_from(rng, n, entry, zero):
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.8:
                rows[i][j] = entry(rng)
                rows[j][i] = -rows[i][j]
    return PolyMatrix(rows) if n else PolyMatrix.zeros(0, 0, zero)


@pytest.mark.parametrize("kind", sorted(PF_ENTRIES))
def test_pfaffian_matches_the_ring_expansion(kind):
    rng = random.Random(211)
    zero = MPoly.zero(ORACLE_VARS) if kind == "mpoly" else Scalar(0)
    for n in range(9 if kind != "mpoly" else 7):
        for _ in range(3):
            m = skew_from(rng, n, PF_ENTRIES[kind], zero)
            got = pfaffian(m)
            assert got == ring_pfaffian(m)
            assert type(got) is type(zero)
            if n == 0:
                assert got == m.one
            if type(got) is Scalar:
                assert all(type(q) is int or q.denominator != 1 for q in (got.r0, got.r1))


@pytest.mark.parametrize("kind", sorted(PF_ENTRIES))
def test_pfaffian_rejects_a_diagonal_entry_and_an_asymmetric_pair(kind):
    rng = random.Random(223)
    zero = MPoly.zero(ORACLE_VARS) if kind == "mpoly" else Scalar(0)
    m = skew_from(rng, 4, PF_ENTRIES[kind], zero)
    one = m.one
    # a nonzero diagonal entry, or one entry of a pair moved off a_ji == -a_ij
    for (i, j), delta in (((1, 1), one), ((2, 0), one), ((0, 3), -one), ((3, 3), one)):
        broken = PolyMatrix([
            [m.entry(r, c) + (delta if (r, c) == (i, j) else zero) for c in range(4)]
            for r in range(4)
        ])
        with pytest.raises(ValueError, match="skew"):
            pfaffian(broken)
    with pytest.raises(ValueError, match="skew"):
        pfaffian(PolyMatrix.zeros(2, 3, zero))


def test_rational_pfaffian_makes_no_scalar_product(monkeypatch):
    # the ring expansion of an 8 x 8 integer pfaffian makes one Scalar
    # product per term of every subset it visits; the raw path makes none
    m = skew_from(random.Random(227), 8, PF_ENTRIES["int"], Scalar(0))
    want = ring_pfaffian(m)
    products = []
    mul = Scalar.__mul__

    def counted(x, y):
        products.append(1)
        return mul(x, y)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    got = pfaffian(m)
    monkeypatch.setattr(Scalar, "__mul__", mul)
    assert products == []
    assert got == want != Scalar(0)


def _recursion_calls():
    rng = random.Random(233)
    det_input = PolyMatrix([[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)])
    pf_input = skew_from(random.Random(229), 6, PF_ENTRIES["int"], Scalar(0))
    weights = {"x": 2, "y": 3, "z": 4}
    return {
        "det_cofactor": lambda: det_cofactor(det_input),
        "pfaffian": lambda: pfaffian(pf_input),
        "weighted_monomials": lambda: list(weighted_monomials(tuple(weights), weights, 12, False)),
    }


@pytest.mark.parametrize("name", ["det_cofactor", "pfaffian", "weighted_monomials"])
def test_recursions_leave_no_reference_cycle(name):
    # a closure that calls itself is a reference cycle per call, which
    # holds the call's state until the next collection; the recursions
    # are module functions, so a call leaves nothing for the collector
    call = _recursion_calls()[name]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(3):
            assert call()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# products summed once per entry, against the term loop
# ---------------------------------------------------------------------------


def sparse_rows(m):
    rows = [{} for _ in range(m.nrows)]
    for i, j, x in m.nonzeros():
        rows[i][j] = x
    return rows


def term_loop_product(a, b):
    """The rows of a * b as a loop over terms sums them: one ring product
    per term and one sum per partial sum, cancelled entries dropped."""
    b_rows = sparse_rows(b)
    out = []
    for arow in sparse_rows(a):
        acc = {}
        for t, x in arow.items():
            for j, y in b_rows[t].items():
                v = acc.get(j)
                acc[j] = x * y if v is None else v + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def assert_product_matches_term_loop(a, b):
    got = a * b
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    assert all(x for _, _, x in got.nonzeros())
    assert sparse_rows(got) == term_loop_product(a, b)
    return got


SCALAR_KINDS = {
    "int": lambda rng: Scalar(rng.randint(-3, 3)),
    "fraction": lambda rng: Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 4))),
    "sqrt2": lambda rng: Scalar(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.choice((0, 0, 1, -1, Fraction(1, 2)))
    ),
}


@pytest.mark.parametrize("kind", sorted(SCALAR_KINDS))
def test_scalar_product_matches_the_term_loop(kind):
    rng = random.Random(83)
    entry = SCALAR_KINDS[kind]
    for _ in range(60):
        n, k, m = (rng.randint(0, 6) for _ in range(3))
        density = rng.choice((0.2, 0.5, 1.0))
        a, b = (
            PolyMatrix.from_entries(r, c, {
                (i, j): entry(rng) for i in range(r) for j in range(c) if rng.random() < density
            })
            for r, c in ((n, k), (k, m))
        )
        got = assert_product_matches_term_loop(a, b)
        for _, _, x in got.nonzeros():
            # stored form: an integral component is an int
            assert all(type(q) is int or q.denominator != 1 for q in (x.r0, x.r1))


def test_scalar_product_drops_entries_that_cancel():
    s = Scalar.sqrt2()
    half = Fraction(1, 2)
    a = PolyMatrix([[1, 1, 0], [s, 1, 0], [0, 0, 0], [half, half, s]])
    b = PolyMatrix([[1, s], [-1, -2], [0, 1]])
    got = assert_product_matches_term_loop(a, b)
    # 1 - 1, sqrt2 * sqrt2 - 2 and the empty third row store nothing
    assert sparse_rows(got) == [
        {1: Scalar(-2, 1)}, {0: Scalar(-1, 1)}, {}, {1: Scalar(-1, Fraction(3, 2))}
    ]
    # 1/2 + 1/2 sums to the int 1, and sqrt2 - sqrt2 to the int 0
    c = PolyMatrix([[half, half, s]]) * PolyMatrix([[1], [1], [0]])
    assert (type(c.entry(0, 0).r0), type(c.entry(0, 0).r1)) == (int, int)


def test_products_of_empty_shapes():
    for n, k, m in ((0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (2, 3, 2)):
        got = assert_product_matches_term_loop(PolyMatrix.zeros(n, k), PolyMatrix.zeros(k, m))
        assert got == PolyMatrix.zeros(n, m)
    x = MPoly.variable("x", ORACLE_VARS)
    got = PolyMatrix.zeros(0, 2) * PolyMatrix([[x, 1], [2, x]])
    assert (got.nrows, got.ncols, got.zero) == (0, 2, MPoly.zero(ORACLE_VARS))


def test_product_of_polynomial_matrices_on_other_variables_raises():
    # the ring zero is taken from the factors, not multiplied, so the
    # variable check must still fire when a factor is all zero
    x = MPoly.variable("x", ("x",))
    y = MPoly.variable("y", ("y",))
    full_x, full_y = PolyMatrix([[x, 1], [2, x]]), PolyMatrix([[y, 1], [2, y]])
    zero_x, zero_y = PolyMatrix.zeros(2, 2, x - x), PolyMatrix.zeros(2, 2, y - y)
    for a, b in ((full_x, full_y), (full_x, zero_y), (zero_x, full_y), (zero_x, zero_y)):
        with pytest.raises(ValueError, match="variable mismatch"):
            a * b
    assert (zero_x * PolyMatrix.identity(2)).zero == x - x
    assert (PolyMatrix.identity(2) * zero_y).zero == y - y


def test_mixed_scalar_and_polynomial_products_match_the_term_loop():
    rng = random.Random(89)
    zero = MPoly.zero(ORACLE_VARS)
    cancelled = 0
    for _ in range(40):
        n, k, m = (rng.randint(0, 4) for _ in range(3))
        s = as_matrix(reference_rows(rng, n, k, small_sqrt2_entry, Scalar(0)), n, k, Scalar(0))
        p = as_matrix(reference_rows(rng, k, m, small_mpoly_entry, zero), k, m, zero)
        q = as_matrix(reference_rows(rng, m, n, small_mpoly_entry, zero), m, n, zero)
        for a, b in ((s, p), (q, s), (p, q)):
            got = assert_product_matches_term_loop(a, b)
            assert got.zero == zero
            cancelled += sum(
                1 for i in range(a.nrows) for j in range(b.ncols)
                if not got.entry(i, j)
                and any(a.entry(i, t) and b.entry(t, j) for t in range(a.ncols))
            )
    assert cancelled


def test_mpoly_dot_is_the_sum_of_products():
    vars = ("x", "y", "z")
    rng = random.Random(97)

    def poly():
        terms = {
            tuple(rng.randint(0, 2) for _ in vars): SCALAR_KINDS["sqrt2"](rng)
            for _ in range(rng.randint(0, 4))
        }
        return MPoly(vars, terms)

    for _ in range(50):
        pairs = [
            (poly(), rng.choice((poly(), SCALAR_KINDS["sqrt2"](rng))))
            for _ in range(rng.randint(0, 5))
        ]
        pairs = [pair if rng.random() < 0.5 else pair[::-1] for pair in pairs]
        assert MPoly.dot(vars, pairs) == term_loop_dot(vars, pairs)
    p, q = poly() + MPoly.variable("x", vars), poly() + 1
    assert MPoly.dot(vars, [(p, q), (-p, q)]).terms == {}
    assert MPoly.dot(vars, [(p, Scalar(2)), (Scalar(-2), p)]).terms == {}
    assert MPoly.dot(vars, [(Scalar(3), Scalar(Fraction(1, 3)))]) == MPoly.constant(1, vars)
    assert MPoly.dot(vars, []) == MPoly.zero(vars)
    other = MPoly.variable("x", ("x", "y"))
    for pairs in ([(other, p)], [(p, other)], [(other, Scalar(1))], [(other, other)]):
        with pytest.raises(ValueError, match="variable mismatch"):
            MPoly.dot(vars, pairs)


DOT_VARS = ("x", "y", "z")


def _dot_operands(rng, kind):
    def poly():
        return MPoly(DOT_VARS, {
            tuple(rng.randint(0, 2) for _ in DOT_VARS): SCALAR_KINDS[kind](rng)
            for _ in range(rng.randint(0, 5))
        })

    constants = (SCALAR_KINDS[kind](rng), rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2))
    pairs = [(poly(), rng.choice((poly(), poly(), *constants))) for _ in range(rng.randint(0, 6))]
    return [pair if rng.random() < 0.5 else pair[::-1] for pair in pairs]


@pytest.mark.parametrize("kind", sorted(SCALAR_KINDS))
def test_mpoly_dot_matches_the_term_loop(kind):
    rng = random.Random(239)
    for _ in range(80):
        pairs = _dot_operands(rng, kind)
        got = MPoly.dot(DOT_VARS, pairs)
        assert got.terms == term_loop_dot(DOT_VARS, pairs).terms
        for c in got.terms.values():
            _assert_stored_form(c)


def test_mpoly_dot_drops_each_component_that_cancels():
    x, y = (MPoly.variable(v, DOT_VARS) for v in "xy")
    s = Scalar.sqrt2()
    half = Fraction(1, 2)
    cases = [
        ([(x, 1 + s), (x, 1 - s)], "2*x"),  # the sqrt2 part cancels across pairs
        ([(x * (1 + s), y * (1 - s))], "-x*y"),  # ... within one product
        ([(x, 1 + s), (x, s - 1)], "(2*sqrt2)*x"),  # the rational part cancels
        ([(x, 1 + s), (-1 - s, x), (y, half), (half, y)], "y"),  # both cancel
        ([(x, Scalar(half, half)), (x, Scalar(half, -half))], "x"),
    ]
    for pairs, text in cases:
        got = MPoly.dot(DOT_VARS, pairs)
        assert got == term_loop_dot(DOT_VARS, pairs) == MPoly.from_text(text, DOT_VARS)
        for c in got.terms.values():
            _assert_stored_form(c)
            assert type(c.r0) is int and type(c.r1) is int


def test_rational_mpoly_dot_makes_no_scalar_arithmetic(monkeypatch):
    pairs = _dot_operands(random.Random(241), "fraction") * 4
    want = term_loop_dot(DOT_VARS, pairs)
    calls = []
    for name in ("__mul__", "__add__"):
        op = getattr(Scalar, name)
        monkeypatch.setattr(Scalar, name, lambda a, b, op=op: calls.append(1) or op(a, b))
    got = MPoly.dot(DOT_VARS, pairs)
    monkeypatch.undo()
    assert calls == []
    assert got == want != MPoly.zero(DOT_VARS)


def _substitution_cases(rng):
    """(poly, mapping) pairs over DOT_VARS: mappings of no, some and all of
    the variables, with images over the same tuple, a superset or a
    reordering, and unmapped variables that occur and ones that do not."""
    def poly(vars, max_exp=3):
        return MPoly(vars, {
            tuple(rng.randint(0, max_exp) for _ in vars): SCALAR_KINDS["sqrt2"](rng)
            for _ in range(rng.randint(0, 5))
        })

    for target in (DOT_VARS, ("w",) + DOT_VARS, DOT_VARS[::-1], ("z", "w", "y", "x")):
        for mapped in ((), ("x",), ("y", "z"), DOT_VARS):
            if not mapped and target != DOT_VARS:
                continue
            p = poly(DOT_VARS)
            for v in DOT_VARS[:rng.randint(0, 3)]:  # some unmapped ones absent
                if v not in mapped:
                    p = p.coefficient_in(v, 0)
            yield p, {v: poly(target, 2) for v in mapped}


def test_mpoly_substitute_matches_the_term_loop():
    rng = random.Random(251)
    cases = 0
    for _ in range(25):
        for p, mapping in _substitution_cases(rng):
            assert p.substitute(mapping) == term_loop_substitute(p, mapping)
            cases += 1
    assert cases == 25 * 13


def test_mpoly_substitute_errors_match_the_term_loop():
    x = MPoly.variable("x", ("x", "y"))
    p = MPoly.from_text("x*y + z", DOT_VARS)
    disagree = {"x": x, "y": MPoly.variable("y", ("y", "x"))}
    for q in (p, p.coefficient_in("z", 0)):  # z unmapped, occurring or not
        for mapping, message in (
            ({"x": x}, r"variable 'z' is not in \('x', 'y'\)"),
            (disagree, "substitution images disagree on variables"),
        ):
            for f in (q.substitute, lambda m: term_loop_substitute(q, m)):
                with pytest.raises(ValueError, match=message):
                    f(mapping)


def test_mpoly_variable_names_an_unknown_variable():
    with pytest.raises(ValueError, match=r"variable 'w' is not in \('x', 'y'\)"):
        MPoly.variable("w", ("x", "y"))


@pytest.mark.parametrize(
    "lookup",
    [
        lambda p: p.degree_in("w"),
        lambda p: p.derivative("w"),
        lambda p: p.coefficient_in("w", 1),
        lambda p: p.as_univariate_in("w"),
        lambda p: p.involves("w"),
    ],
    ids=["degree_in", "derivative", "coefficient_in", "as_univariate_in", "involves"],
)
def test_variable_lookups_name_an_unknown_variable(lookup):
    # the zero polynomial too: the name is looked up before any term is read
    for p in (MPoly.zero(("x",)), MPoly.from_text("x^2 + 3", ("x",))):
        with pytest.raises(ValueError, match=r"^variable 'w' is not in \('x',\)$"):
            lookup(p)


def test_scalar_product_sums_each_entry_once(monkeypatch):
    # the term loop makes one Scalar product per term: 8 * 6 * 8 = 384
    # for 64 entries
    rng = random.Random(101)
    a = PolyMatrix([[rng.randint(1, 9) for _ in range(6)] for _ in range(8)])
    b = PolyMatrix([[rng.randint(1, 9) for _ in range(8)] for _ in range(6)])
    want = term_loop_product(a, b)
    products = []
    mul = Scalar.__mul__

    def counted(x, y):
        products.append(1)
        return mul(x, y)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    got = a * b
    monkeypatch.setattr(Scalar, "__mul__", mul)
    assert sum(len(row) for row in want) == 64
    assert len(products) < 64
    assert sparse_rows(got) == want


# ---------------------------------------------------------------------------
# row reduction against a dense reference
# ---------------------------------------------------------------------------


def dense_rref_reference(matrix):
    """Plain dense Gauss-Jordan over Q(sqrt2): every entry of every touched
    row is updated.  The reduced form is unique, so rref must equal it."""
    rows = [matrix.row(i) for i in range(matrix.nrows)]
    pivots = []
    r = 0
    for c in range(matrix.ncols):
        found = [i for i in range(r, len(rows)) if rows[i][c]]
        if not found:
            continue
        rows[r], rows[found[0]] = rows[found[0]], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return PolyMatrix(rows), pivots


def random_sqrt2_matrix(rng, n, m, density=0.5):
    def entry():
        if rng.random() > density:
            return Scalar(0)
        r1 = rng.choice((0, 0, rng.randint(-2, 2)))
        return Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), r1)

    return PolyMatrix([[entry() for _ in range(m)] for _ in range(n)])


def kernel_test_matrices(seed, count=48):
    """Seeded Q(sqrt2) matrices: tall, wide, with a zero row and a zero
    column, and rank-deficient products, plus fixed edge cases."""
    rng = random.Random(seed)
    out = [
        PolyMatrix([]),
        PolyMatrix([[0, 0, 0], [0, 0, 0]]),
        PolyMatrix([[Scalar(0, 1)]]),
        PolyMatrix([[1, Scalar(0, 1)], [Scalar(0, 1), 2]]),  # rank 1
    ]
    for k in range(count):
        lo, hi = sorted((rng.randint(1, 6), rng.randint(1, 6)))
        kind = k % 4
        if kind == 0:
            a = random_sqrt2_matrix(rng, hi + 2, lo)
        elif kind == 1:
            a = random_sqrt2_matrix(rng, lo, hi + 2)
        elif kind == 2:
            square = random_sqrt2_matrix(rng, hi + 1, hi + 1)
            rows = [square.row(i) for i in range(hi + 1)]
            zi, zj = rng.randrange(hi + 1), rng.randrange(hi + 1)
            rows[zi] = [Scalar(0)] * (hi + 1)
            for row in rows:
                row[zj] = Scalar(0)
            a = PolyMatrix(rows)
        else:
            inner = max(1, lo - 1)
            a = random_sqrt2_matrix(rng, hi + 1, inner, 0.8) * random_sqrt2_matrix(
                rng, inner, hi + 2, 0.8
            )
        out.append(a)
    return out


def column(values):
    return PolyMatrix([[v] for v in values])


def test_rref_matches_dense_reference():
    for a in kernel_test_matrices(seed=31):
        got, pivots = rref(a)
        want, want_pivots = dense_rref_reference(a)
        assert pivots == want_pivots
        assert (got.nrows, got.ncols) == (a.nrows, a.ncols)
        assert got == want
        assert rank(a) == len(pivots)


def first_row_rref(matrix):
    """The earlier sparse Gauss-Jordan, kept as the oracle for rref's pivot
    choice: for each column the first remaining row with an entry there is
    the pivot row, swapped into place.  Returns (rows as dicts, pivots)."""
    rows = [{j: x for j, x in enumerate(matrix.row(i)) if x} for i in range(matrix.nrows)]
    n, pivots, r = len(rows), [], 0
    for c in range(matrix.ncols):
        if r == n:
            break
        pivot_row = next((i for i in range(r, n) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        prow = rows[r] = {j: x * inv for j, x in rows[r].items()}
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            for j, x in prow.items():
                v = row.get(j, Scalar(0)) - f * x
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
        pivots.append(c)
        r += 1
    return rows, pivots


def stored_entries(rows):
    """Every nonzero entry with its text and the types of its stored
    components, so that equal values in another stored form differ."""
    return [
        sorted((j, str(x), type(x.r0), type(x.r1)) for j, x in row.items()) for row in rows
    ]


def assert_rref_matches_first_row_oracle(a):
    got, pivots = rref(a)
    want, want_pivots = first_row_rref(a)
    assert pivots == want_pivots
    assert (got.nrows, got.ncols) == (a.nrows, a.ncols)
    got_rows = [{j: x for j, x in enumerate(got.row(i)) if x} for i in range(got.nrows)]
    assert stored_entries(got_rows) == stored_entries(want)
    return pivots


def sparse_test_matrices(seed, sqrt2, count=24):
    """Seeded sparse matrices: tall, wide, square rank-deficient (six rows
    that are combinations of other rows, shuffled in) and zero matrices;
    rows of large coprime denominators, and rows whose content stays above
    1 after an elimination step."""
    rng = random.Random(seed)

    def entry():
        r1 = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if sqrt2 and rng.random() < 0.4 else 0
        return Scalar(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4)), r1)

    def sparse(n, m, density):
        return [
            [entry() if rng.random() < density else Scalar(0) for _ in range(m)]
            for _ in range(n)
        ]

    def large_denominators(n, m):
        # each entry over its own large prime: the lcm of a row's
        # denominators is their product
        primes = (p for p in itertools.count(10**6 + 1, 2)
                  if all(p % q for q in range(3, math.isqrt(p) + 1, 2)))
        return [
            [
                Scalar(Fraction(rng.randint(-9, 9) or 1, next(primes)),
                       Fraction(rng.randint(1, 9), next(primes)) if sqrt2 and rng.random() < 0.4 else 0)
                if rng.random() < 0.5 else Scalar(0)
                for _ in range(m)
            ]
            for _ in range(n)
        ]

    def content_after_a_step(n, m):
        # rows p + k v with v zero in p's first column: clearing that
        # column leaves k v, of content at least k
        p = [Scalar(1)] + [entry() for _ in range(m - 1)]
        rows = []
        for _ in range(n):
            v = [Scalar(0)] + [Scalar(rng.randint(-4, 4), rng.randint(-2, 2) if sqrt2 else 0)
                               for _ in range(m - 1)]
            k = rng.choice((2, 3, 6, 30))
            rows.append([x + k * y for x, y in zip(p, v)])
        return rows

    out = [PolyMatrix.zeros(7, 5), PolyMatrix.zeros(3, 9)]
    out += [PolyMatrix(large_denominators(6, 8)), PolyMatrix(large_denominators(9, 5))]
    out += [PolyMatrix(content_after_a_step(5, 7)), PolyMatrix(content_after_a_step(8, 4))]
    for k in range(count):
        small, large = rng.randint(3, 10), rng.randint(12, 24)
        kind = k % 3
        if kind == 0:
            rows = sparse(large, small, 0.25)
        elif kind == 1:
            rows = sparse(small, large, 0.25)
        else:
            rows = sparse(large - 6, large, 0.12)
            for _ in range(6):
                p, q = rng.sample(range(len(rows)), 2)
                c = entry()
                rows.append([x + c * y for x, y in zip(rows[p], rows[q])])
            rng.shuffle(rows)
        out.append(PolyMatrix(rows))
    return out


@pytest.mark.parametrize("sqrt2", [False, True], ids=["Q", "Q(sqrt2)"])
def test_rref_matches_the_first_row_oracle_on_sparse_matrices(sqrt2):
    deficient = 0
    for a in sparse_test_matrices(71 + sqrt2, sqrt2):
        pivots = assert_rref_matches_first_row_oracle(a)
        deficient += len(pivots) < min(a.nrows, a.ncols)
    assert deficient >= 8


def test_rref_on_the_inconsistent_z1_squared_system(monkeypatch):
    # z1^2 is not in the Jacobian ideal of the g2 slice hypersurface: the
    # b column of the augmented system is a pivot column
    from exactlie import g2

    f = g2.example_f()
    partials = [f.derivative(v) for v in g2.VARS7]
    weights = {v: g2.SLICE_DEGREES[v] for v in g2.VARS7}
    z1 = g2.slice_relations(g2.VARS7)["z1"]
    seen = []
    inner = polymat.rref

    def recorded(matrix):
        seen.append(matrix)
        return inner(matrix)

    monkeypatch.setattr(polymat, "rref", recorded)
    assert ideal_membership_bounded(z1 * z1, partials, weights, 6) is None
    (augmented,) = seen
    monkeypatch.setattr(polymat, "rref", inner)
    assert augmented.ncols - 1 in assert_rref_matches_first_row_oracle(augmented)


def recorded_rref_inputs(monkeypatch, run):
    """Every matrix that run() passes to polymat.rref."""
    seen = []
    inner = polymat.rref

    def recorded(matrix):
        seen.append(matrix)
        return inner(matrix)

    monkeypatch.setattr(polymat, "rref", recorded)
    run()
    monkeypatch.setattr(polymat, "rref", inner)
    return seen


def test_rref_on_the_benchmark_systems(monkeypatch):
    # every system of an ideal-membership benchmark pass at seeds 1 and 2,
    # and of the reverse singular-locus certificates, against the oracle
    from exactlie import g2

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    for seed in (1, 2):
        members = workloads.make_inputs("ideal-membership", seed)
        outcomes = {}
        seen = recorded_rref_inputs(
            monkeypatch, lambda: workloads.run_ideal_membership(members, outcomes)
        )
        assert sorted(outcomes) == sorted(workloads.outcome_names("ideal-membership"))
        assert all(outcomes.values())
        assert len(seen) == 11
        for a in seen:
            assert_rref_matches_first_row_oracle(a)

    f = g2.example_f()
    partials = [f.derivative(v) for v in g2.VARS7]
    weights = {v: g2.SLICE_DEGREES[v] for v in g2.VARS7}
    rel = g2.slice_relations(g2.VARS7)
    least = min(p.quasi_homogeneous_degree(weights) for p in partials)

    def reverse_memberships():
        for name in ("t1", "t2", "t3", "z1", "z2"):
            for power, member in ((3, True), (2, False)):
                target = rel[name] ** power
                bound = target.quasi_homogeneous_degree(weights) - least
                cert = ideal_membership_bounded(target, partials, weights, bound)
                assert (cert is not None) == member

    seen = recorded_rref_inputs(monkeypatch, reverse_memberships)
    assert len(seen) == 10
    for a in seen:
        assert_rref_matches_first_row_oracle(a)


def arrowhead_entries(n):
    """A dense first row, and a first-column and a diagonal entry in every
    other row."""
    entries = {(0, j): j + 1 for j in range(n)}
    for i in range(1, n):
        entries[(i, 0)] = 1
        entries[(i, i)] = i + 2
    return entries


def test_rref_pivot_choice_avoids_arrowhead_fill_in(monkeypatch):
    # taking row 0 as the first pivot row fills in every row, about n^3 / 2
    # entries; a sparsest-row pivot keeps every row but row 0 at two
    # entries.  Clearing an entry takes one gcd(pivot, entry), and then one
    # gcd of all the entries of its row, so the summed gcd arguments count
    # the entries the elimination touches: 3,828 here, and 14,790 when the
    # first row holding the column is the pivot row.
    n = 30
    a = PolyMatrix.from_entries(n, n, arrowhead_entries(n))
    touched = []

    def counted(*args):
        touched.append(len(args))
        return math.gcd(*args)

    monkeypatch.setattr(polymat, "gcd", counted)
    got, pivots = rref(a)
    assert sum(touched) < 6 * n * n
    monkeypatch.undo()
    assert pivots == list(range(n))
    assert got == PolyMatrix.identity(n)
    assert_rref_matches_first_row_oracle(a)


def test_rref_of_an_integer_matrix_runs_on_ints(monkeypatch):
    # a rational matrix is eliminated on raw ints, and a Q(sqrt2) matrix on
    # the raw ints of its regular representation: no Scalar product and no
    # Scalar inverse
    n = 30
    entries = arrowhead_entries(n)
    integral = PolyMatrix.from_entries(n, n, entries)
    sqrt2 = PolyMatrix.from_entries(n, n, {**entries, (1, 1): Scalar(3, 1)})

    def forbidden(*args):
        raise AssertionError("Scalar arithmetic inside rref")

    for a in (integral, sqrt2):
        monkeypatch.setattr(Scalar, "__mul__", forbidden)
        monkeypatch.setattr(Scalar, "inverse", forbidden)
        got, pivots = rref(a)
        monkeypatch.undo()
        assert pivots == list(range(n))
        assert got == PolyMatrix.identity(n)


def test_solve_linear_reads_kernel_from_one_elimination(monkeypatch):
    calls = []
    inner = polymat.rref

    def counted(matrix):
        calls.append(matrix.ncols)
        return inner(matrix)

    monkeypatch.setattr(polymat, "rref", counted)
    rng = random.Random(37)
    for a in kernel_test_matrices(seed=37):
        if not a.nrows:
            continue
        x = [Scalar(rng.randint(-3, 3), rng.choice((0, 1))) for _ in range(a.ncols)]
        b = [(a * column(x)).entry(i, 0) for i in range(a.nrows)]
        kernel = nullspace(a)
        _, pivots = rref(a)
        calls.clear()
        sol = solve_linear(a, b)
        assert calls == [a.ncols + 1]  # one rref, of [A | b]
        assert sol is not None
        assert a * column(sol) == column(b)
        # the particular solution: every free coordinate is zero
        assert all(not sol[c] for c in range(a.ncols) if c not in pivots)
        for v in kernel:
            assert (a * column(v)).is_zero()
        assert len(kernel) == a.ncols - rank(a)


def test_solve_linear_inconsistent_returns_none():
    inconsistent = 0
    for a in kernel_test_matrices(seed=41):
        if not a.nrows:
            continue
        # y in the left kernel is outside the column space: A x = y would
        # give y.y = y.(A x) = 0, but y.y > 0 for real y != 0
        for y in nullspace(a.transpose())[:1]:
            assert solve_linear(a, y) is None
            inconsistent += 1
    assert inconsistent > 20


def test_invert_random_invertible():
    rng = random.Random(43)
    for n in range(1, 7):
        # unit lower times upper with nonzero diagonal: invertible by
        # construction, and generally dense
        lower = [[Scalar(1) if i == j else Scalar(0) for j in range(n)] for i in range(n)]
        upper = [[Scalar(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                value = Scalar(rng.randint(-3, 3), rng.choice((0, 0, 1, -1)))
                if j < i:
                    lower[i][j] = value
                elif j > i:
                    upper[i][j] = value
            upper[i][i] = Scalar(rng.choice((1, 2, -3)), rng.choice((0, 1)))
        a = PolyMatrix(lower) * PolyMatrix(upper)
        inv = invert(a)
        assert a * inv == PolyMatrix.identity(n)
        assert inv * a == PolyMatrix.identity(n)
    with pytest.raises(ValueError):
        invert(PolyMatrix([[1, Scalar(0, 1)], [Scalar(0, 1), 2]]))


def test_rref_agrees_with_sympy_on_rational_matrices():
    sympy = pytest.importorskip("sympy")
    for a in kernel_test_matrices(seed=47):
        if not a.nrows:
            continue
        rational = a.map_entries(lambda x: Scalar(x.r0))
        got, pivots = rref(rational)
        theirs, their_pivots = sympy.Matrix(
            a.nrows, a.ncols,
            lambda i, j: sympy.Rational(
                rational.entry(i, j).r0.numerator, rational.entry(i, j).r0.denominator
            ),
        ).rref()
        assert tuple(pivots) == their_pivots
        for i in range(a.nrows):
            for j in range(a.ncols):
                q = theirs[i, j]
                assert got.entry(i, j) == Scalar(Fraction(int(q.p), int(q.q)))


def test_rref_agrees_with_sympy_over_q_sqrt2():
    # the regular-representation path against sympy's own elimination over
    # the number field Q(sqrt2)
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.QQ.algebraic_field(sympy.sqrt(2))
    # the field's generator is sqrt2 itself, so an element is stored as its
    # coefficients [r1, r0] in the basis sqrt2, 1, leading zeros dropped
    assert field.to_sympy(field.new([sympy.QQ(1), sympy.QQ(0)])) == sympy.sqrt(2)

    def to_field(x):
        return field.new([sympy.QQ(x.r1), sympy.QQ(x.r0)])

    def from_field(x):
        coefficients = [Fraction(int(q.numerator), int(q.denominator)) for q in x.to_list()]
        return Scalar(*(coefficients[::-1] + [0, 0])[:2])

    sqrt2_matrices = 0
    for a in kernel_test_matrices(seed=47):
        if not a.nrows:
            continue
        sqrt2_matrices += any(x.r1 for _, _, x in a.nonzeros())
        got, pivots = rref(a)
        theirs, their_pivots = DomainMatrix(
            [[to_field(x) for x in a.row(i)] for i in range(a.nrows)], (a.nrows, a.ncols), field
        ).rref()
        assert tuple(pivots) == tuple(their_pivots)
        rows = theirs.to_list()
        for i in range(a.nrows):
            for j in range(a.ncols):
                assert got.entry(i, j) == from_field(rows[i][j])
    assert sqrt2_matrices > 30


# ---------------------------------------------------------------------------
# elimination and membership
# ---------------------------------------------------------------------------


def test_eliminate_triangular_two_step():
    vars = ("t1", "t2", "x")
    eqs = [
        _poly("t1 - x^2", vars),
        _poly("t2 + t1*x - 1", vars),
        _poly("t2 + t1", vars),
    ]
    subs, residuals = eliminate_triangular(eqs, ["t1", "t2"])
    assert subs["t1"] == _poly("x^2", vars)
    assert subs["t2"] == _poly("1 - x^3", vars)
    assert residuals == [_poly("1 - x^3 + x^2", vars)]


def test_eliminate_triangular_rejects_nonlinear():
    vars = ("t1", "x")
    with pytest.raises(ValueError):
        eliminate_triangular([_poly("t1^2 - x", vars)], ["t1"])
    with pytest.raises(ValueError):
        eliminate_triangular([_poly("x*t1 - 1", vars)], ["t1"])


def test_weighted_monomials_counts():
    vars = ("x", "y")
    w = {"x": 2, "y": 3}
    exact5 = list(weighted_monomials(vars, w, 5, exact=True))
    assert exact5 == [(1, 1)]
    upto6 = set(weighted_monomials(vars, w, 6, exact=False))
    assert upto6 == {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2)}


def test_ideal_membership_found_and_not_found():
    vars = ("x", "y")
    w = {"x": 1, "y": 1}
    g1 = _poly("x^2 + y", vars)
    g2 = _poly("y^2", vars)
    target = _poly("x^3 + x*y + y^2", vars)
    cert = ideal_membership_bounded(target, [g1, g2], w, bound=2)
    assert cert is not None
    recombined = cert.cofactors[0] * g1 + cert.cofactors[1] * g2
    assert recombined == target
    # x is not in (x^2, x*y) at any bound; the bounded search returns None
    missing = ideal_membership_bounded(
        _poly("x", vars), [_poly("x^2", vars), _poly("x*y", vars)], w, bound=4
    )
    assert missing is None


def test_stacked_blocks_share_the_ring_of_all_blocks():
    # a Scalar block first and a polynomial one after: the matrix is a
    # polynomial matrix with constant polynomials for the Scalar entries
    t = MPoly.variable("t", ("t",))
    one, t_block = PolyMatrix([[1]]), PolyMatrix([[t]])
    diag = PolyMatrix.block_diag([one, t_block])
    assert diag == PolyMatrix([[1, 0], [0, t]])
    assert determinant(diag) == t
    assert all(type(x) is MPoly for _, _, x in diag.nonzeros())
    assert PolyMatrix.block_diag([t_block, one]) == PolyMatrix([[t, 0], [0, 1]])
    assert PolyMatrix.block_diag([one, one]) == PolyMatrix.identity(2)
    stacked = PolyMatrix.vstack(PolyMatrix([[1, 0]]), PolyMatrix([[0, t]]))
    assert stacked == diag
    assert all(type(x) is MPoly for _, _, x in stacked.nonzeros())
