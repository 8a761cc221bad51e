"""Tests for the slice invariant pipeline: restricted characteristic
polynomials, elimination down to the hypersurface equation, the closed
forms, the factorization and the normalization step."""

import math

import pytest

from exactlie.liealg import hook_slice, jm_triple, slodowy_slice
from exactlie.mpoly import MPoly
from exactlie.polymat import determinant
from exactlie.slicegeom import (
    HOOK_VARS,
    LAMBDA,
    derived_hook_f,
    expected_hook_f,
    hook_factorization,
    hook_normal_form,
    hook_pipeline,
    normalize_to_hook_form,
    restrict_invariants,
    slice_matrix,
)
from sympy_oracle import sympy_charpoly_coefficients, to_sympy


def hook_poly(text: str, extra=()) -> MPoly:
    return MPoly.from_text(text, tuple(extra) + HOOK_VARS)


def test_n2_charpoly_hand_oracle():
    # chi_s for the smallest hook: a^2x + 2aby + b^2z + (lam^2 + xz - y^2)(lam^2 - t1)
    inv = restrict_invariants(hook_slice(2))
    v = inv.vars
    assert v == (LAMBDA, "t1", "a", "b", "x", "y", "z")
    lam, t1, a, b, x, y, z = (MPoly.variable(s, v) for s in v)
    want = a * a * x + 2 * a * b * y + b * b * z + (lam ** 2 + x * z - y * y) * (
        lam ** 2 - t1
    )
    assert inv.charpoly == want


def test_charpoly_is_even_in_lambda():
    for n in (2, 3):
        inv = restrict_invariants(hook_slice(n))
        lam_slot = inv.vars.index(LAMBDA)
        assert all(e[lam_slot] % 2 == 0 for e in inv.charpoly.terms)


def test_pipeline_matches_derived_form():
    for n in (2, 3, 4):
        assert hook_pipeline(n).f == derived_hook_f(n)


def test_expected_agrees_with_derived_exactly_for_even_n():
    for n in (2, 3, 4, 5):
        same = expected_hook_f(n) == derived_hook_f(n)
        assert same == (n % 2 == 0)


def test_derived_f_quasi_homogeneous():
    for n in (2, 3, 4):
        weights = {"a": 2 * n - 1, "b": 2 * n - 1, "x": 2, "y": 2, "z": 2}
        assert derived_hook_f(n).quasi_homogeneous_degree(weights) == 4 * n
        assert hook_pipeline(n).f.quasi_homogeneous_degree(weights) == 4 * n


def test_elimination_substitutions():
    hyp = hook_pipeline(3)
    assert set(hyp.eliminations) == {"t1", "t2"}
    # t_j eliminates to a weighted degree 4j piece in the slice variables
    weights = {LAMBDA: 1, "t1": 4, "t2": 8, "a": 5, "b": 5, "x": 2, "y": 2, "z": 2}
    assert hyp.eliminations["t1"].quasi_homogeneous_degree(weights) == 4
    assert hyp.eliminations["t2"].quasi_homogeneous_degree(weights) == 8


def test_factorization_reconstructs_charpoly():
    for n in (2, 3):
        quotient, long_cp = hook_factorization(n)
        assert quotient == long_cp
        inv = restrict_invariants(hook_slice(n))
        v = inv.vars
        lam = MPoly.variable(LAMBDA, v)
        a, b, x, y, z = (MPoly.variable(s, v) for s in HOOK_VARS)
        k = math.factorial(2 * n - 3)
        recon = quotient * (lam ** 2 + x * z - y * y) + k * (
            a * a * x + 2 * a * b * y + b * b * z
        )
        assert recon == inv.charpoly


def test_derive_hypersurface_from_invariants():
    hyp = hook_pipeline(2)
    assert hyp.n == 2
    assert hyp.invariants.charpoly == restrict_invariants(hook_slice(2)).charpoly
    assert hyp.f == hook_poly("a^2*x + 2*a*b*y + b^2*z - x^2*z^2 + 2*x*y^2*z - y^4")


def test_normalize_derived_forms():
    for n in (2, 3, 4):
        norm = normalize_to_hook_form(derived_hook_f(n), n)
        assert norm.image == hook_normal_form(n)
        # unit flips sign exactly when the bracket term came out negative
        assert norm.unit == (1 if n % 2 else -1)


def test_normalize_absorbs_scaling():
    f = derived_hook_f(3) * 7
    norm = normalize_to_hook_form(f, 3)
    assert norm.image == hook_normal_form(3)


def test_normalize_rejects_obstructed_cross_term():
    f = hook_poly("a^2*x + 4*a*b*y + b^2*z + x^2*z^2 - 2*x*y^2*z + y^4")
    with pytest.raises(ValueError):
        normalize_to_hook_form(f, 2)


def test_normalize_rejects_missing_template_term():
    f = hook_poly("2*a*b*y + b^2*z + x^2*z^2 - 2*x*y^2*z + y^4")
    with pytest.raises(ValueError):
        normalize_to_hook_form(f, 2)


def test_orthogonal_slice_carries_pfaffian():
    chart = slodowy_slice(jm_triple("so", [3, 1]))
    inv = restrict_invariants(chart)
    assert inv.pfaffian is not None
    g = chart.model.form.map_entries(
        lambda c: MPoly.constant(c, inv.vars)
    )
    s = slice_matrix(chart, inv.vars)
    assert inv.pfaffian * inv.pfaffian == determinant(g * s)


def test_symplectic_slice_has_no_pfaffian():
    inv = restrict_invariants(hook_slice(2))
    assert inv.pfaffian is None



def test_sympy_crosscheck_of_hook_elimination():
    # independent oracle: sympy's own characteristic polynomial of the
    # slice matrix (over Q[slice coordinates]) and its own solve for the
    # t's must give the derived sign, not the printed one
    sympy = pytest.importorskip("sympy")
    for n in range(2, 7):
        inv = restrict_invariants(hook_slice(n))
        symbols = {name: sympy.Symbol(name) for name in inv.vars if name != LAMBDA}
        # det(lam I - s) = sum_k cp[k] lam^(2n-k)
        cp = sympy_charpoly_coefficients(inv.matrix, symbols)
        ts = [symbols[f"t{j}"] for j in range(1, n)]
        middle = [cp[2 * i] for i in range(1, n)]
        (solution,) = sympy.solve(middle, ts, dict=True)
        f = sympy.expand(cp[2 * n].subs(solution))
        assert f == to_sympy(derived_hook_f(n), symbols)
        if n == 3:
            assert f != to_sympy(expected_hook_f(n), symbols)


@pytest.mark.parametrize("n", [6, 7])
def test_hook_pipeline_gives_derived_form_at_large_n(n):
    assert hook_pipeline(n).f == derived_hook_f(n)
