"""Characteristic polynomials restricted to slices, and the hypersurface
models they produce.

The pipeline for the symplectic hook family (Jordan type (2n-2, 1, 1) in
sp_2n) is: form the generic slice element s = x + sum c_k V_k, take
det(lam I - s), kill the intermediate lambda-coefficients by solving for
the t-coordinates (each enters linearly with a constant coefficient, so the
elimination is triangular and exact), and read off the constant coefficient
as the defining equation f of the slice singularity.  slice_matrix forms
the slice element of any chart, g2's included.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

from .elim import eliminate_triangular
from .liealg import SliceChart, chain_block, hook_slice
from .mpoly import MPoly, divide_by_monic_in_var
from .polymat import PolyMatrix, charpoly, linear_combination, pfaffian
from .scalar import Scalar

LAMBDA = "lam"
HOOK_VARS = ("a", "b", "x", "y", "z")

# Largest rank n the slice report accepts.  In-process, one report (cold
# caches) took 0.2-0.3 s of CPU time at n = 12, 1.3-1.5 s at n = 16,
# 2.1-2.6 s at n = 18 and 4.8 s at n = 20 on a shared 2-core x86-64
# virtual machine, about doubling per step of 2.  The pipeline itself has
# no limit.
MAX_RANK = 20


class SliceInvariants(NamedTuple):
    chart: SliceChart
    vars: Tuple[str, ...]
    matrix: PolyMatrix  # MPoly entries
    charpoly: MPoly
    pfaffian: Optional[MPoly]  # only for orthogonal algebras


def slice_matrix(chart: SliceChart, vars: Tuple[str, ...]) -> PolyMatrix:
    """The generic slice element x + sum c_k V_k as a polynomial matrix in
    vars, which name every chart coordinate."""
    x = chart.model.triple.x
    coeffs = [MPoly.constant(1, vars)] + [MPoly.variable(n, vars) for n in chart.names]
    return linear_combination(coeffs, [x, *chart.vectors], x.nrows, x.ncols)


def restrict_invariants(chart: SliceChart) -> SliceInvariants:
    """Characteristic polynomial (and pfaffian, if orthogonal) of the
    generic slice element."""
    vars = (LAMBDA,) + chart.names
    s = slice_matrix(chart, vars)
    cp = charpoly(s, LAMBDA)
    pf = None
    if chart.model.family == "so":
        g = chart.model.form.map_entries(lambda c: MPoly.constant(c, vars))
        pf = pfaffian(g * s)
    return SliceInvariants(chart, vars, s, cp, pf)


class HookHypersurface(NamedTuple):
    n: int
    invariants: SliceInvariants
    eliminations: Dict[str, MPoly]
    f: MPoly  # over HOOK_VARS


def expected_hook_f(n: int) -> MPoly:
    """Reference closed form (2n-3)! (a^2x + 2aby + b^2z) - (xz - y^2)^n.

    Caution: the actual derivation output is derived_hook_f(n), which
    carries (-1)^(n-1) on the bracket term; this fixed-minus form agrees
    with it for even n only.  Both are kept so the discrepancy is visible
    rather than silently patched.
    """
    v = HOOK_VARS
    a, b, x, y, z = (MPoly.variable(s, v) for s in v)
    k = math.factorial(2 * n - 3)
    return k * (a * a * x + 2 * a * b * y + b * b * z) - (x * z - y * y) ** n


def derived_hook_f(n: int) -> MPoly:
    """(2n-3)! (a^2x + 2aby + b^2z) + (-1)^(n-1) (xz - y^2)^n.

    This is what the elimination actually produces: with chi_s = K +
    (lam^2 + c) chi_s' and chi_s' = lam^(2n-2) + sum d_i lam^(2n-2-2i),
    zeroing the middle coefficients forces d_i = (-c)^i, so the constant
    term is K + (-1)^(n-1) c^n.
    """
    v = HOOK_VARS
    a, b, x, y, z = (MPoly.variable(s, v) for s in v)
    k = math.factorial(2 * n - 3)
    sign = 1 if n % 2 else -1
    return k * (a * a * x + 2 * a * b * y + b * b * z) + sign * (x * z - y * y) ** n


def hook_normal_form(n: int) -> MPoly:
    """a^2 x + 2 a b y + b^2 z + (x z - y^2)^n, the target normal shape."""
    v = HOOK_VARS
    a, b, x, y, z = (MPoly.variable(s, v) for s in v)
    return a * a * x + 2 * a * b * y + b * b * z + (x * z - y * y) ** n


@lru_cache(maxsize=1)
def hook_pipeline(n: int) -> HookHypersurface:
    """Eliminate the t-coordinates from the restricted characteristic
    polynomial of the hook slice at n and return the defining equation of
    the slice.  The last result is kept, so the checks and
    hook_factorization(n) share one slice and one elimination."""
    inv = restrict_invariants(hook_slice(n))
    t_names = inv.chart.names[:n - 1]
    cp = inv.charpoly
    equations = [cp.coefficient_in(LAMBDA, 2 * n - 2 * i) for i in range(1, n)]
    subs, _ = eliminate_triangular(equations, t_names)
    constant = cp.coefficient_in(LAMBDA, 0).substitute(subs)
    f = constant.with_vars(HOOK_VARS)
    return HookHypersurface(n=n, invariants=inv, eliminations=subs, f=f)


def hook_factorization(n: int) -> Tuple[MPoly, MPoly]:
    """chi_s minus its constant hook part factors through lam^2 + xz - y^2;
    the cofactor is the characteristic polynomial of the long-block slice.
    Returns (quotient, long_block_charpoly) after verifying both facts."""
    inv = hook_pipeline(n).invariants
    vars = inv.vars
    a, b, x, y, z = (MPoly.variable(s, vars) for s in HOOK_VARS)
    k = math.factorial(2 * n - 3)
    numerator = inv.charpoly - k * (a * a * x + 2 * a * b * y + b * b * z)
    divisor = (
        MPoly.variable(LAMBDA, vars) ** 2 + x * z - y * y
    )
    quotient, remainder = divide_by_monic_in_var(numerator, divisor, LAMBDA)
    if not remainder.is_zero():
        raise AssertionError("hook factorization leaves a remainder")

    # independent model: regular slice of the long block alone
    m = 2 * n - 2
    xb, yb, _ = chain_block(m)
    small_vars = (LAMBDA,) + tuple(f"t{j}" for j in range(1, n))
    long_block = xb.map_entries(lambda c: MPoly.constant(c, small_vars))
    for j in range(1, n):
        tvar = MPoly.variable(f"t{j}", small_vars)
        long_block = long_block + (yb ** (2 * j - 1)).scale(tvar / math.factorial(2 * j - 1))
    long_cp = charpoly(long_block, LAMBDA).with_vars(vars)
    if quotient != long_cp:
        raise AssertionError("quotient is not the long-block characteristic polynomial")
    return quotient, long_cp


class Normalization(NamedTuple):
    mapping: Dict[str, MPoly]
    unit: Scalar
    image: MPoly


def normalize_to_hook_form(f: MPoly, n: int) -> Normalization:
    """Diagonal substitution plus an overall unit carrying f onto
    hook_normal_form(n).

    f must have the template shape K_a a^2x + 2K_ab aby + K_b b^2z
    - E (xz - tau y^2)^n.  A pure rescaling cannot flip the sign of the
    bracket term over Q when n is even, hence the explicit unit in the
    result: image = unit * f(mapping).  Raises ValueError when f is not in
    the diagonal orbit of the normal form (obstruction K_a K_b tau !=
    K_ab^2, or degenerate coefficients).
    """
    v = HOOK_VARS
    f = f.with_vars(v)

    def coef(ea, eb, ex, ey, ez) -> Scalar:
        return f.coefficient((ea, eb, ex, ey, ez))

    k_a = coef(2, 0, 1, 0, 0)
    k_ab = coef(1, 1, 0, 1, 0) / 2
    k_b = coef(0, 2, 0, 0, 1)
    if not k_a or not k_ab or not k_b:
        raise ValueError("f lacks one of the hook template terms")
    a, b, x, y, z = (MPoly.variable(s, v) for s in v)
    rest = f - (k_a * a * a * x + 2 * k_ab * a * b * y + k_b * b * b * z)
    e_minus = rest.coefficient(tuple(0 if s != "x" and s != "z" else n for s in v))
    e = -e_minus
    if not e:
        raise ValueError("f lacks the (xz)^n term")
    tau_coef = rest.coefficient((0, 0, n - 1, 2, n - 1))
    # (xz - tau y^2)^n contributes -E * n * (-tau) to x^(n-1) y^2 z^(n-1)
    tau = tau_coef / (e * n)
    if rest != -e * (x * z - tau * y * y) ** n:
        raise ValueError("f is not of the hook template shape")
    if k_a * k_b * tau != k_ab * k_ab:
        raise ValueError("obstructed: K_a K_b tau != K_ab^2")
    unit = -(e * tau ** n).inverse()
    lam_x = -(e * tau ** n) / k_a
    lam_b = -(e * tau ** n) / k_ab
    lam_z = tau / lam_x
    mapping = {
        "x": x * lam_x,
        "b": b * lam_b,
        "z": z * lam_z,
    }
    image = f.substitute(mapping) * unit
    if image != hook_normal_form(n):
        raise AssertionError("normalization failed to reach the normal form")
    return Normalization(mapping=mapping, unit=unit, image=image)
