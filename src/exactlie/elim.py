"""Triangular elimination and bounded ideal membership.

Both routines return values rather than raising on a negative outcome:
an inconsistent or non-triangular system is a caller error (exception),
but "no certificate at this degree bound" is an answer.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .mpoly import MPoly, _pack
from .polymat import PolyMatrix, solve_linear
from .scalar import Scalar


def eliminate_triangular(
    equations: Sequence[MPoly], solve_vars: Sequence[str]
) -> Tuple[Dict[str, MPoly], List[MPoly]]:
    """Solve equations[i] = 0 for solve_vars[i], i in order, by linear
    substitution.

    After substituting the variables already solved, equation i must be
    linear in solve_vars[i] with a nonzero *constant* leading coefficient;
    otherwise a ValueError names the offending equation.  Returns the
    substitution dict (fully back-substituted, no solve_vars remain on the
    right-hand sides) and the residual equations beyond the solved ones,
    with all substitutions applied.
    """
    if len(equations) < len(solve_vars):
        raise ValueError("fewer equations than variables to solve for")
    subs: Dict[str, MPoly] = {}
    for i, var in enumerate(solve_vars):
        eq = equations[i].substitute(subs) if subs else equations[i]
        by_power = eq.as_univariate_in(var)
        deg = max(by_power) if by_power else 0
        if deg > 1:
            raise ValueError(f"equation {i} is not linear in {var}")
        if 1 not in by_power or not by_power[1]:
            raise ValueError(f"equation {i} does not involve {var}")
        lead = by_power[1]
        if not lead.is_constant():
            raise ValueError(
                f"equation {i} has a non-constant coefficient on {var}"
            )
        rhs = -by_power.get(0, MPoly.zero(eq.vars)) / lead.constant_value()
        if rhs.involves(var):
            raise ValueError(f"equation {i} is circular in {var}")
        subs[var] = rhs
    # rhs entries may mention later solve_vars; resolve backwards
    for var in reversed(list(solve_vars)):
        expr = subs[var].substitute(subs)
        if any(expr.involves(v) for v in solve_vars):
            raise ValueError(f"elimination is not triangular at {var}")
        subs[var] = expr
    residuals = [eq.substitute(subs) for eq in equations[len(solve_vars):]]
    return subs, residuals


class MembershipCertificate(NamedTuple):
    """target = sum(cofactors[i] * generators[i]), checked on creation."""

    cofactors: List[MPoly]
    bound: int


def weighted_monomials(
    vars: Tuple[str, ...], weights: Dict[str, int], degree: int, exact: bool
) -> Iterator[Tuple[int, ...]]:
    """All exponent tuples with weighted degree == degree (exact) or
    <= degree, in a fixed deterministic order."""
    yield from _monomials_from([weights[v] for v in vars], 0, degree, exact)


def _monomials_from(
    w: Sequence[int], i: int, remaining: int, exact: bool
) -> Iterator[Tuple[int, ...]]:
    """Exponents of the variables from i on with weights w[i:], of weighted
    degree == remaining (exact) or <= remaining.  A module function, not a
    closure that calls itself: that closure would be a reference cycle
    per call, kept alive until the next garbage collection."""
    if i == len(w):
        if remaining == 0 or not exact:
            yield ()
        return
    step = w[i]
    k = 0
    while k * step <= remaining:
        for rest in _monomials_from(w, i + 1, remaining - k * step, exact):
            yield (k,) + rest
        k += 1


def ideal_membership_bounded(
    target: MPoly,
    generators: Sequence[MPoly],
    weights: Dict[str, int],
    bound: int,
) -> Optional[MembershipCertificate]:
    """Search for cofactors q_i of weighted degree <= bound with
    target = sum q_i * g_i, by linear algebra on monomial coefficients.

    When target and every generator are quasi-homogeneous the ansatz is cut
    down to the single graded piece that can contribute, which keeps the
    linear systems small.  Returns None when no certificate exists within
    the bound; that is a value the caller may act on (e.g. retry larger).
    """
    vars = target.vars
    if target.is_zero():
        return MembershipCertificate(
            cofactors=[MPoly.zero(vars) for _ in generators], bound=bound
        )
    target_deg = target.quasi_homogeneous_degree(weights)
    gen_degs = [g.quasi_homogeneous_degree(weights) for g in generators]
    graded = target_deg is not None and all(
        d is not None for g, d in zip(generators, gen_degs) if g
    )

    columns: List[Tuple[int, Tuple[int, ...]]] = []
    for gi, g in enumerate(generators):
        if g.is_zero():
            continue
        if graded:
            need = target_deg - gen_degs[gi]
            if need < 0 or need > bound:
                continue
            monos = list(weighted_monomials(vars, weights, need, exact=True))
        else:
            monos = list(weighted_monomials(vars, weights, bound, exact=False))
        columns.extend((gi, m) for m in monos)

    if not columns:
        return None

    # row index: every monomial that can appear in any product or in target,
    # as packed exponents; column (gi, mono) holds g_gi's coefficients
    # shifted by mono, one integer addition each, and distinct terms of
    # g_gi land on distinct rows
    row_of: Dict[int, int] = {}
    entries: Dict[Tuple[int, int], Scalar] = {}
    for j, (gi, mono) in enumerate(columns):
        shift = _pack(mono)
        for e, c in generators[gi]._terms.items():
            entries[(row_of.setdefault(e + shift, len(row_of)), j)] = c
    for e in target._terms:
        row_of.setdefault(e, len(row_of))

    rhs = [Scalar(0)] * len(row_of)
    for e, c in target._terms.items():
        rhs[row_of[e]] = c

    sol = solve_linear(PolyMatrix.from_entries(len(row_of), len(columns), entries), rhs)
    if sol is None:
        return None
    cofactors = [MPoly.zero(vars) for _ in generators]
    for (gi, mono), value in zip(columns, sol):
        if value:
            cofactors[gi] = cofactors[gi] + MPoly.monomial(vars, mono, value)
    check = MPoly.zero(vars)
    for q, g in zip(cofactors, generators):
        check = check + q * g
    if check != target:
        raise AssertionError("internal error: certificate fails to recombine")
    return MembershipCertificate(cofactors=cofactors, bound=bound)
