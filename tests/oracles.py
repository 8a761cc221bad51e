"""Oracles that only the tests use, written over the public API."""

from typing import Dict, List, Sequence, Tuple

from exactlie.liealg import LieAlgebra
from exactlie.mpoly import MPoly
from exactlie.polymat import PolyMatrix, kernel
from exactlie.scalar import ONE, ZERO, Scalar


def evaluate(poly: MPoly, point: Dict[str, Scalar]) -> Scalar:
    """poly at a point that gives every one of its variables a value."""
    total = Scalar(0)
    values = [Scalar.coerce(point[v]) for v in poly.vars]
    for e, c in poly.terms.items():
        prod = c
        for k, val in zip(e, values):
            if k:
                prod = prod * val ** k
        total = total + prod
    return total


def term_loop_dot(vars: Tuple[str, ...], pairs) -> MPoly:
    """sum p * q over the pairs, each factor an MPoly over vars or a
    constant, with one Scalar product and one Scalar sum per product of two
    terms: the oracle for MPoly.dot."""
    acc: Dict[Tuple[int, ...], Scalar] = {}
    for pair in pairs:
        a, b = (f.terms if type(f) is MPoly else {(0,) * len(vars): Scalar.coerce(f)} for f in pair)
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, ZERO) + ca * cb
    return MPoly(tuple(vars), acc)


def term_loop_substitute(poly: MPoly, mapping: Dict[str, MPoly]) -> MPoly:
    """poly with polynomials substituted for variables, one term at a time:
    each term is its coefficient times the image of each variable to its
    power, and an unmapped variable is its own image.  The oracle for
    MPoly.substitute; it raises ValueError where that does."""
    target = next(iter(mapping.values())).vars if mapping else poly.vars
    images = []
    for v in poly.vars:
        img = mapping[v] if v in mapping else MPoly.variable(v, target)
        if img.vars != target:
            raise ValueError("substitution images disagree on variables")
        images.append(img)
    result = MPoly.zero(target)
    for e, c in poly.terms.items():
        prod = MPoly.constant(c, target)
        for img, k in zip(images, e):
            if k:
                prod = prod * img ** k
        result = result + prod
    return result


def term_loop_derivative(poly: MPoly, var: str) -> MPoly:
    """d poly / d var, one exponent tuple at a time: the oracle for
    MPoly.derivative."""
    i = poly.vars.index(var)
    return MPoly(poly.vars, {
        e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in poly.terms.items() if e[i]
    })


def term_loop_coefficient_in(poly: MPoly, var: str, power: int) -> MPoly:
    """The coefficient of var**power over poly's variables, one exponent
    tuple at a time: the oracle for MPoly.coefficient_in."""
    i = poly.vars.index(var)
    return MPoly(poly.vars, {
        e[:i] + (0,) + e[i + 1:]: c for e, c in poly.terms.items() if e[i] == power
    })


def term_loop_as_univariate_in(poly: MPoly, var: str) -> Dict[int, MPoly]:
    """{k: coefficient of var**k} over the powers k that occur: the oracle
    for MPoly.as_univariate_in."""
    i = poly.vars.index(var)
    powers = {e[i] for e in poly.terms}
    return {k: term_loop_coefficient_in(poly, var, k) for k in powers}


def term_loop_with_vars(poly: MPoly, new_vars: Tuple[str, ...]) -> MPoly:
    """poly over new_vars, each exponent tuple rebuilt by variable name: the
    oracle for MPoly.with_vars on a superset or reordering of the variables
    that occur."""
    return MPoly(tuple(new_vars), {
        tuple(dict(zip(poly.vars, e)).get(v, 0) for v in new_vars): c
        for e, c in poly.terms.items()
    })


def bracket_coords(alg: LieAlgebra, x: Sequence, y: Sequence) -> List:
    """Coordinates of [x, y] for coordinate vectors x and y, by
    bilinearity from alg.table; the entries may be Scalars or
    polynomials."""
    out: List = [0] * alg.dim
    for (i, j), row in alg.table.items():
        xy = x[i] * y[j]
        if xy:
            for k, c in row.items():
                out[k] = out[k] + xy * c
    return out


def dual_pairing(alg: LieAlgebra) -> PolyMatrix:
    """B D for alg's basis B and dual D, one entry at a time: entry (j, k)
    is coordinate k read on b_j, the sum of c b_j[r, s] over alg.dual[k]."""
    return PolyMatrix([
        [sum((b.entry(r, s) * c for r, s, c in reads), ZERO) for reads in alg.dual]
        for b in alg.basis
    ])


def kernel_form_basis(g: PolyMatrix) -> Tuple[List[PolyMatrix], List[Tuple[int, int]]]:
    """The basis of {M : M^T g + g M = 0} read from the reduced kernel of
    the size^2 x size^2 constraint system, with the position that carries
    each element's coordinate: in the reduced kernel basis each vector is
    1 on its own free column and 0 on the others', and the free column is
    its last nonzero entry."""
    size = g.nrows
    # constraint rows: (M^T G + G M)_(a,b) = 0, unknowns M_(i,j) flattened.
    # A form entry G_(k,b) enters (M^T G)_(a,b) through M_(k,a) and
    # (G M)_(k,a) through M_(b,a), for every a.
    constraints: Dict[Tuple[int, int], Scalar] = {}
    for k, b, x in g.nonzeros():
        for a in range(size):
            for key in ((a * size + b, k * size + a), (k * size + a, b * size + a)):
                constraints[key] = constraints.get(key, ZERO) + x
    solutions = kernel(PolyMatrix.from_entries(size * size, size * size, constraints))
    entries: List[Dict[Tuple[int, int], Scalar]] = [{} for _ in range(solutions.nrows)]
    last: Dict[int, int] = {}
    for idx, p, x in solutions.nonzeros():
        entries[idx][divmod(p, size)] = x
        last[idx] = max(p, last.get(idx, p))
    owner = {p: idx for idx, p in last.items()}
    if (
        len(owner) != solutions.nrows
        or any(solutions.entry(idx, p) != ONE for p, idx in owner.items())
        or any(owner.get(p, idx) != idx for idx, p, _ in solutions.nonzeros())
    ):
        raise AssertionError("kernel basis lost its free-column structure")
    basis = [PolyMatrix.from_entries(size, size, e) for e in entries]
    return basis, [divmod(p, size) for p in owner]
