"""Oracles that only the tests use, written over the public API."""

from typing import Dict, List, Sequence

from exactlie.liealg import LieAlgebra
from exactlie.mpoly import MPoly
from exactlie.scalar import Scalar


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
