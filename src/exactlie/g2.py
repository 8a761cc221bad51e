"""The 14-dimensional exceptional algebra as rational 7x7 matrices.

An element is given by its blocks (A, v, w): a traceless 3x3 block, a
column vector and a row vector.  g2_element places them as

    [[A, v, M(w^t)/2], [-w/2, 0, -v^t/2], [M(v)/2, w^t, -A^t]],

M(c) the matrix of u -> c x u.  This is D^-1 rho D for the printed
seven-dimensional embedding rho, whose vector blocks carry a = 1/sqrt(2),

    rho = [[A, av, M(w^t)/2], [-aw, 0, -av^t], [M(v)/2, aw^t, -A^t]],

and D = diag(1, 1, 1, sqrt 2, 1, 1, 1): the conjugation multiplies column 3
by sqrt 2 and divides row 3 by it, so every entry is rational and no sqrt 2
enters any computation.  rho preserves the exchange form with middle entry
1; the conjugate preserves D G D, the exchange form with middle entry 2.
The characteristic polynomial, and with it every invariant, is unchanged.

The bracket is the printed block formula: the sl3 action on both vector
pieces, the two cross-product pairings, and the rank-one pairing (v, w)
into sl3 carrying the factor 3/4.  embedding_homomorphism_full proves that
it is the matrix commutator.

The 1/2 on the cross-product blocks is deliberate: with coefficient 1
there the commutator leaves the model (the sl3-part of [X_v, X_w] acquires
a trace term (3/2) wv), and the commutator identity

    [X_v, X_w'] |_(1,1)  =  (alpha*beta - gamma*delta) vw'
                            + gamma*delta (w'v) I

forces gamma*delta = -alpha*beta/2 = 1/4, where alpha*beta = -1/2 is the
product of the coefficients of v in column 3 and of w in row 3 (1 and -1/2
here, +-1/sqrt(2) in rho; conjugation by D keeps the product).  All sign
choices are pinned down by the exhaustive Jacobi and commutator sweeps in
the test suite.

g2_algebra() is the model as a liealg.LieAlgebra on these matrices, like
sl/so/sp: its dual basis G2_DUAL reads the entries of A, v and w, and a
matrix outside g2 fails LieAlgebra.read's check like one outside sl/so/sp;
jacobi_full sweeps its structure constants, which LieAlgebra.table reads
from one bracket of two generic elements; chi_crosscheck proves the
closed chi2/chi6 formulas on the generic element.  The minimal-orbit slice
is a liealg.SliceChart on it, as the hook slice is on sp(2n): g2_chart()
puts the coordinates a..u on xi_directions() at g2_triple's x,
slice_structure_check runs liealg's triple and chart checks on it and
checks the Jordan type of x, and slice_invariants takes the slice element
from slicegeom.slice_matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .elim import MembershipCertificate, eliminate_triangular, ideal_membership_bounded
from .liealg import (
    LieAlgebra, NilpotentModel, SliceChart, Triple, check_chart, check_triple, jordan_type,
    transversality_check,
)
from .mpoly import MPoly
from .polymat import PolyMatrix, _rows_in_ring, charpoly_coefficients, det_cofactor, nullspace
from .scalar import ZERO, Scalar
from .slicegeom import slice_matrix

VARS8 = ("a", "b", "c", "p", "q", "r", "s", "u")
VARS7 = ("a", "b", "c", "p", "q", "r", "s")
SLICE_DEGREES = {"a": 2, "b": 2, "c": 2, "p": 3, "q": 3, "r": 3, "s": 3, "u": 4}

# The reading of the two undefined symbols in the degree-6 slice identity,
# discovered by scanning the four sign/order candidates and frozen after
# the first run; see chi6_identity_scan.
CHI6_READING = ("z1", "-z2")

# Normalization scalars (a, c) <- alpha*(e2-polarizations), b <- beta*...,
# (q, r) <- kappa*..., (p, s) <- pi*(e3-polarizations) that make all five
# quotient relations vanish on the polarized model; s3_invariant_model
# verifies them against the ratios and the coupling the relations force.
S3_NORMALIZATION = {
    "alpha": Fraction(2, 3),
    "beta": Fraction(1, 3),
    "kappa": Fraction(1, 3),
    "pi": Fraction(1, 1),
}


# ---------------------------------------------------------------------------
# elements and the bracket
# ---------------------------------------------------------------------------


HALF = Scalar(Fraction(1, 2))


def g2_element(a_rows, v, w) -> PolyMatrix:
    """The 7x7 matrix of the blocks (A, v, w), built from their nonzero
    entries.  A is given as rows or as a 3x3 matrix, v and w as entry
    sequences or as a column and a row matrix; entries may be Scalars or
    polynomials, and every entry of the result lies in the ring of all
    three blocks.  Raises ValueError on a wrong block shape."""
    a = a_rows if isinstance(a_rows, PolyMatrix) else PolyMatrix(a_rows)
    if not isinstance(v, PolyMatrix):
        v = PolyMatrix([[x] for x in v])
    if not isinstance(w, PolyMatrix):
        w = PolyMatrix([list(w)])
    if (a.nrows, a.ncols) != (3, 3):
        raise ValueError("A block must be 3x3")
    if (v.nrows, v.ncols) != (3, 1):
        raise ValueError("v must be a column 3-vector")
    if (w.nrows, w.ncols) != (1, 3):
        raise ValueError("w must be a row 3-vector")
    rows: List[Dict[int, object]] = [{} for _ in range(7)]
    for i, j, x in a.nonzeros():
        rows[i][j] = x
        rows[4 + j][4 + i] = -x
    # c_k sits in M(c) at (k+2, k+1) and, negated, at (k+1, k+2), mod 3
    for k, _, x in v.nonzeros():
        half = x * HALF
        i, j = (k + 1) % 3, (k + 2) % 3
        rows[k][3] = x
        rows[3][4 + k] = -half
        rows[4 + j][i] = half
        rows[4 + i][j] = -half
    for _, k, x in w.nonzeros():
        half = x * HALF
        i, j = (k + 1) % 3, (k + 2) % 3
        rows[4 + k][3] = x
        rows[3][k] = -half
        rows[j][4 + i] = half
        rows[i][4 + j] = -half
    zero = a.zero + v.zero + w.zero
    return PolyMatrix._make(_rows_in_ring(rows, zero), 7, zero)


def g2_blocks(x: PolyMatrix) -> Tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """(A, v, w): A from rows and columns 0-2, v from rows 0-2 and w from
    rows 4-6 of column 3.  The inverse of g2_element on g2."""
    return (
        x.submatrix(0, 3, 0, 3),
        x.submatrix(0, 3, 3, 4),
        x.submatrix(4, 7, 3, 4).transpose(),
    )


BASIS_NAMES = (
    "E12", "E13", "E21", "E23", "E31", "E32", "H1", "H2",
    "v1", "v2", "v3", "w1", "w2", "w3",
)


OFF_DIAGONAL = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def g2_basis() -> Tuple[PolyMatrix, ...]:
    """Fourteen generators in BASIS_NAMES order: the six off-diagonal sl3
    units E_ij, the simple coroots H1 = diag(1, -1, 0) and H2 = diag(0, 1,
    -1), and the standard column vectors v and row vectors w."""
    a_blocks = [PolyMatrix.from_entries(3, 3, {p: 1}) for p in OFF_DIAGONAL]
    a_blocks += [PolyMatrix.from_entries(3, 3, {(k, k): 1, (k + 1, k + 1): -1}) for k in (0, 1)]
    units, zero = [[int(k == i) for k in range(3)] for i in range(3)], [0, 0, 0]
    return tuple([g2_element(a, zero, zero) for a in a_blocks]
                 + [g2_element([zero] * 3, u, zero) for u in units]
                 + [g2_element([zero] * 3, zero, u) for u in units])


def _cross3(a: Sequence, b: Sequence) -> List:
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]


def _pair_vw(v: PolyMatrix, w: PolyMatrix) -> PolyMatrix:
    # 3/4 (v w - 1/3 (w v) I) = 3/4 v w - 1/4 (w v) I
    wv = (w * v).entry(0, 0)
    trace_part = PolyMatrix.identity(3, v.one).scale(wv * Fraction(1, 4))
    return (v * w).scale(Fraction(3, 4)) - trace_part


def g2_bracket(e: PolyMatrix, f: PolyMatrix) -> PolyMatrix:
    """[e, f] by the printed formula on the blocks.

    The (v, w) pairing carries its 3/4 with the sign fixed by the
    embedding: [x_v, x_w] has sl3-part -3/4 (vw - 1/3 (wv) I), i.e. the
    printed pairing formula computes [x_w, x_v].
    """
    a1, v1, w1 = g2_blocks(e)
    a2, v2, w2 = g2_blocks(f)
    a_part = a1 * a2 - a2 * a1 + _pair_vw(v2, w1) - _pair_vw(v1, w2)
    vrows = _cross3(w1.row(0), w2.row(0))
    v_part = a1 * v2 - a2 * v1 + PolyMatrix([[x] for x in vrows])
    wrows = _cross3(v1.column(0), v2.column(0))
    w_part = w1 * a2 - w2 * a1 + PolyMatrix([wrows])
    return g2_element(a_part, v_part, w_part)


# The dual basis of g2_basis(), as (row, column, coefficient) triples per
# coordinate: E_ij = A_ij, H1 = A11, H2 = A11 + A22, then v and w from
# rows 0-2 and 4-6 of column 3.
G2_DUAL = (
    *(((i, j, 1),) for i, j in OFF_DIAGONAL),
    ((0, 0, 1),),
    ((0, 0, 1), (1, 1, 1)),
    *(((r, 3, 1),) for r in (0, 1, 2, 4, 5, 6)),
)


def g2_algebra() -> LieAlgebra:
    """The model as a LieAlgebra on g2_basis() with the dual basis G2_DUAL.
    Built on every call from the module's current g2_bracket and G2_DUAL,
    so a replaced bracket or dual is the one the algebra uses."""
    return LieAlgebra("g2", 7, BASIS_NAMES, g2_basis(), g2_bracket, G2_DUAL)


def invariant_form() -> PolyMatrix:
    """The symmetric 7x7 form G with X^T G + G X = 0 for every basis
    matrix X.  Solved from scratch; the solution space must be a line, and
    the generator normalized to G[0, 4] = 1 is the exchange form with
    middle entry 2 (D G D for the form of rho, see the module docstring)."""
    idx = {p: k for k, p in enumerate((i, j) for i in range(7) for j in range(i, 7))}
    constraints: Dict[Tuple[int, int], Scalar] = {}
    for b, r in enumerate(g2_basis()):
        # an entry x = r_(k,t) enters (r^T G + G r) at (t, c) and (c, t)
        # as x G_(k,c), for every c; row 49b + 7i + j holds entry (i, j)
        for k, t, x in r.nonzeros():
            for c in range(7):
                col = idx[min(k, c), max(k, c)]
                for row in (49 * b + 7 * t + c, 49 * b + 7 * c + t):
                    constraints[row, col] = constraints.get((row, col), ZERO) + x
    kernel = nullspace(PolyMatrix.from_entries(49 * 14, len(idx), constraints))
    if len(kernel) != 1:
        raise AssertionError(f"invariant form space has dimension {len(kernel)}")
    vec = kernel[0]
    g = PolyMatrix.from_entries(
        7, 7, {pos: vec[k] for (i, j), k in idx.items() for pos in ((i, j), (j, i))}
    )
    norm = g.entry(0, 4)
    if not norm:
        raise AssertionError("degenerate invariant form")
    g = g.scale(norm.inverse())
    exchange = {(3, 3): 2}
    for i in range(3):
        exchange[(i, i + 4)] = exchange[(i + 4, i)] = 1
    if g != PolyMatrix.from_entries(7, 7, exchange):
        raise AssertionError("invariant form is not the block exchange form")
    return g


# ---------------------------------------------------------------------------
# invariants of degree 2 and 6
# ---------------------------------------------------------------------------


def chi_from_charpoly(e: PolyMatrix) -> Tuple:
    """(coefficient of t^5, coefficient of t) in det(tI - e)."""
    coeffs = charpoly_coefficients(e)
    return coeffs[2], coeffs[6]


def chi2_closed(e: PolyMatrix):
    a, v, w = g2_blocks(e)
    wv = (w * v).entry(0, 0)
    return wv * Fraction(3, 2) - (a * a).trace()


def chi6_closed(e: PolyMatrix):
    a, v, w = g2_blocks(e)
    det_a = det_cofactor(a)
    a2 = a * a
    tr_a2 = a2.trace()
    wv = (w * v).entry(0, 0)
    wav = (w * (a * v)).entry(0, 0)
    wa2v = (w * (a2 * v)).entry(0, 0)
    av = a * v
    a2v = a2 * v
    det_v = det_cofactor(
        PolyMatrix(
            [[v.entry(i, 0), av.entry(i, 0), a2v.entry(i, 0)] for i in range(3)]
        )
    )
    wa = w * a
    wa2 = w * a2
    det_w = det_cofactor(
        PolyMatrix(
            [[w.entry(0, i), wa.entry(0, i), wa2.entry(0, i)] for i in range(3)]
        )
    )
    return (
        -det_a * det_a
        + det_a * wav * Fraction(3, 2)
        + wav * wav * Fraction(3, 16)
        + tr_a2 * tr_a2 * wv * Fraction(1, 4)
        + tr_a2 * wv * wv * Fraction(1, 4)
        - wa2v * tr_a2 * Fraction(1, 2)
        + wv * wv * wv * Fraction(1, 16)
        - wa2v * wv * Fraction(3, 4)
        + det_v * Fraction(1, 2)
        - det_w * Fraction(1, 2)
    )


def chi_crosscheck() -> int:
    """The closed formulas chi2_closed and chi6_closed equal the
    characteristic-polynomial coefficients of chi_from_charpoly on the
    generic element sum_k x_k b_k, as polynomials in its 14 coordinates;
    returns that count, 14.  A polynomial identity holds at every point,
    so this covers every rational element of g2."""
    alg = g2_algebra()
    (e,) = alg.generic("x")
    c2, c6 = chi_from_charpoly(e)
    if c2 != chi2_closed(e):
        raise AssertionError("closed chi2 formula differs from the characteristic polynomial")
    if c6 != chi6_closed(e):
        raise AssertionError("closed chi6 formula differs from the characteristic polynomial")
    return alg.dim


def jacobi_full() -> int:
    """Jacobi identity over every ordered basis triple (all 14^3 of
    them); returns the count.

    The triples are summed over g2_algebra()'s structure constants, which
    LieAlgebra.table reads through G2_DUAL from one g2_bracket of the two
    generic elements of LieAlgebra.generic, checking that the coordinates
    are bilinear and recombine to that bracket exactly.  So the table is
    g2_bracket on every input, and the contraction sum_m c_yz^m c_xm^l
    decides the same identity as [x, [y, z]] for the block bracket.
    LieAlgebra.jacobi forms each sum once per cyclic class of triples."""
    return g2_algebra().jacobi()


def embedding_homomorphism_full() -> int:
    """g2_bracket(x, y) = xy - yx on every ordered basis pair, so the
    inclusion of the model in gl7 is a homomorphism; returns the count,
    196.

    The identity is checked once, for the generic elements x and y of
    LieAlgebra.generic in 14 + 14 variables.  Both sides are bilinear in
    (x, y), and the coefficient of x_i y_j in their difference is the
    identity on the basis pair (i, j); the generic identity holds exactly
    when all 196 pair identities do."""
    alg = g2_algebra()
    x, y = alg.generic("x", "y")
    if g2_bracket(x, y) != x * y - y * x:
        raise AssertionError("embedding is not a homomorphism")
    return alg.dim ** 2


# ---------------------------------------------------------------------------
# the minimal-orbit slice
# ---------------------------------------------------------------------------


def g2_triple() -> Tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    x = g2_element([[0, 1, 0], [0, 0, 0], [0, 0, 0]], (0, 0, 0), (0, 0, 0))
    h = g2_element([[1, 0, 0], [0, -1, 0], [0, 0, 0]], (0, 0, 0), (0, 0, 0))
    y = g2_element([[0, 0, 0], [1, 0, 0], [0, 0, 0]], (0, 0, 0), (0, 0, 0))
    return x, h, y


def xi_directions() -> Dict[str, PolyMatrix]:
    """Coordinate directions of the slice chart, as constant elements.

    The chart is normalized so that the five relation polynomials of
    slice_relations and the hypersurface of example_f come out exactly in
    their standard form.  The naive labeling (a and c exchanged, b negated)
    parametrizes the same slice but sends the relation set to its image
    under that coordinate flip; the two charts are distinguished only by
    the degree-6 invariant, never by the degree-2 one, which is symmetric
    under the flip.
    """
    h = Fraction(-1, 2)
    return {
        "a": g2_element([[0] * 3] * 3, (0, 0, 0), (0, 0, 1)),
        "b": g2_element([[h, 0, 0], [0, h, 0], [0, 0, 1]], (0, 0, 0), (0, 0, 0)),
        "c": g2_element([[0] * 3] * 3, (0, 0, 1), (0, 0, 0)),
        "p": g2_element([[0, 0, 0], [0, 0, 1], [0, 0, 0]], (0, 0, 0), (0, 0, 0)),
        "q": g2_element([[0] * 3] * 3, (0, 2, 0), (0, 0, 0)),
        "r": g2_element([[0] * 3] * 3, (0, 0, 0), (2, 0, 0)),
        "s": g2_element([[0, 0, 0], [0, 0, 0], [1, 0, 0]], (0, 0, 0), (0, 0, 0)),
        "u": g2_element([[0, 0, 0], [1, 0, 0], [0, 0, 0]], (0, 0, 0), (0, 0, 0)),
    }


def g2_chart() -> SliceChart:
    """The chart a..u on xi_directions() at g2_triple's x, with weights
    SLICE_DEGREES and x of Jordan type (2, 2, 1, 1, 1) in the 7x7 model;
    slice_structure_check verifies it."""
    x, h, y = g2_triple()
    model = NilpotentModel(g2_algebra(), Triple(x, y, h), (2, 2, 1, 1, 1), "g2", None)
    dirs = xi_directions()
    weights = tuple(SLICE_DEGREES[n] for n in dirs)
    return SliceChart(model, tuple(dirs), tuple(dirs.values()), weights)


def slice_structure_check() -> Dict[str, int]:
    """Triple relations, the Jordan type of x, the grading and span of the
    chart, and transversality: dim ker(ad y) + rank(ad x) = 14."""
    chart = g2_chart()
    model = chart.model
    check_triple(model.algebra, model.triple)
    if jordan_type(model.triple.x) != model.partition:
        raise AssertionError(f"x does not have Jordan type {model.partition}")
    check_chart(chart)
    report = transversality_check(model)
    if not report["transversal"]:
        raise AssertionError("slice and orbit dimensions do not add up to 14")
    return {"kernel_dim": report["slice_dim"], "orbit_dim": report["orbit_dim"],
            "algebra_dim": report["algebra_dim"]}


@lru_cache(maxsize=None)
def slice_invariants() -> Tuple[MPoly, MPoly]:
    """(chi2(xi), chi6(xi)) as exact polynomials in the eight chart
    coordinates, from the characteristic polynomial of the slice
    element."""
    c2, c6 = chi_from_charpoly(slice_matrix(g2_chart(), VARS8))
    a, b, c, u = (MPoly.variable(n, VARS8) for n in ("a", "b", "c", "u"))
    want = -2 * (u - Fraction(3, 4) * (a * c - b * b))
    if c2 != want:
        raise AssertionError("chi2 on the slice has the wrong closed form")
    return c2, c6


def slice_relations(vars: Tuple[str, ...] = VARS8) -> Dict[str, MPoly]:
    """The five quotient relations t1, t2, t3, z1, z2."""
    a, b, c, p, q, r, s = (MPoly.variable(n, vars) for n in VARS7)
    disc = a * c - b * b
    return {
        "t1": a * disc + 2 * (q * q - r * p),
        "t2": b * disc + (r * q - p * s),
        "t3": c * disc + 2 * (r * r - q * s),
        "z1": a * s - 2 * b * r + c * q,
        "z2": a * r - 2 * b * q + c * p,
    }


def example_f(vars: Tuple[str, ...] = VARS7) -> MPoly:
    """z1^2 a - 2 z1 z2 b + z2^2 c + 2 (t2^2 - t1 t3), expanded."""
    rel = slice_relations(vars)
    a, b, c = (MPoly.variable(n, vars) for n in ("a", "b", "c"))
    t1, t2, t3, z1, z2 = (rel[k] for k in ("t1", "t2", "t3", "z1", "z2"))
    return z1 * z1 * a - 2 * z1 * z2 * b + z2 * z2 * c + 2 * (t2 * t2 - t1 * t3)


def chi6_identity_scan() -> Tuple[str, str]:
    """Determine which reading of the two undefined symbols makes the
    printed chi6(xi) identity exact.  The right-hand side only sees the
    products (t4^2, t4 t5, t5^2), so the four candidates cover all
    sign/order choices up to a global flip.  Exactly one must pass; the
    winner is asserted against the frozen CHI6_READING."""
    c2, c6 = slice_invariants()
    rel = slice_relations(VARS8)
    a, b, c = (MPoly.variable(n, VARS8) for n in ("a", "b", "c"))
    t1, t2, t3, z1, z2 = (rel[k] for k in ("t1", "t2", "t3", "z1", "z2"))
    candidates = {
        ("z1", "z2"): (z1, z2),
        ("z1", "-z2"): (z1, -z2),
        ("z2", "z1"): (z2, z1),
        ("z2", "-z1"): (z2, -z1),
    }
    winners = []
    for label, (t4, t5) in candidates.items():
        rhs = (
            t1 * t3
            - t2 * t2
            - Fraction(1, 2) * (t4 * t4 * a + 2 * t4 * t5 * b + t5 * t5 * c)
            - Fraction(1, 2) * (a * t3 - 2 * b * t2 + c * t1) * c2
            + Fraction(1, 4) * (a * c - b * b) * c2 * c2
        )
        if c6 == rhs:
            winners.append(label)
    if len(winners) != 1:
        raise AssertionError(f"identity scan found {len(winners)} readings: {winners}")
    if winners[0] != CHI6_READING:
        raise AssertionError(f"scan winner {winners[0]} != frozen {CHI6_READING}")
    return winners[0]


@lru_cache(maxsize=None)
def g2_hypersurface() -> MPoly:
    """Eliminate u via chi2 = 0 and return -2 chi6(xi) restricted to the
    resulting chart; must reproduce the seven-variable polynomial of the
    quotient model exactly."""
    c2, c6 = slice_invariants()
    subs, _ = eliminate_triangular([c2], ["u"])
    f = (-2 * c6.substitute(subs)).with_vars(VARS7)
    if f != example_f():
        raise AssertionError("slice hypersurface differs from the quotient model")
    return f


# The degree bound tried for a partial that has no certificate at the
# requested bound.
RETRY_BOUND = 12


def singular_locus_certificates(bound: int = 8) -> Dict[str, MembershipCertificate]:
    """Cofactor certificates putting every partial of f in the ideal of
    the five relations, searched at the degree bound `bound` and, for a
    partial that has none there, at RETRY_BOUND.

    They prove only that V(t1, t2, t3, z1, z2) lies in Sing(f).  The
    reverse inclusion comes from the reverse certificates in the test
    suite (the cube of each relation lies in the Jacobian ideal), so the
    two sets are equal.  That set is larger than the vertex: it contains
    (a, b, c, p, q, r, s) = (-2/3, -1, -2, 0, 1/3, 1, 2)."""
    f = g2_hypersurface()
    rel = slice_relations(VARS7)
    gens = [rel[k] for k in ("t1", "t2", "t3", "z1", "z2")]
    weights = {n: SLICE_DEGREES[n] for n in VARS7}
    out: Dict[str, MembershipCertificate] = {}
    for var in VARS7:
        target = f.derivative(var)
        cert = ideal_membership_bounded(target, gens, weights, bound)
        if cert is None:
            cert = ideal_membership_bounded(target, gens, weights, RETRY_BOUND)
        if cert is None:
            raise AssertionError(f"no certificate for d f / d {var} at bound {RETRY_BOUND}")
        out[var] = cert
    return out


# ---------------------------------------------------------------------------
# the polarized symmetric-group model
# ---------------------------------------------------------------------------

S3_VARS = ("x1", "x2", "y1", "y2")


def s3_polarizations() -> Dict[str, MPoly]:
    """Polarizations of the second and third elementary symmetric
    polynomials in three variables summing to zero, on two sets of
    coordinates; unnormalized."""
    x1, x2, y1, y2 = (MPoly.variable(n, S3_VARS) for n in S3_VARS)
    xs = (x1, x2, -(x1 + x2))
    ys = (y1, y2, -(y1 + y2))
    pairs = ((0, 1), (0, 2), (1, 2))
    e2x = sum((xs[i] * xs[j] for i, j in pairs), MPoly.zero(S3_VARS))
    e2y = sum((ys[i] * ys[j] for i, j in pairs), MPoly.zero(S3_VARS))
    mix = sum(
        (xs[i] * ys[j] + xs[j] * ys[i] for i, j in pairs), MPoly.zero(S3_VARS)
    )
    e3x = xs[0] * xs[1] * xs[2]
    e3y = ys[0] * ys[1] * ys[2]
    q_ = xs[0] * xs[1] * ys[2] + xs[0] * xs[2] * ys[1] + xs[1] * xs[2] * ys[0]
    r_ = xs[0] * ys[1] * ys[2] + xs[1] * ys[0] * ys[2] + xs[2] * ys[0] * ys[1]
    return {"a": e2x, "b": mix, "c": e2y, "p": e3x, "q": q_, "r": r_, "s": e3y}


def _poly_kernel(polys: Sequence[MPoly]) -> List[List[Scalar]]:
    exps = sorted({e for p in polys for e, _ in p.sorted_terms()})
    matrix = PolyMatrix(
        [[p.coefficient(e) for p in polys] for e in exps]
    )
    return [list(v) for v in nullspace(matrix)]


def s3_invariant_model() -> Dict[str, Fraction]:
    """Verify the frozen S3_NORMALIZATION of the polarized invariants:
    it obeys the constraints the relations force, and all five quotient
    relations vanish identically under it.  Returns a copy of it.

    The ansatz respects the swap of the two coordinate sets: (a, c) and
    (p, s) and (q, r) share a scalar each.  The degree-5 relation z1 has a
    kernel line that pins the ratios beta/alpha and pi/kappa; with those
    ratios the degree-6 relation t1 is alpha^3 lhs + kappa^2 rhs, whose
    kernel line (m1, m2) forces alpha^3 m2 = kappa^2 m1.  Full
    substitution then checks all five relations.
    """
    pol = s3_polarizations()
    # z1 = a s - 2 b r + c q: stack with the printed -2 in place
    k1 = _poly_kernel(
        [pol["a"] * pol["s"], (pol["b"] * pol["r"]) * (-2), pol["c"] * pol["q"]]
    )
    if len(k1) != 1:
        raise AssertionError("degree-5 stack kernel is not a line")
    u1, u2, u3 = k1[0]
    if not (u1.is_rational() and u2.is_rational() and u3.is_rational()):
        raise AssertionError("irrational kernel")
    if not (u1 and u2 and u3):
        raise AssertionError("degenerate degree-5 kernel")
    beta_over_alpha = (u2 / u3).r0
    pi_over_kappa = (u1 / u3).r0
    # t1 = a^2 c - a b^2 + 2 q^2 - 2 r p, with beta, pi eliminated
    pa, pb, pc = pol["a"], pol["b"], pol["c"]
    pp, pq, pr = pol["p"], pol["q"], pol["r"]
    lhs = pa * pa * pc - (pa * pb * pb) * beta_over_alpha ** 2
    rhs = pq * pq * 2 - (pr * pp) * (2 * pi_over_kappa)
    k2 = _poly_kernel([lhs, rhs])
    if len(k2) != 1:
        raise AssertionError("degree-6 stack kernel is not a line")
    m1, m2 = k2[0]
    if not (m1 and m2):
        raise AssertionError("degenerate degree-6 kernel")
    frozen = dict(S3_NORMALIZATION)
    alpha, beta, kappa, pi_ = (frozen[k] for k in ("alpha", "beta", "kappa", "pi"))
    if not (alpha and kappa):
        raise AssertionError("frozen normalization is degenerate")
    if beta != alpha * beta_over_alpha or pi_ != kappa * pi_over_kappa:
        raise AssertionError("frozen normalization breaks the degree-5 ratios")
    if m2 * alpha ** 3 != m1 * kappa ** 2:
        raise AssertionError("frozen normalization breaks the alpha^3 / kappa^2 coupling")
    images = {
        "a": pa * alpha, "c": pc * alpha,
        "b": pb * beta,
        "p": pp * pi_, "s": pol["s"] * pi_,
        "q": pq * kappa, "r": pr * kappa,
    }
    rel = slice_relations(VARS7)
    for k in ("t1", "t2", "t3", "z1", "z2"):
        if not rel[k].substitute(images).is_zero():
            raise AssertionError(f"relation {k} survives the frozen normalization")
    return frozen
