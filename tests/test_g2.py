"""Tests for the 14-dimensional exceptional algebra model.

Printed data (basis brackets, the degree-2 invariant, the slice identity,
the hypersurface) is frozen here; the heavier exhaustive sweeps live in
the acceptance suite.
"""

import random
from fractions import Fraction

import pytest

from exactlie import g2
from exactlie.g2 import (
    CHI6_READING,
    S3_NORMALIZATION,
    SLICE_DEGREES,
    VARS7,
    VARS8,
    chi2_closed,
    chi6_closed,
    chi6_identity_scan,
    chi_crosscheck,
    chi_from_charpoly,
    example_f,
    g2_basis,
    g2_algebra,
    g2_bracket,
    g2_blocks,
    g2_element,
    g2_chart,
    g2_hypersurface,
    g2_triple,
    invariant_form,
    jacobi_full,
    xi_directions,
    s3_invariant_model,
    s3_polarizations,
    singular_locus_certificates,
    slice_invariants,
    slice_relations,
    slice_structure_check,
)
from exactlie.elim import eliminate_triangular, ideal_membership_bounded
from exactlie.liealg import NilpotentModel
from exactlie.mpoly import MPoly
from exactlie.polymat import PolyMatrix, charpoly, det_cofactor, rank
from exactlie.scalar import Scalar
from exactlie.slicegeom import slice_matrix
from oracles import evaluate
from sympy_oracle import to_sympy


def random_element(rng: random.Random) -> PolyMatrix:
    """A rational element of g2 with small random entries."""
    def f():
        return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))

    a11, a22 = f(), f()
    a_rows = [[a11, f(), f()], [f(), a22, f()], [f(), f(), -(a11 + a22)]]
    return g2_element(a_rows, (f(), f(), f()), (f(), f(), f()))


def test_bracket_antisymmetry_on_basis():
    basis = g2_basis()
    for e in basis:
        assert g2_bracket(e, e).is_zero()
    rng = random.Random(1)
    for _ in range(30):
        e, f = random_element(rng), random_element(rng)
        lhs = g2_bracket(e, f)
        rhs = g2_bracket(f, e)
        assert (lhs + rhs).is_zero()


def test_sl3_part_closes():
    a1 = g2_element([[0, 1, 0], [0, 0, 0], [0, 0, 0]], (0, 0, 0), (0, 0, 0))
    a2 = g2_element([[0, 0, 0], [1, 0, 0], [0, 0, 0]], (0, 0, 0), (0, 0, 0))
    a, v, w = g2_blocks(g2_bracket(a1, a2))
    assert v.is_zero() and w.is_zero()
    b1, b2 = g2_blocks(a1)[0], g2_blocks(a2)[0]
    assert a == b1 * b2 - b2 * b1


def test_vw_pairing_order_and_factor():
    # the 3/4 pairing appears for the (row, column) order; the reverse
    # order carries the opposite sign
    v = (1, 2, 3)
    w = (5, 0, -1)
    xv = g2_element([[0] * 3] * 3, v, (0, 0, 0))
    xw = g2_element([[0] * 3] * 3, (0, 0, 0), w)
    vw = PolyMatrix([[Scalar(Fraction(3, 4) * v[i] * w[j]) for j in range(3)] for i in range(3)])
    wv = sum(v[i] * w[i] for i in range(3))
    expected = vw - PolyMatrix.identity(3).scale(Fraction(wv, 4))
    assert g2_blocks(g2_bracket(xw, xv))[0] == expected
    assert g2_blocks(g2_bracket(xv, xw))[0] == -expected


def test_jacobi_sampled_triples():
    basis = g2_basis()
    rng = random.Random(5)
    for _ in range(60):
        e, f, g = (basis[rng.randrange(14)] for _ in range(3))
        lhs = g2_bracket(g2_bracket(e, f), g)
        rhs = g2_bracket(g2_bracket(e, g), f) + g2_bracket(e, g2_bracket(f, g))
        assert (lhs - rhs).is_zero()


def test_jacobi_full_catches_a_vw_pairing_without_its_factor(monkeypatch):
    def pairing_without_factor(v, w):
        # v w - 1/3 (w v) I: still traceless, but without the 3/4
        wv = (w * v).entry(0, 0)
        return v * w - PolyMatrix.identity(3).scale(wv * Fraction(1, 3))

    monkeypatch.setattr(g2, "_pair_vw", pairing_without_factor)
    with pytest.raises(AssertionError, match="Jacobi identity fails"):
        jacobi_full()


def test_jacobi_full_catches_a_wrong_h2_readout(monkeypatch):
    # H2 = diag(0, 1, -1) carries A11 + A22, not A22: read at A22 alone it
    # is not dual to the basis (H1 reads -1 there), and the algebra that
    # jacobi_full sweeps is refused when it is built
    dual = list(g2.G2_DUAL)
    dual[7] = ((1, 1, 1),)
    monkeypatch.setattr(g2, "G2_DUAL", tuple(dual))
    with pytest.raises(AssertionError, match="^coordinate readout failed to reproduce the matrix$"):
        jacobi_full()


def test_bracket_is_commutator_on_all_pairs():
    basis = g2_basis()
    for x in basis:
        for y in basis:
            assert g2_bracket(x, y) == x * y - y * x


def test_embedding_check_catches_one_perturbed_basis_bracket(monkeypatch):
    # add x_i y_j * b_k to [x, y]: a bilinear bracket that differs from the
    # model on the basis pair (E12, v1) alone
    right = g2.g2_bracket
    i, j, k = 0, 8, 11

    def perturbed(e, f):
        # coordinate E12 is A_12, at (0, 1); v1 is at (0, 3) (G2_DUAL)
        c = e.entry(0, 1) * f.entry(0, 3)
        zero = c - c
        return right(e, f) + g2.g2_algebra().combination(
            [c if m == k else zero for m in range(14)]
        )

    basis = g2_basis()
    assert perturbed(basis[i], basis[j]) != right(basis[i], basis[j])
    assert perturbed(basis[j], basis[i]) == right(basis[j], basis[i])
    monkeypatch.setattr(g2, "g2_bracket", perturbed)
    with pytest.raises(AssertionError, match="not a homomorphism"):
        g2.embedding_homomorphism_full()


def test_basis_matrices_are_independent():
    basis = g2_basis()
    for m in basis:
        assert (m.nrows, m.ncols) == (7, 7)
    matrix = PolyMatrix([[m.entry(i, j) for i in range(7) for j in range(7)] for m in basis])
    assert rank(matrix) == 14


def test_invariant_form_is_block_exchange():
    g = invariant_form()
    assert g.is_symmetric()
    for i in range(3):
        assert g.entry(i, i + 4) == Scalar(1)
        assert g.entry(i + 4, i) == Scalar(1)
    assert g.entry(3, 3) == Scalar(2)
    total = sum(1 for i in range(7) for j in range(7) if g.entry(i, j))
    assert total == 7


HALF_SQRT2 = Scalar(0, Fraction(1, 2))


def printed_rho(a, v, w):
    """The printed embedding of the blocks (A, v, w), entry lists of
    Scalars or polynomials: vector blocks carry 1/sqrt(2), the
    cross-product blocks 1/2."""
    al = HALF_SQRT2
    zero = a[0][0] - a[0][0]

    def cross(c):
        # u -> c x u, halved
        return [
            [zero, -c[2] * Fraction(1, 2), c[1] * Fraction(1, 2)],
            [c[2] * Fraction(1, 2), zero, -c[0] * Fraction(1, 2)],
            [-c[1] * Fraction(1, 2), c[0] * Fraction(1, 2), zero],
        ]

    mv, mw = cross(v), cross(w)
    rows = [a[i] + [v[i] * al] + mw[i] for i in range(3)]
    rows.append([-(x * al) for x in w] + [zero] + [-(x * al) for x in v])
    rows += [mv[i] + [w[i] * al] + [-a[j][i] for j in range(3)] for i in range(3)]
    return PolyMatrix(rows)


def generic_blocks():
    names = g2.BASIS_NAMES
    xs = [MPoly.variable(n, names) for n in names]
    e12, e13, e21, e23, e31, e32, h1, h2 = xs[:8]
    a = [[h1, e12, e13], [e21, h2 - h1, e23], [e31, e32, -h2]]
    return xs, a, xs[8:11], xs[11:14]


def test_model_is_the_rational_conjugate_of_the_printed_embedding():
    # D^-1 rho D with D = diag(1, 1, 1, sqrt2, 1, 1, 1): column 3 times
    # sqrt2, row 3 divided by it
    xs, a, v, w = generic_blocks()
    rho = printed_rho(a, v, w)
    d = [Scalar(1)] * 3 + [Scalar.sqrt2()] + [Scalar(1)] * 3
    conj = PolyMatrix(
        [[rho.entry(i, j) * (d[j] / d[i]) for j in range(7)] for i in range(7)]
    )
    assert conj == g2_algebra().combination(xs)


def test_printed_embedding_preserves_the_exchange_form():
    _, a, v, w = generic_blocks()
    rho = printed_rho(a, v, w)
    exchange = {(3, 3): 1}
    for i in range(3):
        exchange[(i, i + 4)] = exchange[(i + 4, i)] = 1
    g = PolyMatrix.from_entries(7, 7, exchange)
    assert (rho.transpose() * g + g * rho).is_zero()
    assert any(not c.is_rational() for _, _, x in rho.nonzeros() for c in x.terms.values())


def test_no_sqrt2_in_the_model():
    x = slice_matrix(g2_chart(), VARS8)
    polys = [p for _, _, p in x.nonzeros()]
    assert all(c.is_rational() for p in polys for c in p.terms.values())
    matrices = [*g2_basis(), *g2_triple(), *xi_directions().values(), invariant_form()]
    assert all(c.is_rational() for m in matrices for _, _, c in m.nonzeros())


def test_chi2_on_vector_pair():
    # w.v = 2 with no sl3 part gives chi2 = 3
    e = g2_element([[0] * 3] * 3, (1, 1, 0), (1, 1, 0))
    c2, _ = chi_from_charpoly(e)
    assert c2 == Scalar(3)
    assert chi2_closed(e) == Scalar(3)


def test_closed_formulas_match_charpoly_on_random_points():
    # chi_crosscheck proves the identity on the generic element; these
    # points check it apart from LieAlgebra.generic
    assert chi_crosscheck() == 14
    rng = random.Random(0)
    for _ in range(20):
        e = random_element(rng)
        assert g2_blocks(e)[0].trace() == Scalar(0)
        assert chi_from_charpoly(e) == (chi2_closed(e), chi6_closed(e))


def test_chi_crosscheck_catches_a_dropped_chi6_term(monkeypatch):
    closed = g2.chi6_closed

    def dropped(e):
        _, v, w = g2_blocks(e)
        wv = (w * v).entry(0, 0)
        return closed(e) - wv * wv * wv * Fraction(1, 16)

    monkeypatch.setattr(g2, "chi6_closed", dropped)
    with pytest.raises(AssertionError, match="closed chi6 formula"):
        chi_crosscheck()


def test_chi_crosscheck_catches_a_scaled_chi2(monkeypatch):
    closed = g2.chi2_closed
    monkeypatch.setattr(g2, "chi2_closed", lambda e: closed(e) * 2)
    with pytest.raises(AssertionError, match="closed chi2 formula"):
        chi_crosscheck()


def test_charpoly_extraction_against_cofactor_oracle():
    rng = random.Random(11)
    e = random_element(rng)
    lam = MPoly.variable("t", ("t",))
    shifted = PolyMatrix(
        [
            [
                lam * (1 if i == j else 0) - MPoly.constant(e.entry(i, j), ("t",))
                for j in range(7)
            ]
            for i in range(7)
        ]
    )
    det = det_cofactor(shifted)
    c2, c6 = chi_from_charpoly(e)
    assert det.coefficient((5,)) == c2
    assert det.coefficient((1,)) == c6


def test_slice_element_is_the_printed_chart():
    a, b, c, p, q, r, s, u = (MPoly.variable(n, VARS8) for n in VARS8)
    zero = MPoly.zero(VARS8)
    one = MPoly.constant(1, VARS8)
    printed = g2_element(
        [[-b / 2, one, zero], [u, -b / 2, p], [s, zero, b]],
        (zero, 2 * q, c),
        (2 * r, zero, a),
    )
    assert slice_matrix(g2_chart(), VARS8) == printed


def test_triple_and_slice_structure():
    report = slice_structure_check()
    assert report == {"kernel_dim": 8, "orbit_dim": 6, "algebra_dim": 14}


def test_g2_chart_is_a_slice_chart_on_the_algebra():
    chart = g2_chart()
    model = chart.model
    assert model.family == "g2" and model.algebra.names == g2_algebra().names
    # x = E12 acts on both 3-dimensional pieces: two 2-blocks
    assert model.partition == (2, 2, 1, 1, 1)
    assert chart.names == VARS8
    assert chart.coord_weights == tuple(SLICE_DEGREES[n] for n in VARS8)


def test_slice_structure_check_rejects_a_doubled_y(monkeypatch):
    x, h, y = g2_triple()
    monkeypatch.setattr(g2, "g2_triple", lambda: (x, h, y.scale(2)))
    with pytest.raises(AssertionError, match="sl2 relations fail"):
        slice_structure_check()


def test_slice_structure_check_rejects_a_direction_outside_the_kernel(monkeypatch):
    dirs = xi_directions()
    x = g2_triple()[0]
    monkeypatch.setattr(g2, "xi_directions", lambda: {**dirs, "q": dirs["q"] + x})
    with pytest.raises(AssertionError, match="chart vector q is not in ker"):
        slice_structure_check()


def test_slice_structure_check_rejects_a_wrong_partition(monkeypatch):
    chart = g2_chart()
    model = chart.model
    wrong = NilpotentModel(
        model.algebra, model.triple, (2, 1, 1, 1, 1, 1), model.family, model.form
    )
    monkeypatch.setattr(g2, "g2_chart", lambda: chart._replace(model=wrong))
    with pytest.raises(AssertionError, match="Jordan type"):
        slice_structure_check()


def test_slice_invariants_run_no_chart_check(monkeypatch):
    # the chart checks and the invariant form belong to the structure
    # check; the invariants and the hypersurface only read the chart
    def forbidden(*args):
        raise RuntimeError("not on the slice-invariants path")

    names = ("check_chart", "check_triple", "transversality_check", "invariant_form", "jordan_type")
    for name in names:
        monkeypatch.setattr(g2, name, forbidden)
    c2, c6 = slice_invariants.__wrapped__()
    assert (c2, c6) == slice_invariants()


def test_triple_is_nilpotent_pair():
    x, h, y = g2_triple()
    ad = lambda e, f: g2_bracket(e, f)
    assert ad(h, x) == x.scale(Scalar(2))
    assert ad(x, y) == h


def test_chi2_of_slice_element():
    c2, _ = slice_invariants()
    a, b, c, u = (MPoly.variable(n, VARS8) for n in ("a", "b", "c", "u"))
    assert c2 == -2 * (u - Fraction(3, 4) * (a * c - b * b))
    # the value g2_hypersurface eliminates u by
    subs, residuals = eliminate_triangular([c2], ["u"])
    assert subs == {"u": Fraction(3, 4) * (a * c - b * b)} and residuals == []


def test_chi6_identity_reading_frozen():
    assert CHI6_READING == ("z1", "-z2")
    assert chi6_identity_scan() == CHI6_READING


def test_hypersurface_equals_quotient_polynomial():
    f = g2_hypersurface()
    assert f == example_f()
    assert f.vars == VARS7
    assert f.coefficient((0,) * 7) == Scalar(0)
    for exps in f.terms:
        assert sum(exps) >= 2
    weights = {n: SLICE_DEGREES[n] for n in VARS7}
    assert f.quasi_homogeneous_degree(weights) == 12


def test_relations_are_quasi_homogeneous():
    rel = slice_relations(VARS7)
    weights = {n: SLICE_DEGREES[n] for n in VARS7}
    assert rel["t1"].quasi_homogeneous_degree(weights) == 6
    assert rel["t2"].quasi_homogeneous_degree(weights) == 6
    assert rel["t3"].quasi_homogeneous_degree(weights) == 6
    assert rel["z1"].quasi_homogeneous_degree(weights) == 5
    assert rel["z2"].quasi_homogeneous_degree(weights) == 5


def test_singular_locus_certificates_reconstruct_partials():
    f = g2_hypersurface()
    rel = slice_relations(VARS7)
    gens = [rel[k] for k in ("t1", "t2", "t3", "z1", "z2")]
    certs = singular_locus_certificates()
    assert set(certs) == set(VARS7)
    for var, cert in certs.items():
        assert cert.bound == 8
        total = MPoly.zero(VARS7)
        for h, g in zip(cert.cofactors, gens):
            total = total + h * g
        assert total == f.derivative(var)


def test_reverse_singular_locus_certificates():
    # forward certificates give V(relations) in Sing(f); these give the
    # reverse inclusion, so Sing(f) = V(relations), a set larger than the
    # vertex
    f = example_f()
    partials = [f.derivative(v) for v in VARS7]
    weights = {n: SLICE_DEGREES[n] for n in VARS7}
    least = min(p.quasi_homogeneous_degree(weights) for p in partials)
    assert least == 9
    rel = slice_relations(VARS7)
    for name in ("t1", "t2", "t3", "z1", "z2"):
        cube = rel[name] ** 3
        bound = cube.quasi_homogeneous_degree(weights) - least
        cert = ideal_membership_bounded(cube, partials, weights, bound)
        assert cert is not None, name
        total = MPoly.zero(VARS7)
        for h, g in zip(cert.cofactors, partials):
            total = total + h * g
        assert total == cube
        # everything is quasi-homogeneous, so this graded bound is
        # complete: no square of a relation is in the Jacobian ideal
        square = rel[name] ** 2
        bound = square.quasi_homogeneous_degree(weights) - least
        assert ideal_membership_bounded(square, partials, weights, bound) is None
    # a point of Sing(f) = V(relations) other than the vertex
    values = (Fraction(-2, 3), -1, -2, 0, Fraction(1, 3), 1, 2)
    point = {v: Scalar(x) for v, x in zip(VARS7, values)}
    assert not evaluate(f, point)
    assert not any(evaluate(p, point) for p in partials)
    assert not any(evaluate(r, point) for r in rel.values())


def test_singular_locus_against_sympy_groebner_bases():
    # an independent oracle for Sing(f) = V(t1, t2, t3, z1, z2): the
    # partials lie in the ideal of the relations, each relation cubed lies
    # in the Jacobian ideal, and no relation squared does
    sympy = pytest.importorskip("sympy")
    symbols = {v: sympy.Symbol(v) for v in VARS7}
    gens = list(symbols.values())
    f = g2_hypersurface()
    partials = [to_sympy(f.derivative(v), symbols) for v in VARS7]
    rel = slice_relations(VARS7)
    relations = [to_sympy(rel[k], symbols) for k in ("t1", "t2", "t3", "z1", "z2")]
    relation_basis = sympy.groebner(relations, *gens, order="grevlex")
    jacobian_basis = sympy.groebner(partials, *gens, order="grevlex")
    for partial in partials:
        assert relation_basis.reduce(partial)[1] == 0
    for relation in relations:
        assert jacobian_basis.reduce(sympy.expand(relation ** 3))[1] == 0
        assert jacobian_basis.reduce(sympy.expand(relation ** 2))[1] != 0


def test_s3_model_frozen_and_relations_vanish():
    found = s3_invariant_model()
    assert found == S3_NORMALIZATION
    assert found["alpha"] == Fraction(2, 3)
    pol = s3_polarizations()
    images = {
        "a": pol["a"] * found["alpha"], "c": pol["c"] * found["alpha"],
        "b": pol["b"] * found["beta"],
        "p": pol["p"] * found["pi"], "s": pol["s"] * found["pi"],
        "q": pol["q"] * found["kappa"], "r": pol["r"] * found["kappa"],
    }
    # direct check of one relation by hand-expansion
    t1 = slice_relations(VARS7)["t1"]
    acc = MPoly.zero(pol["a"].vars)
    for exps, coef in t1.terms.items():
        term = MPoly.constant(coef, pol["a"].vars)
        for var, e in zip(VARS7, exps):
            for _ in range(e):
                term = term * images[var]
        acc = acc + term
    assert acc.is_zero()


def test_s3_model_rejects_a_normalization_off_the_degree_5_ratios(monkeypatch):
    monkeypatch.setattr(g2, "S3_NORMALIZATION", {**S3_NORMALIZATION, "beta": Fraction(2, 3)})
    with pytest.raises(AssertionError, match="degree-5 ratios"):
        s3_invariant_model()


def test_s3_model_rejects_a_normalization_off_the_cubic_coupling(monkeypatch):
    # kappa and pi doubled keep pi/kappa = 3, but alpha^3 no longer
    # matches kappa^2 along the degree-6 kernel line
    broken = {**S3_NORMALIZATION, "kappa": Fraction(2, 3), "pi": Fraction(2)}
    monkeypatch.setattr(g2, "S3_NORMALIZATION", broken)
    with pytest.raises(AssertionError, match="coupling"):
        s3_invariant_model()


def test_combination_and_coords_on_the_basis():
    alg = g2.g2_algebra()
    for k, b in enumerate(g2_basis()):
        unit = [Scalar(int(i == k)) for i in range(14)]
        assert alg.combination(unit) == b
        assert alg.coords(b) == unit


def test_coords_reject_an_so7_element_outside_g2():
    # a skew top-right block with w = 0 preserves the invariant form, but
    # g2 ties that block to the w entries of column 3 and row 3
    e = PolyMatrix.from_entries(7, 7, {(0, 5): 1, (1, 4): -1})
    g = invariant_form()
    assert (e.transpose() * g + g * e).is_zero()
    with pytest.raises(ValueError, match="^matrix is not in g2$"):
        g2.g2_algebra().coords(e)


def test_coords_and_ad_reject_an_a_block_with_a_trace():
    # diag(1, 0, 0) would read as H1 = H2 = 1, which recombines to
    # diag(1, 0, -1): a readout for an element outside g2
    e = g2_element([[1, 0, 0], [0, 0, 0], [0, 0, 0]], (0, 0, 0), (0, 0, 0))
    alg = g2.g2_algebra()
    with pytest.raises(ValueError, match="^matrix is not in g2$"):
        alg.coords(e)
    with pytest.raises(ValueError, match="^matrix is not in g2$"):
        alg.ad_matrix(e)


def test_coords_and_ad_reject_a_matrix_of_another_shape():
    alg = g2.g2_algebra()
    x = g2_triple()[0]
    # x padded with a zero row and column, cut to its top-left 6x6 corner,
    # and its first six columns
    padded = PolyMatrix.from_entries(8, 8, {(i, j): v for i, j, v in x.nonzeros()})
    for e in (padded, x.submatrix(0, 6, 0, 6), x.submatrix(0, 7, 0, 6)):
        with pytest.raises(ValueError, match="^matrix is not in g2$"):
            alg.coords(e)
        with pytest.raises(ValueError, match="^matrix is not in g2$"):
            alg.ad_matrix(e)


def test_flatten_roundtrip_dimension():
    alg = g2.g2_algebra()
    matrix = PolyMatrix([alg.coords(e) for e in g2_basis()])
    assert rank(matrix) == 14


def test_g2_element_shape_validation():
    with pytest.raises(ValueError):
        g2_element(PolyMatrix.zeros(2, 2), PolyMatrix.zeros(3, 1), PolyMatrix.zeros(1, 3))
    with pytest.raises(ValueError):
        g2_element(PolyMatrix.zeros(3, 3), PolyMatrix.zeros(1, 3), PolyMatrix.zeros(1, 3))
    with pytest.raises(ValueError):
        g2_element([[0] * 3] * 3, (0, 0), (0, 0, 0))


def test_g2_element_puts_every_entry_in_the_ring_of_its_blocks():
    # a Scalar A block beside a polynomial v block: the Scalar entries
    # become constant polynomials, so the element equals the one built
    # from polynomial constants and computes like it
    t = MPoly.variable("t", ("t",))
    c = lambda k: MPoly.constant(k, ("t",))  # noqa: E731
    diag = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    mixed = g2_element(diag, (t, 0, 0), (0, 0, 0))
    polys = g2_element([[c(k) for k in row] for row in diag], (t, c(0), c(0)), (c(0),) * 3)
    assert mixed == polys
    assert all(type(x) is MPoly for _, _, x in mixed.nonzeros())
    assert mixed * mixed == polys * polys
