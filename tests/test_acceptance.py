"""Acceptance gate: one test per headline claim, exact arithmetic only.

Every assertion is an equality of Fractions, polynomials, or integers;
there are no tolerances anywhere.  Run with -v to get one pass/fail line
per criterion.

Criterion 1 proves the sign that the elimination gives,
(2n-3)!(a^2x + 2aby + b^2z) + (-1)^(n-1)(xz - y^2)^n, against a
central-fibre oracle built in the test, and pins the disagreement with
the printed reference form (which fixes the minus sign): the two agree
at even n and differ by exactly 2(xz - y^2)^n at odd n.  The mismatch
stays visible: `exactlie check` and `exactlie slice --rank 3` still exit
1 on the printed-form checks; see README.
"""

import math
from fractions import Fraction
from random import Random

from exactlie.mpoly import MPoly
from exactlie.polymat import (
    PolyMatrix,
    charpoly_coefficients,
    det_cofactor,
    determinant,
    pfaffian,
)
from exactlie.scalar import Scalar
from exactlie import classify as cls
from exactlie import dualpair as dp
from exactlie import f4
from exactlie import g2
from exactlie.slicegeom import (
    HOOK_VARS,
    derived_hook_f,
    expected_hook_f,
    hook_factorization,
    hook_pipeline,
    hook_normal_form,
    normalize_to_hook_form,
)


def test_criterion_1_hook_hypersurface_matches_reference_form():
    for n in (2, 3, 4, 5):
        hyp = hook_pipeline(n)
        inv = hyp.invariants

        # central-fibre oracle: once the t's are eliminated every middle
        # lam-coefficient vanishes, so with c = xz - y^2 the long-block
        # factor telescopes to sum_i (-c)^i lam^(2n-2-2i)
        v = inv.vars
        lam = MPoly.variable("lam", v)
        a, b, x, y, z = (MPoly.variable(s, v) for s in HOOK_VARS)
        c = x * z - y * y
        k = math.factorial(2 * n - 3)
        long_block = MPoly.zero(v)
        for i in range(n):
            long_block = long_block + (-c) ** i * lam ** (2 * n - 2 - 2 * i)
        hook = k * (a * a * x + 2 * a * b * y + b * b * z)
        central = hook + (lam ** 2 + c) * long_block
        assert inv.charpoly.substitute(hyp.eliminations) == central, (
            f"n={n}: eliminated characteristic polynomial is not the central fibre"
        )
        f_central = central.coefficient_in("lam", 0).with_vars(HOOK_VARS)
        assert hyp.f == f_central, f"n={n}: f is not the lam^0 coefficient"
        assert derived_hook_f(n) == f_central, f"n={n}: derived_hook_f disagrees"

        # normal form: a diagonal chart change and a unit reach the literal
        # a^2x + 2aby + b^2z + (xz - y^2)^n
        ha, hb, hx, hy, hz = (MPoly.variable(s, HOOK_VARS) for s in HOOK_VARS)
        literal = (
            ha * ha * hx + 2 * ha * hb * hy + hb * hb * hz + (hx * hz - hy * hy) ** n
        )
        norm = normalize_to_hook_form(hyp.f, n)
        assert hook_normal_form(n) == literal
        assert norm.image == literal, f"normalization failed at n={n}"
        assert hyp.f.substitute(norm.mapping) * norm.unit == literal

        # pinned disagreement with the printed reference form
        diff = hyp.f - expected_hook_f(n)
        want = MPoly.zero(HOOK_VARS) if n % 2 == 0 else 2 * (hx * hz - hy * hy) ** n
        assert diff == want, (
            f"n={n}: derived f minus the printed form is {diff.to_text()}, "
            f"expected {want.to_text()}"
        )


def test_criterion_2_hook_factorization():
    for n in (2, 3, 4, 5):
        quotient, long_cp = hook_factorization(n)
        assert not quotient.is_zero()
        assert not long_cp.is_zero()
        # the long-block characteristic polynomial is monic of degree
        # 2n-2 in lam and even in lam
        assert long_cp.degree_in("lam") == 2 * n - 2
        for exps, _ in long_cp.sorted_terms():
            lam_idx = long_cp.vars.index("lam")
            assert exps[lam_idx] % 2 == 0


def test_criterion_3_g2_structure_suite():
    assert g2.jacobi_full() == 14 ** 3
    assert g2.embedding_homomorphism_full() == 14 ** 2

    form = g2.invariant_form()
    assert form == form.transpose()
    for r in g2.g2_basis():
        assert (r.transpose() * form + form * r).is_zero()

    c2, c6 = g2.slice_invariants()
    a, b, c, u = (MPoly.variable(n, g2.VARS8) for n in ("a", "b", "c", "u"))
    assert c2 == -2 * (u - Fraction(3, 4) * (a * c - b * b))

    assert g2.chi6_identity_scan() == ("z1", "-z2")
    assert g2.CHI6_READING == ("z1", "-z2")

    f = g2.g2_hypersurface()
    assert f == g2.example_f()
    weights = {v: g2.SLICE_DEGREES[v] for v in g2.VARS7}
    assert f.quasi_homogeneous_degree(weights) == 12

    # the closed chi formulas as one polynomial identity on the generic
    # element in the 14 basis coordinates
    assert g2.chi_crosscheck() == 14


def test_criterion_4_singular_locus_certificates():
    assert g2.RETRY_BOUND == 12
    certs = g2.singular_locus_certificates(bound=8)
    assert sorted(certs) == sorted(g2.VARS7)
    f = g2.g2_hypersurface()
    rel = g2.slice_relations(g2.VARS7)
    gens = [rel[k] for k in ("t1", "t2", "t3", "z1", "z2")]
    for var, cert in certs.items():
        assert cert.bound <= 12
        total = MPoly.zero(g2.VARS7)
        for cof, gen in zip(cert.cofactors, gens):
            total = total + cof * gen
        assert total == f.derivative(var), f"certificate for d/d{var} does not expand back"


def test_criterion_5_classifier_tables():
    for family in ("B", "C"):
        for n in range(2, 9):
            assert cls.exception_set_matches(family, n), (family, n)

    for family, lo in (("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, 7):
            for row in cls.enumerate_orbits(family, n):
                assert row["star"] == (row["b2"] == n), (family, n, row)
    for row in cls.enumerate_orbits("G", 2):
        assert row["star"] == (row["b2"] == 2), row
    for row in cls.enumerate_orbits("F", 4):
        assert row["star"] == (row["b2"] == 4), row

    for family in ("B", "C"):
        for n in range(2, 7):
            assert cls.monotonicity_check(family, n) > 0, (family, n)
    for n in range(3, 7):
        assert cls.monotonicity_check("D", n) > 0, n
    assert cls.monotonicity_check("G", 2) == 3


def test_criterion_6_f4_grading_and_betti():
    system = f4.f4_roots()
    assert len(system.roots) == 48
    graded = f4.f4_grading()
    assert graded.dims[0] == 8
    assert graded.dims[2] == 8
    layer = {root for root in system.roots if f4.grade(root) == 2}
    assert layer == set(f4.GRADE2_DIAGRAM)

    planes = f4.f4_invariant_hyperplanes()
    assert len(planes) == 2
    assert [h["bidegree"] for h in planes] == [(0, 1), (1, 2)]

    report = f4.f4_betti_subsubregular()
    assert report["b2"] == 4
    assert report["base"] == 2
    assert report["components"] == [1, 1]
    assert report["decomposition"] == "2+1+1"


def test_criterion_7_orthosymplectic_witnesses():
    wanted = {
        (3, 3): ((3, 3), (2, 2)),
        (4, 3): ((5, 3), (4, 2)),
        (4, 1): ((7, 1), (6,)),
        (5, 5): ((5, 5), (4, 4)),
    }
    for (n, i), (rho_t, pi_t) in wanted.items():
        elt = dp.kp_find_element(n, i)
        assert elt.rho_type == rho_t, (n, i, elt.rho_type)
        assert elt.pi_type == pi_t, (n, i, elt.pi_type)

    rng = Random(0)
    for n in (3, 4):
        for _ in range(100):
            X = PolyMatrix(
                [
                    [rng.randint(-5, 5) for _ in range(2 * n)]
                    for _ in range(2 * n - 2)
                ]
            )
            assert dp.pfaffian_locus_check(X)

    for n in (2, 3, 4):
        report = dp.commutant_check(n)
        assert report["violations"] == 0
        assert report["pairs"] == (2 * n - 2) ** 2 * (2 * n) ** 2

    assert dp.MOMENT_CONSTANT == Fraction(1)
    for n in (2, 3):
        assert dp.moment_identity_check(n) == dp.MOMENT_CONSTANT


def test_criterion_8_kernel_properties():
    rng = Random(1)
    for dim in (2, 4, 6, 8):
        for _ in range(10):
            rows = [[0] * dim for _ in range(dim)]
            for r in range(dim):
                for c in range(r + 1, dim):
                    v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    rows[r][c] = v
                    rows[c][r] = -v
            m = PolyMatrix(rows)
            assert pfaffian(m) * pfaffian(m) == determinant(m)

    vars = ("t",)
    t = MPoly.variable("t", vars)
    for dim in (1, 2, 3, 4):
        for _ in range(10):
            m = PolyMatrix(
                [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(dim)]
            )
            coeffs = charpoly_coefficients(m)
            assert len(coeffs) == dim + 1
            assert coeffs[0] == Scalar(1)
            poly = MPoly.zero(vars)
            for k, coef in enumerate(coeffs):
                poly = poly + coef * t ** (dim - k)
            shifted = PolyMatrix(
                [
                    [t * (1 if r == c else 0) - m.entry(r, c) for c in range(dim)]
                    for r in range(dim)
                ]
            )
            assert poly == det_cofactor(shifted)

    names = ("x", "y", "z")
    for k in range(1000):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = tuple(rng.randint(0, 4) for _ in names)
            terms[exps] = Scalar(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 5)),
            )
        p = MPoly(names, terms)
        assert MPoly.from_text(p.to_text(), names) == p, f"text roundtrip, sample {k}"
        assert MPoly.from_json(p.to_json()) == p, f"json roundtrip, sample {k}"
