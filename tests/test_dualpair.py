from fractions import Fraction
from random import Random

import pytest

import exactlie.dualpair as dualpair
from exactlie.dualpair import (
    MOMENT_CONSTANT,
    _bracket_table,
    _distinct_up_to_sign,
    _forms,
    adjoint,
    commutant_check,
    equivariance_check,
    kp_find_element,
    kp_maps,
    moment_identity_check,
    pfaffian_locus_check,
    poisson_tensor,
    rank_chain_check,
    coordinate_names,
    symbolic_element,
)
from exactlie.liealg import (
    isometry_element, jordan_type, make_algebra, preserves_form, standard_form,
)
from exactlie.polymat import PolyMatrix, invert, pfaffian, rank


def random_x(n, rng, bound=4):
    return PolyMatrix(
        [[rng.randint(-bound, bound) for _ in range(2 * n)] for _ in range(2 * n - 2)]
    )


def forms(n):
    return standard_form("so", 2 * n), standard_form("sp", 2 * n - 2)


def omega_matrix(n):
    # omega(E_ab, E_cd) = 2 (G_V^-1)_bd (G_U)_ca entry by entry, with G_V
    # inverted by row reduction: the oracle for the closed-form tensor
    G_V, G_U = forms(n)
    G_V_inv = invert(G_V)
    du, dv = 2 * n - 2, 2 * n
    return PolyMatrix(
        [
            [
                2 * G_V_inv.entry(b, d) * G_U.entry(c, a)
                for c in range(du)
                for d in range(dv)
            ]
            for a in range(du)
            for b in range(dv)
        ]
    )


def test_config_validation():
    for n in (1, 0, -1):
        with pytest.raises(ValueError):
            _forms(n)
    with pytest.raises(ValueError):
        commutant_check(1)
    for n in (2, 3, 4, 5):
        G_V, G_U = _forms(n)
        assert (G_V, G_U) == forms(n)
        # the identities that replace the two stored inverses
        assert invert(G_V) == G_V
        assert invert(G_U) == G_U.scale(-1)


def test_adjoint_defining_identity():
    rng = Random(7)
    for n in (2, 3, 4):
        G_V, G_U = forms(n)
        for _ in range(5):
            X = random_x(n, rng)
            Xs = adjoint(X)
            assert Xs == invert(G_V) * X.transpose() * G_U
            # (Xv, u)_U = (v, X*u)_V on all basis pairs, as one matrix identity
            assert X.transpose() * G_U == G_V * Xs
    for rows, cols in ((3, 3), (6, 4), (4, 5)):
        with pytest.raises(ValueError):
            adjoint(PolyMatrix.zeros(rows, cols))


def test_zero_element():
    X = PolyMatrix.zeros(4, 6)
    assert adjoint(X).is_zero()
    pi, rho = kp_maps(X)
    assert pi.is_zero() and rho.is_zero()
    assert pfaffian_locus_check(X)


def test_kp_maps_land_in_the_right_algebras():
    rng = Random(3)
    for n in (2, 3):
        for _ in range(10):
            pi, rho = kp_maps(random_x(n, rng))  # asserts membership
            assert pi.nrows == 2 * n - 2 and rho.nrows == 2 * n


def test_pfaffian_locus():
    rng = Random(5)
    for n in (3, 4):
        for _ in range(30):
            assert pfaffian_locus_check(random_x(n, rng))
    # negative control: a nondegenerate skew matrix has nonzero pfaffian
    assert not pfaffian(standard_form("sp", 6)).is_zero()
    assert not pfaffian(standard_form("sp", 8)).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pfaffian_locus_holds_on_the_symbolic_element(n):
    # pf(Xt G_U X) = 0 as a polynomial in the (2n-2) x 2n entries of X,
    # so the pfaffian locus holds for every X, not only the sampled ones
    assert pfaffian_locus_check(symbolic_element(n))


def test_pfaffian_locus_matrix_equals_g_v_times_rho():
    # the skew matrix as formed before pfaffian_locus_check read it as
    # Xt (G_U X): G_V times rho = X*X, with X* from the adjoint
    rng = Random(11)
    for n in (2, 3, 4, 5):
        G_V, G_U = forms(n)
        for _ in range(4):
            X = random_x(n, rng)
            old = G_V * (adjoint(X) * X)
            assert old == X.transpose() * (G_U * X)
            assert pfaffian_locus_check(X) == pfaffian(old).is_zero()


def test_pfaffian_locus_rejects_a_symmetric_form_on_u(monkeypatch):
    # with a symmetric form in place of G_U, X*X leaves the orthogonal
    # algebra and Xt G_U X is not skew: the membership check must bite
    symmetric = {n: (standard_form("so", 2 * n), standard_form("so", 2 * n - 2)) for n in (3, 4)}
    monkeypatch.setattr(dualpair, "_forms", symmetric.__getitem__)
    rng = Random(13)
    for n in (3, 4):
        with pytest.raises(ValueError, match="skew"):
            pfaffian_locus_check(random_x(n, rng))


def valid_indices(n_max):
    return [(n, i) for n in range(2, n_max + 1) for i in range(1, n + 1) if i % 2 or i == n]


def test_witness_elements_prescribed_types():
    cases = valid_indices(7)
    assert len(cases) == 18
    spot = {
        (3, 3): ((3, 3), (2, 2)),
        (4, 3): ((5, 3), (4, 2)),
        (4, 1): ((7, 1), (6,)),
        (5, 5): ((5, 5), (4, 4)),
        (4, 4): ((4, 4), (3, 3)),
        (2, 1): ((3, 1), (2,)),
    }
    for n, i in cases:
        want_rho = (2 * n - i, i)
        want_pi = (2 * n - i - 1,) if i == 1 else (2 * n - i - 1, i - 1)
        if (n, i) in spot:
            assert (want_rho, want_pi) == spot[n, i]
        el = kp_find_element(n, i)
        assert (el.n, el.i) == (n, i)
        assert (el.rho_type, el.pi_type) == (want_rho, want_pi)
        pi, rho = kp_maps(el.X)  # asserts both algebra memberships
        assert jordan_type(rho) == want_rho
        assert jordan_type(pi) == want_pi
        assert rank(el.X) == 2 * n - 2


def test_witness_sign_is_a_choice():
    # negating s (column n-1 below the top rows) changes the printed matrix
    # only: the flipped witness passes the same checks
    for n, i in valid_indices(6):
        if i % 2 == 0:
            continue
        el = kp_find_element(n, i)
        X = el.X
        rows = [[X.entry(r, c) for c in range(2 * n)] for r in range(2 * n - 2)]
        for r in range(n - 1, 2 * n - 2):
            rows[r][n - 1] = -rows[r][n - 1]
        flipped = PolyMatrix(rows)
        assert flipped != X
        pi, rho = kp_maps(flipped)
        assert rank(flipped) == 2 * n - 2
        assert (jordan_type(rho), jordan_type(pi)) == (el.rho_type, el.pi_type)


def test_witness_rejects_bad_indices():
    for n, i in ((4, 2), (3, 0), (3, 4), (5, 2)):
        with pytest.raises(ValueError, match="1 <= i <= n"):
            kp_find_element(n, i)
    for n, i in ((1, 1), (0, 1)):
        with pytest.raises(ValueError, match="need n >= 2"):
            kp_find_element(n, i)


def test_witness_checks_reject_a_wrong_matrix(monkeypatch):
    # the closed form is trusted for nothing: a rank-deficient matrix and a
    # surjective matrix of the wrong types are both refused
    monkeypatch.setattr(dualpair, "_witness", lambda n, i: PolyMatrix.zeros(2 * n - 2, 2 * n))
    with pytest.raises(AssertionError, match="not surjective"):
        kp_find_element(4, 3)
    monkeypatch.undo()
    one_block = dualpair._witness(4, 1)
    monkeypatch.setattr(dualpair, "_witness", lambda n, i: one_block)
    with pytest.raises(
        AssertionError,
        match=r"^witness has the wrong Jordan types: got \(7, 1\)/\(6,\), wanted \(5, 3\)/\(4, 2\)$",
    ):
        kp_find_element(4, 3)


def test_witness_membership_is_checked(monkeypatch):
    # with a symmetric form in place of G_U the witness's X*X leaves the
    # orthogonal algebra, and kp_maps refuses it
    symmetric = {4: (standard_form("so", 8), standard_form("so", 6))}
    monkeypatch.setattr(dualpair, "_forms", symmetric.__getitem__)
    with pytest.raises(AssertionError, match="X\\*X does not preserve"):
        kp_find_element(4, 3)


def test_omega_is_symplectic():
    for n in (2, 3, 4, 5):
        omega = omega_matrix(n)
        dim = 2 * n * (2 * n - 2)
        assert omega.nrows == dim
        assert omega.is_skew()
        tensor = poisson_tensor(n)
        assert (omega * tensor) == PolyMatrix.identity(dim)
        assert invert(omega) == tensor


def test_sp_basis_dimension_and_membership():
    for n in (2, 3):
        du = 2 * n - 2
        G_U = forms(n)[1]
        alg = make_algebra("sp", du, G_U)
        basis = alg.basis
        assert len(basis) == du * (du + 1) // 2
        for k, xi in enumerate(basis):
            assert alg.coords(xi) == [int(i == k) for i in range(len(basis))]
            assert (xi.transpose() * G_U + G_U * xi).is_zero()


def test_entries_of_the_two_maps_commute():
    # the brackets are formed once per entry up to sign, but every entry
    # pair of XX* and X*X is counted
    for n, pairs in ((2, 64), (3, 576), (4, 2304)):
        report = commutant_check(n)
        assert report["violations"] == 0
        du, dv = 2 * n - 2, 2 * n
        assert report["pairs"] == du * du * dv * dv == pairs


def test_distinct_entries_up_to_sign_match_the_algebra_dimensions():
    # XX* in sp(2n-2) and X*X in so(2n) have one entry per basis element
    # up to sign, so 21 x 28 = 588 brackets decide the 2,304 pairs at n = 4
    for n in (2, 3, 4):
        pi, rho = kp_maps(symbolic_element(n))
        du, dv = 2 * n - 2, 2 * n
        pi_reps = _distinct_up_to_sign(_entries(pi))
        rho_reps = _distinct_up_to_sign(_entries(rho))
        assert len(pi_reps) == du * (du + 1) // 2
        assert len(rho_reps) == dv * (dv - 1) // 2
        assert sum(pi_reps.values()) == sum(1 for p in _entries(pi) if p)
        assert sum(rho_reps.values()) == sum(1 for p in _entries(rho) if p)


def test_commutant_check_catches_one_altered_rho_entry(monkeypatch):
    # one variable added to a single entry of X*X splits it from its
    # mirror entry, and its own bracket with XX* must be formed
    right = dualpair.kp_maps

    def altered(X):
        pi, rho = right(X)
        rows = [[rho.entry(r, c) for c in range(rho.ncols)] for r in range(rho.nrows)]
        rows[0][1] = rows[0][1] + X.entry(0, 0)
        return pi, PolyMatrix(rows)

    monkeypatch.setattr(dualpair, "kp_maps", altered)
    for n in (2, 3):
        with pytest.raises(AssertionError, match="fail to commute"):
            commutant_check(n)


def test_commutant_check_asserts_algebra_membership(monkeypatch):
    # with the transpose in place of the form adjoint, XX* leaves sp(U);
    # the symbolic check must say so rather than only compare brackets
    monkeypatch.setattr(dualpair, "adjoint", lambda X: X.transpose())
    with pytest.raises(AssertionError, match="preserve"):
        commutant_check(2)


def test_moment_identity_fails_with_the_transpose_as_adjoint(monkeypatch):
    monkeypatch.setattr(dualpair, "adjoint", lambda X: X.transpose())
    with pytest.raises(AssertionError, match="moment identity fails"):
        moment_identity_check(2)


def test_moment_identity_rejects_a_wrong_frozen_constant(monkeypatch):
    monkeypatch.setattr(dualpair, "MOMENT_CONSTANT", Fraction(2))
    with pytest.raises(AssertionError, match="moment identity fails for the frozen constant 2"):
        moment_identity_check(3)


def test_bracket_is_skew_on_a_sample_entry():
    X = symbolic_element(2)
    pi = X * adjoint(X)
    entry = pi.entry(0, 1)
    assert _bracket_table(2, [entry], [entry])[0].is_zero()


def _entries(m):
    return [m.entry(r, c) for r in range(m.nrows) for c in range(m.ncols)]


def _naive_brackets(n, polys_a, polys_b):
    # sum_{alpha, beta} pi_{alpha beta} d_alpha f d_beta g, every entry of
    # the full tensor read as a dense row; the tensor is omega inverted by
    # row reduction, not the closed form that _bracket_table reads
    names = coordinate_names(n)
    tensor = invert(omega_matrix(n))
    dense = [tensor.row(alpha) for alpha in range(len(names))]
    da = [[f.derivative(v) for v in names] for f in polys_a]
    db = [[g.derivative(v) for v in names] for g in polys_b]
    out = []
    for df in da:
        for dg in db:
            acc = df[0] - df[0]
            for alpha, row in enumerate(dense):
                for beta, coef in enumerate(row):
                    if coef:
                        acc = acc + coef * (df[alpha] * dg[beta])
            out.append(acc)
    return out


def test_bracket_table_equals_the_naive_double_sum():
    pi, rho = kp_maps(symbolic_element(2))
    for a, b in ((pi, rho), (pi, pi), (rho, rho)):
        assert _bracket_table(2, _entries(a), _entries(b)) == _naive_brackets(
            2, _entries(a), _entries(b)
        )
    pi, rho = kp_maps(symbolic_element(3))
    assert _bracket_table(3, _entries(pi), _entries(rho)) == _naive_brackets(
        3, _entries(pi), _entries(rho)
    )


def test_bracket_table_does_not_vanish_on_xx_star_with_itself():
    # entries of XX* span a copy of sp(U) and do not commute with each
    # other, so a table of zeros cannot pass for the commutant
    for n, nonzero in ((2, 10), (3, 164), (4, 654)):
        pi, _ = kp_maps(symbolic_element(n))
        table = _bracket_table(n, _entries(pi), _entries(pi))
        assert sum(1 for b in table if b) == nonzero


def test_moment_identity_constant_is_frozen():
    assert MOMENT_CONSTANT == Fraction(1)
    for n in (2, 3):
        value = moment_identity_check(n)
        # a Fraction, not the int a Scalar stores: reports print it as text
        assert type(value) is Fraction
        assert value == MOMENT_CONSTANT


def test_equivariance_under_exact_isometries():
    assert equivariance_check(2, samples=5, seed=1) == 10
    assert equivariance_check(3, samples=5, seed=2) == 10


def test_equivariance_generators_are_the_mirrored_pairs():
    # the written-down generators at (0, 1) are the ones a search over the
    # sign s of E_01 + s E_(m-2, m-1) finds; at m = 2 that is E_01 alone
    for n in range(2, 9):
        for g, symmetric in zip(dualpair._forms(n), (True, False)):
            m = g.nrows
            searched = [
                cand
                for cand in (
                    PolyMatrix.from_entries(m, m, {(0, 1): 1, (m - 2, m - 1): s})
                    for s in (1, -1)
                )
                if preserves_form(cand, g, symmetric)
            ]
            assert isometry_element(g, 0, 1) == searched[0]


def test_rank_chains():
    assert rank_chain_check(3, samples=20, seed=0) == 20
    assert rank_chain_check(4, samples=10, seed=1) == 10
