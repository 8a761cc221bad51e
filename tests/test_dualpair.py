from fractions import Fraction
from random import Random

import pytest

from exactlie.dualpair import (
    KPConfig,
    MOMENT_CONSTANT,
    _bracket_table,
    adjoint,
    commutant_check,
    default_config,
    equivariance_check,
    kp_find_element,
    kp_maps,
    moment_identity_check,
    omega_matrix,
    pfaffian_locus_check,
    poisson_tensor,
    rank_chain_check,
    coordinate_names,
    symbolic_element,
)
from exactlie.liealg import make_algebra, standard_form
from exactlie.polymat import PolyMatrix, pfaffian, rank


def random_x(n, rng, bound=4):
    return PolyMatrix(
        [[rng.randint(-bound, bound) for _ in range(2 * n)] for _ in range(2 * n - 2)]
    )


def test_config_validation():
    with pytest.raises(ValueError):
        KPConfig(1, standard_form("so", 2), standard_form("sp", 2))
    with pytest.raises(ValueError):
        KPConfig(3, standard_form("sp", 6), standard_form("sp", 4))
    with pytest.raises(ValueError):
        KPConfig(3, standard_form("so", 6), standard_form("so", 4))
    default_config(3)


def test_adjoint_defining_identity():
    cfg = default_config(3)
    rng = Random(7)
    for _ in range(5):
        X = random_x(3, rng)
        Xs = adjoint(cfg, X)
        # (Xv, u)_U = (v, X*u)_V on all basis pairs, as one matrix identity
        assert X.transpose() * cfg.G_U == cfg.G_V * Xs


def test_adjoint_is_an_antiinvolution():
    cfg = default_config(3)
    rng = Random(11)
    for _ in range(5):
        X = random_x(3, rng)
        assert adjoint(cfg, adjoint(cfg, X)) == X.scale(-1)
    with pytest.raises(ValueError):
        adjoint(cfg, PolyMatrix.zeros(3, 3))


def test_zero_element():
    cfg = default_config(3)
    X = PolyMatrix.zeros(4, 6)
    assert adjoint(cfg, X).is_zero()
    pi, rho = kp_maps(cfg, X)
    assert pi.is_zero() and rho.is_zero()
    assert pfaffian_locus_check(cfg, X)


def test_kp_maps_land_in_the_right_algebras():
    rng = Random(3)
    for n in (2, 3):
        cfg = default_config(n)
        for _ in range(10):
            pi, rho = kp_maps(cfg, random_x(n, rng))  # asserts membership
            assert pi.nrows == 2 * n - 2 and rho.nrows == 2 * n


def test_pfaffian_locus():
    rng = Random(5)
    for n in (3, 4):
        cfg = default_config(n)
        for _ in range(30):
            assert pfaffian_locus_check(cfg, random_x(n, rng))
    # negative control: a nondegenerate skew matrix has nonzero pfaffian
    assert not pfaffian(standard_form("sp", 6)).is_zero()
    assert not pfaffian(standard_form("sp", 8)).is_zero()


def test_witness_elements_prescribed_types():
    cases = {
        (3, 3): ((3, 3), (2, 2)),
        (4, 3): ((5, 3), (4, 2)),
        (4, 1): ((7, 1), (6,)),
        (5, 5): ((5, 5), (4, 4)),
        (4, 4): ((4, 4), (3, 3)),
        (2, 1): ((3, 1), (2,)),
    }
    for (n, i), (want_rho, want_pi) in cases.items():
        el = kp_find_element(n, i)
        assert el.rho_type == want_rho
        assert el.pi_type == want_pi
        assert rank(el.X) == 2 * n - 2


def test_witness_rejects_bad_indices():
    for n, i in ((4, 2), (3, 0), (3, 4), (5, 2)):
        with pytest.raises(ValueError):
            kp_find_element(n, i)


def test_omega_is_symplectic():
    for n in (2, 3, 4):
        cfg = default_config(n)
        omega = omega_matrix(cfg)
        dim = 2 * n * (2 * n - 2)
        assert omega.nrows == dim
        assert omega.is_skew()
        tensor = poisson_tensor(cfg)
        assert (omega * tensor) == PolyMatrix.identity(dim)


def test_sp_basis_dimension_and_membership():
    for n in (2, 3):
        cfg = default_config(n)
        du = 2 * n - 2
        alg = make_algebra("sp", du, cfg.G_U)
        basis = alg.basis
        assert len(basis) == du * (du + 1) // 2
        for k, xi in enumerate(basis):
            assert alg.coords(xi) == [int(i == k) for i in range(len(basis))]
            assert (xi.transpose() * cfg.G_U + cfg.G_U * xi).is_zero()


def test_entries_of_the_two_maps_commute():
    for n in (2, 3, 4):
        report = commutant_check(default_config(n))
        assert report["violations"] == 0
        du, dv = 2 * n - 2, 2 * n
        assert report["pairs"] == du * du * dv * dv


def test_commutant_check_asserts_algebra_membership(monkeypatch):
    # with the transpose in place of the form adjoint, XX* leaves sp(U);
    # the symbolic check must say so rather than only compare brackets
    import exactlie.dualpair as dualpair

    monkeypatch.setattr(dualpair, "adjoint", lambda cfg, X: X.transpose())
    with pytest.raises(AssertionError, match="preserve"):
        commutant_check(default_config(2))


def test_bracket_is_skew_on_a_sample_entry():
    cfg = default_config(2)
    X = symbolic_element(cfg)
    Xs = adjoint(cfg, X)
    pi = X * Xs
    from exactlie.dualpair import _bracket_table

    entry = pi.entry(0, 1)
    assert _bracket_table(cfg, [entry], [entry])[0].is_zero()


def _entries(m):
    return [m.entry(r, c) for r in range(m.nrows) for c in range(m.ncols)]


def _naive_brackets(cfg, polys_a, polys_b):
    # sum_{alpha, beta} pi_{alpha beta} d_alpha f d_beta g, every entry of
    # the full tensor read as a dense row
    names = coordinate_names(cfg.n)
    tensor = poisson_tensor(cfg)
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
    cfg = default_config(2)
    pi, rho = kp_maps(cfg, symbolic_element(cfg))
    for a, b in ((pi, rho), (pi, pi), (rho, rho)):
        assert _bracket_table(cfg, _entries(a), _entries(b)) == _naive_brackets(
            cfg, _entries(a), _entries(b)
        )
    cfg = default_config(3)
    pi, rho = kp_maps(cfg, symbolic_element(cfg))
    assert _bracket_table(cfg, _entries(pi), _entries(rho)) == _naive_brackets(
        cfg, _entries(pi), _entries(rho)
    )


def test_bracket_table_does_not_vanish_on_xx_star_with_itself():
    # entries of XX* span a copy of sp(U) and do not commute with each
    # other, so a table of zeros cannot pass for the commutant
    for n, nonzero in ((2, 10), (3, 164), (4, 654)):
        cfg = default_config(n)
        pi, _ = kp_maps(cfg, symbolic_element(cfg))
        table = _bracket_table(cfg, _entries(pi), _entries(pi))
        assert sum(1 for b in table if b) == nonzero


def test_moment_identity_constant_is_frozen():
    assert MOMENT_CONSTANT == Fraction(1)
    for n in (2, 3):
        value = moment_identity_check(default_config(n))
        # a Fraction, not the int a Scalar stores: reports print it as text
        assert type(value) is Fraction
        assert value == MOMENT_CONSTANT


def test_equivariance_under_exact_isometries():
    assert equivariance_check(default_config(2), samples=5, seed=1) == 10
    assert equivariance_check(default_config(3), samples=5, seed=2) == 10


def test_rank_chains():
    assert rank_chain_check(default_config(3), samples=20, seed=0) == 20
    assert rank_chain_check(default_config(4), samples=10, seed=1) == 10
