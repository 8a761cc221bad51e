"""Tests for the matrix Lie algebra layer: algebras cut out by forms,
sl2-triples with adapted bases, Jordan types, and slice charts."""

import hashlib
import random
import re
from fractions import Fraction

import pytest

from exactlie import liealg, polymat
from exactlie.classify import partitions_of
from exactlie.g2 import g2_algebra, g2_chart
from exactlie.liealg import (
    LieAlgebra,
    block_form,
    bracket,
    chain_block,
    check_chart,
    check_triple,
    hook_slice,
    isometry_element,
    jm_triple,
    jordan_type,
    make_algebra,
    power_ranks,
    preserves_form,
    slodowy_slice,
    standard_form,
    transversality_check,
    valid_partition,
)
from exactlie.mpoly import MPoly
from exactlie.polymat import PolyMatrix, invert, rank, solve_linear
from exactlie.scalar import ONE, Scalar
from oracles import bracket_coords, dual_pairing, kernel_form_basis


def rand_combination(alg: LieAlgebra, rng: random.Random):
    coeffs = [Scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3))) for _ in alg.basis]
    return alg.combination(coeffs)


def test_standard_forms():
    g_so = standard_form("so", 5)
    assert g_so.is_symmetric()
    assert all(g_so.entry(i, 4 - i) == Scalar(1) for i in range(5))
    g_sp = standard_form("sp", 6)
    assert g_sp.is_skew()
    assert g_sp.entry(0, 5) == Scalar(1)
    assert g_sp.entry(5, 0) == Scalar(-1)
    with pytest.raises(ValueError):
        standard_form("sp", 5)
    with pytest.raises(ValueError):
        standard_form("su", 4)


def test_algebra_dimensions():
    assert make_algebra("sl", 3).dim == 8
    assert make_algebra("so", 5, standard_form("so", 5)).dim == 10
    assert make_algebra("sp", 4, standard_form("sp", 4)).dim == 10
    assert make_algebra("so", 7, standard_form("so", 7)).dim == 21
    assert make_algebra("sp", 6, standard_form("sp", 6)).dim == 21


def test_membership_and_coords_roundtrip():
    rng = random.Random(5)
    for family, size in (("sl", 3), ("so", 5), ("sp", 4)):
        form = None if family == "sl" else standard_form(family, size)
        alg = make_algebra(family, size, form)
        for _ in range(10):
            m = rand_combination(alg, rng)
            assert alg.combination(alg.coords(m)) == m
        # something outside: identity is never traceless / form-compatible
        with pytest.raises(ValueError, match="not in"):
            alg.coords(PolyMatrix.identity(size))


def test_zero_dimensional_algebras():
    for family, size in (("sl", 1), ("so", 1)):
        alg = make_algebra(family, size)
        assert alg.dim == 0
        assert alg.coords(PolyMatrix.zeros(size, size)) == []
        assert alg.combination([]) == PolyMatrix.zeros(size, size)
        # one generic element per prefix, each zero; no structure constants
        assert alg.generic("x", "y") == (PolyMatrix.zeros(size, size),) * 2
        assert alg.table == {} and alg.jacobi() == 0
        with pytest.raises(ValueError, match="not in"):
            alg.coords(PolyMatrix.identity(size))


def test_bracket_closure():
    rng = random.Random(7)
    for family, size in (("so", 5), ("sp", 4), ("sl", 3)):
        form = None if family == "sl" else standard_form(family, size)
        alg = make_algebra(family, size, form)
        for _ in range(6):
            a = rand_combination(alg, rng)
            b = rand_combination(alg, rng)
            alg.coords(bracket(a, b))  # raises if outside


def test_structure_constants_satisfy_jacobi():
    lie = make_algebra("sp", 4)
    assert lie.dim == 10
    assert lie.jacobi() == 10 ** 3
    # the table is the commutator on generic coordinate vectors too
    rng = random.Random(3)
    x = lie.coords(rand_combination(lie, rng))
    y = lie.coords(rand_combination(lie, rng))
    dx, dy = lie.combination(x), lie.combination(y)
    assert lie.combination(bracket_coords(lie, x, y)) == dx * dy - dy * dx


def _pairwise_table(alg: LieAlgebra):
    # one bracket per basis pair, each read into coordinates and checked
    # by recombining it
    table = {}
    for i, x in enumerate(alg.basis):
        for j, y in enumerate(alg.basis):
            value = alg.bracket(x, y)
            cs = alg.coords(value)
            assert alg.combination(cs) == value
            row = {k: c for k, c in enumerate(cs) if c}
            if row:
                table[(i, j)] = row
    return table


@pytest.mark.parametrize(
    "family, size", [("sl", 3), ("sl", 4), ("so", 5), ("so", 7), ("sp", 4), ("sp", 6), ("g2", 7)]
)
def test_generic_table_equals_the_pairwise_table(family, size):
    alg = g2_algebra() if family == "g2" else make_algebra(family, size)
    table = alg.table
    assert table == _pairwise_table(alg)
    assert list(table) == sorted(table)
    assert all(isinstance(c, Scalar) for row in table.values() for c in row.values())


def test_bracket_that_is_not_bilinear_fails_the_build():
    alg = make_algebra("sp", 4)

    def quadratic_in_x(x, y):
        return bracket(x, y) + bracket(x, bracket(x, y))

    with pytest.raises(AssertionError, match="not bilinear"):
        LieAlgebra(alg.name, alg.size, alg.names, alg.basis, quadratic_in_x, alg.dual).table


def test_flipped_structure_constant_breaks_jacobi():
    lie = make_algebra("sp", 4)
    (i, j), row = next(iter(lie.table.items()))
    k, c = next(iter(row.items()))
    lie.table[(i, j)][k] = -c
    with pytest.raises(AssertionError, match="Jacobi identity fails"):
        lie.jacobi()


READOUT_FAILED = "^coordinate readout failed to reproduce the matrix$"


def _with_dual(alg: LieAlgebra, dual) -> LieAlgebra:
    return LieAlgebra(alg.name, alg.size, alg.names, alg.basis, alg.bracket, tuple(dual))


def test_readout_dropping_a_coordinate_fails_the_build():
    # a coordinate that reads nothing is 0 on its own basis element
    for alg in (make_algebra("sp", 4), make_algebra("sl", 3)):
        for k in (0, alg.dim - 1):
            dual = list(alg.dual)
            dual[k] = ()
            with pytest.raises(AssertionError, match=READOUT_FAILED):
                _with_dual(alg, dual)


def test_a_wrong_dual_fails_the_build():
    sl3, sp4 = make_algebra("sl", 3), make_algebra("sp", 4)
    h1 = sl3.dim - 1  # H_1 reads x_00 + x_11
    (r, s, _), = sp4.dual[0]
    wrong = {
        "a doubled coefficient": (sp4, {0: ((r, s, 2),)}),
        "two coordinates swapped": (sp4, {0: sp4.dual[1], 1: sp4.dual[0]}),
        "a partial sum cut short": (sl3, {h1: ((1, 1, 1),)}),
        "a partial sum run long": (sl3, {h1: ((0, 0, 1), (1, 1, 1), (2, 2, 1))}),
    }
    for alg, changes in wrong.values():
        dual = [changes.get(k, reads) for k, reads in enumerate(alg.dual)]
        with pytest.raises(AssertionError, match=READOUT_FAILED):
            _with_dual(alg, dual)
    # one coordinate too few or too many
    for dual in (sp4.dual[:-1], sp4.dual + (((0, 0, 1),),)):
        with pytest.raises(AssertionError, match=READOUT_FAILED):
            _with_dual(sp4, dual)
    # the right dual, rebuilt, reads as before
    assert _with_dual(sp4, sp4.dual).table == sp4.table


def test_jordan_type_by_rank_sequence():
    x3, _, _ = chain_block(3)
    x2, _, _ = chain_block(2)
    m = PolyMatrix.block_diag([x3, x2, x2])
    assert jordan_type(m) == (3, 2, 2)
    assert jordan_type(PolyMatrix.zeros(4, 4)) == (1, 1, 1, 1)
    x5, _, _ = chain_block(5)
    assert jordan_type(x5) == (5,)


def _power_loop_ranks(m, upto):
    # every power up to m^upto, with no early stop
    out = [m.nrows]
    power = PolyMatrix.identity(m.nrows)
    for _ in range(upto):
        power = power * m
        out.append(rank(power))
    return out


def test_power_ranks_equals_the_full_power_loop(monkeypatch):
    rng = random.Random(17)
    for size in (1, 2, 3, 4, 5, 6):
        for _ in range(4):
            # strictly upper triangular (nilpotent), conjugated by a
            # unipotent change of basis so the rank drops are not trivial
            nil = PolyMatrix.from_entries(size, size, {
                (i, j): rng.randint(-2, 2)
                for i in range(size) for j in range(i + 1, size)
            })
            unip = PolyMatrix.from_entries(size, size, {
                (i, j): 1 if i == j else rng.randint(-1, 1)
                for i in range(size) for j in range(i, size)
            })
            full = PolyMatrix(
                [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
            )
            conj = unip * nil * invert(unip)
            for m in (nil, conj, full, PolyMatrix.zeros(size, size)):
                for upto in (0, 1, size, size + 2):
                    assert power_ranks(m, upto) == _power_loop_ranks(m, upto)
    # once a power is zero, no further power is formed or ranked
    x4, _, _ = chain_block(4)
    calls = []
    real = liealg.rank
    monkeypatch.setattr(liealg, "rank", lambda m: calls.append(1) or real(m))
    assert power_ranks(x4, 10) == [4, 3, 2, 1, 0] + [0] * 6
    assert len(calls) == 4


def test_jordan_type_rejects_a_matrix_that_is_not_nilpotent():
    for m in (
        PolyMatrix.identity(3),
        PolyMatrix([[0, 1], [1, 0]]),
        PolyMatrix.block_diag([chain_block(3)[0], PolyMatrix([[2]])]),
    ):
        with pytest.raises(ValueError, match="not nilpotent"):
            jordan_type(m)


def test_valid_partition_rules():
    # sp: odd parts need even multiplicity
    assert valid_partition("sp", 8, [6, 1, 1])
    assert not valid_partition("sp", 6, [3, 2, 1])
    assert valid_partition("sp", 6, [2, 2, 2])
    assert valid_partition("sp", 6, [3, 3])
    # so: even parts need even multiplicity
    assert valid_partition("so", 7, [5, 1, 1])
    assert not valid_partition("so", 7, [4, 2, 1])
    assert valid_partition("so", 4, [2, 2])
    # wrong total
    assert not valid_partition("sp", 8, [6, 1])
    # sl: any partition of the size
    assert valid_partition("sl", 5, [3, 2])


def test_chain_block_relations():
    for m in (2, 3, 5):
        x, y, h = chain_block(m)
        assert bracket(h, x) == x.scale(2)
        assert bracket(h, y) == y.scale(-2)
        assert bracket(x, y) == h
        assert jordan_type(x) == (m,)


def test_block_form_frozen_entries():
    # m = 6 block: antidiagonal -1, 1/5, -1/10, 1/10, -1/5, 1 top to bottom
    j = block_form(6)
    want = [
        Fraction(-1),
        Fraction(1, 5),
        Fraction(-1, 10),
        Fraction(1, 10),
        Fraction(-1, 5),
        Fraction(1),
    ]
    for k, c in enumerate(want):
        assert j.entry(k, 5 - k) == Scalar(c)
    assert j.is_skew()
    assert block_form(5).is_symmetric()
    assert block_form(3).is_symmetric()
    assert block_form(2).is_skew()


def test_jm_triple_sp_hook():
    model = jm_triple("sp", [6, 1, 1])
    assert model.partition == (6, 1, 1)
    assert model.family == "sp"
    assert model.form.is_skew()
    assert jordan_type(model.triple.x) == (6, 1, 1)
    assert jordan_type(model.triple.y) == (6, 1, 1)


def test_jm_triple_paired_parts():
    # sp hosts odd parts only in pairs, so only even parts in pairs
    sp33 = jm_triple("sp", [3, 3])
    assert sp33.form.is_skew()
    assert jordan_type(sp33.triple.x) == (3, 3)
    so22 = jm_triple("so", [2, 2])
    assert so22.form.is_symmetric()
    assert jordan_type(so22.triple.x) == (2, 2)
    with pytest.raises(ValueError):
        jm_triple("sp", [3, 2, 1])


def test_slodowy_slice_grading():
    model = jm_triple("sp", [2, 1, 1])
    chart = slodowy_slice(model)
    assert chart.dim == 6
    assert sorted(chart.coord_weights) == [2, 2, 2, 3, 3, 4]
    # every chart vector kills y and is an ad h eigenvector
    y, h = model.triple.y, model.triple.h
    for v, w in zip(chart.vectors, chart.coord_weights):
        assert bracket(y, v).is_zero()
        assert bracket(h, v) == v.scale(Scalar(2 - w))


def test_hook_slice_matches_graded_kernel():
    for n in (2, 3):
        chart = hook_slice(n)
        generic = slodowy_slice(chart.model)
        assert chart.dim == generic.dim == (n - 1) + 5
        assert sorted(chart.coord_weights) == sorted(generic.coord_weights)


def test_hook_slice_printed_chart_n4():
    chart = hook_slice(4)
    assert chart.names == ("t1", "t2", "t3", "a", "b", "x", "y", "z")
    assert chart.coord_weights == (4, 8, 12, 7, 7, 2, 2, 2)
    vecs = dict(zip(chart.names, chart.vectors))
    # t1 rides y^1/1!: first subdiagonal of the long block is 5,4,3,2,1
    t1 = vecs["t1"]
    assert [t1.entry(i + 1, i) for i in range(5)] == [Scalar(c) for c in (5, 4, 3, 2, 1)]
    # t3 rides y^5/5!: single bottom-left entry 5!/5! = 1
    t3 = vecs["t3"]
    assert t3.entry(5, 0) == Scalar(1)
    assert sum(1 for i in range(8) for j in range(8) if t3.entry(i, j)) == 1
    # hook mixers and the small block
    assert vecs["a"].entry(5, 7) == Scalar(1) and vecs["a"].entry(6, 0) == Scalar(-1)
    assert vecs["b"].entry(5, 6) == Scalar(1) and vecs["b"].entry(7, 0) == Scalar(1)
    assert vecs["x"].entry(7, 6) == Scalar(1)
    assert vecs["y"].entry(6, 6) == Scalar(1) and vecs["y"].entry(7, 7) == Scalar(-1)
    assert vecs["z"].entry(6, 7) == Scalar(-1)


def test_transversality():
    report = transversality_check(jm_triple("sp", [2, 1, 1]))
    assert report == {
        "algebra_dim": 10,
        "slice_dim": 6,
        "orbit_dim": 4,
        "transversal": 1,
    }
    report2 = transversality_check(jm_triple("so", [3, 1]))
    assert report2["transversal"] == 1
    assert report2["slice_dim"] == 2


# the shared checks on the hook chart and on the g2 chart
CHARTS = {"hook-n3": lambda: hook_slice(3), "g2": g2_chart}


def _with_vector(chart, k, v):
    vectors = list(chart.vectors)
    vectors[k] = v
    return chart._replace(vectors=tuple(vectors))


@pytest.mark.parametrize("which", sorted(CHARTS))
def test_chart_check_rejects_each_broken_chart(which):
    chart = CHARTS[which]()
    assert check_chart(chart) is chart
    # x lies in the algebra but not in ker(ad y): [y, x] = -h
    with pytest.raises(AssertionError, match="not in ker"):
        check_chart(_with_vector(chart, 0, chart.model.triple.x))
    weights = list(chart.coord_weights)
    weights[0] += 1
    with pytest.raises(AssertionError, match="wrong weight"):
        check_chart(chart._replace(coord_weights=tuple(weights)))
    # one vector twice, under two coordinates of one weight
    i, j = next(
        (i, j) for i in range(chart.dim) for j in range(i + 1, chart.dim)
        if chart.coord_weights[i] == chart.coord_weights[j]
    )
    with pytest.raises(AssertionError, match="dependent"):
        check_chart(_with_vector(chart, j, chart.vectors[i]))
    dropped = chart._replace(
        names=chart.names[1:], vectors=chart.vectors[1:],
        coord_weights=chart.coord_weights[1:],
    )
    with pytest.raises(AssertionError, match="does not span"):
        check_chart(dropped)


@pytest.mark.parametrize("which", sorted(CHARTS))
def test_triple_check_rejects_a_doubled_y(which):
    model = CHARTS[which]().model
    check_triple(model.algebra, model.triple)
    doubled = model.triple._replace(y=model.triple.y.scale(2))
    with pytest.raises(AssertionError, match="sl2 relations fail"):
        check_triple(model.algebra, doubled)


def test_chart_check_rejects_a_vector_outside_the_algebra():
    chart = hook_slice(2)
    # diag(0, 0, 1, 0) commutes with y and has ad h eigenvalue 0, but is
    # not in sp4: on the small block sp2 = sl2 is traceless
    gl_only = PolyMatrix.from_entries(4, 4, {(2, 2): 1})
    weights = (2,) + chart.coord_weights[1:]
    outside = _with_vector(chart, 0, gl_only)._replace(coord_weights=weights)
    with pytest.raises(ValueError, match="not in sp4"):
        check_chart(outside)


def test_regular_so_slice_has_rank_many_coordinates():
    # regular orbit: slice dimension equals the rank
    model = jm_triple("so", [5])
    chart = slodowy_slice(model)
    assert chart.dim == 2
    assert sorted(chart.coord_weights) == [4, 8]


# ---------------------------------------------------------------------------
# the sparse core against dense oracles
# ---------------------------------------------------------------------------


def _dense_ad_oracle(alg: LieAlgebra, x: PolyMatrix) -> PolyMatrix:
    """ad(x) without liealg: each commutator x b - b x as a PolyMatrix
    product, read back by solving against the flattened basis."""
    size = x.nrows
    basis = alg.basis
    flat = PolyMatrix(
        [[b.entry(i, j) for b in basis] for i in range(size) for j in range(size)]
    )
    assert rank(flat) == len(basis)  # so each solution below is the only one
    cols = []
    for b in basis:
        comm = x * b - b * x
        sol = solve_linear(flat, [comm.entry(i, j) for i in range(size) for j in range(size)])
        assert sol is not None
        cols.append(sol)
    return PolyMatrix([[c[i] for c in cols] for i in range(alg.dim)])


def _oracle_algebras():
    yield make_algebra("sl", 4), 4, None
    yield make_algebra("so", 5), 5, None
    yield make_algebra("so", 6), 6, None
    yield make_algebra("sp", 6), 6, None
    model = jm_triple("so", [3, 2, 2])
    yield model.algebra, 7, model.triple


def test_ad_matrix_matches_dense_oracle():
    rng = random.Random(11)
    for alg, size, triple in _oracle_algebras():
        elements = [rand_combination(alg, rng) for _ in range(3)]
        # a random combination is not nilpotent: its trace of squares is
        # nonzero, so the oracle is exercised beyond nilpotent elements
        assert any((e * e).trace() for e in elements)
        if triple is not None:
            elements += [triple.x, triple.y, triple.h]
        for x in elements:
            assert alg.ad_matrix(x) == _dense_ad_oracle(alg, x)


@pytest.mark.parametrize("size", range(2, 9))
def test_ad_matrix_matches_dense_oracle_on_every_jm_algebra(size):
    rng = random.Random(size)
    for family in ("sl", "so", "sp"):
        for parts in partitions_of(size):
            if valid_partition(family, size, parts):
                model = jm_triple(family, parts)
                alg = model.algebra
                for x in (model.triple.y, rand_combination(alg, rng)):
                    assert alg.ad_matrix(x) == _dense_ad_oracle(alg, x)


def test_ad_matrix_matches_dense_oracle_on_g2():
    model = g2_chart().model
    alg = model.algebra
    for x in (*model.triple, rand_combination(alg, random.Random(19))):
        assert alg.ad_matrix(x) == _dense_ad_oracle(alg, x)


def test_ad_matrix_reads_every_column_in_one_product(monkeypatch):
    # one kernel pass per bracket [x, b_k], x b_k - b_k x summed at once,
    # one for the readout C = F D and one for its check C B = F: no
    # per-column coords call, and the read builds neither B nor D, which
    # the algebra keeps since it was built
    alg = make_algebra("sp", 6)
    x = rand_combination(alg, random.Random(23))
    want = _dense_ad_oracle(alg, x)
    coords_calls, passes, built, flattened = [], [], [], []
    real_coords, real_pass = alg.coords, polymat._product_rows
    real_from_entries, real_flattened = PolyMatrix.from_entries, PolyMatrix.flattened
    alg.__dict__["coords"] = lambda m: coords_calls.append(m) or real_coords(m)
    monkeypatch.setattr(
        polymat, "_product_rows", lambda terms, zero: passes.append(len(terms)) or real_pass(terms, zero)
    )
    monkeypatch.setattr(PolyMatrix, "from_entries", staticmethod(
        lambda *args: built.append(args) or real_from_entries(*args)
    ))
    monkeypatch.setattr(PolyMatrix, "flattened", staticmethod(
        lambda ms, width: flattened.append(tuple(ms)) or real_flattened(ms, width)
    ))
    assert alg.ad_matrix(x) == want
    assert coords_calls == []
    assert passes == [2] * alg.dim + [1, 1]
    assert built == []
    assert len(flattened) == 1 and flattened[0] != alg.basis and flattened[0][0] == x


def test_a_bracket_that_leaves_the_algebra_fails_ad_matrix():
    alg = make_algebra("sp", 4)

    def leaky(x, y):
        return bracket(x, y) + PolyMatrix.identity(4)

    lie = LieAlgebra(alg.name, alg.size, alg.names, alg.basis, leaky, alg.dual)
    with pytest.raises(ValueError, match="^matrix is not in sp4$"):
        lie.ad_matrix(alg.basis[0])
    # the structure constants are read through the same check
    with pytest.raises(ValueError, match="^matrix is not in sp4$"):
        lie.table
    # x itself outside, of the wrong size: rejected before any bracket
    with pytest.raises(ValueError, match="^matrix is not in sp4$"):
        alg.ad_matrix(PolyMatrix.identity(5))


def test_a_basis_element_that_is_not_an_isometry_fails_the_form_basis(monkeypatch):
    g = standard_form("sp", 6)
    positions = liealg._form_basis(g)[1]
    sigma = liealg._involution(g)[0]
    paired = [p for p in positions if liealg._partner(g, sigma, *p)[0] != p]
    flipped = {paired[4], paired[2]}
    right = liealg._partner

    def wrong_sign(g, sigma, i, j):
        partner, c = right(g, sigma, i, j)
        return partner, -c if (i, j) in flipped else c

    monkeypatch.setattr(liealg, "_partner", wrong_sign)
    message = f"^isometry element at {re.escape(str(paired[2]))} does not preserve the form$"
    with pytest.raises(AssertionError, match=message):
        liealg._form_basis(g)
    with pytest.raises(AssertionError, match=message):
        make_algebra("sp", 6)
    with pytest.raises(AssertionError, match=message):
        isometry_element(g, *paired[2])


def test_form_algebra_basis_has_free_column_structure():
    for alg, _, _ in _oracle_algebras():
        for k, b in enumerate(alg.basis):
            unit = [Scalar(int(i == k)) for i in range(alg.dim)]
            assert alg.coords(b) == unit
            assert alg.combination(unit) == b


def test_coords_outside_the_algebra_raises():
    for family, size in (("sl", 3), ("so", 5), ("sp", 4)):
        alg = make_algebra(family, size)
        outside = PolyMatrix.identity(size)
        with pytest.raises(ValueError, match="not in"):
            alg.coords(outside)
        # entries beyond the size x size block: an off-diagonal one (which
        # no trace sees) and a diagonal one
        for pos in ((0, size), (size, size)):
            with pytest.raises(ValueError, match="not in"):
                alg.coords(PolyMatrix.from_entries(size + 1, size + 1, {pos: ONE}))
        # one entry off: a basis element plus a diagonal unit
        b = alg.basis[0]
        bumped = PolyMatrix(
            [[b.entry(i, j) + (1 if (i, j) == (size - 1, size - 1) else 0)
              for j in range(size)] for i in range(size)]
        )
        with pytest.raises(ValueError, match="not in"):
            alg.coords(bumped)


def _two_product_preserves(x: PolyMatrix, g: PolyMatrix) -> bool:
    # the defining formula, kept as the oracle: x^T g + g x = 0
    return (x.transpose() * g + g * x).is_zero()


def _random_form(rng: random.Random, size: int, symmetric: bool) -> PolyMatrix:
    entries = {}
    for i in range(size):
        for j in range(i + (0 if symmetric else 1), size):
            v = Scalar(rng.randint(-3, 3), rng.choice((0, 0, 1)))
            entries[(i, j)] = v
            if i != j:
                entries[(j, i)] = v if symmetric else -v
    return PolyMatrix.from_entries(size, size, entries)


def test_one_product_isometry_test_matches_the_two_product_formula():
    rng = random.Random(61)
    seen = {True: 0, False: 0}
    for family, size in (("so", 4), ("so", 5), ("sp", 4), ("sp", 6)):
        symmetric = family == "so"
        g = standard_form(family, size)
        alg = make_algebra(family, size, g)
        members = [rand_combination(alg, rng) for _ in range(8)]
        bumped = [
            m + PolyMatrix.from_entries(
                size, size, {(rng.randrange(size), rng.randrange(size)): rng.choice((1, -2))}
            )
            for m in members
        ]
        noise = [
            PolyMatrix([[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)])
            for _ in range(8)
        ]
        # the standard form, and a random form of the same symmetry (for
        # which the members above are generally not members)
        for form in (g, _random_form(rng, size, symmetric)):
            for x in members + bumped + noise:
                want = _two_product_preserves(x, form)
                assert preserves_form(x, form, symmetric) == want
                seen[want] += 1
    assert seen[True] >= 32 and seen[False] > 100


def test_isometry_test_sees_a_violation_on_the_diagonal_only():
    # x = E_(size-1-k, k) has g x = E_kk for the antidiagonal so form, so
    # x^T g + g x = 2 E_kk: skew fails on the diagonal and nowhere else
    rng = random.Random(67)
    for size in (3, 4, 5):
        g = standard_form("so", size)
        alg = make_algebra("so", size, g)
        for k in range(size):
            member = rand_combination(alg, rng)
            x = member + PolyMatrix.from_entries(size, size, {(size - 1 - k, k): 1})
            violation = x.transpose() * g + g * x
            assert list(violation.nonzeros()) == [(k, k, Scalar(2))]
            assert preserves_form(member, g, True)
            assert not preserves_form(x, g, True)
            with pytest.raises(ValueError, match="not in"):
                alg.coords(x)


def test_coords_recombination_catches_a_wrong_readout(monkeypatch):
    # membership alone does not vouch for the readout: read one coordinate
    # at another coordinate's position and the basis no longer recombines
    # from its own coordinates, B D != I.  The algebra is refused when it
    # is built, so no coords, ad_matrix or chart check ever reads with it.
    right = liealg._form_basis

    def swapped(g):
        basis, positions = right(g)
        positions[0] = positions[1]
        return basis, positions

    monkeypatch.setattr(liealg, "_form_basis", swapped)
    for build in (lambda: make_algebra("sp", 4), lambda: jm_triple("sp", [2, 1, 1]),
                  lambda: hook_slice(2)):
        with pytest.raises(AssertionError, match=READOUT_FAILED):
            build()


def _monomial_forms():
    """The standard so/sp forms of sizes 1..14 and the form of every
    jm_triple model of size <= 10 in so and sp."""
    for n in range(1, 15):
        yield "so", standard_form("so", n)
        if n % 2 == 0:
            yield "sp", standard_form("sp", n)
    for n in range(2, 11):
        for family in ("so", "sp"):
            for parts in partitions_of(n):
                if valid_partition(family, n, parts):
                    yield family, jm_triple(family, parts).form


def test_form_basis_equals_the_constraint_kernel_basis():
    # the written-down basis is the one the reduced kernel of
    # M^T G + G M = 0 gives, element by element and position by position,
    # and the dual basis is dual to it, B D = I, read entry by entry; so
    # is every sl dual of size 1..8, and g2's
    count = 0
    for family, g in _monomial_forms():
        basis, positions = liealg._form_basis(g)
        want_basis, want_positions = kernel_form_basis(g)
        assert basis == want_basis
        assert positions == want_positions
        alg = make_algebra(family, g.nrows, g)
        assert alg.basis == tuple(want_basis)
        assert dual_pairing(alg) == PolyMatrix.identity(alg.dim)
        count += 1
    assert count == 21 + 113
    for alg in (*(make_algebra("sl", n) for n in range(1, 9)), g2_algebra()):
        assert dual_pairing(alg) == PolyMatrix.identity(alg.dim)


# sha256 of every (family, key, positions, elements) the form basis gave
# before it chose its positions on sigma alone, for the 132 forms below
FORM_BASIS_DIGEST = "f4a161a51cfe5f4089d4b237dc487768a8a7224e28d41b9d0fd2a25b1b7c5597"


def test_form_basis_matches_the_digest_of_its_earlier_output():
    # every so/sp standard form of size <= 12 and every jm_triple form of
    # size <= 10; each element as its sorted nonzero entries, as text
    forms = []
    for size in range(1, 13):
        forms.append(("so", size, standard_form("so", size)))
        if size % 2 == 0:
            forms.append(("sp", size, standard_form("sp", size)))
    for family in ("so", "sp"):
        for size in range(1, 11):
            for parts in partitions_of(size):
                if valid_partition(family, size, parts):
                    forms.append((family, parts, jm_triple(family, parts).form))
    digest = hashlib.sha256()
    for family, key, g in forms:
        basis, positions = liealg._form_basis(g)
        elements = [sorted((i, j, str(v)) for i, j, v in b.nonzeros()) for b in basis]
        digest.update(repr((family, key, positions, elements)).encode())
    assert len(forms) == 132
    assert digest.hexdigest() == FORM_BASIS_DIGEST


def test_isometry_element_pairs_each_entry_with_one_partner():
    # sp(2): (0, 1) is its own partner and free; so(3): (1, 1) is its own
    # partner and forced to 0; so(4): (0, 1) pairs with (2, 3)
    assert isometry_element(standard_form("sp", 2), 0, 1) == PolyMatrix([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="0 on every isometry"):
        isometry_element(standard_form("so", 3), 1, 1)
    assert isometry_element(standard_form("so", 4), 0, 1) == PolyMatrix.from_entries(
        4, 4, {(0, 1): 1, (2, 3): -1}
    )
    # a binomial block form: the coefficient is a ratio of form entries
    g = block_form(3)
    m = isometry_element(g, 0, 1)
    assert m == PolyMatrix.from_entries(3, 3, {(0, 1): 1, (1, 2): Fraction(2)})
    assert preserves_form(m, g, True)


def test_form_that_is_not_monomial_raises():
    full = PolyMatrix([[1, 1], [1, 1]])  # symmetric, two nonzeros per row
    with pytest.raises(ValueError, match="exactly one nonzero"):
        isometry_element(full, 0, 1)
    with pytest.raises(ValueError, match="exactly one nonzero"):
        make_algebra("so", 2, full)
    zero_row = PolyMatrix.from_entries(3, 3, {(0, 2): 1, (2, 0): 1})
    with pytest.raises(ValueError, match="exactly one nonzero"):
        make_algebra("so", 3, zero_row)
    with pytest.raises(ValueError, match="neither symmetric nor skew"):
        isometry_element(PolyMatrix([[0, 1], [2, 0]]), 0, 1)


GENERIC_ALGEBRAS = {
    "sl3": lambda: make_algebra("sl", 3),
    "so5": lambda: make_algebra("so", 5),
    "sp4": lambda: make_algebra("sp", 4),
    "g2": g2_algebra,
}


@pytest.mark.parametrize("name", sorted(GENERIC_ALGEBRAS))
def test_generic_elements_have_independent_variable_coordinates(name):
    # an identity on a degenerate "generic" element (one that loses a
    # coordinate or shares variables) would prove nothing
    alg = GENERIC_ALGEBRAS[name]()
    x, y = alg.generic("x", "y")
    names = tuple(f"x{k}" for k in range(alg.dim)) + tuple(f"y{k}" for k in range(alg.dim))
    variables = [MPoly.variable(v, names) for v in names]
    assert alg.coords(x) == variables[:alg.dim]
    assert alg.coords(y) == variables[alg.dim:]
    zs = tuple(f"z{k}" for k in range(alg.dim))
    (z,) = alg.generic("z")
    assert alg.coords(z) == [MPoly.variable(v, zs) for v in zs]


@pytest.mark.parametrize("name", sorted(GENERIC_ALGEBRAS))
def test_ad_matrix_is_read_from_the_structure_constants(name):
    alg = GENERIC_ALGEBRAS[name]()
    rng = random.Random(13)
    units = [[Scalar(int(i == k)) for i in range(alg.dim)] for k in range(alg.dim)]
    for _ in range(3):
        x = rand_combination(alg, rng)
        cx = alg.coords(x)
        cols = [bracket_coords(alg, cx, e) for e in units]
        want = PolyMatrix([[cols[k][i] for k in range(alg.dim)] for i in range(alg.dim)])
        assert alg.ad_matrix(x) == want


@pytest.mark.parametrize("name", sorted(GENERIC_ALGEBRAS))
def test_ad_is_a_homomorphism(name):
    # ad([x, y]) = ad(x) ad(y) - ad(y) ad(x)
    alg = GENERIC_ALGEBRAS[name]()
    rng = random.Random(17)
    for _ in range(3):
        x, y = rand_combination(alg, rng), rand_combination(alg, rng)
        adx, ady = alg.ad_matrix(x), alg.ad_matrix(y)
        assert alg.ad_matrix(alg.bracket(x, y)) == adx * ady - ady * adx


def _transpose_partition(parts):
    return [sum(1 for p in parts if p > i) for i in range(parts[0])] if parts else []


def _collingwood_mcgovern(family, size, parts):
    """Orbit dimensions from the partition (Collingwood-McGovern,
    Nilpotent Orbits in Semisimple Lie Algebras, 1993)."""
    squares = sum(c * c for c in _transpose_partition(parts))
    odd = sum(1 for p in parts if p % 2)
    if family == "sl":
        return size * size - squares
    if family == "sp":
        return (size * (size + 1) - squares - odd) // 2
    return (size * (size - 1) - squares + odd) // 2


ORBIT_CASES = [
    (family, size, parts)
    for family, sizes in (("sl", range(2, 9)), ("sp", (2, 4, 6, 8)), ("so", range(3, 9)))
    for size in sizes
    for parts in partitions_of(size)
    if valid_partition(family, size, parts)
]


def test_orbit_dimension_oracle_covers_every_small_partition():
    assert len(ORBIT_CASES) == 124


@pytest.mark.parametrize("family,size,parts", ORBIT_CASES)
def test_orbit_dimension_matches_partition_formula(family, size, parts):
    report = transversality_check(jm_triple(family, parts))
    assert report["transversal"] == 1
    assert report["orbit_dim"] == _collingwood_mcgovern(family, size, parts)
