"""Lie algebras on a basis, the classical matrix algebras, sl2-triples and
transverse slices.

LieAlgebra is the one Lie-algebra type: a named basis of PolyMatrix
elements, its dual basis and its bracket, and nothing else.  Coordinates
are data: the dual basis lists the entries each coordinate reads, so with
F the elements flattened, D the dual and B the basis as sparse matrices,
the coordinates of a batch are C = F D, and C B = F holds exactly for a
batch inside the algebra, once B D = I has been checked.  B and D are
built and checked once, when the algebra is built, and every read uses
the two it keeps (LieAlgebra.read).  coords is the batch of one, ad(x)
reads x and its dim brackets [x, b_k] in one, and combination is
sum_k c_k b_k.  The bracket of sl/so/sp is the commutator, x y - y x
summed in one pass (polymat.product_sum).  The
sparse structure-constant table, on which the Jacobi identity is a
contraction, is read on first use from one bracket of two generic
elements, whose coordinates must be bilinear, and the contraction is
summed once per cyclic class of basis triples.  The exceptional algebra
(g2.g2_algebra) is one too: its elements are rational 7x7 matrices like
those of sl/so/sp, and its bracket is the printed block formula.

make_algebra cuts sl/so/sp out of gl_m by a bilinear form (or
tracelessness for type A).  Every form here is monomial, one nonzero
entry per row, so M^T G + G M = 0 ties each entry M_ij to one partner
entry (or to itself) and the so/sp basis is written down, one
isometry_element per pair (Collingwood-McGovern, Nilpotent Orbits in
Semisimple Lie Algebras, 1993), all of them checked against the form by
one product.  Each coordinate reads its basis element's own position (the
diagonal partial sums for sl).
Nilpotent elements come with adapted bases: each Jordan block gets the
chain basis whose form is the alternating binomial antidiagonal, which
keeps every structure constant rational and makes the printed models
downstream reproducible literally.

SliceChart is the one slice type, for sl/so/sp and g2 alike: coordinate
vectors at x with their weights.  check_triple is the one sl2-triple
check and check_chart the one chart check; both use only the algebra's
read and bracket.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .mpoly import MPoly
from .polymat import PolyMatrix, linear_combination, nullspace, product_sum, rank
from .scalar import ONE, Scalar


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------


def standard_form(family: str, size: int) -> PolyMatrix:
    """Reference bilinear forms: antidiagonal ones for so, antidiagonal
    split signs for sp."""
    if family == "so":
        return PolyMatrix.from_entries(size, size, {(i, size - 1 - i): 1 for i in range(size)})
    if family == "sp":
        if size % 2:
            raise ValueError("sp needs even size")
        return PolyMatrix.from_entries(
            size, size, {(i, size - 1 - i): 1 if 2 * i < size else -1 for i in range(size)}
        )
    raise ValueError(f"no standard form for family {family!r}")


def bracket(x: PolyMatrix, y: PolyMatrix) -> PolyMatrix:
    """The commutator x y - y x, summed entry by entry in one pass."""
    return product_sum(((1, x, y), (-1, y, x)))


def preserves_form(x: PolyMatrix, g: PolyMatrix, symmetric: bool) -> bool:
    """x^T g + g x = 0 for a symmetric form g (symmetric=True) or a skew
    one, by one product: with y = g x, x^T g is y^T for symmetric g and
    -y^T for skew g, so the sum vanishes exactly when y is skew,
    respectively symmetric."""
    y = g * x
    return y.is_skew() if symmetric else y.is_symmetric()


class LieAlgebra:
    """The Lie algebra `name` on a named basis b_0..b_(dim-1) of size x size
    matrices, with its bracket and its dual basis; immutable.

    `dual[k]` lists the (row, column, coefficient) triples that coordinate
    k reads: coordinate k of x is the sum of c x_rs over them.  With B the
    basis flattened to dim x size^2 (entry (r, s) of b_k at column r * size
    + s) and D the dual as a size^2 x dim matrix, B D = I is checked here,
    else AssertionError("coordinate readout failed to reproduce the
    matrix").  B and D are built once, here, and kept for every `read`;
    they hold one stored entry per basis entry and per dual triple.
    Elements may have polynomial entries, since `table` brackets generic
    elements."""

    def __init__(self, name: str, size: int, names: Tuple[str, ...], basis: Tuple[PolyMatrix, ...],
                 bracket: Callable, dual: Tuple[Tuple[Tuple[int, int, object], ...], ...]):
        flat = PolyMatrix.flattened(basis, size * size)
        readout = PolyMatrix.from_entries(size * size, len(dual), {
            (r * size + s, k): c for k, reads in enumerate(dual) for r, s, c in reads
        })
        if flat * readout != PolyMatrix.identity(len(basis)):
            raise AssertionError("coordinate readout failed to reproduce the matrix")
        # __setattr__ refuses, so fill the instance dict, where cached_property
        # also stores `table`
        self.__dict__.update(name=name, size=size, names=names, basis=basis, bracket=bracket,
                             dual=dual, _flat_basis=flat, _readout=readout)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def __repr__(self) -> str:
        return f"LieAlgebra(names={self.names!r})"

    @property
    def dim(self) -> int:
        return len(self.basis)

    def read(self, xs: Sequence[PolyMatrix]) -> PolyMatrix:
        """The coordinates of the elements xs as the rows of the len(xs) x
        dim matrix C = F D, F the elements flattened like B: one sparse
        product for the whole batch, with the D kept since construction.
        Since B D = I, C B = F holds exactly when every element lies in the
        span of the basis, the algebra, and a second product with the kept
        B checks it; ValueError("matrix is not in <name>") otherwise, and
        for an element of another shape."""
        size = self.size
        if any((x.nrows, x.ncols) != (size, size) for x in xs):
            raise ValueError(f"matrix is not in {self.name}")
        f = PolyMatrix.flattened(xs, size * size)
        c = f * self._readout
        if c * self._flat_basis != f:
            raise ValueError(f"matrix is not in {self.name}")
        return c

    def coords(self, x: PolyMatrix) -> List:
        """The coordinates of x, read and checked by `read` as a batch of
        one; polynomial entries included."""
        return self.read([x]).row(0)

    def combination(self, coeffs: Sequence) -> PolyMatrix:
        """sum_k coeffs[k] b_k; the coefficients may be polynomials."""
        return linear_combination(coeffs, self.basis, self.size, self.size)

    def generic(self, *prefixes: str) -> Tuple:
        """One generic element sum_k p_k b_k for each prefix p, all in the
        same dim * len(prefixes) variables, prefix by prefix: generic("x",
        "y") is (sum x_i b_i, sum y_j b_j) in x0..x(dim-1), y0..y(dim-1).
        An identity of polynomials in these variables holds at every point,
        basis elements included."""
        dim = self.dim
        variables = tuple(f"{p}{k}" for p in prefixes for k in range(dim))
        coeffs = [MPoly.variable(v, variables) for v in variables]
        return tuple(self.combination(coeffs[i * dim:(i + 1) * dim]) for i in range(len(prefixes)))

    def ad_matrix(self, x: PolyMatrix) -> PolyMatrix:
        """ad(x) in the basis: column k holds the coordinates of [x, b_k].
        x and its brackets are read by one `read`, which raises ValueError
        for x outside the algebra."""
        # an x of another shape than the basis is read alone, and rejected
        shaped = (x.nrows, x.ncols) == (self.size, self.size)
        brackets = [self.bracket(x, b) for b in self.basis] if shaped else []
        return self.read([x, *brackets]).submatrix(1, self.dim + 1, 0, self.dim).transpose()

    @cached_property
    def table(self) -> Dict[Tuple[int, int], Dict[int, Scalar]]:
        """Structure constants, stored sparsely: table[(i, j)] = {k: c_ij^k} with
        [b_i, b_j] = sum_k c_ij^k b_k.  Only nonzero constants are stored,
        and a pair whose bracket vanishes has no entry.

        They are read by `coords`, through the same product F D as every
        element, from one bracket [X, Y] of the generic elements (X, Y) =
        generic("x", "y") in 2 dim variables: c_ij^k is the coefficient of
        x_i y_j in coordinate k.  The coefficient of x_i y_j in read's check
        C B = F is the check on the basis pair (i, j), so a bracket that
        leaves the algebra on any pair raises read's ValueError; then
        AssertionError unless every coordinate is bilinear."""
        dim, names = self.dim, self.names
        cs = self.coords(self.bracket(*self.generic("x", "y")))
        table: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        for k, c in enumerate(cs):
            for exps, coef in c.sorted_terms():
                # the variables of the monomial, each as often as its power
                factors = [v for v, e in enumerate(exps) for _ in range(e)]
                if len(factors) != 2 or not factors[0] < dim <= factors[1]:
                    raise AssertionError(
                        f"coordinate {names[k]} of the generic bracket is not bilinear"
                    )
                table.setdefault((factors[0], factors[1] - dim), {})[k] = coef
        return dict(sorted(table.items()))

    def jacobi(self) -> int:
        """[a, [b, c]] + [b, [c, a]] + [c, [a, b]] = 0 on every ordered basis
        triple, each term summed as sum_m c_bc^m c_am^l; returns the count,
        dim^3.

        The sums for (a, b, c), (b, c, a) and (c, a, b) are the same three
        terms in another order, so each sum is formed once per cyclic class,
        at the triple that is least among its rotations; the other two
        triples of the class are counted as decided by it.  No other
        symmetry of the table (antisymmetry included) is assumed."""
        table = self.table
        count = 0
        for a in range(self.dim):
            for b in range(self.dim):
                for c in range(self.dim):
                    count += 1
                    if min((b, c, a), (c, a, b)) < (a, b, c):
                        continue
                    total: Dict[int, Scalar] = {}
                    for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
                        for m, cqr in table.get((q, r), {}).items():
                            for l, cpm in table.get((p, m), {}).items():
                                total[l] = total.get(l, 0) + cqr * cpm
                    if any(total.values()):
                        names = self.names
                        raise AssertionError(
                            f"Jacobi identity fails at ({names[a]}, {names[b]},"
                            f" {names[c]})"
                        )
        return count


def _involution(g: PolyMatrix) -> Tuple[List[int], bool]:
    """(sigma, symmetric) for a symmetric or skew form g whose row k has
    one nonzero entry, g_k = g[k, sigma(k)]; ValueError for any other g."""
    symmetric = g.is_symmetric()
    if not symmetric and not g.is_skew():
        raise ValueError("form is neither symmetric nor skew")
    cols: List[List[int]] = [[] for _ in range(g.nrows)]
    for k, col, _ in g.nonzeros():
        cols[k].append(col)
    if any(len(c) != 1 for c in cols):
        raise ValueError("form needs exactly one nonzero entry in each row")
    return [c for c, in cols], symmetric


def _partner(g: PolyMatrix, sigma: List[int], i: int, j: int) -> Tuple[Tuple[int, int], Scalar]:
    """(tau(i, j), c) with M_tau(i,j) = c M_ij on every M with M^T g + g M = 0,
    for sigma from _involution(g): entry (sigma(i), j) of M^T g + g M is
    g_sigma(j) M_tau(i,j) + g_sigma(i) M_ij with tau(i, j) = (sigma(j),
    sigma(i)), so c = -g_sigma(i) / g_sigma(j).  tau is an involution; at a
    fixed point M_ij = c M_ij, so the entry is free if c = 1 and 0 if not."""
    si, sj = sigma[i], sigma[j]
    return (sj, si), -(g.entry(si, i) / g.entry(sj, j))


def _isometries(g: PolyMatrix, symmetric: bool, written: Sequence[Tuple]) -> List[PolyMatrix]:
    """The matrices M_k with 1 at p and c at partner, one per (p, partner,
    c), checked by one product g [M_0 | M_1 | ..]: as in preserves_form,
    each block g M_k must be skew (symmetric g) or symmetric (skew g), else
    AssertionError at the first p whose block is not."""
    n = g.nrows
    ms = [PolyMatrix.from_entries(n, n, {partner: c, p: ONE}) for p, partner, c in written]
    joined = {(r, k * n + s): v for k, m in enumerate(ms) for r, s, v in m.nonzeros()}
    y = g * PolyMatrix.from_entries(n, n * len(ms), joined)
    # entry (r, s) of block k is at column c = k n + s, its mirror at (s, k n + r)
    stored = {(r, c): v for r, c, v in y.nonzeros()}
    bad = [c // n for (r, c), v in stored.items()
           if stored.get((c % n, c - c % n + r)) != (-v if symmetric else v)]
    if bad:
        p = written[min(bad)][0]
        raise AssertionError(f"isometry element at {p} does not preserve the form")
    return ms


def isometry_element(g: PolyMatrix, i: int, j: int) -> PolyMatrix:
    """The element M of the isometry algebra M^T g + g M = 0 of a symmetric
    or skew form g with M_ij = 1 and c at its partner tau(i, j) (_partner),
    checked with preserves_form.  Raises ValueError for any other form (see
    _involution), and at a fixed point of tau where the entry is forced to
    0 (every fixed point of a symmetric form)."""
    sigma, symmetric = _involution(g)
    partner, c = _partner(g, sigma, i, j)
    if partner == (i, j) and c != ONE:
        raise ValueError(f"entry ({i}, {j}) is 0 on every isometry")
    return _isometries(g, symmetric, [((i, j), partner, c)])[0]


def _form_basis(g: PolyMatrix) -> Tuple[List[PolyMatrix], List[Tuple[int, int]]]:
    """The basis of the isometry algebra of a monomial form g and the
    position of each element: the isometry_element of each pair {p, tau(p)}
    at the larger flat index p, and of each free fixed point, in flat
    order.  Each element is 1 at its own position and 0 at the others'.

    The positions are chosen on sigma alone: at a fixed point of tau,
    c = -g_j / g_i with j = sigma(i), which is 1 for a skew form and -1 for
    a symmetric one, so the fixed points are free exactly when g is skew.
    _partner gives (tau(p), c) at the positions kept, and only there."""
    sigma, symmetric = _involution(g)
    kept = [(i, j) for i in range(g.nrows) for j in range(g.nrows)
            if (sigma[j], sigma[i]) < (i, j) or (sigma[j] == i and not symmetric)]
    written = [(p, *_partner(g, sigma, *p)) for p in kept]
    return _isometries(g, symmetric, written), kept


def make_algebra(family: str, size: int, form: Optional[PolyMatrix] = None) -> LieAlgebra:
    """sl/so/sp of the given matrix size with its dual basis.  sl has the
    units E_ij off the diagonal, each read at (i, j), then H_k = E_kk -
    E_(k+1)(k+1), read as the diagonal partial sum x_00 + .. + x_kk.  For
    so/sp the form (standard_form by default) must have one nonzero entry
    per row, and the basis is _form_basis(form), each element read at its
    own position."""
    if family == "sl":
        off = [(i, j) for i in range(size) for j in range(size) if i != j]
        basis = [PolyMatrix.from_entries(size, size, {p: ONE}) for p in off]
        basis += [
            PolyMatrix.from_entries(size, size, {(k, k): ONE, (k + 1, k + 1): -ONE})
            for k in range(size - 1)
        ]
        dual = [((i, j, 1),) for i, j in off]
        dual += [tuple((i, i, 1) for i in range(k + 1)) for k in range(size - 1)]
    elif family in ("so", "sp"):
        g = standard_form(family, size) if form is None else form
        if family == "so" and not g.is_symmetric():
            raise ValueError("so needs a symmetric form")
        if family == "sp" and not g.is_skew():
            raise ValueError("sp needs a skew form")
        basis, positions = _form_basis(g)
        expected = size * (size - 1) // 2 if family == "so" else size * (size + 1) // 2
        if len(basis) != expected:
            raise AssertionError(
                f"{family}{size} basis has {len(basis)} elements, expected {expected}"
            )
        dual = [((i, j, 1),) for i, j in positions]
    else:
        raise ValueError(f"unknown family {family!r}")
    names = tuple(f"b{k}" for k in range(len(basis)))
    return LieAlgebra(f"{family}{size}", size, names, tuple(basis), bracket, tuple(dual))


# ---------------------------------------------------------------------------
# Jordan types
# ---------------------------------------------------------------------------


def power_ranks(m: PolyMatrix, upto: int) -> List[int]:
    """[rank m^0, rank m^1, ..., rank m^upto] for a square m; once a power
    is zero every later one is too, and no further power is formed."""
    ranks = [m.nrows]
    power = PolyMatrix.identity(m.nrows)
    for _ in range(upto):
        if ranks[-1] == 0:
            break
        power = power * m
        ranks.append(rank(power))
    return ranks + [0] * (upto + 1 - len(ranks))


def jordan_type(m: PolyMatrix) -> Tuple[int, ...]:
    """Partition of the size of a nilpotent matrix by Jordan block sizes."""
    n = m.nrows
    ranks = power_ranks(m, n + 1)
    if ranks[-1] != 0:
        raise ValueError("matrix is not nilpotent")
    parts: List[int] = []
    for j in range(1, n + 1):
        mult = ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]
        parts.extend([j] * mult)
    parts.sort(reverse=True)
    assert sum(parts) == n
    return tuple(parts)


def valid_partition(family: str, size: int, parts: Sequence[int]) -> bool:
    """Jordan types that occur in the family: sp pairs odd parts, so pairs
    even parts, sl allows everything."""
    parts = list(parts)
    if any(p <= 0 for p in parts) or sum(parts) != size:
        return False
    if family == "sl":
        return True
    counts: Dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    if family == "sp":
        return size % 2 == 0 and all(
            counts.get(p, 0) % 2 == 0 for p in counts if p % 2 == 1
        )
    if family == "so":
        return all(counts.get(p, 0) % 2 == 0 for p in counts if p % 2 == 0)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# sl2-triples on adapted bases
# ---------------------------------------------------------------------------


def chain_block(m: int) -> Tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """The sl2-triple on one Jordan block: x has superdiagonal 1..m-1,
    y the mirrored subdiagonal, h the odd integers m-1, m-3, ..."""
    x = PolyMatrix.from_entries(m, m, {(k - 1, k): k for k in range(1, m)})
    y = PolyMatrix.from_entries(m, m, {(k, k - 1): m - k for k in range(1, m)})
    h = PolyMatrix.from_entries(m, m, {(k, k): m - 1 - 2 * k for k in range(m)})
    return x, y, h


def block_form(m: int) -> PolyMatrix:
    """Antidiagonal binomial form J with J[k, m+1-k] = (-1)^k / C(m-1, k-1)
    (1-indexed); symmetric for odd m, skew for even m, and the chain triple
    lies in the algebra it defines."""
    return PolyMatrix.from_entries(
        m, m,
        {(k - 1, m - k): Fraction((-1) ** k, math.comb(m - 1, k - 1)) for k in range(1, m + 1)},
    )


class Triple(NamedTuple):
    x: PolyMatrix
    y: PolyMatrix
    h: PolyMatrix


class NilpotentModel:
    def __init__(
        self,
        algebra: LieAlgebra,
        triple: Triple,
        partition: Tuple[int, ...],
        family: str,
        form: Optional[PolyMatrix],  # None for sl and g2
    ):
        self.algebra = algebra
        self.triple = triple
        self.partition = partition
        self.family = family
        self.form = form

    @cached_property
    def slice_dim(self) -> int:
        """dim ker(ad y), computed once per model."""
        return len(nullspace(self.algebra.ad_matrix(self.triple.y)))


def check_triple(alg: LieAlgebra, triple: Triple) -> None:
    """x, y, h lie in alg (else read raises ValueError) and satisfy the
    sl2 relations under alg's bracket (else AssertionError)."""
    x, y, h = triple
    alg.read(triple)
    b = alg.bracket
    if b(x, y) != h or b(h, x) != x.scale(2) or b(h, y) != y.scale(-2):
        raise AssertionError("sl2 relations fail")


def jm_triple(family: str, partition: Sequence[int]) -> NilpotentModel:
    """Nilpotent of the given Jordan type with a completed sl2-triple,
    inside sl/so/sp on an adapted form.  Parts come in descending order;
    parts of the parity the form cannot host singly are consumed in equal
    pairs with the hyperbolic two-block form."""
    parts = sorted(partition, reverse=True)
    size = sum(parts)
    if not valid_partition(family, size, parts):
        raise ValueError(f"{tuple(parts)} is not a {family} partition of {size}")
    xs: List[PolyMatrix] = []
    ys: List[PolyMatrix] = []
    hs: List[PolyMatrix] = []
    forms: List[PolyMatrix] = []
    paired_parity = 1 if family == "sp" else 0  # sp pairs odd, so pairs even
    queue = list(parts)
    while queue:
        m = queue.pop(0)
        xb, yb, hb = chain_block(m)
        if family == "sl" or m % 2 != paired_parity:
            xs.append(xb)
            ys.append(yb)
            hs.append(hb)
            if family != "sl":
                forms.append(block_form(m))
        else:
            if not queue or queue[0] != m:
                raise AssertionError("pairing invariant violated")
            queue.pop(0)
            xs.append(PolyMatrix.block_diag([xb, xb]))
            ys.append(PolyMatrix.block_diag([yb, yb]))
            hs.append(PolyMatrix.block_diag([hb, hb]))
            # [[0, J], [sign J^T, 0]]
            sign = -1 if family == "sp" else 1
            pair: Dict[Tuple[int, int], Scalar] = {}
            for i, c, v in block_form(m).nonzeros():
                pair[(i, m + c)] = v
                pair[(m + c, i)] = v * sign
            forms.append(PolyMatrix.from_entries(2 * m, 2 * m, pair))
    triple = Triple(*(PolyMatrix.block_diag(blocks) for blocks in (xs, ys, hs)))
    form = None if family == "sl" else PolyMatrix.block_diag(forms)
    alg = make_algebra(family, size, form)
    check_triple(alg, triple)
    if jordan_type(triple.x) != tuple(parts):
        raise AssertionError("constructed nilpotent has the wrong Jordan type")
    return NilpotentModel(alg, triple, tuple(parts), family, form)


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------


class SliceChart(NamedTuple):
    """Coordinates c_k = names[k] on x + sum_k c_k vectors[k]; c_k has
    weight w = coord_weights[k], so [h, vectors[k]] = (2 - w) vectors[k]."""

    model: NilpotentModel
    names: Tuple[str, ...]
    vectors: Tuple[PolyMatrix, ...]
    coord_weights: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.names)


def check_chart(chart: SliceChart) -> SliceChart:
    """The chart, once its vectors are shown to be a graded basis of
    ker(ad y) under the algebra's bracket (else AssertionError) lying in
    the algebra (else read raises ValueError).  The coordinates of all the
    vectors are checked by one product C B in `read`, and the rows of C
    must be independent."""
    model = chart.model
    alg, y, h = model.algebra, model.triple.y, model.triple.h
    rows = list(zip(chart.names, chart.vectors, chart.coord_weights))
    vectors = [v for _, v, _ in rows]
    for k, (name, v, w) in enumerate(rows):
        in_kernel = alg.bracket(y, v).is_zero()
        if not in_kernel or alg.bracket(h, v) != v.scale(2 - w):
            alg.read(vectors[:k])  # an earlier vector outside the algebra is reported first
            fault = "has the wrong weight" if in_kernel else "is not in ker(ad y)"
            raise AssertionError(f"chart vector {name} {fault}")
    if rank(alg.read(vectors)) != len(vectors):
        raise AssertionError("chart vectors are dependent")
    if model.slice_dim != len(vectors):
        raise AssertionError("chart does not span ker(ad y)")
    return chart


def slodowy_slice(model: NilpotentModel) -> SliceChart:
    """Transverse slice chart at x: a graded basis of ker(ad y).  Basis
    vectors are computed weight by weight (ad h eigenvalue w), so each
    coordinate has the definite weight 2 - w."""
    alg, h = model.algebra, model.triple.h
    ady, adh = alg.ad_matrix(model.triple.y), alg.ad_matrix(h)
    # the ad h eigenvalues of a diagonal h; check_chart catches any other h
    hdiag = [h.entry(i, i) for i in range(h.nrows)]
    weights = sorted({int((a - b).r0) for a in hdiag for b in hdiag}, reverse=True)
    vectors: List[PolyMatrix] = []
    coord_weights: List[int] = []
    for w in weights:
        shifted = adh - PolyMatrix.identity(alg.dim).scale(Scalar(w))
        for coeffs in nullspace(PolyMatrix.vstack(ady, shifted)):
            vectors.append(alg.combination(coeffs))
            coord_weights.append(2 - w)
    names = tuple(f"c{i + 1}" for i in range(len(vectors)))
    return check_chart(SliceChart(model, names, tuple(vectors), tuple(coord_weights)))


def hook_slice(n: int) -> SliceChart:
    """The explicit chart for the sp_2n slice at Jordan type (2n-2, 1, 1).

    Coordinates: t_1..t_(n-1) pair with y^(2j-1)/(2j-1)! in the long block,
    a and b with the two hook-mixing matrices, and x, y, z fill the small
    symplectic block as [[y, -z], [x, -y]].  check_chart verifies it.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    model = jm_triple("sp", [2 * n - 2, 1, 1])
    m = 2 * n - 2
    size = 2 * n

    y_long = chain_block(m)[1]
    pad = PolyMatrix.zeros(2, 2)
    vectors: List[PolyMatrix] = []
    names: List[str] = []
    weights: List[int] = []
    power = y_long
    for j in range(1, n):
        k = 2 * j - 1
        vectors.append(PolyMatrix.block_diag([power.scale(Fraction(1, math.factorial(k))), pad]))
        names.append(f"t{j}")
        weights.append(4 * j)
        power = power * y_long * y_long
    for name, weight, entries in (
        ("a", 2 * n - 1, {(m - 1, m + 1): 1, (m, 0): -1}),
        ("b", 2 * n - 1, {(m - 1, m): 1, (m + 1, 0): 1}),
        ("x", 2, {(m + 1, m): 1}),
        ("y", 2, {(m, m): 1, (m + 1, m + 1): -1}),
        ("z", 2, {(m, m + 1): -1}),
    ):
        vectors.append(PolyMatrix.from_entries(size, size, entries))
        names.append(name)
        weights.append(weight)

    return check_chart(SliceChart(model, tuple(names), tuple(vectors), tuple(weights)))


def transversality_check(model: NilpotentModel) -> Dict[str, int]:
    """Dimension bookkeeping at x: slice dim + orbit dim = algebra dim,
    the orbit dimension being rank(ad x)."""
    alg = model.algebra
    slice_dim = model.slice_dim
    orbit_dim = rank(alg.ad_matrix(model.triple.x))
    return {
        "algebra_dim": alg.dim,
        "slice_dim": slice_dim,
        "orbit_dim": orbit_dim,
        "transversal": int(slice_dim + orbit_dim == alg.dim),
    }
