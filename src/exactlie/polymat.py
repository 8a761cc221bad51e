"""Matrices over the exact scalars or over polynomials.

PolyMatrix is the one matrix type.  It stores only its nonzero entries,
grouped by row (_rows[i] maps a column to a nonzero entry), with its width
and its ring's zero kept explicitly: an entry that is not stored reads as
that zero, and a 0 x m matrix keeps its m columns.  Entries are Scalars
or MPolys.  Ints and Fractions become Scalars once, when raw entries come
in through PolyMatrix(rows) or, for Scalar matrices,
PolyMatrix.from_entries; every other operation touches only stored entries
and drops the ones that cancel; a sum of a Scalar and a polynomial
matrix is polynomial in every entry.  A product, and a signed sum of
products such as a commutator (product_sum), sums each entry once, in
the kernel of its ring.  Other modules read entries through entry, row,
column and nonzeros, never through the row storage.

Characteristic polynomials come from Berkowitz's division-free algorithm
(Inf. Process. Lett. 18, 1984), which uses only ring operations and so is
exact over any coefficient ring, run on rows cut from the stored ones by
the product kernel; the cofactor determinant is kept as an independent
cross-check for small sizes.  Every determinant of a 0 x 0 matrix is the
one of its ring.  Row reduction, kernels and
linear solving are implemented for Scalar entries only: rref is sparse,
fraction-free Gauss-Jordan elimination on rows of ints that takes, for
each column, the sparsest row still free as the pivot row, which keeps
fill-in low and, the reduced form being unique, leaves the result as it
is.  A rational matrix is eliminated on its r0 components cleared of
denominators, one with a sqrt2 part on its regular representation over
Q, by the same loop; rank, kernel, nullspace, solve_linear and invert
each run one rref.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .mpoly import MPoly
from .scalar import ONE, ZERO, Rational, Scalar, matrix_product

Row = Dict[int, object]


def _coerce_entry(x):
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return x


def _ring_zero(values):
    """The zero polynomial in the variables of the first MPoly among values,
    else ZERO: the zero of the ring that holds all of them."""
    poly = next((x for x in values if type(x) is MPoly), None)
    return ZERO if poly is None else MPoly.zero(poly.vars)


def _in_ring(x, zero):
    """The raw entry x as an element of zero's ring; in a polynomial ring
    a constant becomes a constant MPoly."""
    if type(zero) is MPoly and type(x) is not MPoly:
        return MPoly.constant(x, zero.vars)
    return _coerce_entry(x)


def _rows_in_ring(rows: Sequence[Row], zero) -> List[Row]:
    """Sparse rows with each entry moved into zero's ring by _in_ring."""
    return [{j: _in_ring(x, zero) for j, x in r.items()} for r in rows]


class PolyMatrix:
    """An nrows x ncols matrix on sparse rows; immutable."""

    __slots__ = ("_rows", "ncols", "zero")

    def __init__(self, rows: Sequence[Sequence]):
        """The matrix with these raw entries, one list per row.  If any
        entry is an MPoly, every entry is stored as one, in its variables."""
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        zero = _ring_zero(x for r in rows for x in r)
        self._init([{j: _in_ring(x, zero) for j, x in enumerate(r) if x} for r in rows],
                   ncols, zero)

    def _init(self, rows: List[Row], ncols: int, zero) -> None:
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "zero", zero)

    @staticmethod
    def _make(rows: List[Row], ncols: int, zero) -> "PolyMatrix":
        """Wrap rows that already hold only nonzero ring elements."""
        m = object.__new__(PolyMatrix)
        m._init(rows, ncols, zero)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable; use map_entries")

    # ---- shape / access ----

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def one(self):
        return self.zero ** 0

    def entry(self, i: int, j: int):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.nrows}x{self.ncols} matrix")
        return self._rows[i].get(j, self.zero)

    def row(self, i: int) -> List:
        if not 0 <= i < self.nrows:
            raise IndexError(f"row {i} outside a {self.nrows}x{self.ncols} matrix")
        row, zero = self._rows[i], self.zero
        return [row.get(j, zero) for j in range(self.ncols)]

    def column(self, j: int) -> List:
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} outside a {self.nrows}x{self.ncols} matrix")
        return [r.get(j, self.zero) for r in self._rows]

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "PolyMatrix":
        """Rows r0..r1-1 and columns c0..c1-1."""
        return PolyMatrix._make(
            [{j - c0: x for j, x in r.items() if c0 <= j < c1} for r in self._rows[r0:r1]],
            c1 - c0,
            self.zero,
        )

    def nonzeros(self) -> Iterator[Tuple[int, int, object]]:
        """(i, j, entry) for every nonzero entry, row by row."""
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                yield i, j, x

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # ---- constructors ----

    @staticmethod
    def from_entries(
        nrows: int, ncols: int, entries: Mapping[Tuple[int, int], object]
    ) -> "PolyMatrix":
        """The nrows x ncols Scalar matrix with the given raw scalar entries
        (Scalars, ints or Fractions) at the given (row, column) positions
        and zero elsewhere."""
        rows: List[Row] = [{} for _ in range(nrows)]
        for (i, j), x in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise IndexError(f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix")
            if x:
                rows[i][j] = Scalar.coerce(x)
        return PolyMatrix._make(rows, ncols, ZERO)

    @staticmethod
    def flattened(ms: Sequence["PolyMatrix"], width: int) -> "PolyMatrix":
        """The len(ms) x width matrix whose row k is ms[k] read row by row:
        entry (r, s) of ms[k] at column r * ms[k].ncols + s."""
        rows = [{r * m.ncols + s: x for r, row in enumerate(m._rows) for s, x in row.items()}
                for m in ms]
        return PolyMatrix._make(rows, width, _ring_zero(m.zero for m in ms))

    @staticmethod
    def zeros(n: int, m: int, zero=None) -> "PolyMatrix":
        return PolyMatrix._make([{} for _ in range(n)], m, ZERO if zero is None else zero)

    @staticmethod
    def identity(n: int, one=None) -> "PolyMatrix":
        o = ONE if one is None else one
        return PolyMatrix._make([{i: o} for i in range(n)], n, o - o)

    @staticmethod
    def block_diag(blocks: Sequence["PolyMatrix"]) -> "PolyMatrix":
        """The blocks along the diagonal, in the ring that holds them all."""
        zero = _ring_zero(b.zero for b in blocks)
        rows: List[Row] = []
        c0 = 0
        for b in blocks:
            rows += [{c0 + j: _in_ring(x, zero) for j, x in r.items()} for r in b._rows]
            c0 += b.ncols
        return PolyMatrix._make(rows, c0, zero)

    @staticmethod
    def vstack(top: "PolyMatrix", bottom: "PolyMatrix") -> "PolyMatrix":
        if top.ncols != bottom.ncols:
            raise ValueError("shape mismatch in vertical stack")
        zero = top.zero + bottom.zero
        return PolyMatrix._make(_rows_in_ring(top._rows + bottom._rows, zero), top.ncols, zero)

    # ---- arithmetic ----

    def _entrywise(self, other: "PolyMatrix", op: Callable) -> "PolyMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols}"
            )
        zero = op(self.zero, other.zero)
        rows = self._rows if type(self.zero) is type(zero) else _rows_in_ring(self._rows, zero)
        out: List[Row] = []
        for ra, rb in zip(rows, other._rows):
            row = dict(ra)
            for j, b in rb.items():
                v = op(row.get(j, zero), b)
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
            out.append(row)
        return PolyMatrix._make(out, self.ncols, zero)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._entrywise(other, operator.sub)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix._make(
            [{j: -x for j, x in r.items()} for r in self._rows], self.ncols, self.zero
        )

    def scale(self, c) -> "PolyMatrix":
        # entries lie in a field or a polynomial ring over one, so a
        # product of two nonzero factors is never zero
        c = _coerce_entry(c)
        zero = self.zero * c
        if not c:
            return PolyMatrix.zeros(self.nrows, self.ncols, zero)
        return PolyMatrix._make(
            [{j: x * c for j, x in r.items()} for r in self._rows], self.ncols, zero
        )

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """The matrix product, product_sum of the one term (1, self,
        other).  A factor that is not a matrix scales."""
        if not isinstance(other, PolyMatrix):
            return self.scale(other)
        return product_sum(((1, self, other),))

    def __pow__(self, k: int) -> "PolyMatrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power of a matrix")
        result = PolyMatrix.identity(self.nrows, one=self.one)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def transpose(self) -> "PolyMatrix":
        out: List[Row] = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                out[j][i] = x
        return PolyMatrix._make(out, self.nrows, self.zero)

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        t = self.zero
        for i, r in enumerate(self._rows):
            x = r.get(i)
            if x is not None:
                t = t + x
        return t

    def map_entries(self, fn: Callable) -> "PolyMatrix":
        """fn applied to every entry; fn must send zero to zero."""
        zero = fn(self.zero)
        if zero:
            raise ValueError("map_entries needs a function that sends zero to zero")
        return PolyMatrix._make(
            [{j: y for j, x in r.items() if (y := fn(x))} for r in self._rows],
            self.ncols,
            zero,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self._rows == other._rows

    def __hash__(self):
        return hash((self.ncols, tuple(frozenset(r.items()) for r in self._rows)))

    def is_zero(self) -> bool:
        return not any(self._rows)

    def is_symmetric(self) -> bool:
        rows = self._rows
        return self.is_square() and all(
            rows[j].get(i) == x for i, r in enumerate(rows) for j, x in r.items()
        )

    def is_skew(self) -> bool:
        return _is_skew(self._rows, self.ncols)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.nrows))
        return f"PolyMatrix[{body}]"


def linear_combination(
    coeffs: Sequence, matrices: Sequence[PolyMatrix], nrows: int, ncols: int
) -> PolyMatrix:
    """sum_k coeffs[k] * matrices[k] over nrows x ncols matrices, summed
    entry by entry in one pass.  If any coefficient or matrix is
    polynomial, so is every entry of the sum."""
    if len(coeffs) != len(matrices):
        raise ValueError("coefficient count mismatch")
    zero = _ring_zero([*coeffs, *(m.zero for m in matrices)])
    out: List[Row] = [{} for _ in range(nrows)]
    for c, m in zip(coeffs, matrices):
        if not c:
            continue
        for acc, r in zip(out, m._rows):
            for j, x in r.items():
                v = acc.get(j)
                acc[j] = c * x if v is None else v + c * x
    out = [{j: _in_ring(v, zero) for j, v in acc.items() if v} for acc in out]
    return PolyMatrix._make(out, ncols, zero)


def product_sum(terms: Sequence[Tuple[int, PolyMatrix, PolyMatrix]]) -> PolyMatrix:
    """sum s A B over the terms (s, A, B), s = 1 or -1, every A B of one
    shape, in one pass of _product_rows: the commutator x y - y x is
    product_sum(((1, x, y), (-1, y, x))).  The ring zero is taken from the
    factors, not multiplied: a polynomial one wins, and every polynomial
    factor must have the same variables."""
    nrows, ncols = len(terms[0][1]._rows), terms[0][2].ncols
    zero = ZERO
    for _, a, b in terms:
        if a.ncols != len(b._rows) or len(a._rows) != nrows or b.ncols != ncols:
            raise ValueError("shape mismatch in matrix product")
        for f in (a.zero, b.zero):
            if type(f) is MPoly:
                if type(zero) is MPoly and f.vars != zero.vars:
                    raise ValueError(f"variable mismatch: {f.vars} vs {zero.vars}")
                zero = f
    rows = _product_rows([(s, a._rows, b._rows) for s, a, b in terms], zero)
    return PolyMatrix._make(rows, ncols, zero)


def _product_rows(terms: Sequence[Tuple[int, Sequence[Row], Sequence[Row]]], zero) -> List[Row]:
    """The sparse rows of sum s A B over the terms (s, A rows, B rows) in
    zero's ring, each entry summed once by the kernel of the ring:
    scalar.matrix_product for Scalar rows, else one MPoly.dot over the
    entry's pairs (a Scalar is a constant there, and s = -1 negates each
    entry of A once)."""
    if type(zero) is Scalar:
        return matrix_product(terms)
    vars, dot = zero.vars, MPoly.dot
    out = []
    for i in range(len(terms[0][1])):
        pairs: Dict[int, list] = {}
        for sign, a_rows, b_rows in terms:
            for t, a in a_rows[i].items():
                if sign < 0:
                    a = -a
                for j, b in b_rows[t].items():
                    ps = pairs.get(j)
                    if ps is None:
                        pairs[j] = [(a, b)]
                    else:
                        ps.append((a, b))
        out.append({j: v for j, ps in pairs.items() if (v := dot(vars, ps))})
    return out


# ---------------------------------------------------------------------------
# determinants and characteristic polynomials
# ---------------------------------------------------------------------------


def det_cofactor(matrix: PolyMatrix):
    """Cofactor-expansion determinant.  Exponential; used as an independent
    oracle for small matrices and for generic ring entries."""
    if not matrix.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = matrix.nrows
    if n == 0:
        return matrix.one
    return _expand_det(matrix._rows, tuple(range(n)), tuple(range(n)), matrix.zero)


def _expand_det(rows: Sequence[Mapping], row_idx: Tuple[int, ...], col_idx: Tuple[int, ...], zero):
    """det of the submatrix on row_idx x col_idx, expanded along its first
    row.  A module function, not a closure, for the reason given at
    _expand_pfaffian."""
    if len(row_idx) == 1:
        return rows[row_idx[0]].get(col_idx[0], zero)
    i = row_idx[0]
    rest = row_idx[1:]
    total = None
    for pos, j in enumerate(col_idx):
        a = rows[i].get(j)
        if a is None:
            continue
        term = a * _expand_det(rows, rest, col_idx[:pos] + col_idx[pos + 1:], zero)
        if pos % 2:
            term = -term
        total = term if total is None else total + term
    return zero if total is None else total


def charpoly_coefficients(matrix: PolyMatrix) -> List:
    """Coefficients c_0..c_n with det(lam*I - A) = sum c_k lam^(n-k),
    c_0 = 1, by Berkowitz's division-free algorithm (S. J. Berkowitz, Inf.
    Process. Lett. 18, 1984), hence exact over any commutative ring.

    Step k borders the leading k x k block A_k by the row R and column C
    left of and above a = A[k][k].  The Toeplitz column (1, -a, -R C,
    -R A_k C, ..., -R A_k^(k-1) C) times the coefficients of A_k gives
    those of A_(k+1).  Every Krylov vector A_k^j C, every -R A_k^j C and
    every Toeplitz product is formed on sparse rows cut from the stored
    ones by _product_rows, the kernel of PolyMatrix products, so each of
    their entries is one sum in its ring and no step builds a matrix."""
    if not matrix.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    rows, one, zero = matrix._rows, matrix.one, matrix.zero
    coeffs: List[Row] = [{0: one}]  # a column, one row per coefficient
    for k in range(matrix.nrows):
        a = rows[k].get(k)
        toeplitz = [one, zero if a is None else -a]
        if k:
            block = [{t: x for t, x in r.items() if t < k} for r in rows[:k]]
            border = [{t: -x for t, x in rows[k].items() if t < k}]  # -R
            krylov = [{0: x} if (x := r.get(k)) is not None else {} for r in rows[:k]]
            for j in range(k):
                if j:
                    krylov = _product_rows(((1, block, krylov),), zero)
                toeplitz.append(_product_rows(((1, border, krylov),), zero)[0].get(0, zero))
        lower = [
            {j: toeplitz[i - j] for j in range(min(i, k) + 1) if toeplitz[i - j]}
            for i in range(k + 2)
        ]
        coeffs = _product_rows(((1, lower, coeffs),), zero)
    return [r.get(0, zero) for r in coeffs]


def charpoly(matrix: PolyMatrix, var: str) -> MPoly:
    """det(var*I - A) as an MPoly.  Scalar matrices produce a univariate
    polynomial in ``var``; MPoly matrices must already carry ``var`` in
    their variable tuple."""
    coeffs = charpoly_coefficients(matrix)
    n = matrix.nrows
    if isinstance(matrix.zero, MPoly):
        vars = matrix.zero.vars
        if var not in vars:
            raise ValueError(f"variable {var} missing from matrix entries")
        lam = MPoly.variable(var, vars)
        result = MPoly.zero(vars)
        for k, c in enumerate(coeffs):
            result = result + c * lam ** (n - k)
        return result
    vars = (var,)
    result = MPoly.zero(vars)
    for k, c in enumerate(coeffs):
        result = result + MPoly.monomial(vars, (n - k,), c)
    return result


def determinant(matrix: PolyMatrix):
    """Determinant from the division-free Berkowitz coefficients:
    det A = (-1)^n c_n."""
    coeffs = charpoly_coefficients(matrix)
    n = matrix.nrows
    return coeffs[n] if n % 2 == 0 else -coeffs[n]


def _is_skew(rows: Sequence[Mapping], ncols: int) -> bool:
    """Square, with a zero diagonal and a_ji == -a_ij, on stored entries of
    any type."""
    return len(rows) == ncols and all(
        i != j and rows[j].get(i) == -x for i, r in enumerate(rows) for j, x in r.items()
    )


def pfaffian(matrix: PolyMatrix):
    """Pfaffian of a skew-symmetric matrix by expansion along the first
    remaining row, memoized on index subsets.  pf of an odd-size matrix is 0
    and pf of the empty matrix is 1.

    A rational Scalar matrix (no entry with a sqrt2 part) is expanded on its
    raw r0 components, ints and Fractions, and only the result is a Scalar;
    polynomial and Q(sqrt2) matrices are expanded on their entries."""
    rows, zero = matrix._rows, matrix.zero
    raw = type(zero) is Scalar and all(
        type(x) is Scalar and not x.r1 for r in rows for x in r.values()
    )
    if raw:
        rows, zero, one = [{j: x.r0 for j, x in r.items()} for r in rows], 0, 1
    else:
        one = matrix.one
    if not _is_skew(rows, matrix.ncols):
        raise ValueError("pfaffian requires a skew-symmetric matrix")
    n = len(rows)
    if n % 2:
        return matrix.zero
    pf = _expand_pfaffian(rows, tuple(range(n)), {}, zero, one)
    return Scalar(pf) if raw else pf


def _expand_pfaffian(rows: Sequence[Mapping], idx: Tuple[int, ...], cache: Dict, zero, one):
    """pf of the principal submatrix on idx, expanded along its first row
    and memoized in cache.  A module function, not a closure: a closure
    that calls itself is a reference cycle, which would keep each call's
    cache alive until the next garbage collection."""
    if not idx:
        return one
    got = cache.get(idx)
    if got is not None:
        return got
    i = idx[0]
    rest = idx[1:]
    total = None
    for pos, j in enumerate(rest):
        a = rows[i].get(j)
        if a is None:
            continue
        term = a * _expand_pfaffian(rows, rest[:pos] + rest[pos + 1:], cache, zero, one)
        if pos % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        total = zero
    cache[idx] = total
    return total


def exp_nilpotent(matrix: PolyMatrix) -> PolyMatrix:
    """exp of a nilpotent Scalar matrix, exactly (the series terminates)."""
    n = matrix.nrows
    result = PolyMatrix.identity(n)
    term = PolyMatrix.identity(n)
    for k in range(1, n + 1):
        term = term * matrix
        term = term.scale(Scalar(Fraction(1, k)))
        if term.is_zero():
            return result
        result = result + term
    # an n x n nilpotent matrix satisfies A^n = 0, so the loop must return
    raise ValueError("matrix is not nilpotent")


# ---------------------------------------------------------------------------
# Scalar linear algebra
# ---------------------------------------------------------------------------


def rref(matrix: PolyMatrix) -> Tuple[PolyMatrix, List[int]]:
    """Reduced row echelon form over Q(sqrt2) with the pivot columns: the
    pivot rows in pivot-column order, then the empty rows.

    A rational matrix is reduced by _eliminate on its r0 components cleared
    of denominators.  A matrix A with a sqrt2 part is reduced through its
    regular representation M(A) over Q: entry a + b sqrt2 at (i, j) becomes
    [[a, 2b], [b, a]] at rows 2i, 2i+1 and columns 2j, 2j+1.  M is an
    injective ring map, so for R = rref(A) = E A, M(R) = M(E) M(A) has the
    row space of M(A), M(E) being invertible; and M(R) is reduced, each
    pivot 1 of R becoming a 2x2 identity block alone in its columns.  The
    reduced form being unique, rref(M(A)) = M(R): its pivots come in pairs
    (2c, 2c+1), and R[k][j] = M[2k][2j] + M[2k+1][2j] sqrt2 exactly."""
    m = matrix.ncols
    if all(not x.r1 for r in matrix._rows for x in r.values()):
        out, pivots = _eliminate(
            [_integral({j: x.r0 for j, x in r.items()}) for r in matrix._rows], m
        )
    else:
        rows = []
        for r in matrix._rows:
            top, bottom = {}, {}
            for j, x in r.items():
                if x.r0:
                    top[2 * j] = bottom[2 * j + 1] = x.r0
                if x.r1:
                    top[2 * j + 1], bottom[2 * j] = 2 * x.r1, x.r1
            rows += [_integral(top), _integral(bottom)]
        reduced, paired = _eliminate(rows, 2 * m)
        pivots = [c >> 1 for c in paired[::2]]
        if paired != [2 * c + k for c in pivots for k in (0, 1)]:
            raise AssertionError(f"unpaired pivots {paired} in the regular representation")
        out = [
            {j >> 1: Scalar(top.get(j, ZERO).r0, bottom.get(j, ZERO).r0)
             for j in {*top, *bottom} if not j & 1}
            for top, bottom in zip(reduced[::2], reduced[1::2])
        ]
    return PolyMatrix._make(out, m, matrix.zero), pivots


def _integral(row: Dict[int, Rational]) -> Dict[int, int]:
    """A row of ints and Fractions times the lcm of their denominators: a
    new row of ints."""
    denominators = [x.denominator for x in row.values() if type(x) is not int]
    if denominators:
        d = lcm(*denominators)
        row = {j: x.numerator * (d // x.denominator) for j, x in row.items()}
    return row


def _eliminate(rows: List[Dict[int, int]], ncols: int) -> Tuple[List[Row], List[int]]:
    """rref of the rational matrix with these integer rows, which it
    consumes, as rows of rational Scalars, with the pivot columns.

    Fraction-free sparse Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968).  For each column c the pivot row is the row with the fewest
    stored entries among those not pivot rows yet that hold c, the lowest
    index breaking ties (Markowitz's rule restricted to rows, Management
    Science 3, 1957), which keeps fill-in low.  Row i's entry f in c is
    cleared as row_i <- (pv/g) row_i - (f/g) prow, pv the pivot and
    g = gcd(pv, f), and row i is divided by its content (the gcd of its
    entries); each pivot row is divided by its pivot once, at the end.
    None of this changes the result: entries cancel where they cancel over
    Q, and over a field every matrix has exactly one reduced row echelon
    form; a row that never becomes a pivot row ends up empty.

    A column -> rows index, updated whenever an entry fills in or cancels,
    hands each step the rows that hold column c, so neither the candidate
    search nor the elimination scans all rows.  A step still touches the
    whole of each row it clears, through the cross-multiplication and the
    content reduction."""
    n = len(rows)
    holders: List[set] = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    is_pivot = [False] * n
    pivots: List[int] = []
    order: List[int] = []
    for c in range(ncols):
        if len(order) == n:
            break
        held = holders[c]
        best = min(((len(rows[i]), i) for i in held if not is_pivot[i]), default=None)
        if best is None:
            continue
        p = best[1]
        prow = rows[p]
        pv = prow[c]
        update = [(j, x) for j, x in prow.items() if j != c]
        for i in held:
            if i == p:
                continue
            row = rows[i]
            f = row.pop(c)
            g = gcd(pv, f)
            a, b = pv // g, -(f // g)
            # a = -1 gives -(row_i - b prow), a multiple of row_i - b prow
            if a == -1:
                a, b = 1, -b
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            for j, x in update:
                v = row.get(j)
                if v is None:
                    row[j] = b * x
                    holders[j].add(i)
                else:
                    v = v + b * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                        holders[j].discard(i)
            g = gcd(*row.values())
            rows[i] = {j: x // g for j, x in row.items()} if g > 1 else row
        # column c is now held by p alone, and no later pivot row holds it,
        # so no later step reads or updates its index; freeing it keeps the
        # peak memory at that of the unindexed elimination
        holders[c] = None
        is_pivot[p] = True
        pivots.append(c)
        order.append(p)
    out = []
    for p, c in zip(order, pivots):
        pv, row = rows[p][c], {}
        for j, x in rows[p].items():
            q, r = divmod(x, pv)
            row[j] = Scalar(Fraction(x, pv) if r else q)
        out.append(row)
    out += [row for i, row in enumerate(rows) if not is_pivot[i]]
    return out, pivots


def rank(matrix: PolyMatrix) -> int:
    _, pivots = rref(matrix)
    return len(pivots)


def kernel(matrix: PolyMatrix) -> PolyMatrix:
    """Basis of the right kernel as the rows of a matrix, one vector per
    free column, in column order (deterministic)."""
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis: List[Row] = []
    for fc in range(matrix.ncols):
        if fc in pivot_set:
            continue
        v: Row = {fc: ONE}
        for row, pc in zip(reduced._rows, pivots):
            x = row.get(fc)
            if x is not None:
                v[pc] = -x
        basis.append(v)
    return PolyMatrix._make(basis, matrix.ncols, ZERO)


def nullspace(matrix: PolyMatrix) -> List[List[Scalar]]:
    """The vectors of kernel(matrix), each as the list of its entries."""
    basis = kernel(matrix)
    return [basis.row(i) for i in range(basis.nrows)]


def solve_linear(matrix: PolyMatrix, rhs: Sequence) -> Optional[List[Scalar]]:
    """One solution x of A x = b over Q(sqrt2): the particular solution
    whose free coordinates are zero.  Returns None when the system is
    inconsistent (a value, not an exception: downstream searches treat "no
    solution" as an answer).

    One elimination: [A | b] is reduced once, and the system is consistent
    exactly when no pivot lies in the b column.  rref eliminates on integer
    multiples of the rows of [A | b], b included, and divides by each pivot
    only at the end; the reduced form is unique, so the solution read from
    it is the one a rational elimination gives.  Callers that need the
    solution space read kernel(A) themselves."""
    b = [_coerce_entry(x) for x in rhs]
    if len(b) != matrix.nrows:
        raise ValueError("rhs length mismatch")
    m = matrix.ncols
    aug = PolyMatrix._make(
        [{**row, m: x} if x else row for row, x in zip(matrix._rows, b)], m + 1, matrix.zero
    )
    R, pivots = rref(aug)
    if m in pivots:
        return None
    particular = [ZERO] * m
    for row, pc in zip(R._rows, pivots):
        particular[pc] = row.get(m, ZERO)
    return particular


def invert(matrix: PolyMatrix) -> PolyMatrix:
    if not matrix.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = matrix.nrows
    aug = PolyMatrix._make(
        [{**row, n + i: ONE} for i, row in enumerate(matrix._rows)], 2 * n, matrix.zero
    )
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return R.submatrix(0, n, n, 2 * n)
