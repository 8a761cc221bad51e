"""Matrices over the exact scalars or over polynomials.

One matrix class serves both: entries are Scalars or MPolys (anything with
ring arithmetic and truthiness).  Characteristic polynomials come from
Berkowitz's division-free algorithm (Inf. Process. Lett. 18, 1984), which
uses only ring operations and so is exact over any coefficient ring; the
cofactor determinant is kept as an independent cross-check for small
sizes.  Row reduction, kernels and linear solving are implemented for
Scalar entries only: rref works on sparse rows (column -> nonzero entry),
and rank, nullspace, solve_linear and invert each run one rref;
sparse_nullspace takes and returns such rows directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .mpoly import MPoly
from .scalar import Scalar


def _coerce_entry(x):
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return x


class PolyMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        data = [[_coerce_entry(x) for x in row] for row in rows]
        if data:
            w = len(data[0])
            if any(len(r) != w for r in data):
                raise ValueError("ragged rows")
        object.__setattr__(self, "rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable in shape; use map_entries")

    # ---- shape / access ----

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def column(self, j: int) -> List:
        return [r[j] for r in self.rows]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # ---- constructors ----

    @staticmethod
    def zeros(n: int, m: int, zero=None) -> "PolyMatrix":
        z = Scalar(0) if zero is None else zero
        return PolyMatrix([[z for _ in range(m)] for _ in range(n)])

    @staticmethod
    def identity(n: int, one=None) -> "PolyMatrix":
        o = Scalar(1) if one is None else one
        z = o - o
        return PolyMatrix([[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def block_diag(blocks: Sequence["PolyMatrix"]) -> "PolyMatrix":
        n = sum(b.nrows for b in blocks)
        m = sum(b.ncols for b in blocks)
        out = [[Scalar(0)] * m for _ in range(n)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    out[r0 + i][c0 + j] = b.rows[i][j]
            r0 += b.nrows
            c0 += b.ncols
        return PolyMatrix(out)

    # ---- arithmetic ----

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix([[-a for a in r] for r in self.rows])

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix([[a * c for a in r] for r in self.rows])

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return self.scale(other)
        n, k, m = self.nrows, self.ncols, other.ncols
        if other.nrows != k:
            raise ValueError("shape mismatch in matrix product")
        # sparsity-aware: skip zero left entries (matters for the big
        # symbolic characteristic-polynomial runs)
        bt = other.rows
        out: List[List] = []
        for i in range(n):
            arow = self.rows[i]
            acc: List = [None] * m
            for t in range(k):
                a = arow[t]
                if not a:
                    continue
                brow = bt[t]
                for j in range(m):
                    b = brow[j]
                    if not b:
                        continue
                    p = a * b
                    acc[j] = p if acc[j] is None else acc[j] + p
            zero = None
            for j in range(m):
                if acc[j] is None:
                    if zero is None:
                        zero = self._ring_zero(other)
                    acc[j] = zero
            out.append(acc)
        return PolyMatrix(out)

    def _ring_zero(self, other: Optional["PolyMatrix"] = None):
        for m in (self, other):
            if m is None:
                continue
            for r in m.rows:
                for x in r:
                    return x - x
        return Scalar(0)

    def __pow__(self, k: int) -> "PolyMatrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        result = PolyMatrix.identity(self.nrows, one=self._ring_one())
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _ring_one(self):
        for r in self.rows:
            for x in r:
                return x ** 0
        return Scalar(1)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([list(col) for col in zip(*self.rows)]) if self.rows else self

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        t = self._ring_zero()
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def map_entries(self, fn: Callable) -> "PolyMatrix":
        return PolyMatrix([[fn(x) for x in r] for r in self.rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def is_skew(self) -> bool:
        if not self.is_square():
            return False
        for i in range(self.nrows):
            if self.rows[i][i]:
                return False
            for j in range(i + 1, self.ncols):
                if self.rows[i][j] != -self.rows[j][i]:
                    return False
        return True

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"PolyMatrix[{body}]"


# ---------------------------------------------------------------------------
# determinants and characteristic polynomials
# ---------------------------------------------------------------------------


def det_cofactor(matrix: PolyMatrix):
    """Cofactor-expansion determinant.  Exponential; used as an independent
    oracle for small matrices and for generic ring entries."""
    if not matrix.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = matrix.nrows
    rows = matrix.rows

    def rec(row_idx: Tuple[int, ...], col_idx: Tuple[int, ...]):
        if len(row_idx) == 1:
            return rows[row_idx[0]][col_idx[0]]
        i = row_idx[0]
        rest = row_idx[1:]
        total = None
        for pos, j in enumerate(col_idx):
            a = rows[i][j]
            if not a:
                continue
            sub = rec(rest, col_idx[:pos] + col_idx[pos + 1:])
            term = a * sub
            if pos % 2:
                term = -term
            total = term if total is None else total + term
        if total is None:
            return matrix._ring_zero()
        return total

    if n == 0:
        return Scalar(1)
    return rec(tuple(range(n)), tuple(range(n)))


def charpoly_coefficients(matrix: PolyMatrix) -> List:
    """Coefficients c_0..c_n with det(lam*I - A) = sum c_k lam^(n-k),
    c_0 = 1, by Berkowitz's division-free algorithm (S. J. Berkowitz, Inf.
    Process. Lett. 18, 1984), hence exact over any commutative ring.

    Step k borders the leading k x k block A_k by the row R and column C
    left of and above a = A[k][k].  The Toeplitz column (1, -a, -R C,
    -R A_k C, ..., -R A_k^(k-1) C) times the coefficients of A_k gives
    those of A_(k+1); the Krylov vectors A_k^j C are matrix products."""
    if not matrix.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    rows = matrix.rows
    one = matrix._ring_one()
    zero = one - one
    coeffs = PolyMatrix([[one]])
    for k in range(matrix.nrows):
        toeplitz = [one, -rows[k][k]]
        if k:
            block = PolyMatrix([r[:k] for r in rows[:k]])
            row = PolyMatrix([rows[k][:k]])
            krylov = [PolyMatrix([[r[k]] for r in rows[:k]])]
            for _ in range(k - 1):
                krylov.append(block * krylov[-1])
            toeplitz += [-(row * v).rows[0][0] for v in krylov]
        lower = PolyMatrix(
            [[toeplitz[i - j] if i >= j else zero for j in range(k + 1)]
             for i in range(k + 2)]
        )
        coeffs = lower * coeffs
    return coeffs.column(0)


def charpoly(matrix: PolyMatrix, var: str) -> MPoly:
    """det(var*I - A) as an MPoly.  Scalar matrices produce a univariate
    polynomial in ``var``; MPoly matrices must already carry ``var`` in
    their variable tuple."""
    coeffs = charpoly_coefficients(matrix)
    n = matrix.nrows
    sample = matrix.rows[0][0] if n else Scalar(0)
    if isinstance(sample, MPoly):
        vars = sample.vars
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
    if n == 0:
        return Scalar(1)
    return coeffs[n] if n % 2 == 0 else -coeffs[n]


def pfaffian(matrix: PolyMatrix):
    """Pfaffian of a skew-symmetric matrix by expansion along the first
    remaining row, memoized on index subsets.  pf of an odd-size matrix is 0
    and pf of the empty matrix is 1."""
    if not matrix.is_skew():
        raise ValueError("pfaffian requires a skew-symmetric matrix")
    n = matrix.nrows
    zero = matrix._ring_zero()
    one = matrix._ring_one()
    if n % 2:
        return zero
    rows = matrix.rows
    cache: Dict[Tuple[int, ...], object] = {}

    def rec(idx: Tuple[int, ...]):
        if not idx:
            return one
        got = cache.get(idx)
        if got is not None:
            return got
        i = idx[0]
        rest = idx[1:]
        total = None
        for pos, j in enumerate(rest):
            a = rows[i][j]
            if not a:
                continue
            sub = rec(rest[:pos] + rest[pos + 1:])
            term = a * sub
            if pos % 2:
                term = -term
            total = term if total is None else total + term
        if total is None:
            total = zero
        cache[idx] = total
        return total

    return rec(tuple(range(n)))


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
    """Reduced row echelon form over Q(sqrt2) with the pivot columns.
    Deterministic: first nonzero entry in column order is the pivot.

    Rows are held sparse, as column -> nonzero Scalar dicts (see _reduce).
    The reduced form is unique, so the result equals the dense one."""
    rows = [{j: x for j, x in enumerate(r) if x} for r in matrix.rows]
    m = matrix.ncols
    pivots = _reduce(rows, m)
    zero = Scalar(0)
    return PolyMatrix([[row.get(j, zero) for j in range(m)] for row in rows]), pivots


def _reduce(rows: List[Dict[int, Scalar]], m: int) -> List[int]:
    """Reduce sparse rows with m columns in place; returns the pivots.
    Each pivot step touches only the rows with an entry in the pivot
    column, and only at the pivot row's nonzero columns; entries that
    cancel are dropped."""
    n = len(rows)
    pivots: List[int] = []
    r = 0
    for c in range(m):
        pivot_row = next((i for i in range(r, n) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        prow = rows[r] = {j: x * inv for j, x in rows[r].items()}
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            for j, x in prow.items():
                v = row.get(j)
                if v is None:
                    row[j] = -(f * x)
                else:
                    v = v - f * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def sparse_nullspace(rows: Sequence[Dict[int, Scalar]], m: int) -> List[Dict[int, Scalar]]:
    """nullspace() of the matrix with the given sparse rows (column ->
    nonzero entry) and m columns, for systems too sparse to hold dense:
    the same basis, each vector as a column -> nonzero entry dict."""
    rows = [dict(r) for r in rows]
    pivots = _reduce(rows, m)
    pivot_set = set(pivots)
    basis: List[Dict[int, Scalar]] = []
    for fc in range(m):
        if fc in pivot_set:
            continue
        v = {fc: Scalar(1)}
        for r_i, pc in enumerate(pivots):
            x = rows[r_i].get(fc)
            if x is not None:
                v[pc] = -x
        basis.append(v)
    return basis


def rank(matrix: PolyMatrix) -> int:
    _, pivots = rref(matrix)
    return len(pivots)


def _kernel_basis(R: PolyMatrix, pivots: List[int], m: int) -> List[List[Scalar]]:
    """Kernel basis of the first m columns read off a reduced row echelon
    form whose pivots all lie in those columns: one vector per free column,
    in column order."""
    pivot_set = set(pivots)
    basis: List[List[Scalar]] = []
    for fc in range(m):
        if fc in pivot_set:
            continue
        v = [Scalar(0)] * m
        v[fc] = Scalar(1)
        for r_i, pc in enumerate(pivots):
            v[pc] = -R.rows[r_i][fc]
        basis.append(v)
    return basis


def nullspace(matrix: PolyMatrix) -> List[List[Scalar]]:
    """Basis of the right kernel, one vector per free column, in column
    order (deterministic)."""
    R, pivots = rref(matrix)
    return _kernel_basis(R, pivots, matrix.ncols)


@dataclass
class LinearSolution:
    particular: List[Scalar]
    homogeneous: List[List[Scalar]]


def solve_linear(matrix: PolyMatrix, rhs: Sequence) -> Optional[LinearSolution]:
    """Solve A x = b over Q(sqrt2).  Returns None when the system is
    inconsistent (a value, not an exception: downstream searches treat "no
    solution" as an answer).

    One elimination: [A | b] is reduced once.  When the system is
    consistent no pivot lies in the b column, so the left block of
    rref([A | b]) is rref(A), and both the particular solution and the
    kernel basis are read off that one result."""
    b = [_coerce_entry(x) for x in rhs]
    if len(b) != matrix.nrows:
        raise ValueError("rhs length mismatch")
    aug = PolyMatrix([list(r) + [b[i]] for i, r in enumerate(matrix.rows)])
    R, pivots = rref(aug)
    m = matrix.ncols
    if m in pivots:
        return None
    particular = [Scalar(0)] * m
    for r_i, pc in enumerate(pivots):
        particular[pc] = R.rows[r_i][m]
    return LinearSolution(particular=particular, homogeneous=_kernel_basis(R, pivots, m))


def invert(matrix: PolyMatrix) -> PolyMatrix:
    if not matrix.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = matrix.nrows
    aug = PolyMatrix(
        [
            list(matrix.rows[i]) + [Scalar(1) if j == i else Scalar(0) for j in range(n)]
            for i in range(n)
        ]
    )
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return PolyMatrix([row[n:] for row in R.rows])
