"""Exact scalars in Q(sqrt 2).

Every number in this package is a Scalar: a pair (r0, r1) of rationals
representing r0 + r1*sqrt(2).  Every structure constant the package
builds is rational (the exceptional 7-dim representation is the rational
conjugate of the printed one, whose vector blocks carry 1/sqrt 2), so a
sqrt 2 part comes only from text or JSON input.  Q(sqrt 2) is still a
field with decidable equality, so every pipeline stays exact end to end.
No floats anywhere.

Each component is stored as a Python int when it is integral and as a
Fraction only when it is not: r0 and r1 are each an int (never a bool) or
a Fraction whose denominator is not 1.  Most operands downstream are
integers (structure constants, slice matrices, sampled points), and int
arithmetic costs a fraction of Fraction arithmetic.  The constructor
normalises raw input once; every arithmetic result is built by _make from
components already in that form, folding integral Fractions back to int.

Four kernels outside Scalar compute on the components and make a Scalar
only of each result: matrix_product, the kernel of Scalar matrix
products and of signed sums of them such as a commutator, sums each
entry on them, mpoly.MPoly.dot sums each term of a sum of polynomial
products on them, polymat.pfaffian expands a rational matrix on its r0
components, and polymat.rref eliminates on ints: a rational matrix's r0
components cleared of denominators, and for a matrix with a sqrt2 part
the components of its regular representation over Q, each entry
a + b sqrt2 written as the block [[a, 2b], [b, a]].
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

RationalLike = Union[int, Fraction, str]
Rational = Union[int, Fraction]


def _fold(q: Rational) -> Rational:
    """An int or Fraction component in stored form: integral values as int."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


def _rational(value: RationalLike) -> Rational:
    """Raw input (int, bool, Fraction, str) as a stored component."""
    if type(value) is int:
        return value
    return _fold(value if isinstance(value, Fraction) else Fraction(value))


class Scalar:
    """An element r0 + r1*sqrt(2) of Q(sqrt 2), always in lowest terms."""

    __slots__ = ("r0", "r1")

    def __init__(self, r0: RationalLike = 0, r1: RationalLike = 0):
        _set_r0(self, _rational(r0))
        _set_r1(self, _rational(r1))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # ---- constructors ----

    @staticmethod
    def sqrt2() -> "Scalar":
        return Scalar(0, 1)

    @staticmethod
    def coerce(value: "Scalar | RationalLike") -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    # ---- predicates ----

    def is_zero(self) -> bool:
        return not self.r0 and not self.r1

    def is_rational(self) -> bool:
        return not self.r1

    def __bool__(self) -> bool:
        return bool(self.r0 or self.r1)

    # ---- arithmetic ----

    @staticmethod
    def _as_scalar(value):
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        return None

    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar._as_scalar(other)
            if other is None:
                return NotImplemented
        b, d = self.r1, other.r1
        return _make(_fold(self.r0 + other.r0), _fold(b + d) if b or d else 0)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _make(-self.r0, -self.r1)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = Scalar._as_scalar(other)
            if other is None:
                return NotImplemented
        b, d = self.r1, other.r1
        return _make(_fold(self.r0 - other.r0), _fold(b - d) if b or d else 0)

    def __rsub__(self, other):
        other = Scalar._as_scalar(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = Scalar._as_scalar(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.r0, self.r1, other.r0, other.r1
        # (a + b s)(c + d s) = (ac + 2bd) + (ad + bc) s  with s^2 = 2
        if not b and not d:
            return _make(_fold(a * c), 0)
        return _make(_fold(a * c + 2 * b * d), _fold(a * d + b * c))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        a, b = self.r0, self.r1
        if not a and not b:
            raise ZeroDivisionError("inverse of zero Scalar")
        # Divide as Fraction: int / int would be a float.  A rational
        # inverts as one Fraction.
        if not b:
            return _make(_fold(Fraction(1, a)), 0)
        # 1/(a + b s) = (a - b s)/(a^2 - 2 b^2); the norm is nonzero since
        # sqrt 2 is irrational
        norm = a * a - 2 * b * b
        return _make(_fold(Fraction(a, norm)), _fold(Fraction(-b, norm)))

    def __truediv__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        c = other.r0
        # two rationals divide as one Fraction; zero takes inverse's error
        if c and not other.r1 and not self.r1:
            return _make(_fold(Fraction(self.r0, c)), 0)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.coerce(other) / self

    def __pow__(self, exponent: int) -> "Scalar":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # ---- comparison / hashing ----

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.r0 == other.r0 and self.r1 == other.r1

    def __hash__(self):
        # hash(n) == hash(Fraction(n)), so the hash is that of the pair of
        # Fractions whatever the stored form
        return hash((self.r0, self.r1))

    def sign_key(self) -> int:
        """-1, 0 or +1 according to the real value of the scalar.

        Exact: a + b*sqrt2 > 0 iff (a > 0 and a^2 > 2b^2) or
        (b > 0 and 2b^2 > a^2), handled below by case analysis.
        """
        a, b = self.r0, self.r1
        if not a and not b:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2
        if a > 0:  # b < 0
            return 1 if a * a > 2 * b * b else -1
        return -1 if a * a > 2 * b * b else 1

    # ---- rendering ----

    def __str__(self) -> str:
        # str(n) == str(Fraction(n)): the text does not depend on the stored form
        a, b = self.r0, self.r1
        if not b:
            return str(a)
        if not a:
            if b == 1:
                return "sqrt2"
            if b == -1:
                return "-sqrt2"
            return f"{b!s}*sqrt2"
        sep = " - " if b < 0 else " + "
        mag = -b if b < 0 else b
        tail = "sqrt2" if mag == 1 else f"{mag!s}*sqrt2"
        return f"{a!s}{sep}{tail}"

    def __repr__(self) -> str:
        return f"Scalar({Fraction(self.r0)!r}, {Fraction(self.r1)!r})"


_new = object.__new__
_set_r0 = Scalar.r0.__set__
_set_r1 = Scalar.r1.__set__


def _make(r0: Rational, r1: Rational) -> Scalar:
    """The Scalar r0 + r1*sqrt2 from components already in stored form."""
    s = _new(Scalar)
    _set_r0(s, r0)
    _set_r1(s, r1)
    return s


def matrix_product(terms: Sequence[Tuple[int, Sequence[Dict], Sequence[Dict]]]) -> List[Dict]:
    """The sparse rows (column -> nonzero Scalar) of sum s A B over the
    terms (s, A, B), s = 1 or -1, from the rows of each A and B; A B is
    the one term (1, A, B).  Each entry is summed once on the components,
    over every term, from its first product (0 + Fraction takes the slow
    reflected path), with a sqrt 2 sum only where an operand has a sqrt 2
    part; a term with s = -1 negates each entry of its A once."""
    out = []
    for i in range(len(terms[0][1])):
        s0: Dict[int, Rational] = {}
        s1 = None
        for sign, a_rows, b_rows in terms:
            for t, a in a_rows[i].items():
                a0, a1 = a.r0, a.r1
                if sign < 0:
                    a0, a1 = -a0, -a1
                for j, b in b_rows[t].items():
                    b0, b1 = b.r0, b.r1
                    if a1 or b1:
                        # (a0 + a1 s)(b0 + b1 s) = (a0 b0 + 2 a1 b1) + (a0 b1 + a1 b0) s
                        p, q = a0 * b0 + 2 * a1 * b1, a0 * b1 + a1 * b0
                        if s1 is None:
                            s1 = {}
                        v = s1.get(j)
                        s1[j] = q if v is None else v + q
                    else:
                        p = a0 * b0
                    v = s0.get(j)
                    s0[j] = p if v is None else v + p
        if not s0:
            out.append(s0)
            continue
        row: Dict[int, Scalar] = {}
        for j, v in s0.items():
            w = 0 if s1 is None else _fold(s1.get(j, 0))
            if v or w:
                row[j] = _make(_fold(v), w)
        out.append(row)
    return out


ZERO = Scalar(0)
ONE = Scalar(1)
