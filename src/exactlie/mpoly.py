"""Multivariate polynomials over Q(sqrt 2), stored sparsely.

Terms live in a dict mapping packed exponents to nonzero Scalars.  The
exponent of variable i sits in bits [16 i, 16 i + 16) of one int, so the
exponents of a product of two terms are the sum of their two ints, and a
term is hashed as one int.  Every exponent is at most MAX_EXPONENT =
32,767, which leaves the top bit of each field clear: a sum of two fields
never carries into the next one, and a product whose exponent crosses the
bound sets that guard bit and raises ValueError.  The bound is checked
wherever exponents come in, too: the constructor, monomial, from_text and
from_json.  Exponent tuples are what the public interface speaks:
``terms`` is a view keyed by them, and sorted_terms lists them.

The canonical term order used everywhere (printing, JSON) is
graded reverse lexicographic, descending: higher total degree first, ties
broken so that e precedes e' when the last nonzero entry of e - e' is
negative.  Sorting ascending by the key (-total_degree, reversed exponent
tuple) realizes exactly that order.  It orders exponent tuples; the order
of the packed ints is not that order.

Two wire formats round-trip bit-exactly:

* text: terms joined with signs, coefficients as reduced fractions,
  ``*`` for products and ``^`` for powers, e.g. ``3/2*x^2*y - z + 4``.
  Coefficients with a sqrt2 part are parenthesized: ``(1 - 1/2*sqrt2)*x``.
* JSON: ``{"vars": [...], "terms": [{"coef": "p/q", "coef_sqrt2": "r/s",
  "exps": [...]}, ...]}`` with terms in canonical order.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from operator import mul
from struct import Struct, error as StructError
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .scalar import ONE, ZERO, Rational, Scalar, _fold, _make

Exponents = Tuple[int, ...]

_BITS = 16  # the width of one exponent's field
_MASK = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1  # 32,767: the top bit of a field is its guard


class _Layouts(dict):
    """_LAYOUTS[nvars]: the struct of nvars little-endian 16-bit fields,
    and the guard, the int with the top bit of each field set; made on
    first use."""

    def __missing__(self, nvars: int) -> Tuple[Struct, int]:
        layout = self[nvars] = (
            Struct(f"<{nvars}H"), int.from_bytes(b"\x00\x80" * nvars, "little")
        )
        return layout


_LAYOUTS = _Layouts()


def _pack(exps) -> int:
    """The packed int of an exponent tuple; ValueError unless each entry is
    an int in 0..MAX_EXPONENT."""
    fields, guard = _LAYOUTS[len(exps)]
    try:
        e = int.from_bytes(fields.pack(*exps), "little")
    except StructError:  # negative, above 65,535 or not an int
        e = guard
    if e & guard:
        raise ValueError(f"exponents {tuple(exps)} are not ints in 0..{MAX_EXPONENT}")
    return e


def _unpack(e: int, nvars: int) -> Exponents:
    """The exponent tuple of a packed int over nvars variables."""
    return _LAYOUTS[nvars][0].unpack(e.to_bytes(2 * nvars, "little"))


def grevlex_key(exps: Exponents) -> tuple:
    """Ascending sort by this key lists terms in descending grevlex order."""
    return (-sum(exps), tuple(reversed(exps)))


class MPoly:
    __slots__ = ("vars", "_terms")

    def __init__(self, vars: Tuple[str, ...], terms: Dict[Exponents, Scalar]):
        """The polynomial over vars with the given coefficient under each
        exponent tuple; zero coefficients are dropped."""
        packed: Dict[int, Scalar] = {}
        nvars = len(vars)
        for exps, coef in terms.items():
            coef = Scalar.coerce(coef)
            if coef.is_zero():
                continue
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not match vars {vars}")
            packed[_pack(exps)] = coef
        _set_vars(self, tuple(vars))
        _set_terms(self, packed)

    @staticmethod
    def _make(vars: Tuple[str, ...], terms: Dict[int, Scalar]) -> "MPoly":
        """Wrap terms that already hold only nonzero Scalars under packed
        exponents within the bound."""
        p = _new(MPoly)
        _set_vars(p, vars)
        _set_terms(p, terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @property
    def terms(self) -> Mapping[Exponents, Scalar]:
        """The terms keyed by exponent tuples: a read-only view, built on
        each access."""
        return MappingProxyType(dict(self._unpacked()))

    def _unpacked(self) -> List[Tuple[Exponents, Scalar]]:
        """(exponent tuple, coefficient) of each term, in storage order."""
        fields = _LAYOUTS[len(self.vars)][0]
        size = fields.size
        return [(fields.unpack(e.to_bytes(size, "little")), c) for e, c in self._terms.items()]

    # ---- constructors ----

    @staticmethod
    def zero(vars: Tuple[str, ...]) -> "MPoly":
        return MPoly._make(tuple(vars), {})

    @staticmethod
    def constant(value, vars: Tuple[str, ...]) -> "MPoly":
        c = Scalar.coerce(value)
        return MPoly._make(tuple(vars), {} if c.is_zero() else {0: c})

    @staticmethod
    def variable(name: str, vars: Tuple[str, ...]) -> "MPoly":
        return MPoly._make(tuple(vars), {1 << _BITS * _position(name, vars): Scalar(1)})

    @staticmethod
    def monomial(vars: Tuple[str, ...], exps: Exponents, coef=1) -> "MPoly":
        return MPoly(vars, {tuple(exps): Scalar.coerce(coef)})

    # ---- basic queries ----

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not any(self._terms)

    def constant_value(self) -> Scalar:
        if not self._terms:
            return Scalar(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self._terms.values()))

    def degree_in(self, var: str) -> int:
        shift = _BITS * _position(var, self.vars)
        return max((e >> shift & _MASK for e in self._terms), default=0)

    def sorted_terms(self) -> List[Tuple[Exponents, Scalar]]:
        terms = dict(self._unpacked())
        return [(e, terms[e]) for e in sorted(terms, key=grevlex_key)]

    def coefficient(self, exps: Exponents) -> Scalar:
        if len(exps) == len(self.vars):
            try:
                return self._terms.get(_pack(exps), ZERO)
            except ValueError:  # no term has these exponents
                pass
        return ZERO

    def variables_used(self) -> Tuple[str, ...]:
        """The variables that occur in some term, in the order of vars."""
        used = 0
        for e in self._terms:
            used |= e
        return tuple(v for v, k in zip(self.vars, _unpack(used, len(self.vars))) if k)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self._terms == other._terms

    def __hash__(self):
        return hash((self.vars, frozenset(self._terms.items())))

    # ---- arithmetic ----

    def __add__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction, Scalar)):
            other = MPoly.constant(other, self.vars)
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        # built from empty, not from a copy of self._terms: a copy keeps its
        # source's table, deleted slots included, and reusing one raised the
        # peak memory of `check` by about 0.4 MiB
        a, b = self._terms, other._terms
        terms: Dict[int, Scalar] = {}
        for e, c in a.items():
            d = b.get(e)
            if d is None:
                terms[e] = c
            else:
                s = c + d
                if not s.is_zero():
                    terms[e] = s
        for e, d in b.items():
            if e not in a:
                terms[e] = d
        return MPoly._make(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._make(self.vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction, Scalar)):
            other = MPoly.constant(other, self.vars)
        return self + (-other)

    def __rsub__(self, other) -> "MPoly":
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        return MPoly.dot(self.vars, ((self, other),))

    @staticmethod
    def dot(vars: Tuple[str, ...], pairs) -> "MPoly":
        """sum p * q over the pairs (p, q), each factor an MPoly over vars
        or a constant (a Scalar, int or Fraction).  Every product of two
        terms is one addition of packed exponents, summed on the raw
        (r0, r1) components, in one dict per component; the sqrt2 dict is
        opened only when a product has a sqrt2 part.  Each surviving term
        gets one Scalar at the end, and cancelled terms are dropped there,
        so no Scalar or polynomial is built per product or partial sum.
        Each product's exponents are a key of the first dict, so one guard
        test per key there finds every exponent above MAX_EXPONENT.  This
        is the one term-product loop: p * q is the one-pair case."""
        s0: Dict[int, Rational] = {}
        s1: Optional[Dict[int, Rational]] = None
        get = s0.get
        for p, q in pairs:
            if type(p) is not MPoly:
                p, q = q, p
            if type(p) is not MPoly:  # two constants
                p = MPoly.constant(p, vars)
            if type(q) is MPoly:
                if p.vars != vars or q.vars != vars:
                    bad = p.vars if p.vars != vars else q.vars
                    raise ValueError(f"variable mismatch: {bad} vs {vars}")
                a, b = p._terms, q._terms
                if len(a) > len(b):  # the smaller operand outside
                    a, b = b, a
            else:
                # a constant factor, under the zero exponents: the terms of
                # p keep their exponents
                if p.vars != vars:
                    raise ValueError(f"variable mismatch: {p.vars} vs {vars}")
                a, b = {0: Scalar.coerce(q)}, p._terms
            for ea, ca in a.items():
                a0, a1 = ca.r0, ca.r1
                for eb, cb in b.items():
                    e = ea + eb
                    b0, b1 = cb.r0, cb.r1
                    if a1 or b1:
                        # (a0 + a1 s)(b0 + b1 s) = (a0 b0 + 2 a1 b1) + (a0 b1 + a1 b0) s
                        t = a0 * b1 + a1 * b0
                        if s1 is None:
                            s1 = {}
                        v = s1.get(e)
                        s1[e] = t if v is None else v + t
                        t = a0 * b0 + 2 * a1 * b1
                    else:
                        t = a0 * b0
                    v = get(e)
                    s0[e] = t if v is None else v + t
        guard = _LAYOUTS[len(vars)][1]
        terms: Dict[int, Scalar] = {}
        for e, v in s0.items():
            if e & guard:
                raise ValueError(f"a product has an exponent above {MAX_EXPONENT}")
            w = 0 if s1 is None else _fold(s1.get(e, 0))
            if v or w:
                terms[e] = _make(_fold(v), w)
        return MPoly._make(vars, terms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction, Scalar)):
            return self * Scalar.coerce(other).inverse()
        return NotImplemented

    def __pow__(self, exponent: int) -> "MPoly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.constant(1, self.vars)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    # ---- calculus / structure ----

    def derivative(self, var: str) -> "MPoly":
        shift = _BITS * _position(var, self.vars)
        one = 1 << shift
        # e -> e - e_var is injective on the terms kept, so each result term
        # is written once, and c * k is nonzero for c nonzero and k >= 1
        terms: Dict[int, Scalar] = {}
        for e, c in self._terms.items():
            k = e >> shift & _MASK
            if k:
                terms[e - one] = c * k
        return MPoly._make(self.vars, terms)

    def coefficient_in(self, var: str, power: int) -> "MPoly":
        """Coefficient of var**power, returned over the same variable tuple
        (the var slot is zeroed out)."""
        shift = _BITS * _position(var, self.vars)
        drop = power << shift
        terms = {e - drop: c for e, c in self._terms.items() if e >> shift & _MASK == power}
        return MPoly._make(self.vars, terms)

    def as_univariate_in(self, var: str) -> Dict[int, "MPoly"]:
        shift = _BITS * _position(var, self.vars)
        buckets: Dict[int, Dict[int, Scalar]] = {}
        for e, c in self._terms.items():
            k = e >> shift & _MASK
            buckets.setdefault(k, {})[e - (k << shift)] = c
        return {k: MPoly._make(self.vars, t) for k, t in buckets.items()}

    def involves(self, var: str) -> bool:
        field = _MASK << _BITS * _position(var, self.vars)
        return any(e & field for e in self._terms)

    def quasi_homogeneous_degree(self, weights: Dict[str, int]) -> Optional[int]:
        """The common weighted degree of all terms, or None if mixed/zero."""
        w = [weights[v] for v in self.vars]
        degrees = {sum(map(mul, e, w)) for e, _ in self._unpacked()}
        return degrees.pop() if len(degrees) == 1 else None

    # ---- substitution / evaluation ----

    def substitute(self, mapping: Dict[str, "MPoly"]) -> "MPoly":
        """Substitute polynomials for variables.  Unmapped variables stay
        themselves.  All images must share one variable tuple, which becomes
        the result's tuple.

        The terms are grouped by their exponents in the mapped variables,
        the fields those variables hold in the packed exponents.  Each group
        is one polynomial in the unmapped variables, whose fields move to
        their places in the images' tuple, and is multiplied by one product
        of image powers, each power built once, from the one below it; a
        single dot sums the groups."""
        if mapping:
            target_vars = next(iter(mapping.values())).vars
        else:
            target_vars = self.vars
        mapped: List[int] = []
        powers: List[List[MPoly]] = []  # an image ** (k + 1) at index k
        moves: List[Tuple[int, int]] = []  # unmapped: (shift, shift in target_vars)
        fields = 0  # the fields of the mapped variables
        for i, v in enumerate(self.vars):
            img = mapping.get(v)
            if img is None:
                moves.append((_BITS * i, _BITS * _position(v, target_vars)))
            elif img.vars != target_vars:
                raise ValueError("substitution images disagree on variables")
            else:
                mapped.append(i)
                powers.append([img])
                fields |= _MASK << _BITS * i
        groups: Dict[int, Dict[int, Scalar]] = {}
        for e, c in self._terms.items():
            kept = 0
            for here, there in moves:
                kept |= (e >> here & _MASK) << there
            groups.setdefault(e & fields, {})[kept] = c
        pairs = []
        for key, terms in groups.items():
            exps = _unpack(key, len(self.vars))
            factor = ONE
            for pw, i in zip(powers, mapped):
                k = exps[i]
                if k:
                    while len(pw) < k:
                        pw.append(pw[-1] * pw[0])
                    factor = pw[k - 1] if factor is ONE else factor * pw[k - 1]
            pairs.append((MPoly._make(target_vars, terms), factor))
        return MPoly.dot(target_vars, pairs)

    def with_vars(self, new_vars: Tuple[str, ...]) -> "MPoly":
        """Re-express over a superset (or reordering) of the variables."""
        new_vars = tuple(new_vars)
        moves = []  # (shift, shift in new_vars)
        for i, v in enumerate(self.vars):
            if v in new_vars:
                moves.append((_BITS * i, _BITS * new_vars.index(v)))
            elif self.involves(v):
                raise ValueError(f"variable {v} is used but absent from {new_vars}")
        terms: Dict[int, Scalar] = {}
        for e, c in self._terms.items():
            ne = 0
            for here, there in moves:
                ne |= (e >> here & _MASK) << there
            terms[ne] = c
        return MPoly._make(new_vars, terms)

    # ---- rendering ----

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts: List[str] = []
        for e, c in self.sorted_terms():
            factors = [
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.vars, e)
                if k
            ]
            mono = "*".join(factors)
            negate = c.sign_key() < 0
            body = -c if negate else c
            coef = str(body) if body.is_rational() else f"({body})"
            if not mono:
                text = coef
            elif body == Scalar(1):
                text = mono
            else:
                text = f"{coef}*{mono}"
            if not parts:
                parts.append(("-" if negate else "") + text)
            else:
                parts.append(("- " if negate else "+ ") + text)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"MPoly({self.to_text()!r}, vars={self.vars})"

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"coef": str(c.r0), "coef_sqrt2": str(c.r1), "exps": list(e)}
                for e, c in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json_dict(data: dict) -> "MPoly":
        """The polynomial of a dict such as to_json_dict writes.  Raises
        ValueError unless "vars" holds distinct names, each coefficient is
        a text "p" or "p/q" (q != 0, "coef_sqrt2" defaults to "0"), each
        exponent is an int in 0..MAX_EXPONENT, and no exponent tuple
        repeats."""
        vars = tuple(_field(data, "vars"))
        if len(set(vars)) != len(vars) or not all(type(v) is str for v in vars):
            raise ValueError(f"vars {vars} are not distinct names")
        terms: Dict[Exponents, Scalar] = {}
        for t in _field(data, "terms"):
            e = tuple(_field(t, "exps"))
            if not all(type(k) is int and k >= 0 for k in e):
                raise ValueError(f"exponents {e} are not ints >= 0")
            if e in terms:
                raise ValueError(f"exponents {e} repeat")
            terms[e] = Scalar(_json_rational(_field(t, "coef", str)),
                              _json_rational(_field(t, "coef_sqrt2", str, "0")))
        return MPoly(vars, terms)

    @staticmethod
    def from_json(text: str) -> "MPoly":
        return MPoly.from_json_dict(json.loads(text))

    # ---- parsing ----

    @staticmethod
    def from_text(text: str, vars: Tuple[str, ...]) -> "MPoly":
        """Parse a polynomial text, such as to_text writes, back into a
        polynomial.

        The accepted grammar, with any whitespace between symbols::

            poly   := <blank> | ["-"] term (("+" | "-") term)*
            term   := factor ("*" factor)*
            factor := number | "(" coef ")" | "sqrt2" | name ["^" digits]
            coef   := ["-"] part (("+" | "-") part)*
            part   := number ["*" "sqrt2"] | "sqrt2"
            number := digits ["/" digits]

        A blank text is 0.  A denominator may not be 0, each name must be
        one of ``vars``, and the powers of a name in one term may sum to at
        most MAX_EXPONENT.  A term is the product of its factors, so it may
        repeat a name or a coefficient (``x*x``, ``2*3*x``, ``x*2``,
        ``(1)*x``) and have a zero exponent or coefficient (``x^0``,
        ``0*x``); like terms are summed (``x - x`` is 0).  This is wider
        than what to_text writes, which puts at most one coefficient first
        and each name at most once, with a positive exponent.

        Each term is one match of the pattern _TERM.  Its coefficient is multiplied out
        on raw (r0, r1) components, like terms are summed on them, and each
        monomial gets one Scalar at the end.
        """
        if not text.strip():
            return MPoly.zero(vars)
        vars = tuple(vars)
        guard = _LAYOUTS[len(vars)][1]
        # compiled on first use and then taken from re's cache, so that an
        # import compiles no pattern
        match = re.compile(_TERM).match
        acc: Dict[int, Tuple] = {}
        pos, end = 0, len(text)
        while pos < end:
            m = match(text, pos)
            if m is None:
                raise ValueError(f"cannot parse {text[pos:]!r}")
            sign, body = m.group("sign", "body")
            if pos == 0:
                if sign == "+":
                    raise ValueError("leading '+'")
            elif not sign:
                raise ValueError(f"missing sign before {body!r}")
            pos = m.end()
            r0, r1 = (-1 if sign == "-" else 1), 0
            e = 0  # the packed exponents
            # parentheses do not nest: split off each "(coef)" with the
            # factors before it
            for piece in "".join(body.split()).split(")"):
                outside, _, coef = piece.partition("(")
                for factor in outside.split("*"):
                    if not factor:
                        continue
                    if factor[0].isdigit():
                        q = _number(factor)
                        r0, r1 = r0 * q, r1 * q if r1 else 0
                        continue
                    name, _, power = factor.partition("^")
                    if name == "sqrt2":
                        if power:
                            raise ValueError("sqrt2 takes no power")
                        r0, r1 = 2 * r1, r0
                    elif name in vars:
                        k = int(power) if power else 1
                        e += k << _BITS * vars.index(name)
                        # below the bound before, so no carry out of the
                        # field unless k is above it too
                        if k > MAX_EXPONENT or e & guard:
                            raise ValueError(f"exponent of {name} above {MAX_EXPONENT}")
                    else:
                        raise ValueError(f"unknown variable {name!r}")
                if coef:
                    a, b = _coefficient(coef)
                    if r1:
                        r0, r1 = r0 * a + 2 * r1 * b, r0 * b + r1 * a
                    else:
                        r0, r1 = r0 * a, r0 * b
            old = acc.get(e)
            acc[e] = (r0, r1) if old is None else (old[0] + r0, old[1] + r1)
        return MPoly._make(vars, {e: Scalar(a, b) for e, (a, b) in acc.items() if a or b})


_new = object.__new__
_set_vars = MPoly.vars.__set__
_set_terms = MPoly._terms.__set__

# The grammar of MPoly.from_text, one term per match
_NUMBER = r"\d+(?:/\d+)?"
_PART = rf"(?:{_NUMBER}(?:\s*\*\s*sqrt2)?|sqrt2)"
_FACTOR = (
    rf"(?:{_NUMBER}|\(\s*(?:-\s*)?{_PART}(?:\s*[+-]\s*{_PART})*\s*\)"
    r"|[A-Za-z_][A-Za-z_0-9]*(?:\s*\^\s*\d+)?)"
)
_TERM = rf"\s*(?:(?P<sign>[+-])\s*)?(?P<body>{_FACTOR}(?:\s*\*\s*{_FACTOR})*)\s*"


def _position(name: str, vars: Tuple[str, ...]) -> int:
    """The index of name in vars; a ValueError that names both if absent."""
    if name not in vars:
        raise ValueError(f"variable {name!r} is not in {vars}")
    return vars.index(name)


def _field(data, key: str, kind: type = list, default=None):
    """data[key] of a JSON object, of type kind, or ValueError."""
    value = data.get(key, default) if type(data) is dict else None
    if type(value) is not kind:
        raise ValueError(f"{key!r} of {data!r} is not a {kind.__name__}")
    return value


def _json_rational(text: str):
    """The rational of a JSON coefficient, "p" or "p/q" with an optional
    "-", as to_json writes it."""
    if not re.fullmatch("-?[0-9]+(?:/[0-9]+)?", text):
        raise ValueError(f"coefficient {text!r} is not p or p/q")
    return _number(text)


def _number(text: str):
    """The rational of a matched number, "p" or "p/q" with q != 0."""
    num, _, den = text.partition("/")
    if not den:
        return int(num)
    d = int(den)
    if not d:
        raise ValueError("zero denominator")
    return Fraction(int(num), d)


def _coefficient(text: str) -> Tuple:
    """(a, b) for the matched contents a + b*sqrt2 of a "(coef)" factor,
    whitespace removed."""
    a = b = 0
    for part in text.replace("-", "+-").split("+"):
        if not part:
            continue
        neg = part[0] == "-"
        if neg:
            part = part[1:]
        if part.endswith("sqrt2"):
            q = _number(part[:-6]) if len(part) > 5 else 1
            b = b - q if neg else b + q
        else:
            q = _number(part)
            a = a - q if neg else a + q
    return a, b


def divide_by_monic_in_var(
    numerator: MPoly, divisor: MPoly, var: str
) -> Tuple[MPoly, MPoly]:
    """Long division by a divisor monic in ``var`` (leading coefficient, as a
    polynomial in var, equal to the constant 1).  Exact; returns (q, r) with
    numerator = q*divisor + r and deg_var(r) < deg_var(divisor)."""
    d = divisor.degree_in(var)
    lead = divisor.coefficient_in(var, d)
    if not lead.is_constant() or lead.constant_value() != Scalar(1):
        raise ValueError("divisor is not monic in " + var)
    vars = numerator.vars
    if divisor.vars != vars:
        raise ValueError("operands disagree on variables")
    idx = vars.index(var)
    q = MPoly.zero(vars)
    r = numerator
    while r and r.degree_in(var) >= d:
        m = r.degree_in(var)
        c = r.coefficient_in(var, m)
        shift = tuple(m - d if i == idx else 0 for i in range(len(vars)))
        t = c * MPoly.monomial(vars, shift)
        q = q + t
        r = r - t * divisor
    return q, r
