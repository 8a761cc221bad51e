"""Multivariate polynomials over Q(sqrt 2), stored sparsely.

Terms live in a dict mapping exponent tuples to nonzero Scalars.  The
canonical term order used everywhere (printing, JSON) is
graded reverse lexicographic, descending: higher total degree first, ties
broken so that e precedes e' when the last nonzero entry of e - e' is
negative.  Sorting ascending by the key (-total_degree, reversed exponent
tuple) realizes exactly that order.

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
from operator import add
from typing import Dict, List, Optional, Tuple

from .scalar import ONE, Rational, Scalar, _fold, _make

Exponents = Tuple[int, ...]


def grevlex_key(exps: Exponents) -> tuple:
    """Ascending sort by this key lists terms in descending grevlex order."""
    return (-sum(exps), tuple(reversed(exps)))


class MPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Tuple[str, ...], terms: Dict[Exponents, Scalar]):
        cleaned: Dict[Exponents, Scalar] = {}
        nvars = len(vars)
        for exps, coef in terms.items():
            coef = Scalar.coerce(coef)
            if coef.is_zero():
                continue
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not match vars {vars}")
            cleaned[tuple(exps)] = coef
        self._init(tuple(vars), cleaned)

    def _init(self, vars: Tuple[str, ...], terms: Dict[Exponents, Scalar]) -> None:
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def _make(vars: Tuple[str, ...], terms: Dict[Exponents, Scalar]) -> "MPoly":
        """Wrap terms that already hold only nonzero Scalars under exponent
        tuples of the right length."""
        p = object.__new__(MPoly)
        p._init(vars, terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # ---- constructors ----

    @staticmethod
    def zero(vars: Tuple[str, ...]) -> "MPoly":
        return MPoly(vars, {})

    @staticmethod
    def constant(value, vars: Tuple[str, ...]) -> "MPoly":
        c = Scalar.coerce(value)
        if c.is_zero():
            return MPoly.zero(vars)
        return MPoly(vars, {(0,) * len(vars): c})

    @staticmethod
    def variable(name: str, vars: Tuple[str, ...]) -> "MPoly":
        idx = _position(name, vars)
        exps = tuple(1 if i == idx else 0 for i in range(len(vars)))
        return MPoly(vars, {exps: Scalar(1)})

    @staticmethod
    def monomial(vars: Tuple[str, ...], exps: Exponents, coef=1) -> "MPoly":
        return MPoly(vars, {tuple(exps): Scalar.coerce(coef)})

    # ---- basic queries ----

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Scalar:
        if not self.terms:
            return Scalar(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def degree_in(self, var: str) -> int:
        idx = _position(var, self.vars)
        if not self.terms:
            return 0
        return max(e[idx] for e in self.terms)

    def sorted_terms(self) -> List[Tuple[Exponents, Scalar]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, key=grevlex_key)]

    def coefficient(self, exps: Exponents) -> Scalar:
        return self.terms.get(tuple(exps), Scalar(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ---- arithmetic ----

    def __add__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction, Scalar)):
            other = MPoly.constant(other, self.vars)
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        # built from empty, not from a copy of self.terms: a copy keeps its
        # source's table, deleted slots included, and reusing one raised the
        # peak memory of `check` by about 0.4 MiB
        a, b = self.terms, other.terms
        terms: Dict[Exponents, Scalar] = {}
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
        return MPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

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
        terms is summed on the raw (r0, r1) components, in one dict per
        component keyed by exponents; the sqrt2 dict is opened only when a
        product has a sqrt2 part.  Each surviving term gets one Scalar at
        the end, and cancelled terms are dropped there, so no Scalar or
        polynomial is built per product or partial sum.  This is the one
        term-product loop: p * q is the one-pair case."""
        s0: Dict[Exponents, Rational] = {}
        s1: Optional[Dict[Exponents, Rational]] = None
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
                a, b = p.terms, q.terms
                if len(a) > len(b):  # the smaller operand outside
                    a, b = b, a
            else:
                # a constant factor, under the empty exponent tuple: the
                # terms of p keep their exponents
                if p.vars != vars:
                    raise ValueError(f"variable mismatch: {p.vars} vs {vars}")
                a, b = {(): Scalar.coerce(q)}, p.terms
            for ea, ca in a.items():
                a0, a1 = ca.r0, ca.r1
                for eb, cb in b.items():
                    e = tuple(map(add, ea, eb)) if ea else eb
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
        terms: Dict[Exponents, Scalar] = {}
        for e, v in s0.items():
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
        idx = _position(var, self.vars)
        # e -> e - e_idx is injective on the terms kept, so each result term
        # is written once, and c * k is nonzero for c nonzero and k >= 1
        terms: Dict[Exponents, Scalar] = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k:
                terms[e[:idx] + (k - 1,) + e[idx + 1:]] = c * k
        return MPoly._make(self.vars, terms)

    def coefficient_in(self, var: str, power: int) -> "MPoly":
        """Coefficient of var**power, returned over the same variable tuple
        (the var slot is zeroed out)."""
        idx = _position(var, self.vars)
        terms: Dict[Exponents, Scalar] = {}
        for e, c in self.terms.items():
            if e[idx] == power:
                ne = e[:idx] + (0,) + e[idx + 1:]
                terms[ne] = c
        return MPoly(self.vars, terms)

    def as_univariate_in(self, var: str) -> Dict[int, "MPoly"]:
        idx = _position(var, self.vars)
        buckets: Dict[int, Dict[Exponents, Scalar]] = {}
        for e, c in self.terms.items():
            k = e[idx]
            ne = e[:idx] + (0,) + e[idx + 1:]
            buckets.setdefault(k, {})[ne] = c
        return {k: MPoly(self.vars, t) for k, t in buckets.items()}

    def involves(self, var: str) -> bool:
        idx = _position(var, self.vars)
        return any(e[idx] for e in self.terms)

    def quasi_homogeneous_degree(self, weights: Dict[str, int]) -> Optional[int]:
        """The common weighted degree of all terms, or None if mixed/zero."""
        w = [weights[v] for v in self.vars]
        degree: Optional[int] = None
        for e in self.terms:
            d = sum(k * wk for k, wk in zip(e, w))
            if degree is None:
                degree = d
            elif d != degree:
                return None
        return degree

    # ---- substitution / evaluation ----

    def substitute(self, mapping: Dict[str, "MPoly"]) -> "MPoly":
        """Substitute polynomials for variables.  Unmapped variables stay
        themselves.  All images must share one variable tuple, which becomes
        the result's tuple.

        The terms are grouped by their exponents in the mapped variables.
        Each group is one polynomial in the unmapped variables, placed in
        the images' tuple, and is multiplied by one product of image
        powers, each power built once, from the one below it; a single dot
        sums the groups."""
        if mapping:
            target_vars = next(iter(mapping.values())).vars
        else:
            target_vars = self.vars
        mapped: List[int] = []
        powers: List[List[MPoly]] = []  # an image ** (k + 1) at index k
        places: List[Tuple[int, int]] = []  # unmapped: (index, index in target_vars)
        for i, v in enumerate(self.vars):
            img = mapping.get(v)
            if img is None:
                places.append((i, _position(v, target_vars)))
            elif img.vars != target_vars:
                raise ValueError("substitution images disagree on variables")
            else:
                mapped.append(i)
                powers.append([img])
        groups: Dict[Exponents, Dict[Exponents, Scalar]] = {}
        zero = [0] * len(target_vars)
        for e, c in self.terms.items():
            kept = zero[:]
            for i, j in places:
                kept[j] = e[i]
            groups.setdefault(tuple(e[i] for i in mapped), {})[tuple(kept)] = c
        pairs = []
        for key, terms in groups.items():
            factor = ONE
            for pw, k in zip(powers, key):
                if k:
                    while len(pw) < k:
                        pw.append(pw[-1] * pw[0])
                    factor = pw[k - 1] if factor is ONE else factor * pw[k - 1]
            pairs.append((MPoly._make(target_vars, terms), factor))
        return MPoly.dot(target_vars, pairs)

    def with_vars(self, new_vars: Tuple[str, ...]) -> "MPoly":
        """Re-express over a superset (or reordering) of the variables."""
        pos = []
        for v in self.vars:
            if v not in new_vars:
                if self.involves(v):
                    raise ValueError(f"variable {v} is used but absent from {new_vars}")
                pos.append(None)
            else:
                pos.append(new_vars.index(v))
        terms: Dict[Exponents, Scalar] = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for k, p in zip(e, pos):
                if p is not None:
                    ne[p] = k
            terms[tuple(ne)] = c
        return MPoly(tuple(new_vars), terms)

    # ---- rendering ----

    def to_text(self) -> str:
        if not self.terms:
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
        exponent is an int >= 0, and no exponent tuple repeats."""
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

        A blank text is 0.  A denominator may not be 0 and each name must be
        one of ``vars``.  A term is the product of its factors, so it may
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
        nvars = len(vars)
        # compiled on first use and then taken from re's cache, so that an
        # import compiles no pattern
        match = re.compile(_TERM).match
        acc: Dict[Exponents, Tuple] = {}
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
            exps = [0] * nvars
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
                        exps[vars.index(name)] += int(power) if power else 1
                    else:
                        raise ValueError(f"unknown variable {name!r}")
                if coef:
                    a, b = _coefficient(coef)
                    if r1:
                        r0, r1 = r0 * a + 2 * r1 * b, r0 * b + r1 * a
                    else:
                        r0, r1 = r0 * a, r0 * b
            e = tuple(exps)
            old = acc.get(e)
            acc[e] = (r0, r1) if old is None else (old[0] + r0, old[1] + r1)
        return MPoly._make(vars, {e: Scalar(a, b) for e, (a, b) in acc.items() if a or b})


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
