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

from .scalar import Scalar

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
        idx = vars.index(name)
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
        idx = self.vars.index(var)
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
        if type(other) is not MPoly and type(other) is not Scalar:
            other = Scalar(other)
        return MPoly.dot(self.vars, ((self, other),))

    @staticmethod
    def dot(vars: Tuple[str, ...], pairs) -> "MPoly":
        """sum p * q over the pairs (p, q), each factor an MPoly over vars
        or a Scalar (a constant).  Every product of two terms goes into one
        term dict, and cancelled terms are dropped once, at the end, so no
        polynomial is built per product or partial sum.  This is the one
        term-product loop: p * q is the one-pair case."""
        acc: Dict[Exponents, Scalar] = {}
        get = acc.get
        for p, q in pairs:
            if type(p) is MPoly is type(q):
                if p.vars != vars or q.vars != vars:
                    bad = p.vars if p.vars != vars else q.vars
                    raise ValueError(f"variable mismatch: {bad} vs {vars}")
                a, b = p.terms, q.terms
                if len(a) > len(b):  # the smaller operand outside
                    a, b = b, a
                for ea, ca in a.items():
                    for eb, cb in b.items():
                        e = tuple(map(add, ea, eb))
                        v = get(e)
                        acc[e] = ca * cb if v is None else v + ca * cb
                continue
            # a constant factor: the terms of the other keep their exponents
            if type(p) is not MPoly:
                p, q = q, p
            if type(p) is not MPoly:  # two constants
                p = MPoly.constant(p, vars)
            if p.vars != vars:
                raise ValueError(f"variable mismatch: {p.vars} vs {vars}")
            for e, c in p.terms.items():
                v = get(e)
                acc[e] = c * q if v is None else v + c * q
        if not all(acc.values()):
            acc = {e: c for e, c in acc.items() if c}
        return MPoly._make(vars, acc)

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
        idx = self.vars.index(var)
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
        idx = self.vars.index(var)
        terms: Dict[Exponents, Scalar] = {}
        for e, c in self.terms.items():
            if e[idx] == power:
                ne = e[:idx] + (0,) + e[idx + 1:]
                terms[ne] = c
        return MPoly(self.vars, terms)

    def as_univariate_in(self, var: str) -> Dict[int, "MPoly"]:
        idx = self.vars.index(var)
        buckets: Dict[int, Dict[Exponents, Scalar]] = {}
        for e, c in self.terms.items():
            k = e[idx]
            ne = e[:idx] + (0,) + e[idx + 1:]
            buckets.setdefault(k, {})[ne] = c
        return {k: MPoly(self.vars, t) for k, t in buckets.items()}

    def involves(self, var: str) -> bool:
        idx = self.vars.index(var)
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
        the result's tuple."""
        if mapping:
            target_vars = next(iter(mapping.values())).vars
        else:
            target_vars = self.vars
        images: List[MPoly] = []
        for v in self.vars:
            if v in mapping:
                img = mapping[v]
                if img.vars != target_vars:
                    raise ValueError("substitution images disagree on variables")
                images.append(img)
            else:
                images.append(MPoly.variable(v, target_vars))
        result = MPoly.zero(target_vars)
        pow_cache: List[Dict[int, MPoly]] = [dict() for _ in images]
        for e, c in self.terms.items():
            prod = MPoly.constant(c, target_vars)
            for i, k in enumerate(e):
                if not k:
                    continue
                cache = pow_cache[i]
                if k not in cache:
                    cache[k] = images[i] ** k
                prod = prod * cache[k]
            result = result + prod
        return result

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
        vars = tuple(data["vars"])
        terms: Dict[Exponents, Scalar] = {}
        for t in data["terms"]:
            coef = Scalar(Fraction(t["coef"]), Fraction(t.get("coef_sqrt2", "0")))
            terms[tuple(t["exps"])] = coef
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
