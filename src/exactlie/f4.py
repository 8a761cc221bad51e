"""Root-system combinatorics for the 52-dimensional exceptional algebra.

Everything is driven by the Euclidean realization of the 48 roots; the
grading attached to the diagram labels (0,2,0,2) singles out the
44-dimensional orbit, whose degree-2 layer is analysed as a module over
the two commuting rank-1 subalgebras left at degree 0.  The Betti count
2+1+1 combines the base surface with one connected component per
invariant hyperplane; connectedness itself is carried as a cited input,
not recomputed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .polymat import PolyMatrix, nullspace, solve_linear
from .scalar import Scalar

Root = Tuple[int, int, int, int]

DIAGRAM_WEIGHTS = (0, 2, 0, 2)

# Euclidean realization of the simple roots: two long, two short, with
# the double edge between the second and third nodes.
SIMPLE_EUCLIDEAN = (
    (Fraction(0), Fraction(1), Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1), Fraction(-1)),
    (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)),
)


def _inner(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return sum(a * b for a, b in zip(x, y))


def _euclidean_roots() -> List[Tuple[Fraction, ...]]:
    out: List[Tuple[Fraction, ...]] = []
    for i in range(4):
        for sign in (1, -1):
            e = [Fraction(0)] * 4
            e[i] = Fraction(sign)
            out.append(tuple(e))
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (1, -1):
                for sj in (1, -1):
                    e = [Fraction(0)] * 4
                    e[i], e[j] = Fraction(si), Fraction(sj)
                    out.append(tuple(e))
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                for s4 in (1, -1):
                    out.append(
                        (Fraction(s1, 2), Fraction(s2, 2), Fraction(s3, 2), Fraction(s4, 2))
                    )
    return out


class RootSystemF4(NamedTuple):
    roots: Tuple[Root, ...]
    simple_roots: Tuple[Root, ...]
    euclidean_coords: Dict[Root, Tuple[Fraction, ...]]

    def positives(self) -> List[Root]:
        return [r for r in self.roots if all(x >= 0 for x in r)]

    def is_long(self, root: Root) -> bool:
        e = self.euclidean_coords[root]
        return _inner(e, e) == 2


@lru_cache(maxsize=None)
def f4_roots() -> RootSystemF4:
    """All 48 roots in simple-root coordinates, via the Euclidean model."""
    basis = PolyMatrix(
        [[Scalar(SIMPLE_EUCLIDEAN[j][i]) for j in range(4)] for i in range(4)]
    )
    roots: List[Root] = []
    coords: Dict[Root, Tuple[Fraction, ...]] = {}
    for e in _euclidean_roots():
        sol = solve_linear(basis, [Scalar(x) for x in e])
        if sol is None:
            raise AssertionError("simple roots do not span")
        vals = []
        for v in sol:
            if not v.is_rational() or v.r0.denominator != 1:
                raise AssertionError(f"non-integral root coordinate {v}")
            vals.append(int(v.r0))
        if not (all(x >= 0 for x in vals) or all(x <= 0 for x in vals)):
            raise AssertionError(f"root {vals} changes sign")
        root = tuple(vals)
        roots.append(root)
        coords[root] = e
    if len(set(roots)) != 48:
        raise AssertionError("expected 48 distinct roots")
    simple = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    return RootSystemF4(tuple(sorted(roots)), simple, coords)


def highest_root(system: RootSystemF4) -> Root:
    return max(system.roots, key=lambda r: (sum(r), r))


def reflection_closure_check(system: RootSystemF4) -> int:
    """s_alpha(beta) is a root for all pairs; returns the number checked."""
    count = 0
    root_set = set(system.euclidean_coords[r] for r in system.roots)
    for alpha in system.roots:
        ea = system.euclidean_coords[alpha]
        na = _inner(ea, ea)
        for beta in system.roots:
            eb = system.euclidean_coords[beta]
            coef = 2 * _inner(eb, ea) / na
            image = tuple(b - coef * a for a, b in zip(ea, eb))
            if image not in root_set:
                raise AssertionError(f"reflection of {beta} in {alpha} not a root")
            count += 1
    return count


# ---------------------------------------------------------------------------
# the grading
# ---------------------------------------------------------------------------


class GradedF4(NamedTuple):
    weights: Tuple[int, int, int, int]
    grade_of_root: Dict[Root, int]
    dims: Dict[int, int]


def grade(root: Root) -> int:
    return sum(w * x for w, x in zip(DIAGRAM_WEIGHTS, root))


GRADE2_DIAGRAM = (
    # chain, then the 2x3 grid row by row; arrows add the third or first
    # simple root
    (0, 0, 0, 1), (0, 0, 1, 1),
    (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 2, 0),
    (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 2, 0),
)


def f4_grading() -> GradedF4:
    grades = {r: grade(r) for r in f4_roots().roots}
    dims: Dict[int, int] = {0: 4}
    for g in grades.values():
        dims[g] = dims.get(g, 0) + 1
    if sum(dims.values()) != 52:
        raise AssertionError("grading does not exhaust the algebra")
    zero_roots = sorted(r for r, g in grades.items() if g == 0)
    if zero_roots != sorted(
        [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0)]
    ):
        raise AssertionError("grade-0 roots are not the two commuting rank-1 pairs")
    two = sorted(r for r, g in grades.items() if g == 2)
    if two != sorted(GRADE2_DIAGRAM):
        raise AssertionError("grade-2 layer differs from the printed diagram")
    return GradedF4(DIAGRAM_WEIGHTS, grades, dims)


def grade2_arrows() -> Dict[str, List[Tuple[Root, Root]]]:
    """Arrows of the printed degree-2 diagram: adding the third simple
    root moves right, adding the first moves down; each arrow must land
    on another degree-2 root, and no arrows leave the printed pattern."""
    roots = set(f4_roots().roots)
    layer = set(GRADE2_DIAGRAM)
    horizontals, verticals = [], []
    for r in sorted(layer):
        right = (r[0], r[1], r[2] + 1, r[3])
        down = (r[0] + 1, r[1], r[2], r[3])
        if right in roots:
            if right not in layer:
                raise AssertionError(f"{r} + alpha3 leaves the degree-2 layer")
            horizontals.append((r, right))
        if down in roots:
            if down not in layer:
                raise AssertionError(f"{r} + alpha1 leaves the degree-2 layer")
            verticals.append((r, down))
    if len(horizontals) != 5 or len(verticals) != 3:
        raise AssertionError(
            f"arrow counts {len(horizontals)}/{len(verticals)} differ from the diagram"
        )
    return {"alpha3": horizontals, "alpha1": verticals}


def coweight_pair(system: RootSystemF4, root: Root) -> Tuple[int, int]:
    """(pairing with the first simple coroot, with the third)."""
    e = system.euclidean_coords[root]
    out = []
    for idx in (0, 2):
        alpha = SIMPLE_EUCLIDEAN[idx]
        val = 2 * _inner(e, alpha) / _inner(alpha, alpha)
        if val.denominator != 1:
            raise AssertionError("non-integral coroot pairing")
        out.append(int(val))
    return tuple(out)


# ---------------------------------------------------------------------------
# the degree-2 layer as a module over the two rank-1 pieces
# ---------------------------------------------------------------------------


class SL2SL2Module(NamedTuple):
    """V + V' (x) S^2 V with explicit weight basis.

    basis entries are (name, (first weight, second weight)); e1 and e3
    are the raising operators of the two commuting rank-1 algebras.
    """

    basis: Tuple[Tuple[str, Tuple[int, int]], ...]
    e1: PolyMatrix
    e3: PolyMatrix


def f4_module() -> SL2SL2Module:
    names = [
        ("m+", (0, 1)), ("m-", (0, -1)),
        ("x+2", (1, 2)), ("x+0", (1, 0)), ("x+-2", (1, -2)),
        ("x-2", (-1, 2)), ("x-0", (-1, 0)), ("x--2", (-1, -2)),
    ]
    idx = {n: k for k, (n, _) in enumerate(names)}
    e1 = [[0] * 8 for _ in range(8)]
    e3 = [[0] * 8 for _ in range(8)]
    # first raising operator: second tensor factor untouched
    for w in ("2", "0", "-2"):
        e1[idx[f"x+{w}"]][idx[f"x-{w}"]] = 1
    # second raising operator: V-part m- -> m+; S^2 ladder with the
    # standard coefficients 2, 1
    e3[idx["m+"]][idx["m-"]] = 1
    for sign in ("+", "-"):
        e3[idx[f"x{sign}0"]][idx[f"x{sign}-2"]] = 2
        e3[idx[f"x{sign}2"]][idx[f"x{sign}0"]] = 1
    return SL2SL2Module(tuple(names), PolyMatrix(e1), PolyMatrix(e3))


def biweight_multisets_match() -> bool:
    """The degree-2 root layer and the abstract module carry the same
    multiset of weight pairs; this is the computable content of the
    module decomposition."""
    system = f4_roots()
    from_roots = sorted(coweight_pair(system, r) for r in GRADE2_DIAGRAM)
    module = f4_module()
    from_module = sorted(w for _, w in module.basis)
    return from_roots == from_module


def f4_invariant_hyperplanes() -> List[Dict[str, object]]:
    """The hyperplanes stable under the upper-triangular subalgebra,
    computed as weight lines in the common kernel of the transposed
    raising operators; exactly two, with section bidegrees (0,1) and
    (1,2)."""
    module = f4_module()
    stacked = PolyMatrix(
        [list(module.e1.column(j)) for j in range(8)]
        + [list(module.e3.column(j)) for j in range(8)]
    )
    kernel = nullspace(stacked)
    if len(kernel) != 2:
        raise AssertionError(f"common kernel has dimension {len(kernel)}")
    out = []
    for vec in kernel:
        support = [k for k, x in enumerate(vec) if x]
        if len(support) != 1:
            raise AssertionError("kernel vector mixes weights")
        name, weight = module.basis[support[0]]
        # the annihilated line is the lowest weight of its summand; the
        # section bidegree is the summand's highest weight pair
        bidegree = (0, 1) if name.startswith("m") else (1, 2)
        out.append(
            {
                "summand": "V3" if name.startswith("m") else "V1xS2V3",
                "annihilator_weight": weight,
                "removed_vector": name,
                "bidegree": bidegree,
            }
        )
    out.sort(key=lambda h: h["bidegree"])
    if [h["bidegree"] for h in out] != [(0, 1), (1, 2)]:
        raise AssertionError("unexpected section bidegrees")
    for h in out:
        if h["annihilator_weight"] != min(
            w
            for (n, w) in module.basis
            if n.startswith("m") == h["summand"].startswith("V3")
        ):
            raise AssertionError("annihilator is not the lowest weight line")
    return out


def f4_betti_subsubregular() -> Dict[str, object]:
    """2 from the base surface plus one per hyperplane (connectedness
    of each section zero-set is cited, not recomputed)."""
    hyperplanes = f4_invariant_hyperplanes()
    components = [1 for _ in hyperplanes]
    return {
        "b2": 2 + sum(components),
        "base": 2,
        "components": components,
        "decomposition": "2+" + "+".join(str(c) for c in components),
        "connectedness": "cited",
    }


def orbit_dimension_check() -> Dict[str, int]:
    """Distinguished even element: the centralizer sits in degree >= 0
    with dimension dim g(0), so the orbit has dimension 52 - 8 = 44."""
    graded = f4_grading()
    if any(g % 2 for g in graded.grade_of_root.values()):
        raise AssertionError("grading has odd layers")
    if graded.dims[0] != graded.dims[2]:
        raise AssertionError("ad(x): g(0) -> g(2) cannot be bijective")
    return {"algebra_dim": 52, "centralizer_dim": graded.dims[0], "orbit_dim": 44}
