"""Second Betti numbers of nilpotent slice resolutions, by orbit label.

Orbits in the classical algebras are named by partitions (with the usual
parity conditions), the exceptional ones by coarse descriptors.  The
verdict for each orbit records b2 of the resolved slice together with
the star property, which by design holds exactly when b2 equals the
rank.  Outside types B and C the answer is always the rank; the B/C
exceptions are the subregular orbit respectively the two-row orbits,
where the slice picks up the singularity of the unfolded simply-laced
diagram.
"""

from __future__ import annotations

from itertools import accumulate
from operator import le
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import liealg

Partition = Tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
# enumerate_orbits walks every partition of the natural representation's
# dimension (p(40) = 37,338 at C20, p(80) ~ 1.6e7 at C40), so its rank is
# bounded; classify on one orbit label is not.
MAX_ENUMERATE_RANK = 20
_E_RANKS = (6, 7, 8)


class OrbitLabel(NamedTuple):
    family: str
    rank: int
    partition: Optional[Partition] = None
    descriptor: Optional[str] = None


class ClassificationVerdict(NamedTuple):
    b2: int
    star: bool
    subregular_singularity: Optional[str] = None
    notes: Tuple[str, ...] = ()


def partitions_of(m: int, max_part: Optional[int] = None) -> Iterator[Partition]:
    """Partitions of m in weakly decreasing order, largest part first."""
    if m == 0:
        yield ()
        return
    if max_part is None or max_part > m:
        max_part = m
    for first in range(max_part, 0, -1):
        for rest in partitions_of(m - first, first):
            yield (first,) + rest


def _normalize(d: Sequence[int]) -> Partition:
    parts = sorted((int(x) for x in d if x != 0), reverse=True)
    if any(x < 0 for x in parts):
        raise ValueError("partition parts must be positive")
    return tuple(parts)


def _natural(family: str, n: int) -> Tuple[str, int]:
    """The rank-n algebra's natural representation: the algebra, as
    liealg names it, and its dimension."""
    algebras = {
        "A": ("sl", n + 1), "B": ("so", 2 * n + 1),
        "C": ("sp", 2 * n), "D": ("so", 2 * n),
    }
    if family not in algebras:
        raise ValueError(f"no partition labels in family {family}")
    return algebras[family]


def valid_partition(family: str, n: int, d: Sequence[int]) -> bool:
    """Does d label a nilpotent orbit of the rank-n algebra?

    B: partition of 2n+1, even parts with even multiplicity.
    C: partition of 2n, odd parts with even multiplicity.
    A: any partition of n+1.  D: partition of 2n, even parts with even
    multiplicity (a very even partition labels two orbits at once).
    These are the Jordan types of sl(n+1), so(2n+1), sp(2n) and so(2n).
    """
    parts = _normalize(d)
    return liealg.valid_partition(*_natural(family, n), parts)


def valid_partitions(family: str, n: int) -> List[Partition]:
    algebra, size = _natural(family, n)
    return [d for d in partitions_of(size) if liealg.valid_partition(algebra, size, d)]


def regular_partition(family: str, n: int) -> Partition:
    size = _natural(family, n)[1]
    return (size - 1, 1) if family == "D" else (size,)


def dominance_leq(p: Sequence[int], q: Sequence[int]) -> bool:
    """Partial-sum comparison; partitions of different totals are
    incomparable."""
    return _dominated(_normalize(p), _normalize(q))


def _partial_sums(p: Partition, width: int) -> List[int]:
    """p_1, p_1 + p_2, ..., the first width partial sums of p padded with
    zero parts; the one reading of the order, shared by _dominated and
    _dominance_masks."""
    # a list: the same sums as a tuple(accumulate(...)) raised the peak
    # RSS of `exactlie check` by about 0.7 MiB
    return list(accumulate(p + (0,) * (width - len(p))))


def _dominated(a: Partition, b: Partition) -> bool:
    """dominance_leq on normalized partitions."""
    if sum(a) != sum(b):
        return False
    width = max(len(a), len(b))
    return all(map(le, _partial_sums(a, width), _partial_sums(b, width)))


def exceptional_partitions(family: str, n: int) -> List[Partition]:
    """Closed-form list of the orbits whose b2 exceeds the rank."""
    if family == "B":
        return [(2 * n - 1, 1, 1)]
    if family == "C":
        out = {(n, n)}
        for i in range(1, n // 2 + 1):
            out.add(_normalize((2 * n - 2 * i, 2 * i)))
        return sorted(out, reverse=True)
    return []


def subregular_singularity(family: str, rank: int) -> str:
    """Slice singularity at the subregular orbit: the simply laced types
    see their own diagram, the others unfold."""
    if family == "A":
        return f"A{rank}"
    if family == "B":
        return f"A{2 * rank - 1}"
    if family == "C":
        return f"D{rank + 1}"
    if family == "D":
        return f"D{rank}"
    if family == "E":
        return f"E{rank}"
    if family == "F":
        return "E6"
    if family == "G":
        return "D4"
    raise ValueError(f"unknown family {family}")


def _subregular_partition(family: str, n: int) -> Partition:
    if family == "A":
        return (n, 1)
    if family == "B":
        return (2 * n - 1, 1, 1)
    if family == "C":
        return (2 * n - 2, 2)
    if family == "D":
        return _normalize((2 * n - 3, 3))
    raise ValueError(f"no partition labels in family {family}")


_G2_TABLE = {10: (4, False), 8: (3, False), 6: (2, True), 0: (2, True)}


def _check_rank(family: str, rank: int) -> None:
    if family in _MIN_RANK:
        if rank < _MIN_RANK[family]:
            raise ValueError(f"{family}{rank} is out of range")
    elif family == "E":
        if rank not in _E_RANKS:
            raise ValueError(f"E{rank} does not exist")
    elif family == "F":
        if rank != 4:
            raise ValueError("F has rank 4")
    elif family == "G":
        if rank != 2:
            raise ValueError("G has rank 2")
    else:
        raise ValueError(f"unknown family {family}")


def classify(label: OrbitLabel) -> ClassificationVerdict:
    family, n = label.family, label.rank
    _check_rank(family, n)

    if family in ("A", "B", "C", "D"):
        if label.partition is None:
            raise ValueError(f"family {family} needs a partition label")
        d = _normalize(label.partition)
        if not valid_partition(family, n, d):
            raise ValueError(f"{list(d)} is not a valid {family}{n} orbit label")
        if d == regular_partition(family, n):
            raise ValueError("regular orbit excluded")
        notes: List[str] = []
        if family == "D" and all(x % 2 == 0 for x in d):
            notes.append("very even partition: labels two orbits, same verdict")
        sub = None
        if d == _subregular_partition(family, n):
            sub = subregular_singularity(family, n)
        if family in ("A", "D"):
            b2 = n
        elif family == "B":
            b2 = 2 * n - 1 if d == (2 * n - 1, 1, 1) else n
        else:
            # exceptional_partitions("C", n) by its closed form, without
            # building the n/2 + 1 labels: two parts, equal or both even
            b2 = n + 1 if len(d) == 2 and (d[0] == d[1] or d[1] % 2 == 0) else n
        return ClassificationVerdict(b2, b2 == n, sub, tuple(notes))

    if family == "G":
        desc = label.descriptor or ""
        if desc == "regular" or desc == "dim:12":
            raise ValueError("regular orbit excluded")
        try:
            dim = int(desc[4:] if desc.startswith("dim:") else "")
        except ValueError:  # not dim:<k>, or dim:abc, dim:
            raise ValueError("G2 orbits are labelled dim:<k>") from None
        if dim not in _G2_TABLE:
            raise ValueError(f"no G2 orbit of dimension {dim}")
        b2, star = _G2_TABLE[dim]
        notes = []
        if dim == 0:
            notes.append("zero orbit: value inferred from closure monotonicity")
        sub = subregular_singularity("G", 2) if dim == 10 else None
        return ClassificationVerdict(b2, star, sub, tuple(notes))

    if family == "F":
        desc = label.descriptor
        if desc == "regular":
            raise ValueError("regular orbit excluded")
        if desc == "subregular":
            return ClassificationVerdict(6, False, subregular_singularity("F", 4))
        if desc == "other":
            return ClassificationVerdict(4, True)
        raise ValueError("F4 orbits are labelled regular, subregular or other")

    # E family: only the coarse split is tabulated
    desc = label.descriptor
    if desc == "regular":
        raise ValueError("regular orbit excluded")
    if desc in ("other", "nonregular"):
        return ClassificationVerdict(n, True)
    raise ValueError("E orbits are labelled regular or other")


# ---------------------------------------------------------------------------
# enumeration and the checkable consequences
# ---------------------------------------------------------------------------


def enumerate_orbits(family: str, rank: int) -> List[Dict[str, object]]:
    """Verdict table for every admissible non-regular orbit label.  Raises
    ValueError for a rank above MAX_ENUMERATE_RANK."""
    _check_rank(family, rank)
    if rank > MAX_ENUMERATE_RANK:
        raise ValueError(
            f"enumeration is limited to rank <= {MAX_ENUMERATE_RANK}, got {family}{rank}"
        )
    if family in ("A", "B", "C", "D"):
        # partitions_of lists the partitions in descending order, so the
        # rows come out sorted
        labels = [
            OrbitLabel(family, rank, partition=d)
            for d in valid_partitions(family, rank)
            if d != regular_partition(family, rank)
        ]
    elif family == "G":
        labels = [
            OrbitLabel("G", 2, descriptor=f"dim:{dim}") for dim in sorted(_G2_TABLE, reverse=True)
        ]
    elif family == "F":
        labels = [OrbitLabel("F", 4, descriptor=desc) for desc in ("subregular", "other")]
    else:
        labels = [OrbitLabel("E", rank, descriptor="other")]
    rows: List[Dict[str, object]] = []
    for label in labels:
        v = classify(label)
        if label.partition:
            row: Dict[str, object] = {"partition": list(label.partition)}
        else:
            row = {"descriptor": label.descriptor}
        row.update(b2=v.b2, star=v.star, subregular_singularity=v.subregular_singularity)
        rows.append(row)
    return rows


def exception_set_matches(family: str, n: int) -> bool:
    """The enumerated star-failures coincide with the closed-form list."""
    found = sorted(
        tuple(r["partition"]) for r in enumerate_orbits(family, n) if not r["star"]
    )
    return found == sorted(exceptional_partitions(family, n))


def monotonicity_check(family: str, n: int) -> int:
    """b2 is weakly increasing along the closure order; returns the
    number of comparable pairs checked."""
    if family == "G":
        chain = [0, 6, 8, 10]
        values = [_G2_TABLE[d][0] for d in chain]
        for i in range(len(chain) - 1):
            if values[i] > values[i + 1]:
                raise AssertionError("b2 drops along the G2 closure chain")
        return len(chain) - 1
    table = {}
    for row in enumerate_orbits(family, n):
        table[tuple(row["partition"])] = row["b2"]
    # the order comes from _dominance_masks, restricted to the table's
    # partitions: bit j of rows[i] says parts[i] <= parts[j]
    parts, rows, _ = _dominance_masks(sum(next(iter(table))))
    index = {p: i for i, p in enumerate(parts)}
    inside = sum(1 << index[d] for d in table)
    count = 0
    for d, bd in table.items():
        i = index[d]
        above = rows[i] & inside & ~(1 << i)
        count += bin(above).count("1")
        while above:
            low = above & -above
            dp = parts[low.bit_length() - 1]
            if bd > table[dp]:
                raise AssertionError(
                    f"b2({list(d)})={bd} > b2({list(dp)})={table[dp]} in {family}{n}"
                )
            above ^= low
    return count


def _dominance_masks(m: int) -> Tuple[List[Partition], List[int], List[int]]:
    """(parts, rows, cols) for the partitions of m: bit j of rows[i] says
    parts[i] <= parts[j], bit j of cols[i] says parts[j] <= parts[i].

    Each partition is read once through _partial_sums, the helper that
    _dominated compares, padded to m parts.  For each position s and value
    v one bitmask holds the partitions whose s-th partial sum is at least
    v, one those whose sum is at most v.  Row i is the AND of parts[i]'s m
    at-least masks and column i the AND of its at-most masks: k*m ANDs for
    the k partitions, where a pairwise sweep makes k^2*m comparisons."""
    parts = list(partitions_of(m))
    k = len(parts)
    sums = [_partial_sums(p, m) for p in parts]
    full = (1 << k) - 1
    rows = [full] * k
    cols = [full] * k
    for s in range(m):
        level = [0] * (m + 1)  # the partitions whose s-th partial sum is v
        for j, ps in enumerate(sums):
            level[ps[s]] |= 1 << j
        at_least, at_most = level[:], level[:]
        for v in range(m - 1, -1, -1):
            at_least[v] |= at_least[v + 1]
        for v in range(1, m + 1):
            at_most[v] |= at_most[v - 1]
        for i, ps in enumerate(sums):
            rows[i] &= at_least[ps[s]]
            cols[i] &= at_most[ps[s]]
    return parts, rows, cols


def dominance_axioms_check(m: int) -> Dict[str, int]:
    """Reflexive + antisymmetric + transitive, exhaustively on the
    partitions of m; returns the number of partitions and of related
    pairs.  The relation comes as bitmask rows and columns from
    _dominance_masks; antisymmetry is rows[i] & cols[i] == {i}, and
    transitivity is checked on the rows."""
    parts, rows, cols = _dominance_masks(m)
    k = len(parts)
    for i in range(k):
        if not (rows[i] >> i) & 1:
            raise AssertionError("dominance is not reflexive")
        if rows[i] & cols[i] != 1 << i:
            raise AssertionError("dominance is not antisymmetric")
    for i in range(k):
        mask = rows[i]
        j = 0
        rest = mask
        while rest:
            if rest & 1:
                if rows[j] & ~mask:
                    raise AssertionError("dominance is not transitive")
            rest >>= 1
            j += 1
    return {"partitions": k, "relations": sum(bin(r).count("1") for r in rows)}
