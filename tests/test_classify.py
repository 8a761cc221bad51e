import pytest

from exactlie.classify import (
    ClassificationVerdict,
    MAX_ENUMERATE_RANK,
    OrbitLabel,
    dominance_axioms_check,
    dominance_leq,
    classify,
    enumerate_orbits,
    exception_set_matches,
    exceptional_partitions,
    monotonicity_check,
    partitions_of,
    regular_partition,
    subregular_singularity,
    valid_partition,
    valid_partitions,
)


def test_partition_enumeration_counts():
    # p(1)..p(10)
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for m, count in enumerate(expected, start=1):
        assert len(list(partitions_of(m))) == count


def test_parity_conditions():
    assert valid_partition("B", 3, [5, 1, 1])
    assert valid_partition("B", 3, [3, 2, 2])
    assert not valid_partition("B", 3, [6, 1])
    assert not valid_partition("B", 3, [4, 2, 1])
    assert valid_partition("C", 3, [4, 2])
    assert valid_partition("C", 3, [3, 3])
    assert not valid_partition("C", 3, [3, 2, 1])
    assert not valid_partition("C", 3, [5, 1])
    assert valid_partition("D", 4, [5, 3])
    assert valid_partition("D", 4, [4, 4])
    assert not valid_partition("D", 4, [4, 2, 2])
    assert valid_partition("A", 3, [2, 1, 1])
    assert not valid_partition("A", 3, [2, 1])


def test_dominance_basic_facts():
    assert dominance_leq([3, 3], [4, 2])
    assert not dominance_leq([4, 2], [3, 3])
    assert not dominance_leq([3, 3], [4, 1, 1])
    assert not dominance_leq([4, 1, 1], [3, 3])
    assert dominance_leq([2, 2, 1, 1], [3, 3])
    assert not dominance_leq([3, 1], [3, 2])  # different totals
    assert dominance_leq([5], [5])


def _pairwise_dominance(p, q):
    # an oracle kept apart from the package: running sums, parts past the
    # end of a partition read as zero
    if sum(p) != sum(q):
        return False
    sp = sq = 0
    for k in range(max(len(p), len(q))):
        sp += p[k] if k < len(p) else 0
        sq += q[k] if k < len(q) else 0
        if sp > sq:
            return False
    return True


def _pairwise_relations(m):
    parts = list(partitions_of(m))
    return sum(_pairwise_dominance(p, q) for p in parts for q in parts)


def test_dominance_sweep_relation_equals_pairwise_order():
    from exactlie.classify import _dominance_masks

    for m in range(1, 13):
        parts, rows, cols = _dominance_masks(m)
        assert parts == list(partitions_of(m))
        for i, p in enumerate(parts):
            for j, q in enumerate(parts):
                assert dominance_leq(p, q) == _pairwise_dominance(p, q)
                assert (rows[i] >> j) & 1 == dominance_leq(p, q)
                assert (cols[i] >> j) & 1 == dominance_leq(q, p)


def test_dominance_is_a_partial_order_up_to_16():
    # the sweep's relation counts, pinned against the pairwise oracle
    for m in range(1, 17):
        assert dominance_axioms_check(m)["relations"] == _pairwise_relations(m)
    assert dominance_axioms_check(16) == {"partitions": 231, "relations": 22025}


def test_dominance_sweep_reads_the_shared_partial_sums(monkeypatch):
    # comparing the padded parts instead of their running sums is still a
    # partial order, but a smaller one; the sweep must count its pairs
    import exactlie.classify as classify

    monkeypatch.setattr(
        classify, "_partial_sums", lambda p, width: tuple(p) + (0,) * (width - len(p))
    )
    assert not dominance_leq([2, 2, 1, 1], [3, 3])
    assert dominance_axioms_check(6)["relations"] != _pairwise_relations(6)
    assert dominance_axioms_check(6)["relations"] == sum(
        all(x <= y for x, y in zip(p + (0,) * 6, q + (0,) * 6))
        for p in partitions_of(6)
        for q in partitions_of(6)
    )


def test_regular_orbits_are_rejected():
    cases = [
        OrbitLabel("A", 4, partition=(5,)),
        OrbitLabel("B", 3, partition=(7,)),
        OrbitLabel("C", 3, partition=(6,)),
        OrbitLabel("D", 4, partition=(7, 1)),
        OrbitLabel("G", 2, descriptor="dim:12"),
        OrbitLabel("G", 2, descriptor="regular"),
        OrbitLabel("F", 4, descriptor="regular"),
        OrbitLabel("E", 7, descriptor="regular"),
    ]
    for label in cases:
        with pytest.raises(ValueError, match="regular orbit excluded"):
            classify(label)


def test_type_b_verdicts():
    v = classify(OrbitLabel("B", 3, partition=(5, 1, 1)))
    assert v == ClassificationVerdict(5, False, "A5")
    v = classify(OrbitLabel("B", 3, partition=(3, 3, 1)))
    assert (v.b2, v.star, v.subregular_singularity) == (3, True, None)
    v = classify(OrbitLabel("B", 4, partition=(3, 2, 2, 1, 1)))
    assert (v.b2, v.star) == (4, True)


def test_type_c_verdicts():
    v = classify(OrbitLabel("C", 4, partition=(6, 2)))
    assert v == ClassificationVerdict(5, False, "D5")
    v = classify(OrbitLabel("C", 4, partition=(4, 4)))
    assert (v.b2, v.star, v.subregular_singularity) == (5, False, None)
    v = classify(OrbitLabel("C", 4, partition=(4, 2, 2)))
    assert (v.b2, v.star) == (4, True)
    v = classify(OrbitLabel("C", 5, partition=(5, 5)))
    assert (v.b2, v.star) == (6, False)


def test_type_a_and_d_verdicts():
    v = classify(OrbitLabel("A", 5, partition=(5, 1)))
    assert v == ClassificationVerdict(5, True, "A5")
    v = classify(OrbitLabel("D", 4, partition=(5, 3)))
    assert v == ClassificationVerdict(4, True, "D4")
    v = classify(OrbitLabel("D", 4, partition=(4, 4)))
    assert (v.b2, v.star) == (4, True)
    assert any("very even" in note for note in v.notes)


def test_exceptional_orbit_table():
    v = classify(OrbitLabel("G", 2, descriptor="dim:10"))
    assert (v.b2, v.star, v.subregular_singularity) == (4, False, "D4")
    v = classify(OrbitLabel("G", 2, descriptor="dim:8"))
    assert (v.b2, v.star) == (3, False)
    v = classify(OrbitLabel("G", 2, descriptor="dim:6"))
    assert (v.b2, v.star) == (2, True)
    v = classify(OrbitLabel("G", 2, descriptor="dim:0"))
    assert (v.b2, v.star) == (2, True)
    assert v.notes
    v = classify(OrbitLabel("F", 4, descriptor="subregular"))
    assert (v.b2, v.star, v.subregular_singularity) == (6, False, "E6")
    v = classify(OrbitLabel("F", 4, descriptor="other"))
    assert (v.b2, v.star) == (4, True)
    v = classify(OrbitLabel("E", 8, descriptor="other"))
    assert (v.b2, v.star) == (8, True)


def test_star_means_b2_equals_rank_everywhere():
    for family, ranks in (("B", range(2, 7)), ("C", range(2, 7)), ("D", range(3, 7))):
        for n in ranks:
            for row in enumerate_orbits(family, n):
                assert row["star"] == (row["b2"] == n)
    for row in enumerate_orbits("G", 2):
        assert row["star"] == (row["b2"] == 2)
    for row in enumerate_orbits("F", 4):
        assert row["star"] == (row["b2"] == 4)


def test_exception_sets_match_closed_form_up_to_rank_8():
    for n in range(2, 9):
        assert exception_set_matches("B", n)
        assert exception_set_matches("C", n)
    assert exceptional_partitions("C", 4) == [(6, 2), (4, 4)]
    assert exceptional_partitions("C", 5) == [(8, 2), (6, 4), (5, 5)]
    assert exceptional_partitions("B", 5) == [(9, 1, 1)]


def test_c_exceptions_by_closed_form_match_the_list():
    # two parts, equal or both even: every valid C label of rank 2..15
    count = 0
    for n in range(2, 16):
        listed = set(exceptional_partitions("C", n))
        for d in valid_partitions("C", n):
            if d != regular_partition("C", n):
                assert (classify(OrbitLabel("C", n, partition=d)).b2 == n + 1) == (d in listed)
                count += 1
    assert count == 4728 - 14


def test_single_c_orbit_needs_no_exception_list(monkeypatch):
    # one label at rank 10^9 is decided without the n/2 + 1 listed labels
    def refuse(family, n):
        raise AssertionError("exceptional_partitions called")

    monkeypatch.setattr("exactlie.classify.exceptional_partitions", refuse)
    for n in (10**9, 10**9 + 1):
        for d in ((2 * n - 2, 2), (n, n)):
            v = classify(OrbitLabel("C", n, partition=d))
            assert (v.b2, v.star) == (n + 1, False)
        v = classify(OrbitLabel("C", n, partition=(2 * n - 4, 2, 2)))
        assert (v.b2, v.star) == (n, True)


def test_b2_monotone_along_closures():
    for n in range(2, 7):
        assert monotonicity_check("B", n) > 0
        assert monotonicity_check("C", n) > 0
    assert monotonicity_check("G", 2) == 3


def test_monotonicity_counts_the_pairs_of_the_pairwise_order():
    # the pairs come from the bitmask order; the oracle compares every
    # ordered pair of the table's partitions
    pinned = {"B": [3, 15, 62, 176, 503], "C": [3, 20, 73, 230, 651]}
    for family, counts in pinned.items():
        for n, count in zip(range(2, 7), counts):
            table = [tuple(r["partition"]) for r in enumerate_orbits(family, n)]
            oracle = sum(
                _pairwise_dominance(p, q) for p in table for q in table if p != q
            )
            assert monotonicity_check(family, n) == oracle == count
    for n in range(3, 6):
        table = [tuple(r["partition"]) for r in enumerate_orbits("D", n)]
        assert monotonicity_check("D", n) == sum(
            _pairwise_dominance(p, q) for p in set(table) for q in set(table) if p != q
        )


def test_monotonicity_reports_a_drop_in_b2(monkeypatch):
    import exactlie.classify as classify

    real = classify.enumerate_orbits

    def dropped(family, n):
        # the table's first partition, the subregular one, gets b2 = -1,
        # below every partition it dominates
        rows = real(family, n)
        return [dict(rows[0], b2=-1)] + rows[1:]

    monkeypatch.setattr(classify, "enumerate_orbits", dropped)
    with pytest.raises(AssertionError, match="> b2"):
        monotonicity_check("B", 3)


def test_enumerate_c3_by_hand():
    rows = enumerate_orbits("C", 3)
    table = {tuple(r["partition"]): (r["b2"], r["star"]) for r in rows}
    assert table == {
        (4, 2): (4, False),
        (4, 1, 1): (3, True),
        (3, 3): (4, False),
        (2, 2, 2): (3, True),
        (2, 2, 1, 1): (3, True),
        (2, 1, 1, 1, 1): (3, True),
        (1, 1, 1, 1, 1, 1): (3, True),
    }
    assert regular_partition("C", 3) == (6,)
    assert (6,) not in table


def test_subregular_singularity_map():
    assert subregular_singularity("B", 4) == "A7"
    assert subregular_singularity("C", 4) == "D5"
    assert subregular_singularity("A", 6) == "A6"
    assert subregular_singularity("D", 5) == "D5"
    assert subregular_singularity("E", 7) == "E7"
    assert subregular_singularity("F", 4) == "E6"
    assert subregular_singularity("G", 2) == "D4"


def test_bad_labels_raise():
    with pytest.raises(ValueError):
        classify(OrbitLabel("C", 4, partition=(5, 2, 1)))
    with pytest.raises(ValueError):
        classify(OrbitLabel("B", 3))
    with pytest.raises(ValueError):
        classify(OrbitLabel("G", 2, descriptor="dim:7"))
    with pytest.raises(ValueError):
        classify(OrbitLabel("G", 3, descriptor="dim:8"))
    with pytest.raises(ValueError):
        classify(OrbitLabel("E", 5, descriptor="other"))
    with pytest.raises(ValueError):
        classify(OrbitLabel("F", 4, descriptor="mystery"))
    with pytest.raises(ValueError):
        classify(OrbitLabel("H", 2, partition=(2,)))


def test_enumeration_rank_is_bounded():
    # A20 walks the 792 partitions of 21; C40 would walk p(80) ~ 1.6e7
    assert MAX_ENUMERATE_RANK == 20
    assert len(enumerate_orbits("A", MAX_ENUMERATE_RANK)) == 791
    for family in "ABCD":
        with pytest.raises(ValueError, match="limited to rank <= 20"):
            enumerate_orbits(family, MAX_ENUMERATE_RANK + 1)
    # one orbit label needs no enumeration and keeps every rank: the
    # subregular orbit of C40 is a two-row exception, b2 = rank + 1
    assert classify(OrbitLabel("C", 40, partition=(78, 2))).b2 == 41


def test_valid_partition_counts_are_stable():
    # independent spot checks against hand counts
    assert len(valid_partitions("C", 2)) == 4
    assert len(valid_partitions("B", 2)) == 4
    assert [d for d in valid_partitions("C", 2)] == [(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
