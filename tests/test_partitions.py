"""Partition sequence combinatorics against independent oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lionsjet.errors import CompositionError, EnumerationLimitError, ValidationError
from lionsjet.partitions import (
    PartitionSeq,
    SetPartition,
    compose,
    enum_A,
    equiv_class,
    from_partition,
    refines,
    to_partition,
)


def bell_numbers(count):
    """Bell numbers via the Bell triangle recurrence (independent of enum_A)."""
    out = [1]
    row = [1]
    for _ in range(count - 1):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        out.append(new[0])
        row = new
    return out


A4_LISTING = [
    (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1), (1, 1, 2, 2), (1, 1, 2, 3),
    (1, 2, 1, 1), (1, 2, 1, 2), (1, 2, 1, 3), (1, 2, 2, 1), (1, 2, 2, 2),
    (1, 2, 2, 3), (1, 2, 3, 1), (1, 2, 3, 2), (1, 2, 3, 3), (1, 2, 3, 4),
]


def test_enum_small_listings():
    assert [a.values for a in enum_A(0)] == [()]
    assert [a.values for a in enum_A(1)] == [(1,)]
    assert [a.values for a in enum_A(2)] == [(1, 1), (1, 2)]
    assert [a.values for a in enum_A(3)] == [
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)
    ]
    assert [a.values for a in enum_A(4)] == A4_LISTING


def test_enum_counts_are_bell_numbers():
    bell = bell_numbers(11)
    assert bell == [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    for n in range(11):
        assert len(enum_A(n)) == bell[n]


def test_enum_lexicographic_and_unique():
    seqs = [a.values for a in enum_A(5)]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_enum_cap():
    # the cap is checked before any sequence is built
    with pytest.raises(EnumerationLimitError):
        enum_A(13)


def test_validation():
    with pytest.raises(ValidationError):
        PartitionSeq((2,))
    with pytest.raises(ValidationError):
        PartitionSeq((1, 3))
    with pytest.raises(ValidationError):
        SetPartition(((1, 2), (2, 3)))
    with pytest.raises(ValidationError):
        SetPartition(((1,), (3,)))
    with pytest.raises(ValidationError):
        SetPartition(((1,), ()))


def test_to_partition_examples():
    assert to_partition(PartitionSeq((1, 2, 1))).blocks == ((1, 3), (2,))
    assert to_partition(PartitionSeq((1, 1, 1))).blocks == ((1, 2, 3),)
    assert to_partition(PartitionSeq((1, 2, 3))).blocks == ((1,), (2,), (3,))


def test_from_partition_examples():
    assert from_partition(SetPartition(((1, 3), (2,)))).values == (1, 2, 1)
    # block order is canonicalized by minima
    assert from_partition(SetPartition(((2,), (1, 3)))).values == (1, 2, 1)


def test_roundtrip_exhaustive_n6():
    for a in enum_A(6):
        assert from_partition(to_partition(a)) == a


def test_partition_roundtrip_all_partitions_n5():
    # to_partition(from_partition(P)) == P over every partition of {1..5}
    seen = set()
    for a in enum_A(5):
        p = to_partition(a)
        assert to_partition(from_partition(p)) == p
        seen.add(p.blocks)
    assert len(seen) == len(enum_A(5))


def test_equiv_class_examples():
    assert equiv_class(("i", "i", "l")).values == (1, 1, 2)
    assert equiv_class((4, 5)).values == (1, 2)
    assert equiv_class((7, 7, 7)).values == (1, 1, 1)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=7), st.permutations(range(6)))
def test_equiv_class_relabeling_invariance(labels, relabel):
    assert equiv_class([relabel[v] for v in labels]) == equiv_class(labels)


def test_refines_examples():
    assert refines(PartitionSeq((1, 2, 3)), PartitionSeq((1, 1, 2)))
    assert refines(PartitionSeq((1, 1, 2)), PartitionSeq((1, 1, 2)))
    assert not refines(PartitionSeq((1, 1, 2)), PartitionSeq((1, 2, 3)))
    with pytest.raises(ValidationError):
        refines(PartitionSeq((1,)), PartitionSeq((1, 2)))


def test_refines_matches_block_containment():
    for a, b in itertools.product(enum_A(4), repeat=2):
        expected = all(
            any(set(pa) <= set(pb) for pb in b.blocks()) for pa in a.blocks()
        )
        assert refines(a, b) == expected


def test_refines_is_partial_order():
    for n in range(5):
        seqs = enum_A(n)
        for a in seqs:
            assert refines(a, a)
        for a, b in itertools.combinations(seqs, 2):
            assert not (refines(a, b) and refines(b, a))
        for a, b, c in itertools.product(seqs, repeat=3):
            if refines(a, b) and refines(b, c):
                assert refines(a, c)


def test_compose_examples():
    assert compose(("i", "i", "l"), PartitionSeq((1, 1, 2))) == ("i", "l")
    assert compose(("i", "i", "l"), PartitionSeq((1, 2, 3))) == ("i", "i", "l")
    assert compose((5, 5), PartitionSeq((1, 1))) == (5,)
    with pytest.raises(CompositionError):
        compose((1, 2), PartitionSeq((1, 1)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=6))
def test_compose_with_own_class_gives_distinct_labels(labels):
    a = equiv_class(labels)
    out = compose(labels, a)
    assert len(out) == a.m
    assert len(set(out)) == len(out)


def test_json_round_trip():
    a = PartitionSeq((1, 2, 1, 3))
    assert PartitionSeq.from_json(a.to_json()) == a
    p = to_partition(a)
    assert SetPartition.from_json(p.to_json()) == p
