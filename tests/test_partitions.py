import itertools
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import parse_partition, parse_signed_partition
from terwilliger.partitions import Partition, SignedPartition, class_size, partitions_of


def test_partitions_of_3_exhaustive():
    assert [p.parts for p in partitions_of(3)] == [(1, 1, 1), (2, 1), (3,)]


def test_partition_counts():
    assert len(partitions_of(6)) == 11
    assert len(partitions_of(7)) == 15


def test_partitions_rejects_zero():
    with pytest.raises(ValueError):
        partitions_of(0)


def test_partition_order_none_first_n_last():
    for n in range(1, 9):
        parts = partitions_of(n)
        assert parts[0].parts == tuple([1] * n)
        assert parts[-1].parts == (n,)
        assert parts == sorted(parts)
        assert len(set(parts)) == len(parts)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_labels_and_parsing_roundtrip():
    for n in range(1, 9):
        for p in partitions_of(n):
            assert parse_partition(p.label()) == p
    assert Partition((3, 2, 1, 1)).label() == "[3,2,1^2]"
    assert parse_partition("3,1,2").parts == (3, 2, 1)


def test_signed_partition_labels():
    sp = SignedPartition(Partition((2, 1)), -1)
    assert sp.label() == "[2,1]-"
    assert parse_signed_partition("[2,1]-") == sp
    with pytest.raises(ValueError):
        SignedPartition(Partition((2,)), 0)
    with pytest.raises(ValueError):
        parse_signed_partition("[2,1]")


def _count_by_cycle_type(n, lam):
    from terwilliger.groups import cycle_type

    return sum(
        1 for t in itertools.permutations(range(n)) if cycle_type(t) == lam
    )


def test_class_size_identity_class():
    for n in range(1, 9):
        assert class_size(Partition(tuple([1] * n))) == 1


def test_class_size_from_enumeration_s3():
    assert class_size(Partition((2, 1))) == 3 == _count_by_cycle_type(3, Partition((2, 1)))


def test_class_size_from_enumeration_s7():
    lam = Partition((6, 1))
    assert class_size(lam) == 840
    assert _count_by_cycle_type(7, lam) == 840


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=6))
def test_class_sizes_partition_group_order(n):
    assert sum(class_size(p) for p in partitions_of(n)) == factorial(n)
    for p in partitions_of(n):
        assert class_size(p) == _count_by_cycle_type(n, p)


def test_class_sizes_sum_up_to_8():
    for n in range(1, 9):
        assert sum(class_size(p) for p in partitions_of(n)) == factorial(n)
