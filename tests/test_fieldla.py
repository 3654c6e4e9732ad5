import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_rank_modp

from oracle import (
    PrimeField,
    RankTracker,
    RationalField,
    SparseMat,
    SparseVec,
    restrict_block,
    spmm,
    vectorize,
)
from terwilliger.fieldla import PRIME_HI, FieldCtx, is_prime, modmul, sample_primes
from terwilliger.scheme import dim_T0


def test_is_prime_small():
    primes = [x for x in range(2, 60) if is_prime(x)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert is_prime((1 << 27) + 29)


def test_sample_primes_deterministic_and_valid():
    a = sample_primes(11, 2, avoid=10080)
    b = sample_primes(11, 2, avoid=10080)
    assert a == b
    assert a[0] != a[1]
    for p in a:
        assert is_prime(p)
        assert (1 << 27) <= p < (1 << 28)
        assert 10080 % p != 0


def test_field_ctx_rejects_composite():
    with pytest.raises(ValueError):
        FieldCtx(91)
    with pytest.raises(ValueError):
        FieldCtx(2)


def test_field_ctx_rejects_primes_from_prime_hi():
    p = PRIME_HI - 1
    while not is_prime(p):
        p -= 2
    assert FieldCtx(p).p == p
    for q in (2**31 - 1, 2**61 - 1):
        with pytest.raises(ValueError, match="not below"):
            FieldCtx(q)


def test_field_inverse_bulk():
    p = sample_primes(0, 1)[0]
    f = PrimeField(p)
    rng = random.Random(1)
    for _ in range(100_000):
        a = rng.randrange(1, p)
        assert a * f.inv(a) % p == 1


def test_sparse_vec_validation():
    with pytest.raises(ValueError):
        SparseVec(4, ((2, 1), (1, 1)))
    with pytest.raises(ValueError):
        SparseVec(4, ((0, 0),))
    with pytest.raises(ValueError):
        SparseVec(2, ((5, 1),))
    v = SparseVec.from_dict(5, {3: 2, 1: 0})
    assert v.entries == ((3, 2),)


def test_rank_insert_duplicate():
    f = PrimeField(sample_primes(2, 1)[0])
    t = RankTracker(5, f)
    v = SparseVec(5, ((1, 3), (2, 4)))
    assert t.insert(v)
    assert not t.insert(v)
    assert t.rank == 1


def test_rank_insert_dependent_triple():
    f = PrimeField(sample_primes(3, 1)[0])
    t = RankTracker(4, f)
    assert t.insert(SparseVec(4, ((0, 1),)))
    assert t.insert(SparseVec(4, ((1, 1),)))
    assert not t.insert(SparseVec(4, ((0, 1), (1, 1))))
    assert t.rank == 2


def test_tracker_dimension_mismatch():
    f = PrimeField(sample_primes(4, 1)[0])
    t = RankTracker(4, f)
    with pytest.raises(ValueError):
        t.insert(SparseVec(5, ((0, 1),)))


def test_tracker_fully_reduced_invariant():
    p = sample_primes(5, 1)[0]
    f = PrimeField(p)
    t = RankTracker(8, f)
    rng = random.Random(0)
    for _ in range(30):
        vec = {i: rng.randrange(p) for i in rng.sample(range(8), 4)}
        t.insert(SparseVec.from_dict(8, vec))
    pivots = set(t.rows)
    for piv, row in t.rows.items():
        assert row[piv] == 1
        assert all(j == piv or j not in pivots for j in row)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_tracker_matches_dense_oracle(data):
    p = 101
    f = PrimeField(p)
    nrows = data.draw(st.integers(2, 12))
    ncols = data.draw(st.integers(2, 10))
    rows = [
        [data.draw(st.integers(0, p - 1)) for _ in range(ncols)] for _ in range(nrows)
    ]
    t = RankTracker(ncols, f)
    for r in rows:
        t.insert(SparseVec.from_dict(ncols, dict(enumerate(r))))
    assert t.rank == dense_rank_modp(rows, ncols, p)


def test_tracker_rank_batch_100():
    p = sample_primes(6, 1)[0]
    f = PrimeField(p)
    rng = random.Random(9)
    ncols = 40
    rows = [[rng.randrange(p) if rng.random() < 0.2 else 0 for _ in range(ncols)] for _ in range(100)]
    t = RankTracker(ncols, f)
    for r in rows:
        t.insert(SparseVec.from_dict(ncols, dict(enumerate(r))))
    assert t.rank == dense_rank_modp(rows, ncols, p)


def test_rational_field_tracker():
    f = RationalField()
    t = RankTracker(3, f)
    assert t.insert(SparseVec(3, ((0, 2), (1, 3))))
    assert t.insert(SparseVec(3, ((1, 5),)))
    assert not t.insert(SparseVec(3, ((0, 4), (1, 6))))
    assert t.rank == 2
    assert all(isinstance(v, Fraction) for row in t.rows.values() for v in row.values())


def test_spmm_identity_and_zero():
    p = sample_primes(7, 1)[0]
    f = PrimeField(p)
    a = SparseMat(2, 3, [{0: 5, 2: 7}, {1: 1}])
    ident = SparseMat(3, 3, [{0: 1}, {1: 1}, {2: 1}])
    assert spmm(a, ident, f).rows == a.rows
    z = SparseMat.zero(3, 4)
    assert spmm(a, z, f).is_zero()
    with pytest.raises(ValueError):
        spmm(a, SparseMat.zero(4, 2), f)


def test_spmm_against_dense_oracle():
    p = 97
    f = PrimeField(p)
    rng = random.Random(5)
    for _ in range(5):
        a_rows = [
            {j: rng.randrange(1, p) for j in rng.sample(range(50), 8)}
            for _ in range(50)
        ]
        b_rows = [
            {j: rng.randrange(1, p) for j in rng.sample(range(50), 8)}
            for _ in range(50)
        ]
        a = SparseMat(50, 50, a_rows)
        b = SparseMat(50, 50, b_rows)
        prod = spmm(a, b, f)
        da, db = a.to_dense(), b.to_dense()
        for i in range(50):
            for j in range(50):
                want = sum(da[i][k] * db[k][j] for k in range(50)) % p
                assert prod.rows[i].get(j, 0) % p == want


def test_path_count_through_identity(stages):
    # 1x1 product of the identity-row block with the column block back to the
    # identity counts closed paths 1 -> C_k -> 1, brute-forced directly
    s = stages.scheme(4)
    g, cls = s.group, s.classes
    f = PrimeField(sample_primes(8, 1)[0])
    for j in range(cls.n_classes):
        for k in range(cls.n_classes):
            for l in range(cls.n_classes):
                prod = spmm(
                    restrict_block(s, 0, j, k), restrict_block(s, k, l, 0), f
                )
                brute = sum(
                    1
                    for z in cls.elements[k]
                    if cls.class_of[z] == j and cls.class_of[g.inv(z)] == l
                )
                assert prod.rows[0].get(0, 0) == brute % f.p


def test_restrict_block_identity_block(stages):
    s = stages.scheme(4)
    b = restrict_block(s, 0, 0, 0)
    assert b.nrows == b.ncols == 1
    assert b.rows[0] == {0: 1}


def test_restrict_block_nonzero_count_equals_t0(stages):
    s = stages.scheme(4)
    count = 0
    nc = s.n_classes
    for i in range(nc):
        for j in range(nc):
            for k in range(nc):
                if not restrict_block(s, i, j, k).is_zero():
                    count += 1
    assert count == 42 == dim_T0(stages.tensor(4))


def test_restrict_block_row_sums(stages):
    # summing row supports over k recovers |C_j| out-neighbours per vertex
    s = stages.scheme(4)
    cls = s.classes
    for i in range(s.n_classes):
        for j in range(s.n_classes):
            totals = [0] * cls.sizes[i]
            for k in range(s.n_classes):
                b = restrict_block(s, i, j, k)
                for r, row in enumerate(b.rows):
                    totals[r] += sum(row.values())
            assert all(v == cls.sizes[j] for v in totals)


def test_s4_block_vectors_rank_42(stages):
    s = stages.scheme(4)
    f = PrimeField(sample_primes(9, 1)[0])
    cls = s.classes
    total = 0
    for i in range(s.n_classes):
        for k in range(s.n_classes):
            t = RankTracker(cls.sizes[i] * cls.sizes[k], f)
            for j in range(s.n_classes):
                b = restrict_block(s, i, j, k)
                if not b.is_zero():
                    assert t.insert(vectorize(b))
            total += t.rank
    assert total == 42


def test_vectorize_roundtrip():
    m = SparseMat(2, 3, [{1: 4}, {0: 2, 2: 9}])
    v = vectorize(m)
    assert v.dim == 6
    back = [[0] * 3 for _ in range(2)]
    for idx, val in v.entries:
        back[idx // 3][idx % 3] = val
    assert back == m.to_dense()
    assert vectorize(SparseMat.zero(3, 3)).is_zero()
    one = SparseMat(1, 1, [{0: 1}])
    assert vectorize(one).entries == ((0, 1),)


def test_modmul_matches_bigint():
    rng = np.random.default_rng(0)
    p = sample_primes(10, 1)[0]
    for inner in (3, 128, 300):
        a = rng.integers(0, p, size=(7, inner), dtype=np.int64)
        b = rng.integers(0, p, size=(inner, 5), dtype=np.int64)
        want = (a.astype(object) @ b.astype(object)) % p
        got = modmul(a, b, p)
        assert (got == want.astype(np.int64)).all()
