import itertools

import numpy as np
import pytest

import golden
from conftest import (
    bench_table_group,
    dense_rank_modp,
    dihedral_table,
    generator_rows,
    per_orbit_products,
)
from oracle import (
    PrimeField,
    RationalField,
    is_symmetric,
    row_by_row_insert,
    run_matrix_closure,
)
from orbit_oracle import BlockOracle

import terwilliger as tw
import terwilliger.fieldla as fieldla_mod
import terwilliger.orbitals as orbitals_mod
import terwilliger.switching as switching_mod
from terwilliger.cli import main
from terwilliger.fieldla import (
    FLOAT64_EXACT,
    PRIME_HI,
    FieldCtx,
    is_prime,
    modmul,
    sample_primes,
)
from terwilliger.groups import ReconciliationError, load_cayley_table
from terwilliger.orbitals import OrbitalIndex
from terwilliger.switching import (
    REDUCE_EVERY,
    Block,
    ClosureError,
    SwitchingClosure,
    chain_products,
    run_to_stationary,
    triple_regularity,
)


#: S3-S7 and the benchmark's three Cayley-table groups
GROUPS = ["sym:3", "sym:4", "sym:5", "sym:6", "sym:7", "psl2_11", "psl2_13", "agl1_23"]


def test_generate_t0_totals(stages):
    for n, want in ((3, 11), (6, 447), (7, 1232)):
        closure = SwitchingClosure(stages.orbindex(n), FieldCtx(sample_primes(1, 1)[0]))
        closure.generate_t0()
        assert closure.total_dim == want


def test_t0_block_dims_are_relation_counts(stages):
    s = stages.scheme(5)
    t = stages.tensor(5)
    closure = SwitchingClosure(stages.orbindex(5), FieldCtx(sample_primes(2, 1)[0]))
    closure.generate_t0()
    table = closure.block_dims()
    assert table.dims == golden.S5_T0_TABLE
    for i in range(s.n_classes):
        for k in range(s.n_classes):
            want = sum(1 for j in range(s.n_classes) if t.p[i, j, k])
            assert table.dims[i][k] == want


def _scheme_and_index(stages, group):
    if group.startswith("sym:"):
        n = int(group[4:])
        return stages.scheme(n), stages.orbindex(n)
    s = tw.build_scheme(bench_table_group(group, 0))
    return s, OrbitalIndex(s)


@pytest.mark.parametrize("group", GROUPS)
def test_level0_is_the_relation_indicator_rows(stages, group):
    # level 0 is one closure step from the seeds E_c*: the length-1 generators
    # E_i* A_j E_k*, one relation-indicator row and one word ((i, j, k),) per
    # relation of the block, derived lower blocks included
    s, oi = _scheme_and_index(stages, group)
    for p in sample_primes(0, 2, avoid=2 * s.group.order):
        closure = SwitchingClosure(oi, FieldCtx(p))
        closure.generate_t0()
        dims = closure.block_dims().dims
        for i, k in itertools.product(range(oi.n_classes), repeat=2):
            raw, words = closure.block_rows((i, k))
            js = oi.block_relations[(i, k)].tolist()
            want = [((i, j, k),) for j in js]
            assert dims[i][k] == len(words) == len(js), (group, p, i, k)
            if i <= k:
                assert words == want, (group, p, i, k)
                assert np.array_equal(raw, generator_rows(oi, (i, k))), (group, p, i, k)
            else:
                # a derived block lists its words in its upper block's order
                assert sorted(words) == want, (group, p, i, k)
                rows = dict(zip(js, generator_rows(oi, (i, k))))
                for (w,), row in zip(words, raw):
                    assert np.array_equal(row, rows[w[1]]), (group, p, i, k)


@pytest.mark.parametrize("group", GROUPS)
def test_level_growth_sums_to_the_total(stages, group):
    # the growth of every level, level 0 included, has every block, a lower
    # one mirroring its upper one: it sums to that level's increase in total_dim
    s, oi = _scheme_and_index(stages, group)
    closure = SwitchingClosure(oi, FieldCtx(sample_primes(0, 1, avoid=2 * s.group.order)[0]))
    growth = closure.generate_t0()
    assert sum(growth.values()) == closure.total_dim > 0, group
    while True:
        before = closure.total_dim
        growth = closure.extend_level()
        assert sum(growth.values()) == closure.total_dim - before, (group, closure.level)
        if not any(growth.values()):
            break


def test_closure_widths_and_dims(stages):
    for n in (3, 4, 5, 6):
        res = stages.closure(n)
        d = golden.DIMS[n]
        assert res.dim_t0 == d["t0"]
        assert res.dim_t == d["t"]
        assert res.width == d["width"]


def test_s3_final_table(stages):
    res = stages.closure(3)
    assert res.final_table.dims == golden.S3_T_TABLE
    assert res.dims_per_level == [11, 11]


def test_s4_growth_localized(stages):
    res = stages.closure(4)
    assert res.dims_per_level == [42, 43, 43]
    t0, t1 = res.tables[0], res.tables[1]
    diffs = {
        (t0.labels[a], t0.labels[b]): t1.dims[a][b] - t0.dims[a][b]
        for a in range(5)
        for b in range(5)
        if t1.dims[a][b] != t0.dims[a][b]
    }
    assert diffs == {("[3,1]", "[3,1]"): 1}
    assert res.final_table.dims == golden.S4_TILDE_TABLE


def test_s5_level_tables(stages):
    res = stages.closure(5)
    assert res.tables[0].dims == golden.S5_T0_TABLE
    assert res.tables[1].dims == golden.S5_T1_TABLE
    assert res.final_table.get("[5]", "[5]") == 8
    assert res.final_table.get("[3,1^2]", "[3,2]") == 5
    assert res.dims_per_level == [124, 155, 155]


def test_s6_final_table(stages):
    res = stages.closure(6)
    assert res.tables[0].dims == golden.S6_T0_TABLE
    assert res.final_table.dims == golden.S6_T_TABLE
    assert res.dims_per_level == [447, 758, 758]


def test_monotonicity_and_symmetry(stages, q8_path, c3_path):
    results = [stages.closure(n) for n in (4, 5, 6, 7)]
    for path in (q8_path, c3_path):
        results.append(run_to_stationary(tw.build_scheme(load_cayley_table(path)), seed=0))
    for res in results:
        for prev, cur in zip(res.tables, res.tables[1:]):
            for a in range(len(prev.labels)):
                for b in range(len(prev.labels)):
                    assert cur.dims[a][b] >= prev.dims[a][b]
        totals = res.dims_per_level
        assert all(x < y for x, y in zip(totals[:-2], totals[1:-1]))
        assert totals[-1] == totals[-2]
        # every level, not only the last: transposing a word reverses it
        assert all(is_symmetric(t) for t in res.tables), res.orbindex.scheme.group.name


def test_identity_row_column(stages):
    for n in (4, 5, 6):
        t = stages.closure(n).final_table
        assert all(v == 1 for v in t.dims[0])
        assert all(row[0] == 1 for row in t.dims)


def test_blocks_at_most_orbit_bounds(stages):
    for n in (4, 5, 6):
        final = stages.closure(n).final_table
        bound = stages.orbindex(n).table()
        nc = len(final.labels)
        for a in range(nc):
            for b in range(nc):
                assert final.dims[a][b] <= bound.dims[a][b]


def test_block_support_reachability(stages):
    # nonzero blocks must be chain-connected through nonzero triples
    n = 5
    res = stages.closure(n)
    t = stages.tensor(n)
    nc = res.orbindex.scheme.n_classes
    # edges (i -> k) whenever some length-1 element lives in block (i,k)
    adj = {
        i: {k for k in range(nc) if any(t.p[i, j, k] for j in range(nc))}
        for i in range(nc)
    }
    reach = {i: set(adj[i]) for i in range(nc)}
    for i in range(nc):
        frontier = set(reach[i])
        while frontier:
            k = frontier.pop()
            new = adj[k] - reach[i]
            reach[i] |= new
            frontier |= new
    for a in range(nc):
        for b in range(nc):
            if res.final_table.dims[a][b]:
                assert b in reach[a]


def test_triple_regularity_flags(stages):
    assert triple_regularity(stages.closure(3)) == tw.switching.TripleRegularity(
        True, True
    )
    flags4 = triple_regularity(stages.closure(4))
    assert not flags4.triply_regular and not flags4.triply_transitive
    flags7 = triple_regularity(stages.closure(7))
    assert not flags7.triply_regular and not flags7.triply_transitive


def test_abelian_triply_transitive(c3_path):
    s = tw.build_scheme(load_cayley_table(c3_path))
    res = run_to_stationary(s, seed=0)
    flags = triple_regularity(res)
    assert flags.triply_regular and flags.triply_transitive


def test_q8_closure(q8_path):
    s = tw.build_scheme(load_cayley_table(q8_path))
    res = run_to_stationary(s, seed=0)
    oi = res.orbindex
    assert res.dim_t <= oi.total
    extra = res.closures[0].extend_level()
    assert not any(extra.values())


def test_closure_idempotent_after_stationary(stages):
    res = stages.closure(4)
    for closure in res.closures:
        growth = closure.extend_level()
        assert not any(growth.values())


def test_bounds_on_off_equal(stages):
    s = stages.scheme(4)
    oi = stages.orbindex(4)
    a = run_to_stationary(s, oi, seed=3, bounds=oi.table())
    b = run_to_stationary(s, oi, seed=3, bounds=None)
    assert a.final_table.dims == b.final_table.dims
    assert a.width == b.width


def test_bad_bounds_rejected(stages):
    s = stages.scheme(4)
    oi = stages.orbindex(4)
    bad = oi.table()
    bad.dims[3][3] = 1  # below the true block dimension
    with pytest.raises(ClosureError):
        run_to_stationary(s, oi, seed=0, bounds=bad)
    # a bound equal to the block's T0 dimension, below its final dimension 4:
    # the closure must not stop the block there and return a smaller dim T
    bad = oi.table()
    a = bad.labels.index("[3,1]")
    bad.dims[a][a] = 3
    with pytest.raises(ClosureError, match=r"\(\[3,1\],\[3,1\]\)"):
        run_to_stationary(s, oi, seed=0, bounds=bad)


def test_explicit_primes_and_determinism(stages):
    s = stages.scheme(4)
    oi = stages.orbindex(4)
    primes = sample_primes(17, 2, avoid=48)
    res = run_to_stationary(s, oi, primes=primes)
    assert res.primes == primes
    res2 = run_to_stationary(s, oi, primes=primes)
    assert res.final_table.dims == res2.final_table.dims
    with pytest.raises(ValueError):
        run_to_stationary(s, oi, primes=(primes[0], primes[0]))
    with pytest.raises(ValueError):
        run_to_stationary(s, oi, primes=(3, 5))  # divides twice the order
    # int64 residue arithmetic is exact only below PRIME_HI
    for pair in ((2**31 - 1, 2**61 - 1), (primes[0], 2**31 - 1)):
        with pytest.raises(ValueError, match="not below"):
            run_to_stationary(s, oi, primes=pair)
    # the closures read the scheme off the orbit index
    with pytest.raises(ValueError, match="another scheme"):
        run_to_stationary(stages.scheme(5), oi, primes=primes)


def test_prime_disagreement_names_check(monkeypatch, stages):
    s = stages.scheme(4)
    primes = sample_primes(19, 2, avoid=48)
    block_dims = SwitchingClosure.block_dims

    def block_dims_off_under_second_prime(self):
        table = block_dims(self)
        if self.field.p == primes[1]:
            table.dims[0][0] += 1
        return table

    monkeypatch.setattr(SwitchingClosure, "block_dims", block_dims_off_under_second_prime)
    with pytest.raises(ReconciliationError, match="disagree") as exc:
        run_to_stationary(s, stages.orbindex(4), primes=primes)
    assert exc.value.check == "two_prime_agreement"


def _block_dims_off_under(primes):
    """`SwitchingClosure.block_dims` with one entry one higher under the given primes."""
    block_dims = SwitchingClosure.block_dims

    def patched(self):
        table = block_dims(self)
        if self.field.p in primes:
            table.dims[0][0] += 1
        return table

    return patched


def test_fresh_pair_replaces_a_disagreeing_sampled_pair(monkeypatch, stages):
    s, oi = stages.scheme(4), stages.orbindex(4)
    first, fresh = sample_primes(23, 2, avoid=48), sample_primes(24, 2, avoid=48)
    assert not set(first) & set(fresh)
    monkeypatch.setattr(SwitchingClosure, "block_dims", _block_dims_off_under({first[1]}))
    res = run_to_stationary(s, oi, seed=23)
    assert res.primes == fresh
    assert (res.dim_t0, res.dim_t, res.width) == (
        golden.DIMS[4]["t0"], golden.DIMS[4]["t"], golden.DIMS[4]["width"]
    )


def test_fresh_pair_disagreeing_too_names_check(monkeypatch, stages):
    s, oi = stages.scheme(4), stages.orbindex(4)
    first, fresh = sample_primes(23, 2, avoid=48), sample_primes(24, 2, avoid=48)
    patched = _block_dims_off_under({first[1], fresh[1]})
    monkeypatch.setattr(SwitchingClosure, "block_dims", patched)
    with pytest.raises(ReconciliationError, match="a fresh prime pair also disagreed") as exc:
        run_to_stationary(s, oi, seed=23)
    assert exc.value.check == "two_prime_agreement"


def test_close_leaves_a_stationary_closure_as_it_is(stages):
    p = sample_primes(0, 1, avoid=48)[0]
    closure = SwitchingClosure(stages.orbindex(4), FieldCtx(p))
    assert closure.close() == golden.DIMS[4]["width"]
    history = list(closure.history)
    assert closure.close() == golden.DIMS[4]["width"]
    assert closure.history == history


def test_closure_levels_out_of_order_raise(stages):
    closure = SwitchingClosure(stages.orbindex(3), FieldCtx(101))
    with pytest.raises(ClosureError, match="level 0 first"):
        closure.extend_level()
    closure.generate_t0()
    with pytest.raises(ClosureError, match="already generated"):
        closure.generate_t0()


@pytest.mark.parametrize(
    "make",
    [
        lambda oi: Block(oi.r[(0, 0)], PRIME_HI),
        lambda oi: chain_products(oi, (0, 0), 0, np.eye(1, oi.r[(0, 0)], dtype=np.int64), PRIME_HI),
    ],
    ids=["Block", "chain_products"],
)
def test_int64_kernels_reject_prime_hi(stages, make):
    with pytest.raises(ValueError, match="not below"):
        make(stages.orbindex(3))


def test_two_prime_runs_agree(stages):
    res = stages.closure(5)
    c1, c2 = res.closures
    assert c1.field.p != c2.field.p
    for t1, t2 in zip(c1.history, c2.history):
        assert t1.dims == t2.dims


def test_matrix_engine_matches_fast_engine(stages):
    # independent ambient-coordinate oracle, level by level
    for n in (3, 4, 5):
        fast = stages.closure(n)
        ref, width = run_matrix_closure(
            stages.scheme(n), PrimeField(sample_primes(23, 1)[0])
        )
        assert width == fast.width
        assert len(ref.history) == len(fast.tables)
        for a, b in zip(ref.history, fast.tables):
            assert a.dims == b.dims


def test_matrix_engine_rational_mode(stages):
    # slow exact verification over the rationals for the smallest cases
    for n in (3, 4):
        ref, width = run_matrix_closure(stages.scheme(n), RationalField())
        fast = stages.closure(n)
        assert width == fast.width
        assert ref.history[-1].dims == fast.final_table.dims


def test_provenance_words_chain(stages):
    closure = stages.closure(5).closures[0]
    nc = closure.orbindex.n_classes
    for i, k in itertools.product(range(nc), repeat=2):
        for word in closure.block_rows((i, k))[1]:
            assert word[0][0] == i and word[-1][2] == k
            for (a, _, b), (c, _, d) in zip(word, word[1:]):
                assert b == c


def test_basis_rows_reproduce_ranks(stages):
    # raw rows, stored or derived, must span exactly the tracked rank
    for n in (4, 5):
        for closure in stages.closure(n).closures:
            p, oi = closure.field.p, closure.orbindex
            dims = closure.block_dims().dims
            for i, k in itertools.product(range(oi.n_classes), repeat=2):
                raw, words = closure.block_rows((i, k))
                assert dense_rank_modp(raw.tolist(), oi.r[(i, k)], p) == dims[i][k] == len(words)


def _assert_residual(blk, vecs, seen):
    """Block.residual on `vecs` against the rows `seen` inserted so far: zero
    exactly when the dense rank does not grow, and v - v[pivots] @ rows on the
    free columns."""
    rank, p, r = blk.rank, blk.p, blk.r
    free = np.setdiff1d(np.arange(r), blk.pivots[:rank])
    assert (np.flatnonzero(blk.is_free) == free).all()
    got = blk.residual(vecs)
    want = (vecs - vecs[:, blk.pivots[:rank]] @ blk.rows[:rank]) % p
    assert got.shape == (len(vecs), r - rank) == want[:, free].shape
    assert (got == want[:, free]).all()
    assert not want[:, blk.pivots[:rank]].any()
    base = dense_rank_modp(seen, r, p)
    assert base == rank
    for row, res in zip(vecs.tolist(), got):
        assert res.any() == (dense_rank_modp(seen + [row], r, p) > base)


def test_block_echelon_invariants():
    # dependent rows, zero rows and more candidates than the block's r orbits
    r = 7
    p = sample_primes(29, 1)[0]
    rng = np.random.default_rng(5)
    base = rng.integers(0, p, size=(4, r))
    combos = rng.integers(0, p, size=(6, 4)) @ base % p
    batches = [
        np.vstack([base[:2], combos[:3], np.zeros((1, r), dtype=np.int64), base[2:]]),
        np.vstack([combos[3:], rng.integers(0, p, size=(9, r))]),
        rng.integers(0, p, size=(3, r)),
    ]
    blk = Block(r, p)
    seen: list[list[int]] = []
    for cands in batches:
        # every batch against the residuals of the empty, partial or full block
        _assert_residual(blk, np.vstack(batches), seen)
        want = []
        for idx, row in enumerate(cands.tolist()):
            before = dense_rank_modp(seen, r, p)
            seen.append(row)
            if dense_rank_modp(seen, r, p) > before:
                want.append(idx)
        start = blk.rank
        grown = blk.insert_batch(blk.residual(cands))
        assert grown == want
        assert blk.rank == start + len(grown) == dense_rank_modp(seen, r, p)
        # the caller's provenance: the accepted rows span the echelon rows
        blk.raw[start : blk.rank] = cands[grown] % p
        rows, piv = blk.rows[: blk.rank], blk.pivots[: blk.rank]
        assert (rows[:, piv] == np.eye(blk.rank, dtype=np.int64)).all()
        assert not blk.residual(blk.raw[: blk.rank]).any()
        assert (rows >= 0).all() and (rows < p).all()
    # the last batch met a full block: it stops at r and grows nothing
    assert blk.rank == r and grown == []
    _assert_residual(blk, np.vstack(batches), seen)


@pytest.mark.parametrize("r", [1, 6, 13, 134])
def test_insert_batch_matches_row_by_row_oracle(r):
    # the batched elimination against the row-by-row oracle, batch after
    # batch into one block: the same accepted indices, rows, pivots and rank.
    # At r = 134 two batches have more than REDUCE_EVERY pivots, so the working
    # array is reduced mid-batch as well as when dead rows reach the head, and
    # the largest working prime puts the unreduced entries nearest the int64
    # bound
    rng = np.random.default_rng(r)
    most = 0
    for p in (7, sample_primes(41, 1)[0], _largest_prime_below(PRIME_HI)):
        base = rng.integers(0, p, size=(max(1, r // 2), r))
        mixed = modmul(rng.integers(0, p, size=(9, len(base))), base, p)
        batches = [
            np.zeros((0, r), dtype=np.int64),
            np.zeros((4, r), dtype=np.int64),
            np.vstack([base[:1], base[:1], mixed[:2], np.zeros((1, r), dtype=np.int64)]),
            np.vstack([mixed[2:], base, base[::-1]]),
            rng.integers(0, p, size=(2 * r + 3, r)),
            rng.integers(0, p, size=(3, r)),
        ]
        blk, ref = Block(r, p), Block(r, p)
        for cands in batches:
            res = blk.residual(cands)
            assert np.array_equal(res, ref.residual(cands))
            grown = blk.insert_batch(res.copy())
            assert grown == row_by_row_insert(ref, res.copy()), (r, p)
            most = max(most, len(grown))
            assert blk.rank == ref.rank
            # the schoolbook rank oracle is too slow past a few dozen columns
            if r <= 13:
                assert blk.rank == dense_rank_modp(
                    np.vstack([ref.rows[: ref.rank], cands]).tolist(), r, p
                )
            assert np.array_equal(blk.pivots, ref.pivots)
            assert np.array_equal(blk.is_free, ref.is_free)
            assert np.array_equal(blk.rows, ref.rows)
        # the random batches fill the block, and a full block grows nothing
        assert blk.rank == r and grown == []
    assert (most > REDUCE_EVERY) == (r > 2 * REDUCE_EVERY)


def test_insert_batch_holds_the_int64_bound_on_worst_case_rows():
    # rows whose elimination subtracts the most, (p - 1)^2, from every later
    # entry at every pivot: with V_t = e_t + (p - 1) * (e_t+1 + ... + e_c-1),
    # row t is V_t + (p - 1) * (V_0 + ... + V_t-1), so each pivot column of
    # every later row holds p - 1.  The entries would wrap past 128 updates
    # without a reduction, 129 * (p - 1)^2 > 2^63 for this p; the batch has
    # 136 pivots in a row and leaves 4 free columns
    p = _largest_prime_below(PRIME_HI)
    n, c = 136, 140
    assert REDUCE_EVERY * (p - 1) ** 2 + p < 2**63 < 129 * (p - 1) ** 2
    upper = np.triu(np.full((n, c), p - 1, dtype=np.int64), 1) + np.eye(n, c, dtype=np.int64)
    below = np.tril(np.full((n, n), p - 1, dtype=np.int64), -1) + np.eye(n, dtype=np.int64)
    rows = modmul(below, upper, p)
    blk, ref = Block(c, p), Block(c, p)
    res = blk.residual(rows)
    assert blk.insert_batch(res.copy()) == row_by_row_insert(ref, res.copy()) == list(range(n))
    assert np.array_equal(blk.pivots[:n], np.arange(n))
    # the rows are nonzero on the free columns, where a wrapped entry would show
    assert blk.rows[:n, n:].any()
    assert np.array_equal(blk.rows, ref.rows)


def _largest_prime_below(hi):
    q = hi - 1
    while not is_prime(q):
        q -= 2
    return q


def test_chain_products_match_per_orbit_loop(stages, q8_path, c3_path, tmp_path):
    schemes = [
        (stages.scheme(4), stages.orbindex(4), stages.oracle(4)),
        (stages.scheme(5), stages.orbindex(5), stages.oracle(5)),
    ]
    for path in (q8_path, c3_path, dihedral_table(tmp_path / "d5.txt", 5)):
        s = tw.build_scheme(load_cayley_table(path))
        schemes.append((s, OrbitalIndex(s), BlockOracle(s)))
    rng = np.random.default_rng(7)
    primes = (sample_primes(31, 1)[0], _largest_prime_below(PRIME_HI))
    assert primes[1] < PRIME_HI
    for s, oi, oracle in schemes:
        nc = oi.n_classes
        for p in primes:
            for i, nu, m in itertools.product(range(nc), repeat=3):
                right = generator_rows(oi, (nu, m))
                for left in (rng.integers(0, p, (3, oi.r[(i, nu)])), generator_rows(oi, (i, nu))):
                    got = chain_products(oi, (i, m), nu, left, p)
                    want = per_orbit_products(oi, oracle, (i, m), nu, left, right, p)
                    assert got.shape == want.shape
                    assert np.array_equal(got, want), (s.group.name, i, nu, m, p)
                    # one named generator per left row
                    cols = rng.integers(0, len(right), len(left))
                    got = chain_products(oi, (i, m), nu, left, p, cols)
                    assert np.array_equal(got[:, 0], want[np.arange(len(left)), cols])
            # the stacked table: a block diagonal of two random rows per
            # class nu times every relation, each class's products at the
            # relations of its block (nu, m) and zero elsewhere
            for i, m in itertools.product(range(nc), repeat=2):
                starts = oi.row_starts[i]
                left = np.zeros((2 * nc, starts[-1]), dtype=np.int64)
                want = np.zeros((2 * nc, nc, oi.r[(i, m)]), dtype=np.int64)
                for nu in range(nc):
                    rows = rng.integers(0, p, (2, oi.r[(i, nu)]))
                    left[2 * nu : 2 * nu + 2, starts[nu] : starts[nu + 1]] = rows
                    want[2 * nu : 2 * nu + 2, oi.block_relations[(nu, m)]] = per_orbit_products(
                        oi, oracle, (i, m), nu, rows, generator_rows(oi, (nu, m)), p
                    )
                got = chain_products(oi, (i, m), None, left, p)
                assert np.array_equal(got, want), (s.group.name, i, m, p)
                cols = rng.integers(0, nc, len(left))
                got = chain_products(oi, (i, m), None, left, p, cols)
                assert np.array_equal(got[:, 0], want[np.arange(len(left)), cols])


def test_group_past_the_float64_premise_is_refused(monkeypatch, capsys, stages):
    # chain_products is one float64 product, exact while |G| * (PRIME_HI - 1)
    # < 2^53: the orbit index refuses a group past that premise, the report
    # exits 2, and nothing falls back to another product; S8 is well inside
    assert 40320 * (PRIME_HI - 1) < FLOAT64_EXACT
    s = stages.scheme(4)
    with monkeypatch.context() as m:
        m.setattr(orbitals_mod, "FLOAT64_EXACT", s.group.order * (PRIME_HI - 1))
        with pytest.raises(ValueError, match="group order 24 is too large"):
            OrbitalIndex(s)
        assert main(["report", "--group", "sym:4", "--quiet"]) == 2
        assert "too large for exact float64 products" in capsys.readouterr().err
        # the least bound S4 meets
        m.setattr(orbitals_mod, "FLOAT64_EXACT", s.group.order * (PRIME_HI - 1) + 1)
        assert OrbitalIndex(s).total == stages.orbindex(4).total
    oi = stages.orbindex(4)
    # chain_products takes no int64 path: it runs with modmul unavailable

    def no_modmul(*args):
        raise AssertionError("chain_products called modmul")

    monkeypatch.setattr(switching_mod, "modmul", no_modmul)
    monkeypatch.setattr(fieldla_mod, "modmul", no_modmul)
    p = sample_primes(5, 1)[0]
    left = np.ones((2, oi.r[(1, 2)]), dtype=np.int64)
    got = chain_products(oi, (1, 3), 2, left, p)
    assert got.shape == (2, len(oi.block_relations[(2, 3)]), oi.r[(1, 3)])


@pytest.mark.parametrize("group", GROUPS)
def test_generator_tables_sum_to_class_sizes(stages, group):
    # the premise of exact float64 products (chain_products): for a target
    # orbit t, each z of class nu falls in exactly one bin (a, j) of a table,
    # so class nu's rows sum to |C_nu| over every orbit and relation; checked
    # on every table a closure counts, one class's tables and stacked ones
    s, oi = _scheme_and_index(stages, group)
    if group.startswith("sym:"):
        stages.closure(int(group[4:]))
    else:
        run_to_stationary(s, oi, seed=0)
    sizes = np.asarray(s.classes.sizes)
    assert oi._tables, group
    for (target, nu), table in oi._tables.items():
        per_orbit = table.sum(axis=1, dtype=np.int64)
        if nu is None:
            got, want = np.add.reduceat(per_orbit, oi.row_starts[target[0]][:-1]), sizes
        else:
            got, want = per_orbit.sum(axis=0, keepdims=True), sizes[[nu]]
        assert np.array_equal(got, np.broadcast_to(want[:, None], got.shape)), (target, nu)


def test_generator_products_reduce_counts_below_small_prime(stages):
    # S5 generator tables hold counts up to 12, above the prime 7
    oi = stages.orbindex(5)
    oracle = stages.oracle(5)
    assert max(int(oi.generator_table((i, m), nu).max()) for i, nu, m in
               itertools.product(range(oi.n_classes), repeat=3)) > 7
    for i, nu, m in itertools.product(range(oi.n_classes), repeat=3):
        left = generator_rows(oi, (i, nu))
        got = chain_products(oi, (i, m), nu, left, 7)
        want = per_orbit_products(oi, oracle, (i, m), nu, left, generator_rows(oi, (nu, m)), 7)
        assert np.array_equal(got, want), (i, nu, m)


def test_closure_builds_each_generator_table_once(monkeypatch, stages):
    # one class's tables and stacked tables alike: S5 counts one class's
    # tables alone, AGL(1,23) both kinds
    events = []
    count = OrbitalIndex._count_table
    generate_t0 = SwitchingClosure.generate_t0

    def counting(self, target, nu):
        events.append(("build", (target, nu)))
        return count(self, target, nu)

    def announce(self):
        events.append(("t0", self.field.p))
        return generate_t0(self)

    monkeypatch.setattr(OrbitalIndex, "_count_table", counting)
    monkeypatch.setattr(SwitchingClosure, "generate_t0", announce)
    for group, target_builds in (("sym:5", 0), ("agl1_23", 210)):
        events.clear()
        s, _ = _scheme_and_index(stages, group)
        oi = OrbitalIndex(s)
        res = run_to_stationary(s, oi, seed=0)
        assert [e[0] for e in events].count("t0") == 2
        second = events.index(("t0", res.primes[1]))
        builds = [key for kind, key in events if kind == "build"]
        assert builds and len(builds) == len(set(builds))
        targets = sum(nu is None for _, nu in builds)
        assert targets == len(stacked_tables(oi)) == target_builds, group
        # no key is built twice over the levels, and the second prime builds none
        assert all(kind == "t0" for kind, _ in events[second:])
    res = run_to_stationary(stages.scheme(5), OrbitalIndex(stages.scheme(5)), seed=0)
    assert res.final_table.dims == stages.closure(5).final_table.dims
    assert (res.dim_t0, res.dim_t, res.width) == (
        golden.DIMS[5]["t0"], golden.DIMS[5]["t"], golden.DIMS[5]["width"]
    )


class _FullProductClosure(SwitchingClosure):
    """The closure step without the residual chain: every frontier row times
    every generator is multiplied in full, and the residuals of the whole batch
    go to insert_batch.  Like the closure, it closes the blocks (i, m) with
    i <= m alone, a lower left factor derived from its upper block, and visits
    the middle classes in the closure's order."""

    def extend_level(self, progress=None):
        growth, ranges = {}, {}
        for key, blk in self.blocks.items():
            i, m = key
            before = blk.rank
            for nu in self.middle_order(key):
                left, words = self.frontier[(i, nu)]
                if blk.rank == blk.r:
                    continue
                js = self.orbindex.block_relations[(nu, m)].tolist()
                cands = chain_products(self.orbindex, key, nu, left, self.field.p)
                cands = cands.reshape(-1, blk.r)
                start = blk.rank
                grown = blk.insert_batch(blk.residual(cands))
                blk.raw[start : blk.rank] = cands[grown]
                for idx in grown:
                    blk.words.append(words[idx // len(js)] + ((nu, js[idx % len(js)], m),))
            growth[key] = growth[(m, i)] = blk.rank - before
            ranges[key] = range(before, blk.rank)
        self._advance(ranges)
        return growth


class _ClassOrderClosure(SwitchingClosure):
    """The closure visiting the middle classes that offer candidates in class order."""

    def middle_order(self, key):
        return [nu for nu in self.middle[key].tolist() if self.frontier_rows[key[0], nu]]


@pytest.mark.parametrize("group", GROUPS)
def test_richest_first_keeps_the_level_histories(stages, group):
    # every visiting order spans the same level; richest first fills blocks
    # sooner, so it counts no more tables, one class's and stacked ones
    # together, than class order: 28 against 50 at S5, 508 against 718 at
    # AGL(1,23)
    s, _ = _scheme_and_index(stages, group)
    p = sample_primes(3, 1, avoid=2 * s.group.order)[0]
    histories, tables = [], []
    for cls in (SwitchingClosure, _ClassOrderClosure):
        oi = OrbitalIndex(s)
        closure = cls(oi, FieldCtx(p))
        closure.close()
        histories.append([t.dims for t in closure.history])
        tables.append(len(oi._tables))
    assert histories[0] == histories[1], group
    assert tables[0] <= tables[1], group


def test_s7_closure_counts_few_generator_tables(stages):
    # richest first: 277 generator tables at S7 (seed 1), 575 in class order;
    # its 27 small targets are full after level 0, so no stacked table
    s = stages.scheme(7)
    oi = OrbitalIndex(s)
    res = run_to_stationary(s, oi, seed=1)
    dims = golden.DIMS[7]
    assert res.dims_per_level == [dims["t0"], dims["t1"], dims["t"], dims["t"]]
    assert len(oi._tables) <= 300
    assert not stacked_tables(oi)


def closure_state(closure):
    """What a closure accepted: its history, and per block rank, words and raw rows."""
    blocks = {
        key: (blk.rank, blk.words, blk.raw[: blk.rank].tolist())
        for key, blk in closure.blocks.items()
    }
    return [t.dims for t in closure.history], blocks


def counted_tables(oi):
    """Every generator table `oi` counted: key, dtype and counts."""
    return {key: (str(t.dtype), t.tobytes()) for key, t in oi._tables.items()}


def stacked_tables(oi):
    """The targets whose stacked table `oi` has counted."""
    return [target for target, nu in oi._tables if nu is None]


def every_target_table(oi):
    """Count the stacked table of every upper block."""
    for key in itertools.combinations_with_replacement(range(oi.n_classes), 2):
        oi.generator_table(key)


#: TARGET_TABLE_MAX past every stacked table of GROUPS
EVERY_TARGET = 1 << 62


@pytest.mark.parametrize("group", GROUPS)
def test_target_visits_accept_what_class_visits_do(monkeypatch, stages, group):
    # a visit of several classes through a stacked table accepts the ranks,
    # words and raw rows that visiting the classes one by one does, block by
    # block under both primes: with no target small, with every target
    # small, and with every stacked table counted first, so that every visit
    # of several classes is one through a stacked table
    s, _ = _scheme_and_index(stages, group)
    states = []
    for most, counted in ((0, False), (EVERY_TARGET, False), (EVERY_TARGET, True)):
        monkeypatch.setattr(switching_mod, "TARGET_TABLE_MAX", most)
        oi = OrbitalIndex(s)
        if counted:
            every_target_table(oi)
        res = run_to_stationary(s, oi, seed=0)
        if not most:
            assert not stacked_tables(oi)
        states.append([closure_state(closure) for closure in res.closures])
    assert states[0] == states[1] == states[2], group


class _ReverseBlockClosure(SwitchingClosure):
    """The closure stepping through its blocks in reverse key order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.blocks = dict(reversed(self.blocks.items()))


@pytest.mark.parametrize("group", ["sym:5", "sym:6", "sym:7", "psl2_11", "psl2_13", "agl1_23"])
def test_block_order_keeps_what_a_closure_accepts(monkeypatch, stages, group):
    # within a step a block reads only the previous level's frontier, its row
    # stacks and the table memo, and writes only its own Block, so the order
    # of the blocks changes nothing the closure accepts or counts
    s, _ = _scheme_and_index(stages, group)
    states = []
    for cls in (SwitchingClosure, _ReverseBlockClosure):
        monkeypatch.setattr(switching_mod, "SwitchingClosure", cls)
        oi = OrbitalIndex(s)
        res = run_to_stationary(s, oi, seed=0)
        assert all(type(closure) is cls for closure in res.closures)
        states.append(([closure_state(c) for c in res.closures], counted_tables(oi)))
    assert states[0] == states[1], group


@pytest.mark.parametrize("n", [4, 5, 6])
def test_kernel_test_keeps_accepted_words(stages, n):
    # same words and raw rows, block by block, as multiplying every candidate
    s, oi = stages.scheme(n), stages.orbindex(n)
    for p in sample_primes(31, 2, avoid=2 * s.group.order):
        closures = [cls(oi, FieldCtx(p)) for cls in (SwitchingClosure, _FullProductClosure)]
        for closure in closures:
            closure.generate_t0()
            while any(closure.extend_level().values()):
                pass
        fast, full = closures
        assert fast.level == full.level
        assert [t.dims for t in fast.history] == [t.dims for t in full.history]
        for key in itertools.product(range(oi.n_classes), repeat=2):
            (raw, words), (ref_raw, ref_words) = fast.block_rows(key), full.block_rows(key)
            assert words == ref_words, (p, key)
            assert (raw == ref_raw).all(), (p, key)
