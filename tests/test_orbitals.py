import itertools
from fractions import Fraction

import numpy as np
import pytest

import golden
import terwilliger as tw
from conftest import bench_table_group, dihedral_table
from oracle import is_symmetric, relation_of
from orbit_oracle import BlockOracle, build_h1_action, element_orbit_count
from terwilliger.groups import ReconciliationError, load_cayley_table
from terwilliger.orbitals import OrbitalIndex, burnside_orbital_count


def test_orbital_table_s4_golden(stages):
    table = stages.orbindex(4).table()
    assert table.dims == golden.S4_TILDE_TABLE
    assert table.get("[3,1]", "[3,1]") == 4
    assert table.total() == 43


def test_orbital_table_s6_golden(stages):
    table = stages.orbindex(6).table()
    assert table.dims == golden.S6_TILDE_TABLE
    assert table.get("[3,2,1]", "[3,2,1]") == 20
    assert table.get("[5,1]", "[5,1]") == 24
    assert table.total() == 761


def test_orbital_total_s7(stages):
    assert stages.orbindex(7).total == 4043


def test_orbital_table_symmetric(stages):
    for n in (4, 5, 6):
        assert is_symmetric(stages.orbindex(n).table())


def test_identity_row_and_column(stages):
    for n in (4, 5, 6):
        t = stages.orbindex(n).table()
        assert all(v == 1 for v in t.dims[0])
        assert all(row[0] == 1 for row in t.dims)


def test_burnside_matches_orbit_count(stages, q8_path, trivial_path):
    for n in (3, 4, 5, 6):
        assert burnside_orbital_count(stages.scheme(n)) == stages.orbindex(n).total
    s_q8 = tw.build_scheme(load_cayley_table(q8_path))
    assert burnside_orbital_count(s_q8) == OrbitalIndex(s_q8).total
    s_triv = tw.build_scheme(load_cayley_table(trivial_path))
    assert burnside_orbital_count(s_triv) == 1 == OrbitalIndex(s_triv).total


def test_burnside_s3_and_s6(stages):
    assert burnside_orbital_count(stages.scheme(3)) == 11
    assert burnside_orbital_count(stages.scheme(6)) == 761


def test_orbitals_refine_relations_and_tensor(stages):
    for n in (3, 4, 5):
        stages.orbindex(n).validate_against_tensor(stages.tensor(n))


def test_abelian_orbitals(c3_path):
    # without inversion the stabilizer is trivial: every pair is an orbit
    s = tw.build_scheme(load_cayley_table(c3_path))
    oi = OrbitalIndex(s)
    assert oi.total == 9
    assert burnside_orbital_count(s) == 9


def test_single_copy_orbits_are_classes(stages):
    for n in (3, 4, 5):
        s = stages.scheme(n)
        assert element_orbit_count(s) == s.classes.n_classes


def test_action_generators_fix_identity(stages):
    action = build_h1_action(stages.scheme(5))
    for arr in action.all_gens():
        assert arr[0] == 0
        assert sorted(arr.tolist()) == list(range(120))


def test_block_label_shapes(stages):
    oi = stages.orbindex(4)
    oracle = stages.oracle(4)
    cls = stages.scheme(4).classes
    for i in range(cls.n_classes):
        for k in range(cls.n_classes):
            assert oi.block_labels[(i, k)].shape == (cls.sizes[k],)
            lab = oracle.labels(i, k)
            assert lab.shape == (cls.sizes[i], cls.sizes[k])
            r = oi.r[(i, k)]
            assert lab.min() == 0 and lab.max() == r - 1
            assert oi.block_counts[(i, k)].sum() == cls.sizes[i] * cls.sizes[k]


def test_block_reps_consistent(stages):
    oi = stages.orbindex(5)
    oracle = stages.oracle(5)
    for (i, k), py in oi.block_reps.items():
        # orbit t is represented by (x_i, y) with x_i at position 0 of C_i
        lab = oracle.labels(i, k)
        for t in range(oi.r[(i, k)]):
            assert lab[0, py[t]] == t


def test_orbit_invariance_under_action(stages):
    # applying any generator to both coordinates preserves the orbit label,
    # in the reference blocks and as read from the index's anchored rows
    s = stages.scheme(4)
    oi = stages.orbindex(4)
    oracle = stages.oracle(4)
    action = build_h1_action(s)
    g, cls = s.group, s.classes
    pos = cls.pos_in_class

    def index_label(x, y):
        t = cls.transversal[x]  # t^-1 x t is the representative
        row = oi.block_labels[(cls.class_of[x], cls.class_of[y])]
        return row[pos[g.mul(g.mul(g.inv(t), y), t)]]

    rng = np.random.default_rng(0)
    for _ in range(200):
        x = int(rng.integers(s.group.order))
        y = int(rng.integers(s.group.order))
        i, k = cls.class_of[x], cls.class_of[y]
        t = oracle.labels(i, k)[pos[x], pos[y]]
        assert index_label(x, y) == t
        for p in action.all_gens():
            x2, y2 = int(p[x]), int(p[y])
            assert cls.class_of[x2] == i and cls.class_of[y2] == k
            assert oracle.labels(i, k)[pos[x2], pos[y2]] == t
            assert index_label(x2, y2) == t


def test_anchored_index_matches_block_oracle(stages, q8_path, c3_path, tmp_path):
    schemes = [stages.scheme(n) for n in (3, 4, 5, 6)]
    for path in (q8_path, c3_path, dihedral_table(tmp_path / "d5.txt", 5)):
        schemes.append(tw.build_scheme(load_cayley_table(path)))
    schemes.append(tw.build_scheme(bench_table_group("psl2_11", 0)))
    for s in schemes:
        oi = OrbitalIndex(s)
        oracle = BlockOracle(s)
        ei = s.classes.elements
        for (i, k), row in oi.block_labels.items():
            want = oracle.block(i, k)
            where = (s.group.name, i, k)
            assert oi.r[(i, k)] == len(want.counts), where
            # the oracle's least pair of each orbit is anchored at x_i too
            assert not want.reps[0].any(), where
            assert np.array_equal(oi.block_reps[(i, k)], want.reps[1]), where
            assert np.array_equal(oi.block_counts[(i, k)], want.counts), where
            assert np.array_equal(row, want.labels[0]), where
            rel = relation_of(s, ei[i][want.reps[0]], ei[k][want.reps[1]])
            assert np.array_equal(oi.block_rel[(i, k)], rel), where
        for c in range(oi.n_classes):
            # the diagonal of C_c x C_c is orbit 0, the one block_trace reads
            assert not np.diagonal(oracle.labels(c, c)).any(), (s.group.name, c)


def _counted_generator_table(s, oracle, i, nu, m):
    """K[a, c, t] from oracle orbits and the relations of (z, y_t), z over C_nu."""
    ei = s.classes.elements
    js = sorted({int(j) for j in relation_of(s, ei[nu][0], ei[m])})
    py = oracle.block(i, m).reps[1]
    a = oracle.labels(i, nu)[0]
    out = np.zeros((a.max() + 1, len(js), len(py)), dtype=np.int64)
    for t, y in enumerate(ei[m][py]):
        c = [js.index(j) for j in relation_of(s, ei[nu], y).tolist()]
        np.add.at(out, (a, c, t), 1)
    return out


def test_generator_tables_match_counted_pairs(stages, q8_path, c3_path, tmp_path):
    schemes = [(stages.scheme(n), stages.oracle(n)) for n in (3, 4, 5, 6)]
    tables = [load_cayley_table(q8_path), load_cayley_table(c3_path)]
    tables.append(load_cayley_table(dihedral_table(tmp_path / "d5.txt", 5)))
    tables.append(bench_table_group("psl2_11", 0))
    schemes += [(s, BlockOracle(s)) for s in map(tw.build_scheme, tables)]
    for s, oracle in schemes:
        oi = OrbitalIndex(s)
        nc = oi.n_classes
        for i, nu, m in itertools.product(range(nc), repeat=3):
            want = _counted_generator_table(s, oracle, i, nu, m)
            got = oi.generator_table((i, m), nu)
            assert np.array_equal(got, want), (s.group.name, i, nu, m)
            assert got.dtype == np.min_scalar_type(want.max())
        # the stacked table is every class's generator table stacked on its
        # rows, its relation axis padded with zeros to every relation
        for i, m in itertools.product(range(nc), repeat=2):
            table = oi.generator_table((i, m))
            assert table.shape == (oi.row_starts[i, -1], nc, oi.r[(i, m)])
            # the count a closure's small targets are chosen by
            assert oi.row_starts[i, -1] * nc * oi.r[(i, m)] == table.size
            assert table.dtype == np.min_scalar_type(table.max())
            for nu in range(nc):
                rows = table[oi.row_starts[i, nu] : oi.row_starts[i, nu + 1]]
                js = oi.block_relations[(nu, m)]
                want = _counted_generator_table(s, oracle, i, nu, m)
                assert np.array_equal(rows[:, js], want), (s.group.name, i, nu, m)
                assert not np.delete(rows, js, axis=1).any(), (s.group.name, i, nu, m)


def test_s8_orbit_index():
    s = tw.build_scheme(tw.build_group("sym:8"))
    oi = OrbitalIndex(s)
    assert oi.total == burnside_orbital_count(s) == 27190
    oi.validate_against_tensor(tw.intersection_numbers(s))


def test_diag_pair_counts(stages):
    oi = stages.orbindex(4)
    oracle = stages.oracle(4)
    cls = stages.scheme(4).classes
    for c in range(cls.n_classes):
        # orbit 0 of a diagonal block holds exactly its |C_c| diagonal pairs
        assert oi.block_counts[(c, c)][0] == cls.sizes[c]
        assert np.count_nonzero(oracle.labels(c, c) == 0) == cls.sizes[c]
        diag = np.diagonal(oracle.labels(c, c))
        for e in stages.cpis(4).values():
            want = Fraction(int(sum(e.block_values[c][t] for t in diag)), e.denominator)
            assert e.block_trace(oi, c) == want


def test_transposition_matches_block_oracle(stages, q8_path, c3_path, tmp_path):
    # sigma_(i,k)[t] is the orbit of the transposed representative (y_t, x_i)
    schemes = [(stages.scheme(n), stages.oracle(n)) for n in (3, 4, 5)]
    tables = [load_cayley_table(q8_path), load_cayley_table(c3_path)]
    tables.append(load_cayley_table(dihedral_table(tmp_path / "d5.txt", 5)))
    # PSL(2,11) has classes that are not inversion-closed: j -> j' matters
    tables.append(bench_table_group("psl2_11", 0))
    schemes += [(s, BlockOracle(s)) for s in map(tw.build_scheme, tables)]
    for s, oracle in schemes:
        oi = OrbitalIndex(s)
        inverse = np.asarray(s.classes.inverse_class)
        for i in range(oi.n_classes):
            for k in range(i, oi.n_classes):
                sigma = oi.transposition(i, k)
                want = oracle.labels(k, i)[oi.block_reps[(i, k)], 0]
                assert np.array_equal(sigma, want), (s.group.name, i, k)
                assert np.array_equal(oi.block_rel[(k, i)][sigma], inverse[oi.block_rel[(i, k)]])
                assert oi.transposition(i, k) is sigma
        with pytest.raises(ValueError):
            oi.transposition(1, 0)


@pytest.mark.parametrize("corrupt", ["duplicate", "swap"])
def test_transposition_check_rejects_a_corrupted_entry(monkeypatch, stages, corrupt):
    count = OrbitalIndex._count_transposition

    def corrupted(self, i, k):
        sigma = count(self, i, k).copy()
        rel = self.block_rel[(k, i)][sigma]
        # one entry moved onto another orbit: no bijection, or (swapped with
        # an orbit of another relation) a bijection that breaks relations
        other = int(np.flatnonzero(rel != rel[0])[0])
        if corrupt == "duplicate":
            sigma[other] = sigma[0]
        else:
            sigma[[0, other]] = sigma[[other, 0]]
        return sigma

    monkeypatch.setattr(OrbitalIndex, "_count_transposition", corrupted)
    oi = OrbitalIndex(stages.scheme(4))
    with pytest.raises(ReconciliationError) as exc:
        oi.transposition(1, 2)
    assert exc.value.check == "transposition_preserves_relations"
