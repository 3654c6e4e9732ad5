import itertools
from fractions import Fraction

import numpy as np
import pytest

import golden
from conftest import completeness_defect, dense_rank_modp, idempotent_defect, per_orbit_products
from oracle import idempotent_sum, parse_signed_partition

import terwilliger as tw
from terwilliger import switching as switching_mod
from terwilliger import wedderburn as wed_mod
from terwilliger.chars import centralizer_wedderburn
from terwilliger.fieldla import modmul
from terwilliger.groups import ReconciliationError, load_cayley_table
from terwilliger.orbitals import OrbitalIndex
from terwilliger.partitions import SignedPartition, partitions_of
from terwilliger.switching import ClosureError, SwitchingClosure, run_to_stationary
from terwilliger.wedderburn import (
    CPIdem,
    CpiBuilder,
    _idempotent_atoms,
    algebra_times_idempotent_dim,
    cpi_membership,
    decompose_T,
    module_block_dims,
)


def test_builder_rejects_non_symmetric(q8_path):
    s = tw.build_scheme(load_cayley_table(q8_path))
    with pytest.raises(ValueError):
        CpiBuilder(OrbitalIndex(s))


def test_builder_rejects_classes_not_inversion_closed(c3_path):
    s = tw.build_scheme(load_cayley_table(c3_path))
    with pytest.raises(ValueError, match="inversion-closed"):
        CpiBuilder(OrbitalIndex(s))


def test_zero_idempotent_rejected(stages):
    builder = CpiBuilder(stages.orbindex(4))
    with pytest.raises(ValueError):
        builder.build(parse_signed_partition("[4]-"))


def _coset_sum_values(builder, sp):
    """Reference: every coset sum rescanned per character, one mul at a time."""
    g, cls, oi = builder.group, builder.classes, builder.orbindex
    chi = [builder.table.value(sp.base, mu) for mu in builder.table.col_labels]

    def coset_sum(x, y):
        c = cls.class_of[x]
        ty = cls.transversal[y]
        tx_inv = g.inv(cls.transversal[x])
        return sum(
            chi[cls.class_of[g.mul(g.mul(ty, w), tx_inv)]] for w in oi.centralizers[c]
        )

    values = {}
    for c in range(cls.n_classes):
        elems = cls.elements[c]
        values[c] = []
        # orbit t of C_c x C_c is represented by (x_c, y_t), x_c first in C_c
        for b in oi.block_reps[(c, c)]:
            x, y = elems[0], elems[int(b)]
            s = coset_sum(x, y) + sp.sign * coset_sum(g.inv(x), y)
            values[c].append(Fraction(chi[0] * s, 2 * g.order))
    return values


def test_cpi_values_match_coset_sum_loop(stages):
    for n in (4, 5, 6):
        builder = CpiBuilder(stages.orbindex(n))
        for base in partitions_of(n):
            for sign in (1, -1):
                sp = SignedPartition(base, sign)
                want = _coset_sum_values(builder, sp)
                if stages.mults(n).get(sp):
                    e = builder.build(sp)
                    got = {
                        c: [Fraction(int(v), e.denominator) for v in vec]
                        for c, vec in e.block_values.items()
                    }
                    assert got == want
                else:
                    with pytest.raises(ValueError):
                        builder.build(sp)
                    assert not any(any(v) for v in want.values())


def test_trace_multiplicities_match_inner_products(stages):
    for n in (3, 4, 5):
        for sp, e in stages.cpis(n).items():
            assert e.multiplicity == stages.mults(n).get(sp)


def test_idempotence_both_primes(stages):
    for n in (3, 4, 5):
        oi, oracle = stages.orbindex(n), stages.oracle(n)
        primes = stages.closure(n).primes
        for e in stages.cpis(n).values():
            for p in primes:
                assert idempotent_defect(e, None, oi, oracle, p) == 0


def test_pairwise_orthogonality_small(stages):
    for n in (3, 4):
        oi, oracle = stages.orbindex(n), stages.oracle(n)
        p = stages.closure(n).primes[0]
        cpis = list(stages.cpis(n).values())
        for a, b in itertools.combinations(cpis, 2):
            assert idempotent_defect(a, b, oi, oracle, p) == 0


def test_orthogonality_sampled_s6(stages):
    oi, oracle = stages.orbindex(6), stages.oracle(6)
    p = stages.closure(6).primes[0]
    cpis = list(stages.cpis(6).values())
    import random

    rng = random.Random(4)
    for _ in range(8):
        a, b = rng.sample(cpis, 2)
        assert idempotent_defect(a, b, oi, oracle, p) == 0


def test_completeness(stages):
    for n in (3, 4, 5, 6):
        oi = stages.orbindex(n)
        for p in stages.closure(n).primes:
            assert completeness_defect(stages.cpis(n), oi, p) == 0


def block_matrix_mod(e, oracle, c, p):
    """Materialize the |C_c| x |C_c| block of an idempotent as residues mod p."""
    return e.block_vector_mod(c, p)[oracle.labels(c, c)]


def test_rank_equals_trace_times_degree(stages):
    # ambient block rank check against the exact trace formula
    for n in (4, 5):
        oi = stages.orbindex(n)
        oracle = stages.oracle(n)
        p = stages.closure(n).primes[0]
        for e in stages.cpis(n).values():
            dims = module_block_dims(e, oi)
            for c, d in enumerate(dims):
                block = block_matrix_mod(e, oracle, c, p)
                assert dense_rank_modp(block.tolist(), block.shape[1], p) == d * e.degree


def test_s4_idempotent_rank_example(stages):
    e = stages.cpis(4)[parse_signed_partition("[2^2]+")]
    oi = stages.orbindex(4)
    total = sum(Fraction(e.block_trace(oi, c)) for c in range(5))
    assert total == 6  # multiplicity 3 times degree 2
    p = stages.closure(4).primes[0]
    blocks = [block_matrix_mod(e, stages.oracle(4), c, p) for c in range(5)]
    ranks = sum(dense_rank_modp(b.tolist(), b.shape[1], p) for b in blocks)
    assert ranks == 6


def test_s4_module_block_dims(stages):
    oi = stages.orbindex(4)
    cpis = stages.cpis(4)
    primary = cpis[parse_signed_partition("[4]+")]
    assert module_block_dims(primary, oi) == [1, 1, 1, 1, 1]
    e22 = cpis[parse_signed_partition("[2^2]+")]
    dims = module_block_dims(e22, oi)
    assert sorted(dims) == [0, 0, 1, 1, 1]


def test_s5_non_thin_module(stages):
    oi = stages.orbindex(5)
    e = stages.cpis(5)[parse_signed_partition("[3,1^2]-")]
    dims = module_block_dims(e, oi)
    assert sum(dims) == 5
    assert max(dims) >= 2


def test_thinness_s4_all_thin(stages):
    rep = stages.thin(4)
    assert all(e.thin for e in rep.entries)


def test_thinness_s5(stages):
    rep = stages.thin(5)
    not_thin = {e.label.label() for e in rep.entries if not e.thin}
    assert not_thin == golden.S5_NOT_THIN


def test_thinness_s6(stages):
    rep = stages.thin(6)
    thin = {e.label.label() for e in rep.entries if e.thin}
    assert thin == golden.S6_THIN
    dims_not_thin = sorted(e.dim for e in rep.entries if not e.thin)
    assert dims_not_thin == [6, 7, 8, 8, 9, 9, 15]


def test_membership_s4_all_members(stages):
    res = stages.closure(4)
    for e in stages.cpis(4).values():
        assert cpi_membership(e, res)


def test_membership_s6_non_members(stages):
    res = stages.closure(6)
    cpis = stages.cpis(6)
    non_members = {
        sp.label() for sp, e in cpis.items() if not cpi_membership(e, res)
    }
    assert non_members == golden.S6_NON_MEMBERS


def test_idempotent_atoms_are_the_merged_components(stages):
    # the sums in T are spanned by a partition of the labels: members are
    # singletons and the larger atoms the merged components, under both primes
    merged = {4: set(), 5: set(), 6: golden.S6_MERGED_PAIRS, 7: {golden.S7_MERGED_PAIR}}
    for n, want in merged.items():
        cent = centralizer_wedderburn(stages.mults(n))
        idems = [stages.cpis(n)[sp] for sp, _ in cent.components]
        for closure in stages.closure(n).closures:
            found = _idempotent_atoms(idems, closure)
            atoms = [frozenset(idems[k].label.label() for k in a) for a in found]
            assert {a for a in atoms if len(a) > 1} == want, (n, closure.field.p)
            assert len(atoms) == len(idems) - sum(len(a) - 1 for a in want), (n, closure.field.p)


def test_gap_member_pushed_out_of_t_fails(stages, monkeypatch):
    # S6 has delta = 3, so [6]+ (m = 11) must lie in T by the gap corollary
    atoms = wed_mod._idempotent_atoms

    def first_two_merged(idems, closure):
        found = atoms(idems, closure)
        assert found[:2] == [(0,), (1,)]
        return [(0, 1)] + found[2:]

    monkeypatch.setattr(wed_mod, "_idempotent_atoms", first_two_merged)
    cent = centralizer_wedderburn(stages.mults(6))
    assert cent.components[0][0].label() == "[6]+"
    with pytest.raises(ReconciliationError) as exc:
        decompose_T(stages.closure(6), cent, stages.cpis(6))
    assert exc.value.check == "dimension_gap_membership"
    assert "[6]+" in str(exc.value)


def test_wedderburn_s4(stages):
    rep = stages.wedderburn(4)
    assert [c.size for c in rep.components] == golden.S4_WEDDERBURN_SIZES
    assert rep.reconciled
    assert not rep.non_members


def test_wedderburn_s5(stages):
    rep = stages.wedderburn(5)
    assert [c.size for c in rep.components] == golden.S5_WEDDERBURN_SIZES
    assert rep.reconciled


def test_wedderburn_s6(stages):
    rep = stages.wedderburn(6)
    assert sorted(c.size for c in rep.components) == golden.S6_WEDDERBURN_MULTISET
    assert rep.total_dim == 758 == rep.dim_t
    pairs = {
        frozenset(c.label_strings()) for c in rep.components if len(c.labels) > 1
    }
    assert pairs == golden.S6_MERGED_PAIRS
    assert all(c.size == 1 for c in rep.components if len(c.labels) > 1)


def test_algebra_times_idempotent_full_blocks(stages):
    res = stages.closure(4)
    cpis = stages.cpis(4)
    for sp, e in cpis.items():
        d = algebra_times_idempotent_dim([e], res)
        assert d == e.multiplicity**2


def test_closure_seeded_with_the_identity_is_t(stages):
    # the sum of all idempotents is the identity of the centralizer algebra:
    # its seed is E_c* on every class, and its closure is T itself
    for n in (4, 5, 6, 7):
        res, oi = stages.closure(n), stages.orbindex(n)
        every = list(stages.cpis(n).values())
        one = idempotent_sum(*every)
        for p in res.primes:
            for c in range(oi.n_classes):
                seed = np.eye(1, oi.r[(c, c)], dtype=np.int64)[0]
                assert np.array_equal(one.block_vector_mod(c, p), seed), (n, p, c)
        assert algebra_times_idempotent_dim(every, res) == res.dim_t, n


def test_idempotent_closure_stays_in_its_support(stages, monkeypatch):
    # e*T = e*T*e: the closure seeded with e keeps the blocks (i, k), i <= k,
    # with e_i, e_k != 0, and no other
    made = []

    class Recorded(SwitchingClosure):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(wed_mod, "SwitchingClosure", Recorded)
    res, oi = stages.closure(6), stages.orbindex(6)
    nc = oi.n_classes
    cpis = list(stages.cpis(6).values())
    for atom in [[e] for e in cpis] + [[cpis[0], cpis[-1]]]:
        made.clear()
        d = algebra_times_idempotent_dim(atom, res)
        e = idempotent_sum(*atom)
        support = [c for c in range(nc) if e.block_values[c].any()]
        assert support and [c.field.p for c in made] == list(res.primes)
        for closure in made:
            assert closure.support == support, e.label
            assert set(closure.blocks) == {
                (i, k) for i, k in itertools.product(support, repeat=2) if i <= k
            }
            dims = closure.block_dims().dims
            for i, k in itertools.product(range(nc), repeat=2):
                if i not in support or k not in support:
                    assert dims[i][k] == 0
            assert closure.total_dim == d


def _seeded_dim(e, closure, t_closure=None):
    """Total of the closure seeded with e under closure's prime, restricted by t_closure or not."""
    p = closure.field.p
    seed = {c: v for c in e.block_values if (v := e.block_vector_mod(c, p)).any()}
    times_e = SwitchingClosure(closure.orbindex, closure.field, seed, t_closure)
    times_e.generate_t0()
    while any(times_e.extend_level().values()):
        pass
    return times_e.total_dim


def test_middle_classes_of_t_span_t_times_e(stages):
    # stepping block (i, m) only through the classes that end an accepted
    # word of T's block (i, m) spans e*T as stepping through every class of
    # the support does: every CPI on S4-S7 and every sum of two on S4-S6,
    # under each prime
    for n in (4, 5, 6, 7):
        cpis = list(stages.cpis(n).values())
        pairs = itertools.combinations(cpis, 2) if n < 7 else ()
        idems = cpis + [idempotent_sum(a, b) for a, b in pairs]
        for closure in stages.closure(n).closures:
            for e in idems:
                want = _seeded_dim(e, closure)
                assert _seeded_dim(e, closure, closure) == want, (n, closure.field.p, e.label)


def test_decompose_t_counts_no_generator_table(stages):
    # the seeded closures step only where T's closure accepted a word, and a
    # small target by its stacked table only once T's closure counted it, so
    # they read only tables, one class's or stacked, that T's closure
    # counted; S4's T closure counts one stacked table
    for n in (4, 5, 6, 7):
        s = stages.scheme(n)
        oi = OrbitalIndex(s)
        res = run_to_stationary(s, oi, seed=0)
        counted = set(oi._tables)
        assert any(nu is None for _, nu in counted) == (n == 4), n
        decompose_T(res, centralizer_wedderburn(stages.mults(n)), stages.cpis(n))
        assert oi._tables.keys() == counted, n


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_decompose_t_keeps_its_dims_through_target_tables(monkeypatch, stages, n):
    # the seeded closures accept the same words whichever way their blocks
    # are visited: no target small, every target small, every target table
    # counted first, so that every visit of several classes is one through
    # a stacked table
    s, cent = stages.scheme(n), centralizer_wedderburn(stages.mults(n))
    reports = []
    for most, counted in ((0, False), (1 << 62, False), (1 << 62, True)):
        monkeypatch.setattr(switching_mod, "TARGET_TABLE_MAX", most)
        oi = OrbitalIndex(s)
        if counted:
            for key in itertools.combinations_with_replacement(range(oi.n_classes), 2):
                oi.generator_table(key)
        reports.append(decompose_T(run_to_stationary(s, oi, seed=0), cent, stages.cpis(n)))
    assert reports[0] == reports[1] == reports[2], n
    assert reports[0] == stages.wedderburn(n), n


def test_t_closure_restricts_only_its_own_prime(stages):
    # T's accepted words span T mod their own prime, and only once stationary
    res, oi = stages.closure(5), stages.orbindex(5)
    e = next(iter(stages.cpis(5).values()))
    own, other = res.closures
    seed = {c: e.block_vector_mod(c, own.field.p) for c in e.block_values}
    with pytest.raises(ClosureError):
        SwitchingClosure(oi, own.field, seed, other)
    level0 = SwitchingClosure(oi, own.field)
    level0.generate_t0()
    with pytest.raises(ClosureError):
        SwitchingClosure(oi, own.field, seed, level0)


def _right_times_e_dims(idems, res, oracle):
    """Per idempotent e, per prime: the sum over every block (i, k), the derived
    lower blocks included, of rank(T_ik rows * e_k), T*e from the right."""
    dims = [[] for _ in idems]
    for closure in res.closures:
        p, oi = closure.field.p, closure.orbindex
        totals = [0] * len(idems)
        for i, k in itertools.product(range(oi.n_classes), repeat=2):
            raw, _ = closure.block_rows((i, k))
            # unit[a, b, t]: row a times the indicator of orbit b of (k, k)
            unit = per_orbit_products(
                oi, oracle, (i, k), k, raw, np.eye(oi.r[(k, k)], dtype=np.int64), p
            ).transpose(0, 2, 1)
            for idx, e in enumerate(idems):
                prods = modmul(unit, e.block_vector_mod(k, p), p)
                totals[idx] += dense_rank_modp(prods.tolist(), oi.r[(i, k)], p)
        for idx, total in enumerate(totals):
            dims[idx].append(total)
    return dims


def test_t_times_e_from_the_right_equals_replay(stages):
    # e is central in the centralizer algebra, so T*e (right, through the
    # reference contraction on every block) = e*T (the closure seeded with
    # e): every idempotent, member or not, and every sum of two
    for n in (4, 5, 6):
        res, oracle = stages.closure(n), stages.oracle(n)
        cpis = list(stages.cpis(n).values())
        atoms = [[e] for e in cpis] + [list(pair) for pair in itertools.combinations(cpis, 2)]
        replayed = [algebra_times_idempotent_dim(atom, res) for atom in atoms]
        idems = [idempotent_sum(*atom) for atom in atoms]
        right = _right_times_e_dims(idems, res, oracle)
        for e, d, got in zip(idems, replayed, right):
            assert got == [d, d], (n, e.label)
        # the provenance of T's closure: every upper word's prefix is a word
        # of its block (i, nu), derived by block_rows when nu < i
        for closure in res.closures:
            for (i, m), blk in closure.blocks.items():
                for w in blk.words:
                    nu, _, last = w[-1]
                    assert w[0][0] == i and last == m
                    if len(w) == 1:
                        assert nu == i
                    else:
                        assert w[:-1] in closure.block_rows((i, nu))[1], (n, w)


def _one_value_off(e, oi):
    """e with one value off at the first orbit that transposition moves."""
    c, moved = next(
        (c, moved)
        for c in range(oi.n_classes)
        if (moved := np.flatnonzero(oi.transposition(c, c) != np.arange(oi.r[(c, c)]))).size
    )
    values = {k: v.copy() for k, v in e.block_values.items()}
    values[c][moved[0]] += 1
    return CPIdem(e.label, e.degree, e.multiplicity, values, e.denominator)


def test_replay_rejects_an_asymmetric_idempotent(stages):
    # the seeded closure derives its lower blocks by transposition, so it
    # needs e symmetric: one value off at an orbit that transposition moves,
    # and the check names itself
    res, oi = stages.closure(6), stages.orbindex(6)
    e = next(e for e in stages.cpis(6).values() if cpi_membership(e, res))
    with pytest.raises(ReconciliationError) as exc:
        algebra_times_idempotent_dim([_one_value_off(e, oi)], res)
    assert exc.value.check == "cpi_symmetric"


def test_asymmetric_merged_atom_names_every_label(stages):
    # an atom is sized from its own idempotents, so a failed check on a
    # merged atom names each of its labels, not the first summand's alone
    res, oi, cpis = stages.closure(6), stages.orbindex(6), stages.cpis(6)
    a, b = (cpis[parse_signed_partition(t)] for t in ("[3^2]-", "[3,1^3]+"))
    with pytest.raises(ReconciliationError) as exc:
        algebra_times_idempotent_dim([_one_value_off(a, oi), b], res)
    assert exc.value.check == "cpi_symmetric"
    assert "[3^2]-" in str(exc.value) and "[3,1^3]+" in str(exc.value)


def test_merged_sum_is_idempotent(stages):
    oi = stages.orbindex(6)
    cpis = stages.cpis(6)
    p = stages.closure(6).primes[0]
    a = cpis[parse_signed_partition("[1^6]+")]
    b = cpis[parse_signed_partition("[2^2,1^2]+")]
    s = idempotent_sum(a, b)
    assert s.multiplicity == 2
    assert idempotent_defect(s, None, oi, stages.oracle(6), p) == 0


def test_pigeonhole_guard(stages):
    # a module wider than the class count cannot be thin
    for n in (5, 6):
        for entry in stages.thin(n).entries:
            if entry.dim > stages.scheme(n).n_classes:
                assert not entry.thin


def test_block_values_are_exact_fractions(stages):
    # int64 numerators over the common denominator 2|G|
    e = stages.cpis(3)[parse_signed_partition("[3]+")]
    assert e.denominator == 2 * stages.group(3).order
    for vec in e.block_values.values():
        assert isinstance(vec, np.ndarray) and vec.dtype == np.int64


def test_identity_vector_distributes(stages):
    # sum of all idempotent traces per class recovers the class size
    for n in (4, 5):
        oi = stages.orbindex(n)
        cls = stages.scheme(n).classes
        cpis = stages.cpis(n)
        for c in range(cls.n_classes):
            total = sum(e.block_trace(oi, c) for e in cpis.values())
            assert total == cls.sizes[c]
