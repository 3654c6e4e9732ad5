import copy
import random

import numpy as np

import terwilliger as tw
from conftest import bench_table_group
from oracle import relation_of
from terwilliger.groups import fixed_point_counts, load_cayley_table
from terwilliger.orbitals import burnside_orbital_count
from terwilliger.scheme import (
    build_scheme,
    conj_centralizer_dim,
    dim_T0,
    intersection_numbers,
    verify_axioms,
)


def test_relation_zero_is_diagonal(stages):
    s = stages.scheme(4)
    for x in range(s.group.order):
        assert relation_of(s, x, x) == 0


def test_relation_counts(stages):
    assert stages.scheme(3).n_classes == 3
    assert stages.scheme(7).n_classes == 15


def test_p000_is_one(stages, q8_path):
    for s in (stages.scheme(3), build_scheme(load_cayley_table(q8_path))):
        t = intersection_numbers(s)
        assert t.p[0, 0, 0] == 1


def test_nonzero_triples_s4(stages):
    assert dim_T0(stages.tensor(4)) == 42


def test_nonzero_triples_s7(stages):
    assert dim_T0(stages.tensor(7)) == 1232


def test_dim_t0_values(stages):
    assert dim_T0(stages.tensor(3)) == 11
    assert dim_T0(stages.tensor(5)) == 124
    assert dim_T0(stages.tensor(6)) == 447


def test_centralizer_dim(stages, trivial_path):
    assert conj_centralizer_dim(stages.scheme(3)) == 11
    assert conj_centralizer_dim(stages.scheme(4)) == 43
    assert conj_centralizer_dim(build_scheme(load_cayley_table(trivial_path))) == 1


def test_tensor_row_sums(stages):
    # each z in C_i hits exactly one j, so summing over j gives |C_i|
    t = stages.tensor(5)
    cls = stages.scheme(5).classes
    for k in range(t.n_classes):
        for i in range(t.n_classes):
            assert sum(t.p[i, j, k] for j in range(t.n_classes)) == cls.sizes[i]


def test_tensor_commutative(stages):
    for n in (4, 5, 6):
        t = stages.tensor(n)
        for i, j, k in np.argwhere(t.p):
            assert t.p[j, i, k] == t.p[i, j, k]


def test_converse_symmetry_sampled(stages):
    s = stages.scheme(5)
    cls = s.classes
    rng = random.Random(7)
    for _ in range(300):
        x, y = rng.randrange(s.group.order), rng.randrange(s.group.order)
        assert relation_of(s, y, x) == cls.inverse_class[relation_of(s, x, y)]


def all_pairs_axioms_ok(s) -> bool:
    """The O(|G|^3) all-pairs scan verify_axioms replaced, kept as its reference.

    Recomputes p_ij^k from (e, rep_k), then checks the diagonal, the
    converse of every ordered pair, and that every pair of relation k has
    the class-k intersection counts.
    """
    g, cls = s.group, s.classes
    nc = cls.n_classes
    p = {}
    for k, y in enumerate(cls.representatives):
        for i, members in enumerate(cls.elements):
            for z in members:
                key = (i, relation_of(s, z, y), k)
                p[key] = p.get(key, 0) + 1
    if any(p.get((0, j, k), 0) != (j == k) for j in range(nc) for k in range(nc)):
        return False
    if any(relation_of(s, x, x) != 0 for x in range(g.order)):
        return False
    for x in range(g.order):
        for y in range(g.order):
            k = relation_of(s, x, y)
            if relation_of(s, y, x) != cls.inverse_class[k]:
                return False
            counts = {}
            for i, members in enumerate(cls.elements):
                for c in members:
                    key = (i, relation_of(s, g.mul(x, c), y))
                    counts[key] = counts.get(key, 0) + 1
            if counts != {(i, j): v for (i, j, kk), v in p.items() if kk == k}:
                return False
    return True


def merged_classes(s, a, b):
    """A copy of s with class b merged into class a, consistently everywhere."""
    s = copy.deepcopy(s)
    cls = s.classes

    def relabel(c):
        return np.where(c == b, a, c - (c > b))

    cls.class_of = relabel(cls.class_of)
    cls.elements[a] = np.sort(np.concatenate([cls.elements[a], cls.elements.pop(b)]))
    cls.sizes[a] += cls.sizes.pop(b)
    del cls.representatives[b], cls.inverse_class[b]
    cls.inverse_class = relabel(np.array(cls.inverse_class)).tolist()
    cls.labels = None
    return s


def split_class(s, a, part):
    """A copy of s where the elements `part` of class a (rep excluded, all
    involutions) form a class of their own, with matching transversals."""
    s = copy.deepcopy(s)
    g, cls = s.group, s.classes
    new, rep = cls.n_classes, min(part)
    cls.elements[a] = cls.elements[a][~np.isin(cls.elements[a], part)]
    cls.elements.append(np.sort(part))
    cls.sizes[a] -= len(part)
    cls.sizes.append(len(part))
    cls.representatives.append(rep)
    cls.inverse_class.append(new)
    for x in part:
        cls.class_of[x] = new
        cls.transversal[x] = next(t for t in range(g.order) if g.conjugate(t, rep) == x)
    cls.labels = None
    return s


def test_verify_axioms_matches_all_pairs_scan(stages, q8_path, c3_path, trivial_path):
    schemes = [stages.scheme(3), stages.scheme(4)] + [
        build_scheme(load_cayley_table(path)) for path in (q8_path, c3_path, trivial_path)
    ]
    for s in schemes:
        rep = verify_axioms(s)
        assert rep.ok, rep.violations
        assert rep.checked_pairs == s.group.order**2
        assert all_pairs_axioms_ok(s)


def test_verify_axioms_s6_s7(stages):
    for n, order in ((6, 720), (7, 5040)):
        rep = verify_axioms(stages.scheme(n))
        assert rep.ok, rep.violations
        assert rep.checked_pairs == order**2


def test_verify_axioms_negative_control(stages):
    moved = copy.deepcopy(stages.scheme(3))
    moved.classes.class_of[1] = 2  # one element moved to another class
    wrong_inverse = copy.deepcopy(stages.scheme(4))
    wrong_inverse.classes.inverse_class[1] = 2
    # transpositions with double transpositions, and the latter with 3-cycles
    corrupted = [moved, merged_classes(stages.scheme(4), 1, 2)]
    corrupted += [merged_classes(stages.scheme(4), 2, 3), wrong_inverse]
    # two transpositions split off: only conjugation by the generators sees it
    transpositions = stages.scheme(4).classes.elements[1]
    corrupted.append(split_class(stages.scheme(4), 1, transpositions[1:3]))
    for s in corrupted:
        assert not verify_axioms(s).ok
        assert not all_pairs_axioms_ok(s)


def test_verify_axioms_rejects_bad_transversal(stages):
    # the all-pairs scan never reads transversals, so only the exact check
    # (whose transversal test also covers CpiBuilder's cosets) sees this
    s = copy.deepcopy(stages.scheme(4))
    x = s.classes.elements[1][1]  # a transposition other than the representative
    s.classes.transversal[x] = 0
    rep = verify_axioms(s)
    assert not rep.ok
    assert any("transversal" in v for v in rep.violations)
    assert all_pairs_axioms_ok(s)


def test_verify_axioms_rejects_fused_classes(stages):
    # transpositions + 4-cycles (all odd permutations) is a Schur-ring fusion:
    # a genuine association scheme, so the all-pairs scan accepts it, but not
    # the conjugacy-class scheme whose numbers the program reports
    s = merged_classes(stages.scheme(4), 1, 4)
    assert all_pairs_axioms_ok(s)
    rep = verify_axioms(s)
    assert not rep.ok
    assert any("transversal" in v for v in rep.violations)


def test_representative_independence(stages):
    s = stages.scheme(5)
    t = stages.tensor(5)
    g = s.group
    cls = s.classes
    rng = random.Random(3)
    for k in range(cls.n_classes):
        y0 = cls.representatives[k]
        for _ in range(5):
            x = rng.randrange(g.order)
            y = g.mul(x, y0)  # (x, y) lies in relation k
            assert relation_of(s, x, y) == k
            counts = {}
            for i, members in enumerate(cls.elements):
                for c in members:
                    z = g.mul(x, c)
                    j = relation_of(s, z, y)
                    counts[(i, j)] = counts.get((i, j), 0) + 1
            for (i, j), v in counts.items():
                assert t.p[i, j, k] == v


def _relation_counted_tensor(s, rng):
    """Reference: p_ij^k counted over every z at one pair (x, y) of relation k, x != e."""
    g, cls = s.group, s.classes
    nc = cls.n_classes
    every = np.arange(g.order)
    p = np.zeros((nc, nc, nc), dtype=np.int64)
    for k, rep in enumerate(cls.representatives):
        x = rng.randrange(1, g.order)
        y = g.mul(x, rep)
        assert relation_of(s, x, y) == k
        np.add.at(p[:, :, k], (relation_of(s, x, every), relation_of(s, every, y)), 1)
    return p


def test_tensor_matches_relation_counts(stages, q8_path, c3_path):
    schemes = [stages.scheme(n) for n in (3, 4, 5)]
    schemes += [build_scheme(load_cayley_table(path)) for path in (q8_path, c3_path)]
    schemes.append(build_scheme(bench_table_group("psl2_11", 0)))
    rng = random.Random(11)
    for s in schemes:
        want = _relation_counted_tensor(s, rng)
        assert np.array_equal(intersection_numbers(s).p, want), s.group.name


def test_sandwich_chain(stages):
    for n in (3, 4, 5, 6):
        lo = dim_T0(stages.tensor(n))
        hi = conj_centralizer_dim(stages.scheme(n))
        assert lo <= hi


def test_abelian_scheme_all_singletons(c3_path):
    s = build_scheme(load_cayley_table(c3_path))
    assert dim_T0(intersection_numbers(s)) == 9
    assert conj_centralizer_dim(s) == 9


def test_s8_front_end():
    # classes, tensor, fixed points and the orbit-counting lemma at S8; the
    # expected class data comes from partitions, not from this program
    s = build_scheme(tw.build_group("sym:8"))
    t = intersection_numbers(s)
    sizes = [tw.class_size(lam) for lam in tw.partitions_of(8)]
    assert s.classes.sizes == sizes
    assert len(sizes) == 22 and max(sizes) == 5760
    assert conj_centralizer_dim(s) == sum(40320 // size for size in sizes) == 43206
    plus, minus = fixed_point_counts(s.group, s.classes)
    assert plus == [40320 // size for size in sizes]
    assert minus is not None and all(m > 0 for m in minus)
    # dim T0 <= orbit count on pairs <= conjugation centralizer dimension
    assert dim_T0(t) <= burnside_orbital_count(s) <= conj_centralizer_dim(s)
