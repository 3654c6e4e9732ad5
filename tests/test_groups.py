import itertools
import random

import numpy as np
import pytest

from conftest import bench_table_group, dihedral_table

from terwilliger.groups import (
    CayleyTableError,
    ReconciliationError,
    SymmetricGroup,
    build_group,
    centralizer_elements,
    conjugacy_classes,
    cycle_type,
    fixed_point_counts,
    inversion_closed,
    load_cayley_table,
)
from terwilliger.partitions import Partition


def test_cycle_type_identity():
    assert cycle_type(tuple(range(7))).parts == (1,) * 7


def test_cycle_type_mixed():
    # (0 1 2)(3 4) on 5 points
    assert cycle_type((1, 2, 0, 4, 3)).parts == (3, 2)


def test_cycle_type_seven_cycle():
    assert cycle_type((1, 2, 3, 4, 5, 6, 0)).parts == (7,)


def test_symmetric_group_basics():
    g = build_group("sym:3")
    assert g.order == 6
    assert g.elements[0].tolist() == [0, 1, 2]
    for a in range(6):
        assert g.mul(a, g.inv(a)) == 0
        assert g.mul(0, a) == a == g.mul(a, 0)


def test_symmetric_group_order_s7():
    assert build_group("sym:7").order == 5040


def test_symmetric_group_too_large():
    with pytest.raises(ValueError):
        SymmetricGroup(9)


def test_bad_group_spec():
    with pytest.raises(ValueError):
        build_group("frob:12")


def _assert_ops_match(g, mul, inv, rng):
    """g's mul, inv and conjugate on ints, 1-D and (k,1)x(1,m) index arrays
    against the scalar references mul and inv."""

    def conj(h, x):
        return mul(mul(h, x), inv(h))

    a = np.array([rng.randrange(g.order) for _ in range(12)])
    b = np.array([rng.randrange(g.order) for _ in range(12)])
    pairs = list(zip(a.tolist(), b.tolist()))
    assert g.mul(int(a[0]), int(b[0])) == mul(*pairs[0])
    assert g.inv(int(a[0])) == inv(pairs[0][0])
    assert g.mul(a, b).tolist() == [mul(x, y) for x, y in pairs]
    assert g.inv(a).tolist() == [inv(x) for x in a.tolist()]
    assert g.conjugate(a, b).tolist() == [conj(h, x) for h, x in pairs]
    rows, cols = a[:5, None], b[None, :7]
    left, right = a[:5].tolist(), b[:7].tolist()
    assert g.mul(rows, cols).tolist() == [[mul(x, y) for y in right] for x in left]
    assert g.inv(rows).tolist() == [[inv(x)] for x in left]
    assert g.conjugate(rows, cols).tolist() == [[conj(h, x) for x in right] for h in left]


def test_mul_matches_composition(q8_path, c3_path, trivial_path):
    rng = random.Random(0)
    for n in range(1, 7):
        perms = list(itertools.permutations(range(n)))  # lexicographic order
        rank = {t: i for i, t in enumerate(perms)}

        def mul(x, y, perms=perms, rank=rank):
            return rank[tuple(perms[x][j] for j in perms[y])]

        def inv(x, perms=perms, rank=rank):
            return rank[tuple(sorted(range(len(perms[x])), key=perms[x].__getitem__))]

        _assert_ops_match(SymmetricGroup(n), mul, inv, rng)
    for path in (q8_path, c3_path, trivial_path):
        rows = [[int(v) for v in line.split()] for line in path.read_text().splitlines()[1:]]
        _assert_ops_match(
            load_cayley_table(path), lambda x, y: rows[x][y], lambda x: rows[x].index(0), rng
        )


def test_cayley_inverse_array(tmp_path, q8_path):
    # a Cayley group's inverses, read from one array built with the table:
    # x x^-1 = 1 and (x^-1)^-1 = x for every x, intp in the input's shape
    groups = [load_cayley_table(dihedral_table(tmp_path / "d5.txt", 5)), load_cayley_table(q8_path)]
    groups += [bench_table_group(name, 0) for name in ("psl2_11", "psl2_13", "agl1_23")]
    for g in groups:
        every = np.arange(g.order)
        inv = g.inv(every)
        assert inv.dtype == np.intp and inv.shape == every.shape, g.name
        assert (g.mul(every, inv) == 0).all() and (g.inv(inv) == every).all(), g.name
        grid = every.reshape(2, -1)
        assert np.array_equal(g.inv(grid), inv.reshape(2, -1)), g.name
        assert g.inv(int(every[-1])) == inv[-1], g.name


def test_mul_outer_matches_broadcast_mul(q8_path):
    # S_n's one-matmul grid against the broadcasting product, at every n the
    # rank table allows; the Cayley group keeps the base class's form
    rng = np.random.default_rng(3)
    groups = [SymmetricGroup(n) for n in range(1, 9)] + [load_cayley_table(q8_path)]
    for g in groups:
        a = rng.integers(0, g.order, size=40)
        b = rng.integers(0, g.order, size=25)
        for left, right in ((a, b), (a[:1], b), (a, b[:0]), (np.arange(g.order), a[:3])):
            got = g.mul_outer(left, right)
            assert got.dtype == np.intp
            assert got.shape == (len(left), len(right))
            assert (got == g.mul(left[:, None], right[None, :])).all(), g.name


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_conjugate_matches_product_form(n):
    # one gather and one rank for a single g; arrays of g broadcast as mul does
    g = SymmetricGroup(n)
    every = np.arange(g.order)
    rng = np.random.default_rng(n)
    for c in [0, 1, g.order - 1, *rng.integers(0, g.order, size=3).tolist()]:
        for x in (every, every.reshape(2, -1), int(rng.integers(g.order))):
            got = g.conjugate(c, x)
            want = g.mul(g.mul(c, x), g.inv(c))
            assert got.dtype == np.intp and np.shape(got) == np.shape(want), (n, c)
            assert np.array_equal(got, want), (n, c)
        assert np.array_equal(g.conjugate(np.intp(c), every), g.conjugate(c, every)), (n, c)
    cs = rng.integers(0, g.order, size=4)
    want = g.mul(g.mul(cs[:, None], every), g.inv(cs)[:, None])
    assert np.array_equal(g.conjugate(cs[:, None], every), want), n


def test_outer_lookup_matches_mul_outer(q8_path):
    # values read at every product of the grid, through each group's lookup
    # form, equal values[mul_outer]
    rng = np.random.default_rng(4)
    groups = [SymmetricGroup(n) for n in range(1, 9)] + [load_cayley_table(q8_path)]
    groups += [bench_table_group("agl1_23", 0)]
    for g in groups:
        values = rng.integers(0, 23, size=g.order).astype(np.uint8)
        table = g.lookup_table(values)
        a = rng.integers(0, g.order, size=30)
        b = rng.integers(0, g.order, size=20)
        for left, right in ((a, b), (a[:1], b), (a, b[:0])):
            got = g.outer_lookup(left, g.right_factors(right), table)
            assert got.shape == (len(left), len(right)), g.name
            assert np.array_equal(got, values[g.mul_outer(left, right)]), g.name


def test_s8_grid_products_match_composed_images():
    # S8's keys reach 8^7 - 1 (the reversal's images 7, 6, ..., 0), the
    # largest the float64 key product must hold exactly: every product of a
    # random grid, with the identity and the reversal on both sides, read
    # back as images is the composition a(b(i)), and mul_outer, outer_lookup
    # and elementwise mul agree on it
    g = SymmetricGroup(8)
    rng = np.random.default_rng(8)
    ends = [0, g.order - 1]
    a = np.concatenate([ends, rng.integers(0, g.order, size=300)])
    b = np.concatenate([ends, rng.integers(0, g.order, size=200)])
    assert g.elements[g.order - 1].tolist() == list(range(7, -1, -1))
    grid = g.mul_outer(a, b)
    composed = g.elements[a][np.arange(len(a))[:, None, None], g.elements[b][None, :, :]]
    assert np.array_equal(g.elements[grid], composed)
    assert np.array_equal(grid, g.mul(a[:, None], b[None, :]))
    values = rng.integers(0, 1 << 16, size=g.order).astype(np.uint16)
    got = g.outer_lookup(a, g.right_factors(b), g.lookup_table(values))
    assert np.array_equal(got, values[grid])


def test_conjugacy_classes_s4():
    g = SymmetricGroup(4)
    cls = conjugacy_classes(g)
    assert cls.sizes == [1, 6, 3, 8, 6]
    assert [lam.label() for lam in cls.labels] == [
        "[1^4]",
        "[2,1^2]",
        "[2^2]",
        "[3,1]",
        "[4]",
    ]


def test_conjugacy_classes_s7_count():
    g = SymmetricGroup(7)
    assert conjugacy_classes(g).n_classes == 15


def test_class_of_agrees_with_cycle_type_full_scan():
    for n in range(1, 8):
        g = SymmetricGroup(n)
        cls = conjugacy_classes(g)
        for x in range(g.order):
            assert cls.labels[cls.class_of[x]] == cycle_type(g.elements[x])


def test_conjugacy_matches_brute_force_small():
    g = SymmetricGroup(4)
    cls = conjugacy_classes(g)
    for x in range(g.order):
        orbit = {g.conjugate(h, x) for h in range(g.order)}
        assert orbit == set(cls.elements[cls.class_of[x]])


def test_transversal_property():
    for n in (3, 4, 5):
        g = SymmetricGroup(n)
        cls = conjugacy_classes(g)
        for x in range(g.order):
            rep = cls.representatives[cls.class_of[x]]
            t = cls.transversal[x]
            assert g.conjugate(t, rep) == x


def test_inverse_class_involution():
    for n in (3, 4, 5, 6):
        cls = conjugacy_classes(SymmetricGroup(n))
        for c in range(cls.n_classes):
            assert cls.inverse_class[cls.inverse_class[c]] == c


def test_inversion_closed_symmetric():
    for n in (3, 4, 5, 6, 7):
        assert inversion_closed(conjugacy_classes(SymmetricGroup(n)))


def test_inversion_closed_false_for_c3(c3_path):
    g = load_cayley_table(c3_path)
    cls = conjugacy_classes(g)
    assert cls.sizes == [1, 1, 1]
    assert not inversion_closed(cls)


def test_abelian_classes_are_singletons(c3_path):
    cls = conjugacy_classes(load_cayley_table(c3_path))
    assert all(s == 1 for s in cls.sizes)


def test_q8_classes(q8_path):
    g = load_cayley_table(q8_path)
    assert g.order == 8
    cls = conjugacy_classes(g)
    assert cls.n_classes == 5
    assert sorted(cls.sizes) == [1, 1, 2, 2, 2]
    # brute-force classification agrees
    for x in range(8):
        orbit = {g.conjugate(h, x) for h in range(8)}
        assert orbit == set(cls.elements[cls.class_of[x]])
    assert inversion_closed(cls)


def test_centralizer_elements():
    # the one-conjugation form against the definition wx = xw, on S4 and the
    # benchmark's three Cayley tables
    groups = [SymmetricGroup(4)] + [
        bench_table_group(name, 0) for name in ("psl2_11", "psl2_13", "agl1_23")
    ]
    for g in groups:
        cls = conjugacy_classes(g)
        every = np.arange(g.order)
        for c, rep in enumerate(cls.representatives):
            z = centralizer_elements(g, rep)
            assert len(z) == g.order // cls.sizes[c], (g.name, c)
            assert np.array_equal(z, np.flatnonzero(g.mul(every, rep) == g.mul(rep, every)))


def test_cayley_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("order 2\n0 1\n0 1\n")
    with pytest.raises(CayleyTableError) as exc:
        load_cayley_table(bad)
    assert "line" in str(exc.value)

    bad.write_text("norder 2\n")
    with pytest.raises(CayleyTableError):
        load_cayley_table(bad)

    bad.write_text("order 2\n0 1\n1 0 0\n")
    with pytest.raises(CayleyTableError) as exc:
        load_cayley_table(bad)
    assert "line 3" in str(exc.value)

    bad.write_text("order 2\n1 0\n0 1\n")
    with pytest.raises(CayleyTableError):
        load_cayley_table(bad)

    # every line-numbered message, blank lines counted in the numbering
    cases = [
        ("order 2\n0 1\n1 x\n", "line 3: non-integer entry"),
        ("order 2\n0 1\n1 0.0\n", "line 3: non-integer entry"),
        ("order 2\n0 1\n-1 0\n", "line 3: entry out of range"),
        ("order 2\n0 2\n1 0\n", "line 2: entry out of range"),
        ("order 2\n0 1\n\n1 0 0\n", "line 4: expected 2 entries, got 3"),
        ("order 2\n0 1 x\n1 9\n", "line 2: non-integer entry"),
        ("order 2\n0 9\n1\n", "line 2: entry out of range"),
        ("order 3\n0 1 2\n1 2 0\n", "line 3: expected 3 rows, got 2"),
        ("order 3\n\n0 1 2\n1 2 0\n\n", "line 5: expected 3 rows, got 2"),
        ("order 3\n0 1 2\n1 2\n", "line 3: expected 3 entries, got 2"),
        ("order 2\n0 1\n1 0\nnot a row\n", "line 4: expected 2 rows, got 3"),
        ("order 2\n0 1\n1 0\n\nnot a row\n", "line 5: expected 2 rows, got 3"),
        ("order x\n0\n", "line 1: bad order 'x'"),
        ("order 0\n", "line 1: order must be positive, got 0"),
        ("", "line 1: empty file"),
    ]
    for text, message in cases:
        bad.write_text(text)
        with pytest.raises(CayleyTableError) as exc:
            load_cayley_table(bad)
        assert str(exc.value) == message, text


def test_cayley_rejects_non_associative_latin_square(tmp_path):
    # Z_400 with the intercalate at rows and columns {1, 201} swapped: a Latin
    # square with identity 0 whose few non-associative triples random
    # sampling misses; Light's test over the generators must catch them.
    n = 400
    rows = [[(x + y) % n for y in range(n)] for x in range(n)]
    rows[1][1], rows[1][201] = rows[1][201], rows[1][1]
    rows[201][1], rows[201][201] = rows[201][201], rows[201][1]
    path = tmp_path / "z400_swapped.txt"
    path.write_text(f"order {n}\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    with pytest.raises(CayleyTableError) as exc:
        load_cayley_table(path)
    assert "associativity" in str(exc.value)


def _fixed_points_by_loop(g, cls):
    """Reference counts: for each class, a loop over all of G."""
    plus, minus = [], []
    for rep in cls.representatives:
        plus.append(sum(1 for x in range(g.order) if g.mul(x, rep) == g.mul(rep, x)))
        minus.append(sum(1 for x in range(g.order) if g.conjugate(rep, g.inv(x)) == x))
    return plus, (minus if inversion_closed(cls) else None)


def test_fixed_point_counts_match_brute_force(q8_path, c3_path):
    groups = [SymmetricGroup(n) for n in (3, 4, 5)]
    groups += [load_cayley_table(q8_path), load_cayley_table(c3_path)]
    for g in groups:
        cls = conjugacy_classes(g)
        assert fixed_point_counts(g, cls) == _fixed_points_by_loop(g, cls)
    # C3's classes are not inversion-closed: there is no fix- to count
    assert fixed_point_counts(groups[-1], conjugacy_classes(groups[-1]))[1] is None


def test_fixed_point_counts_checks_class_sizes():
    g = SymmetricGroup(4)
    cls = conjugacy_classes(g)
    cls.sizes = [1, 6, 3, 6, 8]  # the sizes of [3,1] and [4] exchanged
    with pytest.raises(ReconciliationError) as exc:
        fixed_point_counts(g, cls)
    assert exc.value.check == "class_sizes"


def test_trivial_group(trivial_path):
    g = load_cayley_table(trivial_path)
    assert g.order == 1
    cls = conjugacy_classes(g)
    assert cls.n_classes == 1


def test_generators_generate():
    for n in (2, 3, 4, 5):
        g = SymmetricGroup(n)
        gens = g.generators()
        assert g._close(gens).all()
        assert not g._close(gens[:-1]).all()


def test_partition_label_type():
    cls = conjugacy_classes(SymmetricGroup(5))
    assert all(isinstance(lam, Partition) for lam in cls.labels)
