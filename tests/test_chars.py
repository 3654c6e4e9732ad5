from fractions import Fraction
from math import factorial

import pytest

import golden
from oracle import parse_partition
from terwilliger import chars as chars_mod
from terwilliger.chars import (
    CharTable,
    centralizer_wedderburn,
    char_table,
    hook_length_dim,
    mn_character,
    perm_char_H1,
    row_sums,
    scheme_eigenmatrix,
)
from terwilliger.groups import ReconciliationError, load_cayley_table
from terwilliger.partitions import Partition, class_size, partitions_of


def P(text):
    return parse_partition(text)


def test_hook_length_trivial_character():
    for n in range(1, 9):
        assert hook_length_dim(Partition((n,))) == 1


def test_hook_length_values():
    assert hook_length_dim(P("[2,1]")) == 2
    assert hook_length_dim(P("[3,1]")) == 3
    assert hook_length_dim(P("[3,2,1^2]")) == 35


def test_hook_lengths_square_sum():
    for n in range(1, 8):
        assert sum(hook_length_dim(p) ** 2 for p in partitions_of(n)) == factorial(n)


def test_mn_values():
    assert mn_character(P("[2,1]"), P("[3]")) == -1
    assert mn_character(P("[2,2]"), P("[2,2]")) == 2
    assert mn_character(P("[4]"), P("[2,1,1]")) == 1


def test_mn_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        mn_character(P("[2,1]"), P("[2,2]"))


def test_mn_degree_equals_hooks():
    for n in range(1, 8):
        ones = Partition(tuple([1] * n))
        for lam in partitions_of(n):
            assert mn_character(lam, ones) == hook_length_dim(lam)


def test_char_table_s3_golden():
    t = char_table(3)
    assert [r.label() for r in t.row_labels] == golden.S3_CHAR_TABLE["rows"]
    assert [c.label() for c in t.col_labels] == golden.S3_CHAR_TABLE["cols"]
    assert t.values == golden.S3_CHAR_TABLE["values"]


def test_char_table_s4_golden():
    t = char_table(4)
    assert [r.label() for r in t.row_labels] == golden.S4_CHAR_TABLE["rows"]
    assert t.values == golden.S4_CHAR_TABLE["values"]


def test_sign_character_row():
    for n in range(2, 8):
        t = char_table(n)
        sign_row = Partition(tuple([1] * n))
        for mu in t.col_labels:
            assert t.value(sign_row, mu) == (-1) ** (n - len(mu.parts))


def test_column_orthogonality():
    for n in range(2, 8):
        t = char_table(n)
        cols = t.col_labels
        for a, mu in enumerate(cols):
            for b, nu in enumerate(cols):
                dot = sum(row[a] * row[b] for row in t.values)
                want = factorial(n) // class_size(mu) if a == b else 0
                assert dot == want


def test_eigenmatrix_trivial_row_is_class_sizes():
    for n in (3, 4, 5, 6, 7):
        eig = scheme_eigenmatrix(n)
        top = eig.row_labels.index(Partition((n,)))
        assert eig.values[top] == [class_size(mu) for mu in eig.col_labels]


def test_eigenmatrix_identity_column():
    for n in (3, 5, 7):
        eig = scheme_eigenmatrix(n)
        col = eig.col_labels.index(Partition(tuple([1] * n)))
        assert all(row[col] == 1 for row in eig.values)


def test_eigenmatrix_multiplicities():
    for n in (3, 4, 5, 6, 7):
        eig = scheme_eigenmatrix(n)
        assert sum(eig.multiplicities) == factorial(n)
        for lam, m in zip(eig.row_labels, eig.multiplicities):
            assert m == hook_length_dim(lam) ** 2


def test_non_integral_eigenvalue_names_check(monkeypatch):
    table = char_table(3)
    values = [list(row) for row in table.values]
    # a degree of 7 makes chi * |C_mu| / f non-integral where chi = -1
    values[1][0] = 7
    bad = CharTable(
        n=3, row_labels=table.row_labels, col_labels=table.col_labels, values=values
    )
    monkeypatch.setattr(chars_mod, "char_table", lambda n: bad)
    with pytest.raises(ReconciliationError) as exc:
        scheme_eigenmatrix(3)
    assert exc.value.check == "integral_eigenvalues"


def test_eigenmatrix_first_moment():
    # rows of the eigenvalue table weighted by multiplicities trace A_mu = 0
    for n in (4, 5):
        eig = scheme_eigenmatrix(n)
        for b, mu in enumerate(eig.col_labels):
            if mu.parts == tuple([1] * n):
                continue
            total = sum(
                m * row[b] for m, row in zip(eig.multiplicities, eig.values)
            )
            assert total == 0


def test_perm_char_identity_class(stages):
    for n in (3, 5):
        pi = perm_char_H1(stages.group(n), stages.scheme(n).classes)
        assert pi.plus_values[0] == factorial(n)


def test_perm_char_s3_inversion_count(stages):
    pi = perm_char_H1(stages.group(3), stages.scheme(3).classes)
    assert pi.minus_values[0] == 4  # identity plus the three transpositions


def test_perm_char_centralizer_identity(stages):
    for n in (4, 5, 6):
        cls = stages.scheme(n).classes
        pi = perm_char_H1(stages.group(n), cls)
        for c, v in enumerate(pi.plus_values):
            assert v == factorial(n) // cls.sizes[c]


def test_perm_char_rejects_non_inversion_closed(c3_path):
    import terwilliger as tw

    g = load_cayley_table(c3_path)
    s = tw.build_scheme(g)
    with pytest.raises(ValueError):
        perm_char_H1(g, s.classes)


def _mult_labels(stages, n):
    mv = stages.mults(n)
    return {sp.label(): m for sp, m in mv.nonzero()}


def test_multiplicities_s3(stages):
    assert _mult_labels(stages, 3) == golden.MULTS_S3


def test_multiplicities_s4(stages):
    assert _mult_labels(stages, 4) == golden.MULTS_S4


def test_multiplicities_s5(stages):
    assert _mult_labels(stages, 5) == golden.MULTS_S5


def test_multiplicities_s6(stages):
    assert _mult_labels(stages, 6) == golden.MULTS_S6


def test_multiplicities_s7(stages):
    assert _mult_labels(stages, 7) == golden.MULTS_S7


def test_multiplicity_row_sum_identity(stages):
    from terwilliger.partitions import SignedPartition

    for n in range(3, 8):
        mv = stages.mults(n)
        sums = row_sums(char_table(n))
        for lam in partitions_of(n):
            plus = mv.get(SignedPartition(lam, 1))
            minus = mv.get(SignedPartition(lam, -1))
            assert plus + minus == sums[lam]


def test_primary_multiplicities(stages):
    from terwilliger.partitions import SignedPartition

    for n in (3, 4, 5, 6, 7):
        mv = stages.mults(n)
        top = Partition((n,))
        assert mv.get(SignedPartition(top, 1)) == len(partitions_of(n))
        assert mv.get(SignedPartition(top, -1)) == 0


def test_centralizer_dims(stages):
    assert centralizer_wedderburn(stages.mults(5)).dim == 155
    assert centralizer_wedderburn(stages.mults(6)).dim == 761
    assert centralizer_wedderburn(stages.mults(7)).dim == 4043


def test_row_sums_values(stages):
    t4 = char_table(4)
    assert [row_sums(t4)[lam] for lam in t4.row_labels] == [5, 2, 3, 2, 1]
    t3 = char_table(3)
    assert [row_sums(t3)[lam] for lam in t3.row_labels] == [3, 1, 1]


def test_row_sums_positive_up_to_8():
    for n in range(3, 9):
        assert all(v >= 1 for v in row_sums(char_table(n)).values())


def test_multiplicities_elementwise_oracle_s4(stages):
    """Brute force over the doubled group, elementwise."""
    import itertools

    n = 4
    elems = list(itertools.permutations(range(n)))

    def comp(a, b):
        return tuple(a[j] for j in b)

    def invp(a):
        out = [0] * n
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    t = char_table(n)
    from terwilliger.groups import cycle_type

    got = {}
    for lam in t.row_labels:
        for sign in (1, -1):
            total = 0
            for sigma in elems:
                sinv = invp(sigma)
                fixc = sum(1 for x in elems if comp(comp(sigma, x), sinv) == x)
                fixi = sum(
                    1 for x in elems if comp(comp(sigma, invp(x)), sinv) == x
                )
                chi = t.value(lam, cycle_type(sigma))
                total += chi * fixc + sign * chi * fixi
            m = Fraction(total, 2 * factorial(n))
            assert m.denominator == 1
            if m:
                from terwilliger.partitions import SignedPartition

                got[SignedPartition(lam, sign).label()] = int(m)
    assert got == golden.MULTS_S4
