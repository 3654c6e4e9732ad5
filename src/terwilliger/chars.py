"""Symmetric-group character theory and the centralizer-algebra pipeline.

Characters are computed by the Murnaghan-Nakayama rule (border strips are
enumerated through beta-sets), degrees by the hook length formula, and all
arithmetic in this module is exact integer/rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .groups import ConjugacyData, GroupTable, ReconciliationError, fixed_point_counts
from .partitions import Partition, SignedPartition, class_size, partitions_of


def hook_length_dim(lam: Partition) -> int:
    """Degree of the irreducible character for lam: n!/prod(hook lengths)."""
    parts = lam.parts
    conj = [0] * (parts[0] if parts else 0)
    for p in parts:
        for j in range(p):
            conj[j] += 1
    num = factorial(lam.n)
    for i, p in enumerate(parts):
        for j in range(p):
            num, rem = divmod(num, p - j + conj[j] - i - 1)
            if rem:
                raise ReconciliationError("hook_length_formula", f"{lam}: hooks do not divide n!")
    return num


@lru_cache(maxsize=None)
def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1 if not lam else 0
    t, rest = mu[0], mu[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(beta)
    total = 0
    for pos, b in enumerate(beta):
        c = b - t
        if c < 0 or c in beta_set:
            continue
        height = sum(1 for other in beta if c < other < b)
        new_beta = sorted((set(beta) - {b}) | {c}, reverse=True)
        m = len(new_beta)
        new_parts = tuple(new_beta[i] - (m - 1 - i) for i in range(m))
        new_parts = tuple(p for p in new_parts if p > 0)
        total += (-1) ** height * _mn(new_parts, rest)
    return total


def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value at cycle type mu via the Murnaghan-Nakayama rule."""
    if lam.n != mu.n:
        raise ValueError(f"partitions of different integers: {lam} vs {mu}")
    return _mn(lam.parts, mu.parts)


@dataclass
class CharTable:
    """Integer character table; rows are characters ([n] first), columns classes."""

    n: int
    row_labels: list[Partition]
    col_labels: list[Partition]
    values: list[list[int]]

    def value(self, lam: Partition, mu: Partition) -> int:
        return self.values[self.row_labels.index(lam)][self.col_labels.index(mu)]

    def degree(self, lam: Partition) -> int:
        return self.value(lam, self.col_labels[0])


@lru_cache(maxsize=None)
def char_table(n: int) -> CharTable:
    """Full character table of the degree-n symmetric group, verified.

    Built once per n: every caller shares the table, so none may modify it.
    """
    cols = partitions_of(n)
    rows = list(reversed(cols))
    values = [[mn_character(lam, mu) for mu in cols] for lam in rows]
    sizes = [class_size(mu) for mu in cols]
    order = factorial(n)
    for a, ra in enumerate(values):
        if ra[0] != hook_length_dim(rows[a]):
            raise ReconciliationError("character_degrees", f"degree mismatch for {rows[a]}")
        for b, rb in enumerate(values):
            dot = sum(s * x * y for s, x, y in zip(sizes, ra, rb))
            if dot != (order if a == b else 0):
                raise ReconciliationError(
                    "character_orthogonality", f"row orthogonality fails at ({rows[a]},{rows[b]})"
                )
    return CharTable(n=n, row_labels=rows, col_labels=cols, values=values)


def row_sums(table: CharTable) -> dict[Partition, int]:
    """Row sums of the character table (all positive for n >= 3)."""
    out: dict[Partition, int] = {}
    for lam, row in zip(table.row_labels, table.values):
        s = sum(row)
        if s <= 0:
            raise ReconciliationError("positive_row_sums", f"non-positive row sum {s} for {lam}")
        out[lam] = s
    return out


@dataclass
class Eigenmatrix:
    """Scheme eigenvalue table: entry chi*|C_mu|/f with multiplicity f^2."""

    n: int
    row_labels: list[Partition]
    col_labels: list[Partition]
    values: list[list[int]]
    multiplicities: list[int]


def scheme_eigenmatrix(n: int) -> Eigenmatrix:
    table = char_table(n)
    sizes = [class_size(mu) for mu in table.col_labels]
    values: list[list[int]] = []
    mults: list[int] = []
    for lam, row in zip(table.row_labels, table.values):
        f = row[0]
        entries = []
        for size, chi in zip(sizes, row):
            q, rem = divmod(chi * size, f)
            if rem:
                raise ReconciliationError(
                    "integral_eigenvalues", f"non-integral eigenvalue at ({lam})"
                )
            entries.append(q)
        values.append(entries)
        mults.append(f * f)
    if sum(mults) != factorial(n):
        raise ReconciliationError("squared_degrees_sum", "sum of squared degrees != n!")
    return Eigenmatrix(
        n=n,
        row_labels=table.row_labels,
        col_labels=table.col_labels,
        values=values,
        multiplicities=mults,
    )


@dataclass
class PermChar:
    """Fixed-point counts of the identity-stabilizer action on the group.

    For each class: plus_values counts fixed points of conjugation by a
    representative, minus_values those of conjugate-then-invert.
    """

    labels: list[Partition] | None
    plus_values: list[int]
    minus_values: list[int]


def perm_char_H1(g: GroupTable, classes: ConjugacyData) -> PermChar:
    """Permutation character of conjugation-and-inversion acting on G."""
    plus, minus = fixed_point_counts(g, classes)
    if minus is None:
        raise ValueError("classes are not inversion-closed; no inversion action")
    return PermChar(labels=classes.labels, plus_values=plus, minus_values=minus)


@dataclass
class MultiplicityVector:
    """Multiplicities of the signed irreducible characters in a PermChar."""

    n: int
    values: dict[SignedPartition, int]

    def nonzero(self) -> list[tuple[SignedPartition, int]]:
        return [(sp, m) for sp, m in self.values.items() if m]

    def get(self, sp: SignedPartition) -> int:
        return self.values.get(sp, 0)


def multiplicities(pi: PermChar, n: int) -> MultiplicityVector:
    """Inner products <pi, chi> over the classes of the doubled group."""
    if pi.labels is None:
        raise ValueError("permutation character is not labelled by partitions")
    table = char_table(n)
    parts = table.col_labels
    if pi.labels != parts:
        raise ValueError("class labels do not match partitions of n")
    sizes = [class_size(mu) for mu in parts]
    order2 = 2 * factorial(n)
    values: dict[SignedPartition, int] = {}
    for lam in table.row_labels:
        chi = [table.value(lam, mu) for mu in parts]
        for sign in (1, -1):
            total = 0
            for size, c, fp, fm in zip(sizes, chi, pi.plus_values, pi.minus_values):
                total += size * c * (fp + sign * fm)
            m, rem = divmod(total, order2)
            if rem or m < 0:
                raise ReconciliationError(
                    _LEDGER, f"multiplicity {Fraction(total, order2)} for {lam} sign {sign}"
                )
            values[SignedPartition(lam, sign)] = m
    mv = MultiplicityVector(n=n, values=values)
    _validate_multiplicities(mv, table)
    return mv


#: check name of the multiplicity ledgers, here and in `multiplicities`
_LEDGER = "multiplicity_ledger"


def _validate_multiplicities(mv: MultiplicityVector, table: CharTable) -> None:
    sums = row_sums(table)
    total_dim = 0
    for lam in table.row_labels:
        plus = mv.get(SignedPartition(lam, 1))
        minus = mv.get(SignedPartition(lam, -1))
        if plus + minus != sums[lam]:
            raise ReconciliationError(_LEDGER, f"m+ + m- != row sum for {lam}")
        total_dim += (plus + minus) * table.degree(lam)
    if total_dim != factorial(mv.n):
        raise ReconciliationError(_LEDGER, "multiplicities do not fill the standard module")
    top = Partition((mv.n,))
    if mv.get(SignedPartition(top, -1)) != 0:
        raise ReconciliationError(_LEDGER, "signed top character has nonzero multiplicity")
    if mv.get(SignedPartition(top, 1)) != len(partitions_of(mv.n)):
        raise ReconciliationError(_LEDGER, "primary multiplicity != number of partitions")


@dataclass
class CentralizerReport:
    """Wedderburn data of the stabilizer centralizer algebra."""

    components: list[tuple[SignedPartition, int]]

    @property
    def dim(self) -> int:
        return sum(m * m for _, m in self.components)


def centralizer_wedderburn(mv: MultiplicityVector) -> CentralizerReport:
    ordered = sorted(
        mv.nonzero(),
        key=lambda item: (
            [-p for p in item[0].base.parts],
            -item[0].sign,
        ),
    )
    return CentralizerReport(components=ordered)
