"""Ambient-coordinate reference engine for the switching closure.

A literal matrix engine over the |C_i| x |C_k| coordinates of each block,
built on sparse vectors, sparse matrices and an incremental echelon tracker
over Z/p or Q.  It shares nothing with the library's orbit-coordinate engine
but the scheme and the block dimension table, so the tests use it as an
independent oracle for small groups.

`row_by_row_insert` is the orbit engine's `Block.insert_batch` in its first,
row-by-row form, kept as the oracle of the batched one.  `relation_of`,
`is_symmetric`, `parse_partition`, `parse_signed_partition` and
`idempotent_sum` are reference forms that only the tests read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from terwilliger.fieldla import FieldCtx
from terwilliger.partitions import Partition, SignedPartition
from terwilliger.scheme import ClassScheme, intersection_numbers
from terwilliger.switching import ClosureError
from terwilliger.tables import BlockDimTable
from terwilliger.wedderburn import CPIdem


class PrimeField(FieldCtx):
    """Scalar arithmetic in the prime field Z/p."""

    def normalize(self, a: int) -> int:
        return a % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, -1, self.p)

    def sub_mul(self, a: int, c: int, b: int) -> int:
        """a - c*b mod p."""
        return (a - c * b) % self.p


class RationalField:
    """Drop-in exact twin of PrimeField over Q (slow verification mode)."""

    p = None

    def normalize(self, a) -> Fraction:
        return Fraction(a)

    def inv(self, a) -> Fraction:
        return 1 / Fraction(a)

    def sub_mul(self, a, c, b) -> Fraction:
        return Fraction(a) - Fraction(c) * Fraction(b)


@dataclass(frozen=True)
class SparseVec:
    """Sparse vector: strictly increasing coordinates, no stored zeros."""

    dim: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        idx = [i for i, _ in self.entries]
        if idx != sorted(set(idx)):
            raise ValueError("coordinates must be strictly increasing")
        if idx and (idx[0] < 0 or idx[-1] >= self.dim):
            raise ValueError("coordinate out of range")
        if any(v == 0 for _, v in self.entries):
            raise ValueError("stored zero entry")

    @staticmethod
    def from_dict(dim: int, data: dict[int, int]) -> "SparseVec":
        return SparseVec(dim, tuple(sorted((i, v) for i, v in data.items() if v)))

    def is_zero(self) -> bool:
        return not self.entries


@dataclass
class SparseMat:
    """Row-sparse matrix; rows are {col: value} with no stored zeros."""

    nrows: int
    ncols: int
    rows: list[dict[int, int]]

    def __post_init__(self):
        if len(self.rows) != self.nrows:
            raise ValueError("row count mismatch")
        for r in self.rows:
            for c, v in r.items():
                if c < 0 or c >= self.ncols:
                    raise ValueError("column out of range")
                if v == 0:
                    raise ValueError("stored zero entry")

    @staticmethod
    def zero(nrows: int, ncols: int) -> "SparseMat":
        return SparseMat(nrows, ncols, [{} for _ in range(nrows)])

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for i, r in enumerate(self.rows):
            for c, v in r.items():
                out[i][c] = v
        return out


def spmm(a: SparseMat, b: SparseMat, field: PrimeField | RationalField) -> SparseMat:
    """Exact sparse product a @ b over the field."""
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.ncols} != {b.nrows}")
    rows: list[dict[int, int]] = []
    dense_ok = b.ncols <= 65536
    for arow in a.rows:
        est = sum(len(b.rows[k]) for k in arow)
        if dense_ok and est * 4 > b.ncols:
            # fill heuristic: dense scratch buffer for mostly-full products
            buf = [0] * b.ncols
            for k, va in arow.items():
                for j, vb in b.rows[k].items():
                    buf[j] += va * vb
            row = {j: field.normalize(v) for j, v in enumerate(buf) if v}
        else:
            acc: dict[int, int] = {}
            for k, va in arow.items():
                for j, vb in b.rows[k].items():
                    acc[j] = acc.get(j, 0) + va * vb
            row = {j: field.normalize(v) for j, v in acc.items()}
        rows.append({j: v for j, v in row.items() if v})
    return SparseMat(a.nrows, b.ncols, rows)


class RankTracker:
    """Incremental fully-reduced echelon basis over a field.

    Pivots are the smallest coordinate of their row; each stored row is
    reduced against every other, so membership residuals read off directly.
    """

    def __init__(self, dim: int, field: PrimeField | RationalField):
        self.dim = dim
        self.field = field
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: SparseVec | dict[int, int]) -> dict[int, int]:
        """Residual of vec against the current echelon rows (not inserted)."""
        if isinstance(vec, SparseVec):
            if vec.dim != self.dim:
                raise ValueError(f"dimension mismatch: {vec.dim} != {self.dim}")
            v = {i: self.field.normalize(x) for i, x in vec.entries}
        else:
            v = {i: self.field.normalize(x) for i, x in vec.items()}
        v = {i: x for i, x in v.items() if x}
        for pivot in [i for i in v if i in self.rows]:
            c = v.pop(pivot, 0)
            if not c:
                continue
            row = self.rows[pivot]
            for j, rv in row.items():
                if j == pivot:
                    continue
                nv = self.field.sub_mul(v.get(j, 0), c, rv)
                if nv:
                    v[j] = nv
                else:
                    v.pop(j, None)
        return v

    def insert(self, vec: SparseVec | dict[int, int]) -> bool:
        """Reduce and insert; True iff the rank grew."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        inv = self.field.inv(v[pivot])
        v = {j: self.field.normalize(x * inv) for j, x in v.items()}
        v = {j: x for j, x in v.items() if x}
        for other in self.rows.values():
            c = other.get(pivot)
            if not c:
                continue
            for j, nv in v.items():
                upd = self.field.sub_mul(other.get(j, 0), c, nv)
                if upd:
                    other[j] = upd
                else:
                    other.pop(j, None)
        self.rows[pivot] = v
        return True


def restrict_block(s, i: int, j: int, k: int) -> SparseMat:
    """The (C_i x C_k) submatrix of the relation-j adjacency matrix.

    Rows follow the sorted element order of C_i, columns of C_k; the entry
    at (x, y) is 1 iff x^-1 y lies in class j.  May be the zero matrix.
    """
    cls = s.classes
    # row x has a 1 at each y = x c, c in C_j, that lies in C_k
    products = s.group.mul(np.array(cls.elements[i])[:, None], np.array(cls.elements[j]))
    rows = [dict.fromkeys(cls.pos_in_class[y[cls.class_of[y] == k]].tolist(), 1) for y in products]
    return SparseMat(cls.sizes[i], cls.sizes[k], rows)


def vectorize(m: SparseMat) -> SparseVec:
    """Row-major flattening into a vector of dimension nrows*ncols."""
    data: dict[int, int] = {}
    for r, row in enumerate(m.rows):
        base = r * m.ncols
        for c, v in row.items():
            data[base + c] = v
    return SparseVec.from_dict(m.nrows * m.ncols, data)


class MatrixClosure:
    """Reference engine over ambient coordinates (independent oracle).

    Tracks each block in the flattened |C_i|*|C_k| space with sparse
    echelon trackers; feasible for the small groups only.
    """

    def __init__(self, scheme: ClassScheme, fieldctx: PrimeField | RationalField):
        self.scheme = scheme
        self.field = fieldctx
        cls = scheme.classes
        nc = cls.n_classes
        self.trackers = {
            (i, k): RankTracker(cls.sizes[i] * cls.sizes[k], fieldctx)
            for i in range(nc)
            for k in range(nc)
        }
        self.basis_mats: dict[tuple[int, int], list] = {
            key: [] for key in self.trackers
        }
        self.frontier: dict[tuple[int, int], list] = {}
        self.gen_mats: dict[tuple[int, int], list[tuple[int, object]]] = {}
        self.level = -1
        self.history: list[BlockDimTable] = []
        tensor = intersection_numbers(scheme)
        for i in range(nc):
            for k in range(nc):
                gens = []
                for j in range(nc):
                    if tensor.p[i, j, k]:
                        gens.append((j, restrict_block(scheme, i, j, k)))
                self.gen_mats[(i, k)] = gens

    def block_dims(self) -> BlockDimTable:
        nc = self.scheme.classes.n_classes
        dims = [[self.trackers[(i, k)].rank for k in range(nc)] for i in range(nc)]
        return BlockDimTable(labels=self.scheme.classes.label_strings(), dims=dims)

    @property
    def total_dim(self) -> int:
        return sum(t.rank for t in self.trackers.values())

    def generate_t0(self) -> None:
        for key, gens in sorted(self.gen_mats.items()):
            new = []
            for _, mat in gens:
                if self.trackers[key].insert(vectorize(mat)):
                    self.basis_mats[key].append(mat)
                    new.append(mat)
            self.frontier[key] = new
        self.level = 0
        self.history.append(self.block_dims())

    def extend_level(self) -> int:
        nc = self.scheme.classes.n_classes
        grown_total = 0
        new_frontier: dict[tuple[int, int], list] = {
            key: [] for key in self.trackers
        }
        for i in range(nc):
            for m in range(nc):
                key = (i, m)
                for nu in range(nc):
                    for left in self.frontier.get((i, nu), []):
                        for _, gen in self.gen_mats[(nu, m)]:
                            prod = spmm(left, gen, self.field)
                            if prod.is_zero():
                                continue
                            if self.trackers[key].insert(vectorize(prod)):
                                self.basis_mats[key].append(prod)
                                new_frontier[key].append(prod)
                                grown_total += 1
        self.frontier = new_frontier
        self.level += 1
        self.history.append(self.block_dims())
        return grown_total


def run_matrix_closure(
    scheme: ClassScheme,
    fieldctx: PrimeField | RationalField,
    max_width: int = 6,
) -> tuple[MatrixClosure, int]:
    """Reference stationary closure; returns the engine and the width."""
    closure = MatrixClosure(scheme, fieldctx)
    closure.generate_t0()
    for level in range(1, max_width + 2):
        if closure.extend_level() == 0:
            return closure, level - 1
    raise ClosureError(f"reference closure did not stabilize within {max_width}")


def word_product(scheme: ClassScheme, word, field: PrimeField | RationalField) -> SparseMat:
    """A closure word ((i, j, k), ...) multiplied out over ambient coordinates."""
    (i, j, k), *rest = word
    out = restrict_block(scheme, i, j, k)
    for a, j, b in rest:
        out = spmm(out, restrict_block(scheme, a, j, b), field)
    return out


def row_by_row_insert(blk, residuals: np.ndarray) -> list[int]:
    """`Block.insert_batch`, one row at a time: every accepted row is reduced
    into the stored rows at once, and clears its pivot column from the rows
    after it in the batch.  `residuals` is reduced in place."""
    live = residuals.any(axis=1)
    grown: list[int] = []
    p, free = blk.p, blk.is_free.nonzero()[0]
    for idx in range(residuals.shape[0]):
        if not live[idx]:
            continue
        v = residuals[idx]
        j = int(v.nonzero()[0][0])
        v = v * pow(int(v[j]), -1, p) % p
        k, piv = blk.rank, int(free[j])
        blk.rows[k, free] = v
        col = blk.rows[:k, piv]
        if col.any():
            blk.rows[:k] = (blk.rows[:k] - col[:, None] * blk.rows[k]) % p
        blk.pivots[k] = piv
        blk.is_free[piv] = False
        blk.rank = k + 1
        grown.append(idx)
        below = idx + 1 + residuals[idx + 1 :, j].nonzero()[0]
        if below.size:
            rest = (residuals[below] - residuals[below, j, None] * v) % p
            residuals[below] = rest
            live[below] = rest.any(axis=1)
    return grown


def relation_of(s: ClassScheme, x, y):
    """Relation of (x, y) in the scheme s: ints or broadcasting integer arrays.

    The library reads relation grids through `GroupTable.mul_outer` instead;
    this form is the reference the tests compare them with.
    """
    g = s.group
    return s.classes.class_of[g.mul(g.inv(x), y)]


def is_symmetric(table: BlockDimTable) -> bool:
    """Whether every block dimension equals that of its transposed block."""
    n = len(table.labels)
    return all(table.dims[a][b] == table.dims[b][a] for a in range(n) for b in range(n))


def parse_partition(text: str) -> Partition:
    """Parse labels like "[3,2,1^2]" or "3,2,1,1"."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    parts: list[int] = []
    for tok in s.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "^" in tok:
            base, _, exp = tok.partition("^")
            parts.extend([int(base)] * int(exp))
        else:
            parts.append(int(tok))
    if not parts:
        raise ValueError(f"empty partition: {text!r}")
    return Partition(tuple(sorted(parts, reverse=True)))


def parse_signed_partition(text: str) -> SignedPartition:
    """Parse labels like "[2,1]-" or "3,1+"."""
    s = text.strip()
    if s.endswith("+"):
        return SignedPartition(parse_partition(s[:-1]), 1)
    if s.endswith("-"):
        return SignedPartition(parse_partition(s[:-1]), -1)
    raise ValueError(f"signed partition must end with '+' or '-': {text!r}")


def idempotent_sum(*idems: CPIdem) -> CPIdem:
    """The sum of orthogonal idempotents as one: numerators summed class by class.

    It carries the first summand's label and degree; the library sizes a sum
    from the list of its summands instead (`algebra_times_idempotent_dim`).
    """
    first = idems[0]
    values = {c: sum(e.block_values[c] for e in idems) for c in first.block_values}
    mult = sum(e.multiplicity for e in idems)
    return CPIdem(first.label, first.degree, mult, values, first.denominator)
