"""Exact sparse linear algebra over prime fields (plus a slow rational twin).

Every dimension reported by the library is a rank computed here or by the
orbital-compressed engine built on the same primitives; reported ranks are
always confirmed under two independently sampled primes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Working primes, sampled or explicit, lie below 2^28 so that a 128-term dot
#: product of reduced residues fits in int64: 128 * (2^28 - 1)^2 < 2^63.
PRIME_LO = 1 << 27
PRIME_HI = 1 << 28
_MODMUL_CHUNK = 128

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the sampling range."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sample_primes(
    seed: int,
    count: int = 2,
    avoid: int = 1,
    lo: int = PRIME_LO,
    hi: int = PRIME_HI,
) -> tuple[int, ...]:
    """Sample distinct primes in [lo, hi) not dividing `avoid`, seeded."""
    rng = random.Random(f"primes:{seed}")
    out: list[int] = []
    while len(out) < count:
        c = rng.randrange(lo | 1, hi, 2)
        if c in out or not is_prime(c):
            continue
        if avoid % c == 0:
            continue
        out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class FieldCtx:
    """Arithmetic context for the prime field Z/p."""

    p: int

    def __post_init__(self):
        if self.p == 2 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")

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
    """Drop-in exact twin of FieldCtx over Q (slow verification mode)."""

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

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for i, r in enumerate(self.rows):
            for c, v in r.items():
                out[i][c] = v
        return out


def spmm(a: SparseMat, b: SparseMat, field: FieldCtx | RationalField) -> SparseMat:
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

    def __init__(self, dim: int, field: FieldCtx | RationalField):
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


def modmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 arrays of residues mod p < PRIME_HI."""
    inner = a.shape[-1]
    if inner <= _MODMUL_CHUNK:
        return (a @ b) % p
    acc = None
    for lo in range(0, inner, _MODMUL_CHUNK):
        part = (a[..., lo : lo + _MODMUL_CHUNK] @ b[lo : lo + _MODMUL_CHUNK]) % p
        acc = part if acc is None else (acc + part) % p
    return acc
