"""Finite groups: symmetric groups, Cayley-table groups, conjugacy, cycle types."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import factorial
from pathlib import Path

import numpy as np

from .partitions import Partition, class_size, partitions_of

#: Hard cap for symmetric(n).  The group's rank table has n^(n-1) entries:
#: 235 KB of uint16 at S7, 4.2 MB at S8, 172 MB of uint32 at S9.  The orbit
#: index keeps n_classes * |G| labels (3.5 MB at S8); what outgrows memory
#: first is the memoized generator tables, the one contraction behind every
#: closure (of T and, seeded with e, of T*e), r(i,nu) * n_rel(nu,m) * r(i,m)
#: counts per (target block, middle class): 5.3e8 of them over every key at
#: S8 (0.53 GB as uint8, 1.06 GB as uint16), counted from 1.1e9 (target
#: orbit, middle-class element) pairs through a key -> class table of n^(n-1)
#: entries (2 MB at S8).  T's closure, visiting the richest middle classes
#: first, counts 754 of the keys at S8 (121 MiB; 1,806 and 133 MiB in class
#: order) and no stacked table: its 22 small targets are full after level 0.
#: The seeded closures of T*e step only through the middle classes of T's
#: accepted words, so they count no table beyond T's.
MAX_SYMMETRIC_N = 8


class ReconciliationError(AssertionError):
    """Two independent routes to one reported number disagree."""

    def __init__(self, check: str, message: str):
        super().__init__(message)
        #: name of the failing check, as keyed in the report's checks
        self.check = check


def cycle_type(images: tuple[int, ...] | np.ndarray) -> Partition:
    """Cycle type of a permutation's image array, fixed points included as parts 1."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        if seen[start]:
            continue
        n, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            n += 1
        lengths.append(n)
    return Partition(tuple(sorted(lengths, reverse=True)))


class GroupTable:
    """A finite group on element indices 0..order-1 with identity at 0.

    `mul` and `inv` take ints or integer arrays, broadcast like numpy
    operators and return np.intp values of the broadcast shape; `mul_outer`
    takes two 1-d arrays and multiplies every pair.
    """

    order: int
    name: str

    def mul(self, a, b) -> np.ndarray:
        raise NotImplementedError

    def inv(self, a) -> np.ndarray:
        raise NotImplementedError

    def mul_outer(self, a, b) -> np.ndarray:
        """Products on the outer grid: the (len(a), len(b)) array of a[s] * b[t]."""
        return self.mul(np.asarray(a)[:, None], np.asarray(b)[None, :])

    def conjugate(self, g, x) -> np.ndarray:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def lookup_table(self, values: np.ndarray) -> np.ndarray:
        """Per-element `values` in the form `outer_lookup` reads them."""
        return values

    def right_factors(self, b) -> np.ndarray:
        """Elements b in the form `outer_lookup` takes as right factors."""
        return np.asarray(b)

    def outer_lookup(self, a, right: np.ndarray, table: np.ndarray) -> np.ndarray:
        """values[a[s] * b[t]] on the outer grid, table = lookup_table(values).

        `right` is right_factors(b): a caller that multiplies many left
        factors by one b, or reads one table often, prepares each once.
        """
        return table[self.mul(np.asarray(a)[:, None], right[None, :])]

    def generators(self) -> list[int]:
        """A small generating set, found greedily in index order."""
        return subgroup_generators(self, np.arange(self.order))

    def _close(self, gens: list[int]) -> np.ndarray:
        """Mask of the subgroup generated by gens: breadth-first on frontiers."""
        reached = np.zeros(self.order, dtype=bool)
        reached[0] = True
        frontier = np.zeros(1, dtype=np.intp)
        right = np.asarray(gens, dtype=np.intp)
        while frontier.size:
            found = np.zeros(self.order, dtype=bool)
            found[self.mul(frontier[:, None], right[None, :])] = True
            found &= ~reached
            frontier = found.nonzero()[0]
            reached |= found
        return reached


def subgroup_generators(g: GroupTable, members: np.ndarray) -> list[int]:
    """Generators of a subgroup given by its increasing element ids.

    Picked greedily in index order: each is the least member that the
    earlier ones do not generate.
    """
    gens: list[int] = []
    reached = g._close(gens)[members]
    while not reached.all():
        gens.append(int(members[np.argmin(reached)]))
        reached = g._close(gens)[members]
    return gens


class SymmetricGroup(GroupTable):
    """S_n with elements indexed by the lexicographic rank of their image tuple."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > MAX_SYMMETRIC_N:
            raise ValueError(f"symmetric({n}) exceeds the maximum {MAX_SYMMETRIC_N}")
        self.n = n
        self.order = factorial(n)
        self.name = f"S{n}"
        # itertools.permutations yields in lexicographic order, identity first;
        # row a holds the images of element a
        self.elements = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
        # rank of an image tuple, looked up by the base-n key of its first
        # n-1 images (the last one is fixed by them); a key is one float64
        # product through BLAS, exact since every key is below n^(n-1) <= 8^7
        self._weights = np.zeros(n, dtype=np.float64)
        self._weights[:-1] = n ** np.arange(n - 2, -1, -1)
        self._rank = np.zeros(n ** (n - 1), dtype=np.min_scalar_type(self.order - 1))
        self._rank[self._keys(self.elements)] = np.arange(self.order)

    def _keys(self, images: np.ndarray) -> np.ndarray:
        return (images @ self._weights).astype(np.intp)

    def _rank_of(self, images: np.ndarray) -> np.ndarray:
        return self._rank[self._keys(images)].astype(np.intp)

    def mul(self, a, b) -> np.ndarray:
        # (a*b)(i) = a(b(i)): take a's images along b's
        return self._rank_of(self.elements[np.asarray(a)[..., None], self.elements[b]])

    def inv(self, a) -> np.ndarray:
        return self._rank_of(self.elements[a].argsort(axis=-1))

    def conjugate(self, g, x) -> np.ndarray:
        # g x g^-1 maps g(u) to g(x(u)): x's images read through g^-1, then
        # mapped by g, one rank; arrays of g keep the product form
        if np.ndim(g):
            return super().conjugate(g, x)
        images = self.elements[g]
        return self._rank_of(images[self.elements[x][..., images.argsort()]])

    def mul_outer(self, a, b) -> np.ndarray:
        return self.outer_lookup(a, self.right_factors(b), self._rank).astype(np.intp)

    def lookup_table(self, values: np.ndarray) -> np.ndarray:
        # indexed by image key, as the rank is; keys of no permutation read
        # the identity's value and are never looked up
        return values[self._rank]

    def right_factors(self, b) -> np.ndarray:
        # key(a*b) = sum_v a(b(v)) w[v] = sum_u a(u) w[b^-1(u)]: row u holds
        # w[b^-1(u)] for every b, in float64 and C order: with a transposed
        # right factor OpenBLAS ran even S7's small key products on a second
        # thread, whose spinning afterwards cost more CPU time than they did
        return self._weights[self.elements[np.asarray(b)].argsort(axis=-1)].T.copy()

    def outer_lookup(self, a, right: np.ndarray, table: np.ndarray) -> np.ndarray:
        # the keys of the whole grid are one float64 product, a's images
        # times `right`, in place of the (len(a), len(b), n) gather of images
        keys = self.elements[np.asarray(a)] @ right
        return table.take(keys.astype(np.intp))

    def generators(self) -> list[int]:
        """A transposition and an n-cycle; they coincide in S2."""
        if self.n == 1:
            return []
        swap, cycle = [1, 0, *range(2, self.n)], [*range(1, self.n), 0]
        return list(dict.fromkeys(self._rank_of(np.array([swap, cycle])).tolist()))


class CayleyGroup(GroupTable):
    """A group given by an explicit multiplication table."""

    def __init__(self, table, name: str = "cayley"):
        n = len(table)
        self.order = n
        self.name = name
        # the narrowest integer type keeps the table small
        self.table = np.asarray(table).astype(np.min_scalar_type(n)).reshape(n, n)
        _validate_latin(self.table)
        _validate_associative(self.table, self.generators())
        # x^-1 is the column of the identity in row x, found once per table
        self._inverse = np.argmin(self.table, axis=1)

    def mul(self, a, b) -> np.ndarray:
        return self.table[a, b].astype(np.intp)

    def inv(self, a) -> np.ndarray:
        return self._inverse[a]


class CayleyTableError(ValueError):
    """Malformed Cayley table file, with a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


#: a decimal integer entry, as loadtxt reads one
_INTEGER = re.compile(r"[+-]?[0-9]+")

#: table cells per step of the checks below, which bounds their temporaries
_CHECK_CELLS = 1 << 16


def _validate_latin(arr: np.ndarray) -> None:
    """Every row and column a permutation of 0..n-1, element 0 the identity."""
    n = arr.shape[0]
    idx = np.arange(n)
    step = max(1, _CHECK_CELLS // n)
    for what, lines in (("row", arr), ("column", arr.T)):
        for lo in range(0, n, step):
            bad = np.nonzero((np.sort(lines[lo : lo + step], axis=1) != idx).any(axis=1))[0]
            if bad.size:
                raise ValueError(f"{what} {lo + bad[0]} is not a permutation of 0..{n - 1}")
    if (arr[0] != idx).any() or (arr[:, 0] != idx).any():
        raise ValueError("element 0 is not a two-sided identity")


def _validate_associative(arr: np.ndarray, gens: list[int]) -> None:
    """Light's test: (xy)s = x(ys) for all x, y and every generator s.

    Exact: the s satisfying the identity for all x, y are closed under
    products, and every element is a left-nested product of generators.
    """
    n = arr.shape[0]
    step = max(1, _CHECK_CELLS // n)
    for s in gens:
        col = arr[:, s]
        for lo in range(0, n, step):
            rows = arr[lo : lo + step]
            bad = np.argwhere(col[rows] != rows[:, col])  # (xy)s vs x(ys)
            if bad.size:
                a, b = (int(v) for v in bad[0])
                raise ValueError(f"associativity fails at ({lo + a},{b},{s})")


def load_cayley_table(path: str | Path) -> CayleyGroup:
    """Read the table format: `order N` then N rows of N 0-based indices."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise CayleyTableError(1, "empty file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "order":
        raise CayleyTableError(1, f"expected 'order N', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise CayleyTableError(1, f"bad order {head[1]!r}") from None
    if n < 1:
        raise CayleyTableError(1, f"order must be positive, got {n}")
    # the non-blank lines, numbered with blank lines counted
    rows = [(no, raw) for no, raw in enumerate(lines[1:], start=2) if raw.strip()]
    # a malformed row is named before the count
    table = _parse_rows(rows[:n], n) if rows else None
    if len(rows) != n:
        # a short file ends at its last line, a long one at its first extra row
        line = rows[n][0] if len(rows) > n else len(lines)
        raise CayleyTableError(line, f"expected {n} rows, got {len(rows)}")
    try:
        return CayleyGroup(table, name=Path(path).stem)
    except ValueError as exc:
        raise CayleyTableError(1, str(exc)) from None


def _parse_rows(rows: list[tuple[int, str]], n: int) -> np.ndarray:
    """The (line number, text) rows, at least one, as one int array of entries in 0..n-1.

    One loadtxt pass reads every row; only when it fails, or its result has
    the wrong width or range, are the rows reread one by one to name the
    first bad line.  An integer entry past int64 is out of range like any
    other.
    """
    try:
        table = _read_ints([raw for _, raw in rows])
    except ValueError:
        table = None
    if table is not None and table.shape[1] == n and ((table >= 0) & (table < n)).all():
        return table
    for lineno, raw in rows:
        entries = raw.split()
        try:
            row = _read_ints([raw])[0]
        except ValueError:
            if not all(_INTEGER.fullmatch(e) for e in entries):
                raise CayleyTableError(lineno, "non-integer entry") from None
            row = None  # an integer past int64
        if len(entries) != n:
            raise CayleyTableError(lineno, f"expected {n} entries, got {len(entries)}")
        if row is None or ((row < 0) | (row >= n)).any():
            raise CayleyTableError(lineno, "entry out of range")
    raise AssertionError("no malformed row found")


def _read_ints(lines: list[str]) -> np.ndarray:
    """Whitespace-separated decimal integers, one row per line."""
    return np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)


def build_group(spec: str) -> GroupTable:
    """Build a group from a descriptor: 'sym:N' or 'file:PATH'."""
    kind, _, arg = spec.partition(":")
    if kind == "sym":
        try:
            n = int(arg)
        except ValueError:
            raise ValueError(f"bad group spec {spec!r}: the degree must be an integer") from None
        return SymmetricGroup(n)
    if kind == "file":
        return load_cayley_table(arg)
    raise ValueError(f"unknown group spec {spec!r} (want sym:N or file:PATH)")


@dataclass
class ConjugacyData:
    """Conjugacy classes of a group, class 0 = {identity}."""

    #: per element, its class
    class_of: np.ndarray
    representatives: list[int]
    sizes: list[int]
    inverse_class: list[int]
    labels: list[Partition] | None
    #: per element, a t with t * rep(class_of[x]) * t^-1 = x
    transversal: np.ndarray
    #: per class, its elements as an increasing int array
    elements: list[np.ndarray]
    #: per element, its position inside its class list
    pos_in_class: np.ndarray

    @property
    def n_classes(self) -> int:
        return len(self.representatives)

    def label_strings(self) -> list[str]:
        if self.labels is not None:
            return [lam.label() for lam in self.labels]
        return [f"c{i}" for i in range(self.n_classes)]


def conjugacy_classes(g: GroupTable) -> ConjugacyData:
    """Orbit partition of G under conjugation.

    Orbits are expanded breadth-first from the group's generating set
    `g.generators()`, in O(|G|*|gens|).
    """
    n = g.order
    gens = np.asarray(g.generators(), dtype=np.intp)
    conj = g.conjugate(gens[:, None], np.arange(n))  # conj[j, x] = s_j x s_j^-1
    raw = np.full(n, -1, dtype=np.intp)
    # t with t * start * t^-1 = x, where start is the root of x's search
    transversal = np.zeros(n, dtype=np.intp)
    starts: list[int] = []  # each root is the least element of its class
    while (unseen := np.flatnonzero(raw < 0)).size:
        c, start = len(starts), int(unseen[0])
        starts.append(start)
        raw[start] = c
        frontier = unseen[:1]
        while frontier.size:
            # scan (x, s) pairs x-major; the first pair to reach y names it
            found = conj[:, frontier].T.ravel()
            new, first = np.unique(found, return_index=True)
            first = np.sort(first[raw[new] < 0])
            x, s = np.divmod(first, len(gens))
            y = found[first]
            raw[y] = c
            transversal[y] = g.mul(gens[s], transversal[frontier[x]])
            frontier = y

    order = _class_order(g, starts, np.bincount(raw).tolist())
    relabel = np.empty(len(order), dtype=np.intp)
    relabel[order] = np.arange(len(order))
    class_of = relabel[raw]
    sizes = np.bincount(class_of)
    by_class = np.argsort(class_of, kind="stable")  # class by class, increasing
    pos_in_class = np.empty(n, dtype=np.intp)
    pos_in_class[by_class] = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # the roots are the least elements, so they are the representatives
    representatives = [starts[old] for old in order]
    labels = None
    if isinstance(g, SymmetricGroup):
        labels = [cycle_type(g.elements[r]) for r in representatives]
        if labels != partitions_of(g.n):
            raise ReconciliationError("class_label_order", "class labels out of order for S_n")
    return ConjugacyData(
        class_of=class_of,
        representatives=representatives,
        sizes=sizes.tolist(),
        inverse_class=class_of[g.inv(representatives)].tolist(),
        labels=labels,
        transversal=transversal,
        elements=np.split(by_class, np.cumsum(sizes)[:-1]),
        pos_in_class=pos_in_class,
    )


def _class_order(g: GroupTable, starts: list[int], sizes: list[int]) -> list[int]:
    """Identity class first; cycle-type order for S_n, else (size, min element)."""
    ids = range(len(starts))
    if isinstance(g, SymmetricGroup):
        return sorted(ids, key=lambda c: cycle_type(g.elements[starts[c]]))
    return sorted(ids, key=lambda c: (0 if starts[c] == 0 else 1, sizes[c], starts[c]))


def inversion_closed(c: ConjugacyData) -> bool:
    """True iff every conjugacy class is closed under inversion."""
    return all(c.inverse_class[i] == i for i in range(c.n_classes))


def fixed_point_counts(
    g: GroupTable, classes: ConjugacyData
) -> tuple[list[int], list[int] | None]:
    """Fixed points on G of conjugation, and of conjugate-then-invert, per class.

    fix+(rep) = #{x : x rep = rep x} = |G|/|C|.  fix-(rep) = #{x : rep x^-1
    rep^-1 = x}; x -> x rep maps these bijectively onto {y : y^2 = rep^2}, so
    one tally of all squares gives every class.  fix- is None when the
    classes are not inversion-closed (there is no inversion action).
    """
    if classes.labels is not None:
        for c, lam in enumerate(classes.labels):
            if classes.sizes[c] != class_size(lam):
                raise ReconciliationError(
                    "class_sizes", f"class {lam} has {classes.sizes[c]} elements"
                )
    plus = [g.order // size for size in classes.sizes]
    if not inversion_closed(classes):
        return plus, None
    every = np.arange(g.order)
    roots = np.bincount(g.mul(every, every), minlength=g.order)
    reps = np.asarray(classes.representatives)
    return plus, roots[g.mul(reps, reps)].tolist()


def centralizer_elements(g: GroupTable, x: int) -> np.ndarray:
    """All w in G with wx = xw, in increasing order: the w with x w x^-1 = w."""
    every = np.arange(g.order)
    return np.flatnonzero(g.conjugate(x, every) == every)
