"""Finite groups: permutations, symmetric groups, Cayley-table groups, conjugacy."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path

import numpy as np

from .partitions import Partition, class_size, partitions_of

#: Hard cap for symmetric(n); S8 already has 40320 elements and the element
#: table for larger n outgrows the memory budget of the table-based layer.
MAX_SYMMETRIC_N = 8


class ReconciliationError(AssertionError):
    """Two independent routes to one reported number disagree."""

    def __init__(self, check: str, message: str):
        super().__init__(message)
        #: name of the failing check, as keyed in the report's checks
        self.check = check


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0,...,n-1} given by its image list."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images}")

    def __len__(self):
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(i) = self(other(i))."""
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))


def cycle_type(p: Permutation | tuple[int, ...]) -> Partition:
    """Cycle type of a permutation, fixed points included as parts 1."""
    images = p.images if isinstance(p, Permutation) else p
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
    """A finite group on element indices 0..order-1 with identity at 0."""

    order: int
    name: str

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def generators(self) -> list[int]:
        """A small generating set, found greedily in index order."""
        gens: list[int] = []
        closure = {0}
        for x in range(1, self.order):
            if x in closure:
                continue
            gens.append(x)
            closure = self._close(gens)
            if len(closure) == self.order:
                break
        return gens

    def _close(self, gens: list[int]) -> set[int]:
        closure = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in closure:
                        closure.add(y)
                        nxt.append(y)
            frontier = nxt
        return closure


class SymmetricGroup(GroupTable):
    """S_n with elements indexed by the lexicographic rank of their image tuple."""

    def __init__(self, n: int, max_n: int = MAX_SYMMETRIC_N):
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > max_n:
            raise ValueError(f"symmetric({n}) exceeds the configured maximum {max_n}")
        self.n = n
        self.order = factorial(n)
        self.name = f"S{n}"
        # itertools.permutations yields in lexicographic order, identity first.
        self.elements: list[tuple[int, ...]] = list(itertools.permutations(range(n)))
        self._index: dict[tuple[int, ...], int] = {
            t: i for i, t in enumerate(self.elements)
        }
        self._inv: list[int] = []
        for t in self.elements:
            inv = [0] * n
            for i, j in enumerate(t):
                inv[j] = i
            self._inv.append(self._index[tuple(inv)])

    def mul(self, a: int, b: int) -> int:
        ta, tb = self.elements[a], self.elements[b]
        return self._index[tuple(ta[j] for j in tb)]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def index_of(self, p: Permutation | tuple[int, ...]) -> int:
        images = p.images if isinstance(p, Permutation) else tuple(p)
        return self._index[images]

    def permutation(self, a: int) -> Permutation:
        return Permutation(self.elements[a])

    def generators(self) -> list[int]:
        if self.n == 1:
            return []
        swap = tuple([1, 0] + list(range(2, self.n)))
        if self.n == 2:
            return [self._index[swap]]
        cycle = tuple(list(range(1, self.n)) + [0])
        return [self._index[swap], self._index[cycle]]


class CayleyGroup(GroupTable):
    """A group given by an explicit multiplication table."""

    def __init__(self, table: list[list[int]], name: str = "cayley"):
        self.order = len(table)
        self.name = name
        self.table = table
        # the narrowest integer type keeps the checks' copy of the table small
        n = self.order
        arr = np.array(table, dtype=np.min_scalar_type(n)).reshape(n, n)
        _validate_latin(arr)
        _validate_associative(arr, self.generators())
        self._inv = [row.index(0) for row in table]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]


class CayleyTableError(ValueError):
    """Malformed Cayley table file, with a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


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
    rows: list[list[int]] = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        try:
            row = [int(tok) for tok in raw.split()]
        except ValueError:
            raise CayleyTableError(lineno, "non-integer entry") from None
        if len(row) != n:
            raise CayleyTableError(lineno, f"expected {n} entries, got {len(row)}")
        if any(v < 0 or v >= n for v in row):
            raise CayleyTableError(lineno, "entry out of range")
        rows.append(row)
        if len(rows) == n:
            break
    if len(rows) != n:
        raise CayleyTableError(lineno, f"expected {n} rows, got {len(rows)}")
    try:
        return CayleyGroup(rows, name=Path(path).stem)
    except ValueError as exc:
        raise CayleyTableError(1, str(exc)) from None


def build_group(spec: str) -> GroupTable:
    """Build a group from a descriptor: 'sym:N' or 'file:PATH'."""
    kind, _, arg = spec.partition(":")
    if kind == "sym":
        return SymmetricGroup(int(arg))
    if kind == "file":
        return load_cayley_table(arg)
    raise ValueError(f"unknown group spec {spec!r} (want sym:N or file:PATH)")


@dataclass
class ConjugacyData:
    """Conjugacy classes of a group, class 0 = {identity}."""

    class_of: list[int]
    representatives: list[int]
    sizes: list[int]
    inverse_class: list[int]
    labels: list[Partition] | None
    #: per element, a t with t * rep(class_of[x]) * t^-1 = x
    transversal: list[int]
    elements: list[list[int]] = field(default_factory=list)
    #: position of each element inside its class list
    pos_in_class: list[int] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.representatives)

    def label_strings(self) -> list[str]:
        if self.labels is not None:
            return [lam.label() for lam in self.labels]
        return [f"c{i}" for i in range(self.n_classes)]


def conjugacy_classes(g: GroupTable, gens: list[int] | None = None) -> ConjugacyData:
    """Orbit partition of G under conjugation.

    Orbits are expanded from a generating set (O(|G|*|gens|)); pass gens
    explicitly to override the group's own choice.
    """
    if gens is None:
        gens = g.generators()
    n = g.order
    class_of_raw = [-1] * n
    transversal = [-1] * n
    raw_classes: list[list[int]] = []
    for start in range(n):
        if class_of_raw[start] != -1:
            continue
        c = len(raw_classes)
        class_of_raw[start] = c
        transversal[start] = 0
        orbit = [start]
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for gen in gens:
                    y = g.conjugate(gen, x)
                    if class_of_raw[y] == -1:
                        class_of_raw[y] = c
                        transversal[y] = g.mul(gen, transversal[x])
                        orbit.append(y)
                        nxt.append(y)
            frontier = nxt
        raw_classes.append(orbit)

    order = _class_order(g, raw_classes)
    relabel = [0] * len(raw_classes)
    for new, old in enumerate(order):
        relabel[old] = new
    classes = [sorted(raw_classes[old]) for old in order]
    class_of = [relabel[c] for c in class_of_raw]
    representatives = [cls[0] for cls in classes]
    sizes = [len(cls) for cls in classes]

    # Re-anchor transversals on the sorted representative of each class.
    transversal2 = [-1] * n
    for cls in classes:
        rep = cls[0]
        t_rep = transversal[rep]
        t_rep_inv = g.inv(t_rep)
        for x in cls:
            transversal2[x] = g.mul(transversal[x], t_rep_inv)

    inverse_class = [class_of[g.inv(r)] for r in representatives]
    labels = None
    if isinstance(g, SymmetricGroup):
        labels = [cycle_type(g.elements[r]) for r in representatives]
        expected = partitions_of(g.n)
        if labels != expected:
            raise AssertionError("class labels out of order for symmetric group")
    pos_in_class = [-1] * n
    for cls in classes:
        for i, x in enumerate(cls):
            pos_in_class[x] = i
    return ConjugacyData(
        class_of=class_of,
        representatives=representatives,
        sizes=sizes,
        inverse_class=inverse_class,
        labels=labels,
        transversal=transversal2,
        elements=classes,
        pos_in_class=pos_in_class,
    )


def _class_order(g: GroupTable, raw_classes: list[list[int]]) -> list[int]:
    """Identity class first; cycle-type order for S_n, else (size, min element)."""
    ids = range(len(raw_classes))
    if isinstance(g, SymmetricGroup):
        return sorted(ids, key=lambda c: cycle_type(g.elements[min(raw_classes[c])]))
    return sorted(
        ids,
        key=lambda c: (0 if min(raw_classes[c]) == 0 else 1, len(raw_classes[c]), min(raw_classes[c])),
    )


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
                raise AssertionError(f"class {lam} has {classes.sizes[c]} elements")
    plus = [g.order // size for size in classes.sizes]
    if not inversion_closed(classes):
        return plus, None
    squares = np.fromiter((g.mul(x, x) for x in range(g.order)), dtype=np.int64, count=g.order)
    roots = np.bincount(squares, minlength=g.order)
    minus = [int(roots[g.mul(rep, rep)]) for rep in classes.representatives]
    return plus, minus


def centralizer_elements(g: GroupTable, x: int) -> list[int]:
    """All w in G with wx = xw."""
    return [w for w in range(g.order) if g.mul(w, x) == g.mul(x, w)]
