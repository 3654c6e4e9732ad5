"""Closure of the switching-product chain: T0, T1, ... until stationary.

The fast engine works blockwise in orbit coordinates: every switching
product commutes with the identity-stabilizer action, hence is constant on
its pair orbits, so the block of the algebra lives inside a space whose
dimension is the block's orbit count.  Products are evaluated at one
representative pair per orbit, and ranks are tracked mod two independent
primes below `fieldla.PRIME_HI`.  Every product has a length-1 generator as
its right factor, so its contraction with the middle class is an integer
table K on the orbital index, counted once per (target block, middle class)
and shared by both primes, every level and every closure.  A target block
whose tables are small also has a stacked table, every middle class's K on
its rows, counted at once (`OrbitalIndex.generator_table` with nu None).

A closure is seeded with one vector of the diagonal block (c, c) per class
c of its support S.  Level 0 is one closure step from the seeds, each one
standing for the empty word: every seed times the length-1 generators
E_c* A_j E_k*.  Seeded with E_c*, the orbit-0 indicator, on every class, the
closure is T (Terwilliger, J. Algebraic Combin. 1992: T is spanned by
products of the E_i* A_j E_k*).  Seeded with the residues of an idempotent
e that is central in an algebra containing T, it is e*T, which
`wedderburn.algebra_times_idempotent_dim` sizes; e*T = e*T*e vanishes
outside S x S, S = {c : e_c != 0}, so only the blocks inside S x S are kept
and only the classes of S serve as middle classes.  Given T's stationary
closure under the same prime, block (i, m) of e*T steps only through the
classes nu of S that end an accepted word of T's block (i, m): each such
word is a word of block (i, nu) times a generator of (nu, m), and the
accepted words span T mod that prime, so e*T's block (i, m) is spanned by
its blocks (i, nu) times those generators.  The seeded closure thus reads
only generator tables that T's closure counted; T's closure records those
classes per block as it accepts words (`SwitchingClosure.word_ends`).

A span has one test, `Block.residual`: a vector's residual on the block's
free columns, zero exactly when the vector lies in the span.  A closure
step takes the residuals of every candidate of a (target block, middle
class) at once, as left @ residual(K) or as residual(left @ K), whichever
costs fewer multiply-adds, and eliminates within the batch on the free
columns alone.  Only the accepted candidates are then multiplied in full,
each left row by its one generator, for the block's `raw` rows, so the
accepted words are those a full product of every candidate would give.  A
product of residues by the counts K, left @ K, is one exact float64 matmul
(`chain_products`); a product of two residue arrays, left @ residual(K) and
each residual, is int64 `modmul`.

Within a step, a block visits its middle classes nu richest first: in
decreasing order of the candidates nu offers, the frontier rows of (i, nu)
times the generators of (nu, m), ties to the lower class
(`SwitchingClosure.middle_order`).  Every order spans the same level and
so gives the same dimensions: level L is level L-1 plus level L-1 times
the generators, and the frontier rows that any order accepted complete
level L-2 to level L-1.  The richest classes fill a block in the fewest
batches, and a full block counts no further generator table.
`Block.insert_batch` eliminates a batch in one Gauss-Jordan pass, reducing
mod p only as often as the int64 bound in its docstring needs, and updates
the stored rows once per batch, in one `modmul`: a delayed update, as in
the blocked rank-profile elimination of Jeannerod, Pernet and Storjohann
(J. Symbolic Comput. 2013).

A visit (`SwitchingClosure._visit`) takes one middle class or several.
One class multiplies its frontier rows by its own table K.  A small target,
whose stacked table holds at most TARGET_TABLE_MAX counts, visits its
richest class alone, which often fills it, and the rest in one visit: the
block diagonal of their frontier rows, class after class, times the
stacked table is one product, one residual and one batch.  The batch
inserts its rows in order, and the candidates of a relation outside a
class's block are zero rows, which never grow the rank, so it accepts the
words, raw rows and ranks of visiting those classes one by one.  Once the
stacked table is counted, the richest class joins that visit.  A closure
that T's closure restricts batches only then, so it counts no table of its
own.  On groups with many classes and small blocks, such as AGL(1,23) (23
classes, 1.9 orbits per block on average), this saves a visit per class.

T is closed under transposition: E_i* is symmetric and A_j^T = A_j', j'
the class of inverses.  So is every level of e*T for a symmetric e central
in an algebra containing T, as (e x)^T = x^T e = e x^T.  So block (k, i) of
every level is block (i, k) transposed, and only the blocks with i <= k
are closed.  A lower block is derived, never stored: its rows are
the upper block's rows placed through the orbit permutation
`OrbitalIndex.transposition`, its words the upper words reversed with
inverse relations, its rank the upper rank.  A closure step therefore
takes a left factor (i, nu) with i > nu from block (nu, i).  The progress
lines name the closed blocks alone; the growth that `extend_level` returns
has every block, a lower one mirroring its upper one.

`SwitchingClosure.close` extends level after level until one adds nothing,
for T and for every seeded closure alike.  Rank mod p is at most rank over
Q, so the words a prime accepts are independent over Q and every dimension
found is an exact lower bound.  The upper bound is not proved: it rests on
the two primes agreeing, since the Q-span of the accepted words could in
principle fail to be closed while their span mod p is closed.  Every number
read off the two closures (the level tables, membership, the atoms, dim(T*e))
is compared in one place, `ClosureResult.agree`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import fieldla
from .fieldla import FieldCtx, modmul, sample_primes
from .groups import ReconciliationError
from .orbitals import OrbitalIndex
from .scheme import ClassScheme, conj_centralizer_dim, dim_T0, intersection_numbers
from .tables import BlockDimTable

Word = tuple[tuple[int, int, int], ...]

#: updates of `Block.insert_batch`'s working array between its reductions mod p
REDUCE_EVERY = 64
#: the most counts a stacked table holds for its block, a small target, to
#: batch its middle classes (`SwitchingClosure._step`)
TARGET_TABLE_MAX = 4096


class ClosureError(RuntimeError):
    pass


class Block:
    """Fully reduced echelon state of one (i,k) block under one prime.

    The block has `r` orbits, so at most `r` independent rows.  `pivots` is an
    (r,) array and `rows`, `raw` are (r, r) arrays mod p, filled up to `rank`:
    rows[s, pivots[t]] is 1 if s == t and 0 otherwise, and `is_free` marks
    the other r - rank columns, the free ones.  A span has one test,
    `residual`: a vector's residual on the free columns, zero exactly when the
    vector lies in the span; `insert_batch` takes such residuals and grows
    the rows.  `raw` and `words` are provenance, written by the caller for the
    indices `insert_batch` returns: raw[:s+1] (the candidates that grew the
    rank, reduced mod p) spans the same space as rows[:s+1].
    """

    __slots__ = ("r", "p", "rank", "pivots", "is_free", "rows", "raw", "words")

    def __init__(self, r: int, p: int):
        if p >= fieldla.PRIME_HI:
            raise ValueError(f"prime {p} is not below {fieldla.PRIME_HI}: int64 rows overflow")
        self.r = r
        self.p = p
        self.rank = 0
        self.pivots = np.zeros(r, dtype=np.intp)
        self.is_free = np.ones(r, dtype=bool)
        self.rows = np.zeros((r, r), dtype=np.int64)
        self.raw = np.zeros((r, r), dtype=np.int64)
        self.words: list[Word] = []

    def residual(self, x: np.ndarray) -> np.ndarray:
        """x[..., free] - x[..., pivots] @ rows[:, free] mod p: zero exactly in the span.

        Entries of x are nonnegative and below PRIME_HI (residues or counts),
        as `modmul` needs.  The residual is linear in x, so the residuals of
        a product chain may be taken at either end of it.
        """
        k, free = self.rank, self.is_free.nonzero()[0]
        out = x[..., free].astype(np.int64, copy=False)
        if k:
            out = out - modmul(x[..., self.pivots[:k]], self.rows[:k][:, free], self.p)
        return out % self.p

    def insert_batch(self, residuals: np.ndarray) -> list[int]:
        """Insert rows, given by their residuals, in order; return the indices that grew rank.

        `residuals` is (n, r - rank), taken by `residual` against the current
        rows.  A row grows the rank exactly when it lies outside the span of
        the rows before it, and a batch with no such row returns at once.
        The batch is eliminated in one Gauss-Jordan pass over the free
        columns: the accepted rows stay at the top of a working array, the
        next row is the head, and each pivot clears its column from every
        other row at once, so the new rows end in reduced form.  The stored
        rows then lose the new pivot columns in one product, so rows, pivots
        and rank are those of inserting the rows one at a time.

        Reduction mod p is delayed.  A pivot reduces only the head row,
        which it normalizes, and its own column; every other entry only
        loses a product of two residues, at most (p - 1)^2, per update.  The
        whole array is reduced every REDUCE_EVERY = 64 updates, and when the
        head row reduces to zero; then the dead rows, those in the span, are
        dropped.  Entries start in [0, p), so between reductions they stay in
        [-64 (p - 1)^2, p), and 64 (p - 1)^2 + p < 64 * 2^56 = 2^62 < 2^63 for
        p < PRIME_HI = 2^28: int64 never overflows.
        """
        idx = residuals.any(axis=1).nonzero()[0]
        if not idx.size:
            return []
        p, free = self.p, self.is_free.nonzero()[0]
        work = residuals[idx]
        grown: list[int] = []
        cols: list[int] = []
        # rows [0, g) of `work` are accepted, each 1 on its pivot column, so a
        # reduction keeps them; once every free column is a pivot, no row is
        # left live
        g = updates = 0
        while g < len(work) and g < free.size:
            head = work[g] % p
            nonzero = head.nonzero()[0]
            if updates == REDUCE_EVERY or not nonzero.size:
                work %= p
                live = work.any(axis=1)
                work, idx = work[live], idx[live]
                updates = 0
                continue
            # head is zero on the pivot columns so far, so j is a new one
            j = int(nonzero[0])
            v = head * pow(int(head[j]), -1, p) % p
            # the head row takes part and is then replaced by v
            col = work[:, j] % p
            work[:, j:] -= col[:, None] * v[j:]
            work[g] = v
            grown.append(int(idx[g]))
            cols.append(j)
            g += 1
            updates += 1
        new_rows = work[:g] % p
        k, piv = self.rank, free[cols]
        coef = self.rows[:k, piv]
        if coef.any():
            self.rows[:k, free] = (self.rows[:k, free] - modmul(coef, new_rows, p)) % p
        self.rows[k : k + g, free] = new_rows
        self.pivots[k : k + g] = piv
        self.is_free[piv] = False
        self.rank = k + g
        return grown


class SwitchingClosure:
    """Switching basis of one prime: trackers of the blocks on and above the diagonal.

    The scheme is the one `orbindex` was built from.  `seed` maps each class
    c of the support to a vector of block (c, c) mod p; by default it is
    E_c*, the orbit-0 indicator, on every class, and the closure is T.  Only
    the blocks (i, k) with i, k in the support exist.  Block (k, i) of every
    level is block (i, k) transposed, so only blocks with i <= k keep a
    `Block`; `block_rows` derives a lower block's rows and words from its
    upper one.

    `t_closure`, T's stationary closure under the same prime, restricts the
    middle classes of block (i, m) to those ending an accepted word of T's
    block (i, m), as the module docstring proves; every closure records
    those classes in `word_ends` as it accepts words.
    """

    def __init__(
        self,
        orbindex: OrbitalIndex,
        fieldctx: FieldCtx,
        seed: dict[int, np.ndarray] | None = None,
        t_closure: SwitchingClosure | None = None,
    ):
        if t_closure is not None:
            # T's accepted words span T mod their own prime alone
            if t_closure.field.p != fieldctx.p:
                raise ClosureError(
                    f"T closure under prime {t_closure.field.p} cannot restrict "
                    f"a closure under prime {fieldctx.p}"
                )
            if not t_closure.stationary:
                raise ClosureError("the T closure restricting the middle classes is not stationary")
        self.orbindex = orbindex
        self.field = fieldctx
        self.level = -1
        nc = orbindex.n_classes
        if seed is None:
            seed = {c: np.eye(1, orbindex.r[(c, c)], dtype=np.int64)[0] for c in range(nc)}
        self.support = sorted(seed)
        self.blocks: dict[tuple[int, int], Block] = {
            (i, k): Block(orbindex.r[(i, k)], fieldctx.p)
            for i in self.support
            for k in self.support
            if i <= k
        }
        #: (i, m), every upper block -> the classes nu ending its accepted words
        self.word_ends: dict[tuple[int, int], set[int]] = {key: set() for key in self.blocks}
        support = np.array(self.support, dtype=np.intp)
        #: (i, m), every upper block -> its middle classes nu, in support order
        self.middle: dict[tuple[int, int], np.ndarray] = {key: support for key in self.blocks}
        #: whether T's closure restricts the middle classes, so that only
        #: the tables it counted are read
        self.restricted = t_closure is not None
        if t_closure is not None:
            for key in self.blocks:
                ends = t_closure.word_ends[key]
                self.middle[key] = support[[nu in ends for nu in self.support]]
        #: (i, k), every block that gained rows on the last level -> those raw
        #: rows and their words; before level 0, the seeds, each with the
        #: empty word
        self.frontier: dict[tuple[int, int], tuple[np.ndarray, list[Word]]] = {
            (c, c): (seed[c][None, :], [()]) for c in self.support
        }
        #: frontier_rows[i, k]: the number of rows of frontier[(i, k)]
        self.frontier_rows = np.zeros((nc, nc), dtype=np.int64)
        self.frontier_rows[self.support, self.support] = 1
        #: row i -> `_row_stack(i)` of this level's frontier
        self._row_stacks: dict[int, tuple[np.ndarray, np.ndarray, list[Word]]] = {}
        self.history: list[BlockDimTable] = []

    @property
    def stationary(self) -> bool:
        """The last level added nothing, so no further level adds anything."""
        return len(self.history) >= 2 and self.history[-1] == self.history[-2]

    @property
    def total_dim(self) -> int:
        return sum(b.rank * (1 if i == k else 2) for (i, k), b in self.blocks.items())

    def block_dims(self) -> BlockDimTable:
        nc = self.orbindex.n_classes
        dims = [[0] * nc for _ in range(nc)]
        for (i, k), blk in self.blocks.items():
            dims[i][k] = dims[k][i] = blk.rank
        return BlockDimTable(labels=self.orbindex.scheme.classes.label_strings(), dims=dims)

    def block_rows(
        self, key: tuple[int, int], rows: range | None = None
    ) -> tuple[np.ndarray, list[Word]]:
        """Raw rows mod p and words of block (i, k), all of them or those in `rows`.

        A lower block (i > k) is block (k, i) transposed row by row: its raw
        rows are block (k, i)'s placed through sigma_(k,i), and its words are
        block (k, i)'s reversed, each relation replaced by its inverse class.
        """
        i, k = key
        blk = self.blocks[(min(i, k), max(i, k))]
        rows = range(blk.rank) if rows is None else rows
        raw, words = blk.raw[rows.start : rows.stop], blk.words[rows.start : rows.stop]
        if i <= k:
            return raw, words
        placed = np.empty_like(raw)
        placed[:, self.orbindex.transposition(k, i)] = raw
        inverse = self.orbindex.scheme.classes.inverse_class
        return placed, [transpose_word(w, inverse) for w in words]

    def _advance(self, ranges: dict[tuple[int, int], range]) -> None:
        """Close a level: the frontier becomes the blocks' new rows, lower ones derived."""
        self.frontier = {}
        self._row_stacks = {}
        for (i, k), rows in ranges.items():
            self.frontier_rows[i, k] = self.frontier_rows[k, i] = len(rows)
            if rows:
                self.frontier[(i, k)] = self.block_rows((i, k), rows)
                if i < k:
                    self.frontier[(k, i)] = self.block_rows((k, i), rows)
        self.level += 1
        self.history.append(self.block_dims())

    def generate_t0(self) -> dict[tuple[int, int], int]:
        """Level 0: one closure step from the seeds, without progress lines; returns its growth."""
        if self.level >= 0:
            raise ClosureError("level 0 already generated")
        return self._step()

    def _block_order(self, key: tuple[int, int]):
        sizes = self.orbindex.scheme.classes.sizes
        return (sizes[key[0]] * sizes[key[1]], key)

    def middle_order(self, key: tuple[int, int]) -> list[int]:
        """The middle classes nu that offer block (i, m) candidates this step, most first.

        Class nu offers the frontier rows of (i, nu) times the generators of
        (nu, m); ties go to the lower class.  Every order spans the same
        level, and the richest classes fill a block in the fewest batches.
        """
        i, m = key
        middle = self.middle[key]
        offered = self.frontier_rows[i, middle] * self.orbindex.n_relations[middle, m]
        offering = offered.nonzero()[0]
        return middle[offering[(-offered[offering]).argsort(kind="stable")]].tolist()

    def extend_level(self, progress=None) -> dict[tuple[int, int], int]:
        """One closure step after level 0; returns the growth of every block."""
        if self.level < 0:
            raise ClosureError("generate level 0 first")
        return self._step(progress)

    def close(self, progress=None) -> int:
        """Extend level after level until a level adds nothing; returns the width.

        Level 0 is generated first unless it already is, and a stationary
        closure is left as it is.  The width is the number of levels after
        level 0 that grew.  The loop terminates: each level before the last
        raises the total rank, which the orbit total bounds.
        """
        if self.level < 0:
            self.generate_t0()
        while not self.stationary:
            self.extend_level(progress=progress)
        return self.level - 1

    def _step(self, progress=None) -> dict[tuple[int, int], int]:
        """One closure step: frontier rows times length-1 generators.

        Only the blocks (i, m) with i <= m are closed; a left factor (i, nu)
        with i > nu is derived from block (nu, i).  A block visits its middle
        classes in runs, `_visit` once per run, and stops when full: one class
        per run, or, for a small target, the richest class and then the rest,
        or every class at once when its stacked table is counted.  The
        returned growth has every block, a lower one mirroring its upper one.
        """
        labels = self.orbindex.scheme.classes.label_strings()
        nc, stacked_rows = self.orbindex.n_classes, self.orbindex.row_starts[:, -1].tolist()
        start = time.monotonic()
        growth: dict[tuple[int, int], int] = {}
        ranges: dict[tuple[int, int], range] = {}
        for key in sorted(self.blocks, key=self._block_order):
            i, m = key
            blk = self.blocks[key]
            before = blk.rank
            order = self.middle_order(key)
            small = stacked_rows[i] * nc * blk.r <= TARGET_TABLE_MAX
            if small and self.orbindex.has_target_table(key):
                runs = [order]
            elif small and not self.restricted:
                # the richest class alone often fills a small target, and its
                # own table is often counted already
                runs = [order[:1], order[1:]]
            else:
                runs = [[nu] for nu in order]
            for run in runs:
                if blk.rank == blk.r or not run:
                    break
                self._visit(key, run)
            growth[key] = growth[(m, i)] = blk.rank - before
            ranges[key] = range(before, blk.rank)
            if progress is not None and growth[key]:
                progress(
                    self.field.p,
                    self.level + 1,
                    f"({labels[i]},{labels[m]})",
                    blk.rank,
                    time.monotonic() - start,
                )
        self._advance(ranges)
        return growth

    def _visit(self, key: tuple[int, int], classes: list[int]) -> None:
        """Insert the frontier rows of (i, nu), nu in `classes`, times the generators of (nu, m).

        One class multiplies its frontier rows by its own table.  Several
        multiply the block diagonal of their rows, class after class, by the
        stacked table: candidate (s, j) is row s, of class nu, times relation
        j, zero unless j is a relation of block (nu, m).
        """
        i, m = key
        p, nc, blk = self.field.p, self.orbindex.n_classes, self.blocks[key]
        if len(classes) == 1:
            nu = classes[0]
            # the previous level's rows only, even if (i,nu) grew this level
            left, words = self.frontier[(i, nu)]
            js = self.orbindex.block_relations[(nu, m)]
        else:
            nu = None
            stack, stack_class, words = self._row_stack(i)
            place = np.full(nc, nc)
            place[classes] = np.arange(len(classes))
            rows = place[stack_class].argsort(kind="stable")[: self.frontier_rows[i, classes].sum()]
            left, js = stack[rows], np.arange(nc)
        table = self.orbindex.generator_table(key, nu)
        ra, n2, r = table.shape
        n, k, f = len(left), blk.rank, r - blk.rank
        # candidate (a, c) is left[a] @ K[:, c, :] and the residual is linear,
        # so the n * n2 residuals are left @ residual(K) as well as
        # residual(left @ K): one class associates the chain whichever way
        # needs fewer multiply-adds per generator; several multiply first, one
        # product by a small table, not one per accepted relation to fill `raw`
        if nu is not None and ra * f * (k + n) < n * (ra * r + k * f):
            prods = None
            res = modmul(left, blk.residual(table).reshape(ra, n2 * f), p)
        else:
            prods = chain_products(self.orbindex, key, nu, left, p)
            res = blk.residual(prods)
        grown = blk.insert_batch(res.reshape(n * n2, f))
        if not grown:
            return
        a, c = np.divmod(grown, n2)
        # `raw` needs the accepted candidates in full: after the kernel test
        # only they are multiplied, each left row by its one generator
        if prods is None:
            blk.raw[k : blk.rank] = chain_products(self.orbindex, key, nu, left[a], p, c)[:, 0]
        else:
            blk.raw[k : blk.rank] = prods[a, c]
        # the accepted candidates' rows in `words`, and their classes
        at = a if nu is not None else rows[a]
        nus = [nu] * len(a) if nu is not None else stack_class[at].tolist()
        for s, nu, j in zip(at.tolist(), nus, js[c].tolist()):
            blk.words.append(words[s] + ((nu, j, m),))
        self.word_ends[key].update(nus)

    def _row_stack(self, i: int) -> tuple[np.ndarray, np.ndarray, list[Word]]:
        """The frontier rows of (i, 0), (i, 1), ... as a block diagonal on stacked-table rows.

        Returns the block diagonal, each row's class and each row's word;
        built once per level and row i, when a target of row i first needs it.
        """
        stack = self._row_stacks.get(i)
        if stack is None:
            counts = self.frontier_rows[i]
            starts = self.orbindex.row_starts[i]
            left = np.zeros((counts.sum(), starts[-1]), dtype=np.int64)
            words: list[Word] = []
            for nu in counts.nonzero()[0].tolist():
                rows, nu_words = self.frontier[(i, nu)]
                left[len(words) : len(words) + len(rows), starts[nu] : starts[nu + 1]] = rows
                words += nu_words
            row_class = np.repeat(np.arange(self.orbindex.n_classes), counts)
            stack = self._row_stacks[i] = (left, row_class, words)
        return stack


def transpose_word(word: Word, inverse_class: list[int]) -> Word:
    """The word of the transposed product: E_i* A_j E_k* ... reversed, each A_j -> A_j'."""
    return tuple((b, inverse_class[j], a) for a, j, b in reversed(word))


def chain_products(
    orbindex: OrbitalIndex,
    target: tuple[int, int],
    nu: int | None,
    left: np.ndarray,
    p: int,
    generators: np.ndarray | None = None,
) -> np.ndarray:
    """Products of orbit-constant blocks: (left in (i,nu)) x (generators of (nu,m)).

    The right factors are the length-1 generators of block (nu, m), in the
    order of `orbindex.block_relations[(nu, m)]`.  The product at target
    orbit t is the sum over z in C_nu of L(x_i, z) * A_j(z, y_t), at the
    orbit's representative pair (x_i, y_t): `left`, reduced mod p, times the
    counts K[a, j, t] of `OrbitalIndex.generator_table`, memoized across
    primes, levels and callers, in one float64 matmul through BLAS, reduced
    mod p after it.  With nu None, K is every class's table stacked, the
    same call with no class, and `left` a block diagonal of rows of blocks
    (i, nu) on its row axis; the generators are then every relation j.  It
    is exact: each dot product sums at most r(i, nu) nonzero nonnegative
    integers, of one class nu, to at most r(i, nu) * max(K) * (p - 1), below
    2^53 as the orbit index checked for every p < PRIME_HI when it counted
    the table, so every partial sum, in any order and with or without fused
    multiply-adds, is an integer float64 holds exactly.  The table, or each
    generator's slice of it, is converted to float64 once per call.  Returns
    an (n_left, n_generators, r_target) int64 array mod p; given
    `generators`, one generator index per left row, only left[s] times
    generator generators[s] is formed, one product per distinct generator,
    and the array is (n_left, 1, r_target).
    """
    if p >= fieldla.PRIME_HI:
        raise ValueError(f"prime {p} is not below {fieldla.PRIME_HI}: float64 products are inexact")
    table = orbindex.generator_table(target, nu)
    ra, n2, rt = table.shape
    left = (left % p).astype(np.float64)
    if generators is None:
        prods = left @ table.reshape(ra, n2 * rt).astype(np.float64)
    else:
        # one product per generator named: gathering K[:, c, :] for every
        # row instead takes ra * rt floats per row
        prods = np.empty((len(left), rt))
        for c in np.flatnonzero(np.bincount(generators)).tolist():
            pick = generators == c
            prods[pick] = left[pick] @ table[:, c].astype(np.float64)
    out = prods.astype(np.int64)
    out %= p
    return out.reshape(len(left), -1, rt)


@dataclass
class ClosureResult:
    """Two-prime stationary closure with its full level history."""

    orbindex: OrbitalIndex
    primes: tuple[int, int]
    closures: tuple[SwitchingClosure, SwitchingClosure]
    width: int
    tables: list[BlockDimTable] = field(default_factory=list)

    @property
    def dim_t0(self) -> int:
        return self.tables[0].total()

    @property
    def dim_t(self) -> int:
        return self.tables[-1].total()

    @property
    def dims_per_level(self) -> list[int]:
        return [t.total() for t in self.tables]

    @property
    def final_table(self) -> BlockDimTable:
        return self.tables[-1]

    def agree(self, what: str, value):
        """`value` of each prime's closure, the same under both, or a failed check.

        Every number the two-prime closure confirms goes through here: a
        disagreement raises `ReconciliationError` naming `what`.
        """
        first, second = (value(closure) for closure in self.closures)
        if first != second:
            raise ReconciliationError(
                "two_prime_agreement",
                f"{what}: the working primes {self.primes} disagree",
            )
        return first


def generate_T0(orbindex: OrbitalIndex, fieldctx: FieldCtx) -> SwitchingClosure:
    """Level 0 of T, checked: one independent generator per relation, p_ij^k's count."""
    closure = SwitchingClosure(orbindex, fieldctx)
    closure.generate_t0()
    for key, blk in closure.blocks.items():
        if blk.rank != len(orbindex.block_relations[key]):
            raise ReconciliationError(
                "t0_generators_independent",
                f"length-1 generators of block {key} are not independent",
            )
    tensor_dim = dim_T0(intersection_numbers(orbindex.scheme))
    if closure.total_dim != tensor_dim:
        raise ReconciliationError(
            "t0_dimension_matches_tensor",
            f"level-0 dimension {closure.total_dim} != {tensor_dim} nonzero p_ij^k",
        )
    return closure


def run_to_stationary(
    scheme: ClassScheme,
    orbindex: OrbitalIndex | None = None,
    *,
    seed: int = 0,
    primes: tuple[int, int] | None = None,
    bounds: BlockDimTable | None = None,
    progress=None,
) -> ClosureResult:
    """Close the chain under two primes and cross-check every level.

    Each prime's closure of T runs to stationarity (`SwitchingClosure.close`)
    before the next prime's level 0.  The two primes must agree on every
    level's table (`ClosureResult.agree`); sampled primes that disagree are
    replaced once by a fresh pair, and a second disagreement, or any under
    explicit primes, is raised.  `bounds`, if given, is only checked, after
    the primes agree: a final block dimension above its bound raises
    `ClosureError` naming the block.  The closures read the scheme off the
    orbit index, so a given `orbindex` must be built from `scheme`.
    """
    if orbindex is None:
        orbindex = OrbitalIndex(scheme)
    elif orbindex.scheme is not scheme:
        raise ValueError("the orbit index was built from another scheme")
    avoid = 2 * scheme.group.order
    for attempt in range(2):
        pair = primes if primes is not None else sample_primes(seed + attempt, 2, avoid)
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ValueError("need two distinct primes")
        # FieldCtx validates each prime (odd, below PRIME_HI) before the test
        fields = [FieldCtx(p) for p in pair]
        for p in pair:
            if avoid % p == 0:
                raise ValueError(f"prime {p} divides twice the group order")
        closures = []
        for fieldctx in fields:
            closures.append(generate_T0(orbindex, fieldctx))
            # equal histories, checked below, make equal widths
            width = closures[-1].close(progress)
        result = ClosureResult(
            orbindex, tuple(pair), tuple(closures), width, list(closures[0].history)
        )
        try:
            result.agree("dimension tables", lambda closure: closure.history)
        except ReconciliationError as err:
            if primes is not None:
                raise
            if attempt:
                raise ReconciliationError(
                    err.check, f"{err}; a fresh prime pair also disagreed"
                ) from err
        else:
            break
    if bounds is not None:
        final = result.final_table
        for (a, la), (b, lb) in itertools.product(enumerate(final.labels), repeat=2):
            if final.dims[a][b] > bounds.get(la, lb):
                raise ClosureError(
                    f"block ({la},{lb}) has dimension {final.dims[a][b]} "
                    f"above its bound {bounds.get(la, lb)}"
                )
    return result


@dataclass(frozen=True)
class TripleRegularity:
    triply_regular: bool
    triply_transitive: bool


def triple_regularity(result: ClosureResult) -> TripleRegularity:
    """T0 = T, and additionally T0 = conjugation centralizer."""
    centr = conj_centralizer_dim(result.orbindex.scheme)
    regular = result.dim_t0 == result.dim_t
    transitive = result.dim_t0 == centr
    if transitive and not regular:
        raise ReconciliationError("triple_regularity", "triply transitive requires triply regular")
    return TripleRegularity(triply_regular=regular, triply_transitive=transitive)
