"""Orbits of the identity-stabilizer on G x G, anchored at class representatives.

The stabilizer H of the identity in the scheme's automorphism group contains
conjugation by every group element, plus y -> y^-1 when all classes are
inversion-closed.  It maps every class C_i onto itself, transitively, so its
orbits on C_i x C_k correspond one to one with the orbits of Stab_H(x_i) on
C_k, x_i the representative of C_i: the suborbits (orbitals; Dixon-Mortimer,
Permutation Groups, 1996).  The index therefore keeps one label row per
block, the orbit of each pair (x_i, y), nc * |G| labels in all instead of
|G|^2; the label of any pair (x, y) is read off the row as that of
(x_i, t^-1 y t) with t = transversal[x].

Its orbit counts on ordered pairs give the centralizer algebra dimension
blockwise, and the orbits are the coordinate system of the fast closure
engine.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .fieldla import FLOAT64_EXACT, PRIME_HI
from .groups import (
    ReconciliationError,
    centralizer_elements,
    fixed_point_counts,
    inversion_closed,
    subgroup_generators,
)
from .scheme import ClassScheme, IntersectionTensor
from .tables import BlockDimTable


def _invert_perm(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(len(p), dtype=p.dtype)
    return out


def _block_orbits(perms: list[np.ndarray], m: int) -> np.ndarray:
    """Min-label propagation with pointer jumping; labels = min orbit index."""
    labels = np.arange(m, dtype=np.int64)
    while True:
        before = labels.copy()
        for pp in perms:
            np.minimum(labels, labels[pp], out=labels)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(before, labels):
            return labels


def _stabilizer_perms(scheme: ClassScheme, x: int, centralizer: np.ndarray) -> list[np.ndarray]:
    """Permutations of G generating Stab_H(x), with their inverses.

    Conjugation by generators of the centralizer C_G(x), given by its
    increasing elements, and, when the classes are inversion-closed,
    y -> h0 y^-1 h0^-1 with h0 x^-1 h0^-1 = x.
    """
    g = scheme.group
    cls = scheme.classes
    every = np.arange(g.order)
    perms = [g.conjugate(c, every) for c in subgroup_generators(g, centralizer)]
    if inversion_closed(cls):
        h0 = g.inv(cls.transversal[g.inv(x)])
        perms.append(g.conjugate(h0, g.inv(every)))
    return perms + [_invert_perm(p) for p in perms]


class OrbitalIndex:
    """Per-block orbit data of the stabilizer acting on ordered pairs.

    Orbits of block (i, k) are numbered by their least position in the
    anchored row, and block_reps[(i, k)][t] is that position: orbit t is
    represented by the pair (x_i, classes.elements[k][block_reps[(i, k)][t]]).
    The class representatives are the least elements of their classes, so
    orbit 0 of a diagonal block (c, c) is that of (x_c, x_c): the diagonal.
    """

    # `seed` is unused; bench/workloads.py still passes it, so it goes with
    # the next change there
    def __init__(self, scheme: ClassScheme, seed: int = 0):
        g = scheme.group
        # the premise of exact float64 products (`switching.chain_products`)
        if g.order * (PRIME_HI - 1) >= FLOAT64_EXACT:
            raise ValueError(
                f"group order {g.order} is too large for exact float64 products: "
                "order * (PRIME_HI - 1) must stay below 2^53"
            )
        self.scheme = scheme
        cls = scheme.classes
        nc = cls.n_classes
        self.n_classes = nc
        #: per class, the centralizer of its representative, increasing: read
        #: by the stabilizers here and by the idempotents' coset sums
        self.centralizers = [centralizer_elements(g, x) for x in cls.representatives]

        #: row i: the orbit label of (x_i, y) for each y, the classes in turn,
        #: as stacked tables read it; (i, k) -> its part of row i, each y in
        #: C_k by position
        self._row_labels = np.empty((nc, g.order), dtype=np.int32)
        self.block_labels: dict[tuple[int, int], np.ndarray] = {}
        self.block_counts: dict[tuple[int, int], np.ndarray] = {}
        self.block_reps: dict[tuple[int, int], np.ndarray] = {}
        self.block_rel: dict[tuple[int, int], np.ndarray] = {}
        self.r: dict[tuple[int, int], int] = {}
        #: (target, nu) -> `generator_table(target, nu)`, nu None for the
        #: stacked table
        self._tables: dict[tuple[tuple[int, int], int | None], np.ndarray] = {}
        #: the class of each element's inverse, in the group's lookup form,
        #: and every class as right factors: read by every generator table
        inverse = np.asarray(cls.inverse_class, dtype=np.min_scalar_type(nc))
        self._inverse_classes = g.lookup_table(inverse[cls.class_of])
        self._right_factors = [g.right_factors(elems) for elems in cls.elements]
        self._transpositions: dict[tuple[int, int], np.ndarray] = {}

        # rel_rows[i, y] = relation of (x_i, y) = class of x_i^-1 y
        rel_rows = cls.class_of[g.mul_outer(g.inv(cls.representatives), np.arange(g.order))]
        ends = np.cumsum(cls.sizes)
        for i, x in enumerate(cls.representatives):
            labels = _block_orbits(_stabilizer_perms(scheme, x, self.centralizers[i]), g.order)
            rel_row = rel_rows[i]
            for k in range(nc):
                elems = cls.elements[k]
                uniq, local, counts = np.unique(
                    labels[elems], return_inverse=True, return_counts=True
                )
                py = cls.pos_in_class[uniq]
                rel = rel_row[elems[py]].astype(np.int32)
                # the relation is H-invariant and every orbit meets the
                # anchored row, so this covers every pair of the block
                if not np.array_equal(rel[local], rel_row[elems]):
                    raise ReconciliationError(
                        "orbits_refine_relations",
                        f"an orbit of block ({i},{k}) crosses relations",
                    )
                self.block_labels[(i, k)] = self._row_labels[i, ends[k] - len(elems) : ends[k]]
                self.block_labels[(i, k)][:] = local
                self.block_counts[(i, k)] = cls.sizes[i] * counts
                self.block_reps[(i, k)] = py
                self.block_rel[(i, k)] = rel
                self.r[(i, k)] = len(uniq)

        self.total = sum(self.r.values())
        #: (i, k) -> the relations met in block (i, k), increasing: the order of
        #: its length-1 generators and of the relation axis of generator tables
        self.block_relations: dict[tuple[int, int], np.ndarray] = {
            key: np.flatnonzero(np.bincount(rel)).astype(rel.dtype)
            for key, rel in self.block_rel.items()
        }
        #: n_relations[nu, m]: the number of length-1 generators of block (nu, m)
        self.n_relations = np.zeros((nc, nc), dtype=np.int64)
        for (nu, m), js in self.block_relations.items():
            self.n_relations[nu, m] = len(js)
        #: row_starts[i, nu]: where block (i, nu) starts on the row axis of the
        #: stacked tables of row i, r(i, 0) + ... + r(i, nu - 1); nu = nc ends it
        self.row_starts = np.zeros((nc, nc + 1), dtype=np.intp)
        for (i, nu), r in self.r.items():
            self.row_starts[i, nu + 1] = r
        np.cumsum(self.row_starts, axis=1, out=self.row_starts)

    def generator_table(self, target: tuple[int, int], nu: int | None = None) -> np.ndarray:
        """Block (i, nu) contracted with the length-1 generators of block (nu, m).

        K[a, c, t] = #{z in C_nu : orbit(x_i, z) = a, rel(z, y_t) = js[c]},
        js = block_relations[(nu, m)] and y_t the representative of target
        orbit t: structure constants of the coherent configuration (Higman,
        1975).  With nu None, every class's table stacked: K[starts[nu] + a,
        j, t], starts = row_starts[i], the row axis over the orbits of blocks
        (i, 0), (i, 1), ... in turn and the relation axis over every relation
        j, since z^-1 y_t meets every class as z runs over G.  So its rows
        starts[nu] to starts[nu + 1], restricted to js, are class nu's table,
        and the other relations are zero there.  Tables depend on neither the
        prime nor the closure level, so each is memoized, in the narrowest
        unsigned dtype holding its maximum.  Its products with residues are
        exact in float64 for every group the index accepts, as
        `switching.chain_products` proves.
        """
        key = (target, nu)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self._count_table(target, nu)
        return table

    def has_target_table(self, target: tuple[int, int]) -> bool:
        """Whether `generator_table(target)`, every class's table stacked, is counted already."""
        return (target, None) in self._tables

    @cached_property
    def _all_right_factors(self) -> np.ndarray:
        """Every element as right factors, the classes in turn: read by every stacked table."""
        return np.concatenate(self._right_factors, axis=-1)

    def _count_table(self, target: tuple[int, int], nu: int | None) -> np.ndarray:
        """K[a, c, t] summed over the elements z of class nu, or of G with nu None.

        The relation of (z, y_t) is the class of z^-1 y_t, the inverse of the
        class of y_t^-1 z: one lookup per product of the grid, then one
        bincount of bin (a, c, t) = (a * n_rel + c) * rt + t.
        """
        i, m = target
        cls, g = self.scheme.classes, self.scheme.group
        if nu is None:
            starts = self.row_starts[i]
            ra, right, js = int(starts[-1]), self._all_right_factors, np.arange(self.n_classes)
            # each element's orbit label, moved to the rows of its class
            labels = self._row_labels[i] + np.repeat(starts[:-1], cls.sizes)
        else:
            ra, right = self.r[(i, nu)], self._right_factors[nu]
            js, labels = self.block_relations[(nu, m)], self.block_labels[(i, nu)]
        n_rel, rt = len(js), self.r[target]
        itype = np.int32 if ra * n_rel * rt < 1 << 31 else np.int64
        # every relation of a pair in the table's blocks is in js
        rel_bins = np.zeros(self.n_classes, dtype=itype)
        rel_bins[js] = np.arange(n_rel) * rt
        y = cls.elements[m][self.block_reps[target]]
        bins = rel_bins.take(g.outer_lookup(g.inv(y), right, self._inverse_classes))
        bins += np.multiply(labels, n_rel * rt, dtype=itype)
        bins += np.arange(rt, dtype=itype)[:, None]
        counts = np.bincount(bins.ravel(), minlength=ra * n_rel * rt).reshape(ra, n_rel, rt)
        return counts.astype(np.min_scalar_type(counts.max()))

    def transposition(self, i: int, k: int) -> np.ndarray:
        """sigma_(i,k), i <= k: orbit t of block (i, k) -> the orbit of its transposed pairs.

        Orbit t is represented by (x_i, y_t), so sigma[t] is the orbit of
        (y_t, x_i) in block (k, i), read off the anchored row as the label of
        (x_k, s^-1 x_i s) with s = transversal[y_t].  A matrix of block (i, k)
        with orbit values v has a transpose with values w, w[sigma] = v.  It is
        checked when built: a bijection taking each relation j to its inverse
        class j', as A_j^T = A_j'.  Memoized and shared by both primes.
        """
        if i > k:
            raise ValueError(f"transposition ({i},{k}) is indexed by its upper block")
        key = (i, k)
        sigma = self._transpositions.get(key)
        if sigma is None:
            sigma = self._count_transposition(i, k)
            inverse = np.asarray(self.scheme.classes.inverse_class)
            r = self.r[(k, i)]
            if not (
                len(sigma) == r
                and (np.bincount(sigma, minlength=r) == 1).all()
                and np.array_equal(self.block_rel[(k, i)][sigma], inverse[self.block_rel[key]])
            ):
                raise ReconciliationError(
                    "transposition_preserves_relations",
                    f"transposition of block ({i},{k}) is no bijection onto ({k},{i}) "
                    "taking each relation to its inverse",
                )
            self._transpositions[key] = sigma
        return sigma

    def _count_transposition(self, i: int, k: int) -> np.ndarray:
        g, cls = self.scheme.group, self.scheme.classes
        s = cls.transversal[cls.elements[k][self.block_reps[(i, k)]]]
        z = g.conjugate(g.inv(s), cls.representatives[i])
        return self.block_labels[(k, i)][cls.pos_in_class[z]].astype(np.intp)

    def validate_against_tensor(self, t: IntersectionTensor) -> None:
        """Orbit sizes bucketed by relation must reproduce |C_k| * p_ij^k."""
        sizes = self.scheme.classes.sizes
        for (i, k), rel in self.block_rel.items():
            per_rel = np.bincount(
                rel, weights=self.block_counts[(i, k)], minlength=self.n_classes
            )
            bad = np.flatnonzero(per_rel != sizes[k] * t.p[i, :, k])
            if bad.size:
                raise ReconciliationError(
                    "orbit_sizes_match_tensor",
                    f"orbit sizes at block ({i},{k}) rel {bad[0]} disagree with p_ij^k",
                )

    def table(self) -> BlockDimTable:
        labels = self.scheme.classes.label_strings()
        nc = self.n_classes
        dims = [[self.r[(i, k)] for k in range(nc)] for i in range(nc)]
        return BlockDimTable(labels=labels, dims=dims)


def burnside_orbital_count(s: ClassScheme) -> int:
    """Orbit count on pairs via the orbit-counting lemma: avg of fix(h)^2.

    Counted classwise over the stabilizer's classes; one representative per
    group class, doubled by the inversion coset when classes are closed
    under inversion.
    """
    cls = s.classes
    plus, minus = fixed_point_counts(s.group, cls)
    total = sum(size * fp * fp for size, fp in zip(cls.sizes, plus))
    if minus is not None:
        total += sum(size * fm * fm for size, fm in zip(cls.sizes, minus))
    order_h = (1 if minus is None else 2) * s.group.order
    q, rem = divmod(total, order_h)
    if rem:
        raise ReconciliationError("burnside_integral", "orbit-counting average is not an integer")
    return q
