"""Orbits of the identity-stabilizer action on G and on G x G.

The stabilizer of the identity in the scheme's automorphism group contains
conjugation by every group element, plus inversion when all classes are
inversion-closed.  Its orbit counts on ordered pairs give the centralizer
algebra dimension blockwise; the per-pair orbit index computed here is also
the coordinate system of the fast closure engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .groups import ReconciliationError, fixed_point_counts, inversion_closed
from .scheme import ClassScheme, IntersectionTensor
from .tables import BlockDimTable


@dataclass
class H1Action:
    """Generators of the identity-stabilizer as permutations of element ids."""

    conj_gens: list[np.ndarray]
    inversion: np.ndarray | None

    def all_gens(self) -> list[np.ndarray]:
        gens = list(self.conj_gens)
        if self.inversion is not None:
            gens.append(self.inversion)
        return gens


def build_h1_action(s: ClassScheme) -> H1Action:
    g = s.group
    every = np.arange(g.order)
    conj = [g.conjugate(gen, every) for gen in g.generators()]
    inv = g.inv(every) if inversion_closed(s.classes) else None
    for arr in conj + ([inv] if inv is not None else []):
        if arr[0] != 0:
            raise AssertionError("stabilizer generator does not fix the identity")
    return H1Action(conj_gens=conj, inversion=inv)


def _invert_perm(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(len(p), dtype=p.dtype)
    return out


def _block_orbits(perm_pairs: list[np.ndarray], m: int) -> np.ndarray:
    """Min-label propagation with pointer jumping; labels = min orbit index."""
    labels = np.arange(m, dtype=np.int64)
    while True:
        before = labels.copy()
        for pp in perm_pairs:
            np.minimum(labels, labels[pp], out=labels)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(before, labels):
            return labels


class OrbitalIndex:
    """Per-block orbit data of the stabilizer acting on ordered pairs."""

    def __init__(self, scheme: ClassScheme, action: H1Action | None = None, seed: int = 0):
        if action is None:
            action = build_h1_action(scheme)
        self.scheme = scheme
        self.action = action
        cls = scheme.classes
        nc = cls.n_classes
        self.n_classes = nc
        self.class_elems = [np.array(e, dtype=np.int64) for e in cls.elements]

        gens = action.all_gens()
        gens = gens + [_invert_perm(p) for p in gens]
        # generator action restricted to each class, in position coordinates
        pos = cls.pos_in_class
        cpos = [[pos[p[elems]] for elems in self.class_elems] for p in gens]

        self.block_labels: dict[tuple[int, int], np.ndarray] = {}
        self.block_counts: dict[tuple[int, int], np.ndarray] = {}
        self.block_reps: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self.block_rel: dict[tuple[int, int], np.ndarray] = {}
        self.r: dict[tuple[int, int], int] = {}

        rng = random.Random(f"orbitals:{seed}")
        for i in range(nc):
            si = cls.sizes[i]
            for k in range(nc):
                sk = cls.sizes[k]
                perm_pairs = [
                    (cpos[gi][i][:, None] * sk + cpos[gi][k][None, :]).ravel()
                    for gi in range(len(gens))
                ]
                labels = _block_orbits(perm_pairs, si * sk)
                uniq, local, counts = np.unique(
                    labels, return_inverse=True, return_counts=True
                )
                px, py = np.divmod(uniq, sk)
                self.block_labels[(i, k)] = local.reshape(si, sk).astype(np.int32)
                self.block_counts[(i, k)] = counts.astype(np.int64)
                self.block_reps[(i, k)] = (px, py)
                self.r[(i, k)] = len(uniq)
                ei, ek = self.class_elems[i], self.class_elems[k]
                rel = scheme.relation_of(ei[px], ek[py]).astype(np.int32)
                self.block_rel[(i, k)] = rel
                # orbits must refine relations: spot-check random members
                for _ in range(min(3 * len(uniq), 60)):
                    a = rng.randrange(si)
                    b = rng.randrange(sk)
                    t = self.block_labels[(i, k)][a, b]
                    if scheme.relation_of(int(ei[a]), int(ek[b])) != rel[t]:
                        raise AssertionError(
                            f"orbit {t} of block ({i},{k}) crosses relations"
                        )

        self.total = sum(self.r.values())
        self.diag_pair_counts: dict[int, np.ndarray] = {}
        for i in range(nc):
            lab = self.block_labels[(i, i)]
            diag = lab[np.arange(cls.sizes[i]), np.arange(cls.sizes[i])]
            self.diag_pair_counts[i] = np.bincount(diag, minlength=self.r[(i, i)])

    def validate_against_tensor(self, t: IntersectionTensor) -> None:
        """Orbit sizes bucketed by relation must reproduce |C_k| * p_ij^k."""
        cls = self.scheme.classes
        for (i, k), rel in self.block_rel.items():
            counts = self.block_counts[(i, k)]
            per_rel = {}
            for tt, j in enumerate(rel):
                per_rel[int(j)] = per_rel.get(int(j), 0) + int(counts[tt])
            for j in range(self.n_classes):
                if per_rel.get(j, 0) != cls.sizes[k] * t.get(i, j, k):
                    raise ReconciliationError(
                        "orbit_sizes_match_tensor",
                        f"orbit sizes at block ({i},{k}) rel {j} disagree with p_ij^k",
                    )

    def table(self) -> BlockDimTable:
        labels = self.scheme.classes.label_strings()
        nc = self.n_classes
        dims = [[self.r[(i, k)] for k in range(nc)] for i in range(nc)]
        return BlockDimTable(labels=labels, dims=dims)


def orbital_table(scheme_or_index: ClassScheme | OrbitalIndex) -> BlockDimTable:
    """Counts of stabilizer orbits on C_mu x C_lam, per ordered class pair."""
    index = (
        scheme_or_index
        if isinstance(scheme_or_index, OrbitalIndex)
        else OrbitalIndex(scheme_or_index)
    )
    return index.table()


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
        raise AssertionError("orbit-counting average is not an integer")
    return q


def element_orbit_count(s: ClassScheme) -> int:
    """Orbits of the stabilizer on G itself (single-copy action)."""
    action = build_h1_action(s)
    parent = list(range(s.group.order))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in action.all_gens():
        for x in range(s.group.order):
            ra, rb = find(x), find(int(p[x]))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return sum(1 for x in range(s.group.order) if find(x) == x)
