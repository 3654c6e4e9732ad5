"""Reference orbit data: the stabilizer's orbits on whole blocks.

The library keeps one label row per block, anchored at the class
representative.  The reference here is the per-block algorithm it replaced:
the stabilizer H of the identity is generated by conjugation with the
group's generators, plus inversion when every class is inversion-closed, and
min-label propagation runs on all |C_i| x |C_k| pairs of a block, numbering
the orbits by their least flat index.  It shares no orbit code with the
library and is feasible for small groups only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from terwilliger.groups import inversion_closed
from terwilliger.scheme import ClassScheme


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


@dataclass
class OracleBlock:
    """Orbits of H on one block C_i x C_k, in class-position coordinates."""

    #: (|C_i|, |C_k|) orbit numbers, numbered by least flat index
    labels: np.ndarray
    #: per orbit, the positions (px, py) of its least pair
    reps: tuple[np.ndarray, np.ndarray]
    #: per orbit, its number of pairs
    counts: np.ndarray


class BlockOracle:
    """Materializes the blocks of one scheme on demand, each once."""

    def __init__(self, s: ClassScheme):
        cls = s.classes
        self.sizes = cls.sizes
        gens = build_h1_action(s).all_gens()
        # each generator permutes every class; act on positions
        self.perms = [
            [cls.pos_in_class[p[np.array(elems, dtype=np.int64)]] for elems in cls.elements]
            for p in gens
        ]
        self._blocks: dict[tuple[int, int], OracleBlock] = {}

    def block(self, i: int, k: int) -> OracleBlock:
        if (i, k) not in self._blocks:
            self._blocks[(i, k)] = self._orbits(i, k)
        return self._blocks[(i, k)]

    def labels(self, i: int, k: int) -> np.ndarray:
        return self.block(i, k).labels

    def _orbits(self, i: int, k: int) -> OracleBlock:
        si, sk = self.sizes[i], self.sizes[k]
        pair_perms = [(p[i][:, None] * sk + p[k][None, :]).ravel() for p in self.perms]
        # least flat index reachable along generator images: orbits are
        # finite, so this is the least flat index of each orbit
        least = np.arange(si * sk)
        while True:
            before = least
            for pp in pair_perms:
                least = np.minimum(least, least[pp])
            if np.array_equal(before, least):
                break
        uniq, local, counts = np.unique(least, return_inverse=True, return_counts=True)
        return OracleBlock(
            labels=local.reshape(si, sk),
            reps=np.divmod(uniq, sk),
            counts=counts,
        )
