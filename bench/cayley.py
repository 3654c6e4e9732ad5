"""Seeded Cayley tables of small permutation groups for the table workload.

Each group is generated from permutation generators, multiplied out with
numpy and then relabelled by a seeded permutation that keeps the identity at
index 0, so that every seed hands the library a different labelling of the
same abstract group.  The invariants the benchmark pins do not depend on the
labelling.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np


def psl2_generators(p: int) -> list[list[int]]:
    """PSL(2,p) on the projective line {0..p-1, inf=p}: x+1 and -1/x."""
    inf = p
    shift = [(x + 1) % p for x in range(p)] + [inf]
    invert = [inf] + [(-pow(x, -1, p)) % p for x in range(1, p)] + [0]
    return [shift, invert]


def agl1_generators(p: int, root: int) -> list[list[int]]:
    """AGL(1,p) on {0..p-1}: x+1 and root*x for a primitive root."""
    return [[(x + 1) % p for x in range(p)], [(root * x) % p for x in range(p)]]


#: name -> generators of the three table groups (order, classes noted).
TABLE_GROUPS = {
    "psl2_11": psl2_generators(11),  # order 660, 8 classes, not inversion-closed
    "psl2_13": psl2_generators(13),  # order 1092, 9 classes, inversion-closed
    "agl1_23": agl1_generators(23, 5),  # order 506, 23 classes
}


def _elements(gens: list[list[int]]) -> np.ndarray:
    """All group elements as image rows, identity first, by breadth-first search."""
    degree = len(gens[0])
    gen_arrays = [np.array(g, dtype=np.int64) for g in gens]
    ident = np.arange(degree, dtype=np.int64)
    elems, seen, frontier = [ident], {ident.tobytes()}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gen_arrays:
                y = g[x]
                key = y.tobytes()
                if key not in seen:
                    seen.add(key)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    return np.stack(elems)


def cayley_table(gens: list[list[int]]) -> np.ndarray:
    """Multiplication table (a*b)(i) = a(b(i)) with the identity at index 0."""
    elems = _elements(gens)
    n, degree = elems.shape
    # the images of the first k points determine an element; find the least such k
    for k in range(1, degree + 1):
        keys = (elems[:, :k] * degree ** np.arange(k)).sum(axis=1)
        if len(np.unique(keys)) == n:
            break
    order = np.argsort(keys)
    sorted_keys = keys[order]
    prod = elems[np.arange(n)[:, None, None], elems[None, :, :k]]
    prod_keys = (prod * degree ** np.arange(k)).sum(axis=2)
    # the elements form a group, so every product key is found exactly
    return order[np.searchsorted(sorted_keys, prod_keys)]


def relabel(table: np.ndarray, rng: random.Random) -> np.ndarray:
    """Conjugate the labelling by a random permutation fixing the identity 0."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    sigma = np.array([0] + rest, dtype=np.int64)
    out = np.empty_like(table)
    out[np.ix_(sigma, sigma)] = sigma[table]
    return out


def table_path(directory: Path, name: str) -> Path:
    return directory / f"{name}.txt"


def write_tables(directory: Path, seed: int) -> None:
    """Write one relabelled table file per group into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, gens in TABLE_GROUPS.items():
        table = relabel(cayley_table(gens), random.Random(f"cayley:{name}:{seed}"))
        rows = "\n".join(" ".join(map(str, row)) for row in table.tolist())
        table_path(directory, name).write_text(f"order {len(table)}\n{rows}\n")
