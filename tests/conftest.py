"""Shared, lazily-built pipeline stages; heavy objects are computed once."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

import terwilliger as tw
from terwilliger.chars import centralizer_wedderburn, multiplicities, perm_char_H1
from terwilliger.fieldla import modmul
from terwilliger.groups import CayleyGroup
from terwilliger.orbitals import OrbitalIndex
from terwilliger.partitions import SignedPartition
from terwilliger.switching import run_to_stationary
from terwilliger.wedderburn import CPIdem, CpiBuilder, decompose_T, thinness

from orbit_oracle import BlockOracle

_CACHE: dict = {}

ACCEPTANCE_RESULTS: dict[str, bool] = {}


def _memo(key, build):
    if key not in _CACHE:
        _CACHE[key] = build()
    return _CACHE[key]


class Stages:
    """Factory handing out cached pipeline stages per symmetric degree."""

    def group(self, n):
        return _memo(("group", n), lambda: tw.build_group(f"sym:{n}"))

    def scheme(self, n):
        return _memo(("scheme", n), lambda: tw.build_scheme(self.group(n)))

    def tensor(self, n):
        return _memo(("tensor", n), lambda: tw.intersection_numbers(self.scheme(n)))

    def orbindex(self, n):
        return _memo(("orbindex", n), lambda: OrbitalIndex(self.scheme(n)))

    def oracle(self, n):
        return _memo(("oracle", n), lambda: BlockOracle(self.scheme(n)))

    def closure(self, n):
        return _memo(
            ("closure", n),
            lambda: run_to_stationary(self.scheme(n), self.orbindex(n), seed=0),
        )

    def mults(self, n):
        def build():
            pi = perm_char_H1(self.group(n), self.scheme(n).classes)
            return multiplicities(pi, n)

        return _memo(("mults", n), build)

    def cpis(self, n):
        def build():
            builder = CpiBuilder(self.orbindex(n))
            return builder.build_all(self.mults(n))

        return _memo(("cpis", n), build)

    def wedderburn(self, n):
        def build():
            cent = centralizer_wedderburn(self.mults(n))
            return decompose_T(self.closure(n), cent, self.cpis(n))

        return _memo(("wedderburn", n), build)

    def thin(self, n):
        return _memo(("thin", n), lambda: thinness(self.cpis(n), self.orbindex(n)))


@pytest.fixture(scope="session")
def stages() -> Stages:
    return Stages()


Q8_TABLE = """order 8
0 1 2 3 4 5 6 7
1 0 3 2 5 4 7 6
2 3 1 0 6 7 5 4
3 2 0 1 7 6 4 5
4 5 7 6 1 0 2 3
5 4 6 7 0 1 3 2
6 7 4 5 3 2 1 0
7 6 5 4 2 3 0 1
"""

C3_TABLE = """order 3
0 1 2
1 2 0
2 0 1
"""

TRIVIAL_TABLE = """order 1
0
"""


@pytest.fixture(scope="session")
def q8_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("tables") / "q8.txt"
    p.write_text(Q8_TABLE)
    return p


@pytest.fixture(scope="session")
def c3_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("tables") / "c3.txt"
    p.write_text(C3_TABLE)
    return p


@pytest.fixture(scope="session")
def trivial_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("tables") / "triv.txt"
    p.write_text(TRIVIAL_TABLE)
    return p


def dihedral_table(path, n):
    """Cayley table of the dihedral group of order 2n: r^a s^e -> a + n*e."""
    rows = []
    for x in range(2 * n):
        a, e = x % n, x // n
        row = []
        for y in range(2 * n):
            b, f = y % n, y // n
            row.append((a + (-b if e else b)) % n + n * ((e + f) % 2))
        rows.append(" ".join(map(str, row)))
    path.write_text(f"order {2 * n}\n" + "\n".join(rows) + "\n")
    return path


def bench_cayley():
    """The benchmark's Cayley-table builder, `bench/cayley.py`, loaded once."""

    def build():
        path = Path(__file__).resolve().parents[1] / "bench" / "cayley.py"
        spec = importlib.util.spec_from_file_location("bench_cayley", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return _memo("bench_cayley", build)


def bench_table_group(name: str, seed: int) -> CayleyGroup:
    """One of the benchmark's Cayley-table groups, relabelled as it does for `seed`."""
    cayley = bench_cayley()
    table = cayley.cayley_table(cayley.TABLE_GROUPS[name])
    table = cayley.relabel(table, random.Random(f"cayley:{name}:{seed}"))
    return CayleyGroup(table, name=name)


def generator_rows(orbindex: OrbitalIndex, key: tuple[int, int]) -> np.ndarray:
    """The length-1 generators of block `key`: one relation-indicator row each.

    Rows follow `orbindex.block_relations[key]`, the order the closure uses.
    """
    js = orbindex.block_relations[key]
    return (js[:, None] == orbindex.block_rel[key]).astype(np.int64)


def dense_rank_modp(rows, ncols, p):
    """Schoolbook Gaussian elimination oracle: the rank of `rows` mod p."""
    mat = [list(r) for r in rows]
    rank, piv_row = 0, 0
    for col in range(ncols):
        piv = None
        for r in range(piv_row, len(mat)):
            if mat[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        mat[piv_row], mat[piv] = mat[piv], mat[piv_row]
        inv = pow(mat[piv_row][col], -1, p)
        mat[piv_row] = [v * inv % p for v in mat[piv_row]]
        for r in range(len(mat)):
            if r != piv_row and mat[r][col] % p:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[piv_row])]
        piv_row += 1
        rank += 1
    return rank


def per_orbit_products(orbindex, oracle, target, nu, left, right, p):
    """Reference: one contraction table C_t[a, b] per target orbit t.

    `left` rows live in block (i, nu) and `right` rows in block (nu, m).  The
    orbits of (x_t, z) and (z, y_t) are read from the reference blocks, not
    from the index's anchored rows.
    """
    i, m = target
    # every target orbit is represented at (x_i, y_t), x_i at position 0
    row_a = oracle.labels(i, nu)[0].astype(np.int64)
    cols_b = oracle.labels(nu, m)[:, orbindex.block_reps[target]]
    ra, rb, rt = orbindex.r[(i, nu)], orbindex.r[(nu, m)], orbindex.r[target]
    out = np.empty((left.shape[0], right.shape[0], rt), dtype=np.int64)
    for t in range(rt):
        combined = row_a * rb + cols_b[:, t]
        ct = np.bincount(combined, minlength=ra * rb).reshape(ra, rb)
        out[:, :, t] = modmul(modmul(left % p, ct, p), right.T % p, p)
    return out


def idempotent_defect(
    e: CPIdem, other: CPIdem | None, orbindex: OrbitalIndex, oracle: BlockOracle, p: int
) -> int:
    """Nonzero count of e*other - (e if same) mod p; 0 means the identity holds."""
    bad = 0
    for c in e.block_values:
        u = e.block_vector_mod(c, p)[None, :]
        v = (other if other is not None else e).block_vector_mod(c, p)[None, :]
        prod = per_orbit_products(orbindex, oracle, (c, c), c, u, v, p)[0, 0]
        expected = u[0] if other is None else np.zeros_like(prod)
        bad += int(np.count_nonzero((prod - expected) % p))
    return bad


def completeness_defect(
    cpis: dict[SignedPartition, CPIdem], orbindex: OrbitalIndex, p: int
) -> int:
    """Nonzero count of (sum of idempotents) - identity mod p."""
    bad = 0
    for c in range(orbindex.n_classes):
        total = np.zeros(orbindex.r[(c, c)], dtype=np.int64)
        for e in cpis.values():
            total = (total + e.block_vector_mod(c, p)) % p
        # the identity is 1 on the diagonal, orbit 0, and 0 elsewhere
        ident = np.zeros_like(total)
        ident[0] = 1
        bad += int(np.count_nonzero((total - ident) % p))
    return bad


def record_acceptance(name: str, ok: bool) -> None:
    ACCEPTANCE_RESULTS[name] = ok and ACCEPTANCE_RESULTS.get(name, True)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ACCEPTANCE_RESULTS[name] else "FAIL"
        terminalreporter.write_line(f"{name}: {verdict}")
