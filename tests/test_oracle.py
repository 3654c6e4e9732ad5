"""Property tests: the orbit-coordinate closure against the ambient oracle.

Each example is a small group given as a Cayley table, relabelled by a drawn
permutation that fixes the identity.  The fast engine must reproduce the
oracle's level tables and width, its orbit total must equal Burnside's
count, and every accepted word, multiplied out over ambient coordinates,
must equal the block's row at the orbit representatives under both primes,
for the blocks on and above the diagonal that the engine closes and for the
lower blocks it derives from them by transposition: dimensions alone miss a
generator table with the right ranks but the wrong entries.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import terwilliger as tw
from conftest import bench_cayley
from oracle import PrimeField, run_matrix_closure, word_product
from terwilliger.groups import CayleyGroup


def _cycles(n: int, *cycles: tuple[int, ...]) -> list[int]:
    """Image list on n points of a product of disjoint cycles."""
    images = list(range(n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            images[a] = b
    return images


def _dihedral(n: int) -> list[list[int]]:
    """D_n, of order 2n, on the n-gon: x+1 and -x."""
    return [[(x + 1) % n for x in range(n)], [(-x) % n for x in range(n)]]


def _sl23() -> list[list[int]]:
    """SL(2,3) on the 8 nonzero vectors of F_3^2: two transvections."""
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}

    def act(m):
        return [index[((m[0] * a + m[1] * b) % 3, (m[2] * a + m[3] * b) % 3)] for a, b in vecs]

    return [act((1, 1, 0, 1)), act((1, 0, 1, 1))]


#: name -> permutation generators.  S4, A5 and C2xS4 close at width 1; the
#: others are triply regular, so their closure stops at level 0.
GENERATORS = {
    **{f"D{n}": _dihedral(n) for n in range(3, 9)},
    "Q8": [_cycles(8, (0, 1, 2, 3), (4, 5, 6, 7)), _cycles(8, (0, 4, 2, 6), (1, 7, 3, 5))],
    "C3": [_cycles(3, (0, 1, 2))],
    "C5": [_cycles(5, (0, 1, 2, 3, 4))],
    "C3xC3": [_cycles(6, (0, 1, 2)), _cycles(6, (3, 4, 5))],
    "C2xS3": [_cycles(5, (0, 1, 2)), _cycles(5, (0, 1)), _cycles(5, (3, 4))],
    "A4": [_cycles(4, (0, 1, 2)), _cycles(4, (0, 1), (2, 3))],
    "SL2_3": _sl23(),
    "S4": [_cycles(4, (0, 1, 2, 3)), _cycles(4, (0, 1))],
    "A5": [_cycles(5, (0, 1, 2, 3, 4)), _cycles(5, (0, 1, 2))],
    "C2xS4": [_cycles(6, (0, 1, 2, 3)), _cycles(6, (0, 1)), _cycles(6, (4, 5))],
}


@pytest.mark.parametrize("name", list(GENERATORS))
@settings(derandomize=True, deadline=None, max_examples=3)
@given(data=st.data())
def test_closure_matches_ambient_oracle(name, data):
    table = bench_cayley().cayley_table(GENERATORS[name])
    perm = np.array([0, *data.draw(st.permutations(range(1, len(table))), label="relabel")])
    renamed = np.empty_like(table)
    renamed[perm[:, None], perm] = perm[table]
    s = tw.build_scheme(CayleyGroup(renamed, name=name))
    oi = tw.OrbitalIndex(s)
    res = tw.run_to_stationary(s, oi, seed=0)
    assert oi.total == tw.burnside_orbital_count(s)
    ref, width = run_matrix_closure(s, PrimeField(res.primes[0]))
    assert width == res.width
    assert [t.dims for t in ref.history] == [t.dims for t in res.tables]
    for closure in res.closures:
        field = PrimeField(closure.field.p)
        # every block, the lower ones derived from their upper blocks
        for key in itertools.product(range(oi.n_classes), repeat=2):
            # orbit t is represented by (x_i, y_t), x_i at position 0 of C_i
            py = oi.block_reps[key].tolist()
            raw, words = closure.block_rows(key)
            for k, word in enumerate(words):
                mat = word_product(s, word, field)
                at_reps = [mat.rows[0].get(y, 0) for y in py]
                assert at_reps == raw[k].tolist(), (field.p, key, word)
