import terwilliger as tw
from terwilliger import chars, groups, orbitals, switching

# names removed from the library: nothing in it used them, and the ambient
# reference engine is a test oracle (tests/oracle.py)
REMOVED = (
    (groups, "Permutation"),
    (orbitals, "orbital_table"),
    (switching, "run_matrix_closure"),
    (switching, "MatrixClosure"),
    (chars.CentralizerReport, "decomposition_string"),
)


def test_public_api():
    assert len(set(tw.__all__)) == len(tw.__all__)
    for name in tw.__all__:
        assert getattr(tw, name) is not None, name
    for owner, name in REMOVED:
        assert name not in tw.__all__
        assert not hasattr(tw, name), name
        assert not hasattr(owner, name), name
