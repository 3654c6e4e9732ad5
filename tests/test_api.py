import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import terwilliger as tw
from terwilliger import (
    chars, cli, fieldla, groups, orbitals, partitions, scheme, switching, tables, wedderburn,
)

# names removed from the library: nothing in it used them, the ambient
# reference engine is a test oracle (tests/oracle.py), a run is set by flags
# alone, a failed two-prime check is a ReconciliationError, the report's
# JSON is built in the CLI alone, the tensor is one array, the character
# table is memoized in `chars`, a span is tested by `Block.residual` alone,
# a closure runs to stationarity in `SwitchingClosure.close` alone, a
# partition is read through its parts, the references only the tests read
# live in tests/oracle.py, an atom is sized from its own idempotents, level 0
# is checked once on the two primes' agreed table, float64 products are
# exact by the group order, which the orbit index checks once, a closure
# step's block order changes nothing it accepts, and the scheme memoizes its
# own intersection numbers
REMOVED = (
    (groups, "Permutation"),
    (orbitals, "orbital_table"),
    (switching, "run_matrix_closure"),
    (switching, "MatrixClosure"),
    (chars.CentralizerReport, "decomposition_string"),
    (switching, "PrimeDisagreement"),
    (cli, "RunConfig"),
    (cli, "ENV_PREFIX"),
    (switching.ClosureResult, "basis"),
    (wedderburn.WedderburnReport, "sizes"),
    (wedderburn.ThinReport, "flag"),
    (scheme.IntersectionTensor, "d"),
    (tables.BlockDimTable, "to_json"),
    (wedderburn.ThinReport, "to_json"),
    (wedderburn.WedderburnReport, "to_json"),
    (scheme.IntersectionTensor, "to_json"),
    (scheme.IntersectionTensor, "get"),
    (cli.Pipeline, "chartable"),
    (switching.Block, "kernel"),
    (switching.Block, "reduce"),
    (switching, "_run_once"),
    (partitions.Partition, "__iter__"),
    (partitions.Partition, "__len__"),
    (scheme.ClassScheme, "relation_of"),
    (tables.BlockDimTable, "is_symmetric"),
    (partitions, "parse_signed_partition"),
    (partitions, "parse_partition"),
    (wedderburn, "add_idempotents"),
    (switching, "generate_T0"),
    (fieldla, "ProductBoundError"),
    (switching.SwitchingClosure, "_block_order"),
    (cli.Pipeline, "tensor"),
)

# dataclass fields removed: `hasattr` on the class misses a field without a
# plain default, so these are checked against `dataclasses.fields`.  A
# closure result's scheme is its orbit index's, its orbit index, primes and
# width are read off its closures and tables, and an idempotent's residues
# are computed where they are read
REMOVED_FIELDS = (
    (switching.ClosureResult, "scheme"),
    (switching.ClosureResult, "orbindex"),
    (switching.ClosureResult, "primes"),
    (switching.ClosureResult, "width"),
    (wedderburn.CPIdem, "_residues"),
)

# parameters removed because no caller set them, because the value they
# passed along is memoized where it is built, or because it is read off
# another argument (a closure's scheme is its orbit index's)
REMOVED_PARAMETERS = (
    (switching.run_to_stationary, "max_width"),
    (groups.conjugacy_classes, "gens"),
    (groups.SymmetricGroup, "max_n"),
    (fieldla.sample_primes, "lo"),
    (fieldla.sample_primes, "hi"),
    (wedderburn.CpiBuilder, "table"),
    (switching.SwitchingClosure, "scheme"),
)


def test_public_api():
    assert len(set(tw.__all__)) == len(tw.__all__)
    for name in tw.__all__:
        assert getattr(tw, name) is not None, name
    for owner, name in REMOVED:
        assert name not in tw.__all__
        assert not hasattr(tw, name), name
        assert not hasattr(owner, name), name


def test_removed_fields():
    for cls, name in REMOVED_FIELDS:
        assert name not in {f.name for f in dataclasses.fields(cls)}, (cls.__name__, name)


def test_removed_parameters():
    for fn, name in REMOVED_PARAMETERS:
        assert name not in inspect.signature(fn).parameters, (fn.__name__, name)


def test_two_prime_agreement_raised_in_one_place():
    # every number confirmed by the two primes is compared in ClosureResult.agree
    src = Path(__file__).resolve().parent.parent / "src" / "terwilliger"
    check = "two_prime_agreement"
    assert sum(path.read_text().count(check) for path in src.glob("*.py")) == 1
    assert inspect.getsource(switching.ClosureResult.agree).count(check) == 1


def test_char_table_built_once_per_report(capsys):
    chars.char_table.cache_clear()
    assert cli.main(["report", "--group", "sym:6", "--quiet"]) == 0
    capsys.readouterr()
    assert chars.char_table.cache_info().misses == 1


def test_centralizers_computed_once_per_report(capsys, monkeypatch):
    # the orbit index computes each class representative's centralizer once,
    # for its stabilizers and for the idempotents' coset sums
    original = groups.centralizer_elements
    calls = []

    def counted(g, x):
        calls.append(int(x))
        return original(g, x)

    for name, module in list(sys.modules.items()):
        if name == "terwilliger" or name.startswith("terwilliger."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert cli.main(["report", "--group", "sym:6", "--quiet"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == 11


def _scan_imports(path: Path) -> tuple[list[str], set[str]]:
    """A module's unused imports, and the top-level modules it imports absolutely."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    roots: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
                roots.add(alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
            if node.level == 0:
                roots.add(node.module.split(".")[0])
        elif isinstance(node, ast.Name):
            # an attribute chain a.b.c reads its root a as a Name
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    return unused, roots


def test_no_unused_imports():
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "terwilliger").glob("*.py")) + sorted(
        (root / "tests").glob("*.py")
    )
    assert [hit for path in files for hit in _scan_imports(path)[0]] == []


def test_runtime_imports_numpy_and_stdlib_only():
    # the runtime stays numpy-only: scipy, sympy and networkx are not dependencies
    src = Path(__file__).resolve().parent.parent / "src" / "terwilliger"
    allowed = set(sys.stdlib_module_names) | {"numpy", "terwilliger"}
    found = {
        f"{path.name}: {root}"
        for path in sorted(src.glob("*.py"))
        for root in _scan_imports(path)[1] - allowed
    }
    assert found == set()
