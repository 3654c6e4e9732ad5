import json
import re
import subprocess
import sys

import numpy as np
import pytest

import terwilliger as tw
from terwilliger import chars as chars_mod
from terwilliger import orbitals as orb_mod
from terwilliger import scheme as scheme_mod
from terwilliger import switching as sw_mod
from terwilliger import wedderburn as wed_mod
from terwilliger.cli import _split_blocks, main
from terwilliger.fieldla import sample_primes
from terwilliger.groups import ReconciliationError
from terwilliger.scheme import IntersectionTensor
from terwilliger.wedderburn import WedderburnReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_split_blocks():
    assert _split_blocks("[6,1],[7]") == ["[6,1]", "[7]"]
    assert _split_blocks("[2,1^2]") == ["[2,1^2]"]
    assert _split_blocks("[3,1],[2^2],[4]") == ["[3,1]", "[2^2]", "[4]"]


def test_scheme_command(capsys):
    code, out, _ = run_cli(capsys, "scheme", "--group", "sym:4", "--quiet")
    assert code == 0
    assert "dim_t0: 42" in out
    assert "conj_centralizer_dim: 43" in out
    assert "axioms: ok" in out.splitlines()
    code, out, _ = run_cli(capsys, "scheme", "--group", "sym:4", "--format", "json", "--quiet")
    assert code == 0
    assert json.loads(out)["axioms"] == {"ok": True, "violations": []}


def test_scheme_command_json(capsys):
    code, out, _ = run_cli(
        capsys, "scheme", "--group", "sym:3", "--format", "json", "--quiet"
    )
    assert code == 0
    data = json.loads(out)
    assert data["dim_t0"] == 11
    assert data["axioms"]["ok"]


def test_characters_command(capsys):
    code, out, _ = run_cli(capsys, "characters", "--group", "sym:4", "--quiet")
    assert code == 0
    assert "[2^2]" in out
    assert "Row sums" in out


def test_characters_rejects_cayley(capsys, q8_path):
    code, _, err = run_cli(
        capsys, "characters", "--group", f"file:{q8_path}", "--quiet"
    )
    assert code == 2
    assert "symmetric" in err


@pytest.mark.parametrize("command", ["characters", "wedderburn", "thinness", "conjecture"])
def test_symmetric_group_commands_reject_cayley(capsys, c3_path, command):
    # one guard, one message naming the command
    message = f"{command} needs a symmetric group of degree >= 3"
    code, out, err = run_cli(capsys, command, "--group", f"file:{c3_path}", "--quiet")
    assert code == 2
    assert out == ""
    assert message in err
    # S2 and S1 are symmetric groups, but below degree 3
    for group in ("sym:2", "sym:1"):
        code, out, err = run_cli(capsys, command, "--group", group, "--quiet")
        assert (code, out) == (2, ""), group
        assert f"error[{command}]: {message}" in err, group


def test_centralizer_command(capsys):
    code, out, _ = run_cli(capsys, "centralizer", "--group", "sym:4", "--quiet")
    assert code == 0
    assert "total: 43" in out
    assert "orbit-counting check: 43" in out


def test_terwilliger_command_json(capsys):
    code, out, _ = run_cli(
        capsys, "terwilliger", "--group", "sym:4", "--format", "json", "--quiet"
    )
    assert code == 0
    data = json.loads(out)
    assert data["dim_t0"] == 42
    assert data["dim_t"] == 43
    assert data["width"] == 1
    assert data["triply_regular"] is False
    assert set(data["block_table"]) == {"labels", "dims"}


def test_report_s4(capsys):
    code, out, _ = run_cli(capsys, "report", "--group", "sym:4", "--quiet")
    assert code == 0
    assert "dim T = 43" in out
    assert "sizes: [5, 3, 2, 2, 1]" in out
    assert "Reconciliation checks" in out
    assert "FAIL" not in out


def test_section_json_equals_report_key(capsys, q8_path):
    # each section's payload is built once: standalone and inside the report
    for group, sections in (
        ("sym:4", {"scheme", "centralizer", "terwilliger", "wedderburn", "thinness",
                   "conjecture"}),
        (f"file:{q8_path}", {"scheme", "centralizer", "terwilliger"}),
    ):
        code, out, _ = run_cli(capsys, "report", "--group", group, "--format", "json", "--quiet")
        assert code == 0
        report = json.loads(out)
        assert set(report) == sections | {"checks", "seed"}
        for name in sections:
            code, out, _ = run_cli(capsys, name, "--group", group, "--format", "json", "--quiet")
            assert code == 0
            assert json.loads(out) == report[name], (group, name)


def test_report_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "report", "--group", "sym:4", "--seed", "5", "--quiet")
    _, out2, _ = run_cli(capsys, "report", "--group", "sym:4", "--seed", "5", "--quiet")
    assert out1 == out2


def test_report_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--group", "sym:3", "--format", "json", "--quiet"
    )
    assert code == 0
    data = json.loads(out)
    for key in (
        "scheme",
        "centralizer",
        "terwilliger",
        "wedderburn",
        "thinness",
        "conjecture",
        "checks",
        "seed",
    ):
        assert key in data
    assert all(data["checks"].values())
    assert data["conjecture"]["strict"] is False


def test_conjecture_command(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "--group", "sym:5", "--format", "json", "--quiet"
    )
    assert code == 0
    data = json.loads(out)
    assert data["t_block"] == data["tilde_block"] == 7
    assert data["strict"] is False


def test_wedderburn_command(capsys):
    code, out, _ = run_cli(capsys, "wedderburn", "--group", "sym:4", "--quiet")
    assert code == 0
    assert "reconciled: True" in out


def test_thinness_command(capsys):
    code, out, _ = run_cli(capsys, "thinness", "--group", "sym:5", "--quiet")
    assert code == 0
    assert "[3,1^2]- 5 not-thin" in out
    code, out, _ = run_cli(capsys, "thinness", "--group", "sym:4", "--format", "json", "--quiet")
    assert code == 0
    assert out.startswith("[\n  {")  # indented like every other JSON output
    data = json.loads(out)
    assert len(data) == 5
    assert all(set(d) == {"label", "dim", "block_dims", "thin"} for d in data)


def test_blocks_filter(capsys):
    code, out, _ = run_cli(
        capsys,
        "terwilliger",
        "--group",
        "sym:4",
        "--blocks",
        "[3,1],[4]",
        "--quiet",
    )
    assert code == 0
    assert "[2^2]" not in out.split("Final block dimension table:")[1]


def test_blocks_filter_unknown_label(capsys):
    # every format renders the filtered text, so a bad label is a usage error in each
    for fmt in ("md", "csv", "json"):
        code, out, err = run_cli(
            capsys, "terwilliger", "--group", "sym:4", "--blocks", "[9]", "--format", fmt,
            "--quiet",
        )
        assert code == 2
        assert out == ""
        assert "unknown block labels" in err


def test_blocks_filter_naming_no_block(capsys):
    # a filter of separators alone is a usage error; an empty one means no filter
    for spec in (",", " , ,"):
        code, out, err = run_cli(
            capsys, "terwilliger", "--group", "sym:3", "--blocks", spec, "--quiet"
        )
        assert (code, out) == (2, ""), spec
        assert "names no block" in err, spec
    code, out, _ = run_cli(capsys, "terwilliger", "--group", "sym:3", "--blocks", "", "--quiet")
    assert code == 0
    assert out == run_cli(capsys, "terwilliger", "--group", "sym:3", "--quiet")[1]


def test_blocks_filter_naming_a_block_twice(capsys):
    # a repeated label would print one block as two rows and two columns
    for spec, label in (("[3,1],[3,1]", "[3,1]"), ("[4],[2^2],[4],[2^2]", "[4]")):
        code, out, err = run_cli(
            capsys, "terwilliger", "--group", "sym:4", "--blocks", spec, "--quiet"
        )
        assert (code, out) == (2, ""), spec
        assert f"--blocks names {label} twice" in err, spec


def test_cayley_group_report(capsys, q8_path):
    code, out, _ = run_cli(capsys, "report", "--group", f"file:{q8_path}", "--quiet")
    assert code == 0
    assert "inversion_closed: True" in out


def test_explicit_primes_flag(capsys):
    from terwilliger.fieldla import sample_primes

    p1, p2 = sample_primes(77, 2, avoid=48)
    code, out, _ = run_cli(
        capsys,
        "terwilliger",
        "--group",
        "sym:4",
        "--prime",
        str(p1),
        "--prime",
        str(p2),
        "--format",
        "json",
        "--quiet",
    )
    assert code == 0
    assert json.loads(out)["primes"] == [p1, p2]


def test_sampled_primes_match_library(capsys):
    s = tw.build_scheme(tw.build_group("sym:4"))
    for seed in (0, 1):
        code, out, _ = run_cli(
            capsys, "terwilliger", "--group", "sym:4", "--seed", str(seed),
            "--format", "json", "--quiet",
        )
        assert code == 0
        assert tuple(json.loads(out)["primes"]) == tw.run_to_stationary(s, seed=seed).primes


def test_single_prime_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "terwilliger", "--group", "sym:4", "--prime", "152083499", "--quiet"
    )
    assert code == 2
    assert out == ""
    assert "--prime" in err


def test_failed_wedderburn_ledger_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(WedderburnReport, "total_dim", property(lambda self: self.dim_t + 1))
    code, out, err = run_cli(capsys, "wedderburn", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "wedderburn_reconciled" in err


def test_orbit_sizes_ledger_exits_1(capsys, monkeypatch):
    validate = orb_mod.OrbitalIndex.validate_against_tensor

    def validate_off_by_one(self, t):
        p = t.p.copy()
        p[0, 0, 0] += 1
        return validate(self, IntersectionTensor(p=p))

    monkeypatch.setattr(orb_mod.OrbitalIndex, "validate_against_tensor", validate_off_by_one)
    code, out, err = run_cli(capsys, "centralizer", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "orbit_sizes_match_tensor" in err


def test_orbit_refinement_check_exits_1(capsys, monkeypatch):
    perms = orb_mod._stabilizer_perms

    def all_conjugations(scheme, x, centralizer):
        # conjugation by the whole group moves x: orbits then cross relations
        g = scheme.group
        every = np.arange(g.order)
        return perms(scheme, x, centralizer) + [g.conjugate(s, every) for s in g.generators()]

    monkeypatch.setattr(orb_mod, "_stabilizer_perms", all_conjugations)
    code, out, err = run_cli(capsys, "centralizer", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "orbits_refine_relations" in err


def test_multiplicity_ledger_exits_1(capsys, monkeypatch):
    row_sums = chars_mod.row_sums

    def row_sums_off_by_one(table):
        sums = dict(row_sums(table))
        sums[table.row_labels[0]] += 1
        return sums

    monkeypatch.setattr(chars_mod, "row_sums", row_sums_off_by_one)
    code, out, err = run_cli(capsys, "centralizer", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "multiplicity_ledger" in err


def test_prime_disagreement_exits_1(capsys, monkeypatch):
    def disagree(*args, **kwargs):
        raise ReconciliationError("two_prime_agreement", "dimension tables disagree")

    monkeypatch.setattr(sw_mod, "run_to_stationary", disagree)
    code, out, err = run_cli(capsys, "terwilliger", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "two_prime_agreement" in err


def test_corrupted_transposition_exits_1(capsys, monkeypatch):
    count = orb_mod.OrbitalIndex._count_transposition

    def one_entry_off(self, i, k):
        sigma = count(self, i, k).copy()
        sigma[-1] = sigma[0]
        return sigma

    monkeypatch.setattr(orb_mod.OrbitalIndex, "_count_transposition", one_entry_off)
    code, out, err = run_cli(capsys, "terwilliger", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "transposition_preserves_relations" in err


def test_asymmetric_idempotent_exits_1(capsys, monkeypatch):
    t_times_e = wed_mod.algebra_times_idempotent_dim

    def one_value_off(idems, result):
        # the closure seeded with the atom's sum gets its first idempotent
        # one value off at an orbit that transposition moves
        e, oi = idems[0], result.orbindex
        values = {c: v.copy() for c, v in e.block_values.items()}
        for c, v in values.items():
            moved = np.flatnonzero(oi.transposition(c, c) != np.arange(len(v)))
            if moved.size:
                v[moved[0]] += 1
                break
        bad = wed_mod.CPIdem(e.label, e.degree, e.multiplicity, values, e.denominator)
        return t_times_e([bad, *idems[1:]], result)

    monkeypatch.setattr(wed_mod, "algebra_times_idempotent_dim", one_value_off)
    # S6 is the least S_n whose transpositions move orbits of diagonal blocks
    code, out, err = run_cli(capsys, "wedderburn", "--group", "sym:6", "--quiet")
    assert code == 1
    assert out == ""
    assert "cpi_symmetric" in err
    # the first atom sized at S6 is a merged pair, and the message names both
    assert "idempotent [4,1^2]+ + [2,1^4]- is not symmetric" in err


@pytest.mark.parametrize(
    "primes, message",
    [
        ((2**31 - 1, 2**61 - 1), f"prime {2**31 - 1} is not below"),
        ((0, 7), "odd prime, got 0"),
        ((1, 7), "odd prime, got 1"),
    ],
    ids=["above_limit", "0-7", "1-7"],
)
def test_prime_above_limit_is_usage_error(capsys, primes, message):
    # each prime is validated before it is tested against the group order
    code, out, err = run_cli(
        capsys, "terwilliger", "--group", "sym:4",
        "--prime", str(primes[0]), "--prime", str(primes[1]), "--quiet",
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_membership_prime_disagreement_exits_1(capsys, monkeypatch):
    p1, p2 = sample_primes(5, 2, avoid=48)
    atoms = wed_mod._idempotent_atoms

    def merged_under_p2(idems, closure):
        # every S4 idempotent is a member; under p2 the first two read as one sum
        found = atoms(idems, closure)
        if closure.field.p == p2:
            found = [found[0] + found[1]] + found[2:]
        return found

    monkeypatch.setattr(wed_mod, "_idempotent_atoms", merged_under_p2)
    code, out, err = run_cli(
        capsys, "wedderburn", "--group", "sym:4",
        "--prime", str(p1), "--prime", str(p2), "--quiet",
    )
    assert code == 1
    assert out == ""
    assert "two_prime_agreement" in err
    assert "membership" in err


def test_t_times_e_prime_disagreement_exits_1(capsys, monkeypatch):
    p1, p2 = sample_primes(5, 2, avoid=1440)

    class RankOffClosure(sw_mod.SwitchingClosure):
        @property
        def total_dim(self):
            # under the second prime every dimension reads one higher
            return super().total_dim + int(self.field.p == p2)

    # dim(T*e) is the total of a closure seeded with e, made in the wedderburn module
    monkeypatch.setattr(wed_mod, "SwitchingClosure", RankOffClosure)
    code, out, err = run_cli(
        capsys, "wedderburn", "--group", "sym:6",
        "--prime", str(p1), "--prime", str(p2), "--quiet",
    )
    assert code == 1
    assert out == ""
    assert "two_prime_agreement" in err
    assert "dim(T*e)" in err


def test_merged_component_dimension_exits_1(capsys, monkeypatch):
    t_times_e = wed_mod.algebra_times_idempotent_dim

    def one_too_many(idems, result):
        # at S6 only the three merged non-member atoms are sized, each dim 1
        return t_times_e(idems, result) + 1

    monkeypatch.setattr(wed_mod, "algebra_times_idempotent_dim", one_too_many)
    code, out, err = run_cli(capsys, "wedderburn", "--group", "sym:6", "--quiet")
    assert code == 1
    assert out == ""
    assert "merged_component_dimension" in err
    assert "irregular dimension 2" in err


@pytest.mark.parametrize("defect", ["entry_not_0_1", "label_in_two_atoms"])
def test_non_member_partition_exits_1(capsys, monkeypatch, defect):
    class DefectiveBlock(sw_mod.Block):
        def insert_batch(self, residuals):
            grown = super().insert_batch(residuals)
            # the membership pass inserts [R | I]: the kernel rows pivot in I
            f = self.r - len(residuals)
            first, last = np.flatnonzero(self.pivots[: self.rank] >= f)[[0, -1]]
            if defect == "entry_not_0_1":
                self.rows[last, self.pivots[last]] = 2
            else:
                self.rows[first, self.pivots[last]] = 1
            return grown

    # the membership pass is the one Block made in the wedderburn module
    monkeypatch.setattr(wed_mod, "Block", DefectiveBlock)
    code, out, err = run_cli(capsys, "wedderburn", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "non_member_partition" in err


@pytest.mark.parametrize(
    "check, moved",
    [
        # one more z counted in C_1 for relation 0
        ("tensor_row_sums", {(1, 0, 0): 1}),
        # a count moved from j = 1 to j = 0 in p_0j^1: the row sums still hold
        ("tensor_identity_relation", {(0, 0, 1): 1, (0, 1, 1): -1}),
    ],
    ids=["tensor_row_sums", "tensor_identity_relation"],
)
def test_tensor_checks_exit_1(capsys, monkeypatch, check, moved):
    def corrupted(p):
        p = p.copy()
        for idx, d in moved.items():
            p[idx] += d
        return IntersectionTensor(p=p)

    monkeypatch.setattr(scheme_mod, "IntersectionTensor", corrupted)
    code, out, err = run_cli(capsys, "scheme", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert check in err


def test_cpi_trace_ledger_exits_1(capsys, monkeypatch):
    build = wed_mod.CpiBuilder.build

    def build_off_by_one(self, sp):
        e = build(self, sp)
        e.multiplicity += 1
        return e

    monkeypatch.setattr(wed_mod.CpiBuilder, "build", build_off_by_one)
    code, out, err = run_cli(capsys, "thinness", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "cpi_trace_multiplicity" in err


def test_module_block_dims_exits_1(capsys, monkeypatch):
    build_all = wed_mod.CpiBuilder.build_all

    def nudged(self, mults):
        cpis = build_all(self, mults)
        # the identity class has one element: its block trace moves by 1/2
        e = next(iter(cpis.values()))
        e.block_values[0][0] += e.denominator // 2
        return cpis

    monkeypatch.setattr(wed_mod.CpiBuilder, "build_all", nudged)
    code, out, err = run_cli(capsys, "thinness", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "module_block_dims" in err
    assert "block trace 3/2 at class 0" in err


def test_triple_regularity_exits_1(capsys, monkeypatch):
    # a centralizer as small as T0 makes S4 triply transitive but not regular
    monkeypatch.setattr(
        sw_mod, "conj_centralizer_dim", lambda s: sw_mod.dim_T0(sw_mod.intersection_numbers(s))
    )
    code, out, err = run_cli(capsys, "terwilliger", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "triple_regularity" in err


def test_t0_generators_independent_exits_1(capsys, monkeypatch):
    init = orb_mod.OrbitalIndex.__init__

    def relation_listed_twice(self, *args, **kwargs):
        init(self, *args, **kwargs)
        # two length-1 generators of one relation in block (1, 2): level 0
        # cannot grow the block's rank by both
        js = self.block_relations[(1, 2)]
        self.block_relations[(1, 2)] = np.concatenate([js[:1], js])

    monkeypatch.setattr(orb_mod.OrbitalIndex, "__init__", relation_listed_twice)
    code, out, err = run_cli(capsys, "report", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "t0_generators_independent" in err
    assert "block (1, 2)" in err


def test_t0_dimension_check_exits_1(capsys, monkeypatch):
    dim_t0 = sw_mod.dim_T0
    monkeypatch.setattr(sw_mod, "dim_T0", lambda t: dim_t0(t) + 1)
    code, out, err = run_cli(capsys, "terwilliger", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "t0_dimension_matches_tensor" in err


def test_burnside_integral_exits_1(capsys, monkeypatch):
    count = orb_mod.fixed_point_counts

    def one_more_fixed_point(g, classes):
        plus, minus = count(g, classes)
        return [plus[0] + 1] + plus[1:], minus

    monkeypatch.setattr(orb_mod, "fixed_point_counts", one_more_fixed_point)
    code, out, err = run_cli(capsys, "centralizer", "--group", "sym:4", "--quiet")
    assert code == 1
    assert out == ""
    assert "burnside_integral" in err


def test_bounds_flag_removed():
    # blocks are always capped at their orbit counts, and the closure stops at
    # the first level that adds nothing, so neither needs a switch
    for flag in (["--bounds", "on"], ["--max-width", "6"]):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--group", "sym:3", *flag])
        assert exc.value.code == 2


def test_bad_group_errors(capsys, tmp_path):
    # a degree that is not an integer is named with its spec
    for spec in ("sym:zebra", "sym:abc", "sym:", "sym:3.0"):
        code, out, err = run_cli(capsys, "scheme", "--group", spec, "--quiet")
        assert (code, out) == (2, ""), spec
        assert f"error[scheme]: bad group spec {spec!r}: the degree must be an integer" in err
    # a line past a Cayley table's N rows is rejected, named by its line number
    path = tmp_path / "long.txt"
    path.write_text("order 2\n0 1\n1 0\nnot a row\n")
    code, out, err = run_cli(capsys, "scheme", "--group", f"file:{path}", "--quiet")
    assert (code, out) == (2, "")
    assert "error[scheme]: line 4: expected 2 rows, got 3" in err
    # an entry past int64 and an order past any array are named by their lines too
    for text, message in (
        (f"order 2\n0 1\n1 {2**63}\n", "line 3: entry out of range"),
        ("order 99999999999999999999\n", "line 1: expected 99999999999999999999 rows, got 0"),
    ):
        path.write_text(text)
        code, out, err = run_cli(capsys, "scheme", "--group", f"file:{path}", "--quiet")
        assert (code, out) == (2, ""), text
        assert f"error[scheme]: {message}" in err, text


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "terwilliger.cli", "scheme", "--group", "sym:3", "--quiet"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "dim_t0: 11" in proc.stdout


def test_report_does_not_import_numpy_ma():
    # under numpy 2 a plain np.unique imports numpy.ma, about 13 ms a process;
    # the library forms its sorted distinct values from masks instead
    code = (
        "import sys; from terwilliger.cli import main; "
        "rc = main(['report', '--group', 'sym:5', '--quiet']); "
        "print(rc, 'numpy.ma' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.stderr.splitlines()[-1] == "0 False"


def test_progress_lines_on_stderr(capsys):
    argv = ("terwilliger", "--group", "sym:4", "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert "level=" in err
    assert "level=" not in out
    for p in json.loads(out)["primes"]:
        assert f"prime={p} level=" in err
    quiet_code, quiet_out, quiet_err = run_cli(capsys, *argv, "--quiet")
    assert quiet_code == 0
    assert quiet_out == out
    assert quiet_err == ""


def test_report_progress_is_the_closure_progress(capsys):
    # level 0 and the closures seeded with idempotents print nothing, so the
    # report's progress lines are those of the closure of T alone
    def progress(command):
        code, _, err = run_cli(capsys, command, "--group", "sym:6")
        assert code == 0
        return [re.sub(r" elapsed=\S+$", "", line) for line in err.splitlines()]

    report = progress("report")
    assert report == progress("terwilliger")
    line = re.compile(r"prime=\d+ level=[1-9]\d* block=\(\S+,\S+\) rank=\d+")
    assert report and all(line.fullmatch(x) for x in report)
