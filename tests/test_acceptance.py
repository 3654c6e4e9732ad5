"""Acceptance gate: one golden run per group plus the cross-cutting checks.

Each criterion runs a fresh pipeline under its stated runtime budget and is
reported as a PASS/FAIL line in the terminal summary.  Two S7 label sets
stated before the computation (the non-members of T and the thin modules)
are kept in ``golden`` as a refuted erratum.  The two "stated labels" tests
carry the proof: ``stabilizer_block_dims`` recomputes every module's block
dimensions from permutations and the character table alone, shows that each
stated set is impossible, agrees with the pipeline on every module, and
confirms the corrected sets.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import factorial

import golden
import terwilliger as tw
from conftest import completeness_defect, idempotent_defect, record_acceptance
from orbit_oracle import BlockOracle
from terwilliger.chars import (
    centralizer_wedderburn,
    char_table,
    multiplicities,
    perm_char_H1,
    row_sums,
    scheme_eigenmatrix,
)
from terwilliger.groups import load_cayley_table
from terwilliger.orbitals import OrbitalIndex, burnside_orbital_count
from terwilliger.partitions import partitions_of
from terwilliger.scheme import conj_centralizer_dim, dim_T0, verify_axioms
from terwilliger.switching import run_to_stationary, triple_regularity
from terwilliger.wedderburn import (
    CpiBuilder,
    decompose_T,
    thinness,
)


def fresh_pipeline(n):
    g = tw.build_group(f"sym:{n}")
    s = tw.build_scheme(g)
    oi = OrbitalIndex(s)
    res = run_to_stationary(s, oi, seed=0)
    mv = multiplicities(perm_char_H1(g, s.classes), n)
    cent = centralizer_wedderburn(mv)
    cpis = CpiBuilder(oi).build_all(mv)
    wed = decompose_T(res, cent, cpis)
    thin = thinness(cpis, oi)
    return dict(
        scheme=s, oi=oi, res=res, mv=mv, cent=cent, cpis=cpis, wed=wed, thin=thin
    )


def _check(name, ok):
    record_acceptance(name, bool(ok))
    assert ok, name


def test_criterion_1_s3_golden():
    start = time.monotonic()
    pipe = fresh_pipeline(3)
    res, wed = pipe["res"], pipe["wed"]
    ok = (
        res.dim_t0 == 11
        and res.dim_t == 11
        and pipe["oi"].total == 11
        and res.final_table.dims == golden.S3_T_TABLE
        and sorted(c.size for c in wed.components) == [1, 1, 3]
        and triple_regularity(res).triply_transitive
    )
    elapsed = time.monotonic() - start
    _check("criterion-1 (S3 golden)", ok)
    _check("criterion-1 runtime < 1s", elapsed < 1.0)


def test_criterion_2_s4_golden():
    start = time.monotonic()
    pipe = fresh_pipeline(4)
    res, wed = pipe["res"], pipe["wed"]
    sums = row_sums(char_table(4))
    ok = (
        res.dim_t0 == 42
        and res.dim_t == 43
        and pipe["oi"].total == 43
        and res.width == 1
        and pipe["oi"].table().dims == golden.S4_TILDE_TABLE
        and pipe["oi"].table().get("[3,1]", "[3,1]") == 4
        and [c.size for c in wed.components] == [5, 2, 3, 2, 1]
        and [sums[lam] for lam in char_table(4).row_labels] == [5, 2, 3, 2, 1]
        and all(e.thin for e in pipe["thin"].entries)
        and not triple_regularity(res).triply_regular
    )
    elapsed = time.monotonic() - start
    _check("criterion-2 (S4 golden)", ok)
    _check("criterion-2 runtime < 1s", elapsed < 1.0)


def test_criterion_3_s5_golden():
    start = time.monotonic()
    pipe = fresh_pipeline(5)
    res = pipe["res"]
    mult_values = [m for _, m in pipe["cent"].components]
    not_thin = {e.label.label() for e in pipe["thin"].entries if not e.thin}
    ok = (
        res.dim_t0 == 124
        and res.dims_per_level == [124, 155, 155]
        and res.width == 1
        and pipe["oi"].total == 155
        and res.tables[1].dims == golden.S5_T1_TABLE
        and res.final_table.get("[5]", "[5]") == 8
        and mult_values == [7, 5, 6, 5, 3, 1, 3, 1]
        and not_thin == {"[3,1^2]-"}
    )
    elapsed = time.monotonic() - start
    _check("criterion-3 (S5 golden)", ok)
    _check("criterion-3 runtime < 5s", elapsed < 5.0)


def test_criterion_4_s6_golden():
    start = time.monotonic()
    pipe = fresh_pipeline(6)
    res, wed, thin = pipe["res"], pipe["wed"], pipe["thin"]
    non_members = set(sp.label() for sp in wed.non_members)
    pairs = {
        frozenset(c.label_strings()) for c in wed.components if len(c.labels) > 1
    }
    thin_dims = sorted(e.dim for e in thin.entries if e.thin)
    not_thin_dims = sorted((e.dim for e in thin.entries if not e.thin), reverse=True)
    ok = (
        res.dim_t0 == 447
        and res.dim_t == 758
        and res.width == 1
        and pipe["oi"].total == 761
        and res.final_table.dims == golden.S6_T_TABLE
        and pipe["oi"].table().dims == golden.S6_TILDE_TABLE
        and non_members == golden.S6_NON_MEMBERS
        and pairs == golden.S6_MERGED_PAIRS
        and all(c.size == 1 for c in wed.components if len(c.labels) > 1)
        and sorted(c.size for c in wed.components) == golden.S6_WEDDERBURN_MULTISET
        and wed.total_dim == 758
        # the primary (11) plus the six smallest composition factors are
        # thin; the merged components pair the six 1-dim labels
        and thin_dims == [1, 1, 1, 1, 1, 1, 3, 3, 4, 11]
        and not_thin_dims == [15, 9, 9, 8, 8, 7, 6]
    )
    elapsed = time.monotonic() - start
    _check("criterion-4 (S6 golden)", ok)
    _check("criterion-4 runtime < 2min", elapsed < 120.0)


def _s7(cache={}):
    if "pipe" not in cache:
        start = time.monotonic()
        cache["pipe"] = fresh_pipeline(7)
        cache["elapsed"] = time.monotonic() - start
    return cache["pipe"], cache["elapsed"]


def _cycle_type(p):
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@lru_cache(maxsize=None)
def stabilizer_block_dims(n):
    """Block dimensions of every nonzero module, without the pipeline.

    H = S_n x <inversion> acts on the class of x by x -> g x^e g^-1, so the
    class-C slice of the chi+- module has dimension <chi+-, 1> over Stab_H(x).
    For each class representative x the cycle types of {g : g x g^-1 = x}
    and {g : g x^-1 g^-1 = x} are tallied, and each signed character is
    averaged over them.  Returns label -> dims in class order.
    """
    table = char_table(n)
    perms = list(permutations(range(n)))
    col = {mu.parts: j for j, mu in enumerate(table.col_labels)}
    tallies = []
    for mu in table.col_labels:
        x, first = [], 0
        for part in mu.parts:
            x.extend(first + (i + 1) % part for i in range(part))
            first += part
        x_inv = [0] * n
        for i, xi in enumerate(x):
            x_inv[xi] = i
        fix, swap = Counter(), Counter()
        for g in perms:
            if all(g[x[i]] == x[g[i]] for i in range(n)):
                fix[_cycle_type(g)] += 1
            if all(g[x_inv[i]] == x[g[i]] for i in range(n)):
                swap[_cycle_type(g)] += 1
        tallies.append((fix, swap))
    dims = {}
    for lam, row in zip(table.row_labels, table.values):
        for sign, suffix in ((1, "+"), (-1, "-")):
            vec = []
            for fix, swap in tallies:
                total = sum(c * row[col[t]] for t, c in fix.items())
                total += sign * sum(c * row[col[t]] for t, c in swap.items())
                d, rem = divmod(total, 2 * sum(fix.values()))
                assert rem == 0 and d >= 0, (lam, sign)
                vec.append(d)
            if any(vec):
                dims[lam.label() + suffix] = vec
    return dims


def test_criterion_5_s7_closure_golden():
    pipe, elapsed = _s7()
    res = pipe["res"]
    t1, t2 = res.tables[1], res.tables[2]
    growth = {
        (t1.labels[a], t1.labels[b]): t2.dims[a][b] - t1.dims[a][b]
        for a in range(15)
        for b in range(15)
        if t2.dims[a][b] != t1.dims[a][b]
    }
    ok = (
        res.dim_t0 == 1232
        and res.dims_per_level == [1232, 4036, 4039, 4039]
        and res.width == 2
        and t1.dims == golden.S7_T1_TABLE
        and growth
        == {
            ("[6,1]", "[6,1]"): 1,
            ("[6,1]", "[7]"): 1,
            ("[7]", "[6,1]"): 1,
        }
        and {
            pair: t2.get(*pair) for pair in golden.S7_T2_CORNER
        }
        == golden.S7_T2_CORNER
    )
    _check("criterion-5 (S7 closure golden)", ok)
    _check("criterion-5 runtime < 4h", elapsed < 4 * 3600)


def test_criterion_5_s7_centralizer_golden():
    pipe, _ = _s7()
    mults = {sp.label(): m for sp, m in pipe["mv"].nonzero()}
    ok = (
        pipe["oi"].total == 4043
        and burnside_orbital_count(pipe["scheme"]) == 4043
        and mults == golden.MULTS_S7
        and sum(m * m for m in mults.values()) == 4043
    )
    _check("criterion-5 (S7 centralizer golden)", ok)


def test_criterion_5_s7_decomposition_verified():
    pipe, _ = _s7()
    wed = pipe["wed"]
    non_members = {sp.label() for sp in wed.non_members}
    small_members = {
        sp.label() for sp in wed.members if pipe["mv"].get(sp) <= 2
    }
    merged = [c for c in wed.components if len(c.labels) > 1]
    ok = (
        len(wed.components) == 24
        and non_members == golden.S7_NON_MEMBERS
        and small_members == golden.S7_SMALL_MEMBERS
        and len(merged) == 1
        and frozenset(merged[0].label_strings()) == golden.S7_MERGED_PAIR
        and merged[0].size == 2
        and wed.total_dim == 4039 == wed.dim_t
    )
    _check("criterion-5 (S7 decomposition, verified labels)", ok)


def test_criterion_5_s7_stated_membership_labels():
    # The non-member idempotents of T merge into one component, so their
    # modules are isomorphic T-modules; every E_i* lies in T, so they have
    # equal block dimensions.  The stated pair does not, which refutes it.
    pipe, _ = _s7()
    wed = pipe["wed"]
    dims = stabilizer_block_dims(7)
    stated = sorted(golden.S7_STATED_NON_MEMBERS)
    non_members = {sp.label() for sp in wed.non_members}
    non_member_dims = {tuple(dims[lab]) for lab in non_members}
    twins = {lab for lab, v in dims.items() if v == dims["[4,1^3]+"]}
    ok = (
        dims[stated[0]] != dims[stated[1]]
        and all(
            dims[lab] == golden.S7_DISPUTED_BLOCK_DIMS[lab]
            for lab in golden.S7_STATED_NON_MEMBERS | non_members
        )
        and len(non_member_dims) == 1
        and pipe["oi"].total - wed.dim_t == golden.MULTS_S7["[4,1^3]+"] ** 2
        and twins == golden.S7_NON_MEMBERS
        and non_members == golden.S7_NON_MEMBERS
    )
    record_acceptance("criterion-5 (S7 membership, stated labels)", ok)
    assert ok, (
        f"stated non-members {stated} have block dims "
        f"{dims[stated[0]]} / {dims[stated[1]]}; computed non-members "
        f"{sorted(non_members)} have {sorted(non_member_dims)}"
    )


def test_criterion_5_s7_thinness_verified():
    pipe, _ = _s7()
    thin = {e.label.label() for e in pipe["thin"].entries if e.thin}
    small = {
        e.label.label() for e in pipe["thin"].entries if e.dim <= 5
    }
    ok = thin == golden.S7_THIN and small < thin and "[7]+" in thin
    _check("criterion-5 (S7 thinness, verified labels)", ok)


def test_criterion_5_s7_stated_thinness_labels():
    # A module is thin iff every class slice has dim <= 1.  The stated set
    # adds [6,1]+, whose slices at [3,2,1^2] and [4,2,1] have dim 2; the
    # stated set minus the refuted label is what both routes compute.
    pipe, _ = _s7()
    dims = stabilizer_block_dims(7)
    program = {e.label.label(): e.block_dims for e in pipe["thin"].entries}
    thin = {e.label.label() for e in pipe["thin"].entries if e.thin}
    independent_thin = {lab for lab, v in dims.items() if max(v) <= 1}
    corrected = {lab for lab in golden.S7_STATED_THIN if max(dims[lab]) <= 1}
    ok = (
        dims["[6,1]+"] == golden.S7_DISPUTED_BLOCK_DIMS["[6,1]+"]
        and max(dims["[6,1]+"]) == 2
        and independent_thin == golden.S7_THIN == corrected
        and len(program) == 25
        and program == dims
        and thin == corrected
    )
    record_acceptance("criterion-5 (S7 thinness, stated labels)", ok)
    assert ok, (
        f"[6,1]+ block dims {dims['[6,1]+']}; independent thin set "
        f"{sorted(independent_thin)}, computed {sorted(thin)}"
    )


def test_criterion_6_conjecture_blocks():
    results = {}
    for n in (3, 4, 5, 6, 7):
        g = tw.build_group(f"sym:{n}")
        s = tw.build_scheme(g)
        oi = OrbitalIndex(s)
        res = run_to_stationary(s, oi, seed=0)
        label = f"[{n - 1},1]"
        t_block = res.final_table.get(label, label)
        tilde_block = oi.table().get(label, label)
        results[n] = (t_block, tilde_block)
    ok = (
        results[6] == (23, 24)
        and results[7] == (83, 84)
        and all(results[n][0] == results[n][1] for n in (3, 4, 5))
    )
    _check("criterion-6 (conjecture blocks)", ok)


def test_criterion_7_property_suite(q8_path, c3_path, trivial_path):
    start = time.monotonic()
    ok = True

    # scheme axioms for every built group
    for n in (3, 4, 5, 6):
        ok = ok and verify_axioms(tw.build_scheme(tw.build_group(f"sym:{n}"))).ok
    for path in (q8_path, c3_path, trivial_path):
        ok = ok and verify_axioms(tw.build_scheme(load_cayley_table(path))).ok

    # orbit counting agreement, sandwich chain, two-prime agreement
    for n in (3, 4, 5, 6):
        g = tw.build_group(f"sym:{n}")
        s = tw.build_scheme(g)
        oi = OrbitalIndex(s)
        ok = ok and burnside_orbital_count(s) == oi.total
        res = run_to_stationary(s, oi, seed=1)
        c1, c2 = res.closures
        ok = ok and all(
            a.dims == b.dims for a, b in zip(c1.history, c2.history)
        )
        ok = (
            ok
            and dim_T0(tw.intersection_numbers(s))
            <= res.dim_t
            <= oi.total
            <= conj_centralizer_dim(s)
        )

        # row-sum identity and signed-multiplicity consistency
        mv = multiplicities(perm_char_H1(g, s.classes), n)
        table = char_table(n)
        sums = row_sums(table)
        from terwilliger.partitions import SignedPartition

        for lam in partitions_of(n):
            plus = mv.get(SignedPartition(lam, 1))
            minus = mv.get(SignedPartition(lam, -1))
            ok = ok and plus + minus == sums[lam]
        ok = ok and sum(m * m for _, m in mv.nonzero()) == oi.total

        # squared degrees fill the group algebra
        eig = scheme_eigenmatrix(n)
        ok = ok and sum(eig.multiplicities) == factorial(n)

        # idempotent identities under both primes
        cpis = CpiBuilder(oi).build_all(mv)
        for p in res.primes:
            ok = ok and completeness_defect(cpis, oi, p) == 0
        sps = sorted(cpis, key=lambda sp: sp.label())
        p0 = res.primes[0]
        oracle = BlockOracle(s)
        ok = ok and idempotent_defect(cpis[sps[0]], None, oi, oracle, p0) == 0
        if len(sps) > 1:
            ok = ok and idempotent_defect(cpis[sps[0]], cpis[sps[1]], oi, oracle, p0) == 0

    elapsed = time.monotonic() - start
    _check("criterion-7 (property suite)", ok)
    _check("criterion-7 runtime < 5min", elapsed < 300.0)
