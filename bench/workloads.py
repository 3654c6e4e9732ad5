"""The benchmark's workloads and the pinned outputs every solve must reproduce.

A workload function runs one repetition in the current process and returns
one record per solve: its name and the list of mismatches found (empty when
the solve is correct).  Library entry points are looked up on the package at
call time, so spans installed by the tracer see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from pathlib import Path

import terwilliger as tw
from cayley import table_path
from terwilliger import cli

# Verified S7 labels (the "verified" sets of the acceptance goldens; the two
# "stated" variants are contradicted by three independent routes and are not
# used here).
S7_NON_MEMBERS = {"[4,1^3]+", "[4,3]-"}
S7_SMALL_MEMBERS = {"[5,1^2]+", "[3,2^2]-", "[1^7]-"}
S7_MERGED_PAIR = {"[4,1^3]+", "[4,3]-"}
S7_THIN = {
    "[7]+", "[5,1^2]+", "[4,3]-", "[4,1^3]+", "[3,2^2]-", "[1^7]-",
    "[3^2,1]+", "[3,1^4]-", "[2^3,1]-", "[2^2,1^3]+", "[2,1^5]+",
}

S6 = {"dims_per_level": [447, 758, 758], "width": 1, "orbit_total": 761}

#: Table groups: order, class count, inversion closure, dims per level, width,
#: orbit total and conjugation-centralizer dimension.  None depend on the
#: relabelling seed.
TABLES = {
    "psl2_11": {
        "order": 660, "n_classes": 8, "inversion_closed": False,
        "dims_per_level": [341, 577, 577], "width": 1,
        "orbit_total": 716, "conj_centralizer_dim": 716,
    },
    "psl2_13": {
        "order": 1092, "n_classes": 9, "inversion_closed": True,
        "dims_per_level": [519, 939, 939], "width": 1,
        "orbit_total": 939, "conj_centralizer_dim": 1163,
    },
    "agl1_23": {
        "order": 506, "n_classes": 23, "inversion_closed": False,
        "dims_per_level": [551, 551], "width": 0,
        "orbit_total": 991, "conj_centralizer_dim": 991,
    },
}


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def _solve(name: str, body) -> dict:
    """Run one solve; an exception is a failed solve, not a crashed run."""
    errors: list[str] = []
    try:
        body(errors)
    except Exception:  # noqa: BLE001 - recorded as this solve's failure
        errors.append(traceback.format_exc(limit=4))
    return {"name": name, "errors": errors}


def _report(group: str, seed: int, errors: list[str]) -> dict:
    """`terwilliger report --format json` in process; gate exit code and checks."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(
            ["report", "--group", group, "--format", "json", "--quiet", "--seed", str(seed)]
        )
    _expect(errors, "exit code", rc, 0)
    rep = json.loads(buf.getvalue())
    failed = sorted(k for k, ok in rep["checks"].items() if not ok)
    _expect(errors, "failed checks", failed, [])
    _expect(errors, "seed", rep["seed"], seed)
    return rep


def sym7_pipeline(seed: int, inputs: Path) -> list[dict]:
    """The README library sequence on S7: the paper's computation."""

    def body(errors):
        g = tw.build_group("sym:7")
        s = tw.build_scheme(g)
        oi = tw.OrbitalIndex(s, seed=seed)
        oi.validate_against_tensor(tw.intersection_numbers(s))
        burnside = tw.burnside_orbital_count(s)
        res = tw.run_to_stationary(s, oi, seed=seed, bounds=oi.table())
        mv = tw.multiplicities(tw.perm_char_H1(g, s.classes), 7)
        cent = tw.centralizer_wedderburn(mv)
        cpis = tw.CpiBuilder(oi).build_all(mv)
        wed = tw.decompose_T(res, cent, cpis)
        thin = tw.thinness(cpis, oi)

        _expect(errors, "dims per level", res.dims_per_level, [1232, 4036, 4039, 4039])
        _expect(errors, "width", res.width, 2)
        _expect(errors, "orbit total", oi.total, 4043)
        _expect(errors, "burnside", burnside, 4043)
        _expect(errors, "centralizer dim", cent.dim, 4043)
        _expect(errors, "wedderburn reconciled", wed.reconciled, True)
        _expect(errors, "wedderburn dim", wed.total_dim, 4039)
        _expect(errors, "wedderburn components", len(wed.components), 24)
        _expect(errors, "non-members", {sp.label() for sp in wed.non_members}, S7_NON_MEMBERS)
        _expect(
            errors,
            "small members",
            {sp.label() for sp in wed.members if mv.get(sp) <= 2},
            S7_SMALL_MEMBERS,
        )
        merged = [(set(c.label_strings()), c.size) for c in wed.components if len(c.labels) > 1]
        _expect(errors, "merged pair", merged, [(S7_MERGED_PAIR, 2)])
        _expect(errors, "thin set", {e.label.label() for e in thin.entries if e.thin}, S7_THIN)

    return [_solve("sym:7", body)]


def sym6_report(seed: int, inputs: Path) -> list[dict]:
    """The full user command on S6, axiom verification included."""

    def body(errors):
        rep = _report("sym:6", seed, errors)
        _expect(errors, "dims per level", rep["terwilliger"]["dims_per_level"], S6["dims_per_level"])
        _expect(errors, "width", rep["terwilliger"]["width"], S6["width"])
        _expect(errors, "orbit total", rep["centralizer"]["total"], S6["orbit_total"])
        _expect(errors, "centralizer dim", rep["centralizer"]["dim"], S6["orbit_total"])

    return [_solve("sym:6", body)]


def table_report(seed: int, inputs: Path) -> list[dict]:
    """The full user command on the three relabelled Cayley tables."""
    solves = []
    for name, want in TABLES.items():

        def body(errors, name=name, want=want):
            rep = _report(f"file:{table_path(inputs, name)}", seed, errors)
            sch, ter = rep["scheme"], rep["terwilliger"]
            for key in ("order", "n_classes", "inversion_closed", "conj_centralizer_dim"):
                _expect(errors, key, sch[key], want[key])
            _expect(errors, "dims per level", ter["dims_per_level"], want["dims_per_level"])
            _expect(errors, "width", ter["width"], want["width"])
            _expect(errors, "orbit total", rep["centralizer"]["total"], want["orbit_total"])

        solves.append(_solve(name, body))
    return solves


WORKLOADS = {
    "sym7_pipeline": sym7_pipeline,
    "sym6_report": sym6_report,
    "table_report": table_report,
}

