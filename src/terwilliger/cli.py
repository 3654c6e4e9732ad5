"""Command-line front end: per-stage subcommands and the full report."""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property

from . import chars as chars_mod
from . import orbitals as orb_mod
from . import scheme as scheme_mod
from . import switching as sw_mod
from . import wedderburn as wed_mod
from .groups import ReconciliationError, SymmetricGroup, build_group, inversion_closed
from .partitions import Partition
from .tables import BlockDimTable, render_cells


class UsageError(ValueError):
    """Bad flag combination or group/format mismatch."""


def _split_blocks(spec: str) -> list[str]:
    """Split a label filter like "[6,1],[7]" on depth-0 commas."""
    out, depth, cur = [], 0, ""
    for ch in spec:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            if cur.strip():
                out.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        out.append(cur.strip())
    return out


def _filter_table(table: BlockDimTable, blocks: str | None) -> BlockDimTable:
    if not blocks:
        return table
    want = _split_blocks(blocks)
    if not want:
        raise UsageError(f"--blocks {blocks!r} names no block")
    missing = [w for w in want if w not in table.labels]
    if missing:
        raise UsageError(f"unknown block labels: {missing}; have {table.labels}")
    if len(set(want)) < len(want):
        raise UsageError(f"--blocks names {next(w for w in want if want.count(w) > 1)} twice")
    idx = [table.labels.index(w) for w in want]
    dims = [[table.dims[a][b] for b in idx] for a in idx]
    return BlockDimTable(labels=want, dims=dims)


class Pipeline:
    """Lazy pipeline over one group; every stage is computed once."""

    def __init__(self, args: argparse.Namespace, progress=None):
        if len(args.prime or ()) not in (0, 2):
            raise UsageError("--prime is given twice or not at all")
        self.args = args
        self.progress = progress
        self.group = build_group(args.group)
        self.checks: dict[str, bool] = {}

    # -- stages ------------------------------------------------------------

    @cached_property
    def scheme(self):
        return scheme_mod.build_scheme(self.group)

    @cached_property
    def orbindex(self):
        oi = orb_mod.OrbitalIndex(self.scheme)
        oi.validate_against_tensor(scheme_mod.intersection_numbers(self.scheme))
        self.checks["burnside_equals_orbit_total"] = self.burnside == oi.total
        return oi

    @cached_property
    def burnside(self) -> int:
        """The orbit-counting-lemma total, which `orbindex` checks its own against."""
        return orb_mod.burnside_orbital_count(self.scheme)

    @cached_property
    def closure(self) -> sw_mod.ClosureResult:
        res = sw_mod.run_to_stationary(
            self.scheme,
            self.orbindex,
            seed=self.args.seed,
            primes=tuple(self.args.prime) if self.args.prime else None,
            progress=self.progress,
        )
        tilde = self.orbindex.total
        centr = scheme_mod.conj_centralizer_dim(self.scheme)
        self.checks["sandwich_dims"] = res.dim_t0 <= res.dim_t <= tilde <= centr
        final = res.final_table
        orbt = self.orbindex.table()
        self.checks["blocks_within_orbit_bounds"] = all(
            final.dims[a][b] <= orbt.dims[a][b]
            for a in range(len(final.labels))
            for b in range(len(final.labels))
        )
        return res

    @property
    def is_symmetric_group(self) -> bool:
        return isinstance(self.group, SymmetricGroup) and self.group.n >= 3

    @cached_property
    def mults(self):
        pi = chars_mod.perm_char_H1(self.group, self.scheme.classes)
        mults = chars_mod.multiplicities(pi, self.group.n)
        total = sum(m * m for _, m in mults.nonzero())
        self.checks["multiplicities_match_orbit_total"] = total == self.orbindex.total
        return mults

    @cached_property
    def centralizer(self) -> chars_mod.CentralizerReport:
        return chars_mod.centralizer_wedderburn(self.mults)

    @cached_property
    def cpis(self):
        return wed_mod.CpiBuilder(self.orbindex).build_all(self.mults)

    @cached_property
    def wedderburn(self) -> wed_mod.WedderburnReport:
        wed = wed_mod.decompose_T(self.closure, self.centralizer, self.cpis)
        self.checks["wedderburn_reconciled"] = wed.reconciled
        return wed

    @cached_property
    def thinness(self) -> wed_mod.ThinReport:
        return wed_mod.thinness(self.cpis, self.orbindex)

    def conjecture(self) -> dict:
        n = self.group.n
        label = Partition(tuple([n - 1, 1])).label()
        t_block = self.closure.final_table.get(label, label)
        tilde_block = self.orbindex.table().get(label, label)
        return {
            "n": n,
            "block": f"({label},{label})",
            "t_block": t_block,
            "tilde_block": tilde_block,
            "strict": t_block < tilde_block,
        }


# -- rendering ---------------------------------------------------------------
# Each command returns (payload, text): its `--format json` value and its
# md/csv rendering.  `report` merges the payloads and joins the texts.


def _print_table(table: BlockDimTable, fmt: str) -> str:
    return table.to_csv() if fmt == "csv" else table.to_markdown()


def _growth_sections(pipe: Pipeline, fmt: str) -> list[str]:
    out = []
    tables = pipe.closure.tables
    for lvl in range(1, len(tables)):
        base, new = tables[lvl - 1], tables[lvl]
        if base.dims == new.dims:
            continue
        out.append(f"Growth at level {lvl} (base+growth):\n")
        if fmt == "md":
            out.append(
                _filter_table(base, pipe.args.blocks).growth_markdown(
                    _filter_table(new, pipe.args.blocks), corner=f"T{lvl}"
                )
            )
        else:
            out.append(_print_table(_filter_table(new, pipe.args.blocks), fmt))
    return out


def cmd_scheme(pipe: Pipeline) -> tuple[dict, str]:
    s = pipe.scheme
    axioms = scheme_mod.verify_axioms(s)
    pipe.checks["scheme_axioms"] = axioms.ok
    info = {
        "group": pipe.group.name,
        "order": pipe.group.order,
        "n_classes": s.classes.n_classes,
        "class_labels": s.classes.label_strings(),
        "class_sizes": s.classes.sizes,
        "inversion_closed": inversion_closed(s.classes),
        "dim_t0": scheme_mod.dim_T0(scheme_mod.intersection_numbers(s)),
        "conj_centralizer_dim": scheme_mod.conj_centralizer_dim(s),
        "axioms": {"ok": axioms.ok, "violations": axioms.violations},
    }
    lines = [f"{k}: {v}" for k, v in info.items() if k != "axioms"]
    lines.append(f"axioms: {'ok' if axioms.ok else axioms.violations}")
    return info, "\n".join(lines) + "\n"


def cmd_characters(pipe: Pipeline) -> tuple[dict, str]:
    table = chars_mod.char_table(pipe.group.n)
    sums = chars_mod.row_sums(table)
    eig = chars_mod.scheme_eigenmatrix(pipe.group.n)
    payload = {
        "n": table.n,
        "rows": [lam.label() for lam in table.row_labels],
        "cols": [mu.label() for mu in table.col_labels],
        "values": table.values,
        "row_sums": [sums[lam] for lam in table.row_labels],
        "eigenmatrix": eig.values,
        "eigen_multiplicities": eig.multiplicities,
    }
    # printed rows follow the descending label order of the stored table
    out = ["Character table (rows descending, columns ascending):\n"]
    cells = [[""] + payload["cols"]]
    for lam, row in zip(payload["rows"], table.values):
        cells.append([lam] + [str(v) for v in row])
    out.append(render_cells(cells))
    out.append("\nRow sums: " + ", ".join(f"{k.label()}:{v}" for k, v in sums.items()))
    out.append("\n\nScheme eigenvalue table (entry chi*|C|/f, multiplicity f^2):\n")
    cells = [[""] + [mu.label() for mu in eig.col_labels] + ["mult"]]
    for lam, row, m in zip(eig.row_labels, eig.values, eig.multiplicities):
        cells.append([lam.label()] + [str(v) for v in row] + [str(m)])
    out.append(render_cells(cells))
    return payload, "".join(out)


def cmd_centralizer(pipe: Pipeline) -> tuple[dict, str]:
    table = pipe.orbindex.table()
    total, burn = pipe.orbindex.total, pipe.burnside
    payload = {
        "table": {"labels": table.labels, "dims": table.dims},
        "total": total,
        "burnside": burn,
    }
    out = [
        "Centralizer-algebra block dimensions (orbit counts):\n",
        _print_table(_filter_table(table, pipe.args.blocks), pipe.args.fmt),
        f"\ntotal: {total}\norbit-counting check: {burn}\n",
    ]
    if pipe.is_symmetric_group:
        nonzero = pipe.mults.nonzero()
        payload["multiplicities"] = {sp.label(): m for sp, m in nonzero}
        payload["dim"] = pipe.centralizer.dim
        out.append(
            "multiplicities: "
            + " + ".join(f"{m}*{sp.label()}" for sp, m in nonzero)
            + f"\ndim: {pipe.centralizer.dim}\n"
        )
    return payload, "".join(out)


def cmd_terwilliger(pipe: Pipeline) -> tuple[dict, str]:
    res = pipe.closure
    flags = sw_mod.triple_regularity(res)
    final = res.final_table
    payload = {
        "primes": list(res.primes),
        "width": res.width,
        "dims_per_level": res.dims_per_level,
        "dim_t0": res.dim_t0,
        "dim_t": res.dim_t,
        "block_table": {"labels": final.labels, "dims": final.dims},
        "triply_regular": flags.triply_regular,
        "triply_transitive": flags.triply_transitive,
    }
    out = [
        f"primes: {res.primes}\n",
        f"dims per level: {res.dims_per_level}\n",
        f"switching width: {res.width}\n",
        f"dim T0 = {res.dim_t0}, dim T = {res.dim_t}\n",
        f"triply regular: {flags.triply_regular}, "
        f"triply transitive: {flags.triply_transitive}\n",
        "\nFinal block dimension table:\n",
        _print_table(_filter_table(final, pipe.args.blocks), pipe.args.fmt),
    ]
    out.extend(_growth_sections(pipe, pipe.args.fmt))
    return payload, "".join(out)


def cmd_wedderburn(pipe: Pipeline) -> tuple[dict, str]:
    rep = pipe.wedderburn
    payload = {
        "dim_t": rep.dim_t,
        "components": [{"labels": c.label_strings(), "size": c.size} for c in rep.components],
        "members": [sp.label() for sp in rep.members],
        "non_members": [sp.label() for sp in rep.non_members],
        "reconciled": rep.reconciled,
    }
    return payload, (
        f"dim T = {rep.dim_t}\n"
        f"components ({len(rep.components)}): {rep.to_markdown()}\n"
        f"sizes: {sorted((c.size for c in rep.components if c.size), reverse=True)}\n"
        f"non-members of T: {payload['non_members']}\n"
        f"reconciled: {rep.reconciled}\n"
    )


def cmd_thinness(pipe: Pipeline) -> tuple[list, str]:
    payload = [
        {"label": e.label.label(), "dim": e.dim, "block_dims": e.block_dims, "thin": e.thin}
        for e in pipe.thinness.entries
    ]
    lines = ["label dim thin block_dims"] + [
        f"{e['label']} {e['dim']} {'thin' if e['thin'] else 'not-thin'} {e['block_dims']}"
        for e in payload
    ]
    return payload, "\n".join(lines) + "\n"


def cmd_conjecture(pipe: Pipeline) -> tuple[dict, str]:
    data = pipe.conjecture()
    return data, (
        f"n={data['n']} block {data['block']}: "
        f"dim in T = {data['t_block']}, in centralizer = {data['tilde_block']}, "
        f"strict: {data['strict']}\n"
    )


def cmd_report(pipe: Pipeline) -> tuple[dict, str]:
    names = ["scheme", "centralizer", "terwilliger"]
    if pipe.is_symmetric_group:
        names += ["wedderburn", "thinness", "conjecture"]
    sections = {name: COMMANDS[name](pipe) for name in names}
    checks = dict(sorted(pipe.checks.items()))
    payload = {name: body for name, (body, _) in sections.items()}
    payload |= {"checks": checks, "seed": pipe.args.seed}
    texts = [text for _, text in sections.values()]
    texts.append(
        "Reconciliation checks:\n"
        + "\n".join(f"  {k}: {'ok' if v else 'FAIL'}" for k, v in checks.items())
        + "\n"
    )
    return payload, ("\n" + "-" * 60 + "\n").join(texts)


COMMANDS = {
    "scheme": cmd_scheme,
    "characters": cmd_characters,
    "centralizer": cmd_centralizer,
    "terwilliger": cmd_terwilliger,
    "wedderburn": cmd_wedderburn,
    "thinness": cmd_thinness,
    "conjecture": cmd_conjecture,
    "report": cmd_report,
}
SYMMETRIC_ONLY = ("characters", "wedderburn", "thinness", "conjecture")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terwilliger",
        description=(
            "Terwilliger algebras of conjugacy-class association schemes: "
            "dimensions, block tables, Wedderburn decompositions, thinness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--group", required=True, help="group descriptor: sym:N or file:PATH")
        p.add_argument(
            "--prime",
            action="append",
            type=int,
            default=None,
            help="explicit working prime (give it twice or not at all)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=["md", "csv", "json"], default="md", dest="fmt")
        p.add_argument("--blocks")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    def progress(prime, level, block, rank, elapsed):
        print(
            f"prime={prime} level={level} block={block} rank={rank} "
            f"elapsed={elapsed:.1f}s",
            file=sys.stderr,
        )

    try:
        pipe = Pipeline(args, progress=None if args.quiet else progress)
        if args.command in SYMMETRIC_ONLY and not pipe.is_symmetric_group:
            raise UsageError(f"{args.command} needs a symmetric group of degree >= 3")
        payload, text = COMMANDS[args.command](pipe)
    except ReconciliationError as exc:
        print(f"error[{args.command}]: check {exc.check} failed: {exc}", file=sys.stderr)
        return 1
    except (sw_mod.ClosureError, AssertionError, ValueError, OSError) as exc:
        print(f"error[{args.command}]: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(payload, indent=2) + "\n" if args.fmt == "json" else text)
    return 0 if all(pipe.checks.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
