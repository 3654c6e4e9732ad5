"""Spans around calls into the library, and the per-layer metrics derived from them.

The tracer wraps public functions and methods of the library from the
benchmark's own code; nothing under src/ changes.  Every wrapped call becomes
one span (name, start, end, parent span, workload, run id and a few counted
attributes), kept in memory and written as JSONL when the run ends.  Every
per-layer metric is then derived from the spans alone.

A span's self time is its duration minus the durations of its direct
children.  Calls are single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

MB = float(1 << 20)


class Tracer:
    """In-memory span recorder for one run of one workload."""

    def __init__(self, workload: str, run_id: str, memory: bool = False):
        self.workload = workload
        self.run_id = run_id
        #: take tracemalloc peaks inside the spans wrapped with peak=True
        self.memory = memory
        #: [name, start, end, parent index, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span that the tracer did not time itself."""
        self.spans.append([name, start, end, None, None])

    def wrap(self, fn, name: str, attrs=None, peak: bool = False):
        """`fn` recorded as span `name`; attrs(args, result) adds attributes."""
        spans, stack, clock = self.spans, self._stack, time.monotonic
        track = peak and self.memory

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            if track:
                tracemalloc.start()
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            extra = attrs(args, out) if attrs else {}
            if track:
                extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            span[4] = extra or None
            return out

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for idx, (name, start, end, parent, attrs) in enumerate(self.spans):
                rec = {
                    "id": idx,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "workload": self.workload,
                    "run": self.run_id,
                }
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def _replace(original, wrapper) -> None:
    """Point every module-level reference to `original` in the library at `wrapper`."""
    for modname, module in list(sys.modules.items()):
        if modname == "terwilliger" or modname.startswith("terwilliger."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _level_attrs(args, out):
    closure = args[0]
    grown = sum(out.values()) if isinstance(out, dict) else 0
    return {"p": closure.field.p, "level": closure.level, "accepted": grown}


def install(tracer: Tracer) -> None:
    """Wrap the library's public entry points, one span name per call site."""
    from terwilliger import chars, cli, fieldla, groups, orbitals, scheme, switching, wedderburn

    functions = [
        (groups.build_group, "groups.build", None),
        (groups.conjugacy_classes, "groups.classes", None),
        (scheme.build_scheme, "scheme.build", None),
        (scheme.intersection_numbers, "scheme.tensor", None),
        (scheme.verify_axioms, "scheme.axioms", lambda a, out: {"pairs": out.checked_pairs}),
        (orbitals.burnside_orbital_count, "orbitals.burnside", None),
        (switching.run_to_stationary, "switching.closure", None),
        (
            switching.chain_products,
            "chain_products",
            lambda a, out: {"rows": out.shape[0] * out.shape[1]},
        ),
        (fieldla.modmul, "fieldla.modmul", None),
        (chars.char_table, "chars.table", None),
        (chars.perm_char_H1, "chars.permchar", None),
        (chars.multiplicities, "chars.mults", None),
        (wedderburn.decompose_T, "wedderburn.decompose", None),
        (wedderburn.cpi_membership, "wedderburn.membership", None),
        (wedderburn.algebra_times_idempotent_dim, "wedderburn.t_times_e", None),
        (wedderburn.thinness, "wedderburn.thinness", None),
        (cli.cmd_report, "cli.report", None),
    ]
    for fn, name, attrs in functions:
        _replace(fn, tracer.wrap(fn, name, attrs))
    # the command table holds its own reference to each subcommand
    cli.COMMANDS["report"] = cli.cmd_report

    def label_bytes(args, out):
        return {"label_bytes": sum(a.nbytes for a in args[0].block_labels.values())}

    methods = [
        (orbitals.OrbitalIndex, "__init__", "orbitals.index", label_bytes, True),
        (orbitals.OrbitalIndex, "validate_against_tensor", "orbitals.validate", None, False),
        (switching.SwitchingClosure, "generate_t0", "switching.level", _level_attrs, False),
        (switching.SwitchingClosure, "extend_level", "switching.level", _level_attrs, False),
        (wedderburn.CpiBuilder, "__init__", "wedderburn.cpis", None, True),
        (wedderburn.CpiBuilder, "build_all", "wedderburn.cpis", None, True),
    ]
    for cls, attr, name, attrs, peak in methods:
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, attrs, peak))


# -- derivation ----------------------------------------------------------------

#: Counts that must repeat exactly across two traced runs with the same seed.
EXACT_COUNTS = (
    "scheme.axioms_pairs",
    "orbitals.label_bytes",
    "switching.product_calls",
    "switching.candidates",
    "switching.accepted",
    "fieldla.modmul_calls",
    "wedderburn.product_calls",
    "wedderburn.t_times_e_calls",
)

#: span name -> metric reporting the summed self time of its spans
SELF_TIMES = {
    "groups.build": "groups.build_s",
    "groups.classes": "groups.classes_s",
    "scheme.tensor": "scheme.tensor_s",
    "scheme.axioms": "scheme.axioms_s",
    "orbitals.index": "orbitals.index_s",
    "orbitals.validate": "orbitals.validate_s",
    "orbitals.burnside": "orbitals.burnside_s",
    "switching.closure": "switching.closure_s",
    "fieldla.modmul": "fieldla.modmul_s",
    "chars.table": "chars.table_s",
    "chars.permchar": "chars.permchar_s",
    "chars.mults": "chars.mults_s",
    "wedderburn.cpis": "wedderburn.cpis_s",
    "wedderburn.decompose": "wedderburn.decompose_s",
    "wedderburn.membership": "wedderburn.membership_s",
    "wedderburn.t_times_e": "wedderburn.t_times_e_s",
    "wedderburn.thinness": "wedderburn.thinness_s",
    # cmd_report itself: rendering and checks outside the stage spans
    "cli.report": "cli.render_s",
}

#: span name -> metric reporting the largest tracemalloc peak of its spans (MB)
PEAKS = {
    "orbitals.index": "orbitals.index_peak_mb",
    "wedderburn.cpis": "wedderburn.cpis_peak_mb",
}

#: Closure levels reported per prime; the pinned widths give at most 4 levels.
LEVELS = range(4)


def read_spans(path: Path) -> list[dict]:
    with path.open() as fh:
        return [json.loads(line) for line in fh]


def derive(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one run's spans."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def self_time(s: dict) -> float:
        return s["end"] - s["start"] - child_time[s["id"]]

    def caller_layer(s: dict) -> str:
        """`wedderburn` if a wedderburn span is an ancestor, else `switching`."""
        parent = s["parent"]
        while parent is not None:
            anc = by_id[parent]
            if anc["name"].startswith("wedderburn."):
                return "wedderburn"
            parent = anc["parent"]
        return "switching"

    m: dict[str, float] = dict.fromkeys(SELF_TIMES.values(), 0.0)
    m.update(dict.fromkeys(("switching.products_s", "switching.echelon_s", "wedderburn.products_s"), 0.0))
    m.update(dict.fromkeys(EXACT_COUNTS, 0))
    primes: list[int] = []
    levels: dict[tuple[int, int], float] = defaultdict(float)

    for s in spans:
        name = s["name"]
        if name in SELF_TIMES:
            m[SELF_TIMES[name]] += self_time(s)
        if name == "scheme.axioms":
            m["scheme.axioms_pairs"] += s["pairs"]
        elif name == "orbitals.index":
            m["orbitals.label_bytes"] += s["label_bytes"]
        elif name == "fieldla.modmul":
            m["fieldla.modmul_calls"] += 1
        elif name == "wedderburn.t_times_e":
            m["wedderburn.t_times_e_calls"] += 1
        elif name == "chain_products":
            layer = caller_layer(s)
            m[f"{layer}.product_calls"] += 1
            m[f"{layer}.products_s"] += self_time(s)
            if layer == "switching":
                m["switching.candidates"] += s["rows"]
        elif name == "switching.level":
            if s["p"] not in primes:
                primes.append(s["p"])
            levels[(primes.index(s["p"]) + 1, s["level"])] += self_time(s)
            m["switching.echelon_s"] += self_time(s)
            m["switching.accepted"] += s["accepted"]

    for prime in (1, 2):
        for level in LEVELS:
            m[f"switching.p{prime}.level{level}_s"] = levels.get((prime, level), 0.0)
    cands = m["switching.candidates"]
    m["switching.accept_ratio"] = m["switching.accepted"] / cands if cands else 0.0
    return m


def peaks(spans: list[dict]) -> dict[str, float]:
    """tracemalloc peaks of the spans that were traced with memory on."""
    out = dict.fromkeys(PEAKS.values(), 0.0)
    for s in spans:
        if s["name"] in PEAKS and "peak_bytes" in s:
            key = PEAKS[s["name"]]
            out[key] = max(out[key], s["peak_bytes"] / MB)
    return out


def coverage(spans: list[dict], wall_start: float, wall_end: float) -> float:
    """Share of the traced wall time inside top-level spans."""
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return covered / (wall_end - wall_start)


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, u in (("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"), ("_ratio", "ratio"),
                      ("coverage", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"
