"""Benchmark of the Terwilliger pipeline: one command per workload run.

    python3 bench/run.py --workload sym7_pipeline --seed 1 --seconds 20 --trace 0

With --trace 0 it runs set-up probes and then repetitions of the workload,
each in a fresh process, until --seconds have passed, and reports the
end-to-end metrics as medians.  With --trace 1 it runs the workload once
untraced and twice traced (timings, then tracemalloc peaks) and reports the
per-layer metrics derived from the spans.  Every solve is checked against
pinned outputs; the last stdout line is the JSON result, and the exit code is
nonzero if any output was wrong.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import cayley
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("sym7_pipeline", "sym6_report", "table_report")
SETUP_PROBES = 5
#: every worker must end within this many seconds of the benchmark's start
DEADLINE_S = 170.0
KB_PER_MB = 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    threads = str(nproc())
    return dict(
        os.environ,
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONHASHSEED="0",
    )


def spawn(deadline: float, extra: list[str]) -> tuple[float, dict | None, str]:
    """Run bench/worker.py; return (spawn time, its JSON result or None, error)."""
    t0 = time.monotonic()
    if t0 >= deadline:
        return t0, None, "time budget exhausted"
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=deadline - t0,
        )
    except subprocess.TimeoutExpired:
        return t0, None, "worker timed out"
    if proc.returncode != 0:
        return t0, None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return t0, json.loads(proc.stdout.strip().splitlines()[-1]), ""


def read_loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return fh.read().strip()


def machine_context() -> dict:
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": child_env()["OPENBLAS_NUM_THREADS"],
        "loadavg_start": read_loadavg(),
    }


def group_specs(workload: str, inputs: Path) -> list[str]:
    """Groups a workload builds; the set-up probes build the same ones."""
    if workload == "sym7_pipeline":
        return ["sym:7"]
    if workload == "sym6_report":
        return ["sym:6"]
    return [f"file:{cayley.table_path(inputs, name)}" for name in cayley.TABLE_GROUPS]


class Tally:
    """Solves attempted and failed, with every failure message."""

    def __init__(self, solves_per_run: int):
        self.per_run = solves_per_run
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, result: dict | None, error: str) -> None:
        if result is None:
            self.attempted += self.per_run
            self.failed += self.per_run
            self.errors.append(error)
            return
        for solve in result["solves"]:
            self.attempted += 1
            if solve["errors"]:
                self.failed += 1
                self.errors.append(f"{solve['name']}: {'; '.join(solve['errors'])}")


def run_args(workload: str, seed: int, inputs: Path) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--inputs", str(inputs)]


def untraced(workload: str, seed: int, inputs: Path, seconds: int, deadline: float, tally: Tally):
    base = run_args(workload, seed, inputs)
    setup = []
    groups = [arg for spec in group_specs(workload, inputs) for arg in ("--group", spec)]
    for _ in range(SETUP_PROBES):
        t0, res, err = spawn(deadline, base + ["--mode", "setup", *groups])
        if res is None:
            tally.errors.append(f"set-up probe: {err}")
            return None
        setup.append(res["setup_end"] - t0)

    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        t0, res, err = spawn(deadline, base + ["--mode", "run"])
        tally.add(res, err)
        if res is None:
            break
        reps.append(
            {
                "wall_s": res["end"] - t0,
                "cpu_s": res["cpu_s"],
                "peak_rss_mb": res["maxrss_kb"] / KB_PER_MB,
                "blas_threads": res["blas_threads"],
            }
        )
    if not reps:
        return None
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, {"reps": reps, "setup_probes_s": setup, "blas_threads": reps[0]["blas_threads"]}


def traced(workload: str, seed: int, inputs: Path, deadline: float, tally: Tally):
    base = run_args(workload, seed, inputs) + ["--mode", "run"]
    t0, plain, err = spawn(deadline, base)
    tally.add(plain, err)
    if plain is None:
        return None
    runs = {}
    for kind in ("time", "memory"):
        path = WORK / "trace" / f"{workload}-seed{seed}-{kind}.jsonl"
        t_spawn, res, err = spawn(deadline, base + ["--trace", kind, "--spans", str(path)])
        tally.add(res, err)
        if res is None:
            return None
        runs[kind] = {"spans": spans.read_spans(path), "start": t_spawn, "end": res["end"]}

    timed, mem = runs["time"], runs["memory"]
    derived = spans.derive(timed["spans"])
    again = spans.derive(mem["spans"])
    mismatched = [k for k in spans.EXACT_COUNTS if derived[k] != again[k]]
    if mismatched:
        tally.errors.append(
            "counts differ between traced runs: "
            + ", ".join(f"{k} {derived[k]} vs {again[k]}" for k in mismatched)
        )
    cover = spans.coverage(timed["spans"], timed["start"], timed["end"])
    if workload == "sym7_pipeline" and cover < 0.95:
        tally.errors.append(f"stage spans cover only {cover:.3f} of the traced wall time")

    untraced_wall, traced_wall = plain["end"] - t0, timed["end"] - timed["start"]
    derived.update(spans.peaks(mem["spans"]))
    derived["trace.overhead_s"] = traced_wall - untraced_wall
    derived["trace.coverage"] = cover
    metrics = {name: (value, spans.unit(name)) for name, value in sorted(derived.items())}
    detail = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "blas_threads": plain["blas_threads"],
    }
    return metrics, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "terwilliger" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    context = machine_context()
    inputs = WORK / "inputs" / f"seed{args.seed}"
    if args.workload == "table_report":
        cayley.write_tables(inputs, args.seed)

    tally = Tally(solves_per_run=3 if args.workload == "table_report" else 1)
    if args.trace:
        out = traced(args.workload, args.seed, inputs, deadline, tally)
    else:
        out = untraced(args.workload, args.seed, inputs, args.seconds, deadline, tally)
    context["loadavg_end"] = read_loadavg()
    if out is None:
        for line in tally.errors:
            print(f"error: {line}", file=sys.stderr)
        return 1
    metrics, detail = out
    context["blas_threads"] = detail.pop("blas_threads")
    correct = not tally.errors
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": context, "detail": detail,
              "errors": tally.errors, **result}
    out_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print("context " + json.dumps(context))
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    frac = tally.failed / tally.attempted
    print(f"  {'fail_frac':34s} {frac:.6g} ratio ({tally.failed}/{tally.attempted} solves)")
    for line in tally.errors:
        print(f"  error: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
