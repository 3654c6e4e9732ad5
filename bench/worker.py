"""One fresh benchmark process: a set-up probe or one repetition of a workload.

Started by run.py with the parent's monotonic clock reading taken just before
the process was spawned (`--t0`), so that reported times start at process
start.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    ap.add_argument("--trace", choices=["off", "time", "memory"], default="off")
    ap.add_argument("--group", action="append", default=[], help="set-up probe groups")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    import terwilliger as tw

    if args.mode == "setup":
        for spec in args.group:
            tw.build_group(spec)
        print(json.dumps({"setup_end": time.monotonic()}))
        return 0

    import workloads

    tracer = None
    if args.trace != "off":
        import spans

        tracer = spans.Tracer(args.workload, args.spans.stem, memory=args.trace == "memory")
        spans.install(tracer)
        tracer.add("process.setup", args.t0, time.monotonic())

    solves = workloads.WORKLOADS[args.workload](args.seed, args.inputs)
    end = time.monotonic()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.write(args.spans)
    print(
        json.dumps(
            {
                "end": end,
                "cpu_s": ru.ru_utime + ru.ru_stime,
                "maxrss_kb": ru.ru_maxrss,
                "blas_threads": blas_threads(),
                "solves": solves,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
