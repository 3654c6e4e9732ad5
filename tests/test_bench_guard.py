"""The library names the benchmark harness calls or wraps stay working.

`bench/` reaches into the library by name: `OrbitalIndex(seed=)`,
`run_to_stationary(bounds=)`, `cpi_membership`, `closure.field.p` and the
closure levels `generate_t0` and `extend_level`.  Each workload runs once
here through the harness's own worker, traced, so that removing one of them
fails a test and not only a traced benchmark run.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import bench_cayley

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sym7_pipeline", "sym6_report", "table_report"])
def test_traced_worker_runs_every_workload(tmp_path, workload):
    bench_cayley().write_tables(tmp_path, 0)
    spans = tmp_path / f"{workload}.jsonl"
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    # no bytecode caches: the run writes under tmp_path alone
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable, str(ROOT / "bench" / "worker.py"),
        "--workload", workload, "--seed", "0", "--inputs", str(tmp_path),
        "--t0", repr(time.monotonic()), "--mode", "run",
        "--trace", "time", "--spans", str(spans),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    solves = json.loads(proc.stdout.strip().splitlines()[-1])["solves"]
    assert solves and [s["errors"] for s in solves] == [[] for _ in solves]
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    levels = [r for r in records if r["name"] == "switching.level"]
    assert levels and all("p" in r and "accepted" in r for r in levels)
