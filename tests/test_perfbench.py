"""The benchmark's tiny-shape runs, as a gate on the hooks and metrics it reads.

Each workload named in BENCHMARK.json runs traced and untraced for one second
on the tiny corpus. A run must exit 0, pass its own
correctness checks, report exactly the metric names and units of
BENCHMARK.json, and find every library hook it wraps, so a refactor that
renames or drops one fails here rather than reading as a gain.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--shape", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result["metrics"]


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run(workload):
    metrics = run_bench(workload, trace=1)
    assert {name: m["unit"] for name, m in metrics.items()} == units("per_layer")
    assert metrics["trace.missing_hooks"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_tiny_run(workload):
    metrics = run_bench(workload, trace=0)
    assert {name: m["unit"] for name, m in metrics.items()} == units("end_to_end")
    assert all(m["value"] is not None and m["value"] > 0 for m in metrics.values())


def test_in_process_smoke_checks():
    # NaN pooled scores injected through cet.ranking.score_all_neighbors must
    # fail an eval run, and simulated refactors must read as missing metrics.
    code = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import run  # pins BLAS to one thread before NumPy loads\n"
        "import smoke\n"
        "smoke.check_in_process()\n"
        "sys.exit(1 if smoke.failures else 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
