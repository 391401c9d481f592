"""Smoke run of the benchmark on the tiny shape, plus a check of its output.

    python3 perfbench/smoke.py

Run from the repository root; exits 1 if any check fails. For every workload
named in BENCHMARK.json it runs the benchmark untraced twice and traced once,
each for one second on the tiny corpus, and checks that:

- the result line has exactly the keys correct/attempted/failed/metrics, is
  correct, and names exactly the end-to-end (untraced) or per-layer (traced)
  metrics of BENCHMARK.json, with their units;
- every end-to-end value is finite and non-zero;
- train_loss and eval_mrr repeat exactly at one seed, traced or not.

It also checks, in this process, that a run whose math produces NaN is
reported as failed rather than fast: NaN parameters must fail a training
batch, and NaN pooled scores (which rank_one turns into rank 0.5) must fail
the rank check. Finally, traced runs after simulated refactors must still
complete, report the affected per-layer metrics as missing (null, never 0)
and count them in ``trace.missing_hooks``: a hooked function that is gone, a
score result without ``candidate_scores``, and gradients without the sparse
row maps.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload: str, trace: int) -> tuple[dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--shape", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0, f"{workload} trace={trace} exits 0 (got {proc.returncode}: {proc.stderr[-500:]})")
    guards = next((line for line in lines if line.startswith("guards ")), "")
    try:
        return json.loads(lines[-1]), guards
    except (IndexError, ValueError):
        expect(False, f"{workload} trace={trace} ends with a JSON line")
        return None, guards


def check_result(workload: str, result: dict, wanted: list[dict], trace: int) -> None:
    tag = f"{workload} trace={trace}"
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{tag} result keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag} correct with attempted >= 1 and failed == 0")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == {m["name"]: m["unit"] for m in wanted}, f"{tag} names exactly the BENCHMARK.json metrics and units")
    if trace:
        bad = [n for n, m in result["metrics"].items() if m["value"] is None or not math.isfinite(m["value"])]
        expect(not bad, f"{tag} per-layer values present and finite {bad}")
    else:
        bad = [n for n, m in result["metrics"].items() if not math.isfinite(m["value"]) or m["value"] == 0]
        expect(not bad, f"{tag} end-to-end values finite and non-zero {bad}")


def check_missing(bench, workload: str, work: Path, names: list[str], what: str) -> None:
    """A traced run completes and reports exactly ``names`` as missing."""
    probe = bench.Run(workload, SEED, 0.1, True, work / "corpus", work)
    metrics = probe.execute()["metrics"]
    gone = sorted(n for n, m in metrics.items() if m["value"] is None)
    expect(not probe.failures and gone == sorted(names) and metrics["trace.missing_hooks"]["value"] == 1,
           f"{what}: {gone} reported missing, not 0 or a crash")


def check_in_process() -> None:
    import numpy as np

    import bench
    import cet.ranking
    import cet.train
    import gen

    work = ROOT / ".perfbench" / "smoke-nan"
    gen.generate("tiny", SEED, work / "corpus")
    try:
        warm_start = bench.warm_start

        def poisoned(params, *args):
            warm_start(params, *args)
            params.W[:] = np.nan

        bench.warm_start = poisoned
        probe = bench.Run("fb15ket-train", SEED, 0.1, False, work / "corpus", work)
        probe.execute()
        expect(probe.failures and probe.failed >= 1, "NaN parameters fail a training batch")
        bench.warm_start = warm_start

        score = cet.ranking.score_all_neighbors

        def nan_scores(*args, **kwargs):
            bundle = score(*args, **kwargs)
            bundle.pooled[:] = np.nan
            return bundle

        cet.ranking.score_all_neighbors = nan_scores
        probe = bench.Run("fb15ket-eval", SEED, 0.1, False, work / "corpus", work)
        probe.execute()
        expect(probe.failed >= 1 and any("ranks outside" in f for f in probe.failures),
               "NaN pooled scores (rank 0.5) count as failed queries")
        cet.ranking.score_all_neighbors = score

        # The sampled path never calls the per-entity scorer, so deleting it
        # is the refactor that merges the two paths.
        per_entity = cet.train.score_all_neighbors
        del cet.train.score_all_neighbors
        scoring = ["scoring.call_p50_ms", "scoring.call_tail_ms", "scoring.calls", "scoring.total_s",
                   "scoring.cand_cells", "scoring.call_peak_alloc_mb"]
        check_missing(bench, "fb15ket-train", work, scoring + ["train.self_s", "ranking.self_s"],
                      "a hooked function that is gone")
        cet.train.score_all_neighbors = per_entity

        cet.ranking.score_all_neighbors = lambda *a, **k: SimpleNamespace(pooled=score(*a, **k).pooled)
        check_missing(bench, "fb15ket-eval", work, ["scoring.cand_cells"], "a score result without candidate_scores")
        cet.ranking.score_all_neighbors = score

        fields = bench.GRAD_ROW_FIELDS
        bench.GRAD_ROW_FIELDS = ("entity_ids", "relation_ids", "type_ids")
        check_missing(bench, "fb15ket-train", work, ["optim.sparse_rows_per_step"], "gradients without row maps")
        bench.GRAD_ROW_FIELDS = fields
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run as launcher  # noqa: F401  (pins BLAS to one thread before NumPy loads)
    import bench

    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(bench.WORKLOADS), "BENCHMARK.json names exactly the benchmark's workloads")
    for workload in names:
        first, guards = run(workload, 0)
        _, guards2 = run(workload, 0)
        traced, traced_guards = run(workload, 1)
        if first:
            check_result(workload, first, spec["end_to_end"], 0)
        if traced:
            check_result(workload, traced, spec["per_layer"], 1)
        expect(bool(guards) and guards == guards2, f"{workload} guards repeat at one seed ({guards})")
        expect(bool(re.search(r"train_loss=\S+ eval_mrr=\S+", guards)) and guards == traced_guards,
               f"{workload} tracing leaves the guards unchanged")
    check_in_process()
    print(f"{len(failures)} smoke check(s) failed" if failures else "smoke run passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
