"""Run one CET benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fb15ket-train --seed 1 --seconds 10 --trace 0

Run from the repository root. The launcher pins BLAS to one thread,
generates the seeded synthetic corpus in a child process (so its memory is
not counted), then sets up and measures the workload in this process. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. A failed correctness check gives exit code 1; a missing
library gives exit code 2 and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Run BLAS on one thread, whatever the environment asks for.

    Two BLAS threads on two cores wait for each other at every call, so any
    other runnable process slows every matmul by a time slice; one thread
    only loses the time it is actually preempted. Must run before NumPy is
    imported anywhere in the process.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


pin_blas_threads()


def main() -> int:
    src = ROOT / "src"
    if not (src / "cet" / "__init__.py").is_file():
        print(f"cannot find the cet package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import bench
    import gen

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(bench.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=sorted(gen.SHAPES), help="override the workload's corpus shape (smoke runs use tiny)")
    args = parser.parse_args()

    shape = args.shape or bench.WORKLOADS[args.workload].shape
    work = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    corpus = work / "corpus"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--shape", shape, "--seed", str(args.seed), "--out", str(corpus)],
            check=True, timeout=150,
        )
        run = bench.Run(args.workload, args.seed, args.seconds, bool(args.trace), corpus, work)
        outcome = run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = bench.machine_info()
    correct = not run.failures and run.failed == 0
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": outcome["metrics"]}
    record = {
        "workload": args.workload, "shape": shape, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "corpus": run.record, "failures": run.failures,
        "train_loss": run.warm_loss, "eval_mrr": run.mrr_seen[0] if run.mrr_seen else None,
        "missing": run.tracer.missing + run.missing, "trace_overhead": getattr(run, "overhead", None),
        **outcome["info"], **result,
    }
    out = ROOT / ".perfbench" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        run.tracer.write(out.with_name(f"spans-{args.workload}-seed{args.seed}.json"), {"workload": args.workload})

    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"guards train_loss={record['train_loss']!r} eval_mrr={record['eval_mrr']!r}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    for name in record["missing"]:
        print(f"missing hook {name}")
    for name, metric in outcome["metrics"].items():
        value = "missing" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name:32s} {value:>16s} {metric['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
