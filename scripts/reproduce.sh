#!/usr/bin/env bash
# Full benchmark reproduction: trains both datasets with the tuned
# configurations and reports filtered test-split metrics. Expect about 2
# hours of training for FB15kET and 2.1 days for YAGO43kET on two cores,
# plus validation (see the README). Datasets are looked up under $CET_DATA_ROOT
# (default ./data), laid out as described in the README.
set -euo pipefail

# One BLAS thread: cet runs its own threads on the cores, one per core; they
# take the fixed lanes that training deals its type blocks (sampled batches)
# or degree buckets (mask-mode batches) to, and evaluation's buckets one at a
# time. cet starts them only when BLAS is pinned.
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

DATA_ROOT="${CET_DATA_ROOT:-data}"
OUT_ROOT="${1:-runs}"

run() {
    local name="$1" beta="$2"
    local data="$DATA_ROOT/$name" out="$OUT_ROOT/$name"
    echo "== $name: training (beta=$beta) =="
    cet train --data-dir "$data" --out "$out" \
        --dim 100 --alpha 0.5 --beta "$beta" --lr 0.001 \
        --batch-size 128 --sample-size 10 \
        --max-epochs 1000 --eval-every 25 --loss fna --seed 0
    echo "== $name: test metrics =="
    cet eval --data-dir "$data" --checkpoint "$out/checkpoint.cet" \
        --split test --rank-dump "$out/test_ranks.tsv"
}

run FB15kET 4.0
run YAGO43kET 2.0
