"""Seeded synthetic corpora at the FB15kET and YAGO43kET shapes.

Writes the four TSV files of the dataset layout plus ``corpus.json``, which
records the sizes and input properties the generator produced. The program
under test only ever sees the TSV files.

Entity degree and type frequency follow power laws, because padding cost,
hub-dominated evaluation and neighbour-row reuse all depend on the skew.
Every triple and every typed pair is distinct, so the sizes survive the
de-duplication in ``assemble`` and ``build_graph``; every type occurs in the
training split, so no validation or test pair is dropped.

    python3 perfbench/gen.py --shape fb15ket --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# Sizes of the public distributions. ``train_pairs`` is the training split;
# valid and test each get about an eighth of it (an 80/10/10 split).
#
# The exponents are assumptions, not fitted: no degree or type-frequency
# statistics of the real FB15kET and YAGO43kET are at hand, only their sizes.
# They were picked so that the FB shape reproduces earlier sizing runs of the
# library (one hub's score_all_neighbors call above 0.5 GB; batches of about
# 0.15 s on FB and 1.4 s on YAGO). The skew they give (seed 1: degree p50/p99/
# max 50/421/8208 on FB and 20/105/3574 on YAGO; the top 1% of types hold
# 41% and 50% of training pairs) is recorded in corpus.json, but it has not
# been compared with the real datasets.
SHAPES = {
    "fb15ket": dict(entities=14_951, relations=1_345, types=3_584, triples=483_142,
                    train_pairs=136_618, degree_exp=0.6, relation_exp=1.0, type_exp=1.0),
    "yago43ket": dict(entities=42_334, relations=37, types=45_182, triples=331_686,
                      train_pairs=375_853, degree_exp=0.6, relation_exp=0.5, type_exp=1.0),
    "tiny": dict(entities=300, relations=12, types=40, triples=2_000,
                 train_pairs=600, degree_exp=0.6, relation_exp=1.0, type_exp=1.0),
}
SPLIT = (0.8, 0.1, 0.1)
HEAD_TYPE_SHARE = 0.01  # "head types" are the most frequent 1% of types


def zipf_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Power-law weights over ``n`` items, assigned to items in random order."""
    w = np.arange(1, n + 1, dtype=float) ** -exponent
    return rng.permutation(w / w.sum())


def distinct_rows(keys: np.ndarray, limit: int) -> np.ndarray:
    """Positions of the first ``limit`` distinct keys, in first-appearance order."""
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return first[:limit]


def make_triples(shape: dict, rng: np.random.Generator) -> np.ndarray:
    n_ent, n_rel, n_tri = shape["entities"], shape["relations"], shape["triples"]
    ent_w = zipf_weights(n_ent, shape["degree_exp"], rng)
    rel_w = zipf_weights(n_rel, shape["relation_exp"], rng)
    # One triple per entity and relation first, so every name is in the vocabulary.
    seed_heads = rng.permutation(np.concatenate(
        [np.arange(n_ent), rng.integers(0, n_ent, max(0, n_rel - n_ent))]))
    seed_rels = np.concatenate([np.arange(n_rel), rng.choice(n_rel, len(seed_heads) - n_rel, p=rel_w)])
    heads = [seed_heads]
    rels = [seed_rels]
    seed_tails = rng.choice(n_ent, len(seed_heads), p=ent_w)
    seed_tails = np.where(seed_tails == seed_heads, (seed_heads + 1) % n_ent, seed_tails)
    tails = [seed_tails]
    while True:
        h, r, t = (np.concatenate(x) for x in (heads, rels, tails))
        keep = h != t
        h, r, t = h[keep], r[keep], t[keep]
        keys = (h.astype(np.int64) * n_rel + r) * n_ent + t
        rows = distinct_rows(keys, n_tri)
        if len(rows) == n_tri:
            break
        extra = int((n_tri - len(rows)) * 1.3) + 64
        heads.append(rng.choice(n_ent, extra, p=ent_w))
        rels.append(rng.choice(n_rel, extra, p=rel_w))
        tails.append(rng.choice(n_ent, extra, p=ent_w))
    out = np.stack([h[rows], r[rows], t[rows]], axis=1)
    return out[rng.permutation(n_tri)]


def make_pairs(shape: dict, hub: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (entity, type) pairs and their split (0 train, 1 valid, 2 test)."""
    n_ent, n_typ = shape["entities"], shape["types"]
    n_pairs = n_typ + round((shape["train_pairs"] - n_typ) / SPLIT[0])
    typ_w = zipf_weights(n_typ, shape["type_exp"], rng)
    # One training pair per type first, so every type is seen in training.
    ents = [rng.integers(0, n_ent, n_typ)]
    typs = [np.arange(n_typ)]
    while True:
        e, t = np.concatenate(ents), np.concatenate(typs)
        rows = distinct_rows(e.astype(np.int64) * n_typ + t, n_pairs)
        if len(rows) == n_pairs:
            break
        extra = int((n_pairs - len(rows)) * 1.3) + 64
        ents.append(rng.integers(0, n_ent, extra))
        typs.append(rng.choice(n_typ, extra, p=typ_w))
    pairs = np.stack([e[rows], t[rows]], axis=1)
    split = rng.choice(3, n_pairs, p=SPLIT)
    split[:n_typ] = 0  # the per-type pairs come first in first-appearance order
    # The biggest hub is always queried in validation, so the cost of
    # evaluating it shows on every seed.
    hub_types = set(pairs[pairs[:, 0] == hub, 1].tolist())
    if not (split[pairs[:, 0] == hub] == 1).any():
        extra = next(int(t) for t in np.argsort(-typ_w) if int(t) not in hub_types)
        pairs = np.vstack([pairs, [[hub, extra]]])
        split = np.append(split, 1)
    order = rng.permutation(len(pairs))
    return pairs[order], split[order]


def properties(shape: dict, triples: np.ndarray, pairs: np.ndarray, split: np.ndarray) -> dict:
    train = pairs[split == 0]
    degree = (
        np.bincount(triples[:, 0], minlength=shape["entities"])
        + np.bincount(triples[:, 2], minlength=shape["entities"])
        + np.bincount(train[:, 0], minlength=shape["entities"])
    )
    type_freq = np.sort(np.bincount(train[:, 1], minlength=shape["types"]))[::-1]
    head = max(1, int(shape["types"] * HEAD_TYPE_SHARE))
    return {
        "rows": {
            "triples": len(triples),
            "train": int((split == 0).sum()),
            "valid": int((split == 1).sum()),
            "test": int((split == 2).sum()),
        },
        "degree_p50": float(np.percentile(degree, 50)),
        "degree_p99": float(np.percentile(degree, 99)),
        "degree_max": int(degree.max()),
        "head_type_pair_share": float(type_freq[:head].sum() / len(train)),
        "augmented_edges": int(2 * len(triples) + len(train)),
        "drop_counts": {
            "duplicate_triples": 0,
            "duplicate_pairs": 0,
            "unseen_type": 0,
            "unknown_entity": 0,
            "cross_split_duplicates": 0,
        },
    }


def write_tsv(path: Path, lines) -> None:
    path.write_text("".join(lines), encoding="utf-8")


def generate(shape_name: str, seed: int, out: Path) -> dict:
    shape = SHAPES[shape_name]
    rng = np.random.default_rng([seed, sorted(SHAPES).index(shape_name)])
    triples = make_triples(shape, rng)
    hub = int(np.bincount(triples[:, [0, 2]].ravel()).argmax())
    pairs, split = make_pairs(shape, hub, rng)
    out.mkdir(parents=True, exist_ok=True)
    write_tsv(out / "train.txt", (f"e{h}\tr{r}\te{t}\n" for h, r, t in triples.tolist()))
    for code, name in enumerate(("train", "valid", "test")):
        rows = pairs[split == code].tolist()
        write_tsv(out / f"Entity_Type_{name}.txt", (f"e{e}\tt{t}\n" for e, t in rows))
    record = {"shape": shape_name, "seed": seed, **shape, **properties(shape, triples, pairs, split)}
    (out / "corpus.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.shape, args.seed, args.out)


if __name__ == "__main__":
    main()
