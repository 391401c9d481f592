"""Randomized gradient verification sweep.

Builds many tiny typed graphs, scores one entity per instance through every
configuration corner (both losses, with and without the aggregated route,
self-evidence mask on and off), and compares the analytic gradients against
central finite differences in float64.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass

import numpy as np

from .graph import Vocab, build_graph, build_vocab
from .loss import backward, finite_diff_oracle, max_relative_error
from .scoring import ParameterSet, score_neighbor_arrays
from .train import sample_neighbors

__all__ = ["GradcheckCase", "GradcheckReport", "run_gradient_check"]


@contextlib.contextmanager
def _quiet_dedupe_warnings():
    # Random micro-graphs routinely repeat an edge; the warning is noise here.
    logger = logging.getLogger("cet.graph")
    level = logger.level
    logger.setLevel(logging.ERROR)
    try:
        yield
    finally:
        logger.setLevel(level)


def _draw_params(
    vocab: Vocab, k: int, rng: np.random.Generator, separate_heads: bool
) -> ParameterSet:
    """Moderate-scale random parameters for well-conditioned difference checks.

    The training init rule would give huge entries at tiny k, saturating the
    loss and drowning true gradients in difference-cancellation noise.
    """

    def draw(*shape: int) -> np.ndarray:
        return rng.uniform(-0.6, 0.6, size=shape)

    return ParameterSet(
        entity_emb=draw(vocab.num_entities, k),
        relation_emb=draw(vocab.num_relations, k),
        type_emb=draw(vocab.num_types, k),
        W=draw(vocab.num_types, k),
        b=draw(vocab.num_types),
        agg_W=draw(vocab.num_types, k) if separate_heads else None,
        agg_b=draw(vocab.num_types) if separate_heads else None,
    )


@dataclass(frozen=True)
class GradcheckCase:
    seed: int
    loss_kind: str
    use_agg2t: bool
    masked: bool
    use_activation: bool
    separate_heads: bool
    max_rel_err: float


@dataclass
class GradcheckReport:
    cases: list[GradcheckCase]
    tolerance: float

    @property
    def max_rel_err(self) -> float:
        return max(case.max_rel_err for case in self.cases)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def worst_case(self) -> GradcheckCase:
        return max(self.cases, key=lambda case: case.max_rel_err)


def _random_instance(rng: np.random.Generator):
    """A tiny random typed graph plus one scoreable entity with labels."""
    n_entities = int(rng.integers(3, 7))
    n_relations = int(rng.integers(1, 4))
    n_types = int(rng.integers(2, 5))
    entities = [f"e{i}" for i in range(n_entities)]
    relations = [f"r{i}" for i in range(n_relations)]
    types = [f"t{i}" for i in range(n_types)]

    triples = []
    for _ in range(int(rng.integers(2, 7))):
        s, o = rng.integers(0, n_entities, size=2)
        r = int(rng.integers(0, n_relations))
        triples.append((entities[s], relations[r], entities[o]))
    pairs = []
    for e in range(n_entities):
        for t in range(n_types):
            if rng.random() < 0.4:
                pairs.append((entities[e], types[t]))
    if not pairs:
        pairs.append((entities[0], types[0]))

    vocab = build_vocab(triples, pairs)
    with _quiet_dedupe_warnings():
        graph = build_graph(vocab, triples, pairs, include_type_edges=True)
    candidates = [e for e in range(vocab.num_entities) if graph.degree(e) > 0]
    entity = int(candidates[rng.integers(0, len(candidates))])

    train_types: dict[int, list[int]] = {}
    for e, t in pairs:
        train_types.setdefault(vocab.entity_ids[e], []).append(vocab.type_ids[t])
    positives = train_types.get(entity, [])
    return vocab, graph, entity, positives


def run_gradient_check(
    instances: int = 104,
    step: float = 1e-5,
    tolerance: float = 1e-4,
    seed: int = 0,
    *,
    sample_max: int = 3,
    dim_max: int = 5,
) -> GradcheckReport:
    """Sweep ``instances`` random micro-instances across the config grid.

    Each instance cycles through the 8-way grid of (loss, aggregated route,
    mask); activation and the separate aggregation head are varied on top.
    Everything runs in float64 so the only error left is the oracle's own
    O(step^2) truncation.
    """
    grid = [
        (loss_kind, use_agg2t, masked)
        for loss_kind in ("bce", "fna")
        for use_agg2t in (True, False)
        for masked in (False, True)
    ]
    cases = []
    for index in range(instances):
        rng = np.random.default_rng((seed, index))
        vocab, graph, entity, positives = _random_instance(rng)
        loss_kind, use_agg2t, masked = grid[index % len(grid)]
        use_activation = index % 3 != 2
        separate_heads = use_agg2t and index % 5 == 4
        k = int(rng.integers(2, dim_max + 1))
        params = _draw_params(vocab, k, rng, separate_heads)

        if masked:
            neighbors = graph.neighbor_arrays(entity)
            mask_labels = positives
        else:
            m = int(rng.integers(1, sample_max + 1))
            neighbors = sample_neighbors(graph, entity, m, rng)
            mask_labels = None

        beta = float(rng.uniform(0.5, 4.0))
        alpha = float(rng.uniform(0.3, 1.5))
        routes = dict(use_agg2t=use_agg2t, use_activation=use_activation)
        bundle = score_neighbor_arrays(params, *neighbors, alpha, mask_labels, **routes)
        _, analytic = backward(bundle, positives, loss_kind, beta)
        oracle = finite_diff_oracle(
            params, neighbors, positives, loss_kind, beta, step,
            alpha=alpha, mask_labels=mask_labels, **routes,
        )
        cases.append(
            GradcheckCase(
                seed=index,
                loss_kind=loss_kind,
                use_agg2t=use_agg2t,
                masked=masked,
                use_activation=use_activation,
                separate_heads=separate_heads,
                max_rel_err=max_relative_error(analytic, oracle),
            )
        )
    return GradcheckReport(cases=cases, tolerance=tolerance)
