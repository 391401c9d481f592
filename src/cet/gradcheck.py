"""Randomized gradient verification sweep.

Builds many tiny typed graphs and runs the training kernel on each through
every configuration corner (both losses, with and without the aggregated
route, sampled and mask-mode batches). The analytic gradients are those of
the call training makes for every batch, ``train._train_batch``; half of
the mask-mode instances are ragged batches of entities of different degree,
so padding and its validity mask are differentiated too. Central finite
differences in float64 of the independent per-entity forward are the
reference.
"""

from __future__ import annotations

import contextlib
import copy
import logging
from dataclasses import dataclass

import numpy as np

from .data import assemble
from .graph import AugmentedGraph, Vocab, build_graph
from .loss import finite_diff_oracle, max_relative_error
from .scoring import ParameterSet
from .train import TrainConfig, _train_batch, sample_neighbors

__all__ = ["GradcheckCase", "GradcheckReport", "run_gradient_check"]


@contextlib.contextmanager
def _quiet_dedupe_logs():
    # Random micro-graphs routinely repeat an edge; the dedupe logs are noise here.
    logger = logging.getLogger("cet")
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
    batch_size: int
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
    """A tiny random typed graph, its training labels and one scoreable entity."""
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

    with _quiet_dedupe_logs():
        vocab, dataset = assemble(triples, pairs, [], [])
        graph = build_graph(vocab, triples, pairs, include_type_edges=True)
    candidates = np.flatnonzero(graph.degrees(np.arange(vocab.num_entities)))
    entity = int(candidates[rng.integers(0, len(candidates))])
    return vocab, graph, dataset, entity


def _ragged_batch(graph: AugmentedGraph, entity: int, rng: np.random.Generator) -> list[int]:
    """``entity`` plus up to two more entities, each of a degree new to the batch."""
    degrees = graph.degrees(np.arange(graph.num_entities))
    batch = [entity]
    for other in rng.permutation(graph.num_entities).tolist():
        if degrees[other] > 0 and degrees[other] not in degrees[batch] and len(batch) < 3:
            batch.append(other)
    return batch


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
    mask); activation and the separate aggregation head are varied on top,
    and the mask-mode instances of every other pass through the grid are
    ragged batches. Everything runs in float64 so the only error left is the
    oracle's own O(step^2) truncation.
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
        vocab, graph, dataset, entity = _random_instance(rng)
        loss_kind, use_agg2t, masked = grid[index % len(grid)]
        use_activation = index % 3 != 2
        separate_heads = use_agg2t and index % 5 == 4
        ragged = masked and (index // len(grid)) % 2 == 0
        batch = _ragged_batch(graph, entity, rng) if ragged else [entity]
        k = int(rng.integers(2, dim_max + 1))
        params = _draw_params(vocab, k, rng, separate_heads)

        # Mask mode scores every neighbor, so its sample size is unused.
        sample_size = 1 if masked else int(rng.integers(1, sample_max + 1))
        kernel_rng = copy.deepcopy(rng)  # replays the draws below in the kernel
        if masked:
            neighbors = [graph.neighbor_arrays(e) for e in batch]
        else:
            neighbors = list(zip(*sample_neighbors(graph, batch, sample_size, rng)))

        beta = float(rng.uniform(0.5, 4.0))
        alpha = float(rng.uniform(0.3, 1.5))
        config = TrainConfig(
            alpha=alpha, beta=beta, sample_size=sample_size, loss_kind=loss_kind,
            use_agg2t=use_agg2t, mask_mode=masked, use_activation=use_activation,
            separate_heads=separate_heads,
        )
        _, analytic = _train_batch(params, graph, dataset, batch, config, kernel_rng)
        oracle = finite_diff_oracle(
            params, [(n, dataset.positives(e)) for n, e in zip(neighbors, batch)],
            loss_kind, beta, step, alpha=alpha, self_mask=masked,
            use_agg2t=use_agg2t, use_activation=use_activation,
        )
        cases.append(
            GradcheckCase(
                seed=index,
                loss_kind=loss_kind,
                use_agg2t=use_agg2t,
                masked=masked,
                use_activation=use_activation,
                separate_heads=separate_heads,
                batch_size=len(batch),
                max_rel_err=max_relative_error(analytic, oracle),
            )
        )
    return GradcheckReport(cases=cases, tolerance=tolerance)
