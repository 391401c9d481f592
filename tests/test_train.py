import dataclasses
import itertools
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cet.kernel
import cet.ranking
import cet.train

from cet import (
    AdamState,
    NumericError,
    TrainConfig,
    evaluate,
    fit,
    init_params,
    load_checkpoint,
    sample_neighbors,
    save_checkpoint,
    train_epoch,
)
from cet.loss import GradientSet, loss_of_entity, max_relative_error
from cet.ranking import rank_one
from cet.train import _train_batch, format_log
from synth import assembled, hub_marker_corpus, kernel_gradients, one_type_instance, sample_each


@pytest.fixture(scope="module")
def hub_setup():
    return assembled(hub_marker_corpus())


class TestTrainConfig:
    def test_defaults_are_the_tuned_optimum(self):
        config = TrainConfig()
        assert (config.dim, config.alpha, config.beta, config.lr) == (100, 0.5, 4.0, 0.001)
        assert (config.batch_size, config.sample_size) == (128, 10)
        assert (config.max_epochs, config.eval_every) == (1000, 25)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=0.0)
        with pytest.raises(ValueError):
            TrainConfig(sample_size=0)
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="hinge")
        for name in ("alpha", "beta", "lr"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match="finite"):
                    TrainConfig(**{name: value})


class TestSampleNeighbors:
    def test_single_neighbor_forced(self, hub_setup):
        vocab, dataset, graph, *_ = hub_setup
        entity = next(e for e in range(vocab.num_entities) if graph.degree(e) == 1)
        rng = np.random.default_rng(0)
        sampled = sample_neighbors(graph, [entity], 10, rng)
        assert all(a.shape == (1, 10) for a in sampled)
        assert len(set(zip(*(a[0].tolist() for a in sampled)))) == 1

    def test_isolated_entity_rejected(self):
        from cet import build_graph, build_vocab

        vocab = build_vocab([("a", "r", "b")], [("z", "t")])
        graph = build_graph(vocab, [("a", "r", "b")], [], include_type_edges=False)
        z = vocab.entity_ids["z"]
        with pytest.raises(ValueError, match=f"entity {z} is isolated"):
            sample_neighbors(graph, [z], 5, np.random.default_rng(0))

    def test_isolated_entity_in_a_batch_is_named(self):
        from cet import build_graph, build_vocab

        triples = [("a", "r", "b"), ("c", "r", "a")]
        vocab = build_vocab(triples, [("z", "t"), ("y", "t")])
        graph = build_graph(vocab, triples, [], include_type_edges=False)
        a, b, y, z = (vocab.entity_ids[name] for name in "abyz")
        with pytest.raises(ValueError, match=f"entity {z} is isolated"):
            sample_neighbors(graph, [a, b, z, y], 5, np.random.default_rng(0))

    def test_two_neighbor_frequency(self):
        from cet import build_graph, build_vocab

        triples = [("a", "r", "b"), ("a", "r", "c")]
        vocab = build_vocab(triples, [("a", "t")])
        graph = build_graph(vocab, triples, [], include_type_edges=False)
        rng = np.random.default_rng(123)
        draws = 100_000
        sampled = sample_neighbors(graph, [vocab.entity_ids["a"]], draws, rng)
        _, _, _, tgt = sampled
        count_b = int((tgt[0] == vocab.entity_ids["b"]).sum())
        sigma = np.sqrt(draws * 0.25)
        assert abs(count_b - draws / 2) < 3 * sigma

    def test_same_seed_replays(self, hub_setup):
        vocab, dataset, graph, *_ = hub_setup
        entity = next(e for e in range(vocab.num_entities) if graph.degree(e) > 2)
        a = sample_neighbors(graph, [entity], 10, np.random.default_rng(9))
        b = sample_neighbors(graph, [entity], 10, np.random.default_rng(9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_matches_the_per_entity_sampler(self, hub_setup):
        # The batched draw takes the positions that one draw per entity, in
        # batch order, takes (degree-1 entities, which draw only zeros,
        # included), and leaves the generator in the same state.
        vocab, dataset, graph, *_ = hub_setup
        connected = np.flatnonzero(graph.degrees(np.arange(vocab.num_entities)))
        ones = [e for e in connected.tolist() if graph.degree(e) == 1]
        assert ones
        picker = np.random.default_rng(17)
        for trial in range(50):
            batch = picker.choice(connected, size=int(picker.integers(1, 40))).tolist()
            batch[int(picker.integers(len(batch)))] = ones[trial % len(ones)]
            size = int(picker.integers(1, 12))
            rng, reference_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            got = sample_neighbors(graph, batch, size, rng)
            want = sample_each(graph, batch, size, reference_rng)
            for column, parts in zip(got, zip(*want)):
                assert column.shape == (len(batch), size)
                np.testing.assert_array_equal(column, np.stack(parts))
            assert rng.integers(2**62) == reference_rng.integers(2**62)

    @given(
        st.lists(st.integers(1, 2**40), min_size=1, max_size=20),
        st.integers(1, 16),
        st.integers(0, 2**32 - 1),
    )
    @example([1, 2**32 - 1, 2**32, 2**32 + 1, 1, 2**33], 5, 0)
    def test_broadcast_draw_is_the_per_row_draws(self, degrees, size, seed):
        # sample_neighbors rests on this NumPy identity: one integers() call
        # with a column of upper bounds draws, row by row, what one call per
        # bound draws, and consumes the same generator output, for bounds
        # below and above 2**32 alike.
        degrees = np.array(degrees, dtype=np.int64)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = rng.integers(0, degrees[:, None], size=(len(degrees), size))
        want = [reference_rng.integers(0, d, size=size) for d in degrees.tolist()]
        np.testing.assert_array_equal(got, np.stack(want))
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def scatter_rows_reference(grads, rel, inv, is_type, tgt, dreps):
    """``_scatter_rows`` in its row-wise form, frozen: one ``np.unique`` and
    one 2-D ``np.add.at`` per table."""
    sign = np.where(inv, 1.0, -1.0).astype(dreps.dtype)
    for rows, idx, grad in (
        (grads.entity_rows, tgt[~is_type], dreps[~is_type]),
        (grads.type_rows, tgt[is_type], dreps[is_type]),
        (grads.relation_rows, rel, dreps * sign[:, None]),
    ):
        if idx.size:
            uniq, inverse = np.unique(idx, return_inverse=True)
            acc = np.zeros((len(uniq), grad.shape[-1]), dtype=grad.dtype)
            np.add.at(acc, inverse, grad)
            rows.update(zip(uniq.tolist(), acc))


class TestScatterRows:
    # (relations, share of type edges, share of inverted edges)
    CASES = {
        "mixed": (20, 0.3, 0.5),
        "one relation": (1, 0.3, 0.5),
        "no type edge": (20, 0.0, 0.5),
        "only type edges": (20, 1.0, 0.5),
        "forward edges": (20, 0.3, 0.0),
        "inverted edges": (20, 0.3, 1.0),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bits_match_the_row_wise_sum(self, case, dtype):
        # Hundreds of edges over a few dozen rows, with magnitudes spread over
        # twelve decades and some rows signed zeros (as a ReLU mask leaves
        # them), so that any other order or start of the sums shows in the bits.
        relations, type_share, inverted_share = self.CASES[case]
        rng = np.random.default_rng(sorted(self.CASES).index(case))
        edges, k = 700, 6
        rel = rng.integers(0, relations, size=edges)
        inv = rng.random(edges) < inverted_share
        is_type = rng.random(edges) < type_share
        tgt = rng.integers(0, 40, size=edges)
        dreps = rng.normal(size=(edges, k)) * 10.0 ** rng.uniform(-6, 6, size=(edges, 1))
        dreps[rng.random(edges) < 0.1] *= -0.0
        dreps = dreps.astype(dtype)
        got, want = (GradientSet(W=np.zeros((1, k)), b=np.zeros(1)) for _ in range(2))
        cet.train._scatter_rows(got, rel, inv, is_type, tgt, dreps)
        scatter_rows_reference(want, rel, inv, is_type, tgt, dreps)
        assert bool(got.entity_rows) == (type_share < 1)
        assert bool(got.type_rows) == (type_share > 0)
        for (name, mine), (_, theirs) in zip(got.named_sparse(), want.named_sparse()):
            assert list(mine) == list(theirs), name
            assert all(row.dtype == dtype for row in mine.values()), name
            assert [row.tobytes() for row in mine.values()] == [
                row.tobytes() for row in theirs.values()
            ], name


def with_mask_mode(config):
    """``config`` with mask mode on, for a ``_train_batch`` given no generator:
    mask mode draws nothing."""
    return dataclasses.replace(config, mask_mode=True)


def add_into(total, part):
    """``total += part`` for gradient sets: dense tensors and sparse row maps."""
    for (_, mine), (_, theirs) in zip(total.named_dense(), part.named_dense()):
        mine += theirs
    for (_, mine), (_, theirs) in zip(total.named_sparse(), part.named_sparse()):
        for row, vec in theirs.items():
            mine[row] = mine[row] + vec if row in mine else vec.copy()


def reference(params, graph, dataset, batch, config, draws=None):
    """Per-entity losses and their summed gradients, one entity at a time.

    Losses come from the per-entity forward ``loss_of_entity``; gradients
    from the kernel run on each entity alone, in one type block, which the
    gradient check ties to finite differences. With ``draws`` each entity is
    scored from its sampled neighbor arrays; without, from all of its
    neighbors under the self-evidence mask.
    """
    grads = GradientSet.zeros_like(params)
    losses = []
    routes = dict(use_agg2t=config.use_agg2t, use_activation=config.use_activation)
    for row, entity in enumerate(batch):
        labels = dataset.positives(entity)
        neighbors = graph.neighbor_arrays(entity) if draws is None else draws[row]
        losses.append(loss_of_entity(
            params, neighbors, labels, config.loss_kind, config.beta, config.alpha,
            draws is None, **routes,
        ))
        _, grad = kernel_gradients(params, neighbors, labels, config, self_mask=draws is None)
        add_into(grads, grad)
    return np.array(losses), grads


def assert_float32_close(losses, grads, ref_losses, reference_grads, tol=1e-4):
    # float32 carries ~7 significant digits; sums over a few hundred terms
    # keep 1e-4 of each tensor's largest entry with wide margin.
    np.testing.assert_allclose(losses, ref_losses, rtol=tol)
    for (name, got), (_, want) in zip(grads.named_dense(), reference_grads.named_dense()):
        assert got.dtype == np.float32, name
        np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())
    for (name, got), (_, want) in zip(grads.named_sparse(), reference_grads.named_sparse()):
        assert got.keys() == want.keys(), name
        scale = max(np.abs(row).max() for row in want.values())
        for row, vec in got.items():
            assert vec.dtype == np.float32, name
            np.testing.assert_allclose(vec, want[row], rtol=0, atol=tol * scale)


class TestBatchedPath:
    """Batched kernel calls against each entity run alone, in both training modes."""

    # (loss_kind, use_agg2t, separate_heads, use_activation)
    CASES = [
        ("fna", True, False, True),
        ("bce", True, False, True),
        ("fna", False, False, True),
        ("bce", False, False, True),
        ("fna", True, True, True),
        ("fna", True, False, False),
    ]
    M = 7
    RAGGED = 3  # type-block width that does not divide the 8 types

    @staticmethod
    def setup_case(hub_setup, case):
        vocab, dataset, graph, *_ = hub_setup
        loss_kind, use_agg2t, separate_heads, use_activation = case
        config = TrainConfig(
            loss_kind=loss_kind, use_agg2t=use_agg2t, separate_heads=separate_heads,
            use_activation=use_activation, sample_size=TestBatchedPath.M,
        )
        params = init_params(vocab, 12, seed=5, dtype=np.float64, separate_heads=separate_heads)
        rng = np.random.default_rng(2)
        # Non-zero biases, different per head, so the pooling sees them.
        params.b[:] = rng.normal(size=vocab.num_types)
        if separate_heads:
            params.agg_b[:] = rng.normal(size=vocab.num_types)
        # Entity order, so degrees are unsorted (2 to 9 here).
        batch = [e for e in sorted(dataset.train_types) if graph.degree(e) > 0][:16]
        return config, params, batch

    @staticmethod
    def sampled(monkeypatch, width, params, hub_setup, batch, config):
        """The sampled batch with type blocks ``width`` columns wide, plus its draws replayed."""
        vocab, dataset, graph, *_ = hub_setup
        rows = config.sample_size + (1 if config.use_agg2t else 0)
        monkeypatch.setattr(cet.kernel, "_CELLS", width * len(batch) * rows)
        losses, grads = _train_batch(
            params, graph, dataset, batch, config, np.random.default_rng(3)
        )
        draws = sample_each(graph, batch, config.sample_size, np.random.default_rng(3))
        return losses, grads, draws

    def masked_layouts(self, monkeypatch, params, hub_setup, batch, config):
        """Mask-mode batch results: one bucket and one type block, one bucket
        with ragged type blocks, then several padded buckets with blocks of
        one to three types."""
        vocab, dataset, graph, *_ = hub_setup
        rows = max(graph.degree(e) for e in batch) + (1 if config.use_agg2t else 0)
        for cells, bucket_rows in (
            (vocab.num_types * len(batch) * rows, 10**6),
            (self.RAGGED * len(batch) * rows, 10**6),
            (self.RAGGED * 12, 12),
        ):
            monkeypatch.setattr(cet.kernel, "_CELLS", cells)
            monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", bucket_rows)
            yield _train_batch(params, graph, dataset, batch, with_mask_mode(config), None)

    def test_matches_per_entity_reference(self, hub_setup, monkeypatch):
        vocab, dataset, graph, *_ = hub_setup
        assert vocab.num_types % self.RAGGED != 0
        for case in self.CASES:
            config, params, batch = self.setup_case(hub_setup, case)
            results = []
            for width in (vocab.num_types, self.RAGGED):
                losses, grads, draws = self.sampled(
                    monkeypatch, width, params, hub_setup, batch, config
                )
                ref_losses, ref_grads = reference(params, graph, dataset, batch, config, draws)
                np.testing.assert_allclose(losses, ref_losses, rtol=1e-10)
                assert max_relative_error(grads, ref_grads) < 1e-9
                results.append((losses, grads))
            (one_losses, one_grads), (ragged_losses, ragged_grads) = results
            np.testing.assert_allclose(ragged_losses, one_losses, rtol=1e-6)
            assert max_relative_error(ragged_grads, one_grads) < 1e-6

    def test_masked_matches_per_entity_reference(self, hub_setup, monkeypatch):
        vocab, dataset, graph, *_ = hub_setup
        for case in self.CASES:
            config, params, batch = self.setup_case(hub_setup, case)
            ref_losses, ref_grads = reference(params, graph, dataset, batch, config)
            results = list(self.masked_layouts(monkeypatch, params, hub_setup, batch, config))
            for losses, grads in results:
                np.testing.assert_allclose(losses, ref_losses, rtol=1e-10)
                assert max_relative_error(grads, ref_grads) < 1e-9
            (one_losses, one_grads), *others = results
            for losses, grads in others:
                np.testing.assert_allclose(losses, one_losses, rtol=1e-6)
                assert max_relative_error(grads, one_grads) < 1e-6

    def test_float32_matches_float64_reference(self, hub_setup, monkeypatch):
        vocab, dataset, graph, *_ = hub_setup
        for case in self.CASES:
            config, params, batch = self.setup_case(hub_setup, case)
            losses, grads, draws = self.sampled(
                monkeypatch, self.RAGGED, params.astype(np.float32), hub_setup, batch, config
            )
            ref_losses, ref_grads = reference(params, graph, dataset, batch, config, draws)
            assert_float32_close(losses, grads, ref_losses, ref_grads)

            ref_losses, ref_grads = reference(params, graph, dataset, batch, config)
            for losses, grads in self.masked_layouts(
                monkeypatch, params.astype(np.float32), hub_setup, batch, config
            ):
                assert_float32_close(losses, grads, ref_losses, ref_grads)

    def test_rng_draws_of_each_mode(self, hub_setup):
        # Seeded mask-mode runs and gradcheck's replay rest on this: a
        # mask-mode batch draws nothing, and a sampled batch draws what one
        # sample_neighbors call over the batch draws.
        vocab, dataset, graph, *_ = hub_setup
        config, params, batch = self.setup_case(hub_setup, self.CASES[0])
        rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
        _train_batch(params, graph, dataset, batch, with_mask_mode(config), rng)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        _train_batch(params, graph, dataset, batch, config, rng)
        sample_neighbors(graph, batch, config.sample_size, reference_rng)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_fully_blanked_column(self):
        # "c" has one neighbor, its own has_type edge, and one type exists:
        # both of its candidates for t0 are blanked, so the column pools to
        # -inf and drops out of the loss. "a" keeps one live candidate.
        from cet import build_graph, build_vocab
        from cet.data import TypingDataset

        triples = [("a", "r", "b")]
        pairs = [("a", "t0"), ("c", "t0")]
        vocab = build_vocab(triples, pairs)
        graph = build_graph(vocab, triples, pairs)
        a, c = vocab.entity_ids["a"], vocab.entity_ids["c"]
        assert graph.degree(c) == 1
        train = [(a, 0), (c, 0)]
        dataset = TypingDataset(
            train=train, valid=[], test=[], known_types={a: {0}, c: {0}},
            train_types={a: [0], c: [0]},
        )
        params = init_params(vocab, 3, seed=1, dtype=np.float64)
        config = TrainConfig(mask_mode=True, loss_kind="bce")
        ref_losses, ref_grads = reference(params, graph, dataset, [a, c], config)
        losses, grads = _train_batch(params, graph, dataset, [a, c], config, None)
        assert np.isfinite(losses).all() and losses[1] == 0
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-10)
        assert max_relative_error(grads, ref_grads) < 1e-9
        np.testing.assert_array_equal(grads.type_rows[0], 0)
        dead_losses, dead_grads = _train_batch(params, graph, dataset, [c], config, None)
        assert dead_losses.tolist() == [0.0]
        for _, tensor in dead_grads.named_dense():
            np.testing.assert_array_equal(tensor, 0)


@st.composite
def ragged_batches(draw):
    """A random typed graph, a batch of its entities and a mask-mode config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degrees = draw(st.lists(st.integers(0, 9), min_size=1, max_size=8))
    num_types = draw(st.integers(1, 5))
    triples, pairs = [], []
    for i, degree in enumerate(degrees):
        for _ in range(degree):
            triples.append((f"e{i}", f"r{rng.integers(3)}", f"x{rng.integers(6)}"))
        labels = rng.choice(num_types, size=rng.integers(1, num_types + 1), replace=False)
        pairs.extend((f"e{i}", f"t{t}") for t in sorted(labels))
    separate_heads = draw(st.booleans())
    config = TrainConfig(
        mask_mode=True,
        loss_kind=draw(st.sampled_from(["bce", "fna"])),
        use_agg2t=draw(st.booleans()),
        separate_heads=separate_heads,
    )
    return triples, pairs, config, draw(st.integers(1, 40))


class TestRaggedKernel:
    @given(ragged_batches())
    def test_batch_matches_entities_run_alone(self, case):
        # Degree buckets, padding and the batch sort must not change any
        # entity's loss or its share of the gradients.
        from cet import build_graph, build_vocab
        from cet.data import TypingDataset

        triples, pairs, config, bucket_rows = case
        vocab = build_vocab(triples, pairs)
        graph = build_graph(vocab, triples, pairs)
        train_types = {}
        for e, t in pairs:
            train_types.setdefault(vocab.entity_ids[e], []).append(vocab.type_ids[t])
        dataset = TypingDataset(
            train=[(e, t) for e, types in train_types.items() for t in types], valid=[],
            test=[], known_types={e: set(t) for e, t in train_types.items()},
            train_types=train_types,
        )
        params = init_params(
            vocab, 6, seed=1, dtype=np.float64, separate_heads=config.separate_heads
        )
        params.b[:] = np.random.default_rng(2).normal(size=vocab.num_types)
        if config.separate_heads:
            params.agg_b[:] = np.random.default_rng(3).normal(size=vocab.num_types)
        batch = list(train_types)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cet.kernel, "_BUCKET_ROWS", bucket_rows)
            losses, grads = _train_batch(params, graph, dataset, batch, config, None)
            alone_losses = []
            alone_grads = GradientSet.zeros_like(params)
            for entity in batch:
                loss, grad = _train_batch(params, graph, dataset, [entity], config, None)
                alone_losses.append(loss[0])
                add_into(alone_grads, grad)
        np.testing.assert_allclose(losses, alone_losses, rtol=1e-6)
        assert max_relative_error(grads, alone_grads) < 1e-6


class TestMultiBlockOracle:
    """Batched training against finite differences, not against the kernel:
    ragged type blocks on several lanes, several degree buckets in mask mode."""

    SAMPLE_SIZE = 4

    @staticmethod
    def instance(separate_heads):
        from cet import build_graph, build_vocab
        from cet.data import TypingDataset
        from cet.gradcheck import _draw_params

        rng = np.random.default_rng(4)
        triples, pairs = [], []
        for i, degree in enumerate([1, 2, 3, 5, 7]):
            triples += [(f"e{i}", f"r{rng.integers(3)}", f"x{rng.integers(4)}")
                        for _ in range(degree)]
            labels = rng.choice(5, size=rng.integers(1, 4), replace=False)
            pairs += [(f"e{i}", f"t{t}") for t in sorted(labels)]
        vocab = build_vocab(triples, pairs)
        graph = build_graph(vocab, triples, pairs)  # has_type edges included
        train_types = {}
        for e, t in pairs:
            train_types.setdefault(vocab.entity_ids[e], []).append(vocab.type_ids[t])
        dataset = TypingDataset(
            train=[(e, t) for e, types in train_types.items() for t in types], valid=[],
            test=[], known_types={e: set(t) for e, t in train_types.items()},
            train_types=train_types,
        )
        params = _draw_params(vocab, 3, np.random.default_rng(2), separate_heads)
        return graph, dataset, params, list(train_types)

    @pytest.mark.parametrize("separate_heads", [False, True], ids=["shared", "separate"])
    @pytest.mark.parametrize("mask_mode", [False, True], ids=["sampled", "mask"])
    def test_gradients_match_finite_differences(self, monkeypatch, mask_mode, separate_heads):
        from cet.loss import finite_diff_oracle

        graph, dataset, params, batch = self.instance(separate_heads)
        config = TrainConfig(
            mask_mode=mask_mode, separate_heads=separate_heads, sample_size=self.SAMPLE_SIZE
        )
        monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", 8)
        if mask_mode:
            # Four buckets of 5 to 10 candidate cells per type: blocks of one
            # or two of the 5 types.
            assert len(list(cet.kernel._degree_buckets(graph.degrees(batch)))) == 4
            monkeypatch.setattr(cet.kernel, "_CELLS", 12)
            neighbors = [graph.neighbor_arrays(e) for e in batch]
        else:
            # Blocks of 2, 2 and 1 types.
            monkeypatch.setattr(cet.kernel, "_CELLS", 2 * len(batch) * (self.SAMPLE_SIZE + 1))
            neighbors = sample_each(graph, batch, self.SAMPLE_SIZE, np.random.default_rng(3))
        losses, grads = _train_batch(
            params, graph, dataset, batch, config, np.random.default_rng(3)
        )
        entities = [(n, dataset.positives(e)) for n, e in zip(neighbors, batch)]
        want = [
            loss_of_entity(params, n, labels, config.loss_kind, config.beta, config.alpha,
                           mask_mode)
            for n, labels in entities
        ]
        np.testing.assert_allclose(losses, want, rtol=1e-10)
        fd = finite_diff_oracle(
            params, entities, config.loss_kind, config.beta, alpha=config.alpha,
            self_mask=mask_mode,
        )
        assert max_relative_error(grads, fd) < 1e-4  # the gradient check's tolerance


class TestTiedHeads:
    """Separate heads tied to the shared head, ``agg_W = W`` and ``agg_b = b``:
    the kernel gives the shared-head results, the classifier gradient split
    between the two heads."""

    @pytest.mark.parametrize("mask_mode", [False, True], ids=["sampled", "mask"])
    def test_tied_heads_match_shared_heads(self, hub_setup, monkeypatch, mask_mode):
        _, dataset, graph, *_ = hub_setup
        config, shared, batch = TestBatchedPath.setup_case(hub_setup, TestBatchedPath.CASES[0])
        tied = dataclasses.replace(shared, agg_W=shared.W.copy(), agg_b=shared.b.copy())
        if mask_mode:
            arrays, valid = cet.kernel._padded_neighbors(graph, batch)
        else:
            arrays = sample_neighbors(graph, batch, config.sample_size, np.random.default_rng(3))
            valid = np.ones(arrays[0].shape, dtype=bool)
        positives = cet.train._positive_pairs(batch, dataset)
        # Ragged blocks of 3 of the 8 types, on one thread so that the pooled
        # blocks reach the loss in the same order in both runs.
        monkeypatch.setattr(cet.kernel, "_CELLS", TestBatchedPath.RAGGED * valid.size + len(batch))
        monkeypatch.setattr(cet.kernel, "_THREADS", 1)
        loss_terms = cet.kernel._loss_terms

        def run(params):
            pooled = []

            def capture(block, *args):
                pooled.append(block.copy())
                return loss_terms(block, *args)

            monkeypatch.setattr(cet.kernel, "_loss_terms", capture)
            grads = GradientSet.zeros_like(params)
            losses, dz = cet.kernel.backward(
                params, grads, *arrays, positives, config, valid, self_mask=mask_mode
            )
            return losses, np.concatenate(pooled, axis=1), dz, grads

        want, got = run(shared), run(tied)
        for a, b in zip(want[:3], got[:3]):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)
        want_grads, got_grads = want[3], got[3]
        np.testing.assert_allclose(got_grads.W + got_grads.agg_W, want_grads.W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_grads.b + got_grads.agg_b, want_grads.b, rtol=0, atol=1e-12)
        assert np.abs(got_grads.agg_W).max() > 0


def bits(result):
    """A kernel result's losses and gradients as bytes, to compare bit for bit."""
    losses, grads = result
    dense = [tensor.tobytes() for _, tensor in grads.named_dense()]
    sparse = [
        sorted((row, vec.tobytes()) for row, vec in rows.items())
        for _, rows in grads.named_sparse()
    ]
    return losses.tobytes(), dense, sparse


@contextmanager
def lane_threads():
    """The threads that run kernel tasks while inside: one set per
    ``_run_tasks`` call, which is one sampled training kernel call (its
    lanes), one mask-mode training batch or one ``evaluate`` (their buckets).

    Threads take tasks as they come free, so when a call has more than one
    thread, the caller holds its first task until a worker has taken another:
    otherwise a caller that ran every task before the worker started would
    leave the worker idle and the record without it.
    """
    calls = []
    run_tasks = cet.kernel._run_tasks

    def recorded(run_task, tasks, new_slab):
        threads = set()
        calls.append(threads)
        worker_started = threading.Event()

        def run(task, slab):
            thread = threading.current_thread()
            threads.add(thread)
            if thread.name.startswith("cet-lane"):
                worker_started.set()
            elif min(len(tasks), cet.kernel._THREADS) > 1:
                worker_started.wait(timeout=60)
            run_task(task, slab)

        run_tasks(run, tasks, new_slab)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cet.kernel, "_run_tasks", recorded)
        yield calls


def thread_names(calls):
    return {thread.name for threads in calls for thread in threads}


class TestLanes:
    """The type blocks of one sampled training kernel call, run in lanes, and
    the degree buckets of one mask-mode batch or one ``evaluate``, on up to
    ``_THREADS`` threads."""

    @staticmethod
    def batches(monkeypatch, params, hub_setup, batch, config):
        """A sampled and a padded mask-mode batch, with one-type blocks (8 per
        call) and several degree buckets; records which threads ran lanes or
        buckets."""
        vocab, dataset, graph, *_ = hub_setup
        rows = max(graph.degree(e) for e in batch) + 1
        monkeypatch.setattr(cet.kernel, "_CELLS", len(batch) * rows)
        monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", 12)
        with lane_threads() as calls:
            sampled = _train_batch(params, graph, dataset, batch, config, np.random.default_rng(3))
            masked = _train_batch(params, graph, dataset, batch, with_mask_mode(config), None)
        return [bits(sampled), bits(masked)], thread_names(calls)

    @staticmethod
    def forward(monkeypatch, params, hub_setup, config):
        """``evaluate`` of the validation split with one-type blocks (8 per
        call) and a 6-row bucket budget, so several multi-entity buckets and
        buckets of one entity above the budget: every bucket's pooled block
        as bytes, by bucket, and the ranks, each checked against ``rank_one``
        of its entity's row of those blocks; records which threads scored
        buckets."""
        vocab, dataset, graph, *_ = hub_setup
        monkeypatch.setattr(cet.kernel, "_CELLS", 1)
        monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", 6)
        pooled, threads = {}, set()
        score = cet.ranking.score_all_neighbors

        def recorded(params, graph, entities, *args, **kwargs):
            threads.add(threading.current_thread().name)
            bundle = score(params, graph, entities, *args, **kwargs)
            pooled[tuple(entities)] = bundle.pooled.copy()
            return bundle

        with lane_threads(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(cet.ranking, "score_all_neighbors", recorded)
            report = evaluate(
                params, graph, dataset, "valid", config.alpha, use_agg2t=config.use_agg2t,
                use_activation=config.use_activation,
            )
        assert sum(len(b) > 1 for b in pooled) >= 3
        assert any(len(b) == 1 and graph.degree(b[0]) > 6 for b in pooled)
        # Every query is ranked against its own entity's row, in its own slot.
        rows = {e: block[i] for bucket, block in pooled.items() for i, e in enumerate(bucket)}
        expected = [
            rank_one(rows[e], gold, dataset.known_types[e]) if np.isfinite(rows[e]).all() else np.nan
            for e, gold, _ in report.ranks
        ]
        np.testing.assert_array_equal([rank for *_, rank in report.ranks], expected)
        blocks = sorted((bucket, block.tobytes()) for bucket, block in pooled.items())
        return [blocks, report.ranks], threads

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_at_any_thread_count(self, hub_setup, monkeypatch, dtype):
        for case in TestBatchedPath.CASES:
            config, params, batch = TestBatchedPath.setup_case(hub_setup, case)
            params = params.astype(dtype)
            for run in (
                lambda: self.batches(monkeypatch, params, hub_setup, batch, config),
                lambda: self.forward(monkeypatch, params, hub_setup, config),
            ):
                results = []
                for threads in sorted({1, 2, cet.kernel._LANES}):
                    monkeypatch.setattr(cet.kernel, "_THREADS", threads)
                    result, names = run()
                    workers = {name for name in names if name.startswith("cet-lane")}
                    assert bool(workers) == (threads > 1), (case, threads, names)
                    results.append(result)
                assert all(result == results[0] for result in results[1:]), case

    def test_more_threads_than_cores_under_fast_switching(self, hub_setup, monkeypatch):
        # Eight lanes on eight threads, switching every microsecond: a lane
        # that wrote into another's accumulators or columns, or a block run
        # twice or not at all, would change the bits against the same lanes
        # run serially, in training and in evaluation.
        config, params, batch = TestBatchedPath.setup_case(hub_setup, TestBatchedPath.CASES[4])
        monkeypatch.setattr(cet.kernel, "_LANES", 8)
        results = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for threads in (1, 8, 8):
                monkeypatch.setattr(cet.kernel, "_THREADS", threads)
                results.append((
                    self.batches(monkeypatch, params, hub_setup, batch, config)[0],
                    self.forward(monkeypatch, params, hub_setup, config)[0],
                ))
        finally:
            sys.setswitchinterval(interval)
        assert results[1] == results[0] and results[2] == results[0]

    def test_a_call_given_a_slab_makes_one_pass(self, monkeypatch):
        # Float32 kernel calls with one type per block: 30 blocks. A sampled
        # call without a slab deals _LANES lanes to the threads, with the same
        # bytes at 1 and 2 threads. A mask-mode bucket's call, given a slab,
        # sums its blocks in one pass on the calling thread, so its bytes are
        # those of the same call with one lane; lanes run one after another
        # would add the blocks in another order.
        vocab, dataset, graph, *_ = assembled(hub_marker_corpus(n_entities=80, n_types=30))
        params = init_params(vocab, 12, seed=5)
        params.b[:] = np.random.default_rng(2).normal(size=vocab.num_types)
        batch = [e for e in sorted(dataset.train_types) if graph.degree(e) > 0][:16]
        positives = cet.train._positive_pairs(batch, dataset)
        monkeypatch.setattr(cet.kernel, "_CELLS", 1)
        assert vocab.num_types >= 3 * cet.kernel._LANES
        dealt = []
        run_tasks = cet.kernel._run_tasks

        def recorded(run_task, tasks, new_slab):
            dealt.append(len(tasks))
            run_tasks(run_task, tasks, new_slab)

        monkeypatch.setattr(cet.kernel, "_run_tasks", recorded)

        def call(arrays, valid, **kwargs):
            grads = GradientSet.zeros_like(params)
            losses, dz = cet.kernel.backward(
                params, grads, *arrays, positives, TrainConfig(), valid, **kwargs
            )
            return [a.tobytes() for a in (losses, dz, grads.W, grads.b)]

        sampled = sample_neighbors(graph, batch, 5, np.random.default_rng(3))
        results = []
        for threads in (1, 2):
            monkeypatch.setattr(cet.kernel, "_THREADS", threads)
            results.append(call(sampled, np.ones(sampled[0].shape, dtype=bool)))
        assert results[1] == results[0]
        assert dealt == [cet.kernel._LANES] * 2

        padded, valid = cet.kernel._padded_neighbors(graph, batch)
        rows = valid.size + len(batch)  # the Agg2T rows included

        def masked():
            slab = cet.kernel._slab(rows, vocab.num_types, params.dtype)
            return call(padded, valid, self_mask=True, slab=slab)

        one_pass = masked()
        monkeypatch.setattr(cet.kernel, "_LANES", 1)
        assert masked() == one_pass
        assert len(dealt) == 2

    def test_workers_keep_the_callers_errstate(self, hub_setup, monkeypatch):
        # Lanes on a worker thread run under the caller's np.errstate: the
        # NaN that an inf classifier makes in every block stays quiet there
        # too, instead of a RuntimeWarning, which the test settings raise.
        config, params, _ = TestBatchedPath.setup_case(hub_setup, TestBatchedPath.CASES[0])
        params.W[:] = np.inf
        monkeypatch.setattr(cet.kernel, "_THREADS", 2)
        with np.errstate(invalid="ignore", over="ignore"):
            (_, ranks), threads = self.forward(monkeypatch, params, hub_setup, config)
        assert any(name.startswith("cet-lane") for name in threads)
        assert all(np.isnan(rank) for _, _, rank in ranks)

    def test_a_failed_bucket_stops_every_thread(self, hub_setup, monkeypatch):
        # The first bucket taken raises once the other thread holds a bucket.
        # No thread takes another bucket; evaluate raises that very exception
        # once the other thread has finished its bucket, and the next evaluate
        # ranks as one that never failed.
        config, params, _ = TestBatchedPath.setup_case(hub_setup, TestBatchedPath.CASES[0])
        vocab, dataset, graph, *_ = hub_setup
        monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", 6)
        monkeypatch.setattr(cet.kernel, "_THREADS", 2)

        def ranks():
            return evaluate(params, graph, dataset, "valid", config.alpha).ranks

        expected = ranks()
        score = cet.ranking.score_all_neighbors
        failure = RuntimeError("bucket failed")
        calls, taken, finished = itertools.count(), [], []
        holding, failed = threading.Event(), threading.Event()

        def failing(*args, **kwargs):
            taken.append(args[2])
            if next(calls) == 0:
                assert holding.wait(timeout=10)
                failed.set()
                raise failure
            holding.set()
            failed.wait(timeout=10)
            time.sleep(0.1)  # still scoring when the other bucket has failed
            bundle = score(*args, **kwargs)
            finished.append(args[2])
            return bundle

        monkeypatch.setattr(cet.ranking, "score_all_neighbors", failing)
        with pytest.raises(RuntimeError) as raised:
            ranks()
        assert raised.value is failure
        assert len(taken) == 2 and len(finished) == 1
        monkeypatch.setattr(cet.ranking, "score_all_neighbors", score)
        assert ranks() == expected

    @staticmethod
    def mask_batch(monkeypatch, hub_setup, case):
        """A mask-mode batch of one-entity buckets (16 here) on two threads:
        ``run()`` gives its result as bytes, and ``patch(around)`` makes
        bucket i's kernel call ``call`` run as ``around(i, grads, call)`` on
        whichever thread took the bucket."""
        config, params, batch = TestBatchedPath.setup_case(hub_setup, TestBatchedPath.CASES[case])
        config = with_mask_mode(config)
        vocab, dataset, graph, *_ = hub_setup
        monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", 1)
        monkeypatch.setattr(cet.kernel, "_THREADS", 2)
        buckets = list(cet.kernel._degree_buckets(graph.degrees(batch)))
        assert len(buckets) == len(batch)
        index = {tuple(batch[j] for j in b): i for i, b in enumerate(buckets)}
        which = {}  # each bucket's relation array, while its call runs
        padded, kernel = cet.train._padded_neighbors, cet.train.backward

        def padded_neighbors(graph, entities):
            arrays, valid = padded(graph, entities)
            which[id(arrays[0])] = index[tuple(entities)]
            return arrays, valid

        def patch(around):
            def backward(params, grads, rel, *args, **kwargs):
                return around(which[id(rel)], grads, lambda: kernel(params, grads, rel, *args, **kwargs))

            monkeypatch.setattr(cet.train, "_padded_neighbors", padded_neighbors)
            monkeypatch.setattr(cet.train, "backward", backward)

        def run():
            return bits(_train_batch(params, graph, dataset, batch, config, None))

        return run, patch

    @pytest.mark.parametrize("case", [0, 4])  # shared and separate heads
    def test_a_slow_first_bucket_keeps_the_bits(self, hub_setup, monkeypatch, case):
        # Bucket 0's kernel call waits until a later bucket has finished, so
        # the buckets finish out of order; their classifier gradients still
        # reach the batch's in bucket order, and the batch's bytes are those
        # of the buckets run one after another on one thread.
        run, patch = self.mask_batch(monkeypatch, hub_setup, case)
        monkeypatch.setattr(cet.kernel, "_THREADS", 1)
        expected = run()
        monkeypatch.setattr(cet.kernel, "_THREADS", 2)
        later_done, ended = threading.Event(), []

        def around(i, grads, call):
            if i == 0:
                assert later_done.wait(timeout=60)
            result = call()
            ended.append(i)
            if i > 0:
                later_done.set()
            return result

        patch(around)
        assert run() == expected
        assert ended[0] != 0 and sorted(ended) == list(range(len(ended)))

    @pytest.mark.parametrize("fails", [False, True])
    def test_fold_sets_stay_within_the_bound(self, hub_setup, monkeypatch, fails):
        # Bucket 0 is held until the other thread has run every bucket up to
        # the bound and has waited a while for a set. No bucket i starts
        # before bucket i - bound ends, only ``bound`` sets ever reach the
        # kernel, and the bytes are those of an unheld run. When bucket 0
        # raises instead, the thread waiting for a set is released without
        # running its bucket, and _train_batch raises that very exception.
        run, patch = self.mask_batch(monkeypatch, hub_setup, 4)
        expected = run()
        bound = cet.kernel._THREADS + cet.train._FOLD_AHEAD
        failure = RuntimeError("bucket failed")
        events, sets, ahead = [], set(), threading.Event()

        def around(i, grads, call):
            events.append(("start", i))
            sets.add(id(grads))
            if i == 0:
                assert ahead.wait(timeout=60)
                time.sleep(0.2)  # the other thread now waits for bucket 0's set
                if fails:
                    raise failure
            result = call()
            events.append(("end", i))
            if i == bound - 1:
                ahead.set()
            return result

        patch(around)
        if fails:
            with pytest.raises(RuntimeError) as raised:
                run()
            assert raised.value is failure
            assert {i for kind, i in events if kind == "start"} == set(range(bound))
            return
        assert run() == expected
        assert len(sets) == bound
        for i in range(bound, len({i for _, i in events})):
            assert events.index(("start", i)) > events.index(("end", i - bound)), i
        assert events.index(("start", bound)) > events.index(("end", 0))

    def test_a_failed_bucket_stops_every_thread_in_training(self, hub_setup, monkeypatch):
        # The first mask-mode bucket taken raises once the other thread holds
        # a bucket. No thread takes another bucket; _train_batch raises that
        # very exception once the other thread has finished its bucket, and
        # the next batch gives the bits of one that never failed.
        run, patch = self.mask_batch(monkeypatch, hub_setup, 0)
        expected = run()
        failure = RuntimeError("bucket failed")
        calls, taken, finished = itertools.count(), [], []
        holding, failed = threading.Event(), threading.Event()

        def around(i, grads, call):
            taken.append(i)
            if next(calls) == 0:
                assert holding.wait(timeout=10)
                failed.set()
                raise failure
            holding.set()
            failed.wait(timeout=10)
            time.sleep(0.1)  # still in its kernel call when the other bucket has failed
            result = call()
            finished.append(i)
            return result

        patch(around)
        with pytest.raises(RuntimeError) as raised:
            run()
        assert raised.value is failure
        assert len(taken) == 2 and len(finished) == 1
        patch(lambda i, grads, call: call())
        assert run() == expected

    def test_every_call_reuses_the_pools_thread(self, hub_setup, monkeypatch):
        # At two threads the pool starts one worker for the first call and
        # hands it every later call's share: three training batches (sampled,
        # mask mode with several buckets, sampled) and an evaluation pass, one
        # call each, run their lanes or buckets on that one thread, and no
        # call starts a thread.
        config, params, batch = TestBatchedPath.setup_case(hub_setup, TestBatchedPath.CASES[0])
        vocab, dataset, graph, *_ = hub_setup
        monkeypatch.setattr(cet.kernel, "_CELLS", 1)  # one-type blocks: 8 lanes per call
        monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", 12)
        monkeypatch.setattr(cet.kernel, "_THREADS", 2)
        pool = ThreadPoolExecutor(cet.kernel._LANES - 1, thread_name_prefix="cet-lane")
        monkeypatch.setattr(cet.kernel, "_WORKERS", pool)
        try:
            with lane_threads() as calls:
                _train_batch(params, graph, dataset, batch, config, np.random.default_rng(3))
                _train_batch(params, graph, dataset, batch, with_mask_mode(config), None)
                _train_batch(params, graph, dataset, batch, config, np.random.default_rng(4))
                evaluate(params, graph, dataset, "valid", config.alpha)
        finally:
            pool.shutdown()
        workers = [{t for t in threads if t.name.startswith("cet-lane")} for threads in calls]
        assert len(workers) == 4 and all(len(call) == 1 for call in workers)
        # Thread objects, not idents: a thread started after another ended
        # may reuse its ident.
        assert len(set.union(*workers)) == 1

    LIFECYCLE = """
import sys
import threading
import cet.kernel
from cet import TrainConfig, fit
from synth import assembled, hub_marker_corpus

vocab, dataset, graph, *_ = assembled(hub_marker_corpus(n_entities=60, seed=5))
if cet.kernel._BLAS_PINNED:
    cet.kernel._THREADS = max(cet.kernel._THREADS, 2)  # lane threads even on one core
cet.kernel._BUCKET_ROWS = 8  # several validation buckets, so that they are dealt to threads
config = TrainConfig(dim=8, batch_size=64, max_epochs=1, eval_every=1, mask_mode=sys.argv[1] == "1")
fit(vocab, graph, dataset, config)
print(sum(t.name.startswith("cet-lane") for t in threading.enumerate()))
"""

    @staticmethod
    def run_fresh(environ, mask_mode):
        """Train one epoch of 64-entity batches and validate once, in a fresh
        interpreter; returns the completed process and the number of lane
        threads alive at the end."""
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        tests = Path(__file__).parent
        env["PYTHONPATH"] = os.pathsep.join([str(Path(cet.kernel.__file__).parents[1]), str(tests)])
        env.update(environ)
        done = subprocess.run(
            [sys.executable, "-c", TestLanes.LIFECYCLE, str(int(mask_mode))], env=env,
            capture_output=True, text=True, timeout=120,
        )
        return done, int(done.stdout.split()[-1]) if done.returncode == 0 else None

    @pytest.mark.parametrize("mask_mode", [False, True])
    def test_unpinned_blas_starts_no_lane_thread(self, mask_mode):
        done, alive = self.run_fresh({}, mask_mode)
        assert done.returncode == 0, done.stderr
        assert alive == 0

    def test_idle_lane_threads_do_not_block_exit(self):
        # The pool's threads wait, idle, after the last call; the interpreter
        # still exits, with status 0, within the timeout.
        pinned = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        done, alive = self.run_fresh(pinned, False)
        assert done.returncode == 0, done.stderr
        assert alive >= 1

    FORK = """
import os
import signal
import cet.kernel
from cet import evaluate, init_params
from synth import assembled, hub_marker_corpus

vocab, dataset, graph, *_ = assembled(hub_marker_corpus(n_entities=60, seed=5))
params = init_params(vocab, 8, seed=0)
cet.kernel._THREADS = 2
evaluate(params, graph, dataset, "valid", 0.5)  # starts a lane thread
pid = os.fork()
if pid == 0:
    signal.alarm(60)
    evaluate(params, graph, dataset, "valid", 0.5)
    os._exit(0)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_lanes_on_threads_of_its_own(self):
        # The child of a process whose pool has idle threads evaluates and
        # exits 0, instead of waiting on lanes that no thread takes.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cet.kernel.__file__).parents[1]), str(Path(__file__).parent)]
        ))
        done = subprocess.run(
            [sys.executable, "-c", TestLanes.FORK], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-1] == "0"

    @pytest.mark.parametrize(
        "environ, pinned",
        [
            ({}, False),
            (dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"), True),
            ({"OPENBLAS_NUM_THREADS": "1"}, False),
        ],
    )
    def test_threads_read_from_the_environment_at_import(self, environ, pinned):
        # Lanes get threads only when every BLAS thread variable says 1.
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = str(Path(cet.kernel.__file__).parents[1])
        env.update(environ)
        code = "import cet.kernel as t; print(t._THREADS, t._usable_cores())"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
            check=True,
        ).stdout.split()
        threads, cores = map(int, out)
        assert threads == (min(cet.kernel._LANES, cores) if pinned else 1)


class TestTrainEpoch:
    def test_loss_strictly_decreases_early(self, hub_setup):
        vocab, dataset, graph, *_ = hub_setup
        config = TrainConfig(seed=0, loss_kind="fna")
        params = init_params(vocab, config.dim, config.seed)
        state = AdamState(params, config.lr)
        rng = np.random.default_rng(config.seed)
        losses = [
            train_epoch(params, state, graph, dataset, config, rng) for _ in range(10)
        ]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_batch_of_one_matches_direct_computation(self, hub_setup):
        vocab, dataset, graph, *_ = hub_setup
        single = next(e for e in sorted(dataset.train_types) if graph.degree(e) > 0)
        sub = type(dataset)(
            train=[(single, t) for t in dataset.positives(single)],
            valid=dataset.valid,
            test=dataset.test,
            known_types=dataset.known_types,
            train_types={single: dataset.positives(single)},
        )
        config = TrainConfig(seed=4, batch_size=1, loss_kind="bce")
        params = init_params(vocab, config.dim, config.seed)
        state = AdamState(params, config.lr)
        snapshot = params.copy()
        rng = np.random.default_rng(11)
        loss = train_epoch(params, state, graph, sub, config, rng)

        replay = np.random.default_rng(11)
        replay.permutation(1)
        sampled = [a[0] for a in sample_neighbors(graph, [single], config.sample_size, replay)]
        expected = loss_of_entity(
            snapshot, sampled, sub.positives(single), "bce", config.beta, config.alpha
        )
        assert loss == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("mask_mode, bucket_rows", [(False, None), (True, 10**9), (True, 1)])
    def test_kernel_runs_through_its_module_name(self, hub_setup, monkeypatch, mask_mode,
                                                 bucket_rows):
        # The benchmark times the kernel by patching ``cet.train.backward``, so
        # train_epoch must reach it through that name: once per sampled batch
        # and once per mask-mode degree bucket. A huge bucket budget makes one
        # bucket per batch, a budget of one row one bucket per entity.
        vocab, dataset, graph, *_ = hub_setup
        kernel = cet.train.backward
        calls = []

        def counted(params, grads, rel, *args, **kwargs):
            calls.append(rel.shape[0])
            return kernel(params, grads, rel, *args, **kwargs)

        monkeypatch.setattr(cet.train, "backward", counted)
        if bucket_rows is not None:
            monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", bucket_rows)
        config = TrainConfig(seed=0, dim=8, batch_size=32, mask_mode=mask_mode)
        params = init_params(vocab, config.dim, config.seed)
        rng = np.random.default_rng(0)
        train_epoch(params, AdamState(params, config.lr), graph, dataset, config, rng)

        trainable = sum(1 for e in dataset.train_types if graph.degree(e) > 0)
        batches = -(-trainable // config.batch_size)
        assert len(calls) == (trainable if bucket_rows == 1 else batches)
        assert sum(calls) == trainable

    def test_mask_mode_epoch_runs(self, hub_setup):
        vocab, dataset, graph, *_ = hub_setup
        config = TrainConfig(seed=0, mask_mode=True, max_epochs=1)
        params = init_params(vocab, config.dim, config.seed)
        state = AdamState(params, config.lr)
        loss = train_epoch(params, state, graph, dataset, config, np.random.default_rng(0))
        assert np.isfinite(loss) and loss > 0

    def test_mask_mode_epochs_replay_bitwise(self, hub_setup):
        vocab, dataset, graph, *_ = hub_setup
        config = TrainConfig(seed=3, mask_mode=True)
        runs = []
        for _ in range(2):
            params = init_params(vocab, config.dim, config.seed)
            state = AdamState(params, config.lr)
            rng = np.random.default_rng(config.seed)
            losses = [train_epoch(params, state, graph, dataset, config, rng) for _ in range(2)]
            runs.append((losses, params))
        (losses_a, params_a), (losses_b, params_b) = runs
        assert losses_a == losses_b
        for name in ("entity_emb", "relation_emb", "type_emb", "W", "b"):
            assert getattr(params_a, name).tobytes() == getattr(params_b, name).tobytes(), name

    def test_epoch_order_replays_with_seed(self, hub_setup):
        vocab, dataset, graph, *_ = hub_setup
        config = TrainConfig(seed=2)
        losses = []
        for _ in range(2):
            params = init_params(vocab, config.dim, config.seed)
            state = AdamState(params, config.lr)
            rng = np.random.default_rng(7)
            losses.append(train_epoch(params, state, graph, dataset, config, rng))
        assert losses[0] == losses[1]


class TestMaskLeak:
    def test_label_cannot_reach_its_own_column(self):
        # One type, labeled on "a", which has one relational neighbor. Under
        # the mask both routes from the label's type embedding to its own
        # column (its has_type row, the aggregated row) are blanked, so
        # moving that embedding moves neither the oracle's nor the kernel's
        # loss; without the mask it moves both.
        vocab, graph, params = one_type_instance(3)
        neighbors = graph.neighbor_arrays(vocab.entity_ids["a"])
        label = vocab.type_ids["t0"]
        config = TrainConfig(alpha=0.5, loss_kind="bce")

        def losses(self_mask):
            oracle = loss_of_entity(params, neighbors, [label], "bce", 0.0, 0.5, self_mask)
            kernel, _ = kernel_gradients(params, neighbors, [label], config, self_mask)
            return np.array([oracle, kernel])

        masked, unmasked = losses(True), losses(False)
        params.type_emb[label] += 10.0
        np.testing.assert_allclose(losses(True), masked, rtol=0, atol=1e-12)
        assert (np.abs(losses(False) - unmasked) > 1e-6).all()

    def test_disabling_tan_removes_type_candidates(self):
        corpus = hub_marker_corpus()
        vocab, dataset, graph, *_ = assembled(corpus, include_type_edges=False)
        for entity in range(vocab.num_entities):
            rel, inv, is_type, tgt = graph.neighbor_arrays(entity)
            assert not is_type.any()


class TestFit:
    def test_single_scheduled_validation(self, hub_setup):
        vocab, dataset, graph, *_ = hub_setup
        config = TrainConfig(max_epochs=25, eval_every=25, seed=0)
        result = fit(vocab, graph, dataset, config)
        evals = [mrr for _, _, mrr in result.log if mrr is not None]
        assert len(evals) == 1
        assert result.best_epoch == 25

    def test_zero_epochs_returns_initialization(self, hub_setup):
        vocab, dataset, graph, *_ = hub_setup
        config = TrainConfig(max_epochs=0, seed=6)
        result = fit(vocab, graph, dataset, config)
        reference = init_params(vocab, config.dim, config.seed)
        np.testing.assert_array_equal(result.params.entity_emb, reference.entity_emb)
        assert result.log == []
        assert result.best_epoch is None

    def test_best_snapshot_retained(self, hub_setup):
        vocab, dataset, graph, *_ = hub_setup
        config = TrainConfig(max_epochs=50, eval_every=25, seed=0, loss_kind="fna")
        result = fit(vocab, graph, dataset, config)
        report = evaluate(
            result.params, graph, dataset, "valid", config.alpha, keep_ranks=False
        )
        assert report.mrr == pytest.approx(result.best_valid_mrr, abs=1e-12)

    def test_non_finite_validation_mrr_is_refused(self, hub_setup, monkeypatch):
        # A diverged model must never be kept as the best snapshot.
        vocab, dataset, graph, *_ = hub_setup
        good = cet.train.evaluate

        def nan_mrr(*args, **kwargs):
            report = good(*args, **kwargs)
            report.mrr = float("nan")
            return report

        monkeypatch.setattr(cet.train, "evaluate", nan_mrr)
        config = TrainConfig(max_epochs=1, eval_every=1, seed=0)
        with pytest.raises(NumericError, match="validation MRR"):
            fit(vocab, graph, dataset, config)

    @pytest.mark.parametrize("max_epochs, eval_every", [(3, 2), (2, 2), (3, 4)])
    def test_empty_validation_split_is_found_before_training(
        self, hub_setup, monkeypatch, max_epochs, eval_every
    ):
        # A run that would validate refuses an empty split before its first
        # epoch, not at its first validation; a run that never validates trains.
        vocab, dataset, graph, *_ = hub_setup
        epochs = []
        monkeypatch.setattr(cet.train, "train_epoch", lambda *args: epochs.append(1) or 1.0)
        config = TrainConfig(max_epochs=max_epochs, eval_every=eval_every, seed=0)
        empty = dataclasses.replace(dataset, valid=[])
        if max_epochs >= eval_every:
            with pytest.raises(ValueError, match="split 'valid' is empty"):
                fit(vocab, graph, empty, config)
            assert epochs == []
        else:
            assert fit(vocab, graph, empty, config).best_epoch is None
            assert len(epochs) == max_epochs

    def test_no_separate_head_without_agg2t(self, hub_setup, tmp_path):
        # Without Agg2T nothing reads a separate head: fit makes none, so Adam
        # never passes over one and the checkpoint stores none.
        vocab, dataset, graph, *_ = hub_setup
        config = TrainConfig(
            max_epochs=1, eval_every=25, seed=0, dim=8, separate_heads=True, use_agg2t=False
        )
        result = fit(vocab, graph, dataset, config)
        assert result.params.agg_W is None and result.params.agg_b is None
        path = tmp_path / "checkpoint.cet"
        save_checkpoint(path, result.params, vocab, config.to_dict())
        # The header says separate_heads false, so loading reads no head.
        assert load_checkpoint(path)[0].agg_W is None

    def test_log_format(self):
        text = format_log([(1, 0.5, None), (2, 0.25, 0.875)])
        assert text == "1\t0.500000\t\n2\t0.250000\t0.875000\n"

    def test_deterministic_given_seed(self, hub_setup):
        vocab, dataset, graph, *_ = hub_setup
        config = TrainConfig(max_epochs=3, eval_every=25, seed=13)
        a = fit(vocab, graph, dataset, config)
        b = fit(vocab, graph, dataset, config)
        assert a.log == b.log
        assert a.params.entity_emb.tobytes() == b.params.entity_emb.tobytes()
