import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
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
    sample_neighbors,
    train_epoch,
)
from cet.loss import GradientSet, loss_of_entity, max_relative_error
from cet.train import _masked_batch, _sampled_batch, format_log
from synth import assembled, hub_marker_corpus, kernel_gradients, one_type_instance


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
        sampled = sample_neighbors(graph, entity, 10, rng)
        assert all(len(a) == 10 for a in sampled)
        assert len(set(zip(*(a.tolist() for a in sampled)))) == 1

    def test_isolated_entity_rejected(self):
        from cet import build_graph, build_vocab

        vocab = build_vocab([("a", "r", "b")], [("z", "t")])
        graph = build_graph(vocab, [("a", "r", "b")], [], include_type_edges=False)
        with pytest.raises(ValueError):
            sample_neighbors(graph, vocab.entity_ids["z"], 5, np.random.default_rng(0))

    def test_two_neighbor_frequency(self):
        from cet import build_graph, build_vocab

        triples = [("a", "r", "b"), ("a", "r", "c")]
        vocab = build_vocab(triples, [("a", "t")])
        graph = build_graph(vocab, triples, [], include_type_edges=False)
        rng = np.random.default_rng(123)
        draws = 100_000
        sampled = sample_neighbors(graph, vocab.entity_ids["a"], draws, rng)
        _, _, _, tgt = sampled
        count_b = int((tgt == vocab.entity_ids["b"]).sum())
        sigma = np.sqrt(draws * 0.25)
        assert abs(count_b - draws / 2) < 3 * sigma

    def test_same_seed_replays(self, hub_setup):
        vocab, dataset, graph, *_ = hub_setup
        entity = next(e for e in range(vocab.num_entities) if graph.degree(e) > 2)
        a = sample_neighbors(graph, entity, 10, np.random.default_rng(9))
        b = sample_neighbors(graph, entity, 10, np.random.default_rng(9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


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
        losses, grads = _sampled_batch(
            params, graph, dataset, batch, config, np.random.default_rng(3)
        )
        rng = np.random.default_rng(3)
        draws = [sample_neighbors(graph, e, config.sample_size, rng) for e in batch]
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
            yield _masked_batch(params, graph, dataset, batch, config)

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
        losses, grads = _masked_batch(params, graph, dataset, [a, c], config)
        assert np.isfinite(losses).all() and losses[1] == 0
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-10)
        assert max_relative_error(grads, ref_grads) < 1e-9
        np.testing.assert_array_equal(grads.type_rows[0], 0)
        dead_losses, dead_grads = _masked_batch(params, graph, dataset, [c], config)
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
            losses, grads = _masked_batch(params, graph, dataset, batch, config)
            alone_losses = []
            alone_grads = GradientSet.zeros_like(params)
            for entity in batch:
                loss, grad = _masked_batch(params, graph, dataset, [entity], config)
                alone_losses.append(loss[0])
                add_into(alone_grads, grad)
        np.testing.assert_allclose(losses, alone_losses, rtol=1e-6)
        assert max_relative_error(grads, alone_grads) < 1e-6


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
    """The threads that run kernel lanes while inside: one set per kernel call.

    Threads take lanes as they come free, so when a call has more than one
    thread, the caller holds its first lane until a worker has taken another:
    otherwise a caller that ran every lane before the worker started would
    leave the worker idle and the record without it.
    """
    calls = []
    run_lanes = cet.kernel._run_lanes

    def recorded(run_lane, lanes, new_slab):
        threads = set()
        calls.append(threads)
        worker_started = threading.Event()

        def run(lane, slab):
            thread = threading.current_thread()
            threads.add(thread)
            if thread.name.startswith("cet-lane"):
                worker_started.set()
            elif min(lanes, cet.kernel._THREADS) > 1:
                worker_started.wait(timeout=60)
            run_lane(lane, slab)

        run_lanes(run, lanes, new_slab)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cet.kernel, "_run_lanes", recorded)
        yield calls


def thread_names(calls):
    return {thread.name for threads in calls for thread in threads}


class TestLanes:
    """The type blocks of one kernel call, run in lanes on up to ``_THREADS`` threads."""

    @staticmethod
    def batches(monkeypatch, params, hub_setup, batch, config):
        """A sampled and a padded mask-mode batch, with one-type blocks (8 per
        call) and several degree buckets; records which threads ran lanes."""
        vocab, dataset, graph, *_ = hub_setup
        rows = max(graph.degree(e) for e in batch) + 1
        monkeypatch.setattr(cet.kernel, "_CELLS", len(batch) * rows)
        monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", 12)
        with lane_threads() as calls:
            sampled = _sampled_batch(params, graph, dataset, batch, config, np.random.default_rng(3))
            masked = _masked_batch(params, graph, dataset, batch, config)
        return [bits(sampled), bits(masked)], thread_names(calls)

    @staticmethod
    def forward(monkeypatch, params, hub_setup, config):
        """``evaluate`` of the validation split with one-type blocks (8 per
        call) and a 6-row bucket budget, so several multi-entity buckets and
        buckets of one entity above the budget: every bucket's pooled block
        as bytes, and the ranks; records which threads ran lanes."""
        vocab, dataset, graph, *_ = hub_setup
        monkeypatch.setattr(cet.kernel, "_CELLS", 1)
        monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", 6)
        pooled, buckets = [], []
        score = cet.ranking.score_all_neighbors

        def recorded(params, graph, entities, *args, **kwargs):
            bundle = score(params, graph, entities, *args, **kwargs)
            pooled.append(bundle.pooled.tobytes())
            buckets.append(entities)
            return bundle

        with lane_threads() as calls, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cet.ranking, "score_all_neighbors", recorded)
            report = evaluate(
                params, graph, dataset, "valid", config.alpha, use_agg2t=config.use_agg2t,
                use_activation=config.use_activation,
            )
        assert sum(len(b) > 1 for b in buckets) >= 3
        assert any(len(b) == 1 and graph.degree(b[0]) > 6 for b in buckets)
        return [pooled, report.ranks], thread_names(calls)

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

    def test_every_call_reuses_the_pools_thread(self, hub_setup, monkeypatch):
        # At two threads the pool starts one worker for the first call and
        # hands it every later call's share: three training batches (sampled,
        # mask mode with several buckets, sampled) and an evaluation pass run
        # their lanes on that one thread, and no call starts a thread.
        config, params, batch = TestBatchedPath.setup_case(hub_setup, TestBatchedPath.CASES[0])
        vocab, dataset, graph, *_ = hub_setup
        monkeypatch.setattr(cet.kernel, "_CELLS", 1)  # one-type blocks: 8 lanes per call
        monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", 12)
        monkeypatch.setattr(cet.kernel, "_THREADS", 2)
        pool = ThreadPoolExecutor(cet.kernel._LANES - 1, thread_name_prefix="cet-lane")
        monkeypatch.setattr(cet.kernel, "_WORKERS", pool)
        try:
            with lane_threads() as calls:
                _sampled_batch(params, graph, dataset, batch, config, np.random.default_rng(3))
                _masked_batch(params, graph, dataset, batch, config)
                _sampled_batch(params, graph, dataset, batch, config, np.random.default_rng(4))
                evaluate(params, graph, dataset, "valid", config.alpha)
        finally:
            pool.shutdown()
        workers = [{t for t in threads if t.name.startswith("cet-lane")} for threads in calls]
        assert len(workers) > 4 and all(len(call) == 1 for call in workers)
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
        sampled = sample_neighbors(graph, single, config.sample_size, replay)
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
