import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cet.kernel
from cet import ParameterSet, TrainConfig, bce_loss, pool
from cet.kernel import score_all_neighbors
from cet.scoring import candidate_matrix, neighbor_reps
from synth import assembled, edges, kernel_gradients, kernel_pooled, tiny_corpus


def make_params(k=2, L=2, num_entities=3, num_relations=2, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return ParameterSet(
        entity_emb=rng.uniform(-1, 1, (num_entities, k)).astype(dtype),
        relation_emb=rng.uniform(-1, 1, (num_relations, k)).astype(dtype),
        type_emb=rng.uniform(-1, 1, (L, k)).astype(dtype),
        W=rng.uniform(-1, 1, (L, k)).astype(dtype),
        b=rng.uniform(-1, 1, L).astype(dtype),
    )


def weights_of(scores, alpha=0.5):
    """The (rows, types) pooling weights of candidate ``scores`` at ``alpha``."""
    return np.column_stack([pool(column, alpha)[1] for column in scores.T])


def random_neighbors(rng, m, num_types=5):
    """``m`` random edges over 5 entities, 3 relations and ``num_types`` types."""
    is_type = rng.random(m) < 0.3
    tgt = np.where(is_type, rng.integers(0, num_types, m), rng.integers(0, 5, m))
    return edges(rng.integers(0, 3, m), rng.random(m) < 0.5, is_type, tgt)


def rep(params, rel, inv, tgt, is_type=False):
    """Representation of one neighbor edge."""
    return neighbor_reps(params, *edges([rel], [inv], [is_type], [tgt]))[0]


def n2t_row(params, rel, inv, tgt, use_activation=True):
    """The N2T candidate row of one neighbor edge scored on its own."""
    return candidate_matrix(
        params, *edges([rel], [inv], [False], [tgt]), use_agg2t=False,
        use_activation=use_activation,
    )[0]


class TestNeighborRep:
    def test_cancellation(self):
        params = make_params()
        params.entity_emb[1] = params.relation_emb[1]
        np.testing.assert_array_equal(rep(params, 1, False, 1), [0.0, 0.0])

    def test_forward_subtracts(self):
        params = make_params()
        params.entity_emb[1] = (1.0, -2.0)
        params.relation_emb[1] = (0.0, -1.0)
        np.testing.assert_allclose(rep(params, 1, False, 1), [1.0, -1.0])

    def test_inverted_adds(self):
        # Sign-sharing rule: the inverse relation embedding is the negated
        # forward one, so an inverted edge adds the relation vector.
        params = make_params()
        params.entity_emb[1] = (1.0, -2.0)
        params.relation_emb[1] = (0.0, -1.0)
        np.testing.assert_allclose(rep(params, 1, True, 1), [1.0, -3.0])

    def test_type_target_uses_type_table(self):
        params = make_params()
        params.type_emb[0] = (5.0, 5.0)
        params.relation_emb[0] = (1.0, 1.0)
        np.testing.assert_allclose(rep(params, 0, False, 0, is_type=True), [4.0, 4.0])

    def test_forward_inverse_pair_consistency(self):
        params = make_params(seed=4)
        s, o, r = 0, 2, 1
        fwd, inv = neighbor_reps(params, *edges([r, r], [False, True], [False, False], [o, s]))
        np.testing.assert_allclose(fwd, params.entity_emb[o] - params.relation_emb[r])
        np.testing.assert_allclose(inv, params.entity_emb[s] + params.relation_emb[r])


class TestN2T:
    def test_zero_map(self):
        params = make_params()
        params.W[:] = 0
        params.b[:] = 0
        np.testing.assert_array_equal(n2t_row(params, 1, False, 1), [0, 0])

    def test_nonpositive_rep_gives_bias(self):
        params = make_params()
        params.entity_emb[1] = (-1.0, -2.0)
        params.relation_emb[1] = (0.0, 0.0)
        np.testing.assert_array_equal(n2t_row(params, 1, False, 1), params.b)

    def test_hand_computed_product(self):
        # rep=(1,-1) -> relu (1,0); W=[[2,3],[-1,4]], b=(.5,-.5) -> (2.5,-1.5)
        params = make_params()
        params.entity_emb[1] = (1.0, -1.0)
        params.relation_emb[1] = (0.0, 0.0)
        params.W[:] = [[2.0, 3.0], [-1.0, 4.0]]
        params.b[:] = [0.5, -0.5]
        np.testing.assert_allclose(n2t_row(params, 1, False, 1), [2.5, -1.5])

    def test_no_activation_passes_negatives(self):
        params = make_params()
        params.entity_emb[1] = (-1.0, 0.0)
        params.relation_emb[1] = (0.0, 0.0)
        params.W[:] = [[1.0, 0.0], [0.0, 1.0]]
        params.b[:] = 0
        np.testing.assert_allclose(
            n2t_row(params, 1, False, 1, use_activation=False), [-1.0, 0.0]
        )


class TestAgg2T:
    """Row 0 of the candidate scores is the Agg2T route."""

    @staticmethod
    def two_edges(params, first, second):
        # Edges to entities 1 and 2 through a zero relation: reps are the targets.
        params.relation_emb[1] = 0.0
        params.entity_emb[1], params.entity_emb[2] = first, second
        return candidate_matrix(params, *edges([1, 1], [False, False], [False, False], [1, 2]))

    def test_mean_symmetry(self):
        params = make_params()
        scores = self.two_edges(params, (1.0, 0.0), (0.0, 1.0))
        np.testing.assert_allclose(scores[0], params.W @ [0.5, 0.5] + params.b)

    def test_single_rep_matches_n2t(self):
        params = make_params(seed=7)
        scores = candidate_matrix(params, *edges([1], [False], [False], [2]))
        np.testing.assert_allclose(scores[0], scores[1])
        np.testing.assert_allclose(scores[0], n2t_row(params, 1, False, 2))

    def test_cancelling_reps_give_bias(self):
        params = make_params()
        v = np.array([0.3, -0.8])
        scores = self.two_edges(params, v, -v)
        np.testing.assert_allclose(scores[0], params.b)


class TestPool:
    def test_singleton(self):
        value, weights = pool([2.5], alpha=0.7)
        assert value == 2.5
        np.testing.assert_allclose(weights, [1.0])

    def test_equal_inputs(self):
        value, weights = pool([3.0, 3.0, 3.0], alpha=11.0)
        assert value == pytest.approx(3.0)
        np.testing.assert_allclose(weights, [1 / 3] * 3)

    def test_two_point_closed_form(self):
        # For {1, 0} the pooled value is the weight of the larger input.
        expected = math.exp(0.5) / (math.exp(0.5) + 1.0)
        value, weights = pool([1.0, 0.0], alpha=0.5)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(0.622459, abs=1e-6)
        np.testing.assert_allclose(weights, [expected, 1 - expected], atol=1e-12)

    def test_masked_entries_get_zero_weight(self):
        value, weights = pool([1.0, -np.inf, 0.0], alpha=0.5)
        ref_value, ref_weights = pool([1.0, 0.0], alpha=0.5)
        assert value == pytest.approx(ref_value)
        assert weights[1] == 0.0
        np.testing.assert_allclose(weights[[0, 2]], ref_weights)

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            pool([-np.inf, -np.inf], alpha=0.5)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            pool([1.0], alpha=0.0)
        with pytest.raises(ValueError):
            pool([], alpha=0.5)

    def test_large_values_stable(self):
        value, _ = pool([1000.0, 999.0], alpha=1.0)
        assert np.isfinite(value)
        assert value == pytest.approx(1000.0, abs=0.5)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.floats(0.01, 5.0),
    )
    def test_weights_sum_and_bounds(self, values, alpha):
        value, weights = pool(values, alpha)
        assert weights.sum() == pytest.approx(1.0, abs=1e-6)
        assert min(values) - 1e-9 <= value <= max(values) + 1e-9

    @given(
        st.lists(st.floats(-20, 20), min_size=2, max_size=8),
        st.floats(0.05, 3.0),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, values, alpha, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert pool(values, alpha)[0] == pytest.approx(pool(shuffled, alpha)[0], abs=1e-9)

    @given(
        st.lists(st.floats(-20, 20), min_size=1, max_size=8),
        st.floats(0.05, 3.0),
        st.floats(-10, 10),
    )
    def test_shift_identity(self, values, alpha, c):
        # Softmax weights are shift invariant, so pooling commutes with +c.
        base, base_w = pool(values, alpha)
        shifted, shifted_w = pool([v + c for v in values], alpha)
        assert shifted == pytest.approx(base + c, abs=1e-9)
        np.testing.assert_allclose(shifted_w, base_w, atol=1e-9)

    def test_alpha_limits(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            values = rng.uniform(-3, 3, rng.integers(2, 9))
            assert pool(values, 1e3)[0] == pytest.approx(values.max(), abs=1e-4)
            assert pool(values, 1e-6)[0] == pytest.approx(values.mean(), abs=1e-4)


class TestScoreEntity:
    def setup_method(self):
        self.vocab, self.dataset, self.graph, *_ = assembled(tiny_corpus())
        self.params = make_params(
            k=3,
            L=self.vocab.num_types,
            num_entities=self.vocab.num_entities,
            num_relations=self.vocab.num_relations,
            seed=2,
        )

    def test_single_neighbor_pooled_equals_row(self):
        # With one neighbor the aggregated row equals the neighbor row
        # (shared classifier), so pooling returns that row unchanged.
        first = tuple(a[:1] for a in self.graph.neighbor_arrays(0))
        scores = candidate_matrix(self.params, *first)
        np.testing.assert_allclose(kernel_pooled(self.params, first, 0.5), scores[1], rtol=1e-6)
        np.testing.assert_allclose(scores[0], scores[1], rtol=1e-6)

    def test_empty_sample_rejected(self):
        from cet import build_graph, build_vocab

        vocab = build_vocab([("a", "r", "b")], [("z", "t")])
        graph = build_graph(vocab, [("a", "r", "b")], [], include_type_edges=False)
        params = make_params(k=3, L=1, num_entities=3, num_relations=2)
        with pytest.raises(ValueError, match="isolated"):
            score_all_neighbors(params, graph, [vocab.entity_ids["z"]], alpha=0.5)

    def test_columns_sum_to_one_and_bounds(self):
        neighbors = self.graph.neighbor_arrays(0)
        scores = candidate_matrix(self.params, *neighbors)
        pooled = kernel_pooled(self.params, neighbors, 0.5)
        np.testing.assert_allclose(
            weights_of(scores).sum(axis=0), np.ones(self.vocab.num_types), atol=1e-6
        )
        assert (pooled <= scores.max(axis=0) + 1e-6).all()
        assert (pooled >= scores.min(axis=0) - 1e-6).all()

    def test_agg2t_disabled_drops_row(self):
        arrays = self.graph.neighbor_arrays(0)
        scores = candidate_matrix(self.params, *arrays, use_agg2t=False)
        assert scores.shape == (len(arrays[0]), self.vocab.num_types)
        # Row i is edge i of the arrays, scored on its own.
        for i in range(len(arrays[0])):
            alone = candidate_matrix(
                self.params, *(a[i : i + 1] for a in arrays), use_agg2t=False
            )
            np.testing.assert_allclose(scores[i], alone[0])

    def test_sharp_pooling_matches_max_oracle(self):
        # A column's pooled score is within (rows - 1) / (e * alpha) of its
        # maximum, whatever the gap to the runner-up: 2e-7 here.
        rng = np.random.default_rng(8)
        for seed in range(10):
            num_types = rng.integers(1, 5)
            neighbors = random_neighbors(rng, rng.integers(2, 6), num_types)
            params = make_params(k=3, L=num_types, num_entities=5, num_relations=3, seed=seed)
            pooled = kernel_pooled(params, neighbors, 1e7)
            scores = candidate_matrix(params, *neighbors)
            np.testing.assert_allclose(pooled, scores.max(axis=0), atol=1e-6)

    def test_separate_heads_change_agg_row_only(self):
        neighbors = self.graph.neighbor_arrays(0)
        shared = candidate_matrix(self.params, *neighbors)
        self.params.agg_W = self.params.W + 0.5
        self.params.agg_b = self.params.b - 1.0
        split = candidate_matrix(self.params, *neighbors)
        np.testing.assert_allclose(split[1:], shared[1:])
        assert not np.allclose(split[0], shared[0])


class TestPoolColumns:
    """The forward-only kernel against the scalar ``pool`` of every column of
    ``candidate_matrix``."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(1, 6),
        st.floats(0.05, 5.0),
        st.floats(0.1, 10.0),
        st.integers(1, 40),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @example(0, 2, 2, 0.5, 1.0, 1 << 19, True, False, True)
    def test_matches_scalar_pool(
        self, seed, m, num_types, alpha, scale, cells, use_agg2t, separate_heads, use_activation
    ):
        # Small block budgets split the types into several blocks and lanes.
        rng = np.random.default_rng(seed)
        params = make_params(k=3, L=num_types, num_entities=5, num_relations=3, seed=seed)
        params.W *= scale
        params.b *= scale
        if separate_heads:
            params.agg_W = rng.uniform(-scale, scale, params.W.shape)
            params.agg_b = rng.uniform(-scale, scale, num_types)
        neighbors = random_neighbors(rng, m, num_types)
        routes = dict(use_agg2t=use_agg2t, use_activation=use_activation)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cet.kernel, "_CELLS", cells)
            pooled = kernel_pooled(params, neighbors, alpha, **routes)
        scores = candidate_matrix(params, *neighbors, **routes)
        for c in range(num_types):
            value, _ = pool(scores[:, c], alpha)
            assert abs(pooled[c] - value) <= 1e-12


def ragged_graph(num_types=30, hub_degree=300):
    """Query entities q1..q40 with d relational edges and one has_type edge
    each, and a hub of ``hub_degree`` relational edges; returns the vocab,
    the graph and the query entity ids."""
    from cet import build_graph, build_vocab

    triples = [
        (f"q{d}", f"r{(d + j) % 3}", f"x{j}") for d in range(1, 41) for j in range(d)
    ] + [("hub", f"r{j % 3}", f"x{j}") for j in range(hub_degree)]
    pairs = [(f"x{j}", f"t{j % num_types}") for j in range(hub_degree)]
    pairs += [(f"q{d}", f"t{7 * d % num_types}") for d in range(1, 41)]
    vocab = build_vocab(triples, pairs)
    graph = build_graph(vocab, triples, pairs)
    queries = [vocab.entity_ids[f"q{d}"] for d in range(1, 41)] + [vocab.entity_ids["hub"]]
    return vocab, graph, queries


class TestBucketScorer:
    """``score_all_neighbors`` over a padded degree bucket against each entity
    scored as a bucket of one, and against the oracle ``pool`` of its
    ``candidate_matrix`` columns."""

    ROUTES = [
        dict(use_agg2t=True, use_activation=True),
        dict(use_agg2t=False, use_activation=True),
        dict(use_agg2t=True, use_activation=False),
        dict(use_agg2t=False, use_activation=False),
    ]

    @pytest.mark.parametrize("separate_heads", [False, True])
    @pytest.mark.parametrize("routes", ROUTES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("cells", [1 << 19, 97])
    def test_rows_match_each_entity_alone(self, monkeypatch, dtype, routes, separate_heads, cells):
        vocab, graph, queries = ragged_graph()
        rng = np.random.default_rng(11)
        params = make_params(
            k=6, L=vocab.num_types, num_entities=vocab.num_entities,
            num_relations=vocab.num_relations, seed=3,
        )
        if separate_heads:
            params.agg_W = rng.uniform(-1, 1, params.W.shape)
            params.agg_b = rng.uniform(-1, 1, vocab.num_types)
        params = params.astype(dtype)
        tol = dict(rtol=1e-12, atol=1e-12) if dtype == np.float64 else dict(rtol=1e-6, atol=2e-6)
        monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", 64)
        monkeypatch.setattr(cet.kernel, "_CELLS", cells)
        degrees = np.array([graph.degree(e) for e in queries])
        order = np.argsort(degrees, kind="stable")
        buckets = [order[b] for b in cet.kernel._degree_buckets(degrees[order])]
        # Ragged multi-entity buckets, and the hub in a bucket of its own.
        assert max(len(b) for b in buckets) > 1 and [len(queries) - 1] in [list(b) for b in buckets]
        assert len({degrees[i] for b in buckets for i in b if len(b) > 1}) > 10
        columns = [0, vocab.num_types // 2, vocab.num_types - 1]
        for bucket in buckets:
            entities = [queries[i] for i in bucket]
            bundle = score_all_neighbors(params, graph, entities, 0.7, **routes)
            assert bundle.pooled.shape == (len(entities), vocab.num_types)
            assert bundle.pooled.dtype == dtype
            for entity, row in zip(entities, bundle.pooled):
                alone = score_all_neighbors(params, graph, [entity], 0.7, **routes).pooled[0]
                np.testing.assert_allclose(row, alone, **tol)
                neighbors = graph.neighbor_arrays(entity)
                for t in columns:
                    column = candidate_matrix(params, *neighbors, columns=[t], **routes)[:, 0]
                    np.testing.assert_allclose(row[t], pool(column, 0.7)[0], **tol)

    def test_candidate_scores_stack_padded_with_minus_inf(self):
        # The lazy candidate_scores of a bucket is (entities, rows, types):
        # each entity's candidate matrix, then -inf rows up to the largest.
        vocab, graph, queries = ragged_graph(hub_degree=3)
        params = make_params(
            k=4, L=vocab.num_types, num_entities=vocab.num_entities,
            num_relations=vocab.num_relations, seed=4,
        )
        entities = queries[2:6]
        for routes in self.ROUTES[:2]:
            bundle = score_all_neighbors(params, graph, entities, 0.5, **routes)
            rows = max(graph.degree(e) for e in entities) + routes["use_agg2t"]
            assert bundle.candidate_scores.shape == (len(entities), rows, vocab.num_types)
            for stacked, entity in zip(bundle.candidate_scores, entities):
                matrix = candidate_matrix(params, *graph.neighbor_arrays(entity), **routes)
                np.testing.assert_array_equal(stacked[: len(matrix)], matrix)
                assert np.isneginf(stacked[len(matrix):]).all()


class TestNonFiniteColumns:
    """Non-finite candidates surface as NaN; only the oracle's and the
    kernel's all-masked column is dead."""

    def test_non_finite_candidate_poisons_its_column(self):
        # Every representation is positive in both coordinates, so a NaN,
        # +inf or -inf classifier weight makes its whole column NaN, +inf or
        # -inf. Inference masks nothing: each is as invalid as a NaN.
        params = make_params(L=4, seed=5)
        params.relation_emb[:] = 0.0
        params.entity_emb[:] = [[1.0, 2.0], [0.5, 1.5], [2.0, 0.5]]
        neighbors = edges([1, 0], [False, True], [False, False], [1, 2])
        params.W[1:, 0] = [np.nan, np.inf, -np.inf]
        with np.errstate(invalid="ignore"):
            scores = candidate_matrix(params, *neighbors)
            pooled = kernel_pooled(params, neighbors, 0.5)
        assert np.isnan(scores[:, 1]).all()
        assert (scores[:, 2] == np.inf).all() and (scores[:, 3] == -np.inf).all()
        assert pooled[0] == pytest.approx(pool(scores[:, 0], 0.5)[0], abs=1e-12)
        assert np.isnan(pooled[1:]).all()

    def test_nan_candidate_gives_nan_pooled_score_and_loss(self):
        from cet.loss import loss_of_entity

        params = make_params(L=3, seed=5)
        params.b[1] = np.nan
        neighbors = edges([1, 0], [False, True], [False, False], [1, 2])
        with np.errstate(invalid="ignore"):
            pooled = kernel_pooled(params, neighbors, 0.5)
            assert np.isnan(pooled[1])
            assert np.isfinite(pooled[[0, 2]]).all()
            loss, grads = kernel_gradients(
                params, neighbors, [0], TrainConfig(alpha=0.5, loss_kind="bce")
            )
            assert np.isnan(loss) and np.isnan(grads.b[1])
            assert np.isnan(loss_of_entity(params, neighbors, [0], "fna", 4.0, 0.5))

    def test_all_masked_column_is_dead(self):
        # One has_type edge to t0 masked at its own column, and the Agg2T row
        # masked at the label t0: column 0 has no live candidate, so only
        # column 1 enters the loss, in the oracle and in the kernel.
        from cet.loss import loss_of_entity

        params = make_params(L=2, seed=6)
        neighbors = edges([0], [False], [True], [0])
        pooled = kernel_pooled(params, neighbors, 0.5)
        only_column_1 = bce_loss(pooled[1:], [])
        assert loss_of_entity(params, neighbors, [0], "bce", 0.0, 0.5, True) == pytest.approx(
            only_column_1, rel=1e-12
        )
        loss, grads = kernel_gradients(
            params, neighbors, [0], TrainConfig(alpha=0.5, loss_kind="bce"), self_mask=True
        )
        assert loss == pytest.approx(only_column_1, rel=1e-12)
        np.testing.assert_array_equal(grads.W[0], 0.0)


def bucket_peak(monkeypatch, num_entities, m, num_types, threads=2):
    """``score_all_neighbors`` of ``num_entities`` float32 entities with ``m``
    neighbors each over ``num_types`` types, on ``threads`` lane threads: the
    tracemalloc peak of the second call, and its result."""
    from cet import build_graph, build_vocab, init_params

    triples = [(f"q{i}", "r", f"e{j}") for i in range(num_entities) for j in range(m)]
    pairs = [(f"e{j % m}", f"t{j}") for j in range(num_types)]
    vocab = build_vocab(triples, pairs)
    graph = build_graph(vocab, triples, pairs, include_type_edges=False)
    params = init_params(vocab, 100, seed=0)
    assert params.W.dtype == np.float32
    entities = [vocab.entity_ids[f"q{i}"] for i in range(num_entities)]
    monkeypatch.setattr(cet.kernel, "_THREADS", threads)
    score_all_neighbors(params, graph, entities, 0.5)
    tracemalloc.start()
    try:
        bundle = score_all_neighbors(params, graph, entities, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, bundle, params


class TestInferenceMemory:
    def test_bucket_peak_allocation_is_bounded_by_the_slabs_and_its_block(self, monkeypatch):
        # A bucket of 16 float32 entities with 30 neighbors each over 20,000
        # types, on two lane threads: the call may allocate each thread's two
        # slabs of _CELLS cells, the bucket's (B, types) block and
        # O(B * rows * k + types), never a (B, rows, types) matrix.
        B, m, num_types, threads = 16, 30, 20000, 2
        peak, bundle, params = bucket_peak(monkeypatch, B, m, num_types, threads)
        itemsize = np.dtype(np.float32).itemsize
        assert bundle.pooled.shape == (B, num_types)
        slabs = threads * 2 * cet.kernel._CELLS * itemsize
        block = B * num_types * itemsize
        assert peak < slabs + block + 16 * (B * (m + 1) * params.k + num_types) * itemsize
        assert peak < B * (m + 1) * num_types * itemsize / 2

    def test_peak_allocation_is_bounded_by_the_slabs(self, monkeypatch):
        # A float32 hub with 400 neighbors over 20,000 types, scored on two
        # lane threads: the call may allocate each thread's two slabs of
        # _CELLS cells plus O(rows * k + types), never a (rows, types) matrix.
        m, num_types, threads = 400, 20000, 2
        peak, bundle, params = bucket_peak(monkeypatch, 1, m, num_types, threads)
        itemsize = np.dtype(np.float32).itemsize
        assert bundle.pooled.shape == (1, num_types)
        slabs = threads * 2 * cet.kernel._CELLS * itemsize
        assert peak < slabs + 16 * (m * params.k + num_types) * itemsize
        assert peak < (m + 1) * num_types * itemsize / 2
