import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cet.scoring
from cet import ParameterSet, TrainConfig, pool
from cet.scoring import (
    neighbor_reps,
    pool_columns,
    pool_weights,
    score_all_neighbors,
    score_neighbor_arrays,
)
from synth import assembled, edges, kernel_gradients, tiny_corpus


def make_params(k=2, L=2, num_entities=3, num_relations=2, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return ParameterSet(
        entity_emb=rng.uniform(-1, 1, (num_entities, k)).astype(dtype),
        relation_emb=rng.uniform(-1, 1, (num_relations, k)).astype(dtype),
        type_emb=rng.uniform(-1, 1, (L, k)).astype(dtype),
        W=rng.uniform(-1, 1, (L, k)).astype(dtype),
        b=rng.uniform(-1, 1, L).astype(dtype),
    )


def weights_of(bundle, alpha=0.5):
    """The (rows, types) pooling weights of an entity scored at ``alpha``."""
    return pool_weights(
        bundle.candidate_scores, bundle.masked, alpha, bundle.col_max, bundle.denom
    )


def rep(params, rel, inv, tgt, is_type=False):
    """Representation of one neighbor edge."""
    return neighbor_reps(params, *edges([rel], [inv], [is_type], [tgt]))[0]


def n2t_row(params, rel, inv, tgt, use_activation=True):
    """The N2T candidate row of one neighbor edge scored on its own."""
    bundle = score_neighbor_arrays(
        params, *edges([rel], [inv], [False], [tgt]), 0.5,
        use_agg2t=False, use_activation=use_activation,
    )
    return bundle.candidate_scores[0]


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
        return score_neighbor_arrays(
            params, *edges([1, 1], [False, False], [False, False], [1, 2]), 0.5
        )

    def test_mean_symmetry(self):
        params = make_params()
        bundle = self.two_edges(params, (1.0, 0.0), (0.0, 1.0))
        np.testing.assert_allclose(
            bundle.candidate_scores[0], params.W @ [0.5, 0.5] + params.b
        )

    def test_single_rep_matches_n2t(self):
        params = make_params(seed=7)
        bundle = score_neighbor_arrays(params, *edges([1], [False], [False], [2]), 0.5)
        np.testing.assert_allclose(bundle.candidate_scores[0], bundle.candidate_scores[1])
        np.testing.assert_allclose(bundle.candidate_scores[0], n2t_row(params, 1, False, 2))

    def test_cancelling_reps_give_bias(self):
        params = make_params()
        v = np.array([0.3, -0.8])
        bundle = self.two_edges(params, v, -v)
        np.testing.assert_allclose(bundle.candidate_scores[0], params.b)

    def test_empty_reps_rejected(self):
        with pytest.raises(ValueError):
            score_neighbor_arrays(make_params(), *edges([], [], [], []), 0.5)


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

    def score(self, entity, **kwargs):
        return score_neighbor_arrays(
            self.params, *self.graph.neighbor_arrays(entity), 0.5, **kwargs
        )

    def test_single_neighbor_pooled_equals_row(self):
        # With one neighbor the aggregated row equals the neighbor row
        # (shared classifier), so pooling returns that row unchanged.
        first = (a[:1] for a in self.graph.neighbor_arrays(0))
        bundle = score_neighbor_arrays(self.params, *first, alpha=0.5)
        np.testing.assert_allclose(bundle.pooled, bundle.candidate_scores[1], rtol=1e-6)
        np.testing.assert_allclose(
            bundle.candidate_scores[0], bundle.candidate_scores[1], rtol=1e-6
        )

    def test_empty_sample_rejected(self):
        from cet import build_graph, build_vocab

        vocab = build_vocab([("a", "r", "b")], [("z", "t")])
        graph = build_graph(vocab, [("a", "r", "b")], [], include_type_edges=False)
        params = make_params(k=3, L=1, num_entities=3, num_relations=2)
        with pytest.raises(ValueError, match="isolated"):
            score_all_neighbors(params, graph, vocab.entity_ids["z"], alpha=0.5)

    def test_columns_sum_to_one_and_bounds(self):
        bundle = self.score(0)
        np.testing.assert_allclose(
            weights_of(bundle).sum(axis=0), np.ones(self.vocab.num_types), atol=1e-6
        )
        assert (bundle.pooled <= bundle.candidate_scores.max(axis=0) + 1e-6).all()
        assert (bundle.pooled >= bundle.candidate_scores.min(axis=0) - 1e-6).all()

    def test_masked_entry_excluded_from_column(self):
        a = self.vocab.entity_ids["a"]
        labels = self.dataset.positives(a)
        bundle = self.score(a, mask_labels=labels)
        for t in labels:
            col = bundle.candidate_scores[:, t]
            live = ~bundle.masked[:, t]
            expected, _ = pool(np.where(live, col, -np.inf), alpha=0.5)
            assert bundle.pooled[t] == pytest.approx(expected, rel=1e-6)
            assert weights_of(bundle)[~live, t].sum() == 0.0

    def test_mask_hits_type_rows_and_agg_row(self):
        a = self.vocab.entity_ids["a"]
        labels = self.dataset.positives(a)
        _, _, is_type, tgt = self.graph.neighbor_arrays(a)
        bundle = self.score(a, mask_labels=labels)
        for row in np.flatnonzero(is_type):
            assert bundle.masked[row + 1, tgt[row]]
        assert bundle.masked[0, labels].all()
        assert not bundle.masked[1:, :][~is_type].any()

    def test_no_mask_by_default(self):
        assert self.score(self.vocab.entity_ids["a"]).masked is None

    def test_agg2t_disabled_drops_row(self):
        arrays = self.graph.neighbor_arrays(0)
        bundle = self.score(0, use_agg2t=False)
        assert bundle.candidate_scores.shape == (len(arrays[0]), self.vocab.num_types)
        # Row i is edge i of the arrays, scored on its own.
        for i in range(len(arrays[0])):
            alone = score_neighbor_arrays(
                self.params, *(a[i : i + 1] for a in arrays), 0.5, use_agg2t=False
            )
            np.testing.assert_allclose(bundle.candidate_scores[i], alone.candidate_scores[0])

    def test_sharp_pooling_matches_max_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rows, cols = rng.integers(2, 6), rng.integers(1, 5)
            scores = rng.uniform(-2, 2, (rows, cols))
            pooled, *_ = pool_columns(scores, np.zeros_like(scores, dtype=bool), 1e3)
            np.testing.assert_allclose(pooled, scores.max(axis=0), atol=1e-6)

    def test_separate_heads_change_agg_row_only(self):
        shared = self.score(0)
        self.params.agg_W = self.params.W + 0.5
        self.params.agg_b = self.params.b - 1.0
        split = self.score(0)
        np.testing.assert_allclose(
            split.candidate_scores[1:], shared.candidate_scores[1:]
        )
        assert not np.allclose(split.candidate_scores[0], shared.candidate_scores[0])


@st.composite
def masked_candidates(draw):
    """A (rows, types) candidate matrix and a mask of the same shape."""
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=6))
    scores = draw(hnp.arrays(np.float64, shape, elements=st.floats(-20, 20)))
    masked = draw(hnp.arrays(bool, shape))
    return scores, masked


class TestPoolColumns:
    """``pool_columns`` against the scalar ``pool`` on every column."""

    @given(masked_candidates(), st.floats(0.05, 5.0), st.integers(1, 40))
    @example(
        (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[True, False], [True, True]])), 0.5, 1 << 18
    )
    def test_matches_scalar_pool_under_masks(self, candidates, alpha, chunk_cells):
        # Small chunk sizes stream the matrix in several row chunks.
        scores, masked = candidates
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cet.scoring, "_POOL_CELLS", chunk_cells)
            pooled, col_max, denom = pool_columns(scores, masked, alpha)
        weights = pool_weights(scores, masked, alpha, col_max, denom)
        for c in range(scores.shape[1]):
            if masked[:, c].all():
                assert pooled[c] == -np.inf
                np.testing.assert_array_equal(weights[:, c], 0.0)
                continue
            value, col_weights = pool(np.where(masked[:, c], -np.inf, scores[:, c]), alpha)
            assert abs(pooled[c] - value) <= 1e-12
            np.testing.assert_allclose(weights[:, c], col_weights, rtol=0, atol=1e-12)


class TestNonFiniteColumns:
    """Only an all-masked column is dead; NaN and +inf candidates surface."""

    def test_non_finite_candidate_poisons_its_column(self):
        scores = np.array([[1.0, np.nan, np.inf, -np.inf], [2.0, 0.5, 1.0, -np.inf]])
        with np.errstate(invalid="ignore"):
            pooled, col_max, denom = pool_columns(scores, None, 0.5)
            weights = pool_weights(scores, None, 0.5, col_max, denom)
        assert pooled[0] == pytest.approx(pool([1.0, 2.0], 0.5)[0], abs=1e-12)
        assert np.isnan(pooled[1:3]).all()
        # A column with no finite candidate is dead like an all-masked one.
        assert pooled[3] == -np.inf
        np.testing.assert_array_equal(weights[:, 3], 0.0)

    def test_nan_candidate_gives_nan_pooled_score_and_loss(self):
        from cet.loss import loss_of_entity

        params = make_params(L=3, seed=5)
        params.b[1] = np.nan
        neighbors = edges([1, 0], [False, True], [False, False], [1, 2])
        with np.errstate(invalid="ignore"):
            bundle = score_neighbor_arrays(params, *neighbors, 0.5)
            assert np.isnan(bundle.pooled[1])
            assert np.isfinite(bundle.pooled[[0, 2]]).all()
            loss, grads = kernel_gradients(
                params, neighbors, [0], TrainConfig(alpha=0.5, loss_kind="bce")
            )
            assert np.isnan(loss) and np.isnan(grads.b[1])
            assert np.isnan(loss_of_entity(params, neighbors, [0], "fna", 4.0, 0.5))

    def test_all_masked_column_is_dead(self):
        # One has_type edge to t0 masked at its own column, and the Agg2T row
        # masked at the label t0: column 0 has no live candidate.
        params = make_params(L=2, seed=6)
        neighbors = edges([0], [False], [True], [0])
        bundle = score_neighbor_arrays(params, *neighbors, 0.5, [0])
        assert bundle.masked[:, 0].all()
        assert bundle.pooled[0] == -np.inf and np.isfinite(bundle.pooled[1])
        np.testing.assert_array_equal(weights_of(bundle)[:, 0], 0.0)
        loss, grads = kernel_gradients(
            params, neighbors, [0], TrainConfig(alpha=0.5, loss_kind="bce"), self_mask=True
        )
        assert np.isfinite(loss)
        np.testing.assert_array_equal(grads.W[0], 0.0)


class TestInferenceMemory:
    def test_peak_allocation_is_about_one_candidate_matrix(self):
        # A float32 hub with 400 neighbors over 2,000 types: the scoring call
        # may allocate its (rows, types) candidate matrix plus bounded
        # scratch, not several more arrays of that size.
        from cet import build_graph, build_vocab, init_params

        m, num_types = 400, 2000
        triples = [("hub", "r", f"e{i}") for i in range(m)]
        pairs = [(f"e{j % m}", f"t{j}") for j in range(num_types)]
        vocab = build_vocab(triples, pairs)
        graph = build_graph(vocab, triples, pairs, include_type_edges=False)
        params = init_params(vocab, 100, seed=0)
        hub = vocab.entity_ids["hub"]
        score_all_neighbors(params, graph, hub, 0.5)
        tracemalloc.start()
        try:
            bundle = score_all_neighbors(params, graph, hub, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = bundle.candidate_scores
        assert matrix.shape == (m + 1, num_types) and matrix.dtype == np.float32
        assert peak < 1.5 * matrix.nbytes + 2 * 1024 * 1024
