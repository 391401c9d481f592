import math

import numpy as np
import pytest

from cet import (
    TrainConfig,
    bce_loss,
    finite_diff_oracle,
    fna_loss,
    max_relative_error,
    sigmoid_probs,
)
from cet.loss import log1m_sigmoid, log_sigmoid, softplus
from cet.scoring import score_neighbor_arrays
from synth import kernel_gradients, micro_instance


class TestSigmoid:
    def test_zero_is_half(self):
        np.testing.assert_allclose(sigmoid_probs(np.zeros(3)), 0.5)

    def test_log3_is_three_quarters(self):
        assert sigmoid_probs(np.array([math.log(3.0)]))[0] == pytest.approx(0.75)

    def test_saturation_handled_stably(self):
        x = np.array([40.0])
        p = sigmoid_probs(x)
        assert p[0] == pytest.approx(1.0)
        # log(1-p) would be -inf through the naive route; the logit form is finite.
        assert np.isfinite(log1m_sigmoid(x)[0])
        assert log1m_sigmoid(x)[0] == pytest.approx(-40.0, rel=1e-12)
        assert log_sigmoid(-x)[0] == pytest.approx(-40.0, rel=1e-12)


class TestBceLoss:
    def test_uniform_scores_two_types(self):
        assert bce_loss(np.zeros(2), [0]) == pytest.approx(2 * math.log(2.0), rel=1e-12)

    def test_perfect_fit_vanishes(self):
        pooled = np.array([40.0, -40.0, -40.0])
        assert bce_loss(pooled, [0]) <= 1e-12

    def test_no_positives_is_negative_term_only(self):
        pooled = np.array([0.3, -0.2])
        loss = bce_loss(pooled, [])
        assert loss == pytest.approx(float(softplus(pooled).sum()))
        assert loss >= 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pooled = rng.normal(0, 3, 5)
            assert bce_loss(pooled, list(rng.choice(5, 2, replace=False))) >= 0.0


class TestFnaLoss:
    def test_half_probability_weight_is_one(self):
        # At p=0.5 and beta=4 the negative weight is exactly 1: -1*log(0.5).
        assert fna_loss(np.zeros(1), [], beta=4.0) == pytest.approx(math.log(2.0))

    def test_boundary_negatives_vanish(self):
        assert fna_loss(np.array([40.0]), [], beta=4.0) == pytest.approx(0.0, abs=1e-12)
        assert fna_loss(np.array([-40.0]), [], beta=4.0) == pytest.approx(0.0, abs=1e-15)

    def test_beta_zero_keeps_positive_term_only(self):
        pooled = np.array([0.7, -1.1, 0.2])
        assert fna_loss(pooled, [0], beta=0.0) == pytest.approx(
            float(softplus(-pooled[0]))
        )

    def test_unit_weight_recovers_bce(self):
        # Replacing the beta*p*(1-p) weight by 1 must reproduce plain BCE.
        rng = np.random.default_rng(1)
        pooled = rng.normal(0, 2, 6)
        positives = [1, 4]

        def reference(weight_fn):
            p = sigmoid_probs(pooled)
            loss = -np.log(p[positives]).sum()
            for i in range(len(pooled)):
                if i not in positives:
                    loss -= weight_fn(p[i]) * math.log1p(-p[i])
            return loss

        assert fna_loss(pooled, positives, beta=3.0) == pytest.approx(
            reference(lambda p: 3.0 * p * (1 - p)), rel=1e-12
        )
        assert bce_loss(pooled, positives) == pytest.approx(
            reference(lambda p: 1.0), rel=1e-12
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pooled = rng.normal(0, 3, 5)
            assert fna_loss(pooled, [int(rng.integers(5))], beta=4.0) >= 0.0


class TestBackward:
    """The training kernel, run on one entity, against the oracle."""

    def test_matches_finite_differences(self):
        for seed in range(5):
            vocab, graph, entity, positives, params, rng = micro_instance(seed)
            neighbors = graph.neighbor_arrays(entity)
            for loss_kind in ("bce", "fna"):
                config = TrainConfig(alpha=0.8, beta=2.0, loss_kind=loss_kind)
                _, analytic = kernel_gradients(params, neighbors, positives, config)
                oracle = finite_diff_oracle(
                    params, [(neighbors, positives)], loss_kind, 2.0,
                    alpha=0.8,
                )
                assert max_relative_error(analytic, oracle) < 1e-4

    def test_loss_value_matches_forward(self):
        vocab, graph, entity, positives, params, _ = micro_instance(3)
        neighbors = graph.neighbor_arrays(entity)
        bundle = score_neighbor_arrays(params, *neighbors, alpha=0.5)
        loss, _ = kernel_gradients(
            params, neighbors, positives, TrainConfig(alpha=0.5, loss_kind="bce")
        )
        assert loss == pytest.approx(bce_loss(bundle.pooled, positives), rel=1e-12)
        loss_fna, _ = kernel_gradients(
            params, neighbors, positives, TrainConfig(alpha=0.5, beta=1.5, loss_kind="fna")
        )
        assert loss_fna == pytest.approx(
            fna_loss(bundle.pooled, positives, 1.5), rel=1e-12
        )

    def test_duplicate_neighbor_gradients_accumulate(self):
        vocab, graph, entity, positives, params, _ = micro_instance(4)
        neighbors = tuple(a[[0, 0]] for a in graph.neighbor_arrays(entity))
        config = TrainConfig(alpha=0.6, beta=1.0, loss_kind="fna")
        _, analytic = kernel_gradients(params, neighbors, positives, config)
        oracle = finite_diff_oracle(
            params, [(neighbors, positives)], "fna", 1.0, alpha=0.6
        )
        assert max_relative_error(analytic, oracle) < 1e-4

    def test_untouched_rows_absent(self):
        vocab, graph, entity, positives, params, _ = micro_instance(5)
        neighbors = graph.neighbor_arrays(entity)
        _, grads = kernel_gradients(
            params, neighbors, positives, TrainConfig(alpha=0.5, loss_kind="bce")
        )
        rel, _, is_type, tgt = neighbors
        touched_entities = set(tgt[~is_type].tolist())
        touched_types = set(tgt[is_type].tolist())
        touched_relations = set(rel.tolist())
        assert set(grads.entity_rows) <= touched_entities
        assert set(grads.type_rows) <= touched_types
        assert set(grads.relation_rows) <= touched_relations

    def test_all_entries_finite(self):
        vocab, graph, entity, positives, params, _ = micro_instance(6)
        _, grads = kernel_gradients(
            params, graph.neighbor_arrays(entity), positives,
            TrainConfig(alpha=0.5, beta=4.0, loss_kind="fna"), self_mask=True,
        )
        for _, arr in grads.named_dense():
            assert np.isfinite(arr).all()
        for _, rows in grads.named_sparse():
            for vec in rows.values():
                assert np.isfinite(vec).all()


class TestMaskedGradientFlow:
    def _single_label_instance(self):
        # One type; entity "a" has the label and one relational neighbor, so
        # under the mask the only live candidate in column 0 is that neighbor.
        from cet import build_graph, build_vocab

        triples = [("a", "r", "b")]
        pairs = [("a", "t0")]
        vocab = build_vocab(triples, pairs)
        graph = build_graph(vocab, triples, pairs)
        rng = np.random.default_rng(11)
        from cet.gradcheck import _draw_params

        params = _draw_params(vocab, 3, rng, separate_heads=False)
        return vocab, graph, params

    def test_gradient_flows_only_through_live_candidate(self):
        vocab, graph, params = self._single_label_instance()
        a = vocab.entity_ids["a"]
        t0 = vocab.type_ids["t0"]
        neighbors = graph.neighbor_arrays(a)
        bundle = score_neighbor_arrays(
            params, *neighbors, alpha=0.9, mask_labels=[t0]
        )
        live = ~bundle.masked[:, t0]
        assert live.sum() == 1  # agg row and has_type row are masked
        _, grads = kernel_gradients(
            params, neighbors, [t0], TrainConfig(alpha=0.9, loss_kind="bce"), self_mask=True
        )
        # The masked has_type neighbor's type embedding feeds only masked
        # entries, so its gradient must vanish, and the oracle agrees.
        if t0 in grads.type_rows:
            np.testing.assert_allclose(grads.type_rows[t0], 0.0, atol=1e-15)
        oracle = finite_diff_oracle(
            params, [(neighbors, [t0])], "bce", 0.0, alpha=0.9, self_mask=True
        )
        np.testing.assert_allclose(oracle.type_rows[t0], 0.0, atol=1e-9)
        assert max_relative_error(grads, oracle) < 1e-4


class TestFiniteDifferenceOracle:
    def test_central_difference_exact_on_quadratic(self):
        # A central difference of a quadratic has no truncation term.
        step = 1e-3
        x = 3.0
        derivative = ((x + step) ** 2 - (x - step) ** 2) / (2 * step)
        assert derivative == pytest.approx(2 * x, rel=1e-12)

    def test_large_step_degrades_oracle_not_backward(self):
        vocab, graph, entity, positives, params, _ = micro_instance(7)
        neighbors = graph.neighbor_arrays(entity)
        config = TrainConfig(alpha=0.8, beta=2.0, loss_kind="fna")
        _, analytic = kernel_gradients(params, neighbors, positives, config)
        fine = finite_diff_oracle(
            params, [(neighbors, positives)], "fna", 2.0, 1e-5, alpha=0.8
        )
        coarse = finite_diff_oracle(
            params, [(neighbors, positives)], "fna", 2.0, 1e-1, alpha=0.8
        )
        assert max_relative_error(analytic, fine) < 1e-4
        assert max_relative_error(analytic, coarse) > max_relative_error(analytic, fine)

    def test_oracle_leaves_params_unchanged(self):
        vocab, graph, entity, positives, params, _ = micro_instance(8)
        snapshot = params.copy()
        finite_diff_oracle(
            params, [(graph.neighbor_arrays(entity), positives)], "bce", 0.0,
            alpha=0.5,
        )
        np.testing.assert_array_equal(params.W, snapshot.W)
        np.testing.assert_array_equal(params.entity_emb, snapshot.entity_emb)

    def test_oracle_of_a_batch_sums_its_entities(self):
        vocab, graph, entity, positives, params, _ = micro_instance(10)
        other = next(e for e in range(vocab.num_entities) if e != entity and graph.degree(e))
        pair = [(graph.neighbor_arrays(entity), positives), (graph.neighbor_arrays(other), [0])]
        batch = finite_diff_oracle(params, pair, "fna", 2.0, alpha=0.7, self_mask=True)
        summed = finite_diff_oracle(params, pair[:1], "fna", 2.0, alpha=0.7, self_mask=True)
        alone = finite_diff_oracle(params, pair[1:], "fna", 2.0, alpha=0.7, self_mask=True)
        for (_, total), (_, part) in zip(summed.named_dense(), alone.named_dense()):
            total += part
        for (_, total), (_, part) in zip(summed.named_sparse(), alone.named_sparse()):
            for row, vec in part.items():
                total[row] = total[row] + vec if row in total else vec
        assert max_relative_error(batch, summed) < 1e-6


class TestGradcheckSweep:
    def test_sweep_passes(self):
        from cet.gradcheck import run_gradient_check

        report = run_gradient_check(instances=16, seed=123)
        assert report.passed, report.worst_case()
        # Half of the mask-mode instances are batches of entities of
        # different degree, so the kernel pads them.
        ragged = [case for case in report.cases if case.batch_size > 1]
        assert ragged and all(case.masked for case in ragged)
        assert {case.use_agg2t for case in ragged} == {True, False}

    def test_comparator_detects_wrong_gradients(self):
        # The pass verdict is only meaningful if a broken gradient trips it.
        vocab, graph, entity, positives, params, _ = micro_instance(9)
        neighbors = graph.neighbor_arrays(entity)
        config = TrainConfig(alpha=0.7, beta=2.0, loss_kind="fna")
        _, grads = kernel_gradients(params, neighbors, positives, config)
        oracle = finite_diff_oracle(
            params, [(neighbors, positives)], "fna", 2.0, alpha=0.7
        )
        assert max_relative_error(grads, oracle) < 1e-4
        grads.W *= 1.01
        assert max_relative_error(grads, oracle) > 1e-3
        grads.W /= 1.01
        row = next(iter(grads.relation_rows))
        grads.relation_rows[row] = grads.relation_rows[row] + 0.05
        assert max_relative_error(grads, oracle) > 1e-3
