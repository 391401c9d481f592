import math

import numpy as np
import pytest

import cet.train

from cet import TrainConfig, finite_diff_oracle, max_relative_error
from cet.loss import _loss_terms, loss_of_entity, sigmoid, softplus
from cet.scoring import candidate_matrix, pool
from synth import (
    assembled, kernel_gradients, kernel_pooled, micro_instance, one_type_instance, tiny_corpus,
)


def entity_loss(pooled, positives, loss_kind, beta=0.0):
    """One entity's loss from its pooled (types,) scores and its label columns."""
    return float(_loss_terms(pooled, list(positives), loss_kind, beta)[0])


class TestSigmoid:
    def test_zero_is_half(self):
        np.testing.assert_allclose(sigmoid(np.zeros(3)), 0.5)

    def test_log3_is_three_quarters(self):
        assert sigmoid(np.array([math.log(3.0)]))[0] == pytest.approx(0.75)

    def test_saturation_handled_stably(self):
        x = np.array([40.0])
        p = sigmoid(x)
        assert p[0] == pytest.approx(1.0)
        # -log(1-p) would be inf through the naive route; the logit form is finite.
        assert np.isfinite(softplus(x)[0])
        assert softplus(x)[0] == pytest.approx(40.0, rel=1e-12)
        # -log(p) would round to 0 through log(1 + e^-40); the log1p form keeps it.
        assert softplus(-x)[0] == pytest.approx(math.exp(-40.0), rel=1e-12)


class TestBceLoss:
    def test_uniform_scores_two_types(self):
        assert entity_loss(np.zeros(2), [0], "bce") == pytest.approx(2 * math.log(2.0), rel=1e-12)

    def test_perfect_fit_vanishes(self):
        pooled = np.array([40.0, -40.0, -40.0])
        assert entity_loss(pooled, [0], "bce") <= 1e-12

    def test_no_positives_is_negative_term_only(self):
        pooled = np.array([0.3, -0.2])
        loss = entity_loss(pooled, [], "bce")
        assert loss == pytest.approx(float(softplus(pooled).sum()))
        assert loss >= 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pooled = rng.normal(0, 3, 5)
            assert entity_loss(pooled, rng.choice(5, 2, replace=False), "bce") >= 0.0


class TestFnaLoss:
    def test_half_probability_weight_is_one(self):
        # At p=0.5 and beta=4 the negative weight is exactly 1: -1*log(0.5).
        assert entity_loss(np.zeros(1), [], "fna", 4.0) == pytest.approx(math.log(2.0))

    def test_boundary_negatives_vanish(self):
        assert entity_loss(np.array([40.0]), [], "fna", 4.0) == pytest.approx(0.0, abs=1e-12)
        assert entity_loss(np.array([-40.0]), [], "fna", 4.0) == pytest.approx(0.0, abs=1e-15)

    def test_beta_zero_keeps_positive_term_only(self):
        pooled = np.array([0.7, -1.1, 0.2])
        assert entity_loss(pooled, [0], "fna", 0.0) == pytest.approx(
            float(softplus(-pooled[0]))
        )

    def test_unit_weight_recovers_bce(self):
        # Replacing the beta*p*(1-p) weight by 1 must reproduce plain BCE.
        rng = np.random.default_rng(1)
        pooled = rng.normal(0, 2, 6)
        positives = [1, 4]

        def reference(weight_fn):
            p = sigmoid(pooled)
            loss = -np.log(p[positives]).sum()
            for i in range(len(pooled)):
                if i not in positives:
                    loss -= weight_fn(p[i]) * math.log1p(-p[i])
            return loss

        assert entity_loss(pooled, positives, "fna", 3.0) == pytest.approx(
            reference(lambda p: 3.0 * p * (1 - p)), rel=1e-12
        )
        assert entity_loss(pooled, positives, "bce") == pytest.approx(
            reference(lambda p: 1.0), rel=1e-12
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pooled = rng.normal(0, 3, 5)
            assert entity_loss(pooled, [int(rng.integers(5))], "fna", 4.0) >= 0.0


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
        pooled = kernel_pooled(params, neighbors, 0.5)
        loss, _ = kernel_gradients(
            params, neighbors, positives, TrainConfig(alpha=0.5, loss_kind="bce")
        )
        assert loss == pytest.approx(entity_loss(pooled, positives, "bce"), rel=1e-12)
        loss_fna, _ = kernel_gradients(
            params, neighbors, positives, TrainConfig(alpha=0.5, beta=1.5, loss_kind="fna")
        )
        assert loss_fna == pytest.approx(
            entity_loss(pooled, positives, "fna", 1.5), rel=1e-12
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
    def test_gradient_flows_only_through_live_candidate(self):
        vocab, graph, params = one_type_instance(11)
        a = vocab.entity_ids["a"]
        t0 = vocab.type_ids["t0"]
        neighbors = graph.neighbor_arrays(a)
        _, inv, is_type, _ = neighbors
        # The agg row and the has_type row are masked; the relational row is live.
        assert len(inv) == 2 and (is_type & ~inv).sum() == 1
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


class TestSelfEvidenceMask:
    """Mask mode's self-evidence mask, applied by the oracle and the kernel."""

    def setup_method(self):
        from cet.gradcheck import _draw_params

        self.vocab, self.dataset, self.graph, *_ = assembled(tiny_corpus())
        self.params = _draw_params(self.vocab, 3, np.random.default_rng(2), separate_heads=False)
        self.entity = self.vocab.entity_ids["a"]
        self.labels = self.dataset.positives(self.entity)
        self.neighbors = self.graph.neighbor_arrays(self.entity)

    def losses(self, loss_kind, self_mask):
        """The entity's loss from the oracle and from the kernel."""
        oracle = loss_of_entity(
            self.params, self.neighbors, self.labels, loss_kind, 1.5, 0.5, self_mask
        )
        kernel, _ = kernel_gradients(
            self.params, self.neighbors, self.labels,
            TrainConfig(alpha=0.5, beta=1.5, loss_kind=loss_kind), self_mask=self_mask,
        )
        return oracle, kernel

    def test_masked_entry_excluded_from_column(self):
        # Pool each column over the rows the mask leaves live: the Agg2T row
        # (row 0) is dropped at the labels, and each forward has_type row at
        # its own type.
        scores = candidate_matrix(self.params, *self.neighbors)
        _, inv, is_type, tgt = self.neighbors
        own_type = np.where(is_type & ~inv, tgt, -1)
        pooled = []
        for t in range(self.vocab.num_types):
            live = np.concatenate([[t not in self.labels], own_type != t])
            pooled.append(pool(scores[live, t], 0.5)[0])
        for loss_kind, expected in (
            ("bce", entity_loss(np.array(pooled), self.labels, "bce")),
            ("fna", entity_loss(np.array(pooled), self.labels, "fna", 1.5)),
        ):
            oracle, kernel = self.losses(loss_kind, True)
            assert oracle == pytest.approx(expected, rel=1e-12)
            assert kernel == pytest.approx(expected, rel=1e-12)

    def test_mask_hits_type_rows_and_agg_row(self):
        # Every label of "a" is also one of its has_type edges, so both parts
        # of the mask meet a label column and the masked loss differs.
        _, inv, is_type, tgt = self.neighbors
        assert set(self.labels) <= set(tgt[is_type & ~inv].tolist())
        masked, unmasked = self.losses("bce", True), self.losses("bce", False)
        assert masked[0] != pytest.approx(unmasked[0], rel=1e-6)
        assert masked[1] != pytest.approx(unmasked[1], rel=1e-6)

    def test_no_mask_by_default(self):
        pooled = kernel_pooled(self.params, self.neighbors, 0.5)
        expected = entity_loss(pooled, self.labels, "bce")
        default = loss_of_entity(self.params, self.neighbors, self.labels, "bce", 0.0, 0.5)
        assert default == pytest.approx(expected, rel=1e-12)
        assert self.losses("bce", False)[1] == pytest.approx(expected, rel=1e-12)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_infinite_error(self, bad):
        # max() passes over a NaN, so a NaN gradient must not read as error 0.
        vocab, graph, entity, positives, params, _ = micro_instance(9)
        neighbors = graph.neighbor_arrays(entity)
        config = TrainConfig(alpha=0.7, beta=2.0, loss_kind="fna")
        _, grads = kernel_gradients(params, neighbors, positives, config)
        oracle = finite_diff_oracle(params, [(neighbors, positives)], "fna", 2.0, alpha=0.7)
        grads.W[0, 0] = bad
        assert max_relative_error(grads, oracle) == np.inf
        assert max_relative_error(oracle, grads) == np.inf
        grads.W[0, 0] = oracle.W[0, 0]
        row = next(iter(grads.relation_rows))
        grads.relation_rows[row] = grads.relation_rows[row].copy()
        grads.relation_rows[row][-1] = bad
        assert max_relative_error(grads, oracle) == np.inf
        grads.relation_rows[row] = oracle.relation_rows[row]
        assert max_relative_error(grads, oracle) < 1e-4

    def test_sweep_fails_a_kernel_that_writes_nan(self, monkeypatch):
        from cet.gradcheck import run_gradient_check

        kernel = cet.train.backward

        def nan_kernel(params, grads, *args, **kwargs):
            result = kernel(params, grads, *args, **kwargs)
            grads.W[0, 0] = np.nan
            return result

        monkeypatch.setattr(cet.train, "backward", nan_kernel)
        report = run_gradient_check(instances=8)
        assert not report.passed
        assert report.max_rel_err == np.inf
        assert all(case.max_rel_err == np.inf for case in report.cases)
