import tracemalloc

import numpy as np
import pytest

from cet import (
    Neighbor,
    UnknownNameError,
    build_graph,
    build_vocab,
    explain,
    neighbor_profile,
)
from cet.explain import AGGREGATION_LABEL, explanation_tsv, format_explanation, source_label
from cet.kernel import score_all_neighbors
from cet.scoring import ParameterSet, candidate_matrix, pool
from synth import assembled, hub_marker_corpus, tiny_corpus


def random_params(vocab, k=4, seed=0):
    rng = np.random.default_rng(seed)
    return ParameterSet(
        entity_emb=rng.normal(size=(vocab.num_entities, k)),
        relation_emb=rng.normal(size=(vocab.num_relations, k)),
        type_emb=rng.normal(size=(vocab.num_types, k)),
        W=rng.normal(size=(vocab.num_types, k)),
        b=rng.normal(size=vocab.num_types),
    )


def neighbors_of(graph, vocab, entity):
    """An entity's neighbors, in row order, as explain labels them."""
    rel, inv, is_type, tgt = (a.tolist() for a in graph.neighbor_arrays(vocab.entity_ids[entity]))
    return [Neighbor(*edge) for edge in zip(rel, inv, tgt, is_type)]


@pytest.fixture(scope="module")
def setup():
    vocab, dataset, graph, *_ = assembled(tiny_corpus())
    return vocab, graph, random_params(vocab)


class TestExplain:
    def test_single_neighbor_yields_two_rows(self):
        triples = [("solo", "r", "other")]
        train = [("solo", "t0"), ("other", "t0")]
        vocab = build_vocab(triples, train)
        graph = build_graph(vocab, triples, [], include_type_edges=False)
        params = random_params(vocab)
        result = explain(params, graph, vocab, "solo", "t0", alpha=0.5, top_k=10)
        assert len(result.rows) == 2  # the neighbor plus the aggregation row
        labels = {row.source for row in result.rows}
        assert AGGREGATION_LABEL in labels

    def test_rows_sorted_descending_and_clamped(self, setup):
        vocab, graph, params = setup
        result = explain(params, graph, vocab, "a", "t1", alpha=0.5, top_k=99)
        scores = [row.score for row in result.rows]
        assert scores == sorted(scores, reverse=True)
        assert len(result.rows) == graph.degree(vocab.entity_ids["a"]) + 1

    def test_top_k_truncates(self, setup):
        vocab, graph, params = setup
        result = explain(params, graph, vocab, "a", "t1", alpha=0.5, top_k=1)
        assert len(result.rows) == 1

    def test_weights_sum_to_one_over_all_rows(self, setup):
        vocab, graph, params = setup
        result = explain(params, graph, vocab, "a", "t2", alpha=0.5, top_k=10**6)
        assert sum(row.weight for row in result.rows) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_weights_equal_the_full_weight_matrix_column(self, dtype):
        # Explain scores the queried column on its own, which equals that
        # column of the whole (rows, types) candidate matrix up to rounding.
        # Each row's weight is its entry of ``pool``'s weights for the
        # column, and a report's weights sum to 1.
        vocab, dataset, graph, *_ = assembled(hub_marker_corpus(n_entities=60))
        params = random_params(vocab, k=5, seed=4).astype(dtype)
        entity = max(range(vocab.num_entities), key=graph.degree)
        neighbors = graph.neighbor_arrays(entity)
        full = candidate_matrix(params, *neighbors)
        tol = 1e-12 if dtype == np.float64 else 1e-6
        for t in range(vocab.num_types):
            column = candidate_matrix(params, *neighbors, columns=[t])[:, 0]
            np.testing.assert_allclose(column, full[:, t], rtol=tol, atol=tol)
            result = explain(
                params, graph, vocab, vocab.entity_names[entity], vocab.type_names[t], 0.7,
                top_k=10**6,
            )
            order = np.argsort(-column, kind="stable")
            assert [row.weight for row in result.rows] == pool(column, 0.7)[1][order].tolist()
            assert sum(row.weight for row in result.rows) == pytest.approx(1.0, abs=1e-12)

    def test_pooling_identity_and_eval_consistency(self, setup):
        # The weighted sum of the reported rows reproduces the pooled score,
        # which is the same number evaluation ranks with.
        vocab, graph, params = setup
        result = explain(params, graph, vocab, "a", "t1", alpha=0.5, top_k=10**6)
        weighted = sum(row.weight * row.score for row in result.rows)
        assert weighted == pytest.approx(result.pooled_score, rel=1e-6)
        bundle = score_all_neighbors(params, graph, [vocab.entity_ids["a"]], 0.5)
        assert result.pooled_score == pytest.approx(
            float(bundle.pooled[0, vocab.type_ids["t1"]]), abs=1e-6
        )

    def test_non_finite_candidate_gives_nan_pooled_score(self, setup):
        # A -inf candidate beside finite ones: ``pool`` gives it weight 0, but
        # evaluation pools the column to NaN, and so does the report.
        vocab, graph, params = setup
        params = params.copy()
        params.W[:] = np.abs(params.W)
        params.entity_emb[vocab.entity_ids["b"], 0] = -np.inf
        with np.errstate(invalid="ignore"):
            result = explain(
                params, graph, vocab, "a", "t1", 0.5, top_k=10**6, use_activation=False
            )
        assert np.isnan(result.pooled_score)
        assert any(row.score == -np.inf and row.weight == 0 for row in result.rows)
        assert sum(row.weight for row in result.rows) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_names_rejected(self, setup):
        vocab, graph, params = setup
        with pytest.raises(UnknownNameError, match="nobody"):
            explain(params, graph, vocab, "nobody", "t1", alpha=0.5)
        with pytest.raises(UnknownNameError, match="t99"):
            explain(params, graph, vocab, "a", "t99", alpha=0.5)

    def test_source_labels(self, setup):
        vocab, graph, params = setup
        r = vocab.relation_ids["r"]
        b = vocab.entity_ids["b"]
        t1 = vocab.type_ids["t1"]
        assert source_label(vocab, Neighbor(r, False, b)) == "(r, b)"
        assert source_label(vocab, Neighbor(r, True, b)) == "(inverse of r, b)"
        assert (
            source_label(vocab, Neighbor(0, False, t1, target_is_type=True))
            == "(has_type, t1)"
        )


class TestNeighborProfile:
    def test_bias_dominance(self, setup):
        vocab, graph, params = setup
        flat = params.copy()
        flat.W[:] = 0.0
        flat.b[:] = 0.0
        flat.b[vocab.type_ids["t2"]] = 5.0
        for entity in ("a", "b", "c"):
            for nb in neighbors_of(graph, vocab, entity):
                top = neighbor_profile(flat, vocab, nb, top_k=1)
                assert top[0][0] == "t2"

    def test_zero_top_k(self, setup):
        vocab, graph, params = setup
        nb = neighbors_of(graph, vocab, "a")[0]
        assert neighbor_profile(params, vocab, nb, top_k=0) == []

    def test_scores_descending(self, setup):
        vocab, graph, params = setup
        nb = neighbors_of(graph, vocab, "a")[0]
        profile = neighbor_profile(params, vocab, nb, top_k=10)
        values = [score for _, score in profile]
        assert values == sorted(values, reverse=True)

    def test_matches_the_neighbor_row_of_the_entity(self, setup):
        vocab, graph, params = setup
        scores = candidate_matrix(params, *graph.neighbor_arrays(vocab.entity_ids["a"]))
        for i, nb in enumerate(neighbors_of(graph, vocab, "a")):
            profile = dict(neighbor_profile(params, vocab, nb, top_k=10**6))
            row = scores[i + 1]  # row 0 is the Agg2T route
            np.testing.assert_allclose([profile[name] for name in vocab.type_names], row, rtol=1e-12)


class TestRendering:
    def test_format_contains_rows_and_header(self, setup):
        vocab, graph, params = setup
        result = explain(params, graph, vocab, "a", "t1", alpha=0.5, top_k=3)
        text = format_explanation(result)
        assert text.startswith("entity\ta\n")
        assert "rank\tsource\tscore\tweight" in text
        assert text.count("\n") >= 5

    def test_tsv_row_per_source(self, setup):
        vocab, graph, params = setup
        result = explain(params, graph, vocab, "a", "t1", alpha=0.5, top_k=2)
        tsv = explanation_tsv(result)
        lines = tsv.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("1\t")


class TestExplainMemory:
    def test_peak_allocation_is_linear_in_rows(self):
        # A float32 hub with 400 neighbors over 5,000 types: explaining one
        # (entity, type) query scores only that type's column, so it may
        # allocate O(rows * k) plus the report, not a (rows, types) matrix.
        from cet import init_params

        m, num_types = 400, 5000
        triples = [("hub", "r", f"e{i}") for i in range(m)]
        pairs = [(f"e{j % m}", f"t{j}") for j in range(num_types)]
        vocab = build_vocab(triples, pairs)
        graph = build_graph(vocab, triples, pairs, include_type_edges=False)
        params = init_params(vocab, 100, seed=0)
        explain(params, graph, vocab, "hub", "t7", 0.5)
        tracemalloc.start()
        try:
            result = explain(params, graph, vocab, "hub", "t7", 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.rows) == 3
        itemsize = np.dtype(np.float32).itemsize
        assert params.W.dtype == np.float32
        assert peak < 16 * m * params.k * itemsize + 1024 * 1024
        assert peak < (m + 1) * num_types * itemsize / 4
