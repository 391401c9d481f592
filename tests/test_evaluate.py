import itertools

import numpy as np
import pytest

from cet import ParameterSet, build_graph, build_vocab, evaluate, rank_one
from cet.data import TypingDataset
from synth import assembled, tiny_corpus


def brute_force_rank(scores, gold, filter_types=None):
    """Average position of gold over all orderings consistent with the scores.

    Enumerates every permutation of the candidate set and keeps those whose
    score sequence is non-increasing; the fractional rank is the mean of the
    gold positions over the kept orderings.
    """
    removed = set(filter_types or ()) - {gold}
    candidates = [i for i in range(len(scores)) if i not in removed]
    positions = []
    for perm in itertools.permutations(candidates):
        if all(scores[a] >= scores[b] for a, b in zip(perm, perm[1:])):
            positions.append(perm.index(gold) + 1)
    return sum(positions) / len(positions)


class TestRankOne:
    def test_strict_max_is_rank_one(self):
        assert rank_one(np.array([0.1, 0.9, 0.5]), gold=1) == 1.0

    def test_top_tie_is_rank_one_and_a_half(self):
        assert rank_one(np.array([0.9, 0.9, 0.1]), gold=0) == 1.5

    def test_filtering_removes_known_types(self):
        # Gold sits below two known (filtered) types and above the rest.
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        assert rank_one(scores, gold=2) == 3.0
        assert rank_one(scores, gold=2, filter_types={0, 1, 2}) == 1.0

    def test_gold_never_filtered_out(self):
        scores = np.array([1.0, 2.0])
        assert rank_one(scores, gold=0, filter_types={0, 1}) == 1.0

    def test_nan_scores_give_nan_rank(self):
        # A NaN gold or kept candidate must not rank (it used to read 0.5).
        assert np.isnan(rank_one(np.array([np.nan, 1.0, 2.0]), gold=0))
        assert np.isnan(rank_one(np.array([3.0, np.nan, 2.0]), gold=0))
        # A NaN that the filter removes does not touch the rank.
        assert rank_one(np.array([3.0, np.nan, 2.0]), gold=0, filter_types={1}) == 1.0

    def test_gold_out_of_range(self):
        with pytest.raises(ValueError):
            rank_one(np.array([1.0]), gold=3)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(0)
        score_alphabet = np.array([-1.0, 0.0, 0.5, 1.0])  # small alphabet forces ties
        for _ in range(200):
            n = int(rng.integers(1, 7))
            scores = rng.choice(score_alphabet, size=n)
            gold = int(rng.integers(0, n))
            filter_types = set(
                int(i) for i in rng.choice(n, size=rng.integers(0, n), replace=False)
            )
            expected = brute_force_rank(scores, gold, filter_types)
            assert rank_one(scores, gold, filter_types) == pytest.approx(expected)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores = rng.normal(size=6)
            gold = int(rng.integers(0, 6))
            transformed = np.exp(2.0 * scores) + 3.0
            assert rank_one(scores, gold) == rank_one(transformed, gold)


def one_hot_model():
    """A model whose scores are exactly the one-hot hub signatures.

    Entity e<i> points at hub h<i>; hub embeddings are scaled one-hot rows
    and W is the identity, so e<i> scores highest on type t<i>.
    """
    n = 3
    triples = [(f"e{i}", "r", f"h{i}") for i in range(n)]
    train = [(f"e{i}", f"t{i}") for i in range(n)]
    valid = [(f"e{i}", f"t{i}") for i in range(n)]  # dropped as duplicates
    vocab = build_vocab(triples, train)
    graph = build_graph(vocab, triples, train, include_type_edges=False)
    k = n
    params = ParameterSet(
        entity_emb=np.zeros((vocab.num_entities, k), dtype=np.float32),
        relation_emb=np.zeros((vocab.num_relations, k), dtype=np.float32),
        type_emb=np.zeros((vocab.num_types, k), dtype=np.float32),
        W=np.eye(n, dtype=np.float32),
        b=np.zeros(n, dtype=np.float32),
    )
    for i in range(n):
        params.entity_emb[vocab.entity_ids[f"h{i}"], i] = 10.0
    pairs = [(vocab.entity_ids[f"e{i}"], vocab.type_ids[f"t{i}"]) for i in range(n)]
    known = {e: {t} for e, t in pairs}
    dataset = TypingDataset(
        train=[], valid=pairs, test=pairs, known_types=known, train_types={}
    )
    return params, graph, dataset, vocab


class TestEvaluate:
    def test_perfect_model_scores_one_everywhere(self):
        params, graph, dataset, _ = one_hot_model()
        report = evaluate(params, graph, dataset, "test", alpha=0.5)
        assert report.mr == 1.0
        assert report.mrr == 1.0
        assert report.hits1 == report.hits3 == report.hits10 == 1.0

    def test_metrics_recomputable_from_rank_dump(self):
        vocab, dataset, graph, *_ = assembled(tiny_corpus())
        rng = np.random.default_rng(0)
        params = ParameterSet(
            entity_emb=rng.normal(size=(vocab.num_entities, 4)),
            relation_emb=rng.normal(size=(vocab.num_relations, 4)),
            type_emb=rng.normal(size=(vocab.num_types, 4)),
            W=rng.normal(size=(vocab.num_types, 4)),
            b=rng.normal(size=vocab.num_types),
        )
        report = evaluate(params, graph, dataset, "test", alpha=0.5)
        ranks = np.array([rank for _, _, rank in report.ranks])
        assert report.mrr == pytest.approx((1.0 / ranks).mean(), abs=1e-12)
        assert report.mr == pytest.approx(ranks.mean(), abs=1e-12)
        assert report.hits1 == pytest.approx((ranks <= 1).mean(), abs=1e-12)

    def test_random_scores_match_uniform_rank_expectation(self):
        # With continuous random scores the gold's rank is uniform on 1..L,
        # so the expected reciprocal rank is H_L / L.
        rng = np.random.default_rng(42)
        L = 3584
        samples = 4000
        inv_ranks = []
        for _ in range(samples):
            scores = rng.normal(size=L)
            gold = int(rng.integers(0, L))
            inv_ranks.append(1.0 / rank_one(scores, gold))
        expected = np.sum(1.0 / np.arange(1, L + 1)) / L
        sigma_mean = np.std(inv_ranks) / np.sqrt(samples)
        assert abs(np.mean(inv_ranks) - expected) < 4 * sigma_mean
        assert expected == pytest.approx(0.0023, abs=3e-4)

    def test_entity_scored_once_for_multiple_queries(self, monkeypatch):
        params, graph, dataset, vocab = one_hot_model()
        # Give one entity two test types by duplicating with another gold.
        e0 = vocab.entity_ids["e0"]
        dataset.test = [(e0, 0), (e0, 1), (vocab.entity_ids["e1"], 1)]
        dataset.known_types = {e0: {0, 1}, vocab.entity_ids["e1"]: {1}}
        calls = []
        import cet.ranking as ranking_module

        original = ranking_module.score_all_neighbors

        def counting(*args, **kwargs):
            calls.extend(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(ranking_module, "score_all_neighbors", counting)
        report = evaluate(params, graph, dataset, "test", alpha=0.5)
        assert len(report.ranks) == 3
        assert sorted(calls) == sorted({e0, vocab.entity_ids["e1"]})  # each entity once

    def test_filtered_rank_never_worse(self):
        vocab, dataset, graph, *_ = assembled(tiny_corpus())
        rng = np.random.default_rng(5)
        params = ParameterSet(
            entity_emb=rng.normal(size=(vocab.num_entities, 3)),
            relation_emb=rng.normal(size=(vocab.num_relations, 3)),
            type_emb=rng.normal(size=(vocab.num_types, 3)),
            W=rng.normal(size=(vocab.num_types, 3)),
            b=rng.normal(size=vocab.num_types),
        )
        filtered = evaluate(params, graph, dataset, "test", alpha=0.5)
        raw = evaluate(params, graph, dataset, "test", alpha=0.5, filtered=False)
        for (_, _, r_f), (_, _, r_u) in zip(filtered.ranks, raw.ranks):
            assert r_f <= r_u

    def test_isolated_entity_falls_back_to_bias(self):
        vocab = build_vocab([("a", "r", "b")], [("z", "t0"), ("a", "t1")])
        graph = build_graph(vocab, [("a", "r", "b")], [], include_type_edges=False)
        params = ParameterSet(
            entity_emb=np.zeros((vocab.num_entities, 2)),
            relation_emb=np.zeros((vocab.num_relations, 2)),
            type_emb=np.zeros((vocab.num_types, 2)),
            W=np.zeros((vocab.num_types, 2)),
            b=np.array([1.0, 0.0]),
        )
        z = vocab.entity_ids["z"]
        dataset = TypingDataset(
            train=[], valid=[(z, 0)], test=[(z, 0)],
            known_types={z: {0}}, train_types={},
        )
        report = evaluate(params, graph, dataset, "test", alpha=0.5)
        assert report.ranks[0][2] == 1.0  # b[0] is the strict max

    def test_hits_are_monotone_and_bounded_by_mrr(self):
        vocab, dataset, graph, *_ = assembled(tiny_corpus())
        rng = np.random.default_rng(9)
        params = ParameterSet(
            entity_emb=rng.normal(size=(vocab.num_entities, 3)),
            relation_emb=rng.normal(size=(vocab.num_relations, 3)),
            type_emb=rng.normal(size=(vocab.num_types, 3)),
            W=rng.normal(size=(vocab.num_types, 3)),
            b=rng.normal(size=vocab.num_types),
        )
        report = evaluate(params, graph, dataset, "valid", alpha=0.5)
        assert report.hits1 <= report.hits3 <= report.hits10
        assert report.mrr >= report.hits1

    def test_non_finite_pooled_scores_fail_every_query(self):
        params, graph, dataset, vocab = one_hot_model()
        e0 = vocab.entity_ids["e0"]
        params.entity_emb[vocab.entity_ids["h0"], 0] = np.inf
        # The injected inf makes NaN on purpose; its warnings are expected.
        with np.errstate(invalid="ignore"):
            report = evaluate(params, graph, dataset, "test", alpha=0.5)
        ranks = {entity: rank for entity, _, rank in report.ranks}
        assert np.isnan(ranks.pop(e0))
        assert list(ranks.values()) == [1.0, 1.0]
        assert np.isnan(report.mr) and np.isnan(report.mrr)

    def test_a_poisoned_entity_fails_alone_in_its_bucket(self, monkeypatch):
        # Six entities of equal degree share one degree bucket, each with a
        # private neighbor; "z" has no edges, so it ranks from the bias. NaN
        # in q2's private neighbor fails q2's queries only: its bucket-mates
        # keep their ranks bit for bit, and ranks stay in pair order.
        import cet.ranking

        triples = [(f"q{i}", "r", f"p{i}") for i in range(6)]
        triples += [(f"q{i}", "s", f"c{i % 2}") for i in range(6)]
        pairs = [(f"q{i}", f"t{i % 3}") for i in range(6)] + [("z", "t1")]
        vocab = build_vocab(triples, pairs)
        graph = build_graph(vocab, triples, [], include_type_edges=False)
        ids = vocab.entity_ids
        test = [(ids[e], vocab.type_ids[t]) for e, t in pairs[::-1]]
        known = {ids["q0"]: {0, 1}, ids["q4"]: {1}, ids["z"]: {1, 2}}
        dataset = TypingDataset(train=[], valid=test, test=test, known_types=known, train_types={})
        rng = np.random.default_rng(3)
        params = ParameterSet(
            entity_emb=rng.normal(size=(vocab.num_entities, 4)),
            relation_emb=rng.normal(size=(vocab.num_relations, 4)),
            type_emb=rng.normal(size=(vocab.num_types, 4)),
            W=rng.normal(size=(vocab.num_types, 4)),
            b=np.array([0.5, -1.0, 2.0]),
        )
        buckets = []
        score = cet.ranking.score_all_neighbors

        def recorded(params, graph, entities, *args, **kwargs):
            buckets.append(list(entities))
            return score(params, graph, entities, *args, **kwargs)

        monkeypatch.setattr(cet.ranking, "score_all_neighbors", recorded)
        before = evaluate(params, graph, dataset, "test", alpha=0.5).ranks
        params.entity_emb[ids["p2"]] = np.nan
        with np.errstate(invalid="ignore"):
            after = evaluate(params, graph, dataset, "test", alpha=0.5).ranks
        assert buckets[-1] == [ids[f"q{i}"] for i in range(6)][::-1]
        assert [(e, t) for e, t, _ in after] == [(e, t) for e, t, _ in before] == test
        for (entity, gold, old), (_, _, new) in zip(before, after):
            if entity == ids["q2"]:
                assert np.isnan(new)
            else:
                assert new == old
        # z's gold t1 is behind t0 in the bias; t2 is filtered as known.
        assert after[0][2] == before[0][2] == 2.0

    @pytest.mark.parametrize("filtered", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bucket_ranks_equal_rank_one(self, monkeypatch, filtered, seed):
        # Every query's rank from the bucket ranking, which compares two
        # queries at a time here, equals rank_one on its entity's pooled
        # row: scores rounded to a few values tie often, golds sit inside
        # their entity's known types, one poisoned entity has NaN in one
        # cell of its row, and isolated entities rank on the bias, which
        # ties too.
        import cet.ranking

        rng = np.random.default_rng(seed)
        num_types = 9
        triples = [
            (f"q{i}", f"r{j % 2}", f"x{(i + j) % 7}") for i in range(24) for j in range(i % 5 + 1)
        ]
        entities = [f"q{i}" for i in range(24)] + [f"z{i}" for i in range(4)]
        pairs = [(e, f"t{t}") for e in entities
                 for t in rng.choice(num_types, size=rng.integers(1, 4), replace=False)]
        pairs += [(f"x{j}", f"t{j}") for j in range(7)] + [("x0", f"t{num_types - 1}")]
        vocab = build_vocab(triples, pairs)
        graph = build_graph(vocab, triples, [], include_type_edges=False)
        ids = vocab.entity_ids
        queries = [(ids[e], vocab.type_ids[t]) for e, t in pairs if e[0] in "qz"]
        known = {}
        for e, t in pairs:
            known.setdefault(ids[e], set()).add(vocab.type_ids[t])
        known[ids["q1"]] = set()  # an entity with nothing to filter
        dataset = TypingDataset(train=[], valid=queries, test=queries, known_types=known,
                                train_types={})
        params = ParameterSet(
            entity_emb=rng.normal(size=(vocab.num_entities, 3)),
            relation_emb=rng.normal(size=(vocab.num_relations, 3)),
            type_emb=rng.normal(size=(vocab.num_types, 3)),
            W=rng.normal(size=(vocab.num_types, 3)),
            b=rng.integers(-1, 2, size=vocab.num_types).astype(float),
        )
        poisoned = ids[f"q{rng.integers(24)}"]
        rows = {}
        score = cet.ranking.score_all_neighbors

        def coarse(params, graph, entities, *args, **kwargs):
            bundle = score(params, graph, entities, *args, **kwargs)
            bundle.pooled[:] = np.round(bundle.pooled, 0)
            for entity, row in zip(entities, bundle.pooled):
                if entity == poisoned:
                    row[rng.integers(num_types)] = np.nan
                rows[entity] = row.copy()
            return bundle

        monkeypatch.setattr(cet.kernel, "_BUCKET_ROWS", 8)  # several buckets
        monkeypatch.setattr(cet.kernel, "_CELLS", 2 * num_types)  # queries ranked two at a time
        monkeypatch.setattr(cet.ranking, "score_all_neighbors", coarse)
        report = evaluate(params, graph, dataset, "test", alpha=0.5, filtered=filtered)
        isolated = {ids[f"z{i}"] for i in range(4)}
        assert isolated.isdisjoint(rows) and len(rows) == 24
        ties = 0
        for entity, gold, rank in report.ranks:
            row = params.b if entity in isolated else rows[entity]
            expected = (
                rank_one(row, gold, known[entity] if filtered else None)
                if np.isfinite(row).all() else np.nan
            )
            assert rank == expected or np.isnan(rank) and np.isnan(expected)
            ties += rank % 1 == 0.5
        assert ties > 0
        assert sum(np.isnan(rank) for _, _, rank in report.ranks) == sum(
            entity == poisoned for entity, _ in queries
        )

    def test_empty_split_rejected(self):
        params, graph, dataset, _ = one_hot_model()
        dataset.train = []
        with pytest.raises(ValueError):
            evaluate(params, graph, dataset, "train", alpha=0.5)
