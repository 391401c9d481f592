import numpy as np
import pytest

from cet import (
    HAS_TYPE,
    EmptyCorpusError,
    UnknownNameError,
    build_graph,
    build_vocab,
)
from cet.graph import HAS_TYPE_ID


def edge_list(graph, entity):
    """An entity's edges as (relation, inverted, target_is_type, target) tuples."""
    return list(zip(*(a.tolist() for a in graph.neighbor_arrays(entity))))


class TestBuildVocab:
    def test_minimal_corpus(self):
        vocab = build_vocab([("a", "r", "b")], [("a", "t1")])
        assert vocab.num_entities == 2
        assert vocab.num_relations == 2  # r plus has_type
        assert vocab.num_types == 1

    def test_first_appearance_order(self):
        vocab = build_vocab(
            [("b", "r2", "a"), ("a", "r1", "c")], [("d", "t2"), ("a", "t1")]
        )
        assert vocab.entity_ids == {"b": 0, "a": 1, "c": 2, "d": 3}
        assert vocab.relation_ids == {HAS_TYPE: 0, "r2": 1, "r1": 2}
        assert vocab.type_ids == {"t2": 0, "t1": 1}

    def test_has_type_reserved_at_zero(self):
        vocab = build_vocab([("a", "r", "b")], [("a", "t")])
        assert vocab.relation_ids[HAS_TYPE] == HAS_TYPE_ID
        assert list(vocab.relation_ids.values()).count(HAS_TYPE_ID) == 1

    def test_reserved_name_collision_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            build_vocab([("a", HAS_TYPE, "b")], [("a", "t")])

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_vocab([], [])
        with pytest.raises(EmptyCorpusError):
            build_vocab([("a", "r", "b")], [])

    def test_pair_only_entities_kept(self):
        vocab = build_vocab([("a", "r", "b")], [("z", "t")])
        assert "z" in vocab.entity_ids


class TestBuildGraph:
    def test_single_triple_and_pair(self):
        vocab = build_vocab([("a", "r", "b")], [("a", "t1")])
        graph = build_graph(vocab, [("a", "r", "b")], [("a", "t1")])
        assert graph.num_directed_edges == 4
        assert graph.num_edges_original == 1
        assert graph.num_type_edges == 1

    def test_forward_and_inverse_neighbors(self):
        vocab = build_vocab([("s", "r", "o")], [("s", "t")])
        graph = build_graph(vocab, [("s", "r", "o")], [], include_type_edges=False)
        s, o = vocab.entity_ids["s"], vocab.entity_ids["o"]
        r = vocab.relation_ids["r"]
        assert edge_list(graph, s) == [(r, False, False, o)]
        assert edge_list(graph, o) == [(r, True, False, s)]

    def test_type_edges_disabled(self):
        vocab = build_vocab([("a", "r", "b")], [("a", "t1")])
        graph = build_graph(vocab, [("a", "r", "b")], [("a", "t1")], include_type_edges=False)
        assert graph.num_directed_edges == 2
        assert graph.num_type_edges == 0
        for e in range(vocab.num_entities):
            assert not graph.neighbor_arrays(e)[2].any()

    def test_isolated_node_has_empty_list(self):
        vocab = build_vocab([("a", "r", "b")], [("z", "t")])
        graph = build_graph(vocab, [("a", "r", "b")], [], include_type_edges=False)
        assert edge_list(graph, vocab.entity_ids["z"]) == []
        assert graph.degree(vocab.entity_ids["z"]) == 0

    def test_out_of_range_index(self):
        vocab = build_vocab([("a", "r", "b")], [("a", "t")])
        graph = build_graph(vocab, [("a", "r", "b")], [("a", "t")])
        with pytest.raises(IndexError):
            graph.neighbor_arrays(99)
        with pytest.raises(IndexError):
            graph.neighbor_arrays(-1)

    def test_unknown_name_reported(self):
        vocab = build_vocab([("a", "r", "b")], [("a", "t")])
        for triples, pairs, message in (
            ([("a", "r", "ghost")], [], "unknown entity 'ghost'"),
            ([("ghost", "r", "b")], [], "unknown entity 'ghost'"),
            ([("a", "q", "b")], [], "unknown relation 'q'"),
            ([], [("ghost", "t")], "unknown entity 'ghost'"),
            ([], [("a", "t9")], "unknown type 't9'"),
        ):
            with pytest.raises(UnknownNameError) as raised:
                build_graph(vocab, triples, pairs)
            assert str(raised.value) == message

    def test_first_unknown_name_by_column_then_row(self):
        # Heads are checked before relations, relations before tails, each
        # in row order; for pairs, entities before types.
        vocab = build_vocab([("a", "r", "b")], [("a", "t")])
        for triples, pairs, message in (
            ([("a", "q", "tail?"), ("head?", "r", "b")], [], "unknown entity 'head?'"),
            ([("a", "r", "tail?"), ("a", "q", "b")], [], "unknown relation 'q'"),
            ([("a", "r", "x"), ("a", "r", "y")], [], "unknown entity 'x'"),
            ([("a", "r", "b")], [("a", "t9"), ("ghost", "t")], "unknown entity 'ghost'"),
            ([("a", "r", "b")], [("a", "t9"), ("a", "t8")], "unknown type 't9'"),
        ):
            with pytest.raises(UnknownNameError) as raised:
                build_graph(vocab, triples, pairs)
            assert str(raised.value) == message

    def test_duplicates_dropped(self):
        triples = [("a", "r", "b")] * 3
        pairs = [("a", "t")] * 2
        vocab = build_vocab(triples, pairs)
        graph = build_graph(vocab, triples, pairs)
        assert graph.num_edges_original == 1
        assert graph.num_type_edges == 1
        assert graph.num_directed_edges == 4

    def test_neighbor_kind_invariant(self):
        triples = [("a", "r", "b"), ("b", "s", "c")]
        pairs = [("a", "t1"), ("c", "t2")]
        vocab = build_vocab(triples, pairs)
        graph = build_graph(vocab, triples, pairs)
        for e in range(vocab.num_entities):
            rel, inv, is_type, _ = graph.neighbor_arrays(e)
            np.testing.assert_array_equal(is_type, (rel == HAS_TYPE_ID) & ~inv)


class TestGraphProperties:
    def _random_corpus(self, rng):
        entities = [f"e{i}" for i in range(int(rng.integers(2, 8)))]
        relations = [f"r{i}" for i in range(int(rng.integers(1, 4)))]
        types = [f"t{i}" for i in range(int(rng.integers(1, 4)))]
        triples = list(
            {
                (
                    entities[rng.integers(len(entities))],
                    relations[rng.integers(len(relations))],
                    entities[rng.integers(len(entities))],
                )
                for _ in range(int(rng.integers(1, 10)))
            }
        )
        pairs = list(
            {
                (entities[rng.integers(len(entities))], types[rng.integers(len(types))])
                for _ in range(int(rng.integers(1, 6)))
            }
        )
        return triples, pairs

    def test_edge_count_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            triples, pairs = self._random_corpus(rng)
            vocab = build_vocab(triples, pairs)
            for tan in (True, False):
                graph = build_graph(vocab, triples, pairs, include_type_edges=tan)
                expected = 2 * (len(triples) + (len(pairs) if tan else 0))
                assert graph.num_directed_edges == expected

    def test_every_edge_has_one_inverse_partner(self):
        rng = np.random.default_rng(1)
        triples, pairs = self._random_corpus(rng)
        vocab = build_vocab(triples, pairs)
        graph = build_graph(vocab, triples, pairs, include_type_edges=False)
        forward = []
        inverse = []
        for e in range(vocab.num_entities):
            for rel, inverted, _, target in edge_list(graph, e):
                (inverse if inverted else forward).append((e, rel, target))
        # Inverting twice recovers the original edge set exactly once each.
        assert sorted(forward) == sorted((o, r, s) for s, r, o in inverse)

    def test_repeats_drop_like_the_first_occurrence_dedupe(self):
        # build_graph drops repeated triples and pairs by integer key; the
        # result must equal building from the first occurrences, in input order.
        def first_occurrences(rows):
            return list(dict.fromkeys(rows))

        rng = np.random.default_rng(3)
        for _ in range(25):
            triples, pairs = self._random_corpus(rng)
            noisy_triples = [triples[i] for i in rng.integers(len(triples), size=2 * len(triples))]
            noisy_pairs = [pairs[i] for i in rng.integers(len(pairs), size=2 * len(pairs))]
            vocab = build_vocab(triples, pairs)
            for tan in (True, False):
                got = build_graph(vocab, noisy_triples, noisy_pairs, include_type_edges=tan)
                want = build_graph(
                    vocab, first_occurrences(noisy_triples), first_occurrences(noisy_pairs),
                    include_type_edges=tan,
                )
                assert got.num_edges_original == want.num_edges_original
                assert got.num_type_edges == want.num_type_edges
                for e in range(vocab.num_entities):
                    assert edge_list(got, e) == edge_list(want, e)

    def test_construction_deterministic(self):
        rng = np.random.default_rng(2)
        triples, pairs = self._random_corpus(rng)
        vocab = build_vocab(triples, pairs)
        g1 = build_graph(vocab, triples, pairs)
        g2 = build_graph(vocab, triples, pairs)
        for e in range(vocab.num_entities):
            assert edge_list(g1, e) == edge_list(g2, e)

    def test_full_dataset_edge_counts(self):
        from conftest import FB15KET_DIR

        if not (FB15KET_DIR / "train.txt").exists():
            pytest.skip(f"FB15kET dataset not found under {FB15KET_DIR}")
        from cet import load_pairs, load_triples

        triples = load_triples(FB15KET_DIR / "train.txt")
        pairs = load_pairs(FB15KET_DIR / "Entity_Type_train.txt")
        vocab = build_vocab(triples, pairs)
        graph = build_graph(vocab, triples, pairs)
        assert graph.num_directed_edges == 2 * (483142 + 136618) == 1_239_520
        bare = build_graph(vocab, triples, pairs, include_type_edges=False)
        assert bare.num_directed_edges == 2 * 483142

    def test_eval_pairs_never_become_edges(self):
        triples = [("a", "r", "b")]
        train = [("a", "t1")]
        held_out = ("b", "t1")
        vocab = build_vocab(triples, train + [held_out])
        graph = build_graph(vocab, triples, train)
        b = vocab.entity_ids["b"]
        t1 = vocab.type_ids["t1"]
        assert not any(
            is_type and target == t1 for _, _, is_type, target in edge_list(graph, b)
        )
