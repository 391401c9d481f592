import gc
import tracemalloc

import numpy as np
import pytest

import cet.data
from cet import (
    ParseError, TrainConfig, TypingDataset, assemble, evaluate, init_params, load_pairs, load_triples,
)
from cet.graph import Vocab
from cet.train import _train_batch
from synth import assembled, hub_marker_corpus


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    return _write


class TestLoadTriples:
    def test_single_line(self, write):
        assert list(load_triples(write("t.txt", "a\tr\tb\n"))) == [("a", "r", "b")]

    def test_order_preserved_and_blank_lines_skipped(self, write):
        path = write("t.txt", "a\tr\tb\n\nb\tr\tc\n")
        assert list(load_triples(path)) == [("a", "r", "b"), ("b", "r", "c")]

    def test_fields_trimmed(self, write):
        assert list(load_triples(write("t.txt", " a \tr\t b \n"))) == [("a", "r", "b")]

    def test_crlf_and_whitespace_only_lines(self, write):
        path = write("t.txt", "a\tr\tb\r\n   \nb\tr\tc\r\n")
        assert list(load_triples(path)) == [("a", "r", "b"), ("b", "r", "c")]

    def test_whitespace_only_lines_with_tabs_skipped(self, write):
        path = write("t.txt", "a\tr\tb\n\t\n \t \n\t\t\nb\tr\tc\n\t \t\nbad\n")
        with pytest.raises(ParseError, match=":7: expected 3 tab-separated fields, got 1$"):
            load_triples(path)
        assert list(load_triples(write("u.txt", "a\tr\tb\n\t\t\n"))) == [("a", "r", "b")]

    def test_lone_cr_ends_a_line(self, write):
        assert list(load_triples(write("t.txt", "a\tr\tb\rb\tr\tc\n"))) == [
            ("a", "r", "b"),
            ("b", "r", "c"),
        ]
        # A lone CR counts as a line end, CRLF as one: the bad line is line 3.
        with pytest.raises(ParseError, match=r"t\.txt:3:"):
            load_triples(write("t.txt", "a\tr\tb\r\r\nb\tr\n"))

    def test_unicode_spaces_stripped(self, write):
        path = write("t.txt", "\xa0a\u3000\tr\t\u3000b\xa0\n")
        assert list(load_triples(path)) == [("a", "r", "b")]
        assert list(load_pairs(write("p.txt", "a\xa0\t\u3000t\n"))) == [("a", "t")]

    def test_last_line_without_newline(self, write):
        path = write("t.txt", "a\tr\tb\nb\tr\tc")
        assert list(load_triples(path)) == [("a", "r", "b"), ("b", "r", "c")]

    def test_length_counts_repeats(self, write):
        assert len(load_triples(write("t.txt", "a\tr\tb\n\na\tr\tb\n"))) == 2

    def test_malformed_line_reports_number(self, write):
        path = write("t.txt", "a\tr\tb\na\tb\n")
        with pytest.raises(ParseError, match=":2:"):
            load_triples(path)

    def test_empty_field_rejected(self, write):
        with pytest.raises(ParseError):
            load_triples(write("t.txt", "a\t\tb\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_triples(tmp_path / "nope.txt")


class TestLoaderMemory:
    def test_no_python_object_per_row(self, tmp_path):
        # 100k rows over about 1k names. The codes take 12 bytes a row (three
        # int32); a tuple of three names per row, as rows were once kept,
        # takes over 100.
        rows, names = 100_000, 1_000
        rng = np.random.default_rng(0)
        heads, tails = rng.integers(names, size=(2, rows))
        rels = rng.integers(20, size=rows)
        path = tmp_path / "t.txt"
        path.write_text(
            "".join(f"e{h:04d}\tr{r}\te{t:04d}\n" for h, r, t in zip(heads, rels, tails)),
            encoding="utf-8",
        )
        tracemalloc.start()
        try:
            loaded = load_triples(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        distinct = sum(len(table) for table in loaded.tables.values())
        # A name costs its string, a dict slot while interning and a list slot.
        assert peak < 16 * rows + 256 * distinct


class TestLoadPairs:
    def test_pairs(self, write):
        assert list(load_pairs(write("p.txt", "a\tt1\nb\tt2\n"))) == [("a", "t1"), ("b", "t2")]

    def test_empty_file(self, write):
        assert list(load_pairs(write("p.txt", ""))) == []

    def test_three_fields_rejected(self, write):
        with pytest.raises(ParseError, match=":1:"):
            load_pairs(write("p.txt", "a\tt1\tjunk\n"))


class TestAssemble:
    triples = [("a", "r", "b"), ("b", "s", "c")]

    def test_unseen_type_dropped_with_count(self):
        vocab, ds = assemble(self.triples, [("a", "t1")], [("b", "t_new")], [])
        assert ds.valid == []
        assert ds.drop_counts["unseen_type"] == 1
        assert "t_new" not in vocab.type_ids

    def test_unknown_entity_dropped_with_count(self):
        _, ds = assemble(self.triples, [("a", "t1")], [("ghost", "t1")], [])
        assert ds.valid == []
        assert ds.drop_counts["unknown_entity"] == 1

    def test_filter_is_union_across_splits(self):
        vocab, ds = assemble(
            self.triples,
            [("a", "t1"), ("c", "t2")],
            [],
            [("a", "t2")],
        )
        a = vocab.entity_ids["a"]
        assert ds.known_types[a] == {vocab.type_ids["t1"], vocab.type_ids["t2"]}

    def test_cross_split_duplicates_dropped(self):
        _, ds = assemble(self.triples, [("a", "t1")], [("a", "t1")], [("a", "t1")])
        assert ds.valid == [] and ds.test == []
        assert ds.drop_counts["cross_split_duplicates"] == 2

    def test_splits_disjoint(self):
        vocab, ds = assemble(
            self.triples,
            [("a", "t1"), ("b", "t1")],
            [("c", "t1"), ("a", "t1")],
            [("c", "t1"), ("b", "t1")],
        )
        as_sets = [set(ds.train), set(ds.valid), set(ds.test)]
        assert not (as_sets[0] & as_sets[1])
        assert not (as_sets[0] & as_sets[2])
        assert not (as_sets[1] & as_sets[2])

    def test_duplicates_within_split_counted(self):
        _, ds = assemble(self.triples, [("a", "t1"), ("a", "t1")], [], [])
        assert ds.drop_counts["duplicate_pairs"] == 1
        assert len(ds.train) == 1

    def test_train_types_in_order(self):
        vocab, ds = assemble(self.triples, [("a", "t1"), ("a", "t2"), ("b", "t1")], [], [])
        a = vocab.entity_ids["a"]
        assert ds.positives(a) == [vocab.type_ids["t1"], vocab.type_ids["t2"]]
        assert ds.positives(999) == []

    def test_filter_matches_brute_force(self):
        import numpy as np

        rng = np.random.default_rng(3)
        entities = [f"e{i}" for i in range(6)]
        types = [f"t{i}" for i in range(4)]
        triples = [("e0", "r", e) for e in entities[1:]]
        splits = [[], [], []]
        for _ in range(30):
            pair = (entities[rng.integers(6)], types[rng.integers(4)])
            splits[rng.integers(3)].append(pair)
        # Keep eval types resolvable.
        splits[0].extend((entities[0], t) for t in types)
        vocab, ds = assemble(triples, *splits)
        expected: dict[int, set[int]] = {}
        for e, t in ds.train + ds.valid + ds.test:
            expected.setdefault(e, set()).add(t)
        assert ds.known_types == expected

    def test_vocab_roundtrip_through_name_tables(self):
        vocab, _ = assemble(self.triples, [("a", "t1"), ("c", "t2")], [], [])
        again = Vocab.from_names(
            vocab.entity_names, vocab.relation_names, vocab.type_names
        )
        assert again.entity_ids == vocab.entity_ids
        assert again.relation_ids == vocab.relation_ids
        assert again.type_ids == vocab.type_ids


class TestLabelViews:
    """``assemble``'s array-backed fields behave as the lists and dicts they stand for."""

    # Entity ids follow the triples (a, b, c); first appearance in the pairs is c, a, b.
    corpus = (
        [("a", "r", "b"), ("b", "s", "c")],
        [("c", "t1"), ("a", "t2"), ("c", "t2")],
        [("b", "t1")],
        [("a", "t1")],
    )

    @pytest.fixture
    def labelled(self):
        vocab, ds = assemble(*self.corpus)
        return vocab, ds, [vocab.entity_ids[name] for name in "abc"], vocab.type_ids

    def test_absent_entities_give_the_defaults(self, labelled):
        vocab, ds, (a, b, c), _ = labelled
        for entity in (-1, -vocab.num_entities, vocab.num_entities, 2**70, "a", None):
            assert ds.positives(entity) == []
            assert ds.known_types.get(entity, ()) == ()
            assert entity not in ds.known_types and entity not in ds.train_types
            with pytest.raises(KeyError):
                ds.known_types[entity]
        # b is labelled only in validation: known, but without training types.
        assert ds.positives(b) == [] and b not in ds.train_types
        assert b in ds.known_types

    def test_elements_are_python_ints(self, labelled):
        _, ds, *_ = labelled
        for split in (ds.train, ds.valid, ds.test):
            pairs = list(split) + [split[0], split[-1], *split[:]]
            assert all(type(pair) is tuple and len(pair) == 2 for pair in pairs)
            assert all(type(x) is int for pair in pairs for x in pair)
        for mapping, kind in ((ds.train_types, list), (ds.known_types, set)):
            assert all(type(e) is int for e in mapping)
            assert all(type(types) is kind for types in mapping.values())
            assert all(type(t) is int for types in mapping.values() for t in types)

    def test_keys_in_first_appearance_order(self, labelled):
        _, ds, (a, b, c), t = labelled
        assert list(ds.known_types) == [c, a, b]
        assert list(ds.train_types) == [c, a]
        assert ds.train_types[c] == [t["t1"], t["t2"]]  # training types in input order
        assert ds.known_types[a] == {t["t1"], t["t2"]}

    def test_equal_to_plain_containers(self, labelled):
        _, ds, (a, b, c), t = labelled
        assert ds.train == [(c, t["t1"]), (a, t["t2"]), (c, t["t2"])]
        assert ds.valid == [(b, t["t1"])] and ds.valid != [] and ds.valid != (b, t["t1"])
        assert ds.train_types == dict(ds.train_types) == {c: [t["t1"], t["t2"]], a: [t["t2"]]}
        assert ds.known_types == {e: set(types) for e, types in ds.known_types.items()}
        assert ds.train + ds.valid + ds.test == list(ds.train) + list(ds.valid) + list(ds.test)
        assert [] + ds.valid == ds.valid + [] == list(ds.valid)
        assert (b, t["t1"]) in ds.valid and (a, t["t1"]) not in ds.valid
        with pytest.raises(IndexError):
            ds.train[len(ds.train)]
        with pytest.raises(TypeError):
            ds.train[0] = (a, t["t1"])

    def test_iteration_crosses_chunks(self, labelled, monkeypatch):
        _, ds, *_ = labelled
        monkeypatch.setattr(cet.data, "_CHUNK", 2)
        assert list(ds.train) == [ds.train[i] for i in range(len(ds.train))]

    @pytest.mark.parametrize("mask_mode", [False, True])
    def test_plain_copies_give_the_same_bytes(self, mask_mode):
        # The library reads the fields only as sequences and mappings, so a
        # dataset of plain lists and dicts is the same input to it.
        vocab, ds, graph, *_ = assembled(hub_marker_corpus())
        plain = TypingDataset(
            train=list(ds.train), valid=list(ds.valid), test=list(ds.test),
            known_types=dict(ds.known_types), train_types=dict(ds.train_types),
        )
        params = init_params(vocab, 8, seed=4)
        params.b[:] = np.random.default_rng(1).normal(size=vocab.num_types)
        batch = [e for e in sorted(ds.train_types) if graph.degree(e) > 0][:24]

        def outputs(dataset):
            losses, grads = _train_batch(
                params, graph, dataset, batch, TrainConfig(sample_size=5, mask_mode=mask_mode),
                np.random.default_rng(7),
            )
            sparse = [sorted((e, row.tobytes()) for e, row in rows.items())
                      for rows in (grads.entity_rows, grads.relation_rows, grads.type_rows)]
            report = evaluate(params, graph, dataset, "valid", 0.5, keep_ranks=True)
            return losses.tobytes(), grads.W.tobytes(), grads.b.tobytes(), sparse, report.ranks

        assert outputs(ds) == outputs(plain)


class TestAssembledMemory:
    def test_few_bytes_per_pair(self):
        # About 8,000 pairs over 3,000 entities and 60 types. The pairs and
        # their grouping by entity are arrays: 12 bytes a pair and about 30 a
        # labelled entity, 24 a pair here. A tuple per pair and a list and a
        # set per entity, as they were once kept, took about 270.
        rng = np.random.default_rng(0)
        entities, types, pairs = 3_000, 60, 8_000
        triples = [(f"e{i}", "r", f"e{(i + 1) % entities}") for i in range(entities)]
        codes = rng.choice(entities * types, size=pairs, replace=False)
        labelled = [(f"e{code // types}", f"t{code % types}") for code in codes.tolist()]
        train, valid, test = labelled[:6_400], labelled[6_400:7_200], labelled[7_200:]
        train += [("e0", f"t{t}") for t in range(types) if ("e0", f"t{t}") not in labelled]
        tracemalloc.start()
        try:
            vocab, ds = assemble(triples, train, valid, test)
            with_dataset = tracemalloc.get_traced_memory()[0]
            kept = len(ds.train) + len(ds.valid) + len(ds.test)
            del ds
            gc.collect()
            without = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept > 7_900 and vocab.num_entities == entities
        assert (with_dataset - without) / kept < 40
