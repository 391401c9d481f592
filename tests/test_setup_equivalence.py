"""The id-column set-up path against the frozen name-tuple path.

Random corpora are written to disk with the usual noise (repeats within and
across splits, unknown entities, unseen types, blank and whitespace-only
lines, CRLF and lone-CR line ends, padded fields, a reserved ``has_type``
relation, malformed lines and an empty training file). Loading, ``assemble``
and ``build_graph`` must give what ``reference_setup`` gives: the same
vocabulary, dataset fields and key order, drop counts, CSR arrays, warnings,
and the same exception type and text.
"""

from __future__ import annotations

import logging
from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import cet.data
import cet.graph
import reference_setup as reference

ENTITIES = [f"e{i}" for i in range(6)] + ["ghost"]
RELATIONS = ["r0", "r1", "r2", "has_type"]
TYPES = [f"t{i}" for i in range(4)] + ["unseen"]
# The library's set-up entry points, shaped like the reference module.
LIBRARY = SimpleNamespace(
    load_triples=cet.data.load_triples,
    load_pairs=cet.data.load_pairs,
    assemble=cet.data.assemble,
    build_graph=cet.graph.build_graph,
)
BLANKS = ["", "   ", "\t", " \t ", "\t\t", "　"]
ENDS = ["\n", "\r\n", "\r"]


def rows_of(width: int, pools, max_size: int):
    row = st.tuples(*(st.sampled_from(pool) for pool in pools[:width]))
    return st.lists(row, max_size=max_size)


@st.composite
def corpus_files(draw):
    """Four data files as texts, each a list of rows with noise mixed in."""
    relations = RELATIONS if draw(st.integers(0, 9)) == 0 else RELATIONS[:-1]
    files = [draw(rows_of(3, [ENTITIES[:-1], relations, ENTITIES[:-1]], 12))]
    files.append(draw(rows_of(2, [ENTITIES[:-1], TYPES[:-1]], 10)))
    for _ in range(2):
        files.append(draw(rows_of(2, [ENTITIES, TYPES], 8)))
    texts = []
    for rows in files:
        lines = []
        for row in rows:
            if draw(st.integers(0, 5)) == 0:
                lines.append(draw(st.sampled_from(BLANKS)))
            pad = draw(st.sampled_from(["", " ", "\xa0"]))
            fields = [pad + name + pad for name in row]
            if draw(st.integers(0, 99)) == 57:  # rare: zero is drawn often
                fields = fields[:-1] if draw(st.booleans()) else fields + [""]
            lines.append("\t".join(fields))
        ends = [draw(st.sampled_from(ENDS)) for _ in lines]
        if ends and draw(st.booleans()):
            ends[-1] = ""  # a last line without a line end
        texts.append("".join(line + end for line, end in zip(lines, ends)))
    return texts


def graph_arrays(graph):
    return [graph._offsets, graph._rel, graph._inv, graph._is_type, graph._tgt]


def snapshot(vocab, dataset, graphs):
    """Everything set-up produces, in a form where == also checks order and types."""

    def typed(pairs):
        assert all(type(e) is int and type(t) is int for e, t in pairs)
        return list(pairs)

    for types in dataset.known_types.values():
        assert all(type(t) is int for t in types)
    return (
        vocab.entity_names,
        vocab.relation_names,
        vocab.type_names,
        typed(dataset.train),
        typed(dataset.valid),
        typed(dataset.test),
        list(dataset.known_types.items()),
        list(dataset.train_types.items()),
        list(dataset.drop_counts.items()),
        graphs,
    )


class Warnings(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def run(setup, paths):
    """Set up from ``paths`` with the loaders and builders of ``setup``."""
    warnings = Warnings()
    logger = logging.getLogger("cet.graph")
    logger.addHandler(warnings)
    try:
        triples = setup.load_triples(paths[0])
        splits = [setup.load_pairs(path) for path in paths[1:]]
        vocab, dataset = setup.assemble(triples, *splits)
        graphs = [
            [a.dtype.str + repr(a.tolist()) for a in graph_arrays(
                setup.build_graph(vocab, triples, splits[0], include_type_edges=tan))]
            for tan in (True, False)
        ]
        outcome = snapshot(vocab, dataset, graphs)
    except Exception as err:
        outcome = (type(err), str(err))
    finally:
        logger.removeHandler(warnings)
    return outcome, warnings.messages


def write(tmp_path_factory, texts):
    base = tmp_path_factory.mktemp("corpus")
    paths = [base / name for name in ("train.txt", "train_pairs.txt", "valid.txt", "test.txt")]
    for path, text in zip(paths, texts):
        path.write_bytes(text.encode("utf-8"))
    return paths


class TestMatchesReference:
    @given(texts=corpus_files())
    def test_set_up_matches(self, tmp_path_factory, texts):
        paths = write(tmp_path_factory, texts)
        assert run(LIBRARY, paths) == run(reference, paths)

    @given(texts=corpus_files(), known=st.integers(0, 6))
    def test_unknown_names_match(self, tmp_path_factory, texts, known):
        # A vocabulary that lacks some names: build_graph must name the
        # same unknown one as the reference (heads, relations, tails; then
        # entities, types; each in row order).
        paths = write(tmp_path_factory, texts)
        vocab = cet.graph.Vocab.from_names(
            ENTITIES[:known], ["has_type", "r0"], ["t0", "t1"]
        )
        outcomes = []
        for setup in (LIBRARY, reference):
            try:
                triples, pairs = setup.load_triples(paths[0]), setup.load_pairs(paths[1])
                outcomes.append([a.tolist() for a in graph_arrays(setup.build_graph(vocab, triples, pairs))])
            except Exception as err:
                outcomes.append((type(err), str(err)))
        assert outcomes[0] == outcomes[1]

    def test_empty_train_file(self, tmp_path_factory):
        paths = write(tmp_path_factory, ["a\tr\tb\n", "", "a\tt\n", ""])
        outcome, _ = run(LIBRARY, paths)
        assert outcome == run(reference, paths)[0]
        assert outcome[0] is cet.graph.EmptyCorpusError


class TestRowKeys:
    def test_key_fits_int64_at_the_widest_codes(self):
        # Three columns of int32 codes need up to 93 bits packed in one radix;
        # the key must still fit int64 (below 2**63) and stay exact.
        rng = np.random.default_rng(0)
        sizes = [2**31 - 1] * 3
        codes = rng.integers(0, 2**31 - 1, size=(200, 3), dtype=np.int32)
        codes[100:150] = codes[:50]
        keys = cet.graph._row_keys(codes, sizes)
        assert keys.dtype == np.int64 and (keys >= 0).all()
        rows = [tuple(row) for row in codes.tolist()]
        for i in range(len(rows)):
            for j in range(i):
                assert (keys[i] == keys[j]) == (rows[i] == rows[j])

    def test_benchmark_shapes_pack_in_one_radix(self):
        # Entity table E, relation table R: E * R * E < 2**63 packs directly.
        for entities, relations, types in ((14_951, 1_345, 3_584), (42_334, 37, 45_182)):
            assert entities * relations * entities < 2**63
            assert entities * types < 2**63
