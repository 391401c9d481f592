import numpy as np
import pytest

from cet import ChecksumError, init_params, load_checkpoint, save_checkpoint
from cet.checkpoint import MAGIC
from synth import assembled, drop_header_key, edit_header_key, tiny_corpus


@pytest.fixture
def setup():
    vocab, dataset, graph, *_ = assembled(tiny_corpus())
    params = init_params(vocab, 6, seed=3)
    config = {"alpha": 0.5, "beta": 4.0, "loss_kind": "fna", "use_tan": True}
    return vocab, params, config


class TestRoundTrip:
    def test_params_vocab_config_survive(self, setup, tmp_path):
        vocab, params, config = setup
        path = tmp_path / "model.cet"
        save_checkpoint(path, params, vocab, config)
        loaded_params, loaded_vocab, loaded_config = load_checkpoint(path)
        np.testing.assert_array_equal(loaded_params.entity_emb, params.entity_emb)
        np.testing.assert_array_equal(loaded_params.W, params.W)
        np.testing.assert_array_equal(loaded_params.b, params.b)
        assert loaded_vocab.entity_ids == vocab.entity_ids
        assert loaded_vocab.relation_ids == vocab.relation_ids
        assert loaded_vocab.type_ids == vocab.type_ids
        assert loaded_config == config

    def test_save_load_save_is_byte_identical(self, setup, tmp_path):
        vocab, params, config = setup
        first = tmp_path / "a.cet"
        second = tmp_path / "b.cet"
        save_checkpoint(first, params, vocab, config)
        save_checkpoint(second, *load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    def test_separate_heads_round_trip(self, setup, tmp_path):
        vocab, _, config = setup
        params = init_params(vocab, 6, seed=3, separate_heads=True)
        path = tmp_path / "heads.cet"
        save_checkpoint(path, params, vocab, config)
        loaded, _, _ = load_checkpoint(path)
        assert loaded.separate_heads
        np.testing.assert_array_equal(loaded.agg_W, params.agg_W)

    @pytest.mark.parametrize("separate_heads", [False, True])
    def test_tensors_follow_the_cetk1_order(self, setup, tmp_path, separate_heads):
        # The layout is fixed here by name, apart from ParameterSet's field order.
        vocab, _, config = setup
        params = init_params(vocab, 6, seed=3, separate_heads=separate_heads)
        params.b[:] = 1.5  # biases start at zero; tell them apart
        names = ["entity_emb", "relation_emb", "type_emb", "W", "b"]
        if separate_heads:
            names += ["agg_W", "agg_b"]
            params.agg_b[:] = -2.5
        tensors = b"".join(getattr(params, name).astype("<f4").tobytes() for name in names)
        path = tmp_path / "model.cet"
        save_checkpoint(path, params, vocab, config)
        assert path.read_bytes()[-8 - len(tensors) : -8] == tensors

    def test_float64_params_stored_as_float32(self, setup, tmp_path):
        vocab, params, config = setup
        path = tmp_path / "f64.cet"
        save_checkpoint(path, params.astype(np.float64), vocab, config)
        loaded, _, _ = load_checkpoint(path)
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded.W, params.W)


class TestAtomicSave:
    def test_failed_write_keeps_previous_checkpoint(self, setup, tmp_path, monkeypatch):
        import cet.checkpoint

        vocab, params, config = setup
        path = tmp_path / "model.cet"
        save_checkpoint(path, params, vocab, config)
        before = path.read_bytes()

        def disk_full(payload):
            raise OSError("no space left on device")

        # The header and tensors are written before the checksum is taken,
        # so this fails with a partial file on disk.
        monkeypatch.setattr(cet.checkpoint, "_digest", disk_full)
        changed = params.copy()
        changed.W += 1.0
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, changed, vocab, config)
        monkeypatch.undo()

        assert [p.name for p in tmp_path.iterdir()] == ["model.cet"]
        assert path.read_bytes() == before
        loaded, _, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.W, params.W)

    def test_overwrite_matches_a_fresh_write(self, setup, tmp_path):
        vocab, params, config = setup
        changed = params.copy()
        changed.W += 1.0
        path, fresh = tmp_path / "model.cet", tmp_path / "fresh.cet"
        save_checkpoint(path, params, vocab, config)
        save_checkpoint(path, changed, vocab, config)
        save_checkpoint(fresh, changed, vocab, config)
        assert path.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.cet", "model.cet"]


class TestCorruption:
    def test_flipped_payload_byte_detected(self, setup, tmp_path):
        vocab, params, config = setup
        path = tmp_path / "model.cet"
        save_checkpoint(path, params, vocab, config)
        raw = bytearray(path.read_bytes())
        for offset in (len(MAGIC) + 2, len(raw) // 2, len(raw) - 9):
            corrupted = bytearray(raw)
            corrupted[offset] ^= 0xFF
            path.write_bytes(bytes(corrupted))
            with pytest.raises(ChecksumError):
                load_checkpoint(path)

    def test_truncation_detected(self, setup, tmp_path):
        vocab, params, config = setup
        path = tmp_path / "model.cet"
        save_checkpoint(path, params, vocab, config)
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    def test_wrong_magic_detected(self, setup, tmp_path):
        vocab, params, config = setup
        path = tmp_path / "model.cet"
        save_checkpoint(path, params, vocab, config)
        raw = path.read_bytes()
        path.write_bytes(b"NOPE!" + raw[5:])
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"tiny")
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    def test_valid_checksum_but_garbage_header(self, tmp_path):
        # A crafted file can checksum cleanly yet carry an unusable header;
        # that is still a checkpoint error, not a crash.
        import hashlib
        import struct

        header = b"not json"
        payload = struct.pack("<Q", len(header)) + header
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        path = tmp_path / "crafted.cet"
        path.write_bytes(MAGIC + payload + digest)
        with pytest.raises(ChecksumError, match="header"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "path_in_header", [("separate_heads",), ("config",), ("counts", "entities"),
                           ("counts", "relations"), ("counts", "types")]
    )
    def test_valid_checksum_but_missing_header_key(self, setup, tmp_path, path_in_header):
        # Every header read sits behind the malformed-header check, so a
        # re-signed header without one of its keys is a checkpoint error,
        # not a bare KeyError.
        vocab, params, config = setup
        path = tmp_path / "model.cet"
        save_checkpoint(path, params, vocab, config)
        drop_header_key(path, path_in_header)
        with pytest.raises(ChecksumError, match="header"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "path_in_header, change",
        [
            pytest.param(("k",), float, id="k-float"),
            pytest.param(("k",), str, id="k-string"),
            pytest.param(("k",), lambda _: True, id="k-bool"),
            pytest.param(("counts", "entities"), float, id="entities-float"),
            pytest.param(("counts", "relations"), str, id="relations-string"),
            pytest.param(("counts", "types"), float, id="types-float"),
            pytest.param(("separate_heads",), int, id="separate-heads-int"),
            pytest.param(("separate_heads",), lambda _: None, id="separate-heads-null"),
            pytest.param(("config",), list, id="config-array"),
            pytest.param(("config",), lambda _: "fna", id="config-string"),
        ],
    )
    def test_valid_checksum_but_wrong_header_type(self, setup, tmp_path, path_in_header,
                                                  change):
        # A field of the wrong JSON type is a checkpoint error when it is read,
        # not a TypeError later; 3.0 for 3 would pass an equality check.
        vocab, params, config = setup
        path = tmp_path / "model.cet"
        save_checkpoint(path, params, vocab, config)
        edit_header_key(path, path_in_header, change)
        with pytest.raises(ChecksumError, match="header"):
            load_checkpoint(path)
