import numpy as np
import pytest

from cet.cli import main
from synth import drop_header_key, hub_marker_corpus


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A small on-disk dataset in the expected TSV layout."""
    base = tmp_path_factory.mktemp("corpus")
    triples, train, valid, test = hub_marker_corpus(n_entities=60, seed=5)
    (base / "train.txt").write_text(
        "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples), encoding="utf-8"
    )
    for name, pairs in (
        ("Entity_Type_train.txt", train),
        ("Entity_Type_valid.txt", valid),
        ("Entity_Type_test.txt", test),
    ):
        (base / name).write_text(
            "".join(f"{e}\t{t}\n" for e, t in pairs), encoding="utf-8"
        )
    return base, triples, train, valid, test


@pytest.fixture(scope="module")
def trained(data_dir, tmp_path_factory):
    base, *_ = data_dir
    out = tmp_path_factory.mktemp("run")
    code = main(
        [
            "train",
            "--data-dir", str(base),
            "--out", str(out),
            "--max-epochs", "30",
            "--eval-every", "10",
            "--dim", "24",
            "--seed", "1",
        ]
    )
    assert code == 0
    return base, out


def parse_block(text):
    out = {}
    for line in text.strip().splitlines():
        if "\t" in line:
            key, value = line.split("\t", 1)
            out[key] = value
    return out


class TestDefaults:
    def test_cli_defaults_mirror_train_config(self):
        import argparse

        from cet.cli import _TRAIN_OPTIONS, _resolve_train_config
        from cet.train import TrainConfig

        ns = argparse.Namespace(config=None, **{name: None for name, _, _ in _TRAIN_OPTIONS})
        assert _resolve_train_config(ns) == TrainConfig()


class TestInspect:
    def test_file_override_flags(self, data_dir, tmp_path, capsys):
        base, *_ = data_dir
        alt = tmp_path / "alt_triples.txt"
        alt.write_text("e0\tr0\th0\n", encoding="utf-8")
        code = main(
            ["inspect", "--data-dir", str(base), "--triples-file", str(alt)]
        )
        assert code == 0
        block = parse_block(capsys.readouterr().out)
        assert int(block["train_triples"]) == 1

    def test_counts_match_corpus(self, data_dir, capsys):
        base, triples, train, valid, test = data_dir
        assert main(["inspect", "--data-dir", str(base)]) == 0
        block = parse_block(capsys.readouterr().out)
        entities = {h for h, _, t in triples} | {t for _, _, t in triples}
        entities |= {e for e, _ in train}
        assert int(block["entities"]) == len(entities)
        assert int(block["relations"]) == len({r for _, r, _ in triples})
        assert int(block["types"]) == len({t for _, t in train})
        assert int(block["train_triples"]) == len(set(triples))
        assert int(block["train_tuples"]) == len(set(train))
        assert int(block["valid"]) == len(valid)
        assert int(block["test"]) == len(test)

    def test_missing_directory_is_data_error(self, tmp_path, capsys):
        assert main(["inspect", "--data-dir", str(tmp_path / "none")]) == 2


class TestTrain:
    def test_zero_epochs_writes_initialized_checkpoint(self, data_dir, tmp_path, capsys):
        base, *_ = data_dir
        out = tmp_path / "init_run"
        code = main(
            ["train", "--data-dir", str(base), "--out", str(out), "--max-epochs", "0"]
        )
        assert code == 0
        assert (out / "checkpoint.cet").exists()
        assert (out / "train.log").read_text() == ""
        from cet import load_checkpoint

        params, vocab, config = load_checkpoint(out / "checkpoint.cet")
        assert config["max_epochs"] == 0
        assert params.k == config["dim"]

    def test_training_writes_log_and_checkpoint(self, trained, capsys):
        _, out = trained
        log = (out / "train.log").read_text()
        lines = log.strip().split("\n")
        assert len(lines) == 30
        epoch, loss, mrr = lines[9].split("\t")
        assert epoch == "10" and float(loss) > 0 and 0 < float(mrr) <= 1
        assert lines[0].endswith("\t")  # no validation on epoch 1

    def test_config_file_and_flag_precedence(self, data_dir, tmp_path, capsys):
        base, *_ = data_dir
        config = tmp_path / "run.conf"
        config.write_text("max-epochs=0\ndim=9\nseed=7\n", encoding="utf-8")
        out = tmp_path / "conf_run"
        code = main(
            [
                "train",
                "--data-dir", str(base),
                "--out", str(out),
                "--config", str(config),
                "--dim", "11",
            ]
        )
        assert code == 0
        from cet import load_checkpoint

        _, _, echoed = load_checkpoint(out / "checkpoint.cet")
        assert echoed["dim"] == 11  # flag wins
        assert echoed["seed"] == 7  # file fills the gap
        assert echoed["max_epochs"] == 0

    def test_unknown_config_key_is_usage_error(self, data_dir, tmp_path, capsys):
        base, *_ = data_dir
        config = tmp_path / "bad.conf"
        config.write_text("episodes=3\n", encoding="utf-8")
        code = main(
            [
                "train",
                "--data-dir", str(base),
                "--out", str(tmp_path / "x"),
                "--config", str(config),
            ]
        )
        assert code == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["train", "--out", "/tmp/x"]) == 1


class TestEval:
    def test_metrics_block_and_rank_dump(self, trained, tmp_path, capsys):
        base, out = trained
        dump = tmp_path / "ranks.tsv"
        code = main(
            [
                "eval",
                "--data-dir", str(base),
                "--checkpoint", str(out / "checkpoint.cet"),
                "--split", "test",
                "--rank-dump", str(dump),
            ]
        )
        assert code == 0
        block = parse_block(capsys.readouterr().out)
        assert block["split"] == "test"
        mrr = float(block["mrr"])
        assert 0 < mrr <= 1
        lines = dump.read_text().strip().split("\n")
        assert len(lines) == int(block["samples"])
        ranks = np.array([float(line.split("\t")[2]) for line in lines])
        assert (1.0 / ranks).mean() == pytest.approx(mrr, abs=1e-6)

    def test_unfiltered_flag_accepted(self, trained, capsys):
        base, out = trained
        code = main(
            [
                "eval",
                "--data-dir", str(base),
                "--checkpoint", str(out / "checkpoint.cet"),
                "--split", "valid",
                "--unfiltered",
            ]
        )
        assert code == 0

    def test_vocab_mismatch_is_data_error(self, trained, tmp_path, capsys):
        _, out = trained
        other = tmp_path / "other"
        other.mkdir()
        (other / "train.txt").write_text("x\tr\ty\n", encoding="utf-8")
        (other / "Entity_Type_train.txt").write_text("x\tt\n", encoding="utf-8")
        (other / "Entity_Type_valid.txt").write_text("y\tt\n", encoding="utf-8")
        (other / "Entity_Type_test.txt").write_text("y\tt\n", encoding="utf-8")
        code = main(
            [
                "eval",
                "--data-dir", str(other),
                "--checkpoint", str(out / "checkpoint.cet"),
            ]
        )
        assert code == 2

    def test_corrupt_checkpoint_is_checksum_error(self, trained, tmp_path, capsys):
        base, out = trained
        raw = bytearray((out / "checkpoint.cet").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        bad = tmp_path / "bad.cet"
        bad.write_bytes(bytes(raw))
        code = main(
            ["eval", "--data-dir", str(base), "--checkpoint", str(bad)]
        )
        assert code == 4

    def test_resigned_header_without_a_key_is_checksum_error(self, trained, tmp_path, capsys):
        base, out = trained
        bad = tmp_path / "bad.cet"
        bad.write_bytes((out / "checkpoint.cet").read_bytes())
        drop_header_key(bad, ("separate_heads",))
        code = main(["eval", "--data-dir", str(base), "--checkpoint", str(bad)])
        assert code == 4

    def test_non_finite_metric_is_numeric_error(self, trained, tmp_path, capsys):
        from cet.checkpoint import load_checkpoint, save_checkpoint

        base, out = trained
        params, vocab, config = load_checkpoint(out / "checkpoint.cet")
        params.W[:] = np.nan
        diverged = tmp_path / "diverged.cet"
        save_checkpoint(diverged, params, vocab, config)
        code = main(
            ["eval", "--data-dir", str(base), "--checkpoint", str(diverged)]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "mrr" not in captured.out
        assert "non-finite" in captured.err


class TestExplainCommand:
    def test_report_shape(self, trained, tmp_path, capsys):
        base, out = trained
        tsv = tmp_path / "expl.tsv"
        code = main(
            [
                "explain",
                "--data-dir", str(base),
                "--checkpoint", str(out / "checkpoint.cet"),
                "--entity", "e0",
                "--type", "t0",
                "--top-k", "3",
                "--tsv", str(tsv),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("entity\te0")
        assert "rank\tsource\tscore\tweight" in text
        assert tsv.exists()
        assert len(tsv.read_text().strip().split("\n")) <= 3

    def test_unknown_entity_is_data_error(self, trained, capsys):
        base, out = trained
        code = main(
            [
                "explain",
                "--data-dir", str(base),
                "--checkpoint", str(out / "checkpoint.cet"),
                "--entity", "nobody",
                "--type", "t0",
            ]
        )
        assert code == 2


class TestGradcheckCommand:
    def test_small_sweep_passes(self, capsys):
        assert main(["gradcheck", "--instances", "8"]) == 0
        block = parse_block(capsys.readouterr().out)
        assert float(block["max_rel_err"]) < 1e-4
        assert block["result"] == "PASS"

    def test_impossible_tolerance_fails_numerically(self, capsys):
        assert main(["gradcheck", "--instances", "4", "--tol", "1e-18"]) == 3
