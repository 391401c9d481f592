import numpy as np
import pytest

from cet.cli import main
from synth import drop_header_key, hub_marker_corpus, tiny_corpus


def write_corpus(base, corpus):
    """Write (triples, train, valid, test) under ``base`` in the expected TSV layout."""
    triples, train, valid, test = corpus
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


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A small on-disk dataset in the expected TSV layout."""
    base = tmp_path_factory.mktemp("corpus")
    corpus = hub_marker_corpus(n_entities=60, seed=5)
    write_corpus(base, corpus)
    return base, *corpus


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


# Every TrainConfig field: (its flag, its config-file line, the non-default
# value both give, a config-file line giving another value). Literal, so a
# wrong entry in the CLI's rename and negation table fails.
OPTION_CASES = {
    "dim": (["--dim", "7"], "dim=7", 7, "dim=9"),
    "alpha": (["--alpha", "0.25"], "alpha=0.25", 0.25, "alpha=2"),
    "beta": (["--beta", "2.5"], "beta=2.5", 2.5, "beta=1"),
    "lr": (["--lr", "0.01"], "lr=0.01", 0.01, "lr=0.5"),
    "batch_size": (["--batch-size", "16"], "batch-size=16", 16, "batch_size=3"),
    "sample_size": (["--sample-size", "3"], "sample_size=3", 3, "sample-size=5"),
    "max_epochs": (["--max-epochs", "0"], "max-epochs=0", 0, "max_epochs=4"),
    "eval_every": (["--eval-every", "2"], "eval_every=2", 2, "eval-every=6"),
    "loss_kind": (["--loss", "bce"], "loss=bce", "bce", "loss=fna"),
    "use_agg2t": (["--no-agg2t"], "no_agg2t=true", False, "no-agg2t=no"),
    "use_tan": (["--no-tan"], "no-tan=yes", False, "no_tan=0"),
    "mask_mode": (["--mask-mode"], "mask_mode=1", True, "mask-mode=off"),
    "use_activation": (["--no-activation"], "no_activation=on", False, "no_activation=false"),
    "separate_heads": (["--separate-heads"], "separate-heads=TRUE", True, "separate_heads=0"),
    "seed": (["--seed", "9"], "seed=9", 9, "seed=4"),
}


def resolve_train(argv, tmp_path, config_lines=()):
    """The TrainConfig that cet train would run with, without training."""
    from cet.cli import _resolve_train_config, build_parser

    if config_lines:
        config = tmp_path / "run.conf"
        config.write_text("".join(f"{line}\n" for line in config_lines), encoding="utf-8")
        argv = [*argv, "--config", str(config)]
    args = build_parser().parse_args(["train", "--data-dir", "d", "--out", "o", *argv])
    return _resolve_train_config(args)


class TestDefaults:
    def test_every_train_config_field_has_a_case(self):
        from dataclasses import fields

        from cet.train import TrainConfig

        assert sorted(OPTION_CASES) == sorted(f.name for f in fields(TrainConfig))

    @pytest.mark.parametrize("field", sorted(OPTION_CASES))
    def test_train_option_resolves_from_flag_and_file(self, field, tmp_path):
        from dataclasses import replace

        from cet.train import TrainConfig

        flag, line, value, other_line = OPTION_CASES[field]
        assert getattr(TrainConfig(), field) != value
        expected = replace(TrainConfig(), **{field: value})
        assert resolve_train([], tmp_path) == TrainConfig()
        assert resolve_train(flag, tmp_path) == expected
        assert resolve_train([], tmp_path, [line]) == expected
        assert resolve_train(flag, tmp_path, [other_line]) == expected
        assert resolve_train([], tmp_path, [other_line]) != expected


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

    def test_repeated_rows(self, tmp_path, capsys):
        # train_triples counts the rows read, repeats included; train_tuples,
        # valid and test count the pairs kept after dropping repeats.
        triples = [("a", "r", "b"), ("a", "r", "b"), ("b", "s", "c"), ("a", "r", "b"), ("c", "s", "a")]
        train = [("a", "t1"), ("a", "t1"), ("b", "t2"), ("c", "t1"), ("b", "t2")]
        valid = [("c", "t2"), ("c", "t2"), ("ghost", "t1"), ("a", "t1"), ("b", "t9")]
        test = [("a", "t2"), ("a", "t2"), ("c", "t2")]
        write_corpus(tmp_path, (triples, train, valid, test))
        assert main(["inspect", "--data-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "entities\t3",
            "relations\t2",
            "types\t2",
            "train_triples\t5",
            "train_tuples\t3",
            "valid\t1",
            "test\t1",
        ]


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

    @pytest.mark.parametrize("mode", [[], ["--mask-mode"]])
    def test_seeded_run_is_byte_identical_at_any_thread_count(
        self, data_dir, tmp_path, monkeypatch, capsys, mode
    ):
        import cet.kernel

        base, *_ = data_dir
        # One type per block: every kernel call, training or validation, has
        # as many blocks as types, so each lane holds several and the worker
        # thread takes its share.
        monkeypatch.setattr(cet.kernel, "_CELLS", 1)
        runs = []
        for threads in (1, 2):
            monkeypatch.setattr(cet.kernel, "_THREADS", threads)
            out = tmp_path / f"threads{threads}"
            argv = [
                "train", "--data-dir", str(base), "--out", str(out), "--max-epochs", "4",
                "--eval-every", "2", "--dim", "8", "--seed", "3", *mode,
            ]
            assert main(argv) == 0
            runs.append([(out / name).read_bytes() for name in ("checkpoint.cet", "train.log")])
        assert runs[0] == runs[1]

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

    @pytest.mark.parametrize(
        "flags, config_line",
        [
            (["--dim", "0"], None),
            (["--batch-size", "0"], None),
            (["--max-epochs", "-1"], None),
            ([], "dim=abc"),
            ([], "loss=xyz"),
            ([], "no_agg2t=maybe"),
            *(
                case
                for name in ("alpha", "beta", "lr")
                for value in ("nan", "inf")
                for case in ((["--" + name, value], None), ([], f"{name}={value}"))
            ),
        ],
    )
    def test_invalid_option_value_is_usage_error(
        self, data_dir, tmp_path, capsys, flags, config_line
    ):
        base, *_ = data_dir
        argv = ["train", "--data-dir", str(base), "--out", str(tmp_path / "x"), *flags]
        if config_line is not None:
            config = tmp_path / "bad.conf"
            config.write_text(config_line + "\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x").exists()


class TestEval:
    def test_metrics_block_and_rank_dump(self, data_dir, trained, tmp_path, capsys):
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
        # Entities are scored in degree buckets, but ranks are dumped in the
        # split's pair order.
        *_, test = data_dir
        assert [tuple(line.split("\t")[:2]) for line in lines] == test

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
        for value in (np.nan, np.inf, -np.inf):
            params, vocab, config = load_checkpoint(out / "checkpoint.cet")
            params.W[:] = value
            diverged = tmp_path / "diverged.cet"
            save_checkpoint(diverged, params, vocab, config)
            # A diverged model makes NaN on purpose; its warnings are expected.
            with np.errstate(invalid="ignore"):
                code = main(["eval", "--data-dir", str(base), "--checkpoint", str(diverged)])
            assert code == 3, value
            captured = capsys.readouterr()
            assert "mrr" not in captured.out
            assert "non-finite" in captured.err


    def test_one_poisoned_neighbor_is_numeric_error(self, trained, tmp_path, capsys):
        # NaN in one hub's embedding makes NaN the rows of the entities next
        # to it, inside buckets they share with finite entities: MRR is NaN,
        # so exit 3.
        from cet.checkpoint import load_checkpoint, save_checkpoint

        base, out = trained
        params, vocab, config = load_checkpoint(out / "checkpoint.cet")
        params.entity_emb[vocab.entity_ids["h0"]] = np.nan
        diverged = tmp_path / "diverged.cet"
        save_checkpoint(diverged, params, vocab, config)
        with np.errstate(invalid="ignore"):
            code = main(["eval", "--data-dir", str(base), "--checkpoint", str(diverged)])
        assert code == 3
        captured = capsys.readouterr()
        assert "mrr" not in captured.out and "non-finite" in captured.err

    @pytest.mark.parametrize("alpha", ["-0.5", "0", "nan", "inf"])
    def test_non_positive_alpha_is_usage_error(self, trained, capsys, alpha):
        base, out = trained
        code = main(
            [
                "eval",
                "--data-dir", str(base),
                "--checkpoint", str(out / "checkpoint.cet"),
                f"--alpha={alpha}",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "mrr" not in captured.out


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


    @pytest.mark.parametrize("alpha", ["-0.5", "0", "nan", "inf"])
    def test_non_positive_alpha_is_usage_error(self, trained, capsys, alpha):
        base, out = trained
        code = main(
            [
                "explain",
                "--data-dir", str(base),
                "--checkpoint", str(out / "checkpoint.cet"),
                "--entity", "e0",
                "--type", "t0",
                f"--alpha={alpha}",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""


    def test_all_minus_inf_column_is_numeric_error(self, tmp_path, capsys):
        # Every representation is positive in coordinate 0, so W[t, 0] = -inf
        # makes every candidate of column t -inf: a diverged model, which
        # exits 3 as ``cet eval`` does, not a data error.
        from cet.checkpoint import load_checkpoint, save_checkpoint

        write_corpus(tmp_path, tiny_corpus())
        args = ["--data-dir", str(tmp_path), "--checkpoint", str(tmp_path / "checkpoint.cet")]
        assert main(["train", "--data-dir", str(tmp_path), "--out", str(tmp_path),
                     "--max-epochs", "0", "--dim", "4"]) == 0
        params, vocab, config = load_checkpoint(tmp_path / "checkpoint.cet")
        params.relation_emb[:, 0] = 0.0
        params.entity_emb[:, 0] = params.type_emb[:, 0] = 1.0
        params.W[vocab.type_ids["t1"], 0] = -np.inf
        save_checkpoint(tmp_path / "checkpoint.cet", params, vocab, config)
        capsys.readouterr()
        assert main(["explain", *args, "--entity", "a", "--type", "t1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite pooled score" in captured.err
        assert main(["explain", *args, "--entity", "a", "--type", "t2"]) == 0


class TestGradcheckCommand:
    def test_small_sweep_passes(self, capsys):
        assert main(["gradcheck", "--instances", "8"]) == 0
        block = parse_block(capsys.readouterr().out)
        assert float(block["max_rel_err"]) < 1e-4
        assert block["result"] == "PASS"

    def test_impossible_tolerance_fails_numerically(self, capsys):
        assert main(["gradcheck", "--instances", "4", "--tol", "1e-18"]) == 3

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--instances", "0"), ("--instances", "-3"), ("--instances", "2.5"),
            ("--step", "0"), ("--step", "-1e-5"), ("--step", "nan"), ("--step", "inf"),
            ("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"),
        ],
    )
    def test_invalid_option_value_is_usage_error(self, capsys, option, value):
        assert main(["gradcheck", "--instances", "4", f"{option}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and option in captured.err
