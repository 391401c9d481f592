"""Command-line interface: train, eval, explain, gradcheck, inspect.

Every cet train flag may also be given as a key=value line of a --config
file (--batch-size as batch_size or batch-size); flags win over the file.

Exit codes: 0 ok, 1 usage error (including an invalid option value, from a
flag or from a config-file line), 2 data error, 3 numeric failure,
4 checkpoint checksum failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys
import typing
from pathlib import Path

from . import __version__
from .checkpoint import ChecksumError, load_checkpoint, save_checkpoint
from .data import ParseError, assemble, default_paths, load_pairs, load_triples
from .ranking import evaluate
from .explain import explain, explanation_tsv, format_explanation
from .gradcheck import run_gradient_check
from .graph import EmptyCorpusError, UnknownNameError, build_graph
from .loss import LOSS_KINDS
from .optim import NumericError
from .train import TrainConfig, fit, format_log

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_CHECKSUM = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


# TrainConfig's fields declare the training options: each field is one flag
# and one config-file key, with the field's type and default. These four are
# spelled unlike their field: field -> (option, negated), where a negated
# option is a boolean flag that clears its field.
_RENAMED = {
    "loss_kind": ("loss", False),
    "use_agg2t": ("no_agg2t", True),
    "use_tan": ("no_tan", True),
    "use_activation": ("no_activation", True),
}


def _train_options():
    """Yield (option, field, field type, negated) for every TrainConfig field."""
    kinds = typing.get_type_hints(TrainConfig)
    for field in dataclasses.fields(TrainConfig):
        option, negated = _RENAMED.get(field.name, (field.name, False))
        yield option, field.name, kinds[field.name], negated


def _add_train_options(parser: argparse.ArgumentParser) -> None:
    """One flag per training option; None marks a flag that was not given."""
    for option, name, kind, _ in _train_options():
        flag = "--" + option.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, action="store_const", const=True)
        else:
            choices = LOSS_KINDS if name == "loss_kind" else None
            parser.add_argument(flag, type=kind, choices=choices)


_BOOLEANS = dict.fromkeys(("1", "true", "yes", "on"), True)
_BOOLEANS.update(dict.fromkeys(("0", "false", "no", "off"), False))


def _from_text(option: str, kind: type, text: str):
    """A config-file value as its field's type."""
    try:
        return _BOOLEANS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise UsageError(f"config key {option}: cannot parse {text!r} as {kind.__name__}") from None


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve_train_config(args: argparse.Namespace) -> TrainConfig:
    """Flags win over config-file values, which win over TrainConfig's defaults."""
    file_values = _read_config_file(args.config) if args.config else {}
    options = list(_train_options())
    unknown = set(file_values) - {option for option, *_ in options}
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")

    values = {}
    for option, name, kind, negated in options:
        value = getattr(args, option)
        if value is None and option in file_values:
            value = _from_text(option, kind, file_values[option])
        if value is not None:
            values[name] = not value if negated else value
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def positive_float(text: str) -> float:
    """A positive, finite float: the ``--alpha`` pooling temperature of eval and
    explain, and gradcheck's ``--step`` and ``--tol``."""
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data-dir", required=True, help="dataset directory")
    parser.add_argument("--triples-file", help="override <data-dir>/train.txt")
    parser.add_argument("--train-file", help="override <data-dir>/Entity_Type_train.txt")
    parser.add_argument("--valid-file", help="override <data-dir>/Entity_Type_valid.txt")
    parser.add_argument("--test-file", help="override <data-dir>/Entity_Type_test.txt")


def _load_corpus(args: argparse.Namespace):
    paths = default_paths(args.data_dir)
    triples = load_triples(args.triples_file or paths["triples"])
    train = load_pairs(args.train_file or paths["train"])
    valid = load_pairs(args.valid_file or paths["valid"])
    test = load_pairs(args.test_file or paths["test"])
    return triples, train, valid, test


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_train_config(args)
    triples, train, valid, test = _load_corpus(args)
    vocab, dataset = assemble(triples, train, valid, test)
    graph = build_graph(vocab, triples, train, include_type_edges=config.use_tan)
    out_dir = Path(args.out)  # made before training, so that a bad path fails at once
    out_dir.mkdir(parents=True, exist_ok=True)

    result = fit(vocab, graph, dataset, config)

    checkpoint_path = out_dir / "checkpoint.cet"
    save_checkpoint(checkpoint_path, result.params, vocab, config.to_dict())
    (out_dir / "train.log").write_text(format_log(result.log), encoding="utf-8")

    if result.best_epoch is not None:
        print(f"best_epoch\t{result.best_epoch}")
        print(f"best_valid_mrr\t{result.best_valid_mrr:.6f}")
    print(f"checkpoint\t{checkpoint_path}")
    return EXIT_OK


def _load_model_and_data(args: argparse.Namespace):
    params, vocab, config = load_checkpoint(args.checkpoint)
    triples, train, valid, test = _load_corpus(args)
    data_vocab, dataset = assemble(triples, train, valid, test)
    if data_vocab != vocab:
        raise ValueError(
            "checkpoint vocabulary does not match the data directory; "
            "was the model trained on these files?"
        )
    use_tan = bool(config.get("use_tan", True))
    graph = build_graph(vocab, triples, train, include_type_edges=use_tan)
    return params, vocab, config, dataset, graph


def cmd_eval(args: argparse.Namespace) -> int:
    params, vocab, config, dataset, graph = _load_model_and_data(args)
    alpha = args.alpha if args.alpha is not None else float(config.get("alpha", 0.5))
    report = evaluate(
        params,
        graph,
        dataset,
        args.split,
        alpha,
        use_agg2t=bool(config.get("use_agg2t", True)),
        use_activation=bool(config.get("use_activation", True)),
        filtered=not args.unfiltered,
    )
    if not (math.isfinite(report.mr) and math.isfinite(report.mrr)):
        raise NumericError(f"non-finite {args.split} metrics: MR {report.mr}, MRR {report.mrr}")
    print(f"split\t{args.split}")
    print(f"samples\t{len(report.ranks)}")
    for line in report.lines():
        print(line)
    if args.rank_dump:
        with open(args.rank_dump, "w", encoding="utf-8") as handle:
            for entity, type_id, rank in report.ranks:
                handle.write(
                    f"{vocab.entity_names[entity]}\t{vocab.type_names[type_id]}\t{rank:g}\n"
                )
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    params, vocab, config, _, graph = _load_model_and_data(args)
    alpha = args.alpha if args.alpha is not None else float(config.get("alpha", 0.5))
    result = explain(
        params,
        graph,
        vocab,
        args.entity,
        args.type,
        alpha,
        top_k=args.top_k,
        use_agg2t=bool(config.get("use_agg2t", True)),
        use_activation=bool(config.get("use_activation", True)),
    )
    if not math.isfinite(result.pooled_score):
        raise NumericError(
            f"non-finite pooled score {result.pooled_score} for ({args.entity}, {args.type})"
        )
    print(format_explanation(result), end="")
    if args.tsv:
        Path(args.tsv).write_text(explanation_tsv(result), encoding="utf-8")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    report = run_gradient_check(
        instances=args.instances, step=args.step, tolerance=args.tol, seed=args.seed
    )
    print(f"instances\t{len(report.cases)}")
    print(f"max_rel_err\t{report.max_rel_err:.3e}")
    print(f"tolerance\t{report.tolerance:.3e}")
    if not report.passed:
        worst = report.worst_case()
        print(f"worst_case\t{worst}")
        return EXIT_NUMERIC
    print("result\tPASS")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    triples, train, valid, test = _load_corpus(args)
    vocab, dataset = assemble(triples, train, valid, test)
    print(f"entities\t{vocab.num_entities}")
    print(f"relations\t{vocab.num_relations - 1}")  # has_type excluded
    print(f"types\t{vocab.num_types}")
    print(f"train_triples\t{len(triples)}")
    print(f"train_tuples\t{len(dataset.train)}")
    print(f"valid\t{len(dataset.valid)}")
    print(f"test\t{len(dataset.test)}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="cet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cet {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and save the best checkpoint")
    _add_data_args(p_train)
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--config", help="key=value config file; flags win")
    _add_train_options(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="filtered ranking metrics for a split")
    _add_data_args(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=("valid", "test"), default="test")
    p_eval.add_argument("--alpha", type=positive_float, help="override checkpoint alpha")
    p_eval.add_argument("--rank-dump", help="write entity<TAB>type<TAB>rank TSV")
    p_eval.add_argument("--unfiltered", action="store_true", help="debug: skip filtering")
    p_eval.set_defaults(func=cmd_eval)

    p_explain = sub.add_parser("explain", help="rank information sources for one query")
    _add_data_args(p_explain)
    p_explain.add_argument("--checkpoint", required=True)
    p_explain.add_argument("--entity", required=True)
    p_explain.add_argument("--type", required=True)
    p_explain.add_argument("--top-k", type=positive_int, default=3, dest="top_k")
    p_explain.add_argument("--alpha", type=positive_float, help="override checkpoint alpha")
    p_explain.add_argument("--tsv", help="write rank<TAB>source<TAB>score<TAB>weight TSV")
    p_explain.set_defaults(func=cmd_explain)

    p_grad = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p_grad.add_argument("--instances", type=positive_int, default=104)
    p_grad.add_argument("--step", type=positive_float, default=1e-5)
    p_grad.add_argument("--tol", type=positive_float, default=1e-4)
    p_grad.add_argument("--seed", type=non_negative_int, default=0)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_inspect = sub.add_parser("inspect", help="dataset statistics after assembly")
    _add_data_args(p_inspect)
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ChecksumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKSUM
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (
        ParseError,
        EmptyCorpusError,
        UnknownNameError,
        FileNotFoundError,
        FileExistsError,
        IsADirectoryError,
        NotADirectoryError,
        PermissionError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
