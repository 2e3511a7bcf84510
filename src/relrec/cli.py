"""Command-line interface.

Subcommands: train, evaluate, rationalize, synth.  A JSON config file
(--config) may supply any long-flag value under its underscore name;
explicit command-line flags override file values, and unknown keys are
rejected.  The RELREC_LOG environment variable (error, info, debug)
controls diagnostic verbosity on standard error.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric
divergence during training.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .evaluation import (
    SPLIT_RATIOS,
    check_rule_file,
    f1_score,
    generate_synthetic,
    load_pairs_tsv,
    save_pairs_tsv,
    split_dataset,
    write_synthetic_dataset,
)
from .graph import (
    DataError,
    UnknownTermError,
    _tsv_rows,
    compute_ppmi,
    load_cooc_graph,
)
from .params import CheckpointError, load_checkpoint, save_checkpoint
# `prediction_forward` is not called here; perfbench/layers.py lists it
# under this module in TRACED_CALLS.
from .rationale import prediction_forward, rationalize_pair  # noqa: F401
from .relational import RelationSchema, TripleSet, load_triples_tsv
from .training import (
    TrainConfig,
    TrainingDivergedError,
    joint_train,
    predict_probabilities,
    write_training_log,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

DEFAULT_THRESHOLD = 0.5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _setup_logging() -> None:
    level_name = os.environ.get("RELREC_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise UsageError(
            f"RELREC_LOG must be one of {sorted(levels)}, got {level_name!r}"
        )
    logging.basicConfig(
        level=levels[level_name],
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """File values override defaults; explicit flags override the file."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except FileNotFoundError:
            raise DataError(f"config file not found: {config_path}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {config_path}: invalid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config file {config_path} must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise UsageError(
                f"config file {config_path}: unknown key(s): {', '.join(unknown)}"
            )
        for key, value in file_cfg.items():
            kind = args.option_types.get(key, str)
            if not _matches_type(value, kind):
                raise UsageError(
                    f"config file {config_path}: {key} must be a {kind.__name__}, "
                    f"got {value!r}"
                )
        merged.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _matches_type(value, kind: type) -> bool:
    """Whether a config-file value is one its flag's argparse `type` could
    have produced.  JSON integers pass as floats; a bool is not a number."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _require(merged: dict, *keys: str) -> None:
    missing = [k for k in keys if merged.get(k) is None]
    if missing:
        raise UsageError(
            "missing required option(s): " + ", ".join(f"--{k.replace('_', '-')}" for k in missing)
        )


def _relation_names_in_tsv(path: str) -> tuple[str, ...]:
    """Relation names of a triple file in order of first appearance."""
    names = tuple(dict.fromkeys(fields[1] for _, fields in _tsv_rows(path, 3)))
    if not names:
        raise DataError(f"{path}: no relation triples found")
    return names


def _relation_index(schema: RelationSchema, name: str) -> int:
    try:
        return schema.index_of(name)
    except KeyError as exc:
        raise DataError(exc.args[0]) from None


def _parse_ratios(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"ratios must be three comma-separated numbers: {text!r}")
    if len(parts) != 3:
        raise UsageError(f"ratios must be three comma-separated numbers: {text!r}")
    return parts  # validity is checked by split_dataset


def _set_fields(cfg: dict, fields: dict[str, str]) -> dict:
    """The values a flag or the config file set, keyed by the field name
    that `fields` maps each option name to; unset options are left out,
    so the callee's own defaults apply."""
    return {name: cfg[key] for key, name in fields.items() if cfg[key] is not None}


# `relrec train` option -> TrainConfig field.
TRAIN_FIELDS = {
    "dim": "d", "n_neg": "n_neg", "n_assoc": "n_assoc", "lr": "lr", "b1": "b1",
    "b2": "b2", "b3": "b3", "epochs": "max_epochs", "patience": "patience",
    "seed": "seed",
}
TRAIN_DEFAULTS = dict.fromkeys(
    ("graph", "triples", "pairs", "out", "log", "splits_out", "relation", "ratios",
     *TRAIN_FIELDS)
)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, TRAIN_DEFAULTS)
    _require(cfg, "graph", "triples", "pairs", "out")
    try:
        train_config = TrainConfig(**_set_fields(cfg, TRAIN_FIELDS))
    except ValueError as exc:
        raise UsageError(f"invalid training option: {exc}") from None
    ratios = SPLIT_RATIOS if cfg["ratios"] is None else _parse_ratios(cfg["ratios"])
    # Outputs are written after training; a missing directory is found now.
    for key in ("out", "log"):
        folder = os.path.dirname(cfg[key] or "") or "."
        if not os.path.isdir(folder):
            raise DataError(f"--{key}: directory {folder!r} does not exist")
    graph = load_cooc_graph(cfg["graph"])
    ppmi = compute_ppmi(graph)
    schema = RelationSchema(names=_relation_names_in_tsv(cfg["triples"]))
    triples = load_triples_tsv(cfg["triples"], graph.vocab, schema)
    all_pairs = load_pairs_tsv(cfg["pairs"], graph.vocab, schema)

    if cfg["relation"] is not None:
        target = _relation_index(schema, cfg["relation"])
    else:
        relations = sorted({p.relation for p in all_pairs})
        if len(relations) != 1:
            raise DataError(
                "pairs file holds multiple relations "
                f"({', '.join(schema.names[r] for r in relations)}); "
                "choose one with --relation"
            )
        target = relations[0]
    pairs = [p for p in all_pairs if p.relation == target]
    if not pairs:
        raise DataError(f"no labeled pairs for relation {schema.names[target]!r}")

    train_pairs, dev_pairs, test_pairs = split_dataset(
        pairs, ratios=ratios, seed=train_config.seed
    )

    # Only training-split positives may seed the relational stage for the
    # target relation; dev/test positives are held out of the triple set.
    held_out = {
        (p.head, target, p.tail) for p in dev_pairs + test_pairs if p.label == 1
    }
    kept_triples = [t for t in triples.triples if t not in held_out]
    train_triples = TripleSet(triples=kept_triples)

    result = joint_train(
        graph, ppmi, train_triples, train_pairs, dev_pairs, train_config, schema
    )

    checkpoint_config = {
        "train": train_config.to_dict(),
        "relations": list(schema.names),
        "target_relation": schema.names[target],
        "ratios": list(ratios),
        "threshold": DEFAULT_THRESHOLD,
        "best_epoch": result.best_epoch,
        "best_dev_f1": result.best_dev_f1,
    }
    save_checkpoint(
        cfg["out"], result.params, graph.vocab, checkpoint_config, state=result.state
    )
    log_path = cfg["log"] or cfg["out"] + ".log.csv"
    write_training_log(result.log, log_path)
    if cfg["splits_out"]:
        os.makedirs(cfg["splits_out"], exist_ok=True)
        for name, subset in (
            ("train", train_pairs),
            ("dev", dev_pairs),
            ("test", test_pairs),
        ):
            save_pairs_tsv(
                subset,
                graph.vocab,
                schema,
                os.path.join(cfg["splits_out"], f"{name}.tsv"),
            )
    print(
        json.dumps(
            {
                "checkpoint": cfg["out"],
                "log": log_path,
                "relation": schema.names[target],
                "epochs_run": result.epochs_run,
                "best_epoch": result.best_epoch,
                "best_dev_f1": result.best_dev_f1,
            }
        )
    )
    return EXIT_OK


EVALUATE_DEFAULTS = {
    "model": None,
    "pairs": None,
    "dump": None,
    "threads": 1,
    "threshold": DEFAULT_THRESHOLD,
}


def _load_model(path: str):
    """A checkpoint and what serving takes from its config: (checkpoint,
    schema, target relation id, n_assoc).  What training used is what
    serving uses.  Serving always has the NA row in the posterior
    normalizer, so a checkpoint whose training config says `include_na`
    is anything but true (it was trained without NA) is refused; absent,
    as in newer checkpoints, means true.  Likewise both sides recall
    n_assoc associations, so older checkpoints whose `n_assoc_head` or
    `n_assoc_tail` differs from n_assoc are refused."""
    checkpoint = load_checkpoint(path)

    def field(table: dict, name: str, kind: type):
        value = table.get(name)
        if not _matches_type(value, kind) or kind is int and value < 1:
            raise CheckpointError(
                f"{path}: checkpoint config field {name!r} is missing or "
                f"invalid: {value!r}"
            )
        return value

    meta = checkpoint.config
    train = field(meta, "train", dict)
    if train.get("include_na", True) is not True:
        raise CheckpointError(
            f"{path}: checkpoint config field 'include_na' is "
            f"{train['include_na']!r}: the model was trained without the NA "
            "row in the posterior normalizer, which relrec does not serve"
        )
    n_assoc = field(train, "n_assoc", int)
    for side in ("n_assoc_head", "n_assoc_tail"):
        if train.get(side, n_assoc) != n_assoc:
            raise CheckpointError(
                f"{path}: checkpoint config field {side!r} is {train[side]!r}, "
                f"not n_assoc ({n_assoc}): relrec serves one association "
                "count on both sides"
            )
    try:
        schema = RelationSchema(names=tuple(field(meta, "relations", list)))
    except (TypeError, ValueError) as exc:  # duplicate, reserved or unhashable
        raise CheckpointError(
            f"{path}: checkpoint config field 'relations': {exc}"
        ) from None
    return (
        checkpoint,
        schema,
        _relation_index(schema, field(meta, "target_relation", str)),
        n_assoc,
    )


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, EVALUATE_DEFAULTS)
    _require(cfg, "model", "pairs")
    if cfg["threads"] < 1:
        raise UsageError(f"--threads must be >= 1, got {cfg['threads']}")
    if not 0.0 <= cfg["threshold"] <= 1.0:  # also refuses nan
        raise UsageError(f"--threshold must be in [0, 1], got {cfg['threshold']}")
    checkpoint, schema, target, n_assoc = _load_model(cfg["model"])
    target_name = schema.names[target]
    pairs = [
        p
        for p in load_pairs_tsv(cfg["pairs"], checkpoint.vocab, schema)
        if p.relation == target
    ]
    if not pairs:
        raise DataError(
            f"no pairs for the model's target relation "
            f"{target_name!r} in {cfg['pairs']}"
        )
    probs = predict_probabilities(
        checkpoint.params, pairs, n_assoc, n_assoc, threads=cfg["threads"]
    )
    labels = np.array([p.label for p in pairs], dtype=np.float64)
    precision, recall, f1 = f1_score(probs, labels, threshold=cfg["threshold"])
    if cfg["dump"]:
        with open(cfg["dump"], "w", encoding="utf-8") as fh:
            for pair, p in zip(pairs, probs):
                fh.write(
                    f"{checkpoint.vocab.term_of(pair.head)}\t"
                    f"{checkpoint.vocab.term_of(pair.tail)}\t"
                    f"{pair.label}\t{float(p)!r}\n"
                )
    print(
        json.dumps(
            {
                "relation": target_name,
                "n_pairs": len(pairs),
                "threshold": cfg["threshold"],
                "precision": precision,
                "recall": recall,
                "f1": f1,
            }
        )
    )
    print(f"{'relation':<20} {'precision':>9} {'recall':>9} {'F1':>9} {'n':>6}")
    print(
        f"{target_name:<20} {precision:>9.3f} {recall:>9.3f} "
        f"{f1:>9.3f} {len(pairs):>6}"
    )
    return EXIT_OK


RATIONALIZE_DEFAULTS = {
    "model": None,
    "head": None,
    "tail": None,
    "topk": 5,
    "mode": "owa",
    "triples": None,
}


def cmd_rationalize(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, RATIONALIZE_DEFAULTS)
    _require(cfg, "model", "head", "tail")
    mode = str(cfg["mode"]).lower()
    if mode not in ("owa", "cwa"):
        raise UsageError(f"--mode must be owa or cwa, got {cfg['mode']!r}")
    if cfg["topk"] < 1:
        raise UsageError(f"--topk must be >= 1, got {cfg['topk']}")
    checkpoint, schema, target, n_assoc = _load_model(cfg["model"])
    head = checkpoint.vocab.id_of(cfg["head"])
    tail = checkpoint.vocab.id_of(cfg["tail"])
    kb = None
    if mode == "cwa":
        if not cfg["triples"]:
            raise UsageError("--mode cwa needs --triples with the kb triple file")
        kb = load_triples_tsv(cfg["triples"], checkpoint.vocab, schema)
    report = rationalize_pair(
        checkpoint.params,
        checkpoint.vocab,
        schema,
        head,
        tail,
        target,
        n_head=n_assoc,
        n_tail=n_assoc,
        top_k=cfg["topk"],
        mode=mode,
        kb=kb,
    )
    print(report.to_json_line())
    print(report.format_table())
    return EXIT_OK


# `relrec synth` option -> generate_synthetic parameter.
SYNTH_FIELDS = {
    "entities": "n_entities", "clusters": "n_clusters", "relations": "n_rel",
    "density": "density", "noise": "noise", "seed": "seed",
}
SYNTH_DEFAULTS = dict.fromkeys(("out", *SYNTH_FIELDS))


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, SYNTH_DEFAULTS)
    _require(cfg, "out")
    world = generate_synthetic(**_set_fields(cfg, SYNTH_FIELDS))
    paths = write_synthetic_dataset(world, cfg["out"])
    mismatches = check_rule_file(cfg["out"])
    if mismatches:
        raise RuntimeError(
            f"internal error: {mismatches} emitted labels disagree with the rule"
        )
    print(json.dumps({"outdir": cfg["out"], **paths}))
    return EXIT_OK


def _option_types(parser: argparse.ArgumentParser) -> dict[str, type]:
    """The type each flag of `parser` parses its value to, keyed by its
    config-file name; flags without a `type` take strings."""
    return {a.dest: a.type or str for a in parser._actions if a.option_strings}


def build_parser() -> _Parser:
    parser = _Parser(prog="relrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override it")

    p_train = sub.add_parser("train", help="train a model for one relation")
    add_common(p_train)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--graph")
    p_train.add_argument("--triples")
    p_train.add_argument("--pairs")
    p_train.add_argument("--out")
    p_train.add_argument("--log")
    p_train.add_argument("--splits-out", dest="splits_out")
    p_train.add_argument("--relation")
    p_train.add_argument("--ratios")
    p_train.add_argument("--dim", type=int, default=None)
    p_train.add_argument("--n-neg", dest="n_neg", type=int, default=None)
    p_train.add_argument("--n-assoc", dest="n_assoc", type=int, default=None)
    p_train.add_argument("--lr", type=float, default=None)
    p_train.add_argument("--b1", type=int, default=None)
    p_train.add_argument("--b2", type=int, default=None)
    p_train.add_argument("--b3", type=int, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--patience", type=int, default=None)
    p_train.set_defaults(func=cmd_train, option_types=_option_types(p_train))

    p_eval = sub.add_parser("evaluate", help="score labeled pairs with a model")
    add_common(p_eval)
    p_eval.add_argument("--threads", type=int, default=None)
    p_eval.add_argument("--model")
    p_eval.add_argument("--pairs")
    p_eval.add_argument("--dump")
    p_eval.add_argument("--threshold", type=float, default=None)
    p_eval.set_defaults(func=cmd_evaluate, option_types=_option_types(p_eval))

    p_rat = sub.add_parser("rationalize", help="explain one pair prediction")
    add_common(p_rat)
    p_rat.add_argument("--model")
    p_rat.add_argument("--head")
    p_rat.add_argument("--tail")
    p_rat.add_argument("--topk", type=int, default=None)
    p_rat.add_argument("--mode", choices=["owa", "cwa"], default=None)
    p_rat.add_argument("--triples")
    p_rat.set_defaults(func=cmd_rationalize, option_types=_option_types(p_rat))

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    add_common(p_synth)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--out")
    p_synth.add_argument("--entities", type=int, default=None)
    p_synth.add_argument("--clusters", type=int, default=None)
    p_synth.add_argument("--relations", type=int, default=None)
    p_synth.add_argument("--density", type=float, default=None)
    p_synth.add_argument("--noise", type=float, default=None)
    p_synth.set_defaults(func=cmd_synth, option_types=_option_types(p_synth))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        _setup_logging()
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, UnknownTermError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
