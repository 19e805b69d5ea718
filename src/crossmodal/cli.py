"""Command-line surface: gen-data, stats, pretrain, finetune, evaluate, dump-attention."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .atomic import atomic_open
from .checkpoint import CheckpointError, load_checkpoint
from .config import RunConfig, load_run_config, save_run_config
from .data import (
    DEFAULT_LABELS,
    CorpusFormatError,
    FeatureStoreError,
    Vocabulary,
    corpus_stats,
    format_stats,
    generate_pairwise_corpus,
    generate_synthetic_corpus,
    load_corpus,
    save_corpus,
    save_pairs,
)
from .train import (
    CORPUS_FILE,
    FEATURES_FILE,
    LABELS_FILE,
    PAIRS_FILE,
    VOCAB_FILE,
    dump_attention,
    evaluate_checkpoint,
    load_data_dir,
    make_initial_checkpoint,
    run_finetune_pairwise,
    run_finetune_qa,
    run_pretraining,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_INTERNAL = 1


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig().validate()
    return load_run_config(path)


def cmd_gen_data(args) -> int:
    cfg = _load_config(args.config)
    model = cfg.model
    labels = tuple(args.labels.split(",")) if args.labels else DEFAULT_LABELS
    records, store = generate_synthetic_corpus(
        seed=args.seed,
        n_images=args.images,
        label_vocab=labels,
        feat_dim=model.feat_dim,
        objects_per_image=model.objects_per_image,
        dev_fraction=args.dev_fraction,
    )
    os.makedirs(args.out, exist_ok=True)
    save_corpus(records, os.path.join(args.out, CORPUS_FILE))
    store.save(os.path.join(args.out, FEATURES_FILE))
    vocab = Vocabulary.from_records([r for r in records if r.split == "train"])
    vocab.save(os.path.join(args.out, VOCAB_FILE))
    with atomic_open(os.path.join(args.out, LABELS_FILE)) as fh:
        json.dump({"labels": list(labels)}, fh)
        fh.write("\n")
    if args.pairs > 0:
        pairs = generate_pairwise_corpus(store, labels, args.pairs, seed=args.seed + 1,
                                         dev_fraction=args.dev_fraction)
        save_pairs(pairs, os.path.join(args.out, PAIRS_FILE))
    save_run_config(cfg, os.path.join(args.out, "config.json"))
    print(format_stats(corpus_stats(records)))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    path = args.corpus or os.path.join(args.data, CORPUS_FILE)
    records = load_corpus(path)
    print(format_stats(corpus_stats(records)))
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _load_config(args.config)
    bundle = load_data_dir(args.data)
    result = run_pretraining(bundle, cfg, seed=args.seed, out_dir=args.out,
                             resume=args.resume, log=print)
    print(f"final checkpoint: {result.final_checkpoint}")
    print(f"metrics: {result.metrics_path}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg = _load_config(args.config)
    if args.lr is not None:
        cfg.finetune.lr = args.lr
    if args.epochs is not None:
        cfg.finetune.epochs = args.epochs
    if args.batch_size is not None:
        cfg.finetune.batch_size = args.batch_size
    if args.reuse_qa_head:
        cfg.finetune.reuse_qa_head = True
    bundle = load_data_dir(args.data)
    if args.from_scratch:
        ckpt = make_initial_checkpoint(cfg, bundle, seed=args.seed)
    else:
        ckpt = load_checkpoint(args.checkpoint)
    if args.task == "qa":
        result = run_finetune_qa(ckpt, bundle, cfg, seed=args.seed, out_dir=args.out, log=print)
    else:
        result = run_finetune_pairwise(ckpt, bundle, cfg, seed=args.seed, out_dir=args.out, log=print)
    print(f"final checkpoint: {result.final_checkpoint}")
    print(f"dev accuracy: {result.dev_accuracy:.4f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    bundle = load_data_dir(args.data)
    ckpt = load_checkpoint(args.checkpoint)
    metrics = evaluate_checkpoint(ckpt, bundle, seed=args.seed)
    # strict JSON: an accuracy with nothing to score is null, not NaN
    text = json.dumps({k: None if math.isnan(v) else v for k, v in metrics.items()},
                      indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(text + "\n")
    return EXIT_OK


def cmd_dump_attention(args) -> int:
    bundle = load_data_dir(args.data)
    ckpt = load_checkpoint(args.checkpoint)
    dump = dump_attention(ckpt, bundle, index=args.index, out_path=args.out)
    print(f"wrote {len(dump['groups'])} attention groups to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="crossmodal",
        description="Train and inspect a cross-modality encoder on synthetic image-sentence data.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="JSON run config (defaults used when omitted)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", required=True, help="output path")

    sp = sub.add_parser("gen-data", help="generate a synthetic corpus and feature store")
    common(sp)
    sp.add_argument("--images", type=int, default=256)
    sp.add_argument("--labels", default=None, help="comma-separated label vocabulary")
    sp.add_argument("--pairs", type=int, default=256, help="pairwise records to generate (0 = none)")
    sp.add_argument("--dev-fraction", type=float, default=0.1)
    sp.set_defaults(fn=cmd_gen_data)

    sp = sub.add_parser("stats", help="corpus statistics table")
    sp.add_argument("--data", default=None, help="gen-data output directory")
    sp.add_argument("--corpus", default=None, help="corpus file (overrides --data)")
    sp.set_defaults(fn=cmd_stats)

    sp = sub.add_parser("pretrain", help="run two-phase pre-training")
    common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--resume", default=None, help="checkpoint to resume from")
    sp.set_defaults(fn=cmd_pretrain)

    sp = sub.add_parser("finetune", help="fine-tune on qa or pairwise")
    common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--task", choices=("qa", "pairwise"), required=True)
    sp.add_argument("--lr", type=float, default=None)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--batch-size", type=int, default=None)
    sp.add_argument("--reuse-qa-head", action="store_true")
    sp.add_argument("--from-scratch", action="store_true",
                    help="fine-tune from random initialization instead of a checkpoint")
    sp.set_defaults(fn=cmd_finetune)

    sp = sub.add_parser("evaluate", help="held-out metrics for a checkpoint")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--data", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("dump-attention", help="write every attention matrix for one pair")
    sp.add_argument("--out", required=True, help="output path")
    sp.add_argument("--data", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--index", type=int, default=0)
    sp.set_defaults(fn=cmd_dump_attention)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "finetune" and not args.from_scratch and args.checkpoint is None:
        print("error[config]: finetune needs --checkpoint or --from-scratch", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "stats" and args.corpus is None and args.data is None:
        print("error[config]: stats needs --data or --corpus", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except CheckpointError as exc:
        print(f"error[checkpoint]: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (FeatureStoreError, CorpusFormatError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover
        print(f"error[internal]: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
