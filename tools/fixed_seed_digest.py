"""Fixed-seed digest of the CLI pipeline, for checking that a change keeps outputs byte-identical.

Usage:

    python3 tools/fixed_seed_digest.py [CHECKOUT]

Runs, with CHECKOUT's ``src/`` (default: the checkout this script sits in)
and in a temporary directory: ``gen-data``, a 2-epoch ``pretrain``,
``pretrain --resume`` from its epoch-1 checkpoint and from its final one
(a resume with no steps left), ``evaluate``,
``finetune --task qa`` (with a fresh answer head and with
``--reuse-qa-head``), ``finetune --task pairwise`` (from the pre-trained
checkpoint and ``--from-scratch``) and ``dump-attention``, each as its own
``python -m crossmodal.cli`` process. It then prints one
``sha256  path`` line per file the pipeline wrote, sorted by path. A
``metrics.jsonl`` is hashed without its ``wall_time`` fields, the only
values that differ between identical runs. Two checkouts whose outputs are
byte-identical print the same lines, so ``diff`` compares them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PRETRAIN_CONFIG = {"schedule": {"epochs": 2, "batch_size": 8, "peak_lr": 1e-3}}


def pipeline() -> list[list[str]]:
    """The CLI argument lists, run in order from the working directory."""
    pretrain = ["pretrain", "--data", "data", "--config", "pretrain.json", "--seed", "1"]
    finetune = ["finetune", "--data", "data", "--epochs", "1", "--seed", "2"]
    pretrained = finetune + ["--checkpoint", "pretrain/checkpoint-final.ckpt"]
    return [
        ["gen-data", "--out", "data", "--images", "24", "--pairs", "24", "--seed", "0"],
        pretrain + ["--out", "pretrain"],
        pretrain + ["--out", "resumed", "--resume", "pretrain/checkpoint-epoch-1.ckpt"],
        pretrain + ["--out", "resumed-final", "--resume", "pretrain/checkpoint-final.ckpt"],
        ["evaluate", "--data", "data", "--checkpoint", "pretrain/checkpoint-final.ckpt",
         "--seed", "3", "--out", "evaluate.json"],
        pretrained + ["--task", "qa", "--out", "finetune-qa"],
        pretrained + ["--task", "qa", "--reuse-qa-head", "--out", "finetune-qa-reused"],
        pretrained + ["--task", "pairwise", "--out", "finetune-pairwise"],
        finetune + ["--task", "pairwise", "--from-scratch", "--out", "finetune-pairwise-scratch"],
        ["dump-attention", "--data", "data", "--checkpoint", "pretrain/checkpoint-final.ckpt",
         "--out", "attention.json"],
    ]


def file_digest(path: str) -> str:
    if os.path.basename(path) != "metrics.jsonl":
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    h = hashlib.sha256()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            row = {k: v for k, v in json.loads(line).items() if k != "wall_time"}
            h.update((json.dumps(row) + "\n").encode("utf-8"))
    return h.hexdigest()


def digests(checkout: str) -> list[str]:
    """Run the pipeline with ``checkout``'s sources; one ``sha256  path`` line per output."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src")}
    with tempfile.TemporaryDirectory(prefix="digest-") as work:
        with open(os.path.join(work, "pretrain.json"), "w", encoding="utf-8") as fh:
            json.dump(PRETRAIN_CONFIG, fh)
        for argv in pipeline():
            subprocess.run([sys.executable, "-m", "crossmodal.cli", *argv], cwd=work, env=env,
                           stdout=subprocess.DEVNULL, check=True)
        lines = []
        for root, _, files in os.walk(work):
            for name in files:
                path = os.path.join(root, name)
                lines.append(f"{file_digest(path)}  {os.path.relpath(path, work)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fixed-seed digest of the CLI pipeline.")
    parser.add_argument("checkout", nargs="?", default=HERE,
                        help="checkout whose src/ runs the pipeline (default: this one)")
    for line in digests(parser.parse_args(argv).checkout):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
