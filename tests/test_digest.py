"""tools/fixed_seed_digest.py: the fixed-seed CLI pipeline hashes the same twice."""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "fixed_seed_digest.py")


def _digest() -> list[str]:
    done = subprocess.run([sys.executable, TOOL], capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def test_fixed_seed_digest_is_repeatable():
    first = _digest()
    assert first == _digest()
    paths = [line.split("  ", 1)[1] for line in first]
    for path in ("data/features.bin", "pretrain/metrics.jsonl", "resumed/checkpoint-final.ckpt",
                 "evaluate.json", "finetune-qa/checkpoint-final.ckpt",
                 "finetune-qa-reused/checkpoint-final.ckpt", "finetune-pairwise/metrics.jsonl",
                 "finetune-pairwise-scratch/checkpoint-final.ckpt", "attention.json"):
        assert path in paths
    # a resumed run ends where the uninterrupted one does, also with no steps left
    final = {path: line.split("  ", 1)[0] for line, path in zip(first, paths)}
    assert final["resumed/checkpoint-final.ckpt"] == final["pretrain/checkpoint-final.ckpt"]
    assert final["resumed-final/checkpoint-final.ckpt"] == final["pretrain/checkpoint-final.ckpt"]
