"""Configuration dataclasses and the JSON run-config format used by the CLI."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .atomic import atomic_open


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    ``vocab_size``, ``num_labels`` and ``num_answers`` default to 0 and are
    resolved from the vocabulary, label list and answer table when training
    is set up.
    """

    n_lang_layers: int = 3
    n_cross_layers: int = 2
    n_vis_layers: int = 2
    hidden_size: int = 64
    num_heads: int = 4
    feat_dim: int = 32
    vocab_size: int = 0
    num_labels: int = 0
    num_answers: int = 0
    max_sentence_len: int = 16
    objects_per_image: int = 8
    dropout: float = 0.1
    ln_eps: float = 1e-12

    def validate(self) -> "ModelConfig":
        counts = {
            "n_lang_layers": self.n_lang_layers,
            "n_cross_layers": self.n_cross_layers,
            "n_vis_layers": self.n_vis_layers,
            "hidden_size": self.hidden_size,
            "num_heads": self.num_heads,
            "feat_dim": self.feat_dim,
            "objects_per_image": self.objects_per_image,
        }
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"config field {name} must be >= 1, got {value}")
        if self.max_sentence_len < 2:
            raise ValueError(
                f"max_sentence_len must be >= 2 ([CLS] and [SEP]), got {self.max_sentence_len}"
            )
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.ln_eps <= 0:
            raise ValueError("ln_eps must be positive")
        for name in ("vocab_size", "num_labels", "num_answers"):
            if getattr(self, name) < 0:
                raise ValueError(f"config field {name} must be >= 0")
        return self


def full_scale_model() -> ModelConfig:
    """Full-scale preset: 9/5/5 layers, hidden 768, 12 heads, 36 objects."""
    return ModelConfig(
        n_lang_layers=9,
        n_cross_layers=5,
        n_vis_layers=5,
        hidden_size=768,
        num_heads=12,
        feat_dim=2048,
        max_sentence_len=20,
        objects_per_image=36,
    )


@dataclass
class MaskingConfig:
    """Masking and pair-corruption probabilities for batch assembly."""

    word_mask_prob: float = 0.15
    object_mask_prob: float = 0.15
    mismatch_prob: float = 0.5

    def validate(self) -> "MaskingConfig":
        for name in ("word_mask_prob", "object_mask_prob", "mismatch_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        return self


def _check_warmup_and_clip(section: str, warmup_fraction: float, clip_norm: float | None) -> None:
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"{section}.warmup_fraction must be in [0, 1), got {warmup_fraction}")
    if clip_norm is not None and not clip_norm > 0:
        # a negative bound would scale every clipped gradient by a negative factor
        raise ValueError(f"{section}.clip_norm must be null or > 0, got {clip_norm}")


@dataclass
class ScheduleConfig:
    """Pre-training schedule: epochs, batch size, lr shape, phase split."""

    epochs: int = 4
    batch_size: int = 8
    peak_lr: float = 1e-3
    warmup_fraction: float = 0.05
    clip_norm: float | None = 5.0
    qa_start_fraction: float = 0.5
    answer_coverage: float = 1.0
    gate_object_tasks: bool = False
    checkpoint_every_epoch: bool = True

    def validate(self) -> "ScheduleConfig":
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        _check_warmup_and_clip("schedule", self.warmup_fraction, self.clip_norm)
        if not 0.0 <= self.qa_start_fraction <= 1.0:
            raise ValueError("qa_start_fraction must be in [0, 1]")
        if not 0.0 < self.answer_coverage <= 1.0:
            raise ValueError("answer_coverage must be in (0, 1]")
        return self


@dataclass
class FinetuneConfig:
    """Fine-tuning defaults: lr 1e-5 (5e-5 as the usual alternative), batch 32, 4 epochs."""

    lr: float = 1e-5
    batch_size: int = 32
    epochs: int = 4
    warmup_fraction: float = 0.05
    clip_norm: float | None = 5.0
    reuse_qa_head: bool = False

    def validate(self) -> "FinetuneConfig":
        if self.lr <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("finetune lr/batch_size/epochs out of range")
        _check_warmup_and_clip("finetune", self.warmup_fraction, self.clip_norm)
        return self


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    masking: MaskingConfig = field(default_factory=MaskingConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)

    def validate(self) -> "RunConfig":
        self.model.validate()
        self.masking.validate()
        self.schedule.validate()
        self.finetune.validate()
        return self

    def to_dict(self) -> dict:
        return asdict(self)


_SECTIONS = {
    "model": ModelConfig,
    "masking": MaskingConfig,
    "schedule": ScheduleConfig,
    "finetune": FinetuneConfig,
}


def _build_section(cls, values: dict):
    known = {f.name for f in fields(cls)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**values)


def run_config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ValueError("a run config must be a JSON object")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be an object")
        kwargs[name] = _build_section(cls, section)
    return RunConfig(**kwargs).validate()


class ConfigFormatError(ValueError):
    """A config file that is not UTF-8 JSON or does not hold a valid run config."""


def load_run_config(path) -> RunConfig:
    """Read a JSON run config; missing sections and fields take defaults.

    Bytes that do not decode or parse, and values that do not build a valid
    ``RunConfig``, raise ``ConfigFormatError`` naming the path.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return run_config_from_dict(json.loads(raw.decode("utf-8")))
    except (ValueError, TypeError) as exc:
        raise ConfigFormatError(f"config {path}: {exc}") from exc


def save_run_config(cfg: RunConfig, path) -> None:
    with atomic_open(path) as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
