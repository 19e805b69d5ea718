"""Configuration dataclasses and the JSON run-config format used by the CLI."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields


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
    use_sep: bool = True
    init_std: float | None = None  # None: 1/sqrt(hidden_size)

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def weight_init_std(self) -> float:
        return self.init_std if self.init_std is not None else self.hidden_size ** -0.5

    def validate(self) -> "ModelConfig":
        counts = {
            "n_lang_layers": self.n_lang_layers,
            "n_cross_layers": self.n_cross_layers,
            "n_vis_layers": self.n_vis_layers,
            "hidden_size": self.hidden_size,
            "num_heads": self.num_heads,
            "feat_dim": self.feat_dim,
            "max_sentence_len": self.max_sentence_len,
            "objects_per_image": self.objects_per_image,
        }
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"config field {name} must be >= 1, got {value}")
        if self.use_sep and self.max_sentence_len < 2:
            raise ValueError(
                f"max_sentence_len must be >= 2 with use_sep, got {self.max_sentence_len}"
            )
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.ln_eps <= 0:
            raise ValueError("ln_eps must be positive")
        if self.init_std is not None and self.init_std <= 0:
            raise ValueError("init_std must be positive when set")
        for name in ("vocab_size", "num_labels", "num_answers"):
            if getattr(self, name) < 0:
                raise ValueError(f"config field {name} must be >= 0")
        return self


def desk_model() -> ModelConfig:
    """Small preset that trains in minutes on one CPU core."""
    return ModelConfig()


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
    mask_token_frac: float = 0.8
    random_token_frac: float = 0.1
    keep_frac: float = 0.1
    object_mask_prob: float = 0.15
    mismatch_prob: float = 0.5

    def validate(self) -> "MaskingConfig":
        for name in ("word_mask_prob", "object_mask_prob", "mismatch_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        split = self.mask_token_frac + self.random_token_frac + self.keep_frac
        if abs(split - 1.0) > 1e-9:
            raise ValueError(f"mask resolution split must sum to 1, got {split}")
        return self


@dataclass
class ScheduleConfig:
    """Pre-training schedule: epochs, batch size, lr shape, phase split."""

    epochs: int = 4
    batch_size: int = 8
    peak_lr: float = 1e-3
    warmup_fraction: float = 0.05
    clip_norm: float | None = 5.0
    qa_start_fraction: float = 0.5
    phase2_lr: float | None = None
    answer_coverage: float = 1.0
    gate_object_tasks: bool = False
    checkpoint_every_epoch: bool = True

    def validate(self) -> "ScheduleConfig":
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if not 0.0 <= self.qa_start_fraction <= 1.0:
            raise ValueError("qa_start_fraction must be in [0, 1]")
        if not 0.0 < self.answer_coverage <= 1.0:
            raise ValueError("answer_coverage must be in (0, 1]")
        return self


def full_scale_schedule() -> ScheduleConfig:
    """Reference schedule at full scale: 20 epochs, batch 256, peak lr 1e-4."""
    return ScheduleConfig(epochs=20, batch_size=256, peak_lr=1e-4, answer_coverage=0.9)


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


def load_run_config(path) -> RunConfig:
    """Read a JSON run config; missing sections and fields take defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return run_config_from_dict(data)


def save_run_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
