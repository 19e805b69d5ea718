"""Desk-scale cross-modality encoder: model, pre-training tasks, training CLI."""

from .config import (
    FinetuneConfig,
    MaskingConfig,
    ModelConfig,
    RunConfig,
    ScheduleConfig,
    full_scale_model,
)
from .encoders import Runtime, forward_batch
from .heads import LossBundle, pretrain_losses
from .params import init_params, parameter_layout
from .tensor import Tape, Tensor, backward

__version__ = "0.1.0"

__all__ = [
    "FinetuneConfig",
    "LossBundle",
    "MaskingConfig",
    "ModelConfig",
    "RunConfig",
    "Runtime",
    "ScheduleConfig",
    "Tape",
    "Tensor",
    "backward",
    "forward_batch",
    "full_scale_model",
    "init_params",
    "parameter_layout",
    "pretrain_losses",
    "__version__",
]
