"""Consistency-regularized multi-source domain adaptation, desk scale.

A shared feature extractor with per-domain classifier pairs is adapted to
an unlabeled target domain by alternating source supervision, classifier
discrepancy maximization, extractor consistency minimization, and
confidence-weighted pseudo-label self-training, all differentiated by the
built-in reverse-mode autodiff engine.
"""

from .autodiff import Tape, Tensor
from .data import GeneratedTask, ShiftSpec, TaskSpec, generate_task
from .nn import CrmaModel
from .trainer import AblationFlags, TrainConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "AblationFlags",
    "CrmaModel",
    "GeneratedTask",
    "ShiftSpec",
    "Tape",
    "TaskSpec",
    "Tensor",
    "TrainConfig",
    "evaluate",
    "generate_task",
    "train",
]
