"""Training and evaluation harness.

The composable :class:`~repro.training.engine.TrainingEngine` owns the
canonical step loop; production concerns (checkpoint/resume, divergence
guards, fault injection, validation/early stopping) attach as
:mod:`~repro.training.callbacks` passed to ``fit``.
:func:`~repro.training.engine.fit_model` is the one way to start a fit
with the default validation/early-stopping stack; callers that need the
engine object use :func:`~repro.training.engine.create_engine`.
:mod:`~repro.training.evaluation` computes the offline metrics of
Table IV plus the entire-space diagnostics enabled by the synthetic
oracle.
"""

from repro.training.config import TrainConfig
from repro.training.engine import TrainingEngine, create_engine, fit_model
from repro.training.history import TrainingHistory
from repro.training.parallel import (
    ShardedTrainingEngine,
    TrainerChaosDrill,
    TrainerDrillReport,
    WorkerSupervisor,
)
from repro.training.evaluation import (
    EvaluationResult,
    StreamingAUC,
    StreamingECE,
    StreamingEvaluationResult,
    StreamingLogLoss,
    StreamingMean,
    evaluate_model,
    evaluate_model_streaming,
)
from repro.training.callbacks import (
    Callback,
    CheckpointCallback,
    FaultInjectionCallback,
    LossGuardCallback,
    ValidationCallback,
)

__all__ = [
    "TrainConfig",
    "TrainingEngine",
    "TrainingHistory",
    "ShardedTrainingEngine",
    "TrainerChaosDrill",
    "TrainerDrillReport",
    "WorkerSupervisor",
    "create_engine",
    "fit_model",
    "Callback",
    "CheckpointCallback",
    "FaultInjectionCallback",
    "LossGuardCallback",
    "ValidationCallback",
    "EvaluationResult",
    "evaluate_model",
    "StreamingAUC",
    "StreamingECE",
    "StreamingEvaluationResult",
    "StreamingLogLoss",
    "StreamingMean",
    "evaluate_model_streaming",
]
