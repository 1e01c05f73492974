"""Standalone callbacks for the composable training engine.

Each production concern of a fit is one class here, passed to
``TrainingEngine.fit(callbacks=...)`` or ``fit_model(callbacks=...)``:

* :class:`CheckpointCallback` -- periodic checksummed snapshots,
  mid-epoch and at epoch boundaries (PR 1's checkpoint/resume);
* :class:`LossGuardCallback` -- NaN/spike detection with rollback and
  LR decay (PR 1's divergence guards);
* :class:`FaultInjectionCallback` -- seeded batch corruption for chaos
  drills (PR 1's fault injection);
* :class:`ValidationCallback` -- epoch-end evaluation and early stopping;
* :class:`DriftReferenceCallback` -- freezes the training-time
  feature/propensity/CVR distributions for the serving drift sentinels.

See :mod:`repro.training.callbacks.base` for the hook protocol and its
ordering guarantees.
"""

from repro.training.callbacks.base import Callback, CallbackList, TrainingContext
from repro.training.callbacks.checkpoint import CheckpointCallback
from repro.training.callbacks.drift import DriftReferenceCallback
from repro.training.callbacks.faults import FaultInjectionCallback
from repro.training.callbacks.guard import LossGuardCallback
from repro.training.callbacks.validation import ValidationCallback

__all__ = [
    "Callback",
    "CallbackList",
    "TrainingContext",
    "CheckpointCallback",
    "DriftReferenceCallback",
    "FaultInjectionCallback",
    "LossGuardCallback",
    "ValidationCallback",
]
