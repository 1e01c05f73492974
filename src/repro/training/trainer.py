"""The training loop facade, with optional fault tolerance.

``Trainer(model, config)`` behaves exactly as it always has, but is now
a thin assembly layer over the composable
:class:`~repro.training.engine.TrainingEngine`: it builds the default
callback stack and delegates ``fit``.  Passing a
:class:`~repro.reliability.ReliabilityConfig` additionally arms:

* **checkpoint/resume** -- periodic checksummed snapshots of the full
  training state via
  :class:`~repro.training.callbacks.CheckpointCallback`;
  ``fit(resume_from=...)`` continues a killed run bit-exactly;
* **divergence guards** -- a
  :class:`~repro.training.callbacks.LossGuardCallback` rolls the model
  and optimizer back to the last good state on a NaN/inf or rolling
  z-score spike, multiplies the learning rate by ``lr_factor``, and
  records a :class:`~repro.reliability.GuardEvent` in the history;
* **propensity monitoring** -- a
  :class:`~repro.training.callbacks.PropensityMonitorCallback` probes
  the CTR head after each epoch and surfaces ``o_hat`` pile-up at the
  clip boundary;
* **fault injection** -- a
  :class:`~repro.training.callbacks.FaultInjectionCallback` corrupts
  the batch stream, used by tests and chaos drills.

Extra callbacks (e.g. an
:class:`~repro.training.callbacks.LRSchedulerCallback`) append after
the default stack via the ``callbacks`` constructor argument.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence

from repro.data.dataset import InteractionDataset
from repro.models.base import MultiTaskModel
from repro.optim import Adam
from repro.reliability.config import ReliabilityConfig
from repro.training.callbacks import (
    Callback,
    CheckpointCallback,
    FaultInjectionCallback,
    LossGuardCallback,
    PropensityMonitorCallback,
    ValidationCallback,
)
from repro.training.config import TrainConfig
from repro.training.engine import create_engine
from repro.training.history import TrainingHistory

__all__ = ["Trainer", "TrainingHistory", "default_callbacks"]


def default_callbacks(
    config: TrainConfig, reliability: Optional[ReliabilityConfig] = None
) -> List[Callback]:
    """The callback stack equivalent to the pre-engine monolith.

    Registration order is load-bearing (see
    :mod:`repro.training.callbacks.base`): fault injection corrupts the
    batch before the guard classifies its loss; at epoch end the
    propensity monitor and validation run before the checkpoint save so
    the snapshot carries fresh events and early-stopping state.
    """
    callbacks: List[Callback] = []
    if reliability is not None and reliability.fault_injector is not None:
        callbacks.append(FaultInjectionCallback(reliability.fault_injector))
    if reliability is not None and reliability.guard is not None:
        callbacks.append(LossGuardCallback(reliability.guard))
    if reliability is not None and reliability.propensity_check_sample > 0:
        callbacks.append(
            PropensityMonitorCallback(
                sample=reliability.propensity_check_sample,
                threshold=reliability.propensity_collapse_threshold,
            )
        )
    callbacks.append(ValidationCallback(patience=config.early_stopping_patience))
    if reliability is not None and reliability.checkpoint_dir is not None:
        callbacks.append(
            CheckpointCallback(
                reliability.checkpoint_dir,
                keep=reliability.keep_checkpoints,
                every_n_batches=reliability.checkpoint_every_n_batches,
            )
        )
    return callbacks


class Trainer:
    """Trains one model with the paper's protocol (Adam + L2).

    The ``lambda_2 ||theta||^2`` regularizer of Eq. (14) is applied as
    optimizer weight decay.
    """

    def __init__(
        self,
        model: MultiTaskModel,
        config: TrainConfig,
        reliability: Optional[ReliabilityConfig] = None,
        callbacks: Sequence[Callback] = (),
    ) -> None:
        self.model = model
        self.config = config.validate()
        self.reliability = reliability
        self.optimizer = Adam(
            model.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        self.extra_callbacks: List[Callback] = list(callbacks)
        self.engine = create_engine(model, config, optimizer=self.optimizer)

    # ------------------------------------------------------------------
    def fit(
        self,
        train: InteractionDataset,
        validation: Optional[InteractionDataset] = None,
        resume_from: "Path | str | None" = None,
    ) -> TrainingHistory:
        """Train for up to ``config.epochs`` epochs.

        When ``validation`` is given and early stopping is enabled,
        training stops after ``early_stopping_patience`` epochs without
        improvement in entire-space CVR AUC (falling back to the
        click-space AUC when the dataset has no oracle).

        ``resume_from`` accepts a checkpoint file or a checkpoint
        directory (the newest *valid* snapshot is used); the run then
        continues bit-exactly from where the snapshot was taken.
        """
        callbacks = default_callbacks(self.config, self.reliability)
        callbacks.extend(self.extra_callbacks)
        return self.engine.fit(
            train,
            validation=validation,
            resume_from=resume_from,
            callbacks=callbacks,
        )
