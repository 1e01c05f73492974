"""The ordered fault-tolerance callback stack the training tests arm.

Registration order is load-bearing (see
:mod:`repro.training.callbacks.base`): fault injection corrupts the
batch before the guard classifies its loss; at epoch end validation
runs before the checkpoint save, so the snapshot carries fresh
early-stopping state.  Pass the list to
``create_engine(model, config).fit(callbacks=...)``.
"""

from repro.reliability.guards import LossGuardConfig
from repro.training.callbacks import (
    CheckpointCallback,
    FaultInjectionCallback,
    LossGuardCallback,
    ValidationCallback,
)


def reliability_stack(
    config,
    *,
    checkpoint_dir=None,
    checkpoint_every_n_batches=None,
    guard=LossGuardConfig(),
    fault_injector=None,
):
    """Fault injection, loss guard, validation, then checkpointing;
    ``None`` leaves a stage out."""
    callbacks = []
    if fault_injector is not None:
        callbacks.append(FaultInjectionCallback(fault_injector))
    if guard is not None:
        callbacks.append(LossGuardCallback(guard))
    callbacks.append(ValidationCallback(patience=config.early_stopping_patience))
    if checkpoint_dir is not None:
        callbacks.append(
            CheckpointCallback(
                checkpoint_dir, keep=3, every_n_batches=checkpoint_every_n_batches
            )
        )
    return callbacks
