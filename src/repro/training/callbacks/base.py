"""The hook protocol of the composable training engine.

:class:`~repro.training.engine.TrainingEngine` owns only the canonical
step loop (forward -> loss -> backward -> clip -> step).  Everything
else -- checkpointing, divergence guards, fault injection,
validation/early stopping, drift references -- is a :class:`Callback` observing the loop through a fixed set of hooks.

Hook ordering guarantees (per ``fit``):

``on_fit_start``
    Once, after ``model.train()`` and (on resume) after the snapshot has
    been restored.
``on_epoch_start``
    Once per epoch, after the epoch counters and the epoch-start RNG
    state (``ctx.epoch_start_rng``) have been captured.
``on_batch_start``
    Before the forward pass.  Callbacks may *replace* ``ctx.batch``
    (fault injection does).
``on_loss_computed``
    After the forward pass, before ``backward``.  ``ctx.loss_value``
    holds the scalar loss; setting ``ctx.skip_step = True`` vetoes the
    optimizer step for this batch (the loss guard's rollback path).
    Vetoed batches fire no further batch hooks.
``on_backward_end``
    After ``loss.backward()``, before gradient clipping and
    ``optimizer.step()`` -- the place to inspect or edit raw gradients.
``on_batch_end``
    After the optimizer step and the loss accounting
    (``ctx.epoch_loss_sum`` / ``ctx.n_batches_done`` already
    updated).  Only fires for clean
    (non-vetoed) batches.
``on_epoch_end``
    After the mean epoch loss has been appended to the history.
    Callbacks run in registration order, which a fault-tolerance stack
    uses to guarantee: validation/early-stopping -> epoch-boundary
    checkpoint (so the snapshot sees the fresh
    ``best_metric``/``stale``).  ``history.stopped_early`` set here ends
    the run after the remaining epoch-end hooks.
``on_fit_end``
    Once, on normal completion only (after the engine's per-fit
    resources have been released), just before the engine switches the
    model back to eval mode.
``on_resume``
    When ``fit(resume_from=...)`` restored a snapshot, before
    ``on_fit_start``; callbacks re-hydrate their own state from
    ``snapshot.metadata`` (the loss guard restores its rolling window).
``checkpoint_metadata``
    Not a lifecycle hook: the checkpoint callback polls every callback
    for extra snapshot metadata right before a save.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.data.dataset import Batch, InteractionDataset
    from repro.data.stream import DataSource
    from repro.models.base import MultiTaskModel
    from repro.optim.optimizer import Optimizer
    from repro.reliability.checkpoint import TrainingSnapshot
    from repro.training.config import TrainConfig
    from repro.training.engine import TrainingEngine
    from repro.training.history import TrainingHistory


@dataclass
class TrainingContext:
    """Mutable shared state of one ``fit`` call.

    One instance is created per ``fit`` and threaded through every
    hook; callbacks communicate with the engine (and with each other)
    exclusively through it.
    """

    engine: "TrainingEngine"
    model: "MultiTaskModel"
    optimizer: "Optimizer"
    config: "TrainConfig"
    history: "TrainingHistory"
    #: The training data as passed to ``fit`` -- an
    #: :class:`~repro.data.dataset.InteractionDataset` or a streaming
    #: :class:`~repro.data.stream.DataSource`.  Callbacks needing a
    #: probe batch should go through
    #: :func:`repro.data.stream.as_source` / ``sample_batch``.
    train: "InteractionDataset | DataSource"
    validation: Optional["InteractionDataset"]
    rng: np.random.Generator
    callbacks: Sequence["Callback"] = ()

    # -- loop position -------------------------------------------------
    epoch: int = 0
    batch_index: int = -1
    batch: Optional["Batch"] = None
    #: Scalar loss of the current batch (valid from ``on_loss_computed``).
    loss_value: float = float("nan")
    #: Set by a callback in ``on_loss_computed`` to veto the step.
    skip_step: bool = False
    #: Engine RNG state captured at the start of the current epoch
    #: (what a mid-epoch snapshot must store to re-draw the shuffle).
    epoch_start_rng: Optional[Dict[str, Any]] = None

    # -- accounting ----------------------------------------------------
    epoch_loss_sum: float = 0.0
    n_batches_done: int = 0

    # -- early stopping ------------------------------------------------
    best_metric: float = float("-inf")
    stale: int = 0

    # ------------------------------------------------------------------
    def collect_checkpoint_metadata(self) -> Dict[str, Any]:
        """Snapshot metadata: model name plus every callback's extras."""
        metadata: Dict[str, Any] = {
            "model_name": getattr(
                self.model, "model_name", type(self.model).__name__
            ),
        }
        for callback in self.callbacks:
            metadata.update(callback.checkpoint_metadata(self))
        return metadata


class Callback:
    """Base class: every hook is a no-op.  Subclass and override."""

    def on_fit_start(self, ctx: TrainingContext) -> None:  # noqa: B027
        pass

    def on_epoch_start(self, ctx: TrainingContext) -> None:  # noqa: B027
        pass

    def on_batch_start(self, ctx: TrainingContext) -> None:  # noqa: B027
        pass

    def on_loss_computed(self, ctx: TrainingContext) -> None:  # noqa: B027
        pass

    def on_backward_end(self, ctx: TrainingContext) -> None:  # noqa: B027
        pass

    def on_batch_end(self, ctx: TrainingContext) -> None:  # noqa: B027
        pass

    def on_epoch_end(self, ctx: TrainingContext) -> None:  # noqa: B027
        pass

    def on_fit_end(self, ctx: TrainingContext) -> None:  # noqa: B027
        pass

    def on_resume(
        self, ctx: TrainingContext, snapshot: "TrainingSnapshot"
    ) -> None:  # noqa: B027
        pass

    def checkpoint_metadata(self, ctx: TrainingContext) -> Dict[str, Any]:
        """Extra key/values to store in snapshot metadata."""
        return {}


class CallbackList:
    """Dispatches one hook to every callback, in registration order."""

    def __init__(self, callbacks: Sequence[Callback] = ()) -> None:
        self.callbacks: List[Callback] = list(callbacks)

    def __iter__(self):
        return iter(self.callbacks)

    def __len__(self) -> int:
        return len(self.callbacks)

    def fire(self, hook: str, ctx: TrainingContext, *args: Any) -> None:
        for callback in self.callbacks:
            getattr(callback, hook)(ctx, *args)
