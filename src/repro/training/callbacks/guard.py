"""Divergence-guard callback: detect, roll back, decay the LR.

Re-homes the pre-engine monolith's loss-guard policy: a
:class:`~repro.reliability.guards.LossGuard` classifies every batch
loss in ``on_loss_computed``; on a trip the callback vetoes the
optimizer step, rolls model and optimizer back to the last good
in-memory snapshot, multiplies the learning rate by ``lr_factor`` (down
to ``min_lr``), and records a
:class:`~repro.reliability.guards.GuardEvent` in the history.  The
rolling loss window and trip count ride along in checkpoint metadata so
a resumed run continues with identical guard state.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.reliability.errors import DivergenceError
from repro.reliability.guards import GuardEvent, LossGuard, LossGuardConfig
from repro.training.callbacks.base import Callback, TrainingContext
from repro.utils.logging import get_logger, log_event

logger = get_logger("training")


class LossGuardCallback(Callback):
    """Watches the loss stream; rolls back and halves the LR on a trip."""

    def __init__(
        self,
        config: Optional[LossGuardConfig] = None,
        guard: Optional[LossGuard] = None,
    ) -> None:
        if guard is not None and config is not None:
            raise ValueError("pass either a config or a prebuilt guard, not both")
        self.guard = guard or LossGuard(config)
        self._last_good: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def on_fit_start(self, ctx: TrainingContext) -> None:
        self._refresh(ctx)

    def on_loss_computed(self, ctx: TrainingContext) -> None:
        reason = self.guard.observe(ctx.loss_value)
        if reason is None:
            return
        ctx.skip_step = True
        self._handle_trip(ctx, reason)

    def on_batch_end(self, ctx: TrainingContext) -> None:
        if ctx.clean_steps % self.guard.config.refresh_every == 0:
            self._refresh(ctx)

    # -- checkpoint integration ----------------------------------------
    def checkpoint_metadata(self, ctx: TrainingContext) -> Dict[str, Any]:
        return {
            "guard_recent": self.guard.recent_losses,
            "guard_trips": self.guard.trips,
        }

    def on_resume(self, ctx: TrainingContext, snapshot) -> None:
        for value in snapshot.metadata.get("guard_recent", []):
            self.guard.record(value)
        self.guard.trips = int(snapshot.metadata.get("guard_trips", 0))

    # ------------------------------------------------------------------
    def _handle_trip(self, ctx: TrainingContext, reason: str) -> None:
        guard = self.guard
        if guard.trips > guard.config.max_trips:
            raise DivergenceError(
                f"loss guard tripped {guard.trips} times (last: {reason} at "
                f"epoch {ctx.epoch} batch {ctx.batch_index}); training is "
                "not recovering"
            )
        self._rollback(ctx)
        new_lr = max(ctx.optimizer.lr * guard.config.lr_factor, guard.config.min_lr)
        ctx.optimizer.lr = new_lr
        event = GuardEvent(
            epoch=ctx.epoch,
            batch=ctx.batch_index,
            reason=reason,
            value=float(ctx.loss_value),
            action="rollback_lr_halved",
            lr_after=new_lr,
        )
        ctx.history.events.append(event)
        # Re-capture the rollback point so the halved learning rate (and
        # the restored weights) survive a consecutive trip.
        self._refresh(ctx)
        log_event(
            logger,
            "loss_guard_trip",
            level=30,  # WARNING
            reason=reason,
            epoch=ctx.epoch,
            batch=ctx.batch_index,
            value=ctx.loss_value,
            lr_after=new_lr,
        )

    def _refresh(self, ctx: TrainingContext) -> None:
        self._last_good = {
            "model": ctx.model.state_dict(),
            "optimizer": ctx.optimizer.state_dict(),
        }

    def _rollback(self, ctx: TrainingContext) -> None:
        if self._last_good is None:
            return
        ctx.model.load_state_dict(self._last_good["model"])
        ctx.optimizer.load_state_dict(self._last_good["optimizer"])
