"""Validation and early-stopping callback.

After every epoch, evaluates the model on ``ctx.validation`` (when one
was passed to ``fit``), appends the entire-space CVR AUC (falling back
to the click-space AUC when the dataset has no oracle) to the history,
and -- when a patience is configured -- sets ``history.stopped_early``
after ``patience`` epochs without improvement.  ``best_metric`` and
``stale`` live on the shared context so the checkpoint callback
snapshots them and a resumed run continues the same patience window.
"""

from __future__ import annotations

from typing import Optional

from repro.training.callbacks.base import Callback, TrainingContext
from repro.training.evaluation import evaluate_model


class ValidationCallback(Callback):
    """Epoch-end evaluation with optional early stopping."""

    def __init__(self, patience: Optional[int] = None) -> None:
        if patience is not None and patience < 0:
            raise ValueError(f"patience must be >= 0 or None, got {patience}")
        self.patience = patience

    def on_epoch_end(self, ctx: TrainingContext) -> None:
        if ctx.validation is None:
            return
        result = evaluate_model(ctx.model, ctx.validation)
        metric = (
            result.cvr_auc_d
            if result.cvr_auc_d is not None
            else (result.cvr_auc_o or 0.5)
        )
        ctx.history.validation_cvr_auc.append(metric)
        if self.patience is not None:
            if metric > ctx.best_metric + 1e-6:
                ctx.best_metric = metric
                ctx.stale = 0
            else:
                ctx.stale += 1
                if ctx.stale >= self.patience:
                    ctx.history.stopped_early = True
