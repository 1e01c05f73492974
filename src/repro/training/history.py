"""The per-run training record.

:class:`TrainingHistory` is the single artifact every training entry
point returns -- :func:`~repro.training.engine.fit_model`, the
:class:`~repro.training.engine.TrainingEngine` it runs, and the
checkpoint subsystem all read and write the same structure.  ``to_dict`` /
``from_dict`` are exact inverses (including guard ``events``), so
snapshots and experiment reports round-trip the history without
hand-parsing dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.reliability.guards import GuardEvent


@dataclass
class TrainingHistory:
    """Per-epoch training record (plus any guard interventions)."""

    epoch_losses: List[float] = field(default_factory=list)
    validation_cvr_auc: List[float] = field(default_factory=list)
    stopped_early: bool = False
    #: Guard interventions and structured warnings, in occurrence order.
    events: List[GuardEvent] = field(default_factory=list)

    @property
    def n_epochs_run(self) -> int:
        return len(self.epoch_losses)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch_losses": list(self.epoch_losses),
            "validation_cvr_auc": list(self.validation_cvr_auc),
            "stopped_early": self.stopped_early,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrainingHistory":
        # Unknown keys are dropped: snapshots written before the op
        # profiler was removed still carry an ``op_profile`` entry.
        return cls(
            epoch_losses=list(data.get("epoch_losses", [])),
            validation_cvr_auc=list(data.get("validation_cvr_auc", [])),
            stopped_early=bool(data.get("stopped_early", False)),
            events=[GuardEvent.from_dict(e) for e in data.get("events", [])],
        )
