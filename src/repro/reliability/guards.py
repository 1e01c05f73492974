"""Divergence guards: loss anomaly detection.

:class:`LossGuard` watches the per-batch loss stream for two failure
signatures:

* **non-finite** losses (NaN/inf) -- the classic IPW blow-up;
* **spikes** -- a finite loss whose rolling z-score against the recent
  window exceeds a threshold, the early warning that the run is about
  to leave the stable region.

The guard only *detects*; the trainer decides what to do on a trip
(roll back to the last good state, halve the learning rate, record a
:class:`GuardEvent`).  Keeping the policy in the trainer means the
guard is reusable for any loop that produces a scalar series.

The promotion gate's ``propensity_floor`` check
(:mod:`repro.lifecycle.gate`) measures, on every candidate, the share of
``o_hat`` at or below the lower clip floor, where ``1/o_hat`` weights
saturate.  Nothing checks mass at the upper boundary.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

import numpy as np


@dataclass(frozen=True)
class LossGuardConfig:
    """Detection thresholds (the reaction policy is in the callback)."""

    #: Rolling window of recent good losses used for the z-score.
    window: int = 32
    #: Spike threshold: trip when ``(loss - mean) / std`` exceeds this.
    z_threshold: float = 8.0
    #: Minimum good losses observed before spike detection activates
    #: (non-finite detection is always active).
    min_history: int = 8

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if self.z_threshold <= 0:
            raise ValueError(f"z_threshold must be > 0, got {self.z_threshold}")
        if self.min_history < 2:
            raise ValueError(f"min_history must be >= 2, got {self.min_history}")


@dataclass
class GuardEvent:
    """One recorded guard intervention (stored in ``TrainingHistory``)."""

    epoch: int
    batch: int
    reason: str
    value: float
    action: str
    lr_after: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GuardEvent":
        return cls(**data)


class LossGuard:
    """Streaming anomaly detector over a scalar loss series."""

    def __init__(self, config: Optional[LossGuardConfig] = None) -> None:
        self.config = config or LossGuardConfig()
        self._recent: "deque[float]" = deque(maxlen=self.config.window)
        self.trips = 0

    # ------------------------------------------------------------------
    def check(self, value: float) -> Optional[str]:
        """Classify one loss value; returns a trip reason or None.

        A trip is *not* recorded into the rolling window -- anomalous
        values must never poison the statistics used to detect the next
        anomaly.
        """
        if not math.isfinite(value):
            return "non_finite_loss"
        if len(self._recent) >= self.config.min_history:
            mean = float(np.mean(self._recent))
            std = float(np.std(self._recent))
            z = (value - mean) / max(std, 1e-12)
            if z > self.config.z_threshold:
                return "loss_spike"
        return None

    def record(self, value: float) -> None:
        """Add a known-good loss to the rolling window."""
        self._recent.append(float(value))

    def observe(self, value: float) -> Optional[str]:
        """``check`` then ``record`` when clean; returns the trip reason."""
        reason = self.check(value)
        if reason is None:
            self.record(value)
        else:
            self.trips += 1
        return reason

    @property
    def recent_losses(self) -> list:
        """Copy of the rolling window (checkpointed for exact resume)."""
        return list(self._recent)
