"""Deadlines and retry backoff, shared by serving and training.

The ranking service's deadline-aware retry chain, the fleet's hedges
and the supervised trainer worker pool (:mod:`repro.training.parallel`)
share one vocabulary:

* :class:`Deadline` -- a latency budget with an injectable clock,
  created where the work is admitted and propagated through every
  retry so a slow first attempt cannot spend the whole budget;
* :func:`jittered_backoff` -- ``base * (1 + jitter * u)`` where ``u``
  is a caller-supplied uniform draw, used by worker re-dispatch so
  same-seed runs reproduce the same pause schedule bit for bit.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = [
    "Deadline",
    "jittered_backoff",
]


class Deadline:
    """Per-request latency budget with an injectable clock.

    ``None`` budget means "no deadline" -- every check reports
    unexpired.  The deadline is created when the request is admitted
    and propagated through the retry/fallback chain, so a slow primary
    scorer cannot spend the whole budget on retries.
    """

    def __init__(
        self, budget_s: Optional[float], clock: Callable[[], float]
    ) -> None:
        if budget_s is not None and budget_s <= 0:
            raise ValueError(f"budget_s must be > 0 or None, got {budget_s}")
        self.budget_s = budget_s
        self._clock = clock
        self._start = clock()

    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        if self.budget_s is None:
            return float("inf")
        return self.budget_s - self.elapsed()

    def expired(self) -> bool:
        return self.budget_s is not None and self.remaining() <= 0.0


def jittered_backoff(base_s: float, jitter: float, u: float) -> float:
    """Seeded-jitter pause: ``base * (1 + jitter * u)`` for ``u ~ U[0, 1)``.

    The caller draws ``u`` from its own seeded generator (and always
    draws, even when the sleep ends up skipped), so the pause schedule
    is reproducible and the RNG stream stays aligned across runs.
    """
    return base_s * (1.0 + jitter * u)
