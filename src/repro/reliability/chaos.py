"""Chaos wrapper around ``RankingService.score_candidates``.

Install a :class:`ChaosScoring` on a service and its primary scoring
path fails with a configured probability (and optionally gains extra
latency), exactly as a flaky model server would.  Failures are drawn
from a private seeded generator, so a chaos run is reproducible; the
wrapper shadows the *instance* attribute only, and ``uninstall`` (or
exiting the context manager) restores the pristine method.

This is the proof harness for the serving fallback chain: tests wrap a
service, inject a failure rate, and assert that every request still
returns a full page while the circuit breaker's state is observable.
"""

from __future__ import annotations

import time

import numpy as np

from repro.reliability.errors import ScoringUnavailableError


class ChaosScoring:
    """Probabilistic failure/latency injector for a ranking service."""

    def __init__(
        self,
        service,
        failure_rate: float = 0.3,
        extra_latency_s: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError(f"failure_rate must be in [0, 1], got {failure_rate}")
        if extra_latency_s < 0:
            raise ValueError(
                f"extra_latency_s must be >= 0, got {extra_latency_s}"
            )
        self.service = service
        self.failure_rate = failure_rate
        self.extra_latency_s = extra_latency_s
        self._rng = np.random.default_rng(seed)
        self._original = None
        self.calls = 0
        self.failures_injected = 0

    # ------------------------------------------------------------------
    def install(self) -> "ChaosScoring":
        """Shadow ``service.score_candidates`` with the chaotic version."""
        if self._original is not None:
            return self
        self._original = self.service.score_candidates

        def chaotic_score_candidates(*args, **kwargs):
            self.calls += 1
            if self.extra_latency_s:
                time.sleep(self.extra_latency_s)
            if self._rng.random() < self.failure_rate:
                self.failures_injected += 1
                raise ScoringUnavailableError(
                    "chaos: injected scoring failure "
                    f"({self.failures_injected}/{self.calls})"
                )
            return self._original(*args, **kwargs)

        self.service.score_candidates = chaotic_score_candidates
        return self

    def uninstall(self) -> None:
        """Restore the original scoring method."""
        if self._original is None:
            return
        # Remove the instance shadow so the class method shows through
        # again (install() stored the bound class method).
        if "score_candidates" in vars(self.service):
            del self.service.score_candidates
        self._original = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "ChaosScoring":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()
