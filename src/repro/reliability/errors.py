"""Exception taxonomy shared across the reliability subsystem.

Every failure the subsystem can surface derives from
:class:`ReliabilityError`, so callers can catch one base class at the
process boundary.
"""

from __future__ import annotations


class ReliabilityError(RuntimeError):
    """Base class for all reliability-subsystem failures."""


class CheckpointCorruptError(ReliabilityError):
    """A checkpoint failed checksum or structural validation.

    Raised by :mod:`repro.reliability.checkpoint` when a snapshot is
    truncated, bit-flipped, or otherwise unreadable.  Recovery scans
    (``CheckpointManager.latest``) catch this and fall back to the
    previous snapshot instead of propagating.
    """


class DivergenceError(ReliabilityError):
    """Training diverged beyond what the guard policy can absorb.

    Raised by the trainer when :class:`~repro.reliability.guards.LossGuard`
    trips more than ``max_trips`` times in one run -- at that point
    rollback-and-retry is looping, not recovering.
    """


class ScoringUnavailableError(ReliabilityError):
    """The primary scoring path failed to produce scores.

    Raised by the chaos wrapper (injected faults) and used by
    :class:`~repro.simulation.serving.RankingService` to classify any
    scoring exception before engaging the fallback chain.
    """


class RequestShedError(ReliabilityError):
    """Admission control refused the request.

    Raised by :class:`~repro.simulation.serving.RankingService` when the
    bounded admission queue is full or the health state machine is in
    SHEDDING and this request fell on the shed side of the stride.
    Callers treat it as backpressure: retry later or route elsewhere --
    the service is protecting the requests it has already admitted.
    """


class ReplicaUnavailableError(ReliabilityError):
    """No fleet replica could take (or serve) the request.

    Raised internally by :class:`~repro.simulation.fleet.ServingFleet`
    routing when every replica is dead, shedding, or breaker-open, and
    by a replica attempt that failed so the hedge logic can distinguish
    "this replica refused" from a caller error.  The fleet catches it
    and rides its own fallback chain (hedge replica, then the
    popularity scorer) -- it never reaches callers of
    ``ServingFleet.serve_page``.
    """


class WorkerPoolError(ReliabilityError):
    """The data-parallel worker pool can no longer make progress.

    Raised by :class:`~repro.training.parallel.WorkerSupervisor` when
    worker losses push the pool below its ``min_workers`` quorum (and
    single-process fallback is disabled), and by the unsupervised
    strawman pool the moment any worker dies or its watchdog detects a
    stall -- the failure modes supervision exists to absorb.
    """


class RegistryCorruptError(ReliabilityError):
    """A model-registry entry failed digest or structural verification.

    Raised by :class:`~repro.lifecycle.registry.ModelRegistry` when a
    stored parameter blob does not hash-match its manifest entry (bit
    rot, torn write, manual tampering) or the manifest itself is
    unreadable.  The registry never serves or promotes a version that
    fails this check.
    """


class PromotionBlockedError(ReliabilityError):
    """A lifecycle promotion was refused.

    Raised when a caller tries to promote a version the registry cannot
    vouch for: unknown, explicitly rejected by the promotion gate, or
    failing bit-exact load-back verification.  The current champion
    keeps serving.
    """
