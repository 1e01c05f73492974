"""Training configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the training loop.

    Paper defaults (Section IV-A2): Adam, learning rate 0.001, batch
    size 1024, max 5 epochs, ``lambda_2 = 1e-4`` (here applied as
    optimizer weight decay -- mathematically the same L2 penalty).
    """

    epochs: int = 5
    batch_size: int = 1024
    learning_rate: float = 0.001
    weight_decay: float = 1e-4
    grad_clip: Optional[float] = 10.0
    shuffle: bool = True
    drop_last: bool = False
    seed: int = 0
    #: Stop early when the validation CVR AUC has not improved for this
    #: many epochs (None disables early stopping).
    early_stopping_patience: Optional[int] = None
    #: Cap the number of batches consumed per epoch (None = the whole
    #: source).  Meant for streaming sources, where an "epoch" over a
    #: production log can be arbitrarily long: it bounds wall-clock per
    #: epoch-end checkpoint/validation without touching the data path.
    max_batches_per_epoch: Optional[int] = None

    # -- data-parallel worker pool (repro.training.parallel) -----------
    #: Size of the supervised ``multiprocessing`` worker pool; ``None``
    #: keeps training single-process.  ``num_workers=1`` is a valid
    #: (degenerate) pool, useful for isolating IPC from parallelism.
    num_workers: Optional[int] = None
    #: Shards per optimizer step.  Defaults to ``num_workers`` when the
    #: pool is on; may be set alone to run the *serial* sharded loop --
    #: the bit-exact single-process reference for a ``num_workers ==
    #: num_shards`` parallel run.
    num_shards: Optional[int] = None
    #: Per-dispatch deadline: how long the supervisor waits for one
    #: shard gradient before treating the worker as a straggler.
    worker_deadline_s: float = 30.0
    #: How often each worker's liveness thread beats.
    heartbeat_interval_s: float = 0.2
    #: A worker whose last heartbeat is older than this is declared
    #: dead (frozen process), not merely slow.  Must stay below
    #: ``worker_deadline_s`` so liveness is known by the time a
    #: dispatch deadline fires.
    heartbeat_timeout_s: float = 5.0
    #: Consecutive deadline strikes a worker survives before the
    #: supervisor SIGKILLs it as lost.
    worker_retries: int = 2
    #: Base pause before re-dispatching a missed shard elsewhere
    #: (jittered by ``worker_backoff_jitter`` through the supervisor's
    #: seeded RNG, capped by the remaining step deadline).
    worker_backoff_s: float = 0.01
    worker_backoff_jitter: float = 0.5
    #: Quorum: below this many live workers the pool gives up --
    #: falling back to single-process when
    #: ``single_process_fallback`` is set, raising ``WorkerPoolError``
    #: otherwise.
    min_workers: int = 1
    #: Losing quorum degrades to in-process training instead of
    #: aborting the run.
    single_process_fallback: bool = True

    def __post_init__(self) -> None:
        self.validate()

    @property
    def parallel_enabled(self) -> bool:
        """Whether fits should run through the sharded engine."""
        return self.num_workers is not None or (
            self.num_shards is not None and self.num_shards > 1
        )

    @property
    def effective_shards(self) -> int:
        """Shards per step the sharded engine starts with."""
        if self.num_shards is not None:
            return self.num_shards
        return self.num_workers if self.num_workers is not None else 1

    def validate(self) -> "TrainConfig":
        """Raise ``ValueError`` for nonsensical settings; returns self.

        Called automatically on construction and again by
        ``TrainingEngine.__init__`` (defence in depth: configs built through
        ``dataclasses.replace`` tricks or deserialisation may bypass
        ``__post_init__`` semantics the caller expects).
        """
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError(f"grad_clip must be positive or None, got {self.grad_clip}")
        if self.early_stopping_patience is not None and self.early_stopping_patience < 0:
            raise ValueError(
                "early_stopping_patience must be >= 0 or None, got "
                f"{self.early_stopping_patience}"
            )
        if self.max_batches_per_epoch is not None and self.max_batches_per_epoch < 1:
            raise ValueError(
                "max_batches_per_epoch must be >= 1 or None, got "
                f"{self.max_batches_per_epoch}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1 or None, got {self.num_workers}"
            )
        if self.num_shards is not None and self.num_shards < 1:
            raise ValueError(
                f"num_shards must be >= 1 or None, got {self.num_shards}"
            )
        if self.worker_deadline_s <= 0:
            raise ValueError(
                f"worker_deadline_s must be > 0, got {self.worker_deadline_s}"
            )
        if self.heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat_interval_s must be > 0, got {self.heartbeat_interval_s}"
            )
        if self.heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat_timeout_s must be > 0, got {self.heartbeat_timeout_s}"
            )
        if self.heartbeat_timeout_s >= self.worker_deadline_s:
            raise ValueError(
                "heartbeat_timeout_s must be < worker_deadline_s (liveness "
                "must be decidable by the time a dispatch deadline fires), "
                f"got {self.heartbeat_timeout_s} >= {self.worker_deadline_s}"
            )
        if self.heartbeat_interval_s >= self.heartbeat_timeout_s:
            raise ValueError(
                "heartbeat_interval_s must be < heartbeat_timeout_s, got "
                f"{self.heartbeat_interval_s} >= {self.heartbeat_timeout_s}"
            )
        if self.worker_retries < 0:
            raise ValueError(
                f"worker_retries must be >= 0, got {self.worker_retries}"
            )
        if self.worker_backoff_s < 0 or self.worker_backoff_jitter < 0:
            raise ValueError(
                "worker_backoff_s and worker_backoff_jitter must be >= 0, got "
                f"{self.worker_backoff_s} / {self.worker_backoff_jitter}"
            )
        if self.min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {self.min_workers}")
        if self.num_workers is not None and self.min_workers > self.num_workers:
            raise ValueError(
                f"min_workers ({self.min_workers}) cannot exceed "
                f"num_workers ({self.num_workers})"
            )
        return self

    def with_overrides(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)
