"""The composable training engine.

:class:`TrainingEngine` owns exactly the canonical step loop::

    forward -> loss -> backward -> clip -> step

plus the invariants the loop depends on (dataset validation, trusted
indices, the shuffle RNG, and bit-exact resume of the loop position).
Everything else -- checkpointing, divergence guards, fault injection,
validation/early stopping -- attaches through the
:class:`~repro.training.callbacks.Callback` hook protocol, so scaling
features are "write a callback", not "edit the loop".

:func:`fit_model` is the one way to start a fit with the default
validation/early-stopping stack; callers that need the engine object
(e.g. to reach its optimizer) use :func:`create_engine` and pass their
callbacks to ``fit``.  The loop is bit-exact with the pre-engine
monolith (see ``tests/training/test_engine_golden.py``).
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.autograd.plan import PlanRunner
from repro.data.dataset import InteractionDataset
from repro.data.stream import DataSource, as_source, shard_sizes
from repro.models.base import MultiTaskModel
from repro.nn.embedding import trusted_indices
from repro.optim import Adam, clip_global_norm
from repro.reliability.checkpoint import (
    CheckpointManager,
    TrainingSnapshot,
    load_snapshot,
)
from repro.reliability.errors import CheckpointCorruptError
from repro.training.callbacks.base import Callback, CallbackList, TrainingContext
from repro.training.callbacks.validation import ValidationCallback
from repro.training.config import TrainConfig
from repro.training.history import TrainingHistory
from repro.utils.logging import get_logger, log_event

logger = get_logger("training")


class TrainingEngine:
    """Minimal step-loop owner; all policy lives in callbacks.

    Parameters
    ----------
    model, config:
        The model to train and the loop knobs.  The ``lambda_2
        ||theta||^2`` regularizer of Eq. (14) is applied as optimizer
        weight decay of the paper's Adam.

    Callbacks reach a fit only through ``fit(callbacks=...)``.
    """

    def __init__(self, model: MultiTaskModel, config: TrainConfig) -> None:
        self.model = model
        self.config = config.validate()
        self.optimizer = Adam(
            model.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        self._rng = np.random.default_rng(config.seed)
        #: Plan runner of the most recent ``fit`` call (``None`` before
        #: the first); exposes trace/replay stats.
        self.plan_runner: Optional[PlanRunner] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        train: "InteractionDataset | DataSource",
        validation: Optional[InteractionDataset] = None,
        resume_from: "Path | str | None" = None,
        callbacks: Sequence[Callback] = (),
    ) -> TrainingHistory:
        """Run the step loop for up to ``config.epochs`` epochs.

        ``train`` may be a RAM-resident :class:`InteractionDataset`
        (wrapped in an :class:`~repro.data.stream.InMemorySource`,
        bit-exact with the historical path) or any
        :class:`~repro.data.stream.DataSource` -- the engine only ever
        sees one epoch-iterable of batches, so out-of-core training is
        the same loop.

        ``resume_from`` accepts a checkpoint file or a checkpoint
        directory (the newest *valid* snapshot is used); the run then
        continues bit-exactly from where the snapshot was taken,
        re-hydrating each callback's state from snapshot metadata.  The
        snapshot's ``batch_in_epoch`` is the stream cursor: the source
        skips that many batches while keeping its RNG stream aligned,
        so continuation is bit-exact on streaming sources too.
        """
        source = as_source(train)
        hooks = CallbackList(callbacks)
        ctx = TrainingContext(
            engine=self,
            model=self.model,
            optimizer=self.optimizer,
            config=self.config,
            history=TrainingHistory(),
            train=train,
            validation=validation,
            rng=self._rng,
            callbacks=hooks.callbacks,
        )
        # Every step goes through the runner, which owns every eager
        # fallback (the trace step, ragged batches, unlowerable ops).
        # Replays write parameter gradients straight into the plane.
        plane = self.optimizer.plane
        runner = self.plan_runner = PlanRunner(
            self.model,
            expected_batch_size=plan_rows(self.config),
            grad_buffers=plane.grad_buffers(),
        )
        start_epoch = 0
        skip_batches = 0

        if resume_from is not None:
            snapshot = self._resolve_resume(resume_from)
            self._restore(snapshot)
            ctx.history = TrainingHistory.from_dict(snapshot.history)
            ctx.best_metric = snapshot.best_metric
            ctx.stale = snapshot.stale
            start_epoch = snapshot.epoch
            skip_batches = snapshot.batch_in_epoch
            ctx.epoch_loss_sum = snapshot.epoch_loss_sum
            ctx.n_batches_done = snapshot.n_batches_done
            hooks.fire("on_resume", ctx, snapshot)
            log_event(
                logger,
                "resume",
                epoch=start_epoch,
                batch=skip_batches,
                lr=self.optimizer.lr,
            )
            if ctx.history.stopped_early:
                # The snapshotted run already finished via early
                # stopping; there is nothing left to train.
                log_event(logger, "resume_noop", reason="stopped_early")
                self.model.eval()
                return ctx.history

        self.model.train()
        with contextlib.ExitStack() as stack:
            hooks.fire("on_fit_start", ctx)
            # One pass over the source proves every sparse id is in
            # range, which lets the embedding layer skip its per-lookup
            # bounds checks for the whole run (trusted_indices).
            source.validate()
            if validation is not None:
                validation.validate()
            stack.enter_context(trusted_indices())
            self._enter_fit(ctx, stack)
            for epoch in range(start_epoch, self.config.epochs):
                ctx.epoch = epoch
                resuming_epoch = epoch == start_epoch and skip_batches > 0
                if not resuming_epoch:
                    ctx.epoch_loss_sum = 0.0
                    ctx.n_batches_done = 0
                ctx.epoch_start_rng = self._rng.bit_generator.state
                hooks.fire("on_epoch_start", ctx)
                start_batch = skip_batches if resuming_epoch else 0
                for i, batch in enumerate(
                    source.iter_batches(
                        self.config.batch_size,
                        rng=self._rng,
                        shuffle=self.config.shuffle,
                        drop_last=self.config.drop_last,
                        start_batch=start_batch,
                    ),
                    start=start_batch,
                ):
                    ctx.batch_index = i
                    ctx.batch = batch
                    hooks.fire("on_batch_start", ctx)
                    loss = self._forward(ctx, runner)
                    ctx.skip_step = False
                    hooks.fire("on_loss_computed", ctx)
                    if ctx.skip_step:
                        continue
                    self._backward(ctx, runner, loss)
                    hooks.fire("on_backward_end", ctx)
                    if self.config.grad_clip is not None:
                        clip_global_norm(plane, self.config.grad_clip)
                    self.optimizer.step()
                    ctx.epoch_loss_sum += ctx.loss_value
                    ctx.n_batches_done += 1
                    hooks.fire("on_batch_end", ctx)
                    if (
                        self.config.max_batches_per_epoch is not None
                        and i + 1 >= self.config.max_batches_per_epoch
                    ):
                        break
                ctx.history.epoch_losses.append(
                    ctx.epoch_loss_sum / max(ctx.n_batches_done, 1)
                )
                logger.debug(
                    "epoch %d: mean loss %.5f",
                    epoch,
                    ctx.history.epoch_losses[-1],
                )
                hooks.fire("on_epoch_end", ctx)
                if ctx.history.stopped_early:
                    break
        hooks.fire("on_fit_end", ctx)
        self.model.eval()
        return ctx.history

    # -- the step kernel (overridden by the sharded engine) ------------
    def _enter_fit(self, ctx: TrainingContext, stack: contextlib.ExitStack) -> None:
        """Acquire per-fit resources on ``stack`` (base: none).

        The sharded engine starts its worker pool here, so pool
        teardown rides the same ``ExitStack`` that unwinds the
        trusted-index mode -- including on exceptions.
        """

    def _forward(self, ctx: TrainingContext, runner: PlanRunner):
        """Compute the batch loss; sets ``ctx.loss_value``.

        A ``param.data`` rebound since the last step (a restore, a
        callback) is copied back into the parameter plane first, so the
        plan replays on the same arrays.  Returns an opaque handle passed
        back to :meth:`_backward` (the live loss tensor here; the sharded
        engine returns ``None`` and leaves the aggregated gradients in
        the plane instead).
        """
        self.optimizer.plane.adopt()
        loss = runner.forward(ctx.batch)
        ctx.loss_value = loss.item()
        return loss

    def _backward(self, ctx: TrainingContext, runner: PlanRunner, loss) -> None:
        """Populate every parameter's ``.grad`` for the pending step."""
        self.optimizer.zero_grad()
        runner.backward(loss)

    # -- resume plumbing -----------------------------------------------
    def _resolve_resume(self, resume_from: "Path | str") -> TrainingSnapshot:
        path = Path(resume_from)
        if path.is_dir():
            manager = CheckpointManager(path, keep=1)
            latest = manager.latest()
            if latest is None:
                raise CheckpointCorruptError(f"no valid checkpoint found in {path}")
            return manager.load(latest)
        return load_snapshot(path)

    def _restore(self, snapshot: TrainingSnapshot) -> None:
        self.model.load_state_dict(snapshot.model_state)
        self.optimizer.load_state_dict(snapshot.optimizer_state)
        if snapshot.trainer_rng_state is not None:
            self._rng.bit_generator.state = snapshot.trainer_rng_state
        rngs = self.module_rngs()
        if snapshot.module_rng_states:
            if len(snapshot.module_rng_states) != len(rngs):
                raise CheckpointCorruptError(
                    f"snapshot has {len(snapshot.module_rng_states)} module "
                    f"RNG states, model has {len(rngs)}"
                )
            for gen, state in zip(rngs, snapshot.module_rng_states):
                gen.bit_generator.state = state

    def module_rngs(self) -> List[np.random.Generator]:
        """Every generator held by the model's modules, in stable order.

        Stochastic layers (dropout) draw from these during forward
        passes; capturing them makes resumed training bit-exact even
        when such layers are active.
        """
        return collect_module_rngs(self.model)


def plan_rows(config: TrainConfig) -> int:
    """Rows of the batches a fit traces its plan at: a full batch, or
    its first shard when the fit is sharded.

    Contiguous shards of a full batch have fixed sizes, so every venue
    traces once and replays from then on; a ragged batch or a
    re-sharded step misses the plan's signature and runs eagerly.
    """
    return shard_sizes(config.batch_size, config.effective_shards)[0]


def collect_module_rngs(model: MultiTaskModel) -> List[np.random.Generator]:
    """Every generator held by ``model``'s modules, in stable order.

    Shared by the engine (checkpointing RNG states) and the parallel
    workers (reseeding their forked copies per shard so dropout draws
    are venue-independent).
    """
    rngs: List[np.random.Generator] = []
    seen = set()
    for module in model.modules():
        for name in sorted(vars(module)):
            value = vars(module)[name]
            if isinstance(value, np.random.Generator) and id(value) not in seen:
                seen.add(id(value))
                rngs.append(value)
    return rngs


# ----------------------------------------------------------------------
def create_engine(model: MultiTaskModel, config: TrainConfig) -> TrainingEngine:
    """Engine factory: the sharded engine when parallel knobs are set.

    ``num_workers``/``num_shards`` unset returns the plain
    :class:`TrainingEngine` -- existing configs run the exact loop they
    always did, golden-pinned.
    """
    if config.parallel_enabled:
        from repro.training.parallel import ShardedTrainingEngine

        return ShardedTrainingEngine(model, config)
    return TrainingEngine(model, config)


def fit_model(
    model: MultiTaskModel,
    train: "InteractionDataset | DataSource",
    config: Optional[TrainConfig] = None,
    validation: Optional[InteractionDataset] = None,
    callbacks: Sequence[Callback] = (),
    resume_from: "Path | str | None" = None,
) -> TrainingHistory:
    """Train ``model`` with the paper's protocol (Adam + L2).

    The ``lambda_2 ||theta||^2`` regularizer of Eq. (14) is applied as
    optimizer weight decay.  The fit runs validation/early stopping
    (``config.early_stopping_patience``) first, then any extra
    ``callbacks`` in order.  ``resume_from`` accepts a checkpoint file
    or directory and continues that run bit-exactly.
    """
    config = config or TrainConfig()
    return create_engine(model, config).fit(
        train,
        validation=validation,
        resume_from=resume_from,
        callbacks=[ValidationCallback(config.early_stopping_patience), *callbacks],
    )
