"""Fault-tolerant data-parallel training: a supervised worker pool.

:class:`ShardedTrainingEngine` splits every batch into contiguous row
shards (:func:`repro.data.stream.shard_batch`), computes per-shard
gradients, and reduces them in a deterministic seeded order -- a
weighted left-fold over shard index, sparse-aware so embedding
gradients stay :class:`~repro.autograd.sparse.SparseRowGrad` end to
end.  The per-shard compute and the reduction are the *same functions*
whether shards run in a pool of forked ``multiprocessing`` workers or
serially in-process, which is what makes the headline property cheap
to state and test: **a K-worker parallel run is bit-exact with a
K-shard single-process run.**  (Sharded runs differ from the plain
unsharded engine by float non-associativity once ``K > 1``; the plain
engine is untouched and stays golden-pinned.)

The robustness layer is :class:`WorkerSupervisor`:

* **stateless workers** -- the parent holds the authoritative model and
  optimizer.  Workers read parameters from one anonymous shared
  mapping the parent refreshes once per step, so a task carries only
  its shard, and a worker that dies forfeits nothing but one shard of
  one step;
* **heartbeats** -- a daemon thread in every worker beats on the pipe,
  letting the supervisor tell "stuck but alive" (a straggler, worth a
  retry elsewhere) from "frozen or dead" (declare lost now);
* **per-dispatch deadlines** -- a missed deadline re-dispatches the
  shard to an idle survivor after a seeded-jitter backoff
  (:func:`~repro.reliability.timeouts.jittered_backoff`); repeated
  strikes get the worker SIGKILLed as lost;
* **graceful degradation** -- any worker loss abandons the in-flight
  step and re-shards it across survivors (bit-exactness explicitly
  traded for availability, recorded as a structured
  :class:`~repro.reliability.guards.GuardEvent` in the history);
  losing the ``min_workers`` quorum escalates to single-process
  fallback, or a hard
  :class:`~repro.reliability.errors.WorkerPoolError` abort when
  fallback is disabled.

Every supervision decision appends a line to a transcript keyed only
by ``(epoch, batch, step)`` -- no wall-clock values, no detection-path
detail -- so same-seed :class:`TrainerChaosDrill` runs produce
bit-identical transcripts even though kills race between pipe-EOF and
heartbeat-timeout detection.  :class:`UnsupervisedWorkerPool` is the
strawman the drill beats: same workers, blocking collect, no
heartbeats or deadlines -- one SIGKILL aborts it, one hang deadlocks
it (a watchdog raises in tests so CI never hangs for real).
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.sparse import SparseRowGrad, sparse_grads
from repro.data.dataset import Batch
from repro.data.stream import as_source, shard_batch
from repro.models.base import MultiTaskModel
from repro.nn.embedding import trusted_indices
from repro.optim.optimizer import Optimizer
from repro.reliability.errors import WorkerPoolError
from repro.reliability.faults import (
    WORKER_HANG,
    WORKER_KILL,
    WORKER_SLOW,
    TrainerFaultSpec,
    WorkerFault,
    build_trainer_fault_schedule,
)
from repro.reliability.guards import GuardEvent
from repro.reliability.timeouts import Deadline, jittered_backoff
from repro.training.callbacks.base import Callback, TrainingContext
from repro.training.config import TrainConfig
from repro.training.engine import TrainingEngine, collect_module_rngs
from repro.training.history import TrainingHistory
from repro.utils.logging import get_logger, log_event

logger = get_logger("training.parallel")

#: How long a hang-faulted worker sleeps -- far past any deadline, so a
#: hang is indistinguishable from a real wedged computation.
_HANG_SLEEP_S = 3600.0


# ----------------------------------------------------------------------
# Shard compute + deterministic reduction (shared by both venues).
# ----------------------------------------------------------------------
def reseed_module_rngs(
    rngs: Sequence[np.random.Generator],
    seed: int,
    epoch: int,
    batch_index: int,
    shard_index: int,
) -> None:
    """Reseed the model's module RNGs for one shard forward pass.

    Keyed by ``(seed, epoch, batch, shard, rng_index)`` through
    ``SeedSequence``, so stochastic layers (dropout) draw identically
    whether the shard runs in a forked worker or serially in-process --
    the venue-independence the bit-exactness guarantee rests on.
    """
    for i, gen in enumerate(rngs):
        fresh = np.random.default_rng(
            np.random.SeedSequence([seed, epoch, batch_index, shard_index, i])
        )
        gen.bit_generator.state = fresh.bit_generator.state


def compute_shard_gradients(
    model: MultiTaskModel,
    params: Sequence[Any],
    shard: Batch,
    rngs: Sequence[np.random.Generator],
    *,
    seed: int,
    epoch: int,
    batch_index: int,
    shard_index: int,
) -> Tuple[float, List[Any]]:
    """Loss value and per-parameter gradients for one shard.

    The single compute kernel of the parallel mode: workers call it on
    their forked model copy, the serial sharded path calls it on the
    parent model, and because it is the same function over the same
    bits the two venues agree exactly.  ``params`` is
    ``model.parameters()``, taken once per fit by the caller.
    """
    reseed_module_rngs(rngs, seed, epoch, batch_index, shard_index)
    for param in params:
        param.zero_grad()
    loss = model.loss(shard)
    value = loss.item()
    loss.backward()
    return value, [p.grad for p in params]


def reduce_shard_losses(values: Sequence[float], sizes: Sequence[int]) -> float:
    """Row-weighted mean of shard losses, folded in shard order."""
    if len(values) == 1:
        return values[0]
    total = float(sum(sizes))
    acc = 0.0
    for value, size in zip(values, sizes):
        acc += (size / total) * value
    return acc


def _scaled(grad: Any, weight: float) -> Any:
    if isinstance(grad, SparseRowGrad):
        return SparseRowGrad(grad.indices, grad.values * weight, grad.shape)
    return grad * weight


def _accumulated(acc: Any, grad: Any) -> Any:
    """Fold ``grad`` into ``acc`` (both already scaled; ``acc`` owned)."""
    if isinstance(acc, SparseRowGrad):
        if isinstance(grad, SparseRowGrad):
            return acc.merge(grad)
        return acc.add_to(grad)
    if isinstance(grad, SparseRowGrad):
        return grad.add_to(acc)
    acc += grad
    return acc


def reduce_shard_grads(
    shard_grads: Sequence[List[Any]], sizes: Sequence[int]
) -> List[Any]:
    """Row-weighted sum of per-shard gradient lists, in shard order.

    The fold visits shards strictly by index (never by arrival order),
    so the reduction is a pure function of the shard results -- the
    deterministic seeded aggregation order of the tentpole.  Sparse
    embedding gradients merge as :class:`SparseRowGrad` (union of rows,
    searchsorted adds) without ever densifying; a shard that left a
    parameter untouched (``None`` grad) contributes nothing.  With a
    single shard the gradients pass through untouched, keeping the
    degenerate K=1 case bit-exact with the plain engine.
    """
    if len(shard_grads) == 1:
        return list(shard_grads[0])
    total = float(sum(sizes))
    reduced: List[Any] = []
    for param_index in range(len(shard_grads[0])):
        acc: Any = None
        for shard_index, grads in enumerate(shard_grads):
            grad = grads[param_index]
            if grad is None:
                continue
            scaled = _scaled(grad, sizes[shard_index] / total)
            acc = scaled if acc is None else _accumulated(acc, scaled)
        reduced.append(acc)
    return reduced


# ----------------------------------------------------------------------
# Shared parameters: one anonymous mapping, published once per step.
# ----------------------------------------------------------------------
class _SharedParameters:
    """Every parameter's bytes in one anonymous shared mapping.

    Created before the pool forks, so parent and workers map the same
    pages without a name, a ``/dev/shm`` entry or a resource tracker.
    The mapping holds one float64 view per parameter in
    ``model.parameters()`` order; each worker binds its parameters to
    read-only views once, and the parent copies its live arrays in
    with :meth:`publish`.

    The invariant that keeps pool runs bit-exact: the parent writes the
    mapping only between steps (once per step, before the first
    dispatch, never on a re-shard retry), and it accepts only results
    of tasks sent after that step's publish.  A straggler still busy
    with an older task may read a later step's bytes, but its result
    arrives under a task id that is no longer pending and is dropped.
    """

    def __init__(self, params: Sequence[Any]) -> None:
        self.params = list(params)
        offsets, end = [], 0
        for param in self.params:
            offsets.append(end)
            # Each view starts on a cache-line (64-byte) boundary.
            end += -(-param.data.nbytes // 64) * 64
        self._buffer = mmap.mmap(-1, max(end, 1))
        self.views = [
            np.frombuffer(
                self._buffer, np.float64, param.data.size, offset
            ).reshape(param.data.shape)
            for param, offset in zip(self.params, offsets)
        ]

    def publish(self) -> None:
        """Copy the parent's current parameter arrays into the mapping.

        Reads ``param.data`` afresh, so an array rebound mid-fit (a
        restore, a callback) is what the workers see next.
        """
        for param, view in zip(self.params, self.views):
            if param.data.shape != view.shape:
                raise WorkerPoolError(
                    f"parameter {param.name or '?'} changed shape from "
                    f"{view.shape} to {param.data.shape} while the pool "
                    "was running; restart the fit to re-map it"
                )
            np.copyto(view, param.data)

    def bind_readonly(self, params: Sequence[Any]) -> None:
        """Worker side: point every ``param.data`` at its mapped bytes."""
        for param, view in zip(params, self.views):
            readonly = view.view()
            readonly.flags.writeable = False
            param.data = readonly


def _send_task(conn, msg: Tuple[Any, ...]) -> int:
    """Pickle one task message onto ``conn``; returns the bytes sent."""
    payload = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(payload)
    return len(payload)


# ----------------------------------------------------------------------
# Worker process: heartbeat thread + shard-compute loop over a pipe.
# ----------------------------------------------------------------------
def _encode_grad(grad: Any) -> Any:
    if grad is None:
        return None
    if isinstance(grad, SparseRowGrad):
        return ("sparse", grad.indices, grad.values, grad.shape)
    return ("dense", grad)


def _decode_grad(payload: Any) -> Any:
    if payload is None:
        return None
    if payload[0] == "sparse":
        return SparseRowGrad(payload[1], payload[2], payload[3])
    return payload[1]


def _heartbeat_loop(conn, lock, slot, interval_s, stop) -> None:
    while not stop.wait(interval_s):
        try:
            with lock:
                conn.send(("hb", slot))
        except (BrokenPipeError, OSError):
            return


def _worker_main(
    conn,
    slot: int,
    model: MultiTaskModel,
    shared: _SharedParameters,
    sparse: bool,
    heartbeat_s: float,
) -> None:
    """Forked worker: receive tasks, compute shard gradients, reply.

    Workers are stateless between tasks: their parameters are
    read-only views of the shared mapping, which the parent refreshes
    before each step's dispatches, so a task carries only its shard and
    the parent never has to resynchronise a survivor after a loss.  The
    heartbeat thread shares the pipe under a lock; any traffic (beat or
    result) proves liveness to the supervisor.
    """
    params = model.parameters()
    shared.bind_readonly(params)
    rngs = collect_module_rngs(model)
    lock = threading.Lock()
    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        args=(conn, lock, slot, heartbeat_s, stop),
        daemon=True,
    ).start()
    model.train()
    with contextlib.ExitStack() as stack:
        if sparse:
            stack.enter_context(sparse_grads(True))
        stack.enter_context(trusted_indices())
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            _, task_id, step_key, shard, shard_index, fault = msg
            if fault == "hang":
                time.sleep(_HANG_SLEEP_S)
                continue  # never answer: the task is forfeit
            if isinstance(fault, float):
                time.sleep(fault)
            seed, epoch, batch_index = step_key
            try:
                value, grads = compute_shard_gradients(
                    model,
                    params,
                    shard,
                    rngs,
                    seed=seed,
                    epoch=epoch,
                    batch_index=batch_index,
                    shard_index=shard_index,
                )
                reply = (
                    "result",
                    task_id,
                    value,
                    [_encode_grad(g) for g in grads],
                )
            except Exception as exc:  # surfaced as a worker_error loss
                reply = ("error", task_id, f"{type(exc).__name__}: {exc}")
            try:
                with lock:
                    conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    stop.set()


# ----------------------------------------------------------------------
# The supervisor.
# ----------------------------------------------------------------------
class _StepAbandoned(Exception):
    """Internal: a worker was lost mid-step; re-shard and retry."""


class _WorkerHandle:
    __slots__ = (
        "slot",
        "name",
        "process",
        "conn",
        "alive",
        "last_heartbeat",
        "strikes",
        "inflight",
    )

    def __init__(self, slot, process, conn, clock) -> None:
        self.slot = slot
        self.name = f"worker-{slot}"
        self.process = process
        self.conn = conn
        self.alive = True
        self.last_heartbeat = clock()
        self.strikes = 0
        self.inflight = 0


@dataclass
class WorkerPoolStats:
    """Supervision counters (timing-free; safe to assert in tests)."""

    dispatches: int = 0
    results: int = 0
    stale_results: int = 0
    deadline_misses: int = 0
    redispatches: int = 0
    workers_lost: int = 0
    resharded: int = 0
    faults_applied: int = 0
    #: Pickled task bytes written to worker pipes.
    bytes_sent: int = 0
    #: Pickled result bytes read back (heartbeats are not counted).
    bytes_received: int = 0


@dataclass
class StepResult:
    """One aggregated optimizer step's worth of gradients."""

    loss_value: float
    grads: List[Any]
    n_shards: int


def _spawn_workers(
    model: MultiTaskModel, config: TrainConfig, n_workers: int, clock
) -> Tuple[List[_WorkerHandle], _SharedParameters]:
    """Fork ``n_workers`` shard-compute processes, one duplex pipe each.

    The shared parameter mapping is created first, so every worker
    inherits it through the fork.
    """
    if "fork" not in mp.get_all_start_methods():
        raise WorkerPoolError(
            "data-parallel training requires the 'fork' start method"
        )
    ctx = mp.get_context("fork")
    shared = _SharedParameters(model.parameters())
    handles: List[_WorkerHandle] = []
    for slot in range(n_workers):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                slot,
                model,
                shared,
                config.sparse_embedding_grads,
                config.heartbeat_interval_s,
            ),
            name=f"trainer-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handles.append(_WorkerHandle(slot, process, parent_conn, clock))
    return handles, shared


def _stop_workers(handles: Sequence[_WorkerHandle]) -> None:
    for handle in handles:
        if handle.alive:
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
    for handle in handles:
        handle.process.join(timeout=2.0)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=2.0)
        with contextlib.suppress(OSError):
            handle.conn.close()
        handle.alive = False


class WorkerSupervisor:
    """Dispatches shards to a worker pool and survives its failures.

    One :meth:`compute_step` call turns one batch into one aggregated
    gradient.  Internally it is a work-queue scheduler: shards are
    dispatched only to *idle* live workers (so the parent can never
    block on a pipe to a wedged process), results are collected with
    ``multiprocessing.connection.wait``, and four escalation rungs
    guard progress:

    1. deadline miss with a fresh heartbeat -> straggler: strike the
       worker, seeded-jitter backoff, re-dispatch the shard to an idle
       survivor (the stale result is discarded on arrival);
    2. deadline miss with a stale heartbeat, pipe EOF, or a worker
       error reply -> the worker is lost;
    3. ``worker_retries`` consecutive strikes (misses now, bench sweeps
       at later step starts) -> SIGKILL, lost;
    4. any loss -> abandon the step's partial results, degrade the
       shard count to the survivors, and re-shard the whole step --
       recorded as ``worker_lost`` / ``step_resharded`` events.

    Below ``min_workers`` live workers, :meth:`compute_step` raises
    :class:`WorkerPoolError`; the engine converts that into
    single-process fallback (or a hard abort).  Transcript lines carry
    only ``(epoch, batch, step)`` positions and schedule-driven facts,
    never wall-clock readings, so same-seed drills are bit-identical.
    """

    def __init__(
        self,
        model: MultiTaskModel,
        config: TrainConfig,
        *,
        fault_schedule: Sequence[WorkerFault] = (),
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if config.num_workers is None:
            raise ValueError("WorkerSupervisor needs config.num_workers set")
        self.model = model
        self.config = config
        self.fault_schedule = list(fault_schedule)
        self._announced_faults: set = set()
        self._rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 0x5AFE])
        )
        self._clock = clock
        self._sleep = sleep
        self.transcript: List[str] = []
        self.events: List[GuardEvent] = []
        self.stats = WorkerPoolStats()
        self.workers: List[_WorkerHandle] = []
        self._shared: Optional[_SharedParameters] = None
        self.current_shards = config.effective_shards
        self.step = 0
        self._current_step = 0
        self._task_counter = 0
        self._started = False
        #: Live-worker count frozen at :meth:`stop` (``_stop_workers``
        #: marks every handle dead, so ``n_live`` is 0 afterwards).
        self.final_live = 0

    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        return sum(1 for h in self.workers if h.alive)

    def start(self) -> None:
        if self._started:
            return
        self.workers, self._shared = _spawn_workers(
            self.model, self.config, self.config.num_workers, self._clock
        )
        self._started = True
        log_event(logger, "worker_pool_started", workers=len(self.workers))

    def stop(self) -> None:
        if not self._started:
            return
        self.final_live = self.n_live
        _stop_workers(self.workers)
        self._shared = None
        self._started = False
        log_event(logger, "worker_pool_stopped", lost=self.stats.workers_lost)

    def drain_events(self) -> List[GuardEvent]:
        """Hand the pending structured events to the engine (once)."""
        out, self.events = self.events, []
        return out

    # ------------------------------------------------------------------
    def compute_step(
        self, batch: Batch, epoch: int, batch_index: int
    ) -> StepResult:
        """One batch -> one deterministic aggregated gradient."""
        if not self._started:
            raise WorkerPoolError("worker pool is not running")
        step = self.step
        self.step += 1
        self._current_step = step
        self._sweep_stuck(epoch, batch_index)
        self._apply_faults(epoch, batch_index, step)
        self._shared.publish()
        while True:
            self._require_quorum(epoch, batch_index)
            shards = shard_batch(batch, self.current_shards)
            sizes = [s.size for s in shards]
            try:
                results = self._run_shards(shards, epoch, batch_index, step)
            except _StepAbandoned:
                continue
            values = [results[i][0] for i in range(len(shards))]
            grads = [results[i][1] for i in range(len(shards))]
            return StepResult(
                reduce_shard_losses(values, sizes),
                reduce_shard_grads(grads, sizes),
                len(shards),
            )

    # -- bookkeeping ----------------------------------------------------
    def _record(
        self,
        epoch: int,
        batch: int,
        reason: str,
        detail: str,
        value: float,
        action: str,
    ) -> None:
        self.transcript.append(
            f"[e{epoch:02d} b{batch:04d} s{self._current_step:05d}] "
            f"{reason} {detail}"
        )
        self.events.append(
            GuardEvent(
                epoch=epoch,
                batch=batch,
                reason=reason,
                value=float(value),
                action=action,
            )
        )

    def _require_quorum(self, epoch: int, batch: int) -> None:
        if self.n_live >= self.config.min_workers:
            return
        self._record(
            epoch,
            batch,
            "worker_quorum_lost",
            f"live={self.n_live} min={self.config.min_workers}",
            value=self.n_live,
            action="abort_pool",
        )
        raise WorkerPoolError(
            f"worker quorum lost: {self.n_live} live < "
            f"min_workers={self.config.min_workers}"
        )

    def _declare_lost(self, handle: _WorkerHandle, epoch: int, batch: int) -> None:
        if not handle.alive:
            return
        handle.alive = False
        with contextlib.suppress(ProcessLookupError, OSError):
            os.kill(handle.process.pid, signal.SIGKILL)
        handle.process.join(timeout=2.0)
        with contextlib.suppress(OSError):
            handle.conn.close()
        self.stats.workers_lost += 1
        self._record(
            epoch,
            batch,
            "worker_lost",
            f"{handle.name} live={self.n_live}",
            value=handle.slot,
            action="reshard_survivors",
        )
        self._degrade(epoch, batch)

    def _degrade(self, epoch: int, batch: int) -> None:
        new_shards = min(self.current_shards, max(self.n_live, 1))
        if new_shards == self.current_shards:
            return
        self.current_shards = new_shards
        self.stats.resharded += 1
        self._record(
            epoch,
            batch,
            "step_resharded",
            f"shards={new_shards}",
            value=new_shards,
            action="degrade_shards",
        )

    def _sweep_stuck(self, epoch: int, batch: int) -> None:
        """Step-start probation of workers still chewing an old task."""
        for handle in self.workers:
            if not handle.alive or handle.inflight == 0:
                continue
            if (
                self._clock() - handle.last_heartbeat
                > self.config.heartbeat_timeout_s
            ):
                self._declare_lost(handle, epoch, batch)
                continue
            handle.strikes += 1
            if handle.strikes > self.config.worker_retries:
                self._declare_lost(handle, epoch, batch)

    def _apply_faults(self, epoch: int, batch: int, step: int) -> None:
        for fault in self.fault_schedule:
            if fault.worker >= len(self.workers):
                continue
            handle = self.workers[fault.worker]
            if fault.kind == WORKER_KILL:
                if fault.start == step and handle.alive:
                    self._record(
                        epoch,
                        batch,
                        "worker_fault",
                        f"worker_kill {handle.name}",
                        value=fault.worker,
                        action="sigkill",
                    )
                    self.stats.faults_applied += 1
                    with contextlib.suppress(ProcessLookupError, OSError):
                        os.kill(handle.process.pid, signal.SIGKILL)
            elif fault.active(step) and id(fault) not in self._announced_faults:
                self._announced_faults.add(id(fault))
                self._record(
                    epoch,
                    batch,
                    "worker_fault",
                    f"{fault.kind} {handle.name}",
                    value=fault.worker,
                    action="inject",
                )
                self.stats.faults_applied += 1

    def _fault_payload(self, slot: int, step: int):
        """What fault, if any, rides a task dispatched to ``slot`` now."""
        for fault in self.fault_schedule:
            if fault.worker == slot and fault.active(step):
                if fault.kind == WORKER_HANG:
                    return "hang"
                if fault.kind == WORKER_SLOW:
                    return float(fault.latency_s)
        return None

    # -- the work-queue scheduler ---------------------------------------
    def _run_shards(
        self, shards: List[Batch], epoch: int, batch: int, step: int
    ) -> Dict[int, Tuple[float, List[Any]]]:
        queue: deque = deque(range(len(shards)))
        pending: Dict[int, Tuple[int, _WorkerHandle, Deadline]] = {}
        results: Dict[int, Tuple[float, List[Any]]] = {}
        stall = Deadline(self.config.worker_deadline_s, self._clock)
        while len(results) < len(shards):
            if self._dispatch_wave(queue, pending, shards, epoch, batch, step):
                stall = Deadline(self.config.worker_deadline_s, self._clock)
            if pending:
                timeout = max(
                    0.0,
                    min(
                        min(d.remaining() for _, _, d in pending.values()),
                        self.config.heartbeat_timeout_s,
                    ),
                )
            else:
                # Every dispatchable worker is busy draining an
                # abandoned task; wait for stale results to free one.
                if stall.expired():
                    for handle in self.workers:
                        if handle.alive and handle.inflight:
                            self._declare_lost(handle, epoch, batch)
                    raise _StepAbandoned
                timeout = min(0.05, max(stall.remaining(), 0.0))
            if self._drain(timeout, pending, results, epoch, batch):
                stall = Deadline(self.config.worker_deadline_s, self._clock)
            self._check_deadlines(pending, queue, epoch, batch)
        return results

    def _dispatch_wave(self, queue, pending, shards, epoch, batch, step) -> int:
        sent = 0
        for handle in self.workers:
            if not queue:
                break
            if not handle.alive or handle.inflight:
                continue
            shard_index = queue.popleft()
            task_id = self._task_counter
            self._task_counter += 1
            try:
                self.stats.bytes_sent += _send_task(
                    handle.conn,
                    (
                        "task",
                        task_id,
                        (self.config.seed, epoch, batch),
                        shards[shard_index],
                        shard_index,
                        self._fault_payload(handle.slot, step),
                    ),
                )
            except (BrokenPipeError, OSError):
                self._declare_lost(handle, epoch, batch)
                raise _StepAbandoned from None
            handle.inflight += 1
            self.stats.dispatches += 1
            pending[task_id] = (
                shard_index,
                handle,
                Deadline(self.config.worker_deadline_s, self._clock),
            )
            sent += 1
        return sent

    def _drain(self, timeout, pending, results, epoch, batch) -> bool:
        conns = {h.conn: h for h in self.workers if h.alive}
        if not conns:
            return False
        progressed = False
        for conn in connection.wait(list(conns), timeout):
            handle = conns[conn]
            try:
                while True:
                    payload = conn.recv_bytes()
                    msg = pickle.loads(payload)
                    if msg[0] == "result":
                        self.stats.bytes_received += len(payload)
                    progressed |= self._on_message(
                        handle, msg, pending, results, epoch, batch
                    )
                    if not conn.poll():
                        break
            except (EOFError, ConnectionResetError, OSError):
                self._declare_lost(handle, epoch, batch)
                raise _StepAbandoned from None
        return progressed

    def _on_message(
        self, handle, msg, pending, results, epoch, batch
    ) -> bool:
        handle.last_heartbeat = self._clock()
        kind = msg[0]
        if kind == "hb":
            return False
        if kind == "result":
            _, task_id, value, encoded = msg
            handle.inflight = max(handle.inflight - 1, 0)
            handle.strikes = 0
            if task_id in pending:
                shard_index, _, _ = pending.pop(task_id)
                results[shard_index] = (
                    value,
                    [_decode_grad(g) for g in encoded],
                )
                self.stats.results += 1
            else:
                self.stats.stale_results += 1
            return True
        if kind == "error":
            _, task_id, detail = msg
            handle.inflight = max(handle.inflight - 1, 0)
            log_event(
                logger,
                "worker_error",
                level=30,
                worker=handle.name,
                error=detail,
            )
            self._record(
                epoch,
                batch,
                "worker_error",
                f"{handle.name}",
                value=handle.slot,
                action="declare_lost",
            )
            self._declare_lost(handle, epoch, batch)
            raise _StepAbandoned
        return False

    def _check_deadlines(self, pending, queue, epoch, batch) -> None:
        for task_id in list(pending):
            shard_index, handle, deadline = pending[task_id]
            if not deadline.expired():
                continue
            if (
                self._clock() - handle.last_heartbeat
                > self.config.heartbeat_timeout_s
            ):
                # No beats either: frozen or silently dead, not slow.
                del pending[task_id]
                self._declare_lost(handle, epoch, batch)
                raise _StepAbandoned
            self.stats.deadline_misses += 1
            handle.strikes += 1
            del pending[task_id]
            self._record(
                epoch,
                batch,
                "worker_deadline_miss",
                f"{handle.name} shard={shard_index}",
                value=shard_index,
                action="redispatch",
            )
            if handle.strikes > self.config.worker_retries:
                self._declare_lost(handle, epoch, batch)
                raise _StepAbandoned
            # Seeded-jitter backoff before a survivor takes the shard;
            # the draw always happens so the RNG stream stays aligned.
            u = float(self._rng.random())
            pause = jittered_backoff(
                self.config.worker_backoff_s,
                self.config.worker_backoff_jitter,
                u,
            )
            self.stats.redispatches += 1
            self._record(
                epoch,
                batch,
                "worker_redispatch",
                f"shard={shard_index} jitter={u:.6f}",
                value=u,
                action="backoff",
            )
            if pause > 0:
                self._sleep(pause)
            queue.append(shard_index)


# ----------------------------------------------------------------------
# The sharded engine.
# ----------------------------------------------------------------------
class ParallelStateCallback(Callback):
    """Rides the sharded engine's fits: parallel state in checkpoints.

    ``checkpoint_metadata`` stores the parallel knobs and the *current*
    effective shard count, so a resumed run can tell whether it is
    venue-compatible with the snapshot.  ``on_resume`` only warns on a
    mismatch -- cross-mode resume (parallel checkpoint into a serial
    engine and back) must always work; bit-exactness is simply only
    guaranteed at a fixed shard count.
    """

    def __init__(self, engine: "ShardedTrainingEngine") -> None:
        self.engine = engine

    def checkpoint_metadata(self, ctx: TrainingContext) -> Dict[str, Any]:
        return {"parallel": self.engine.parallel_metadata()}

    def on_resume(self, ctx: TrainingContext, snapshot) -> None:
        meta = (snapshot.metadata or {}).get("parallel")
        if not isinstance(meta, dict):
            return
        before = meta.get("effective_shards")
        now = self.engine.config.effective_shards
        if before is not None and int(before) != int(now):
            log_event(
                logger,
                "resume_shard_count_changed",
                level=30,
                snapshot_shards=int(before),
                current_shards=int(now),
            )


class ShardedTrainingEngine(TrainingEngine):
    """The engine's step kernel routed through sharded gradients.

    Three modes share one code path:

    * ``num_shards`` alone -- the *serial sharded* loop: shards computed
      in-process, same reduction.  The bit-exact single-process
      reference for any equal-shard-count parallel run.
    * ``num_workers`` set -- shards dispatched to the supervised pool.
    * fallback -- after losing the worker quorum (with
      ``single_process_fallback``) the fit continues through the serial
      sharded loop at the degraded shard count, mid-epoch, on the same
      optimizer state.

    Everything else -- callbacks, checkpoint/resume, streaming sources,
    validation, guards -- is inherited unchanged from
    :class:`TrainingEngine`; the override surface is exactly the step
    kernel seams (``_enter_fit`` / ``_forward`` / ``_backward``).
    """

    def __init__(
        self,
        model: MultiTaskModel,
        config: TrainConfig,
        optimizer: Optional[Optimizer] = None,
        callbacks: Sequence[Callback] = (),
        fault_schedule: Sequence[WorkerFault] = (),
    ) -> None:
        super().__init__(model, config, optimizer=optimizer, callbacks=callbacks)
        if not config.parallel_enabled:
            raise ValueError(
                "ShardedTrainingEngine needs num_workers or num_shards > 1 "
                "set; use TrainingEngine (or create_engine) otherwise"
            )
        self.fault_schedule = list(fault_schedule)
        self.supervisor: Optional[WorkerSupervisor] = None
        self._fallback = False
        self._pending_grads: Optional[List[Any]] = None
        self._current_shards = config.effective_shards
        self._module_rngs: List[np.random.Generator] = []

    # ------------------------------------------------------------------
    @property
    def fell_back(self) -> bool:
        """Whether this fit abandoned the pool for in-process training."""
        return self._fallback

    @property
    def transcript(self) -> List[str]:
        """The supervisor's deterministic event transcript (or empty)."""
        return self.supervisor.transcript if self.supervisor is not None else []

    def parallel_metadata(self) -> Dict[str, Any]:
        """JSON-able parallel state stored in checkpoint metadata."""
        return {
            "num_workers": self.config.num_workers,
            "num_shards": self.config.num_shards,
            "effective_shards": int(self._current_shards),
            "fell_back": bool(self._fallback),
            "min_workers": int(self.config.min_workers),
            "worker_deadline_s": float(self.config.worker_deadline_s),
            "heartbeat_timeout_s": float(self.config.heartbeat_timeout_s),
        }

    # ------------------------------------------------------------------
    def fit(self, train, validation=None, resume_from=None, callbacks=None):
        resolved = list(self.callbacks if callbacks is None else callbacks)
        resolved.append(ParallelStateCallback(self))
        return super().fit(
            train,
            validation=validation,
            resume_from=resume_from,
            callbacks=resolved,
        )

    # -- step kernel overrides ------------------------------------------
    def _enter_fit(self, ctx: TrainingContext, stack) -> None:
        self._module_rngs = collect_module_rngs(self.model)
        self._fallback = False
        self._pending_grads = None
        self._current_shards = self.config.effective_shards
        if self.config.num_workers is not None:
            self.supervisor = WorkerSupervisor(
                self.model, self.config, fault_schedule=self.fault_schedule
            )
            self.supervisor.start()
            # Teardown rides the fit's ExitStack: the pool dies with the
            # loop, including when a callback or the kernel raises.
            stack.callback(self.supervisor.stop)

    def _forward(self, ctx: TrainingContext, runner) -> None:
        if self.supervisor is not None and not self._fallback:
            try:
                result = self.supervisor.compute_step(
                    ctx.batch, ctx.epoch, ctx.batch_index
                )
            except WorkerPoolError:
                self._current_shards = self.supervisor.current_shards
                if not self.config.single_process_fallback:
                    ctx.history.events.extend(self.supervisor.drain_events())
                    raise
                self.supervisor._record(
                    ctx.epoch,
                    ctx.batch_index,
                    "single_process_fallback",
                    f"shards={self._current_shards}",
                    value=self._current_shards,
                    action="serial_engine",
                )
                ctx.history.events.extend(self.supervisor.drain_events())
                self.supervisor.stop()
                self._fallback = True
                log_event(
                    logger,
                    "single_process_fallback",
                    shards=self._current_shards,
                )
            else:
                self._current_shards = self.supervisor.current_shards
                ctx.history.events.extend(self.supervisor.drain_events())
                ctx.loss_value = result.loss_value
                self._pending_grads = result.grads
                return None
        value, grads = self._serial_step(ctx)
        ctx.loss_value = value
        self._pending_grads = grads
        return None

    def _serial_step(self, ctx: TrainingContext) -> Tuple[float, List[Any]]:
        """The in-process sharded step: the pool's bit-exact reference."""
        shards = shard_batch(ctx.batch, self._current_shards)
        sizes = [shard.size for shard in shards]
        values: List[float] = []
        grads: List[List[Any]] = []
        for shard_index, shard in enumerate(shards):
            value, shard_grads = compute_shard_gradients(
                self.model,
                self._params,
                shard,
                self._module_rngs,
                seed=self.config.seed,
                epoch=ctx.epoch,
                batch_index=ctx.batch_index,
                shard_index=shard_index,
            )
            values.append(value)
            grads.append(shard_grads)
        return (
            reduce_shard_losses(values, sizes),
            reduce_shard_grads(grads, sizes),
        )

    def _backward(self, ctx: TrainingContext, runner, loss) -> None:
        self.optimizer.zero_grad()
        for param, grad in zip(self._params, self._pending_grads):
            param.grad = grad
        self._pending_grads = None


# ----------------------------------------------------------------------
# The strawman and the drill.
# ----------------------------------------------------------------------
class UnsupervisedWorkerPool:
    """Same workers, no supervision: the control arm of the chaos drill.

    Dispatches shard ``i`` to worker ``i`` with blocking sends and
    blocking per-worker collects -- no heartbeat interpretation, no
    deadlines, no re-dispatch, no degradation.  On the fault schedules
    the supervised pool shrugs off, this pool aborts (SIGKILL -> pipe
    EOF -> :class:`WorkerPoolError`) or stalls forever on a hang.  The
    optional ``watchdog_s`` exists only so tests observe the deadlock
    as a raised :class:`WorkerPoolError` instead of hanging CI; a real
    unsupervised trainer has no such rescue.
    """

    def __init__(
        self,
        model: MultiTaskModel,
        config: TrainConfig,
        *,
        fault_schedule: Sequence[WorkerFault] = (),
        watchdog_s: Optional[float] = None,
    ) -> None:
        if config.num_workers is None:
            raise ValueError("UnsupervisedWorkerPool needs config.num_workers")
        self.model = model
        self.config = config
        self.fault_schedule = list(fault_schedule)
        self.watchdog_s = watchdog_s
        self.workers: List[_WorkerHandle] = []
        self._shared: Optional[_SharedParameters] = None
        self.step = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self.workers, self._shared = _spawn_workers(
            self.model, self.config, self.config.num_workers, time.monotonic
        )
        self._started = True

    def stop(self) -> None:
        if not self._started:
            return
        _stop_workers(self.workers)
        self._shared = None
        self._started = False

    def _fault_payload(self, slot: int, step: int):
        for fault in self.fault_schedule:
            if fault.worker == slot and fault.active(step):
                if fault.kind == WORKER_HANG:
                    return "hang"
                if fault.kind == WORKER_SLOW:
                    return float(fault.latency_s)
        return None

    def compute_step(
        self, batch: Batch, epoch: int, batch_index: int
    ) -> StepResult:
        if not self._started:
            raise WorkerPoolError("worker pool is not running")
        step = self.step
        self.step += 1
        for fault in self.fault_schedule:
            if (
                fault.kind == WORKER_KILL
                and fault.start == step
                and fault.worker < len(self.workers)
            ):
                handle = self.workers[fault.worker]
                with contextlib.suppress(ProcessLookupError, OSError):
                    os.kill(handle.process.pid, signal.SIGKILL)
        shards = shard_batch(batch, len(self.workers))
        sizes = [shard.size for shard in shards]
        self._shared.publish()
        for shard_index, shard in enumerate(shards):
            handle = self.workers[shard_index]
            try:
                _send_task(
                    handle.conn,
                    (
                        "task",
                        shard_index,
                        (self.config.seed, epoch, batch_index),
                        shard,
                        shard_index,
                        self._fault_payload(handle.slot, step),
                    ),
                )
            except (BrokenPipeError, OSError) as exc:
                raise WorkerPoolError(
                    f"{handle.name} died; the unsupervised pool has no "
                    "survivor re-dispatch and cannot recover"
                ) from exc
        results: Dict[int, Tuple[float, List[Any]]] = {}
        watchdog = (
            Deadline(self.watchdog_s, time.monotonic)
            if self.watchdog_s is not None
            else None
        )
        for shard_index in range(len(shards)):
            handle = self.workers[shard_index]
            while shard_index not in results:
                if watchdog is not None and watchdog.expired():
                    raise WorkerPoolError(
                        f"unsupervised pool stalled on {handle.name}; "
                        "without the test watchdog this blocks forever"
                    )
                try:
                    if not handle.conn.poll(0.05):
                        continue
                    msg = handle.conn.recv()
                except (EOFError, ConnectionResetError, OSError) as exc:
                    raise WorkerPoolError(
                        f"{handle.name} died mid-shard; partial step lost"
                    ) from exc
                if msg[0] == "hb":
                    continue
                if msg[0] == "error":
                    raise WorkerPoolError(f"{handle.name} failed: {msg[2]}")
                _, task_id, value, encoded = msg
                results[task_id] = (
                    value,
                    [_decode_grad(g) for g in encoded],
                )
        values = [results[i][0] for i in range(len(shards))]
        grads = [results[i][1] for i in range(len(shards))]
        return StepResult(
            reduce_shard_losses(values, sizes),
            reduce_shard_grads(grads, sizes),
            len(shards),
        )


@dataclass
class TrainerDrillReport:
    """Everything a chaos drill run produced, for assertions and docs."""

    transcript: List[str]
    fault_schedule: List[WorkerFault]
    history: TrainingHistory
    model: MultiTaskModel
    stats: WorkerPoolStats
    n_workers_start: int
    n_workers_end: int
    fell_back: bool

    def summary(self) -> Dict[str, Any]:
        return {
            "faults": [
                {"kind": f.kind, "worker": f.worker, "start": f.start}
                for f in self.fault_schedule
            ],
            "workers": f"{self.n_workers_end}/{self.n_workers_start} live",
            "workers_lost": self.stats.workers_lost,
            "resharded": self.stats.resharded,
            "redispatches": self.stats.redispatches,
            "fell_back": self.fell_back,
            "epochs_run": self.history.n_epochs_run,
            "final_loss": (
                self.history.epoch_losses[-1]
                if self.history.epoch_losses
                else None
            ),
            "transcript_lines": len(self.transcript),
        }


class TrainerChaosDrill:
    """Seeded kill/hang/slow faults against a supervised training run.

    The trainer-side sibling of the serving fleet's chaos drill: build
    a deterministic :class:`WorkerFault` schedule (or accept one),
    train a fresh model through :class:`ShardedTrainingEngine` with the
    faults armed, and report the transcript, stats and history.  Same
    seed, same data, same config -> bit-identical transcript and final
    parameters, which is what the acceptance tests pin.
    """

    def __init__(
        self,
        model_factory,
        train,
        config: TrainConfig,
        *,
        spec: Optional[TrainerFaultSpec] = None,
        schedule: Optional[Sequence[WorkerFault]] = None,
        validation=None,
        seed: int = 0,
    ) -> None:
        if config.num_workers is None:
            raise ValueError("TrainerChaosDrill needs config.num_workers set")
        self.model_factory = model_factory
        self.train = train
        self.config = config
        self.validation = validation
        self.seed = seed
        if schedule is not None:
            self.schedule = list(schedule)
        else:
            n_steps = config.epochs * as_source(train).n_batches_per_epoch(
                config.batch_size, config.drop_last
            )
            self.schedule = build_trainer_fault_schedule(
                spec or TrainerFaultSpec(),
                config.num_workers,
                n_steps,
                seed=seed,
            )

    def run(self) -> TrainerDrillReport:
        model = self.model_factory()
        engine = ShardedTrainingEngine(
            model, self.config, fault_schedule=self.schedule
        )
        callbacks: List[Callback] = []
        if self.validation is not None:
            from repro.training.callbacks.validation import ValidationCallback

            callbacks.append(
                ValidationCallback(self.config.early_stopping_patience)
            )
        history = engine.fit(
            self.train, validation=self.validation, callbacks=callbacks
        )
        supervisor = engine.supervisor
        return TrainerDrillReport(
            transcript=list(supervisor.transcript),
            fault_schedule=list(self.schedule),
            history=history,
            model=model,
            stats=supervisor.stats,
            n_workers_start=self.config.num_workers,
            n_workers_end=supervisor.final_live,
            fell_back=engine.fell_back,
        )
