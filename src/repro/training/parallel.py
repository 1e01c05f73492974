"""Fault-tolerant data-parallel training: a supervised worker pool.

:class:`ShardedTrainingEngine` splits every batch into contiguous row
shards (:func:`repro.data.stream.shard_batch`), computes per-shard
gradients, and reduces them in a deterministic seeded order -- a
weighted left-fold over shard index.  The per-shard compute and the
reduction are the *same functions* whether shards run in a forked
``multiprocessing`` worker or in-process, which is what makes the
headline property cheap to state and test: **a K-venue pool run is
bit-exact with a K-shard single-process run.**  (Sharded runs differ from the plain
unsharded engine by float non-associativity once ``K > 1``; the plain
engine is untouched and stays golden-pinned.)

The robustness layer is :class:`WorkerSupervisor`.  A pool of
``num_workers = K`` runs K compute venues: the parent computes shard 0
itself, so only K-1 workers are forked and K-1 shards go over pipes.

* **stateless workers** -- the parent holds the authoritative model and
  optimizer.  Workers read the parent's parameter plane (an anonymous
  shared mapping) directly and write their shard's gradients into a
  shared slot of their own, so a task carries only its shard, a reply
  only a task id, a loss and the indices of parameters without a
  gradient, and a worker that dies forfeits nothing but one shard of
  one step;
* **heartbeats** -- a daemon thread in every worker beats on the pipe,
  letting the supervisor tell "stuck but alive" (a straggler, worth a
  retry elsewhere) from "frozen or dead" (declare lost now);
* **per-dispatch deadlines** -- a missed deadline re-dispatches the
  shard, after a seeded-jitter backoff
  (:func:`~repro.reliability.timeouts.jittered_backoff`), to an idle
  forked worker or, when there is none, to the parent, the venue of
  last resort; repeated strikes get the worker SIGKILLed as lost;
* **graceful degradation** -- any worker loss abandons the in-flight
  step and re-shards it across the live venues (bit-exactness
  explicitly traded for availability, recorded as a structured
  :class:`~repro.reliability.guards.GuardEvent` in the history);
  losing the ``min_workers`` quorum escalates to single-process
  fallback.

Every supervision decision appends a line to a transcript keyed only
by ``(epoch, batch, step)`` -- no wall-clock values, no detection-path
detail -- so same-seed :class:`TrainerChaosDrill` runs produce
bit-identical transcripts even though kills race between pipe-EOF and
heartbeat-timeout detection.
"""

from __future__ import annotations

import contextlib
import ctypes
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

from repro.autograd.plan import PlanRunner
from repro.data.dataset import Batch
from repro.data.stream import as_source, shard_batch
from repro.models.base import MultiTaskModel
from repro.nn.embedding import trusted_indices
from repro.optim.plane import ParamPlane, shared_zeros
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
from repro.training.engine import TrainingEngine, collect_module_rngs, plan_rows
from repro.training.history import TrainingHistory
from repro.utils.logging import get_logger, log_event

logger = get_logger("training.parallel")

#: How long a hang-faulted worker sleeps -- far past any deadline, so a
#: hang is indistinguishable from a real wedged computation.
_HANG_SLEEP_S = 3600.0

#: Re-dispatch backoff jitter: the pause is ``worker_backoff_s * (1 +
#: WORKER_BACKOFF_JITTER * u)`` for the supervisor's seeded draw ``u``.
WORKER_BACKOFF_JITTER = 0.5


# ----------------------------------------------------------------------
# Shard compute + deterministic reduction (shared by every venue).
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
    runner: PlanRunner,
    plane: ParamPlane,
    views: Sequence[np.ndarray],
    shard: Batch,
    rngs: Sequence[np.random.Generator],
    *,
    seed: int,
    epoch: int,
    batch_index: int,
    shard_index: int,
) -> Tuple[float, List[int]]:
    """Loss value of one shard, with its gradients left in ``views``.

    The single compute kernel of the parallel mode: workers call it
    through the runner of their forked model copy (``views`` cut from
    their gradient slot), the pool's parent and the serial sharded path
    through the parent's runner (the plane's own views), and because it
    is the same function over the same bits every venue agrees exactly.
    Also returns the indices of parameters the shard left without a
    gradient.
    """
    reseed_module_rngs(rngs, seed, epoch, batch_index, shard_index)
    for param in plane.params:
        param.zero_grad()
    loss = runner.forward(shard)
    value = loss.item()
    runner.backward(loss)
    return value, plane.gather(views)


def reduce_shard_losses(values: Sequence[float], sizes: Sequence[int]) -> float:
    """Row-weighted mean of shard losses, folded in shard order."""
    if len(values) == 1:
        return values[0]
    total = float(sum(sizes))
    acc = 0.0
    for value, size in zip(values, sizes):
        acc += (size / total) * value
    return acc


class ShardFold:
    """Row-weighted sum of shard gradients into ``plane.grad``, in shard order.

    :meth:`accept` scales shard ``k``'s flat gradient into position ``k``
    at once, because its source (a worker's slot, the plane's gradient
    buffer) is rewritten by that worker's next task or the runner's
    next replay.
    :meth:`finish` sums the positions strictly by shard index, never by
    arrival order: the deterministic left fold.  A shard without a
    gradient for a parameter contributes nothing to it.  A single shard
    passes through unscaled, keeping K=1 bit-exact with the plain engine.
    """

    def __init__(self, plane: ParamPlane) -> None:
        self.plane = plane
        self._parts: List[np.ndarray] = []

    def begin(self, sizes: Sequence[int]) -> None:
        self._sizes = list(sizes)
        self._missing: List[Sequence[int]] = [()] * len(sizes)
        while len(sizes) > 1 and len(self._parts) < len(sizes):
            self._parts.append(np.empty(self.plane.size))

    def accept(self, k: int, flat: np.ndarray, missing: Sequence[int]) -> None:
        self._missing[k] = missing
        if len(self._sizes) == 1:
            if flat is not self.plane.grad:
                np.copyto(self.plane.grad, flat)
        else:
            scale = self._sizes[k] / float(sum(self._sizes))
            np.multiply(flat, scale, out=self._parts[k])

    def finish(self) -> List[int]:
        """Fold; returns the indices of parameters no shard has a gradient for."""
        n, grad = len(self._sizes), self.plane.grad
        if n == 1:
            return list(self._missing[0])
        parts = self._parts[:n]
        np.add(parts[0], parts[1], out=grad)
        for part in parts[2:]:
            grad += part
        absent = []
        for i in sorted(set().union(*self._missing)):
            # Re-fold this parameter over the shards that have it.
            span = self.plane.slices[i]
            have = [p[span] for p, m in zip(parts, self._missing) if i not in m]
            if not have:
                absent.append(i)
                continue
            grad[span] = have[0]
            for part in have[1:]:
                grad[span] += part
        return absent


def _bind_readonly(plane: ParamPlane) -> None:
    """Worker side: point every ``param.data`` at a read-only plane view."""
    for param, view in zip(plane.params, plane.data_views):
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
    plane: ParamPlane,
    grads: np.ndarray,
    config: TrainConfig,
) -> None:
    """Forked worker: receive tasks, compute shard gradients, reply.

    Workers are stateless between tasks: their parameters are
    read-only views of the parent's plane, so a task carries only its
    shard and the parent never has to resynchronise a survivor after a
    loss (its plan runner holds kernels and buffers, never training
    state).  A task also names the rows the current shard layout traces
    at, so the runner retargets when a loss re-shards the pool.
    Gradients land in ``grads``, this worker's shared slot; the reply
    says which task they belong to.  The heartbeat thread shares
    the pipe under a lock; any traffic (beat or result) proves liveness
    to the supervisor.
    """
    _bind_readonly(plane)
    views = plane.views(grads)
    rngs = collect_module_rngs(model)
    runner = PlanRunner(
        model,
        expected_batch_size=plan_rows(config),
        grad_buffers=plane.grad_buffers(views),
    )
    lock = threading.Lock()
    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        args=(conn, lock, slot, config.heartbeat_interval_s, stop),
        daemon=True,
    ).start()
    model.train()
    with trusted_indices():
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            _, task_id, step_key, rows, shard, shard_index, fault = msg
            runner.retarget(rows)
            if fault == "hang":
                time.sleep(_HANG_SLEEP_S)
                continue  # never answer: the task is forfeit
            if isinstance(fault, float):
                time.sleep(fault)
            seed, epoch, batch_index = step_key
            try:
                value, missing = compute_shard_gradients(
                    runner,
                    plane,
                    views,
                    shard,
                    rngs,
                    seed=seed,
                    epoch=epoch,
                    batch_index=batch_index,
                    shard_index=shard_index,
                )
                reply = ("result", task_id, value, missing)
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
        "deadline",
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
        #: The deadline of the task in flight (kept if it is abandoned).
        self.deadline: Optional[Deadline] = None


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


def _trim_free_heap() -> None:
    """Return the C heap's free pages to the OS (glibc only; else a no-op).

    A forked worker maps every resident page of its parent, free heap
    pages included, and the parent's heap keeps what earlier fits (and
    the parent's own plan trace) freed.
    """
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None).malloc_trim(0)


def _spawn_workers(
    model: MultiTaskModel,
    config: TrainConfig,
    n_workers: int,
    clock,
    plane: ParamPlane,
) -> Tuple[List[_WorkerHandle], np.ndarray]:
    """Fork ``n_workers`` shard-compute processes, one duplex pipe each.

    One shared gradient slot per worker is mapped first, so each worker
    inherits its slot and the parameter plane through the fork.
    """
    if "fork" not in mp.get_all_start_methods():
        raise WorkerPoolError(
            "data-parallel training requires the 'fork' start method"
        )
    ctx = mp.get_context("fork")
    if n_workers:
        _trim_free_heap()
    slots = shared_zeros(n_workers * plane.size).reshape(n_workers, plane.size)
    handles: List[_WorkerHandle] = []
    for slot in range(n_workers):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                slot,
                model,
                plane,
                slots[slot],
                config,
            ),
            name=f"trainer-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handles.append(_WorkerHandle(slot, process, parent_conn, clock))
    return handles, slots


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
    """Computes shards in the parent and a forked pool, and survives the pool.

    One :meth:`compute_step` call turns one batch into one aggregated
    gradient.  ``config.num_workers = K`` gives K venues: the parent,
    which computes shard 0 through ``runner`` (as the serial sharded
    loop does), and K-1 forked workers in slots ``0 .. K-2``, which
    take shards 1..K-1.  Fault schedules name forked slots only.

    Internally it is a work-queue scheduler.  Shards are dispatched only
    to *idle* live workers (so the parent can never block on a pipe to a
    wedged process); the parent then computes its own shard and only
    after that collects the results with
    ``multiprocessing.connection.wait``.  While the parent computes it
    reads no pipe, so deadlines and heartbeats are checked when it
    returns.  Four escalation rungs guard progress:

    1. deadline miss with a fresh heartbeat -> straggler: strike the
       worker, seeded-jitter backoff, re-dispatch the shard to an idle
       forked worker, or compute it in the parent when none is idle
       (the stale result is discarded on arrival);
    2. deadline miss with a stale heartbeat, pipe EOF, or a worker
       error reply -> the worker is lost;
    3. ``worker_retries`` consecutive strikes (misses now, bench sweeps
       at later step starts) -> SIGKILL, lost;
    4. any loss -> abandon the step's partial results, degrade the
       shard count to the live venues (the parent included), and
       re-shard the whole step -- recorded as ``worker_lost`` /
       ``step_resharded`` events.

    Below ``min_workers`` live venues, :meth:`compute_step` raises
    :class:`WorkerPoolError`; the engine converts that into
    single-process fallback.  Transcript lines carry only ``(epoch,
    batch, step)`` positions and schedule-driven facts, never
    wall-clock readings, so same-seed drills are bit-identical.

    Workers read ``plane`` (the optimizer's parameter plane); the
    step's gradient comes back in ``plane.grad``.  The parent writes
    the plane's parameters only between steps, and a worker's gradient
    slot is read only for a pending task id and consumed before that
    worker's next dispatch (DESIGN.md section 7).
    """

    def __init__(
        self,
        model: MultiTaskModel,
        config: TrainConfig,
        plane: ParamPlane,
        runner: PlanRunner,
        *,
        fault_schedule: Sequence[WorkerFault] = (),
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if config.num_workers is None:
            raise ValueError("WorkerSupervisor needs config.num_workers set")
        self.model = model
        self.config = config
        self.plane = plane
        #: The parent's plan runner, which computes the parent's shards.
        self.runner = runner
        self._rngs = collect_module_rngs(model)
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
        self._slots: Optional[np.ndarray] = None
        self._fold = ShardFold(plane)
        self.current_shards = config.effective_shards
        self.step = 0
        self._current_step = 0
        self._task_counter = 0
        self._started = False
        #: Live-venue count frozen at :meth:`stop` (``_stop_workers``
        #: marks every handle dead, so ``n_live`` is 1 afterwards).
        self.final_live = 0

    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        """Live venues: the parent, which is always live, and every
        live forked worker."""
        return 1 + sum(1 for h in self.workers if h.alive)

    def start(self) -> None:
        if self._started:
            return
        self.workers, self._slots = _spawn_workers(
            self.model,
            self.config,
            self.config.num_workers - 1,
            self._clock,
            self.plane,
        )
        self._started = True
        log_event(logger, "worker_pool_started", workers=len(self.workers))

    def stop(self) -> None:
        if not self._started:
            return
        self.final_live = self.n_live
        _stop_workers(self.workers)
        self._slots = None
        self._started = False
        log_event(logger, "worker_pool_stopped", lost=self.stats.workers_lost)

    def drain_events(self) -> List[GuardEvent]:
        """Hand the pending structured events to the engine (once)."""
        out, self.events = self.events, []
        return out

    # ------------------------------------------------------------------
    def compute_step(
        self, batch: Batch, epoch: int, batch_index: int
    ) -> Tuple[float, List[int]]:
        """One batch -> its loss and one deterministic gradient in ``plane.grad``.

        Also returns the indices of parameters without a gradient.  A
        ``param.data`` rebound since the last step is adopted into the
        plane before the first dispatch (never on a re-shard retry).
        """
        if not self._started:
            raise WorkerPoolError("worker pool is not running")
        step = self.step
        self.step += 1
        self._current_step = step
        self._sweep_stuck(epoch, batch_index)
        self._apply_faults(epoch, batch_index, step)
        try:
            self.plane.adopt()
        except ValueError as exc:
            raise WorkerPoolError(
                f"{exc} while the pool was running; restart the fit to re-map it"
            ) from exc
        while True:
            self._require_quorum(epoch, batch_index)
            shards = shard_batch(batch, self.current_shards)
            self.runner.retarget(self._plan_rows())
            sizes = [s.size for s in shards]
            self._fold.begin(sizes)
            try:
                values = self._run_shards(shards, epoch, batch_index, step)
            except _StepAbandoned:
                continue
            losses = [values[i] for i in range(len(shards))]
            return reduce_shard_losses(losses, sizes), self._fold.finish()

    def _plan_rows(self) -> int:
        """Rows every venue traces at under the current shard layout."""
        return plan_rows(self.config, self.current_shards)

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
        """Step-start probation of workers still chewing an old task.

        Replies already in the pipes are read first, so a straggler
        whose late result has arrived is idle again, not struck.
        """
        if not any(h.alive and h.inflight for h in self.workers):
            return
        with contextlib.suppress(_StepAbandoned):
            self._drain(0.0, {}, {}, epoch, batch)
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
    ) -> Dict[int, float]:
        """Shard index -> loss; each gradient is accepted into the fold.

        ``queue`` holds the shards waiting for a forked worker, ``local``
        the shards the parent computes: shard 0, any shard that missed
        its deadline while no forked worker was idle, and the queue when
        every live worker is wedged past an abandoned task's deadline.
        """
        queue: deque = deque(range(1, len(shards)))
        local: deque = deque([0])
        pending: Dict[int, Tuple[int, _WorkerHandle]] = {}
        results: Dict[int, float] = {}
        while True:
            self._dispatch_wave(queue, pending, shards, epoch, batch, step)
            # With no task of this attempt in flight, the queue waits only
            # for workers still inside an abandoned task's deadline; a
            # worker wedged past it cannot free up in time (the step-start
            # sweep strikes it), so the parent takes the queue at once.
            waiting = [handle for _, handle in pending.values()] or [
                h
                for h in self.workers
                if h.alive and h.inflight and not h.deadline.expired()
            ]
            if not waiting:
                local.extend(queue)
                queue.clear()
            # No pipe is read while the parent computes: results and
            # heartbeats wait in the pipes, and deadlines are checked
            # after it returns.
            while local:
                shard_index = local.popleft()
                results[shard_index] = self._compute_here(
                    shards[shard_index], shard_index, epoch, batch
                )
            if len(results) == len(shards):
                return results
            timeout = min(
                min(h.deadline.remaining() for h in waiting),
                self.config.heartbeat_timeout_s,
            )
            self._drain(max(timeout, 0.0), pending, results, epoch, batch)
            self._check_deadlines(pending, queue, local, epoch, batch)

    def _compute_here(
        self, shard: Batch, shard_index: int, epoch: int, batch: int
    ) -> float:
        """The parent as a venue: one shard through its own runner.

        The runner's replay writes into ``plane.grad``, and the fold
        takes the shard from there at once, before anything else is
        computed in-process.
        """
        value, missing = compute_shard_gradients(
            self.runner,
            self.plane,
            self.plane.grad_views,
            shard,
            self._rngs,
            seed=self.config.seed,
            epoch=epoch,
            batch_index=batch,
            shard_index=shard_index,
        )
        self._fold.accept(shard_index, self.plane.grad, missing)
        return value

    def _dispatch_wave(self, queue, pending, shards, epoch, batch, step) -> None:
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
                        self._plan_rows(),
                        shards[shard_index],
                        shard_index,
                        self._fault_payload(handle.slot, step),
                    ),
                )
            except (BrokenPipeError, OSError):
                self._declare_lost(handle, epoch, batch)
                raise _StepAbandoned from None
            handle.inflight += 1
            handle.deadline = Deadline(self.config.worker_deadline_s, self._clock)
            self.stats.dispatches += 1
            pending[task_id] = (shard_index, handle)

    def _drain(self, timeout, pending, results, epoch, batch) -> None:
        conns = {h.conn: h for h in self.workers if h.alive}
        if not conns:
            return
        for conn in connection.wait(list(conns), timeout):
            handle = conns[conn]
            try:
                while True:
                    payload = conn.recv_bytes()
                    msg = pickle.loads(payload)
                    if msg[0] == "result":
                        self.stats.bytes_received += len(payload)
                    self._on_message(handle, msg, pending, results, epoch, batch)
                    if not conn.poll():
                        break
            except (EOFError, ConnectionResetError, OSError):
                self._declare_lost(handle, epoch, batch)
                raise _StepAbandoned from None

    def _on_message(self, handle, msg, pending, results, epoch, batch) -> None:
        handle.last_heartbeat = self._clock()
        kind = msg[0]
        if kind == "result":
            _, task_id, value, missing = msg
            handle.inflight = max(handle.inflight - 1, 0)
            handle.strikes = 0
            if task_id in pending:
                # The slot holds this task's gradients until the worker's
                # next dispatch, which cannot precede this call.
                shard_index, _ = pending.pop(task_id)
                self._fold.accept(shard_index, self._slots[handle.slot], missing)
                results[shard_index] = value
                self.stats.results += 1
            else:
                self.stats.stale_results += 1
        elif kind == "error":
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

    def _check_deadlines(self, pending, queue, local, epoch, batch) -> None:
        for task_id in list(pending):
            shard_index, handle = pending[task_id]
            if not handle.deadline.expired():
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
            # Seeded-jitter backoff before another venue takes the shard;
            # the draw always happens so the RNG stream stays aligned.
            u = float(self._rng.random())
            pause = jittered_backoff(
                self.config.worker_backoff_s, WORKER_BACKOFF_JITTER, u
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
            # An idle forked worker takes the shard; the parent is the
            # venue of last resort.
            idle = sum(1 for h in self.workers if h.alive and not h.inflight)
            (queue if idle > len(queue) else local).append(shard_index)


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
    * ``num_workers`` set -- shard 0 computed in-process, the others
      dispatched to the supervised pool.
    * fallback -- after losing the worker quorum the fit continues
      through the serial sharded loop at the degraded shard count,
      mid-epoch, on the same optimizer state.

    Everything else -- callbacks, checkpoint/resume, streaming sources,
    validation, guards -- is inherited unchanged from
    :class:`TrainingEngine`; the override surface is exactly the step
    kernel seams (``_enter_fit`` / ``_forward`` / ``_backward``).
    """

    def __init__(
        self,
        model: MultiTaskModel,
        config: TrainConfig,
        fault_schedule: Sequence[WorkerFault] = (),
    ) -> None:
        super().__init__(model, config)
        if not config.parallel_enabled:
            raise ValueError(
                "ShardedTrainingEngine needs num_workers or num_shards > 1 "
                "set; use TrainingEngine (or create_engine) otherwise"
            )
        self.fault_schedule = list(fault_schedule)
        self.supervisor: Optional[WorkerSupervisor] = None
        self._fallback = False
        #: Parameters the pending step has no gradient for.
        self._missing: List[int] = []
        self._fold = ShardFold(self.optimizer.plane)
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
    def fit(self, train, validation=None, resume_from=None, callbacks=()):
        resolved = [*callbacks, ParallelStateCallback(self)]
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
        self._missing = []
        self._current_shards = self.config.effective_shards
        if self.config.num_workers is not None:
            self.supervisor = WorkerSupervisor(
                self.model,
                self.config,
                self.optimizer.plane,
                self.plan_runner,
                fault_schedule=self.fault_schedule,
            )
            self.supervisor.start()
            # Teardown rides the fit's ExitStack: the pool dies with the
            # loop, including when a callback or the kernel raises.
            stack.callback(self.supervisor.stop)

    def _forward(self, ctx: TrainingContext, runner: PlanRunner) -> None:
        if self.supervisor is not None and not self._fallback:
            try:
                ctx.loss_value, self._missing = self.supervisor.compute_step(
                    ctx.batch, ctx.epoch, ctx.batch_index
                )
            except WorkerPoolError:
                self._current_shards = self.supervisor.current_shards
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
                return None
        ctx.loss_value, self._missing = self._serial_step(ctx, runner)
        return None

    def _serial_step(
        self, ctx: TrainingContext, runner: PlanRunner
    ) -> Tuple[float, List[int]]:
        """The in-process sharded step: the pool's bit-exact reference.

        The runner's replays write into ``plane.grad``, so each shard is
        accepted into the fold before the next shard's replay rewrites
        it -- the same fold the pool uses on its worker slots.
        """
        plane = self.optimizer.plane
        plane.adopt()
        shards = shard_batch(ctx.batch, self._current_shards)
        runner.retarget(plan_rows(self.config, self._current_shards))
        sizes = [shard.size for shard in shards]
        self._fold.begin(sizes)
        values: List[float] = []
        for shard_index, shard in enumerate(shards):
            value, missing = compute_shard_gradients(
                runner,
                plane,
                plane.grad_views,
                shard,
                self._module_rngs,
                seed=self.config.seed,
                epoch=ctx.epoch,
                batch_index=ctx.batch_index,
                shard_index=shard_index,
            )
            self._fold.accept(shard_index, plane.grad, missing)
            values.append(value)
        return reduce_shard_losses(values, sizes), self._fold.finish()

    def _backward(self, ctx: TrainingContext, runner: PlanRunner, loss) -> None:
        plane = self.optimizer.plane
        for i, (param, view) in enumerate(zip(plane.params, plane.grad_views)):
            param.grad = None if i in self._missing else view


# ----------------------------------------------------------------------
# The chaos drill.
# ----------------------------------------------------------------------
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
            # Faults target forked slots; the parent never carries one.
            self.schedule = build_trainer_fault_schedule(
                spec or TrainerFaultSpec(),
                config.num_workers - 1,
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
