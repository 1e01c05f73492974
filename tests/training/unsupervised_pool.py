"""The unsupervised worker pool: the strawman of the trainer chaos drill.

Same forked workers, parameter plane and gradient slots as
:class:`~repro.training.parallel.WorkerSupervisor`, with none of its
supervision: blocking sends, blocking per-worker collects, no
heartbeats, deadlines, re-dispatch or degradation.  One SIGKILL aborts
it and one hang deadlocks it, which is what the supervised pool is
tested against.  It lives with the tests because nothing outside them
should train through it.
"""

import contextlib
import os
import signal
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.dataset import Batch
from repro.data.stream import shard_batch
from repro.models.base import MultiTaskModel
from repro.optim import ParamPlane
from repro.reliability.errors import WorkerPoolError
from repro.reliability.faults import (
    WORKER_HANG,
    WORKER_KILL,
    WORKER_SLOW,
    WorkerFault,
)
from repro.reliability.timeouts import Deadline
from repro.training.config import TrainConfig
from repro.training.engine import plan_rows
from repro.training.parallel import (
    ShardFold,
    _send_task,
    _spawn_workers,
    _stop_workers,
    _WorkerHandle,
    reduce_shard_losses,
)


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
        self.plane = ParamPlane(model.parameters())
        self._fold = ShardFold(self.plane)
        self._slots = None
        self.step = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self.workers, self._slots = _spawn_workers(
            self.model, self.config, self.config.num_workers, time.monotonic,
            self.plane,
        )
        self._started = True

    def stop(self) -> None:
        if not self._started:
            return
        _stop_workers(self.workers)
        self._slots = None
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
    ) -> Tuple[float, List[int]]:
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
        self.plane.adopt()
        self._fold.begin(sizes)
        for shard_index, shard in enumerate(shards):
            handle = self.workers[shard_index]
            try:
                _send_task(
                    handle.conn,
                    (
                        "task",
                        shard_index,
                        (self.config.seed, epoch, batch_index),
                        plan_rows(self.config),
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
        results: Dict[int, float] = {}
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
                _, task_id, value, missing = msg
                self._fold.accept(task_id, self._slots[handle.slot], missing)
                results[task_id] = value
        values = [results[i] for i in range(len(shards))]
        return reduce_shard_losses(values, sizes), self._fold.finish()
