"""Per-layer probes for the traced round, and the per-layer metric table.

A :class:`Probe` owns one :class:`~benchmarks.perf.trace.Tracer` and a bag of
counters.  It records spans three ways, all from outside ``src/``:

* the engine's public ``Callback`` hooks -- the gap before
  ``on_batch_start`` is the data fetch, ``on_batch_start`` to
  ``on_loss_computed`` the forward pass, ``on_loss_computed`` to
  ``on_backward_end`` the backward pass;
* wrappers at the names callers look up (``clip_global_norm`` in the
  engine module, ``Adam.step``, ``WorkerSupervisor.compute_step``,
  ``ServingFleet.serve_page``, ``ModelRegistry.publish``, ...);
* stats objects the code already exposes (``PlanRunner.stats``,
  ``WorkerPoolStats``, ``FleetStats``), read when a fit or task ends.

Every ``*_s`` per-layer metric is the span's *self time* per traced
task.  ``month.*`` stage times use the stage view: a month stage's
children are only the nested month stages, so the layer spans inside a
stage count towards that stage.
"""

from __future__ import annotations

import contextlib
import pickle
import statistics
from collections import defaultdict
from typing import Dict, List

from benchmarks.perf.trace import Tracer, coverage, patch, self_times
from repro.data.stream import as_source, shard_batch
from repro.training.callbacks.base import Callback

#: Root span of every traced task.
TASK = "task"

#: ``*_s`` metrics read from the layer view: metric -> span name.
LAYER_SPANS = {
    "data.meta_pass_s": "data.meta_pass",
    "data.fetch_s": "data.fetch",
    "training.forward_s": "training.forward",
    "training.backward_s": "training.backward",
    "optim.clip_s": "optim.clip",
    "optim.step_s": "optim.step",
    "parallel.start_s": "parallel.start",
    "parallel.compute_step_s": "parallel.compute_step",
    "lifecycle.gate_s": "lifecycle.gate",
    "lifecycle.publish_s": "lifecycle.publish",
    "lifecycle.promote_s": "lifecycle.promote",
    "lifecycle.load_s": "lifecycle.load",
    "lifecycle.canary_s": "lifecycle.canary",
    "serving.features_s": "serving.features",
    "serving.predict_s": "serving.predict",
    "serving.replica_self_s": "serving.replica",
    "fleet.route_self_s": "fleet.route",
}

MONTH_STAGES = (
    "world", "behavior", "serve", "fit", "lifecycle", "monitor", "ingest", "eval",
)


class TraceCallback(Callback):
    """Fetch / forward / backward spans from the engine's hooks."""

    def __init__(self, probe: "Probe") -> None:
        self.probe = probe
        self._open = None

    def _switch(self, name) -> None:
        tracer = self.probe.tracer
        if self._open is not None:
            tracer.end(self._open)
        self._open = name
        if name is not None:
            tracer.begin(name)

    def on_epoch_start(self, ctx) -> None:
        self._switch("data.fetch")

    def on_batch_start(self, ctx) -> None:
        self._switch("training.forward")

    def on_loss_computed(self, ctx) -> None:
        self._switch("training.backward")

    def on_backward_end(self, ctx) -> None:
        self._switch(None)

    def on_batch_end(self, ctx) -> None:
        self.probe.counts["training.steps"] += 1
        self._switch("data.fetch")

    def on_epoch_end(self, ctx) -> None:
        self._switch(None)

    def on_fit_end(self, ctx) -> None:
        self._switch(None)
        counts = self.probe.counts
        runner = getattr(ctx.engine, "plan_runner", None)
        if runner is not None:
            counts["autograd.plan.traces"] += runner.stats.traces
            counts["autograd.plan.replays"] += runner.stats.replays
            counts["autograd.plan.eager_steps"] += runner.stats.eager_steps
        supervisor = getattr(ctx.engine, "supervisor", None)
        if supervisor is not None:
            counts["parallel.dispatches"] += supervisor.stats.dispatches
            counts["parallel.pool_steps"] += supervisor.step
            counts["parallel.redispatches"] += supervisor.stats.redispatches
            counts["parallel.workers_lost"] += supervisor.stats.workers_lost
            if not counts["parallel.bytes_per_step"]:
                counts["parallel.bytes_per_step"] = dispatch_bytes(ctx)


def dispatch_bytes(ctx) -> float:
    """Computed bytes one pool step sends: pickled params per shard plus shards.

    Mirrors the payload ``WorkerSupervisor`` pipes to each worker for a
    full-size batch (the whole parameter list and one row shard each);
    computed from pickled sizes, not measured on the pipe.
    """
    batch = as_source(ctx.train).sample_batch(ctx.config.batch_size)
    shards = shard_batch(batch, ctx.config.effective_shards)
    params = [p.data for p in ctx.model.parameters()]
    param_bytes = len(pickle.dumps(params, protocol=pickle.HIGHEST_PROTOCOL))
    shard_bytes = sum(
        len(pickle.dumps(s, protocol=pickle.HIGHEST_PROTOCOL)) for s in shards
    )
    return float(len(shards) * param_bytes + shard_bytes)


class Probe:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts: Dict[str, float] = defaultdict(float)
        self.tasks = 0

    def callback(self) -> TraceCallback:
        return TraceCallback(self)

    def install(self, stack: contextlib.ExitStack) -> None:
        """Wrap the layer seams every workload may cross."""
        import repro.training.engine as engine
        from repro.lifecycle.canary import FleetCanaryRollout
        from repro.lifecycle.gate import PromotionGate
        from repro.lifecycle.manager import ModelLifecycleManager
        from repro.lifecycle.registry import ModelRegistry
        from repro.optim import Adam
        from repro.simulation.fleet import ServingFleet
        from repro.simulation.serving import RankingService
        from repro.training.parallel import WorkerSupervisor

        seams = [
            (engine, "clip_global_norm", "optim.clip"),
            (Adam, "step", "optim.step"),
            (WorkerSupervisor, "start", "parallel.start"),
            (WorkerSupervisor, "compute_step", "parallel.compute_step"),
            (PromotionGate, "review", "lifecycle.gate"),
            (ModelRegistry, "publish", "lifecycle.publish"),
            (ModelRegistry, "promote", "lifecycle.promote"),
            (ModelRegistry, "load_model", "lifecycle.load"),
            (ModelLifecycleManager, "build_canary", "lifecycle.canary"),
            (ModelLifecycleManager, "conclude_canary", "lifecycle.canary"),
            (FleetCanaryRollout, "serve_page", "lifecycle.canary"),
            (ServingFleet, "serve_page", "fleet.route"),
            (RankingService, "serve_page", "serving.replica"),
            (RankingService, "score_candidates", "serving.predict"),
        ]
        self.wrap_all(stack, seams)

    def wrap_all(self, stack, seams) -> None:
        """Install ``(owner, attr, span)`` wrappers until ``stack`` closes.

        A seam that no longer exists is skipped; the time spent there
        shows up as lost ``trace.coverage``.
        """
        for owner, attr, name in seams:
            patch(stack, owner, attr, lambda fn, name=name: self.tracer.wrap(fn, name))

    # ------------------------------------------------------------------
    def metrics(self, untraced_s: List[float], traced_s: List[float]) -> Dict[str, float]:
        """Every per-layer metric, per traced task (0 where a layer is idle)."""
        tasks = max(self.tasks, 1)
        spans = self.tracer.spans
        layer = self_times(spans)
        stage = self_times(
            spans, keep=lambda name: name == TASK or name.startswith("month.")
        )
        counts = self.counts
        out: Dict[str, float] = {}
        for metric, span in LAYER_SPANS.items():
            out[metric] = layer.get(span, 0.0) / tasks
        for name in MONTH_STAGES:
            out[f"month.{name}_s"] = stage.get(f"month.{name}", 0.0) / tasks
        month_traced = any(name.startswith("month.") for name in stage)
        out["month.self_s"] = stage.get(TASK, 0.0) / tasks if month_traced else 0.0
        per_task = (
            "data.rows_parsed", "training.steps", "autograd.plan.traces",
            "autograd.plan.replays", "autograd.plan.eager_steps",
            "parallel.redispatches", "parallel.workers_lost", "fleet.hedges",
            "fleet.shed", "month.retrains", "month.promotions", "month.rollbacks",
        )
        for name in per_task:
            out[name] = counts[name] / tasks
        pool_steps = counts["parallel.pool_steps"]
        out["parallel.dispatches_per_step"] = (
            counts["parallel.dispatches"] / pool_steps if pool_steps else 0.0
        )
        out["parallel.bytes_per_step"] = counts["parallel.bytes_per_step"]
        requests = counts["serving.requests"]
        out["serving.primary_share"] = (
            counts["serving.primary"] / requests if requests else 0.0
        )
        out["trace.coverage"] = coverage(spans, TASK)
        out["trace.overhead_share"] = (
            statistics.median(t / u for t, u in zip(traced_s, untraced_s)) - 1.0
            if traced_s and untraced_s
            else 0.0
        )
        return out
