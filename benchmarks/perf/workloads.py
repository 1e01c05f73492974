"""The four workloads, run inside one measured child process.

Each workload builds its inputs from the seed, then runs *tasks* (one
end-to-end unit of user work) in a closed loop with one client until
the time budget is spent.  A task returns the time windows of its work,
of its operations (training steps or served pages) and of its fits, the
rows it trained, and a determinism digest; the child converts those
into the end-to-end metrics.

==============  ==========================================================
workload        one task
==============  ==========================================================
train_inmem     ``fit_model`` with the default ``TrainConfig`` (eager,
                sparse embedding grads, batch 1024, 5 epochs) on an
                in-memory 100k-row ``ae_es`` world
train_pool2     the same fit through a 2-worker pool, 6 epochs
csv_to_pages    ``ChunkedCSVSource`` -> 3-epoch fit -> lifecycle submit
                (gate, publish, promote) -> 2-replica fleet from the
                registry -> 6,000 pages of 50 candidates
month_smoke     three managed smoke months (2 tenants x 8 days each),
                each after its build and bootstrap
==============  ==========================================================
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.simulation.month as month_module
from benchmarks.perf.host import usable_cpus
from benchmarks.perf.layers import TASK, Probe
from benchmarks.perf.reference import HostGauge, Part, Span
from benchmarks.perf.trace import patch
from repro.data.dataset import InteractionDataset
from repro.data.loaders import ColumnSpec, export_csv_dataset
from repro.data.scenarios import scenario_config
from repro.data.stream import ChunkedCSVSource
from repro.data.synthetic import SyntheticScenario
from repro.lifecycle import ModelLifecycleManager, ModelRegistry, model_digest
from repro.metrics.ranking import auc
from repro.models import ModelConfig, build_model
from repro.reliability.errors import RequestShedError
from repro.simulation.fleet import ServingFleet
from repro.training import TrainConfig, fit_model
from repro.training.callbacks.base import Callback

TRAIN_ROWS = 100_000
#: Held-out rows scored against the generator's oracle labels.
TEST_ROWS = 2_000
#: ``ae_es``'s own preset seed; workload seed ``S`` selects world ``22 + S``.
WORLD_SEED = 22
#: A trained model must rank oracle conversions better than this, or
#: the run is reported as incorrect.  The 2k held-out rows hold ~100
#: oracle conversions, so a model that learned nothing reads 0.5 +- 0.03;
#: default fits read 0.58-0.69 across seeds 0-9.
MIN_CVR_AUC = 0.55

PAGES = 6_000
CANDIDATES = 50
REPLICAS = 2


@dataclass
class TaskResult:
    """One task's timestamps (``time.perf_counter``) and checks.

    ``gauge`` took the reference samples during the task; the child
    converts every span to seconds with it, by the kernel part given
    beside it (``None``: the whole kernel).
    """

    gauge: HostGauge = field(repr=False)
    #: The task's timed windows (one per month on ``month_smoke``; the
    #: CSV, middle and page stretches on ``csv_to_pages``).
    spans: List[Tuple[Span, Part]]
    #: Each operation: a training step (its batch fetch included), or a
    #: served page.
    ops: List[Span]
    op_part: Part
    #: Rows times epochs trained, and the windows of the fits.
    train_rows: int
    train_spans: List[Span]
    train_part: Part
    #: Every task of a run runs on the same input and must give this digest.
    digest: str
    #: Set-up paid inside the task (each month's build and bootstrap).
    setup_spans: List[Span] = field(default_factory=list)
    quality: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


class StepClock(Callback):
    """The window of each optimizer step, its batch fetch included.

    The gauge samples the reference kernel between steps, outside the
    windows.
    """

    def __init__(self, gauge: HostGauge) -> None:
        self.gauge = gauge
        self.steps: List[Span] = []
        self._last = 0.0

    def on_epoch_start(self, ctx) -> None:
        self._last = time.perf_counter()

    def on_batch_end(self, ctx) -> None:
        self.steps.append((self._last, time.perf_counter()))
        self.gauge.tick()
        self._last = time.perf_counter()


def _span(probe: Optional[Probe], name: str):
    return probe.tracer.span(name) if probe is not None else contextlib.nullcontext()


def _world(seed: int):
    world = SyntheticScenario(
        scenario_config(
            "ae_es", n_train=TRAIN_ROWS, n_test=TEST_ROWS, seed=WORLD_SEED + seed
        )
    )
    train, test = world.generate()
    return world, train, test


def _cvr_auc(model, dataset: InteractionDataset) -> float:
    return float(auc(dataset.oracle_conversion, model.predict(dataset.full_batch()).cvr))


class Workload:
    """Base: set-up is timed ``setup_repeats`` times; tasks run in a loop.

    ``gauge`` samples the reference kernel between the operations of
    untraced tasks; traced tasks get ``quiet``, which never samples.
    """

    #: Set-up takes 0.3-1.3 s; one reading swings by a third on a busy
    #: host, so ``setup_s`` is a median of several.
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.gauge = HostGauge()
        self.quiet = HostGauge(math.inf)

    def gauge_for(self, probe: Optional[Probe]) -> HostGauge:
        return self.gauge if probe is None else self.quiet

    def skip_reason(self) -> Optional[str]:
        return None

    def setup(self) -> None:
        """Build inputs and warm up; runs ``setup_repeats`` times."""

    def warmup(self) -> None:
        """Untimed warm-up outside ``setup_s`` (workloads that set up per task)."""

    def task(self, index: int, probe: Optional[Probe] = None) -> TaskResult:
        raise NotImplementedError


class TrainWorkload(Workload):
    """Training throughput on the in-memory world (optionally pooled)."""

    def __init__(self, seed, workdir, epochs: int, workers: Optional[int]) -> None:
        super().__init__(seed, workdir)
        self.epochs = epochs
        self.workers = workers

    def skip_reason(self) -> Optional[str]:
        cpus = usable_cpus()
        if self.workers and cpus < self.workers:
            return f"needs {self.workers} CPUs for {self.workers} workers, has {cpus}"
        return None

    def _config(self, **overrides) -> TrainConfig:
        settings = dict(epochs=self.epochs, seed=self.seed, num_workers=self.workers)
        return TrainConfig(**{**settings, **overrides})

    def _model(self):
        return build_model("dcmt", self.train.schema, ModelConfig(seed=self.seed))

    def setup(self) -> None:
        self.world, self.train, self.test = _world(self.seed)
        self.problems: List[str] = []
        warm = self._model()
        fit_model(warm, self.train, self._config(epochs=1, max_batches_per_epoch=4))
        if self.workers:
            # The pool's contract: bit-exact with the same shard count
            # computed in-process.
            serial = self._model()
            fit_model(
                serial,
                self.train,
                TrainConfig(
                    epochs=1, seed=self.seed, num_shards=self.workers,
                    max_batches_per_epoch=4,
                ),
            )
            if model_digest(serial) != model_digest(warm):
                self.problems.append("pool fit differs from serial sharded fit")

    def task(self, index, probe=None) -> TaskResult:
        gauge = self.gauge_for(probe)
        model = self._model()
        clock = StepClock(gauge)
        callbacks = [clock] + ([probe.callback()] if probe else [])
        with _span(probe, TASK):
            start = time.perf_counter()
            fit_model(model, self.train, self._config(), callbacks=callbacks)
            span = (start, time.perf_counter())
        quality = {"cvr_auc": _cvr_auc(model, self.test)} if index == 0 else {}
        return TaskResult(
            gauge=gauge,
            spans=[(span, None)],
            ops=clock.steps,
            op_part=None,
            train_rows=len(self.train) * self.epochs,
            train_spans=[span],
            train_part=None,
            digest=model_digest(model),
            quality=quality,
            problems=list(self.problems),
        )


class CsvIdMapper:
    """The synthetic world seen through a CSV load's id space.

    The model trained from CSV knows re-indexed sparse ids and
    standardised dense values; live requests come from the world.  This
    applies the training load's ``VocabularyMaps`` (unseen ids go to
    the OOV bucket 0) and ``dense_stats`` to every feature the world
    produces, so the fleet can serve the CSV-trained model.
    """

    def __init__(self, world: SyntheticScenario, source: ChunkedCSVSource, probe=None):
        self.world = world
        self.config = world.config
        self.item_popularity = world.item_popularity
        self.schema = source.schema
        self._dense_stats = source.dense_stats
        self._luts = {}
        for feature in world.schema.sparse:
            lut = np.zeros(feature.vocab_size, dtype=np.int64)
            for raw, index in source.vocabularies.maps.get(feature.name, {}).items():
                lut[int(raw)] = index
            self._luts[feature.name] = lut
        self._probe = probe

    def _remap(self, sparse, dense):
        return (
            {name: self._luts[name][ids] for name, ids in sparse.items()},
            {
                name: (values - self._dense_stats[name][0]) / self._dense_stats[name][1]
                for name, values in dense.items()
            },
        )

    def features_for(self, users, items, positions, rng):
        with _span(self._probe, "serving.features"):
            return self._remap(*self.world.features_for(users, items, positions, rng))

    def dataset(self, data: InteractionDataset) -> InteractionDataset:
        sparse, dense = self._remap(data.sparse, data.dense)
        return InteractionDataset(
            name=f"{data.name}-csv-ids",
            schema=self.schema,
            sparse=sparse,
            dense=dense,
            clicks=data.clicks,
            conversions=data.conversions,
            oracle_ctr=data.oracle_ctr,
            oracle_cvr=data.oracle_cvr,
            oracle_conversion=data.oracle_conversion,
        )


class CsvToPagesWorkload(Workload):
    """CSV -> fit -> publish -> fleet -> pages, timed from outside."""

    EPOCHS = 3

    def setup(self) -> None:
        self.world, train, self.test = _world(self.seed)
        self.path = export_csv_dataset(train, self.workdir / "train.csv")
        self.spec = ColumnSpec(
            dense_features=tuple(train.dense),
            wide_features=tuple(f.name for f in train.schema.sparse if f.kind == "wide"),
        )
        rng = np.random.default_rng(self.seed)
        n_users, n_items = self.world.config.n_users, self.world.config.n_items
        self.requests = [
            (int(rng.integers(0, n_users)), rng.choice(n_items, CANDIDATES, replace=False))
            for _ in range(PAGES)
        ]
        warm = build_model("dcmt", train.schema, ModelConfig(seed=self.seed))
        fit_model(warm, train, TrainConfig(epochs=1, max_batches_per_epoch=4))

    def task(self, index, probe=None) -> TaskResult:
        gauge = self.gauge_for(probe)
        registry_dir = self.workdir / f"registry-{index}"
        callbacks = [StepClock(gauge)] + ([probe.callback()] if probe else [])
        ops: List[Span] = []
        pages: List[np.ndarray] = []
        shed = 0
        with _span(probe, TASK):
            start = time.perf_counter()
            with _span(probe, "data.meta_pass"):
                source = ChunkedCSVSource(self.path, chunk_rows=4096, spec=self.spec)

            def factory():
                return build_model("dcmt", source.schema, ModelConfig(seed=self.seed))

            model = factory()
            with _span(probe, "training.fit"):
                fit_start = time.perf_counter()
                fit_model(
                    model, source, TrainConfig(epochs=self.EPOCHS, seed=self.seed),
                    callbacks=callbacks,
                )
                fit_span = (fit_start, time.perf_counter())
            mapper = CsvIdMapper(self.world, source, probe)
            eval_set = mapper.dataset(self.test)
            manager = ModelLifecycleManager(ModelRegistry(registry_dir), factory)
            with _span(probe, "lifecycle.submit"):
                decision = manager.submit(model, eval_set, note="csv_to_pages")
            with _span(probe, "lifecycle.fleet"):
                fleet = ServingFleet.from_registry(
                    manager.registry, factory, mapper, REPLICAS, seed=self.seed
                )
            rng = np.random.default_rng(self.seed + 1)
            with _span(probe, "client.pages"):
                pages_start = time.perf_counter()
                for user, candidates in self.requests:
                    sent = time.perf_counter()
                    try:
                        page, _ = fleet.serve_page(user, candidates, rng)
                    except RequestShedError:
                        shed += 1
                        continue
                    ops.append((sent, time.perf_counter()))
                    pages.append(page)
                    gauge.tick()
            end = time.perf_counter()
        shutil.rmtree(registry_dir, ignore_errors=True)

        problems = []
        if decision.action != "bootstrap":
            problems.append(f"first submit was {decision.action}: {decision.reason}")
        if shed:
            problems.append(f"{shed} pages shed by a healthy fleet")
        for (_, candidates), page in zip(self.requests, pages):
            if len(page) != fleet.page_size or len(set(page)) != len(page) or not set(
                page
            ) <= set(candidates):
                problems.append("a page is not a distinct subset of its candidates")
                break
        if probe is not None:
            stats = fleet.stats
            probe.counts["data.rows_parsed"] += source.gauge.rows_materialized
            probe.counts["serving.requests"] += stats.served
            probe.counts["serving.primary"] += stats.by_source.get("primary", 0)
            probe.counts["fleet.hedges"] += stats.hedges
            probe.counts["fleet.shed"] += stats.fleet_shed
        digest = hashlib.sha256(b"".join(p.tobytes() for p in pages)).hexdigest()
        quality = {"cvr_auc": _cvr_auc(model, eval_set)} if index == 0 else {}
        # The meta pass and the fit spend most of their time parsing CSV,
        # so the kernel's CSV part converts them, and its page part the
        # pages; publishing and the fleet build between go by the whole.
        return TaskResult(
            gauge=gauge,
            spans=[
                ((start, fit_span[1]), "csv"),
                ((fit_span[1], pages_start), None),
                ((pages_start, end), "pages"),
            ],
            ops=ops,
            op_part="pages",
            train_rows=len(source) * self.EPOCHS,
            train_spans=[fit_span],
            train_part="csv",
            digest=digest,
            quality=quality,
            problems=problems,
        )


#: The ``month`` test lane's smoke month (``tests/simulation/test_month.py``).
SMOKE_MONTH = dict(
    tenants=("ae_es", "alipay_search"),
    days=8,
    n_users=160,
    n_items=220,
    bootstrap_rows=1500,
    pages_per_day=40,
    candidates_per_page=16,
    page_size=5,
    eval_rows=400,
    canary_pages=40,
    epochs=3,
    retrain_every_days=4,
    train_window_days=6,
    exploration_rows_per_day=120,
    reference_rows=400,
    calibration_min_samples=150,
    calibration_window=600,
)

#: Months one task runs.  How many retrains, promotions and rollbacks a
#: month holds, and so its cost and its pages' latency, depend on its
#: seed: one month's days cost 1.8-2.5 s on a 2-vCPU host.  When a run
#: covered as many single months as fitted in its time, the page p50 of
#: runs with ten seeds moved by up to 17% with the mix of months they
#: reached.  So every task runs the same three months -- seeds
#: ``7 .. 9``, starting at ``7 + S`` -- and a run's work does not
#: depend on ``S``.
MONTHS = 3


class MonthWorkload(Workload):
    """Managed smoke months; the days after each bootstrap are the task."""

    setup_repeats = 0

    def month_seeds(self) -> List[int]:
        return [7 + (self.seed + i) % MONTHS for i in range(MONTHS)]

    def warmup(self) -> None:
        config = month_module.MonthConfig(
            **{**SMOKE_MONTH, "days": 1}, seed=self.month_seeds()[0]
        )
        workdir = self.workdir / "warmup"
        month_module.MonthSimulation(config, workdir=workdir).run()
        shutil.rmtree(workdir, ignore_errors=True)

    def _stage_seams(self):
        from repro.lifecycle.manager import ModelLifecycleManager as Manager
        from repro.reliability.drift import DriftReference
        from repro.simulation.behavior import BehaviorSimulator

        sim = month_module.MonthSimulation
        return [
            (month_module, "SyntheticScenario", "month.world"),
            (month_module, "BehaviorSimulator", "month.world"),
            (sim, "_organic_log", "month.world"),
            (sim, "_log_dataset", "month.world"),
            (sim, "_refresh_eval_set", "month.world"),
            (BehaviorSimulator, "roll_out", "month.behavior"),
            (sim, "_serve_block", "month.serve"),
            (month_module, "fit_model", "month.fit"),
            (month_module, "lifecycle_retrain_view", "month.fit"),
            (Manager, "submit", "month.lifecycle"),
            (Manager, "adopt", "month.lifecycle"),
            (Manager, "build_canary", "month.lifecycle"),
            (Manager, "conclude_canary", "month.lifecycle"),
            (Manager, "rollback", "month.lifecycle"),
            (ServingFleet, "from_registry", "month.lifecycle"),
            (sim, "_roll_fleet", "month.lifecycle"),
            (DriftReference, "capture", "month.monitor"),
            (sim, "_observe", "month.monitor"),
            (month_module, "quarantine_oov_rows", "month.ingest"),
            (sim, "_day_regret", "month.eval"),
        ]

    def task(self, index, probe=None) -> TaskResult:
        gauge = self.gauge_for(probe)
        ops: List[Span] = []
        #: ``(rows x epochs, window, after the month's first page)`` of each fit.
        fits: List[tuple] = []
        serving = [False]

        def time_pages(serve_page):
            def timed(*args, **kwargs):
                sent = time.perf_counter()
                try:
                    return serve_page(*args, **kwargs)
                finally:
                    ops.append((sent, time.perf_counter()))
                    serving[0] = True
                    gauge.tick()

            return timed

        def time_fits(fit):
            def timed(model, train, config=None, *args, **kwargs):
                kwargs["callbacks"] = [*kwargs.get("callbacks", ()), StepClock(gauge)]
                began = time.perf_counter()
                try:
                    return fit(model, train, config, *args, **kwargs)
                finally:
                    window = (began, time.perf_counter())
                    fits.append((len(train) * config.epochs, window, serving[0]))

            return timed

        #: ``(seed, start, first page sent, end, report)`` of each month.
        months: List[tuple] = []
        with contextlib.ExitStack() as stack:
            if probe is not None:
                probe.wrap_all(stack, self._stage_seams())
            patch(stack, ServingFleet, "serve_page", time_pages)
            patch(stack, month_module, "fit_model", time_fits)
            with _span(probe, TASK):
                for seed in self.month_seeds():
                    workdir = self.workdir / f"month-{index}-{seed}"
                    config = month_module.MonthConfig(**SMOKE_MONTH, seed=seed)
                    first = len(ops)
                    serving[0] = False
                    start = time.perf_counter()
                    report = month_module.MonthSimulation(config, workdir=workdir).run()
                    end = time.perf_counter()
                    shutil.rmtree(workdir, ignore_errors=True)
                    if len(ops) == first:
                        raise RuntimeError(f"month {seed} served no page")
                    months.append((seed, start, ops[first][0], end, report))

        problems = []
        for seed, _, _, _, report in months:
            if not math.isfinite(report.total_regret):
                problems.append(f"month {seed}: regret is {report.total_regret}")
        measured = [(rows, w) for rows, w, after in fits if after] or [
            (rows, w) for rows, w, _ in fits
        ]
        if probe is not None:
            for *_, report in months:
                for summary in report.tenant_summary.values():
                    for name in ("retrains", "promotions", "rollbacks"):
                        probe.counts[f"month.{name}"] += summary.get(name, 0)
                for snapshot in report.fleet.values():
                    probe.counts["serving.requests"] += snapshot["served"]
                    probe.counts["serving.primary"] += snapshot["by_source"].get(
                        "primary", 0
                    )
                    probe.counts["fleet.hedges"] += snapshot["hedges"]
                    probe.counts["fleet.shed"] += snapshot["fleet_shed"]
        transcripts = "".join(report.transcript() for *_, report in months)
        return TaskResult(
            gauge=gauge,
            spans=[((first, end), None) for _, _, first, end, _ in months],
            ops=ops,
            op_part="pages",
            train_rows=sum(rows for rows, _ in measured),
            train_spans=[window for _, window in measured],
            train_part=None,
            digest=hashlib.sha256(transcripts.encode()).hexdigest(),
            setup_spans=[(start, first) for _, start, first, _, _ in months],
            quality={"month_regret": months[0][4].total_regret} if index == 0 else {},
            problems=problems,
        )


WORKLOADS = {
    "train_inmem": lambda seed, workdir: TrainWorkload(seed, workdir, 5, None),
    "train_pool2": lambda seed, workdir: TrainWorkload(seed, workdir, 6, 2),
    "csv_to_pages": CsvToPagesWorkload,
    "month_smoke": MonthWorkload,
}
