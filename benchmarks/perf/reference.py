"""Host-speed reference: a fixed kernel timed between the system's operations.

The benchmark runs on shared VMs whose speed drifts while it measures.
On the 2-vCPU VM it was defined on, with no steal time recorded, a
process's training step p50 moved between 7.7 and 13 ms within two
minutes, and page latencies fell into two modes, 0.6 and about 1 ms,
in stretches of hundreds of pages: neighbours on the same physical
cores slow every instruction, so neither longer runs nor CPU time
remove the drift.

A :class:`HostGauge` therefore times a fixed piece of work, the
:class:`ReferenceKernel`, at the hook points between the system's
operations (after a training step, after a served page), at most once
every ``interval_s``.  Each stretch of the system's work is then
converted into *nominal seconds* -- the time it would take on a host
where one kernel call takes :data:`NOMINAL_S` -- by the kernel samples
on either side of it (:meth:`HostGauge.seconds`,
:meth:`HostGauge.op_seconds`).  Served pages and fits that stream CSV
are converted by one part of the kernel alone (:data:`NOMINAL_PARTS`).
The time of the samples themselves is left out.

On that VM, over six minutes of alternating 2-epoch in-memory fits,
1-epoch CSV fits and 2,000-page blocks, the coefficients of variation
were 13%, 14% and 16% (page p50) in wall time, and 2.1%, 3.2% and 2.6%
in nominal time.

The kernel depends only on numpy, the ``csv`` module and this file, so
a change to the system cannot make it faster or slower, with one
exception: work the system leaves running beside it on the same CPU
(a busy thread or worker) slows the kernel too, and would be partly
hidden.
"""

from __future__ import annotations

import bisect
import csv
import io
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Duration of one kernel call on the nominal host.  The kernel took
#: 2.1-2.3 ms when the VM was fast and 3.2-6.0 ms when it was slow.
NOMINAL_S = 2.5e-3
#: Duration of the kernel parts that convert some work on their own, on
#: the nominal host: the CSV part was 21-28% of a call, the page part 37%.
NOMINAL_PARTS = {"csv": 0.65e-3, "pages": 0.95e-3}
#: Least time between two kernel calls at the hook points.
INTERVAL_S = 0.02
#: Samples on each side of a stretch of work that set its conversion.
NEIGHBOURS = 2

Span = Tuple[float, float]
#: The kernel part that converts a stretch of work: a key of
#: :data:`NOMINAL_PARTS`, or ``None`` for the whole kernel.
Part = Optional[str]


class _Ranker:
    """A page ranked the way a serving replica ranks one, in miniature."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.lut = rng.integers(0, 5_000, 20_000)
        self.tables = [rng.standard_normal((5_000, 16)) for _ in range(6)]
        self.w1 = rng.standard_normal((96, 64)) * 0.1
        self.w2 = rng.standard_normal((64, 1)) * 0.1
        self.served: Dict[str, int] = {}

    def serve(self, candidates: np.ndarray) -> np.ndarray:
        ids = self.lut[candidates]
        features = np.concatenate([table[ids] for table in self.tables], axis=1)
        hidden = np.maximum(features @ self.w1, 0.0)
        scores = 1.0 / (1.0 + np.exp(-(hidden @ self.w2)[:, 0]))
        scores = np.clip(np.nan_to_num(scores, nan=0.1), 0.0, 1.0)
        self.served["primary"] = self.served.get("primary", 0) + 1
        return candidates[np.argsort(-scores)[:10]]


class ReferenceKernel:
    """Fixed work on fixed inputs; a call returns the times of its CSV and page parts.

    Three parts, each the twin of a layer the workloads time, because
    the layers slow by different amounts when the VM is busy (in one
    slow stretch, pages slowed by 1.75x and a kernel without the page
    part by 1.55x):

    * an engine step: matrix products, a row gather, a ``bincount``;
    * CSV rows parsed into a vocabulary, as the stream does;
    * 16 pages of 50 candidates ranked through a small scorer.

    Their weights were chosen from the six minutes of samples the
    module docstring describes.  Any one part alone left one of the
    three at 4.6-4.8%; the engine and parser parts without the pages
    left the page p50 at 3.6%.

    Served pages are converted by the page part alone.  Over 17 CSV
    tasks in a stretch where the wall-time page p50 varied by 28%, that
    left it at 4.5% against 7.6% by the whole kernel, while training
    steps did best by the whole kernel (0.9% against 1.4% by the page
    part).  A fit that streams CSV is converted by the CSV part alone:
    over the same tasks, converted by the mean kernel time over each
    fit, its time varied by 16% in wall time, 2.3% by the whole kernel
    and 1.5% by the CSV part.  Across 28 runs of ten seeds, its
    throughput converted by the whole kernel still fell by 10% for
    every doubling of the kernel time.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20230401)
        self.x = rng.standard_normal((256, 64))
        self.w1 = rng.standard_normal((64, 128)) * 0.1
        self.w2 = rng.standard_normal((128, 64)) * 0.1
        self.ids = rng.integers(0, 20_000, 1024)
        self.table = rng.standard_normal((20_000, 8))
        self.text = "\n".join(
            ",".join(
                [str(v) for v in rng.integers(0, 5_000, 6)]
                + [f"{v:.6f}" for v in rng.standard_normal(2)]
                + ["1", "0"]
            )
            for _ in range(240)
        )
        self.ranker = _Ranker(rng)
        self.pages = [rng.choice(20_000, 50, replace=False) for _ in range(16)]

    def __call__(self) -> Dict[str, float]:
        h = self.x @ self.w1
        np.maximum(h, 0.0, out=h)
        g = (h @ self.w2) * 0.5
        h.T @ g
        gh = g @ self.w2.T
        gh[h <= 0.0] = 0.0
        self.x.T @ gh
        rows = self.table[self.ids]
        np.bincount(self.ids, weights=rows[:, 0], minlength=len(self.table))

        began = time.perf_counter()
        vocabulary: Dict[str, int] = {}
        total = 0.0
        for row in csv.reader(io.StringIO(self.text)):
            for value in row[:6]:
                vocabulary.setdefault(value, len(vocabulary))
            total += float(row[6]) + float(row[7]) + int(row[8])

        parsed = time.perf_counter()
        for candidates in self.pages:
            self.ranker.serve(candidates)
        return {"csv": parsed - began, "pages": time.perf_counter() - parsed}


class HostGauge:
    """Reference-kernel samples, and conversion of wall time by them.

    ``tick`` is called at hook points; it samples the kernel when
    ``interval_s`` has passed since the last sample.  A gauge with an
    infinite interval never samples on ``tick``; traced tasks use one,
    so no sample lands in a traced span, and it converts to wall
    seconds only.  The kernel is built at the first sample.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        #: ``perf_counter`` at the start and end of every kernel call,
        #: and the times of its parts, by the keys of ``NOMINAL_PARTS``.
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parts: Dict[str, List[float]] = {name: [] for name in NOMINAL_PARTS}
        self._kernel: Optional[ReferenceKernel] = None
        self._due = time.perf_counter() + interval_s

    def sample(self) -> None:
        if self._kernel is None:
            self._kernel = ReferenceKernel()
            for _ in range(5):  # first calls pay for allocation and caches
                self._kernel()
        began = time.perf_counter()
        parts = self._kernel()
        ended = time.perf_counter()
        self.starts.append(began)
        self.ends.append(ended)
        for name, times in self.parts.items():
            times.append(parts[name])
        self._due = ended + self.interval_s

    def tick(self) -> None:
        """Sample the kernel if ``interval_s`` has passed since the last sample."""
        if time.perf_counter() >= self._due:
            self.sample()

    def burst(self, n: int) -> None:
        """``n`` samples back to back, around work that has no hook points."""
        for _ in range(n):
            self.sample()

    # -- conversion ------------------------------------------------------
    def _factor(self, after: int, part: Part = None) -> float:
        """Nominal seconds per wall second between samples ``after - 1`` and ``after``.

        By the mean time of the kernel (or of its ``part``) over up to
        :data:`NEIGHBOURS` samples on each side: the mean, not the
        median, because a stall that lengthens the system's work
        lengthens the kernel calls around it too.
        """
        lo = max(after - NEIGHBOURS, 0)
        hi = min(after + NEIGHBOURS, len(self.starts))
        if lo >= hi:
            raise ValueError("no reference samples to convert by")
        if part is not None:
            return NOMINAL_PARTS[part] * (hi - lo) / sum(self.parts[part][lo:hi])
        spent = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        return NOMINAL_S * (hi - lo) / spent

    def seconds(self, span: Span, nominal: bool = True, part: Part = None) -> float:
        """The system's time within ``span``, kernel calls left out.

        Nominal seconds by default, converted by the kernel's ``part``
        when one is given; wall seconds with ``nominal=False``.
        """
        start, end = span
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        bounds = [start]
        for i in range(first, last):
            bounds += [self.starts[i], self.ends[i]]
        bounds.append(end)
        total = 0.0
        for k in range(0, len(bounds), 2):
            stretch = bounds[k + 1] - bounds[k]
            total += stretch * self._factor(first + k // 2, part) if nominal else stretch
        return total

    def op_seconds(
        self, ops: Sequence[Span], nominal: bool = True, part: Part = None
    ) -> List[float]:
        """Duration of each operation, each converted by the samples around it.

        Served pages are converted by the kernel's ``"pages"`` part.
        """
        if not nominal:
            return [end - start for start, end in ops]
        return [
            (end - start) * self._factor(bisect.bisect_left(self.starts, start), part)
            for start, end in ops
        ]
