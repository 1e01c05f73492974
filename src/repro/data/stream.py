"""Streaming data sources: the out-of-core data path.

Everything upstream of this module materialises the entire exposure
log ``D`` as RAM-resident arrays -- fine for the reduced-scale
synthetic presets, wrong for the production-scale logs DCMT targets.
This module inverts the contract: a :class:`DataSource` is *iterated*
in ``Batch``-shaped shards, with only the cheap global facts (row
count, schema, vocabularies, dense statistics) known up front.

Two implementations:

* :class:`InMemorySource` wraps an :class:`InteractionDataset` and
  delegates to :func:`repro.data.batching.batch_iterator`, so it is
  bit-exact with the historical in-memory path at a fixed RNG state --
  the property that lets :class:`~repro.training.engine.TrainingEngine`
  accept sources without perturbing a single golden test.
* :class:`ChunkedCSVSource` parses a CSV exposure log once through
  the same :class:`~repro.data.loaders.CSVRowParser` as the in-memory
  loaders (strict, with file:line:column provenance, when no policy is
  given; quarantining under an :class:`IngestPolicy`), and spills the
  converted chunks to an anonymous temporary file that every epoch
  reads back.  Peak memory is 1 chunk -- the one being filled at
  construction or trained on -- no matter how large the file; a
  :class:`ChunkMemoryGauge` proves it.

Design notes
------------
**Chunk boundary is a batch boundary.**  ``ChunkedCSVSource`` shuffles
*within* a chunk (a bounded-memory approximation of a global shuffle)
and never forms a batch across two chunks, so each chunk's arrays can
be freed before the next is read back.  The final batch of each chunk may
therefore be short; ``drop_last`` drops those per-chunk tails.

**Resume = skip without desynchronising.**  ``iter_batches`` takes a
``start_batch`` cursor (what
:class:`~repro.reliability.checkpoint.TrainingSnapshot` records as
``batch_in_epoch``).  Skipped chunks are not read back --
crucially each skipped chunk still draws its
``rng.permutation``, so the RNG stream stays aligned and the batches
that *are* yielded are bit-identical to an uninterrupted epoch.
"""

from __future__ import annotations

import abc
import os
import tempfile
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.batching import batch_iterator, n_batches, slice_batch
from repro.data.dataset import Batch, InteractionDataset
from repro.data.ingest import (
    IngestBudgetError,
    IngestPolicy,
    IngestReport,
    QuarantineStore,
)
from repro.data.loaders import ColumnSpec, CSVRowParser, VocabularyMaps
from repro.data.schema import FeatureSchema
from repro.utils.logging import get_logger, log_event

logger = get_logger("data.stream")


class DataSource(abc.ABC):
    """Chunked iteration over ``Batch``-shaped shards of an exposure log.

    The global facts -- ``len``, ``schema`` -- are known up front (one
    cheap metadata pass at most); the rows themselves are only ever
    materialised a bounded window at a time by :meth:`iter_batches`.
    """

    name: str
    schema: FeatureSchema

    @abc.abstractmethod
    def __len__(self) -> int:
        """Total number of rows one epoch yields (before ``drop_last``)."""

    @abc.abstractmethod
    def iter_batches(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
        drop_last: bool = False,
        start_batch: int = 0,
    ) -> Iterator[Batch]:
        """One epoch of mini-batches, skipping the first ``start_batch``.

        Misconfiguration (``drop_last`` that would yield zero batches,
        missing ``rng``) raises eagerly at call time.  The skip must be
        RNG-transparent: batches ``start_batch..`` are bit-identical to
        the same positions of an uninterrupted epoch at the same RNG
        state.
        """

    @abc.abstractmethod
    def validate(self) -> None:
        """Prove schema invariants (sparse ids in range) for the epoch.

        The engine calls this once per ``fit`` to arm the
        ``trusted_indices`` fast path.
        """

    @abc.abstractmethod
    def sample_batch(self, n: int) -> Batch:
        """A small deterministic probe batch (monitor callbacks).

        Returns at most ``n`` rows; no RNG involved.
        """

    def n_batches_per_epoch(self, batch_size: int, drop_last: bool) -> int:
        """Batches one epoch yields (sources with tails may override)."""
        return n_batches(len(self), batch_size, drop_last)


# ----------------------------------------------------------------------
class InMemorySource(DataSource):
    """A :class:`DataSource` view of a RAM-resident dataset.

    Pure delegation to :func:`batch_iterator`: same permutation draw,
    same slicing, same batches, bit-exact.
    """

    def __init__(self, dataset: InteractionDataset) -> None:
        self.dataset = dataset
        self.name = dataset.name
        self.schema = dataset.schema

    def __len__(self) -> int:
        return len(self.dataset)

    def iter_batches(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
        drop_last: bool = False,
        start_batch: int = 0,
    ) -> Iterator[Batch]:
        return batch_iterator(
            self.dataset,
            batch_size,
            rng=rng,
            shuffle=shuffle,
            drop_last=drop_last,
            start_batch=start_batch,
        )

    def validate(self) -> None:
        self.dataset.validate()

    def sample_batch(self, n: int) -> Batch:
        idx = np.arange(min(n, len(self.dataset)))
        return slice_batch(self.dataset, idx)


# ----------------------------------------------------------------------
@dataclass
class ChunkMemoryGauge:
    """Accounting proof that the chunked reader is bounded-memory.

    ``resident_chunks`` counts the chunk being filled by the metadata
    pass or read back for training; the invariant the acceptance test
    pins is ``peak_resident_chunks == 1`` regardless of file size.
    ``rows_parsed`` counts CSV rows read at construction (dropped rows
    included); ``rows_materialized`` counts rows read back by epochs.
    """

    resident_chunks: int = 0
    peak_resident_chunks: int = 0
    resident_bytes: int = 0
    peak_resident_bytes: int = 0
    chunks_materialized: int = 0
    rows_materialized: int = 0
    rows_parsed: int = 0

    def acquire(self, n_chunks: int, nbytes: int) -> None:
        self.resident_chunks += n_chunks
        self.resident_bytes += nbytes
        self.peak_resident_chunks = max(
            self.peak_resident_chunks, self.resident_chunks
        )
        self.peak_resident_bytes = max(
            self.peak_resident_bytes, self.resident_bytes
        )

    def release(self, n_chunks: int, nbytes: int) -> None:
        self.resident_chunks -= n_chunks
        self.resident_bytes -= nbytes


@dataclass
class _ChunkPlan:
    """Deterministic epoch geometry, fixed by the metadata pass.

    ``offsets[k]`` is where chunk ``k`` starts in the spill file.
    """

    sizes: List[int] = field(default_factory=list)
    offsets: List[int] = field(default_factory=list)
    spill_bytes: int = 0

    def add(self, size: int, nbytes: int) -> int:
        """Append a chunk of ``size`` rows; return its spill offset."""
        offset = self.spill_bytes
        self.sizes.append(size)
        self.offsets.append(offset)
        self.spill_bytes += nbytes
        return offset

    def batches_before(self, chunk: int, batch_size: int, drop_last: bool) -> int:
        return sum(
            n_batches(size, batch_size, drop_last)
            for size in self.sizes[:chunk]
        )


def _pwrite_all(fd: int, block: np.ndarray, offset: int) -> None:
    view = memoryview(block).cast("B")
    done = 0
    while done < len(view):
        done += os.pwrite(fd, view[done:], offset + done)


def _pread_into(fd: int, block: np.ndarray, offset: int) -> None:
    view = memoryview(block).cast("B")
    done = 0
    while done < len(view):
        n = os.preadv(fd, [view[done:]], offset + done)
        if n == 0:
            raise EOFError(f"spill file ends inside the chunk at offset {offset}")
        done += n


class ChunkedCSVSource(DataSource):
    """Bounded-memory chunked reader over a CSV exposure log.

    The CSV is parsed exactly once, by a metadata pass at construction.
    It builds the vocabulary (incremental, identical id assignment to a
    full in-memory load), dense statistics (running sums), the
    quarantine report and the chunk geometry, and spills each chunk's
    converted columns to an anonymous temporary file: labels, sparse
    ids and *raw* dense values, 8 bytes each per row.  Every epoch (and
    :meth:`sample_batch`) reads chunks back with explicit-offset
    ``os.preadv`` and standardises the dense columns; at no point do
    more than ``chunk_rows`` rows live in memory.

    The source is a snapshot: overwriting the CSV after construction
    changes no batch.  The spill lives where :mod:`tempfile` puts it
    (``TMPDIR``) and is unlinked at creation, so it vanishes with the
    source or the process.  Reads never move a file position, so forked
    workers sharing the file description cannot disturb one another.

    Parameters
    ----------
    path:
        CSV file in the loader format.
    chunk_rows:
        Kept rows per materialised chunk (the memory budget).
    policy:
        ``None`` selects *strict* mode: any malformed row raises with
        the same file:line:column provenance the strict loader reports.
        An :class:`IngestPolicy` selects quarantine mode: rows are
        classified/repaired/dropped per chunk, with the error budget
        enforced over the whole file at construction.
    vocabularies / freeze_vocabulary / dense_stats:
        Train-split state for loading further splits consistently,
        exactly as in :func:`~repro.data.loaders.load_csv_dataset`.
    quarantine_max_rows:
        Retention cap for quarantined-row provenance (counts are exact
        regardless; retention is bounded so dirty files cannot grow
        memory).
    """

    def __init__(
        self,
        path: "Path | str",
        chunk_rows: int,
        spec: Optional[ColumnSpec] = None,
        policy: Optional[IngestPolicy] = None,
        vocabularies: Optional[VocabularyMaps] = None,
        freeze_vocabulary: bool = False,
        dense_stats: Optional[Dict[str, Tuple[float, float]]] = None,
        name: Optional[str] = None,
        quarantine_max_rows: int = 64,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.path = Path(path)
        self.chunk_rows = chunk_rows
        self.spec = spec or ColumnSpec()
        self.policy = policy
        self.vocabularies = vocabularies or VocabularyMaps()
        self.freeze_vocabulary = freeze_vocabulary
        self.name = name or self.path.stem
        self.gauge = ChunkMemoryGauge()

        # -- metadata pass: vocabulary, dense stats, quarantine, geometry,
        # and the spill of every chunk's converted columns.
        self._spill = tempfile.TemporaryFile()
        self._close_spill = weakref.finalize(self, self._spill.close)
        self.quarantine = QuarantineStore(max_rows=quarantine_max_rows)
        parser = CSVRowParser(
            self.path,
            self.spec,
            self.vocabularies,
            freeze_vocabulary,
            policy,
            self.quarantine,
        )
        self._dense_columns = parser.dense_columns
        self._sparse_columns = parser.sparse_columns
        self._n_columns = 2 + len(self._sparse_columns) + len(self._dense_columns)
        sums = [0.0] * len(self._dense_columns)
        sumsqs = [0.0] * len(self._dense_columns)
        total = 0
        plan = _ChunkPlan()
        for total, row in enumerate(parser.rows(), 1):
            if not parser.parse(row, total - 1):
                continue
            parser.index(row)
            filled = len(parser.clicks)
            if filled == 1:
                # The chunk being filled counts as resident.
                self.gauge.acquire(1, 0)
            if filled == chunk_rows:
                self._spill_chunk(plan, parser, sums, sumsqs)
        if parser.clicks:
            self._spill_chunk(plan, parser, sums, sumsqs)
        kept = sum(plan.sizes)
        self.gauge.rows_parsed = total
        self._n_rows = kept
        self._plan = plan

        self.report = IngestReport.build(self.path, total, self.quarantine, policy)
        log_event(
            logger,
            "stream_metadata_pass",
            path=str(self.path),
            total=total,
            loaded=kept,
            chunks=len(plan.sizes),
            chunk_rows=chunk_rows,
            spill_bytes=plan.spill_bytes,
        )
        if self.report.corrupt_fraction > self.report.error_budget:
            raise IngestBudgetError(self.report)

        if dense_stats is None:
            dense_stats = {}
            for k, c in enumerate(self._dense_columns):
                if kept:
                    mean = sums[k] / kept
                    var = max(sumsqs[k] / kept - mean**2, 0.0)
                    dense_stats[c] = (mean, float(np.sqrt(var)) or 1.0)
                else:
                    dense_stats[c] = (0.0, 1.0)
        self.dense_stats = dense_stats
        self.schema = parser.schema()

    # -- spill ------------------------------------------------------------
    # A chunk of n rows is one (2 + sparse + dense, n) int64 block:
    # clicks, conversions, sparse ids, then the raw dense float64 bits.
    def _spill_chunk(
        self,
        plan: _ChunkPlan,
        parser: CSVRowParser,
        sums: List[float],
        sumsqs: List[float],
    ) -> None:
        """Append the parser's filled chunk to the spill and empty its
        lists, adding the chunk's dense values to the running sums."""
        sparse, dense = parser.sparse, parser.dense
        n_int = 2 + len(sparse)
        block = np.empty((n_int + len(dense), len(parser.clicks)), dtype=np.int64)
        block[:n_int] = np.array(
            [parser.clicks, parser.conversions, *sparse], dtype=np.int64
        )
        if dense:
            block[n_int:] = np.array(dense, dtype=np.float64).view(np.int64)
        # Row order within each column: the same float sums as adding
        # every value as its row is read.
        for k, values in enumerate(dense):
            for value in values:
                sums[k] += value
                sumsqs[k] += value**2
        offset = plan.add(len(parser.clicks), block.nbytes)
        _pwrite_all(self._spill.fileno(), block, offset)
        for column in (parser.clicks, parser.conversions, *sparse, *dense):
            column.clear()
        self.gauge.release(1, 0)

    def _read_block(self, chunk: int) -> np.ndarray:
        block = np.empty((self._n_columns, self._plan.sizes[chunk]), dtype=np.int64)
        _pread_into(self._spill.fileno(), block, self._plan.offsets[chunk])
        return block

    def _as_batch(self, block: np.ndarray) -> Batch:
        """Row views of a spilled block, dense columns standardised."""
        n_int = 2 + len(self._sparse_columns)
        raw = block[n_int:].view(np.float64)
        dense = {}
        for k, c in enumerate(self._dense_columns):
            mean, std = self.dense_stats[c]
            dense[c] = (raw[k] - mean) / std
        return Batch(
            sparse={c: block[2 + k] for k, c in enumerate(self._sparse_columns)},
            dense=dense,
            clicks=block[0],
            conversions=block[1],
        )

    @staticmethod
    def _chunk_batch(chunk: Batch, idx: np.ndarray) -> Batch:
        return Batch(
            sparse={k: v[idx] for k, v in chunk.sparse.items()},
            dense={k: v[idx] for k, v in chunk.dense.items()},
            clicks=chunk.clicks[idx],
            conversions=chunk.conversions[idx],
        )

    # -- DataSource interface ------------------------------------------
    def __len__(self) -> int:
        return self._n_rows

    def n_batches_per_epoch(self, batch_size: int, drop_last: bool) -> int:
        return self._plan.batches_before(
            len(self._plan.sizes), batch_size, drop_last
        )

    def iter_batches(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
        drop_last: bool = False,
        start_batch: int = 0,
    ) -> Iterator[Batch]:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if start_batch < 0:
            raise ValueError(f"start_batch must be >= 0, got {start_batch}")
        if shuffle and rng is None:
            raise ValueError("shuffle=True requires an rng")
        if drop_last and self._plan.sizes and batch_size > min(self._plan.sizes):
            raise ValueError(
                f"drop_last=True with batch_size={batch_size} > smallest "
                f"chunk ({min(self._plan.sizes)} rows) would yield zero "
                f"batches for that chunk; lower the batch size, raise "
                f"chunk_rows, or set drop_last=False"
            )
        return self._iterate(batch_size, rng, shuffle, drop_last, start_batch)

    def _iterate(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator],
        shuffle: bool,
        drop_last: bool,
        start_batch: int,
    ) -> Iterator[Batch]:
        batch_cursor = 0
        for chunk, chunk_n in enumerate(self._plan.sizes):
            n_chunk_batches = n_batches(chunk_n, batch_size, drop_last)
            if shuffle:
                assert rng is not None
                # Drawn even for skipped chunks: the RNG stream must
                # advance identically whether or not we materialise.
                order = rng.permutation(chunk_n)
            else:
                order = np.arange(chunk_n)
            if batch_cursor + n_chunk_batches <= start_batch:
                batch_cursor += n_chunk_batches
                continue
            block = self._read_block(chunk)
            arrays = self._as_batch(block)
            nbytes = block.nbytes + sum(v.nbytes for v in arrays.dense.values())
            self.gauge.acquire(1, nbytes)
            self.gauge.chunks_materialized += 1
            self.gauge.rows_materialized += chunk_n
            try:
                for start in range(0, chunk_n, batch_size):
                    idx = order[start : start + batch_size]
                    if drop_last and len(idx) < batch_size:
                        break
                    if batch_cursor >= start_batch:
                        yield self._chunk_batch(arrays, idx)
                    batch_cursor += 1
            finally:
                self.gauge.release(1, nbytes)

    def close(self) -> None:
        """Close the spill file now rather than when the source is
        collected; the source cannot be iterated afterwards."""
        self._close_spill()

    def validate(self) -> None:
        """No-op: the metadata pass constructed every sparse id in
        range (dense re-indexing / bounded feature hashing), which is
        the invariant ``trusted_indices`` relies on."""

    def sample_batch(self, n: int) -> Batch:
        head = np.empty((self._n_columns, min(n, self._n_rows)), dtype=np.int64)
        filled = 0
        for chunk in range(len(self._plan.sizes)):
            if filled == head.shape[1]:
                break
            take = min(head.shape[1] - filled, self._plan.sizes[chunk])
            head[:, filled : filled + take] = self._read_block(chunk)[:, :take]
            filled += take
        return self._as_batch(head)


# ----------------------------------------------------------------------
def shard_sizes(n_rows: int, n_shards: int) -> List[int]:
    """Row counts of a contiguous ``n_shards``-way split of ``n_rows``.

    The first ``n_rows % n_shards`` shards carry one extra row (the
    ``np.array_split`` convention).  When there are fewer rows than
    shards the empty tails are dropped, so every returned size is
    positive -- a ragged final batch simply fans out to fewer workers.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    base, extra = divmod(n_rows, n_shards)
    sizes = [base + 1] * extra + [base] * (n_shards - extra)
    return [s for s in sizes if s > 0]


def shard_batch(batch: Batch, n_shards: int) -> List[Batch]:
    """Split one batch into contiguous row shards for parallel workers.

    The split is pure arithmetic over the row count (see
    :func:`shard_sizes`), so the shard a row lands in depends only on
    ``(batch.size, n_shards)`` -- the property that makes the parallel
    engine's seeded aggregation order reproducible, and the serial
    replay of the same split bit-exact.  Slices are views; workers in a
    forked process copy on pickle anyway.
    """
    sizes = shard_sizes(batch.size, n_shards)
    shards: List[Batch] = []
    start = 0
    for size in sizes:
        rows = slice(start, start + size)
        shards.append(
            Batch(
                sparse={k: v[rows] for k, v in batch.sparse.items()},
                dense={k: v[rows] for k, v in batch.dense.items()},
                clicks=batch.clicks[rows],
                conversions=batch.conversions[rows],
                actions=None if batch.actions is None else batch.actions[rows],
                weights=None if batch.weights is None else batch.weights[rows],
            )
        )
        start += size
    return shards


def as_source(data: "InteractionDataset | DataSource") -> DataSource:
    """Adapt ``data`` to the source protocol (datasets get wrapped)."""
    if isinstance(data, DataSource):
        return data
    if isinstance(data, InteractionDataset):
        return InMemorySource(data)
    raise TypeError(
        f"expected an InteractionDataset or DataSource, got {type(data).__name__}"
    )
