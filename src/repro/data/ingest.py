"""Quarantine ingestion: survive dirty exposure logs instead of aborting.

:func:`repro.data.loaders.load_csv_dataset` is the *strict* path: it
raises on the first malformed row, which is the right contract for
curated benchmark files and exactly the wrong one for production logs,
where some fraction of rows is always broken (truncated writes, join
bugs emitting NaN, attribution glitches recording conversions without
clicks).  This module is the forgiving path:

* every data row is **classified** -- malformed cell counts, non-0/1
  labels, conversion-without-click inconsistencies, unparseable or
  NaN/Inf dense values, and (under a frozen vocabulary) out-of-vocab
  ids;
* bad rows are routed to a :class:`QuarantineStore` carrying per-reason
  counts and row provenance (file line numbers plus the raw cells);
* configurable **repair policies** rescue what is rescuable -- impute
  or clip bad dense values, zero inconsistent conversions, bucket OOV
  ids -- while structurally broken rows are dropped;
* an **error budget** bounds the tolerable corruption: the load aborts
  with a structured :class:`IngestBudgetError` (report attached) only
  when the corrupt fraction exceeds ``IngestPolicy.error_budget``.

The classification pass runs *before* vocabulary indexing, so dropped
rows never claim ids: with all-``drop`` policies the resulting dataset
is bit-identical to loading only the clean rows through the strict
loader, and therefore trains to identical metrics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.loaders import (
    BAD_DENSE,
    BAD_LABEL,
    LABEL_INCONSISTENCY,
    MALFORMED_ROW,
    OOV_ID,
    ColumnSpec,
    CSVRowParser,
    VocabularyMaps,
)
from repro.utils.logging import get_logger, log_event

logger = get_logger("data.ingest")

#: Every quarantine reason; each is defined beside the row parser that
#: detects it (:class:`repro.data.loaders.CSVRowParser`).
QUARANTINE_REASONS = (
    MALFORMED_ROW,
    BAD_LABEL,
    LABEL_INCONSISTENCY,
    BAD_DENSE,
    OOV_ID,
)


@dataclass(frozen=True)
class IngestPolicy:
    """Error budget and per-reason repair policies.

    ``malformed_row`` and ``bad_label`` rows are always dropped (their
    structure is lost); the other three reasons are repairable:

    * ``on_bad_dense``: ``"impute"`` replaces the value with
      ``dense_default``, ``"clip"`` maps ±inf to ±``dense_clip`` (NaN
      and unparseable cells still fall back to ``dense_default``),
      ``"drop"`` discards the row;
    * ``on_label_inconsistency``: ``"repair"`` zeroes the conversion
      (the click label is trusted), ``"drop"`` discards the row;
    * ``on_oov_id``: ``"impute"`` routes the id to the shared OOV
      bucket (id 0), ``"drop"`` discards the row.

    The **corrupt fraction** counts every row with at least one defect
    -- repaired rows included, because a repaired row is still evidence
    of an upstream problem.  Loads whose corrupt fraction exceeds
    ``error_budget`` abort with :class:`IngestBudgetError`.
    """

    error_budget: float = 0.25
    on_bad_dense: str = "impute"
    on_label_inconsistency: str = "drop"
    on_oov_id: str = "impute"
    dense_default: float = 0.0
    dense_clip: float = 1e6
    max_examples_per_reason: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_budget <= 1.0:
            raise ValueError(
                f"error_budget must be in [0, 1], got {self.error_budget}"
            )
        if self.on_bad_dense not in ("drop", "impute", "clip"):
            raise ValueError(
                f"on_bad_dense must be drop/impute/clip, got {self.on_bad_dense!r}"
            )
        if self.on_label_inconsistency not in ("drop", "repair"):
            raise ValueError(
                "on_label_inconsistency must be drop/repair, got "
                f"{self.on_label_inconsistency!r}"
            )
        if self.on_oov_id not in ("drop", "impute"):
            raise ValueError(
                f"on_oov_id must be drop/impute, got {self.on_oov_id!r}"
            )
        if not math.isfinite(self.dense_default):
            raise ValueError("dense_default must be finite")
        if not self.dense_clip > 0:
            raise ValueError(f"dense_clip must be > 0, got {self.dense_clip}")
        if self.max_examples_per_reason < 0:
            raise ValueError("max_examples_per_reason must be >= 0")


@dataclass(frozen=True)
class QuarantinedRow:
    """Provenance of one quarantined row."""

    #: 1-based file line number (the header is line 1).
    line: int
    #: Defect reasons, deduplicated, in detection order.
    reasons: Tuple[str, ...]
    #: ``"dropped"`` or ``"repaired"``.
    action: str
    #: Raw cells as read from the file.
    raw: Tuple[str, ...]


class QuarantineStore:
    """Holds quarantined rows with per-reason counts.

    ``max_rows`` bounds how many :class:`QuarantinedRow` records are
    *retained* (streaming loads over arbitrarily dirty files must not
    accumulate O(corrupt) memory); counts always cover every quarantined
    row regardless of retention.  ``None`` retains everything (the
    materialising loader's historical behaviour).
    """

    def __init__(self, max_rows: Optional[int] = None) -> None:
        if max_rows is not None and max_rows < 0:
            raise ValueError("max_rows must be >= 0")
        self.rows: List[QuarantinedRow] = []
        self.counts: Dict[str, int] = {}
        self.max_rows = max_rows
        self._n_dropped = 0
        self._n_repaired = 0

    def add(
        self, line: int, reasons: Sequence[str], action: str, raw: Sequence[str]
    ) -> None:
        reasons = tuple(dict.fromkeys(reasons))
        if action == "dropped":
            self._n_dropped += 1
        else:
            self._n_repaired += 1
        if self.max_rows is None or len(self.rows) < self.max_rows:
            self.rows.append(QuarantinedRow(line, reasons, action, tuple(raw)))
        for reason in reasons:
            self.counts[reason] = self.counts.get(reason, 0) + 1

    @property
    def n_dropped(self) -> int:
        return self._n_dropped

    @property
    def n_repaired(self) -> int:
        return self._n_repaired

    def examples(self, reason: str, k: int) -> List[QuarantinedRow]:
        """First ``k`` retained quarantined rows exhibiting ``reason``."""
        out = [r for r in self.rows if reason in r.reasons]
        return out[:k]

    def dump_jsonl(self, path: "Path | str") -> Path:
        """Write one JSON object per quarantined row (forensics file)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for row in self.rows:
                handle.write(
                    json.dumps(
                        {
                            "line": row.line,
                            "reasons": list(row.reasons),
                            "action": row.action,
                            "raw": list(row.raw),
                        }
                    )
                    + "\n"
                )
        return path


@dataclass
class IngestReport:
    """Structured summary of one quarantine-path load."""

    path: str
    total_rows: int
    loaded_rows: int
    dropped_rows: int
    repaired_rows: int
    reason_counts: Dict[str, int]
    error_budget: float
    #: Up to ``max_examples_per_reason`` file line numbers per reason.
    examples: Dict[str, List[int]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        path: "Path | str",
        total_rows: int,
        store: QuarantineStore,
        policy: Optional[IngestPolicy],
    ) -> "IngestReport":
        """The report of one load; ``policy=None`` is a strict load."""
        k = policy.max_examples_per_reason if policy else 0
        return cls(
            path=str(path),
            total_rows=total_rows,
            loaded_rows=total_rows - store.n_dropped,
            dropped_rows=store.n_dropped,
            repaired_rows=store.n_repaired,
            reason_counts=dict(store.counts),
            error_budget=policy.error_budget if policy else 0.0,
            examples={
                reason: [r.line for r in store.examples(reason, k)]
                for reason in store.counts
            },
        )

    @property
    def corrupt_fraction(self) -> float:
        """Fraction of data rows with at least one defect."""
        if self.total_rows == 0:
            return 0.0
        return (self.dropped_rows + self.repaired_rows) / self.total_rows

    def to_dict(self) -> Dict:
        return {
            "path": self.path,
            "total_rows": self.total_rows,
            "loaded_rows": self.loaded_rows,
            "dropped_rows": self.dropped_rows,
            "repaired_rows": self.repaired_rows,
            "corrupt_fraction": self.corrupt_fraction,
            "error_budget": self.error_budget,
            "reason_counts": dict(self.reason_counts),
            "examples": {k: list(v) for k, v in self.examples.items()},
        }


class IngestBudgetError(ValueError):
    """Corrupt fraction exceeded the error budget; the report rides along."""

    def __init__(self, report: IngestReport) -> None:
        self.report = report
        super().__init__(
            f"{report.path}: corrupt fraction "
            f"{report.corrupt_fraction:.3f} exceeds error budget "
            f"{report.error_budget:.3f} "
            f"(reasons: {dict(sorted(report.reason_counts.items()))})"
        )


@dataclass
class IngestResult:
    """Everything one quarantine-path load produces."""

    dataset: InteractionDataset
    vocabularies: VocabularyMaps
    dense_stats: Dict[str, Tuple[float, float]]
    report: IngestReport
    quarantine: QuarantineStore


def load_csv_dataset_quarantined(
    path: "Path | str",
    spec: Optional[ColumnSpec] = None,
    policy: Optional[IngestPolicy] = None,
    vocabularies: Optional[VocabularyMaps] = None,
    freeze_vocabulary: bool = False,
    name: Optional[str] = None,
    dense_stats: Optional[Dict[str, Tuple[float, float]]] = None,
) -> IngestResult:
    """Load one CSV exposure log through the quarantine path.

    File-level problems (missing file, empty file, missing label or
    dense columns, duplicate header columns) still raise immediately --
    those are schema errors, not row corruption.  Row-level defects are
    classified, repaired or dropped per ``policy``, and reported.

    Returns an :class:`IngestResult`; raises :class:`IngestBudgetError`
    when the corrupt fraction exceeds ``policy.error_budget``.
    """
    policy = policy or IngestPolicy()
    vocabularies = vocabularies or VocabularyMaps()
    store = QuarantineStore()
    parser = CSVRowParser(
        path, spec or ColumnSpec(), vocabularies, freeze_vocabulary, policy, store
    )
    # Classify and repair every row *before* any vocabulary indexing, so
    # dropped rows never claim ids and an over-budget load leaves the
    # caller's vocabularies untouched.
    total = 0
    kept: List[List[str]] = []
    for total, row in enumerate(parser.rows(), 1):
        if parser.parse(row, total - 1):
            kept.append(row)
    report = IngestReport.build(parser.path, total, store, policy)
    log_event(
        logger,
        "ingest_report",
        path=report.path,
        total=report.total_rows,
        loaded=report.loaded_rows,
        dropped=report.dropped_rows,
        repaired=report.repaired_rows,
        corrupt_fraction=report.corrupt_fraction,
        budget=policy.error_budget,
    )
    if report.corrupt_fraction > policy.error_budget:
        raise IngestBudgetError(report)
    for row in kept:
        parser.index(row)
    dataset, dense_stats = parser.dataset(name, dense_stats)
    return IngestResult(dataset, vocabularies, dense_stats, report, store)


# ----------------------------------------------------------------------
# In-memory OOV quarantine (the catalog-churn path)
# ----------------------------------------------------------------------
def quarantine_oov_rows(
    dataset: InteractionDataset,
    vocab_sizes: Dict[str, int],
    store: Optional[QuarantineStore] = None,
) -> Tuple[InteractionDataset, Optional[InteractionDataset], QuarantineStore]:
    """Split an already-materialised log by vocabulary membership.

    The CSV quarantine path classifies OOV ids at parse time; online
    logging produces :class:`InteractionDataset` rows directly, so
    catalog churn (new item ids entering the world) needs the same
    gate *after* materialisation.  Rows whose sparse ids fit every
    ``vocab_sizes`` entry are admitted; rows referencing an id at or
    beyond its vocabulary are **held** -- quarantined with the standard
    :data:`OOV_ID` provenance, not dropped -- so that growing the
    embedding vocabulary can re-admit exactly these rows later.

    Returns ``(admitted, held, store)``; ``held`` is ``None`` when the
    log is fully in-vocabulary.  Columns absent from ``vocab_sizes``
    are not checked.
    """
    store = store or QuarantineStore()
    n = len(dataset)
    oov = np.zeros(n, dtype=bool)
    per_column: Dict[str, np.ndarray] = {}
    for column, vocab in vocab_sizes.items():
        ids = dataset.sparse.get(column)
        if ids is None:
            continue
        bad = (ids < 0) | (ids >= int(vocab))
        if bad.any():
            per_column[column] = bad
            oov |= bad
    if not oov.any():
        return dataset, None, store
    held_idx = np.flatnonzero(oov)
    for i in held_idx:
        columns = sorted(c for c, bad in per_column.items() if bad[i])
        store.add(
            int(i),
            (OOV_ID,),
            "held",
            tuple(f"{c}={int(dataset.sparse[c][i])}" for c in columns),
        )
    log_event(
        logger,
        "oov_rows_quarantined",
        level=30,
        held=int(len(held_idx)),
        total=n,
        columns=sorted(per_column),
    )
    admitted = dataset.subset(np.flatnonzero(~oov))
    held = dataset.subset(held_idx)
    return admitted, held, store
