"""Loaders for real exposure logs (Ali-CCP / AliExpress-style CSVs).

The synthetic scenarios make the repository self-contained, but
downstream users who have downloaded the public benchmarks can load
them here.  The expected format is one CSV row per exposure::

    user_id,item_id,<feature columns...>,click,conversion

* ``click`` and ``conversion`` must be 0/1 integers;
* sparse feature columns hold non-negative integer ids (re-indexed
  densely on load);
* columns listed in ``dense_features`` are parsed as floats and
  standardised (zero mean, unit variance, computed on the training
  split).

``load_csv_dataset`` returns an :class:`InteractionDataset` without
oracle columns -- entire-space (do) metrics are unavailable on real
logs, exactly as in the paper.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.schema import DenseFeature, FeatureSchema, SparseFeature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.data.ingest import IngestPolicy, QuarantineStore


@dataclass
class ColumnSpec:
    """How to interpret the CSV columns.

    ``wide_features`` names the sparse columns routed to the wide part
    of the models (interaction/combination features); everything else
    is deep.

    ``hash_buckets`` maps column names to a fixed bucket count: those
    columns are *feature-hashed* instead of densely re-indexed.  This
    is how production systems handle Ali-CCP-scale vocabularies
    (millions of ids): memory is bounded by the bucket count, unseen
    ids need no OOV handling, and train/test consistency is automatic.
    Collisions are the accepted trade-off.
    """

    click_column: str = "click"
    conversion_column: str = "conversion"
    dense_features: Tuple[str, ...] = ()
    wide_features: Tuple[str, ...] = ()
    user_column: str = "user_id"
    item_column: str = "item_id"
    hash_buckets: Dict[str, int] = field(default_factory=dict)


@dataclass
class VocabularyMaps:
    """Dense re-indexing of raw ids, shared between train/test loads."""

    maps: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def index(self, column: str, raw: str, frozen: bool) -> int:
        table = self.maps.setdefault(column, {})
        if raw not in table:
            if frozen:
                return 0  # out-of-vocabulary bucket
            table[raw] = len(table) + 1  # 0 is reserved for OOV
        return table.get(raw, 0)

    def vocab_size(self, column: str) -> int:
        return len(self.maps.get(column, {})) + 1  # + OOV bucket


def hash_feature(raw: str, n_buckets: int) -> int:
    """Deterministic string -> bucket id (stable across processes).

    Uses FNV-1a rather than Python's builtin ``hash`` (which is salted
    per process and would break train/test consistency).
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    value = 0xCBF29CE484222325
    for byte in raw.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value % n_buckets


def _validate_header(path: Path, header: List[str]) -> None:
    seen: Dict[str, int] = {}
    for position, column in enumerate(header):
        if not column:
            raise ValueError(
                f"{path}: header has an empty column name at position {position}"
            )
        if column in seen:
            raise ValueError(
                f"{path}: duplicate column {column!r} "
                f"(positions {seen[column]} and {position})"
            )
        seen[column] = position


def read_csv_header(path: "Path | str") -> List[str]:
    """Read and validate only the header row (streaming loaders)."""
    path = Path(path)
    with open(path, newline="") as handle:
        try:
            header = next(csv.reader(handle))
        except StopIteration:
            raise ValueError(f"{path}: empty file (no header row)") from None
    _validate_header(path, header)
    return header


def iter_csv_rows(path: "Path | str") -> "Iterator[List[str]]":
    """Stream the non-empty data rows of ``path`` in file order.

    Validates the header (empty/duplicate column names) before yielding
    anything.  Row ``i`` of this stream sits on file line ``i + 2`` --
    the provenance convention every loader error message uses.  Every
    loader streams its rows through here (:meth:`CSVRowParser.rows`).
    """
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file (no header row)") from None
        _validate_header(path, header)
        for row in reader:
            if row:
                yield row


_LABELS = {"0": 0, "1": 1}

#: Quarantine reasons (re-exported by :mod:`repro.data.ingest`).
#: Row has the wrong number of cells (truncated/overlong record).
MALFORMED_ROW = "malformed_row"
#: Click or conversion label is not a literal "0"/"1".
BAD_LABEL = "bad_label"
#: Conversion recorded without a click (violates exposure->click->buy).
LABEL_INCONSISTENCY = "label_inconsistency"
#: Dense value is unparseable, NaN, or infinite.
BAD_DENSE = "bad_dense"
#: Sparse id unseen by a frozen vocabulary.
OOV_ID = "oov_id"


class CSVRowParser:
    """The one row parser behind every CSV loader.

    The in-memory strict loader, the quarantine loader and
    :class:`repro.data.stream.ChunkedCSVSource` each build one of these
    from a file, so all three derive the same schema and keep, repair
    and index exactly the same rows.  The constructor reads and
    validates the header and splits it into dense and sparse columns
    (raising on missing label or dense columns).

    :meth:`parse` checks one data row.  With ``policy=None`` it is
    strict: the first defect raises a ``ValueError`` with
    ``file:line: column`` provenance, and ``nan``/``inf`` dense strings
    load because ``float()`` parses them.  With an
    :class:`~repro.data.ingest.IngestPolicy` it quarantines instead:
    defects go to ``store`` as repaired or dropped rows, and NaN/inf
    dense values count as ``bad_dense``.  A kept row's labels and raw
    dense values are appended to ``clicks``, ``conversions`` and
    ``dense`` (one list per dense column); :meth:`index` appends its
    sparse ids to ``sparse`` (one list per sparse column).  Callers
    decide when to index, so a caller can classify every row before any
    row claims a vocabulary id.
    """

    def __init__(
        self,
        path: "Path | str",
        spec: ColumnSpec,
        vocabularies: VocabularyMaps,
        freeze_vocabulary: bool = False,
        policy: "Optional[IngestPolicy]" = None,
        store: "Optional[QuarantineStore]" = None,
    ) -> None:
        self.path = Path(path)
        self.spec = spec
        self.vocabularies = vocabularies
        self.freeze_vocabulary = freeze_vocabulary
        self.policy = policy
        self.store = store
        self.header = header = read_csv_header(self.path)
        for required in (spec.click_column, spec.conversion_column):
            if required not in header:
                raise ValueError(f"{self.path}: missing required column {required!r}")
        missing_dense = set(spec.dense_features) - set(header)
        if missing_dense:
            raise ValueError(
                f"{self.path}: missing dense columns {sorted(missing_dense)}"
            )
        labels = {spec.click_column, spec.conversion_column}
        self.dense_columns = [c for c in spec.dense_features if c in header]
        self.sparse_columns = [
            c for c in header if c not in labels and c not in self.dense_columns
        ]
        position = {c: i for i, c in enumerate(header)}
        self._width = len(header)
        self._click_at = position[spec.click_column]
        self._conversion_at = position[spec.conversion_column]
        self._dense_at = [position[c] for c in self.dense_columns]
        self.clicks: List[int] = []
        self.conversions: List[int] = []
        self.sparse: List[List[int]] = [[] for _ in self.sparse_columns]
        self.dense: List[List[float]] = [[] for _ in self.dense_columns]
        # (id list, cell position, column, hash buckets or None) per column.
        self._sparse_cells = [
            (ids, position[c], c, spec.hash_buckets.get(c))
            for ids, c in zip(self.sparse, self.sparse_columns)
        ]

    def rows(self) -> Iterator[List[str]]:
        """The data rows, streamed; row ``i`` is :meth:`parse`'s ``i``."""
        return iter_csv_rows(self.path)

    def parse(self, row: List[str], i: int) -> bool:
        """Check data row ``i``; append its labels and dense values if kept.

        Returns ``False`` for a row quarantine mode drops.
        """
        policy, header = self.policy, self.header
        if len(row) != self._width:
            if policy is None:
                if len(row) < len(header):
                    detail = f"; missing columns {header[len(row):]}"
                else:
                    detail = (
                        f"; {len(row) - len(header)} cells beyond column "
                        f"{header[-1]!r}"
                    )
                raise ValueError(
                    f"{self.path}:{i + 2}: expected {len(header)} cells, "
                    f"got {len(row)}{detail}"
                )
            return self._quarantine(i, [MALFORMED_ROW], row, "dropped")
        click = _LABELS.get(row[self._click_at])
        conversion = _LABELS.get(row[self._conversion_at])
        if click is None or conversion is None:
            if policy is None:
                column, at = (
                    (self.spec.click_column, self._click_at)
                    if click is None
                    else (self.spec.conversion_column, self._conversion_at)
                )
                raise ValueError(
                    f"{self.path}:{i + 2}: column {column!r}: labels must be "
                    f"0/1, got {row[at]!r}"
                )
            return self._quarantine(i, [BAD_LABEL], row, "dropped")
        reasons: List[str] = []
        if conversion == 1 and click == 0:
            if policy is None:
                raise ValueError(
                    f"{self.path}:{i + 2}: column {self.spec.conversion_column!r}: "
                    f"conversion recorded on an unclicked exposure; the "
                    f"behaviour path exposure->click->conversion is violated"
                )
            reasons.append(LABEL_INCONSISTENCY)
            if policy.on_label_inconsistency == "drop":
                return self._quarantine(i, reasons, row, "dropped")
            conversion = 0  # trust the click label (repair)
        values: List[float] = []
        for position, column in zip(self._dense_at, self.dense_columns):
            try:
                value = float(row[position])
            except ValueError:
                if policy is None:
                    raise ValueError(
                        f"{self.path}:{i + 2}: column {column!r}: could not "
                        f"parse dense value {row[position]!r}"
                    ) from None
                value = math.nan
            if policy is not None and not math.isfinite(value):
                reasons.append(BAD_DENSE)
                if policy.on_bad_dense == "drop":
                    return self._quarantine(i, reasons, row, "dropped")
                if policy.on_bad_dense == "clip" and math.isinf(value):
                    value = math.copysign(policy.dense_clip, value)
                else:
                    value = policy.dense_default
            values.append(value)
        if policy is not None and self.freeze_vocabulary:
            maps = self.vocabularies.maps
            if any(
                buckets is None and row[position] not in maps.get(column, {})
                for _, position, column, buckets in self._sparse_cells
            ):
                reasons.append(OOV_ID)
                if policy.on_oov_id == "drop":
                    return self._quarantine(i, reasons, row, "dropped")
                # "impute": index() routes the unseen id to the shared OOV
                # bucket (id 0) -- counted, not silent.
        if reasons:
            self._quarantine(i, reasons, row, "repaired")
        self.clicks.append(click)
        self.conversions.append(conversion)
        for dense_values, value in zip(self.dense, values):
            dense_values.append(value)
        return True

    def _quarantine(
        self, i: int, reasons: List[str], row: List[str], action: str
    ) -> bool:
        assert self.store is not None
        self.store.add(i + 2, reasons, action, row)
        return False

    def index(self, row: List[str]) -> None:
        """Append the sparse ids of a kept row: vocabulary or hashed ids."""
        vocabulary_index = self.vocabularies.index
        frozen = self.freeze_vocabulary
        for ids, position, column, buckets in self._sparse_cells:
            if buckets is None:
                ids.append(vocabulary_index(column, row[position], frozen=frozen))
            else:
                ids.append(hash_feature(row[position], buckets))

    def schema(self) -> FeatureSchema:
        """The load's schema, sized by the vocabularies as they stand."""
        spec = self.spec
        return FeatureSchema(
            sparse=[
                SparseFeature(
                    c,
                    spec.hash_buckets.get(c, self.vocabularies.vocab_size(c)),
                    group=_guess_group(c, spec),
                    kind="wide" if c in spec.wide_features else "deep",
                )
                for c in self.sparse_columns
            ],
            dense=[DenseFeature(c, dim=1) for c in self.dense_columns],
        )

    def dataset(
        self,
        name: Optional[str],
        dense_stats: Optional[Dict[str, Tuple[float, float]]],
    ) -> Tuple[InteractionDataset, Dict[str, Tuple[float, float]]]:
        """Materialise the kept, indexed rows; standardise dense columns.

        ``dense_stats`` (training-split ``{column: (mean, std)}``) are
        computed with numpy when absent; a header-only file gets the
        identity.
        """
        n = len(self.clicks)
        dense = {
            c: np.array(v, dtype=np.float64)
            for c, v in zip(self.dense_columns, self.dense)
        }
        if dense_stats is None:
            dense_stats = {
                c: ((float(v.mean()), float(v.std()) or 1.0) if n else (0.0, 1.0))
                for c, v in dense.items()
            }
        for c, values in dense.items():
            mean, std = dense_stats[c]
            dense[c] = (values - mean) / std
        dataset = InteractionDataset(
            name=name or self.path.stem,
            schema=self.schema(),
            sparse={
                c: np.array(ids, dtype=np.int64)
                for c, ids in zip(self.sparse_columns, self.sparse)
            },
            dense=dense,
            clicks=np.array(self.clicks, dtype=np.int64),
            conversions=np.array(self.conversions, dtype=np.int64),
        )
        return dataset, dense_stats


def load_csv_dataset(
    path: "Path | str",
    spec: Optional[ColumnSpec] = None,
    vocabularies: Optional[VocabularyMaps] = None,
    freeze_vocabulary: bool = False,
    name: Optional[str] = None,
    dense_stats: Optional[Dict[str, Tuple[float, float]]] = None,
) -> Tuple[InteractionDataset, VocabularyMaps, Dict[str, Tuple[float, float]]]:
    """Load one CSV exposure log.

    Parameters
    ----------
    path:
        CSV file with a header row.
    spec:
        Column interpretation (defaults to Ali-CCP-style names).
    vocabularies:
        Id maps from a previous (training) load; pass them together
        with ``freeze_vocabulary=True`` when loading the test split so
        unseen ids fall into the shared OOV bucket.
    dense_stats:
        ``{column: (mean, std)}`` from the training split; computed
        when absent.

    Returns
    -------
    (dataset, vocabularies, dense_stats)
        The loaded dataset plus the state needed to load further splits
        consistently.
    """
    vocabularies = vocabularies or VocabularyMaps()
    parser = CSVRowParser(path, spec or ColumnSpec(), vocabularies, freeze_vocabulary)
    for i, row in enumerate(parser.rows()):
        parser.parse(row, i)
        parser.index(row)
    dataset, dense_stats = parser.dataset(name, dense_stats)
    return dataset, vocabularies, dense_stats


def load_csv_split(
    train_path: "Path | str",
    test_path: "Path | str",
    spec: Optional[ColumnSpec] = None,
) -> Tuple[InteractionDataset, InteractionDataset]:
    """Load a train/test pair with shared vocabularies and dense stats.

    The test split reuses the training vocabularies (unseen ids map to
    the OOV bucket) and the training dense statistics -- the standard
    leakage-free protocol.
    """
    train, vocabularies, stats = load_csv_dataset(train_path, spec=spec)
    test, _, _ = load_csv_dataset(
        test_path,
        spec=spec,
        vocabularies=vocabularies,
        freeze_vocabulary=True,
        dense_stats=stats,
    )
    # The schemas must agree for one model to serve both splits; the
    # test schema is rebuilt from the (frozen) vocabularies, so simply
    # share the training schema.
    test.schema = train.schema
    return train, test


def export_csv_dataset(dataset: InteractionDataset, path: "Path | str") -> Path:
    """Write an :class:`InteractionDataset` in the loader's CSV format.

    Round-trips with :func:`load_csv_dataset` (modulo dense
    standardisation and id re-indexing).  Useful for handing synthetic
    worlds to external tools and for tests.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = list(dataset.sparse) + list(dataset.dense)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns + ["click", "conversion"])
        for i in range(len(dataset)):
            row = [dataset.sparse[c][i] for c in dataset.sparse]
            row += [f"{float(dataset.dense[c][i]):.6f}" for c in dataset.dense]
            row += [int(dataset.clicks[i]), int(dataset.conversions[i])]
            writer.writerow(row)
    return path


def _guess_group(column: str, spec: ColumnSpec) -> str:
    if column == spec.user_column or column.startswith("user"):
        return "user"
    if column == spec.item_column or column.startswith("item"):
        return "item"
    if column in spec.wide_features:
        return "combination"
    return "context"
