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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.schema import DenseFeature, FeatureSchema, SparseFeature


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
    the provenance convention every loader error message uses.  This is
    the bounded-memory primitive under both the materialising
    :func:`_read_rows` and :class:`repro.data.stream.ChunkedCSVSource`.
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


def resolve_columns(
    path: Path, header: List[str], spec: "ColumnSpec"
) -> Tuple[List[str], List[str], Dict[str, int]]:
    """Split ``header`` into (dense, sparse) columns under ``spec``.

    Raises on missing label/dense columns; returns
    ``(dense_columns, sparse_columns, column_index)``.  Shared by the
    strict loader, the quarantine loader, and the chunked streaming
    source so all three agree on the schema they derive from one file.
    """
    for required in (spec.click_column, spec.conversion_column):
        if required not in header:
            raise ValueError(f"{path}: missing required column {required!r}")
    label_columns = {spec.click_column, spec.conversion_column}
    dense_columns = [c for c in spec.dense_features if c in header]
    missing_dense = set(spec.dense_features) - set(header)
    if missing_dense:
        raise ValueError(f"{path}: missing dense columns {sorted(missing_dense)}")
    sparse_columns = [
        c for c in header if c not in label_columns and c not in dense_columns
    ]
    column_index = {c: i for i, c in enumerate(header)}
    return dense_columns, sparse_columns, column_index


def _read_rows(path: Path) -> Tuple[List[str], List[List[str]]]:
    header = read_csv_header(path)
    rows = list(iter_csv_rows(path))
    return header, rows


def build_csv_schema(
    spec: "ColumnSpec",
    sparse_columns: List[str],
    dense_columns: List[str],
    vocabularies: "VocabularyMaps",
) -> FeatureSchema:
    """Schema for a CSV-derived dataset (shared by every CSV loader)."""
    return FeatureSchema(
        sparse=[
            SparseFeature(
                c,
                spec.hash_buckets.get(c, vocabularies.vocab_size(c)),
                group=_guess_group(c, spec),
                kind="wide" if c in spec.wide_features else "deep",
            )
            for c in sparse_columns
        ],
        dense=[DenseFeature(c, dim=1) for c in dense_columns],
    )


def _ragged_row_error(
    path: Path, row_index: int, header: List[str], row: List[str]
) -> ValueError:
    """Cell-count mismatch, naming the columns that are missing."""
    if len(row) < len(header):
        detail = f"; missing columns {header[len(row):]}"
    else:
        detail = f"; {len(row) - len(header)} cells beyond column {header[-1]!r}"
    return ValueError(
        f"{path}:{row_index + 2}: expected {len(header)} cells, "
        f"got {len(row)}{detail}"
    )


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
    path = Path(path)
    spec = spec or ColumnSpec()
    vocabularies = vocabularies or VocabularyMaps()
    header, rows = _read_rows(path)
    dense_columns, sparse_columns, column_index = resolve_columns(
        path, header, spec
    )
    n = len(rows)
    clicks = np.zeros(n, dtype=np.int64)
    conversions = np.zeros(n, dtype=np.int64)
    sparse: Dict[str, np.ndarray] = {
        c: np.zeros(n, dtype=np.int64) for c in sparse_columns
    }
    dense: Dict[str, np.ndarray] = {
        c: np.zeros(n, dtype=np.float64) for c in dense_columns
    }

    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise _ragged_row_error(path, i, header, row)
        clicks[i] = _parse_binary(
            row[column_index[spec.click_column]], path, i, spec.click_column
        )
        conversions[i] = _parse_binary(
            row[column_index[spec.conversion_column]],
            path,
            i,
            spec.conversion_column,
        )
        if conversions[i] == 1 and clicks[i] == 0:
            raise ValueError(
                f"{path}:{i + 2}: column {spec.conversion_column!r}: "
                f"conversion recorded on an unclicked exposure; the behaviour "
                f"path exposure->click->conversion is violated"
            )
        for c in sparse_columns:
            raw = row[column_index[c]]
            if c in spec.hash_buckets:
                sparse[c][i] = hash_feature(raw, spec.hash_buckets[c])
            else:
                sparse[c][i] = vocabularies.index(
                    c, raw, frozen=freeze_vocabulary
                )
        for c in dense_columns:
            raw = row[column_index[c]]
            try:
                dense[c][i] = float(raw)
            except ValueError:
                raise ValueError(
                    f"{path}:{i + 2}: column {c!r}: could not parse dense "
                    f"value {raw!r}"
                ) from None

    # Standardise dense columns with training-split statistics (a
    # header-only file has none: identity, as in the other loaders).
    if dense_stats is None:
        dense_stats = {
            c: ((float(v.mean()), float(v.std()) or 1.0) if n else (0.0, 1.0))
            for c, v in dense.items()
        }
    for c, values in dense.items():
        mean, std = dense_stats[c]
        dense[c] = (values - mean) / std

    schema = build_csv_schema(spec, sparse_columns, dense_columns, vocabularies)
    dataset = InteractionDataset(
        name=name or path.stem,
        schema=schema,
        sparse=sparse,
        dense=dense,
        clicks=clicks,
        conversions=conversions,
    )
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


def _parse_binary(value: str, path: Path, row: int, column: str) -> int:
    if value not in ("0", "1"):
        raise ValueError(
            f"{path}:{row + 2}: column {column!r}: labels must be 0/1, "
            f"got {value!r}"
        )
    return int(value)


def _guess_group(column: str, spec: ColumnSpec) -> str:
    if column == spec.user_column or column.startswith("user"):
        return "user"
    if column == spec.item_column or column.startswith("item"):
        return "item"
    if column in spec.wide_features:
        return "combination"
    return "context"
