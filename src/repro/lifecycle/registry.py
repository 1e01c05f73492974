"""Content-addressed, versioned model registry.

Every model that might ever serve traffic lives here as an immutable
version: a parameter blob stored under its own SHA-256 digest plus a
manifest entry carrying lineage (parent version, train-config hash),
evaluation metrics, an optional drift-reference path, and a status in
the promotion state machine::

    candidate --promote--> champion --retire--> retired
        |                     ^                    |
        +----reject           +------rollback------+

Durability invariants, all enforced here and drilled in
``tests/lifecycle/test_lifecycle_chaos.py``:

* **Atomic publication** -- the parameter blob and the manifest are
  both written temp-file + fsync + rename, so a kill at any instant
  leaves either the old registry state or the new one, never a torn
  manifest or a half-written blob under a live name.
* **Bit-exact load-back verification** -- ``publish`` re-reads the blob
  it just wrote and re-hashes it; a blob that does not round-trip to
  the in-memory digest never becomes a version.  ``load_model`` and
  ``promote`` re-verify the digest again, so bit rot between publish
  and promote is caught before it serves.
* **Reversibility** -- champions are never deleted on promotion, so
  ``rollback`` can restore any prior champion and prove, by digest,
  that the restored parameters are the ones originally published.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.models.base import MultiTaskModel
from repro.nn.serialization import load_checkpoint, save_checkpoint
from repro.reliability.checkpoint import fsync_directory
from repro.reliability.errors import PromotionBlockedError, RegistryCorruptError
from repro.utils.logging import get_logger, log_event

logger = get_logger("lifecycle.registry")

MANIFEST_NAME = "registry.json"
MANIFEST_VERSION = 1
_BLOB_META_KEY = "__metadata__"

#: Version statuses (the promotion state machine).
CANDIDATE = "candidate"
CHAMPION = "champion"
RETIRED = "retired"
REJECTED = "rejected"


def param_digest(state: Mapping[str, np.ndarray]) -> str:
    """Canonical SHA-256 over a parameter state dict.

    Hashes name, dtype, shape, and raw bytes of every array in sorted
    name order, so two models agree on the digest iff their parameters
    are bit-identical.
    """
    hasher = hashlib.sha256()
    for name in sorted(state):
        arr = np.ascontiguousarray(np.asarray(state[name]))
        hasher.update(name.encode("utf-8"))
        hasher.update(str(arr.dtype).encode("ascii"))
        hasher.update(str(arr.shape).encode("ascii"))
        hasher.update(arr.tobytes())
    return hasher.hexdigest()


def model_digest(model: MultiTaskModel) -> str:
    """:func:`param_digest` of a model's current parameters."""
    return param_digest(model.state_dict())


def hash_train_config(config: Any) -> str:
    """Short, stable hash of a (frozen dataclass) training config."""
    if config is None:
        return ""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    elif isinstance(config, Mapping):
        payload = dict(config)
    else:
        payload = {"repr": repr(config)}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ModelVersion:
    """One immutable registry entry."""

    version: str
    params_digest: str
    model_name: str
    status: str
    sequence: int
    parent: Optional[str] = None
    train_config_hash: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)
    drift_reference_path: Optional[str] = None
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ModelVersion":
        return cls(**payload)

    def with_status(self, status: str) -> "ModelVersion":
        return dataclasses.replace(self, status=status)


@dataclass(frozen=True)
class RegistryEvent:
    """One line of the registry's append-only audit trail."""

    sequence: int
    action: str
    version: str
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class ModelRegistry:
    """Versioned model store with atomic publication and rollback.

    Layout under ``directory``::

        registry.json            # manifest: versions, champion, events
        blobs/<digest16>.npz     # content-addressed parameter blobs

    The manifest is the single source of truth: a blob that no manifest
    entry references (a kill between blob write and manifest write) is
    an orphan, invisible to every read path and swept by :meth:`fsck`.
    """

    def __init__(self, directory: "Path | str") -> None:
        self.directory = Path(directory)
        self.blob_dir = self.directory / "blobs"
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        self._manifest = self._load_manifest()

    # -- manifest persistence ------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _empty_manifest(self) -> Dict[str, Any]:
        return {
            "manifest_version": MANIFEST_VERSION,
            "sequence": 0,
            "champion": None,
            "versions": {},
            "events": [],
        }

    def _load_manifest(self) -> Dict[str, Any]:
        if not self.manifest_path.exists():
            return self._empty_manifest()
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryCorruptError(
                f"unreadable registry manifest {self.manifest_path}: {exc}"
            ) from exc
        if manifest.get("manifest_version", 0) > MANIFEST_VERSION:
            raise RegistryCorruptError(
                f"manifest version {manifest['manifest_version']} is newer "
                f"than this library supports ({MANIFEST_VERSION})"
            )
        return manifest

    def _write_manifest(self) -> None:
        """Atomic manifest publication: temp file, fsync, rename."""
        tmp = self.manifest_path.with_name(self.manifest_path.name + ".tmp")
        data = json.dumps(self._manifest, indent=2, sort_keys=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.manifest_path)
        fsync_directory(self.directory)

    def _record(self, action: str, version: str, reason: str = "") -> None:
        self._manifest["events"].append(
            RegistryEvent(
                sequence=len(self._manifest["events"]) + 1,
                action=action,
                version=version,
                reason=reason,
            ).to_dict()
        )

    # -- read side ------------------------------------------------------
    def versions(self) -> List[ModelVersion]:
        """All entries, oldest first."""
        entries = [
            ModelVersion.from_dict(v) for v in self._manifest["versions"].values()
        ]
        return sorted(entries, key=lambda v: v.sequence)

    def get(self, version: str) -> ModelVersion:
        try:
            return ModelVersion.from_dict(self._manifest["versions"][version])
        except KeyError:
            raise KeyError(
                f"unknown version {version!r}; registry has "
                f"{sorted(self._manifest['versions'])}"
            ) from None

    @property
    def champion(self) -> Optional[ModelVersion]:
        name = self._manifest["champion"]
        return None if name is None else self.get(name)

    def events(self) -> List[RegistryEvent]:
        return [RegistryEvent(**e) for e in self._manifest["events"]]

    def lineage(self, version: str) -> List[ModelVersion]:
        """The version and its ancestors, newest first."""
        chain: List[ModelVersion] = []
        cursor: Optional[str] = version
        while cursor is not None:
            entry = self.get(cursor)
            chain.append(entry)
            cursor = entry.parent
        return chain

    # -- blob I/O -------------------------------------------------------
    def blob_path(self, digest: str) -> Path:
        return self.blob_dir / f"{digest[:16]}.npz"

    def _read_blob_state(self, digest: str) -> Dict[str, np.ndarray]:
        path = self.blob_path(digest)
        try:
            with np.load(path) as archive:
                state = {
                    key: archive[key]
                    for key in archive.files
                    if key != _BLOB_META_KEY
                }
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise RegistryCorruptError(
                f"unreadable parameter blob {path.name}: {exc}"
            ) from exc
        actual = param_digest(state)
        if actual != digest:
            raise RegistryCorruptError(
                f"parameter blob {path.name} failed verification: "
                f"expected digest {digest}, actual {actual}"
            )
        return state

    def verify(self, version: str) -> ModelVersion:
        """Re-hash a version's blob against its manifest entry."""
        entry = self.get(version)
        self._read_blob_state(entry.params_digest)
        return entry

    # -- write side -----------------------------------------------------
    def publish(
        self,
        model: MultiTaskModel,
        *,
        parent: Optional[str] = None,
        train_config: Any = None,
        metrics: Optional[Dict[str, float]] = None,
        drift_reference_path: "Path | str | None" = None,
        note: str = "",
    ) -> ModelVersion:
        """Store a candidate version; verify the blob bit-exactly.

        Order of operations is the crash-safety story: blob first
        (atomic), load-back verification second, manifest last (atomic).
        A kill anywhere before the manifest rename leaves at worst an
        orphaned blob -- the registry's visible state is unchanged and
        the prior champion keeps serving.
        """
        if parent is None and self._manifest["champion"] is not None:
            parent = self._manifest["champion"]
        if parent is not None:
            self.get(parent)  # must exist; raises KeyError otherwise
        digest = model_digest(model)
        sequence = self._manifest["sequence"] + 1
        version = f"v{sequence:04d}"
        entry = ModelVersion(
            version=version,
            params_digest=digest,
            model_name=getattr(model, "model_name", type(model).__name__),
            status=CANDIDATE,
            sequence=sequence,
            parent=parent,
            train_config_hash=hash_train_config(train_config),
            metrics=dict(metrics or {}),
            drift_reference_path=(
                None if drift_reference_path is None else str(drift_reference_path)
            ),
            note=note,
        )
        blob = self.blob_path(digest)
        if not blob.exists():
            save_checkpoint(
                model, blob, metadata={"params_digest": digest, "version": version}
            )
        # Load-back verification: the bytes on disk must reproduce the
        # in-memory digest before the version becomes visible.
        self._read_blob_state(digest)
        self._manifest["sequence"] = sequence
        self._manifest["versions"][version] = entry.to_dict()
        self._record("publish", version, note)
        self._write_manifest()
        log_event(
            logger,
            "version_published",
            version=version,
            digest=digest[:16],
            parent=parent or "<root>",
            model=entry.model_name,
        )
        return entry

    def promote(self, version: str, reason: str = "") -> ModelVersion:
        """Make ``version`` the champion (prior champion is retired).

        Refuses rejected versions and any blob that fails bit-exact
        re-verification -- a corrupt candidate can never take traffic.
        """
        entry = self.get(version)
        if entry.status == REJECTED:
            raise PromotionBlockedError(
                f"{version} was rejected ({entry.note or 'no reason recorded'}); "
                "publish a new candidate instead of promoting it"
            )
        try:
            self._read_blob_state(entry.params_digest)
        except RegistryCorruptError as exc:
            raise PromotionBlockedError(
                f"refusing to promote {version}: {exc}"
            ) from exc
        previous = self._manifest["champion"]
        if previous is not None and previous != version:
            prior = self.get(previous)
            self._manifest["versions"][previous] = prior.with_status(
                RETIRED
            ).to_dict()
        self._manifest["versions"][version] = entry.with_status(CHAMPION).to_dict()
        self._manifest["champion"] = version
        self._record("promote", version, reason)
        self._write_manifest()
        log_event(
            logger,
            "version_promoted",
            version=version,
            previous=previous or "<none>",
            reason=reason,
        )
        return self.get(version)

    def reject(self, version: str, reason: str) -> ModelVersion:
        """Mark a candidate as rejected (gate failure, canary demotion)."""
        entry = self.get(version)
        if entry.status == CHAMPION:
            raise PromotionBlockedError(
                f"cannot reject the serving champion {version}; "
                "rollback to a prior version first"
            )
        updated = dataclasses.replace(entry, status=REJECTED, note=reason)
        self._manifest["versions"][version] = updated.to_dict()
        self._record("reject", version, reason)
        self._write_manifest()
        log_event(logger, "version_rejected", version=version, reason=reason)
        return updated

    def rollback(self, version: Optional[str] = None, reason: str = "") -> ModelVersion:
        """Restore a prior champion (default: the most recent one).

        The target's blob is re-verified against its recorded digest, so
        the restored champion is bit-exactly the one that served before.
        """
        if version is None:
            version = self._previous_champion()
            if version is None:
                raise PromotionBlockedError(
                    "rollback: no prior champion recorded in the registry"
                )
        entry = self.get(version)
        if entry.status == REJECTED:
            raise PromotionBlockedError(
                f"rollback target {version} was rejected; pick another version"
            )
        try:
            self._read_blob_state(entry.params_digest)
        except RegistryCorruptError as exc:
            raise PromotionBlockedError(
                f"refusing to rollback to {version}: {exc}"
            ) from exc
        current = self._manifest["champion"]
        if current is not None and current != version:
            prior = self.get(current)
            self._manifest["versions"][current] = prior.with_status(
                RETIRED
            ).to_dict()
        self._manifest["versions"][version] = entry.with_status(CHAMPION).to_dict()
        self._manifest["champion"] = version
        self._record("rollback", version, reason)
        self._write_manifest()
        log_event(
            logger,
            "rollback",
            version=version,
            displaced=current or "<none>",
            reason=reason,
        )
        return self.get(version)

    def _previous_champion(self) -> Optional[str]:
        """Most recent distinct champion before the current one."""
        current = self._manifest["champion"]
        for event in reversed(self._manifest["events"]):
            if event["action"] in ("promote", "rollback"):
                if event["version"] != current:
                    return event["version"]
        return None

    # -- model materialisation -----------------------------------------
    def load_model(
        self,
        version: str,
        factory: Callable[[], MultiTaskModel],
    ) -> MultiTaskModel:
        """Construct a model and restore a version's verified parameters.

        ``factory`` builds an architecture-compatible empty model; the
        loaded parameters are digest-checked against the manifest entry,
        so the returned model is bit-exactly the published one.  It is
        returned in eval mode: a published artifact, not a fit in
        progress (a fit switches it to training mode on entry).
        """
        entry = self.get(version)
        model = factory()
        load_checkpoint(model, self.blob_path(entry.params_digest))
        actual = model_digest(model)
        if actual != entry.params_digest:
            raise RegistryCorruptError(
                f"loaded parameters for {version} hash to {actual}, "
                f"manifest records {entry.params_digest}"
            )
        return model.eval()

    def load_champion(
        self, factory: Callable[[], MultiTaskModel]
    ) -> Optional[MultiTaskModel]:
        champion = self.champion
        if champion is None:
            return None
        return self.load_model(champion.version, factory)

    # -- maintenance ----------------------------------------------------
    def fsck(self) -> Dict[str, List[str]]:
        """Audit the store; returns and sweeps orphans, reports corruption.

        * ``orphaned`` -- blobs (and stranded ``*.tmp`` files from a
          kill mid-write) no manifest entry references; deleted.
        * ``corrupt`` -- versions whose blob is missing or fails its
          digest; reported, never deleted (an operator decision).
        """
        referenced = {
            self.blob_path(ModelVersion.from_dict(v).params_digest).name
            for v in self._manifest["versions"].values()
        }
        orphaned: List[str] = []
        for path in sorted(self.blob_dir.glob("*")):
            if path.name not in referenced:
                orphaned.append(path.name)
                path.unlink(missing_ok=True)
        tmp = self.manifest_path.with_name(self.manifest_path.name + ".tmp")
        if tmp.exists():
            orphaned.append(tmp.name)
            tmp.unlink(missing_ok=True)
        corrupt: List[str] = []
        for entry in self.versions():
            try:
                self._read_blob_state(entry.params_digest)
            except RegistryCorruptError:
                corrupt.append(entry.version)
        if orphaned or corrupt:
            log_event(
                logger, "fsck", orphaned=len(orphaned), corrupt=len(corrupt)
            )
        return {"orphaned": orphaned, "corrupt": corrupt}
