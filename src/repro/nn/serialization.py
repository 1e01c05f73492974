"""Model checkpointing: parameters to ``.npz``, metadata to JSON.

``save_checkpoint`` writes a single ``.npz`` with every parameter array
(keyed by dotted name) plus a JSON-encoded metadata blob.  Loading
restores the arrays into an *already constructed* module -- model
construction stays in user code, which keeps the format trivial and
future-proof (no pickled classes).

All writes are atomic (temp file + ``os.replace``), so a crash during
a save never leaves a truncated archive under the final name.
Optimizer state travels in the training snapshots of
:mod:`repro.reliability.checkpoint`, not here.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.nn.module import Module

_META_KEY = "__metadata__"
FORMAT_VERSION = 1


def _atomic_savez(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """Write an ``.npz`` atomically (np.savez on a handle, then rename)."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        np.savez(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def save_checkpoint(
    module: Module,
    path: "Path | str",
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write ``module``'s parameters (and optional JSON metadata).

    ``metadata`` must be JSON-serialisable; the model name, format
    version and parameter count are recorded automatically.
    """
    path = Path(path)
    state = module.state_dict()
    meta = dict(metadata or {})
    meta.setdefault("model_name", getattr(module, "model_name", type(module).__name__))
    meta["format_version"] = FORMAT_VERSION
    meta["num_parameters"] = module.num_parameters()
    blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    if _META_KEY in state:
        raise ValueError(f"parameter name {_META_KEY!r} is reserved")
    if not path.name.endswith(".npz"):  # match np.savez's suffix behaviour
        path = path.with_name(path.name + ".npz")
    _atomic_savez(path, {**state, _META_KEY: blob})


def load_checkpoint(module: Module, path: "Path | str") -> Dict[str, Any]:
    """Restore parameters into ``module``; returns the stored metadata.

    Raises ``KeyError``/``ValueError`` when the checkpoint's parameter
    names or shapes do not match the module (same semantics as
    :meth:`Module.load_state_dict`).
    """
    path = Path(path)
    with np.load(path) as archive:
        metadata = _decode_metadata(archive)
        state = {
            key: archive[key] for key in archive.files if key != _META_KEY
        }
    if metadata.get("format_version", 0) > FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {metadata['format_version']} is newer than "
            f"this library supports ({FORMAT_VERSION})"
        )
    module.load_state_dict(state)
    return metadata


def _decode_metadata(archive) -> Dict[str, Any]:
    if _META_KEY not in archive.files:
        return {}
    return json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
