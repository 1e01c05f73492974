"""Small shared utilities: hashing and progress logging."""

from repro.utils.hashing import stable_bucket, stable_fraction, stable_hash64
from repro.utils.logging import get_logger, log_event

__all__ = [
    "stable_bucket",
    "stable_fraction",
    "stable_hash64",
    "get_logger",
    "log_event",
]
