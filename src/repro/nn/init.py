"""Weight initializers.

All initializers take an explicit ``numpy.random.Generator`` so that
model construction is fully reproducible from a single seed.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def zeros(shape: Sequence[int]) -> np.ndarray:
    """All-zero initialization (biases)."""
    return np.zeros(tuple(shape))


def normal(
    shape: Sequence[int], rng: np.random.Generator, std: float = 0.01
) -> np.ndarray:
    """Gaussian initialization with small standard deviation (embeddings)."""
    return rng.normal(0.0, std, size=tuple(shape))


def xavier_uniform(shape: Tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform, suited to sigmoid/tanh outputs."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=tuple(shape))


def he_uniform(shape: Tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform, suited to ReLU hidden layers."""
    fan_in, _ = _fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=tuple(shape))


def _fans(shape: Sequence[int]) -> Tuple[int, int]:
    if len(shape) < 2:
        raise ValueError(f"fan-based init needs a >=2-D shape, got {tuple(shape)}")
    return int(shape[0]), int(shape[1])
