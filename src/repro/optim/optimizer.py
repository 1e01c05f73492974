"""Optimizer base class and gradient utilities.

Gradients arriving from the autograd engine are dense numpy arrays of
the parameter's shape, gathered into a :class:`ParamPlane` before the
step.  The utility here is global-norm clipping.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter
from repro.optim.plane import ParamPlane


class Optimizer:
    """Base class holding the parameter list and shared plumbing."""

    def __init__(self, params: Iterable[Parameter], weight_decay: float = 0.0) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.weight_decay = weight_decay

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Resumable state: scalars plus lists of moment arrays.

        Subclasses extend the base dict.  List-of-ndarray values are
        moment buffers aligned with ``self.params``; everything else
        must be JSON-serialisable (checkpointing relies on this split).
        """
        return {
            "type": type(self).__name__,
            "weight_decay": self.weight_decay,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        if state.get("type") != type(self).__name__:
            raise ValueError(
                f"optimizer state is for {state.get('type')!r}, "
                f"not {type(self).__name__!r}"
            )
        self.weight_decay = float(state["weight_decay"])

    def _load_moments(self, stored: List[np.ndarray], target: List[np.ndarray]) -> None:
        """Copy stored moment buffers into ``target``, validating shapes."""
        if len(stored) != len(target):
            raise ValueError(
                f"optimizer state has {len(stored)} moment buffers, "
                f"expected {len(target)}"
            )
        for i, (src, dst) in enumerate(zip(stored, target)):
            src = np.asarray(src, dtype=dst.dtype)
            if src.shape != dst.shape:
                raise ValueError(
                    f"moment buffer {i} shape mismatch: expected "
                    f"{dst.shape}, got {src.shape}"
                )
            dst[...] = src


def clip_global_norm(plane: ParamPlane, max_norm: float) -> float:
    """Scale the plane's gradients so their global L2 norm is at most ``max_norm``.

    The squared norm is summed per parameter, in ``plane.params`` order,
    exactly as a per-parameter loop would; parameters without a
    gradient are skipped.  The scale is one multiply over the whole
    gradient buffer.  Returns the pre-clip norm (useful for logging
    training stability).
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    missing = set(plane.gather())
    total = 0.0
    for i, grad in enumerate(plane.grad_views):
        if i in missing:
            continue
        total += float(np.sum(grad**2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        plane.grad *= max_norm / (norm + 1e-12)
    return norm
