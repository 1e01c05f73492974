"""Optimizer base class and gradient utilities.

Gradients arriving from the autograd engine are dense numpy arrays of
the parameter's shape.  The utilities here are weight-decay folding and
global-norm clipping.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

import numpy as np

from repro.nn.module import Parameter


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

    def _grad(self, p: Parameter) -> np.ndarray:
        """Parameter gradient with L2 weight decay folded in."""
        grad = p.grad
        if grad is None:
            return np.zeros_like(p.data)
        if not self.weight_decay:
            return grad
        return grad + 2.0 * self.weight_decay * p.data


def clip_global_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging training stability).
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for p in params:
        grad = p.grad
        if grad is None:
            continue
        total += float(np.sum(grad**2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            grad = p.grad
            if grad is None:
                continue
            grad *= scale
    return norm
