"""Activation functions by name."""

from __future__ import annotations

from typing import Callable

from repro.autograd import ops
from repro.autograd.tensor import Tensor

_ACTIVATIONS = {
    "relu": ops.relu,
    "tanh": ops.tanh,
    "sigmoid": ops.sigmoid,
    "leaky_relu": ops.leaky_relu,
    "identity": lambda x: x,
}


def get_activation(name: str) -> Callable[[Tensor], Tensor]:
    """Look an activation function up by name.

    Raises ``KeyError`` listing the valid names on a typo, which is the
    most common configuration mistake.
    """
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}"
        ) from None

