"""Dense (fully connected) layer.

Also serves as the "wide part" generalized linear model of the paper's
wide&deep towers (a ``Linear`` with output dimension 1 applied to the
wide feature embedding, Eq. (12)).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter


class Linear(Module):
    """``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    rng:
        Generator used for weight initialization.
    bias:
        Whether to add a bias term.
    weight_init:
        ``"he_uniform"`` (the default; the towers use ReLU) or
        ``"xavier_uniform"``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        weight_init: str = "he_uniform",
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError(
                f"features must be positive, got ({in_features}, {out_features})"
            )
        initializer = getattr(init, weight_init, None)
        if initializer is None:
            raise ValueError(f"unknown weight_init {weight_init!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            initializer((in_features, out_features), rng), name="weight"
        )
        self.bias: Optional[Parameter] = (
            Parameter(init.zeros((out_features,)), name="bias") if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            return ops.affine(x, self.weight, self.bias)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out
