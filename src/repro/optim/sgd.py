"""Stochastic gradient descent with optional momentum."""

from __future__ import annotations

from typing import Any, Dict, Iterable

import numpy as np

from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer


class SGD(Optimizer):
    """Vanilla/momentum SGD.

    Parameters
    ----------
    params:
        Trainable parameters.
    lr:
        Learning rate.
    momentum:
        Classic momentum coefficient (0 disables).
    weight_decay:
        L2 coefficient folded into gradients.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, weight_decay)
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        state.update(
            lr=self.lr,
            momentum=self.momentum,
            velocity=[v.copy() for v in self._velocity],
        )
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self.lr = float(state["lr"])
        self.momentum = float(state["momentum"])
        self._load_moments(state["velocity"], self._velocity)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            grad = self._grad(p)
            if self.momentum:
                v = self._velocity[i]
                v *= self.momentum
                v += grad
                grad = v
            p.data -= self.lr * grad
