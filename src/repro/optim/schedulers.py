"""Learning-rate schedulers.

The paper trains with a constant learning rate (0.001); schedulers are
provided for the extension experiments and for downstream users.  A
scheduler wraps an optimizer and mutates its ``lr`` on ``step()``
(called once per epoch or per batch, caller's choice).
"""

from __future__ import annotations

from repro.optim.optimizer import Optimizer


class Scheduler:
    """Base class: tracks step count, delegates the schedule shape."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.step_count = 0

    def step(self) -> float:
        """Advance the schedule; returns the new learning rate."""
        self.step_count += 1
        lr = self._lr_at(self.step_count)
        self.optimizer.lr = lr
        return lr

    def _lr_at(self, step: int) -> float:
        raise NotImplementedError


class StepDecay(Scheduler):
    """Multiply the learning rate by ``gamma`` every ``period`` steps."""

    def __init__(self, optimizer: Optimizer, period: int, gamma: float = 0.5) -> None:
        super().__init__(optimizer)
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.period = period
        self.gamma = gamma

    def _lr_at(self, step: int) -> float:
        return self.base_lr * self.gamma ** (step // self.period)
