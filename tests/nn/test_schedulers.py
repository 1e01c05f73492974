"""Tests for learning-rate schedulers."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import SGD, Scheduler, StepDecay


def make_optimizer(lr=0.1):
    return SGD([Parameter(np.zeros(1))], lr=lr)


class TestBase:
    def test_abstract_lr(self):
        scheduler = Scheduler(make_optimizer())
        with pytest.raises(NotImplementedError):
            scheduler.step()


class TestStepDecay:
    def test_halves_every_period(self):
        opt = make_optimizer(0.1)
        scheduler = StepDecay(opt, period=2, gamma=0.5)
        lrs = [scheduler.step() for _ in range(6)]
        assert np.allclose(lrs, [0.1, 0.05, 0.05, 0.025, 0.025, 0.0125])
        assert opt.lr == lrs[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            StepDecay(make_optimizer(), period=0)
        with pytest.raises(ValueError):
            StepDecay(make_optimizer(), period=1, gamma=0.0)
