"""Optimizers for the autograd engine.

The paper trains every model with Adam (learning rate 0.001, Section
IV-A2); SGD is provided for tests and ablations.  L2 weight decay
implements the ``lambda_2 ||theta||^2`` term of Eq. (14) efficiently
(added to gradients rather than materialised in the loss graph).
"""

from repro.optim.optimizer import Optimizer, clip_global_norm
from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.schedulers import Scheduler, StepDecay

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "clip_global_norm",
    "Scheduler",
    "StepDecay",
]
