"""Optimizers for the autograd engine.

The paper trains every model with Adam at a constant learning rate of
0.001 (Section IV-A2).  L2 weight decay implements the ``lambda_2 ||theta||^2`` term of Eq. (14) efficiently
(added to gradients rather than materialised in the loss graph).  Adam
steps every parameter at once over a :class:`ParamPlane`.
"""

from repro.optim.optimizer import Optimizer, clip_global_norm
from repro.optim.adam import Adam
from repro.optim.plane import ParamPlane

__all__ = [
    "Optimizer",
    "Adam",
    "ParamPlane",
    "clip_global_norm",
]
