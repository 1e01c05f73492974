"""Neural-network building blocks on top of :mod:`repro.autograd`.

The layer zoo covers exactly what the paper's architectures need:

* :class:`~repro.nn.module.Module` / :class:`~repro.nn.module.Parameter`
  -- the composition substrate.
* :class:`~repro.nn.linear.Linear` -- dense layer (also the "wide part"
  generalized linear model of the wide&deep towers).
* :class:`~repro.nn.mlp.MLP` -- the "deep part" multi-layer perceptron,
  e.g. the paper's [320-200-80] / [64-64-32] towers.
* :class:`~repro.nn.embedding.Embedding` -- sparse-id embedding tables.
* :class:`~repro.nn.dropout.Dropout` -- inverted dropout.
* :mod:`~repro.nn.gates` -- multi-gate MTL machinery: mixture-of-experts
  gates (MMOE), cross-stitch units, PLE extraction layers and the AITM
  attention transfer unit.
* :mod:`~repro.nn.init` -- weight initializers.
"""

from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear
from repro.nn.mlp import MLP
from repro.nn.embedding import Embedding
from repro.nn.dropout import Dropout
from repro.nn.activations import get_activation
from repro.nn.gates import AITMTransfer, CrossStitchUnit, ExpertGroup, MMoEGate, PLELayer
from repro.nn.serialization import load_checkpoint, save_checkpoint
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Embedding",
    "Dropout",
    "get_activation",
    "ExpertGroup",
    "MMoEGate",
    "CrossStitchUnit",
    "PLELayer",
    "AITMTransfer",
    "save_checkpoint",
    "load_checkpoint",
    "init",
]
