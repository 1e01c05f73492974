"""A small numpy-based reverse-mode automatic differentiation engine.

The paper trains every model (DCMT and all baselines) with TensorFlow on
GPUs.  Offline we re-implement the identical math on CPU: a ``Tensor``
wrapping a numpy array, a tape-free graph of differentiable operations,
and a topological-order backward pass.  Gradients of every primitive are
verified against central finite differences in the test-suite
(``tests/grad_check.py``).

Public surface:

* :class:`~repro.autograd.tensor.Tensor` -- the differentiable array.
* :mod:`~repro.autograd.ops` -- primitive operations (``exp``, ``log``,
  ``sigmoid``, ``relu``, ``concat``, ``take_rows`` ...).
* :mod:`~repro.autograd.functional` -- composite losses (binary
  cross-entropy and weighted variants used by the CVR estimators).
"""

from repro.autograd.tensor import Tensor, no_grad
from repro.autograd import ops
from repro.autograd import functional
from repro.autograd.plan import (
    CompiledPlan,
    PlanMismatch,
    PlanRunner,
    PlanUnsupported,
)

__all__ = [
    "Tensor",
    "no_grad",
    "ops",
    "functional",
    "CompiledPlan",
    "PlanMismatch",
    "PlanRunner",
    "PlanUnsupported",
]
