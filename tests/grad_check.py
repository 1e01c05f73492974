"""Finite-difference gradient verification for the test-suite.

Every primitive in :mod:`repro.autograd.ops`, the composite losses and
the layers are checked against the central differences computed here.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autograd.tensor import Tensor


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    wrt: int = 0,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` w.r.t. ``inputs[wrt]``.

    ``fn`` receives numpy arrays wrapped as tensors and must return a
    scalar :class:`Tensor`.
    """
    base = [np.asarray(x, dtype=np.float64).copy() for x in inputs]
    grad = np.zeros_like(base[wrt])
    flat = base[wrt].reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = _eval(fn, base)
        flat[i] = original - eps
        minus = _eval(fn, base)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def check_gradients(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    atol: float = 1e-5,
    rtol: float = 1e-4,
    eps: float = 1e-6,
) -> None:
    """Assert analytic gradients of ``fn`` match central differences.

    Raises ``AssertionError`` with a diagnostic message on mismatch.
    """
    tensors = [Tensor(np.asarray(x, dtype=np.float64), requires_grad=True) for x in inputs]
    out = fn(*tensors)
    if out.size != 1:
        raise ValueError("check_gradients requires a scalar-valued function")
    out.backward()
    for i, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numerical_gradient(fn, inputs, wrt=i, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.max(np.abs(analytic - numeric))
            raise AssertionError(
                f"gradient mismatch on input {i}: max abs diff {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )


def _eval(fn: Callable[..., Tensor], arrays: Sequence[np.ndarray]) -> float:
    out = fn(*[Tensor(a) for a in arrays])
    return float(out.data.reshape(-1)[0])
