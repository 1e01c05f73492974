"""Primitive differentiable operations beyond basic arithmetic.

Every function takes and returns :class:`~repro.autograd.tensor.Tensor`
objects and registers a backward closure.  Numerical-stability notes are
given where relevant (``sigmoid``, ``log``, ``softmax``): the CVR
estimators divide by predicted propensities, so stable primitives matter
more here than in a generic framework.

Three fused kernels collapse the hottest multi-node chains into single
graph nodes:

* :func:`affine` -- ``x @ W + b`` (the Linear layer forward) as one node.
* :func:`sigmoid_bce` -- binary log-loss straight from logits, using the
  stable ``max(z,0) - z*y + log1p(exp(-|z|))`` identity; its backward is
  the two-op ``(sigmoid(z) - y) * g``.
* :func:`take_rows` -- the embedding lookup; its backward scatters
  into a dense zero table with :func:`scatter_rows`, an
  ``np.bincount`` kernel byte-identical to ``np.add.at``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd import planmode as _planmode
from repro.autograd.tensor import Tensor, _as_tensor, unbroadcast

ArrayLike = Union[Tensor, np.ndarray, float, int, list, tuple]


def exp(x: ArrayLike) -> Tensor:
    """Elementwise exponential."""
    x = _as_tensor(x)
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("exp", (x,))
    out_data = np.exp(x.data)

    def backward(grad: np.ndarray, a=x, out=out_data) -> Iterable:
        return ((a, grad * out, True),)

    out = Tensor._make(out_data, (x,), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("exp", out, (x,))
    return out


def log(x: ArrayLike) -> Tensor:
    """Elementwise natural logarithm.

    The caller is responsible for keeping inputs strictly positive (the
    losses in :mod:`repro.autograd.functional` clip probabilities first,
    mirroring the paper's clipping of propensities to ``(0, 1)``).
    """
    x = _as_tensor(x)
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("log", (x,))
    out_data = np.log(x.data)

    def backward(grad: np.ndarray, a=x) -> Iterable:
        return ((a, grad / a.data, True),)

    out = Tensor._make(out_data, (x,), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("log", out, (x,))
    return out


def sigmoid(x: ArrayLike) -> Tensor:
    """Numerically stable logistic sigmoid.

    Branch-free formulation: ``exp(-|x|)`` never overflows, and
    ``where(x >= 0, t, 1 - t)`` with ``t = 1 / (1 + exp(-|x|))``
    recovers both halves of the usual two-branch implementation in a
    single pass (the old version made four passes over the data through
    boolean fancy indexing).

    The output remembers its pre-activation (``out._logits``) so that
    :func:`~repro.autograd.functional.binary_cross_entropy` can fuse the
    sigmoid into a logits-space log-loss.
    """
    x = _as_tensor(x)
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("sigmoid", (x,))
    data = x.data
    e = np.exp(-np.abs(data))
    t = 1.0 / (1.0 + e)
    out_data = np.where(data >= 0, t, 1.0 - t)

    def backward(grad: np.ndarray, a=x, out=out_data) -> Iterable:
        return ((a, grad * out * (1.0 - out), True),)

    out = Tensor._make(out_data, (x,), backward)
    out._logits = x
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("sigmoid", out, (x,))
    return out


def tanh(x: ArrayLike) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = _as_tensor(x)
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("tanh", (x,))
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray, a=x, out=out_data) -> Iterable:
        return ((a, grad * (1.0 - out**2), True),)

    out = Tensor._make(out_data, (x,), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("tanh", out, (x,))
    return out


def relu(x: ArrayLike) -> Tensor:
    """Elementwise rectified linear unit."""
    x = _as_tensor(x)
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("relu", (x,))
    out_data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray, a=x) -> Iterable:
        return ((a, grad * (a.data > 0), True),)

    out = Tensor._make(out_data, (x,), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("relu", out, (x,))
    return out


def leaky_relu(x: ArrayLike, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with configurable negative slope."""
    x = _as_tensor(x)
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("leaky_relu", (x,), (negative_slope,))
    out_data = np.where(x.data > 0, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray, a=x, slope=negative_slope) -> Iterable:
        return ((a, grad * np.where(a.data > 0, 1.0, slope), True),)

    out = Tensor._make(out_data, (x,), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("leaky_relu", out, (x,), (negative_slope,))
    return out


def absolute(x: ArrayLike) -> Tensor:
    """Elementwise absolute value (subgradient 0 at the kink).

    Used by the DCMT counterfactual regularizer
    ``|1 - (r_hat + r_hat*)|`` (Eq. (9) in the paper).
    """
    x = _as_tensor(x)
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("absolute", (x,))
    out_data = np.abs(x.data)

    def backward(grad: np.ndarray, a=x) -> Iterable:
        return ((a, grad * np.sign(a.data), True),)

    out = Tensor._make(out_data, (x,), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("absolute", out, (x,))
    return out


def clip(x: ArrayLike, low: float, high: float) -> Tensor:
    """Clip values to ``[low, high]`` with straight-through-zero gradient.

    Gradients are passed through only where the input is strictly inside
    the interval (standard clip gradient).  The paper clips propensities
    ``o_hat`` away from 0 and 1 to avoid NaN losses (Section III-F).
    """
    x = _as_tensor(x)
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("clip", (x,), (low, high))
    out_data = np.clip(x.data, low, high)

    def backward(grad: np.ndarray, a=x, lo=low, hi=high) -> Iterable:
        mask = (a.data >= lo) & (a.data <= hi)
        return ((a, grad * mask, True),)

    out = Tensor._make(out_data, (x,), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("clip", out, (x,), (low, high))
    return out


def maximum(x: ArrayLike, y: ArrayLike) -> Tensor:
    """Elementwise maximum (gradient routed to the larger input)."""
    x, y = _as_tensor(x), _as_tensor(y)
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("maximum", (x, y))
    out_data = np.maximum(x.data, y.data)

    def backward(grad: np.ndarray, a=x, b=y) -> Iterable:
        choose_a = a.data >= b.data
        return (
            (a, unbroadcast(grad * choose_a, a.shape), True),
            (b, unbroadcast(grad * (~choose_a), b.shape), True),
        )

    out = Tensor._make(out_data, (x, y), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("maximum", out, (x, y))
    return out


def affine(x: ArrayLike, weight: ArrayLike, bias: Optional[ArrayLike] = None) -> Tensor:
    """Fused ``x @ weight + bias`` as a single graph node.

    The Linear-layer forward.  Compared to the unfused ``matmul`` +
    ``add`` chain this saves one intermediate tensor, one backward
    closure and one gradient hand-off per layer per step; the gradients
    (``g @ W.T``, ``x.T @ g``, ``g.sum(0)``) are identical.  Inputs must
    be 2-D (``bias`` 1-D); use ``@`` for batched matmul.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.ndim != 2 or weight.ndim != 2:
        raise ValueError(
            f"affine expects 2-D inputs, got x{x.shape} @ weight{weight.shape}"
        )
    b = None if bias is None else _as_tensor(bias)
    if b is not None and b.ndim != 1:
        raise ValueError(f"affine bias must be 1-D, got shape {b.shape}")
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("affine", (x, weight, b))
    out_data = x.data @ weight.data
    if b is None:
        parents = (x, weight)
    else:
        out_data += b.data
        parents = (x, weight, b)

    def backward(grad: np.ndarray, a=x, w=weight, bb=b) -> Iterable:
        entries = []
        if a.requires_grad:
            entries.append((a, grad @ w.data.T, True))
        if w.requires_grad:
            entries.append((w, a.data.T @ grad, True))
        if bb is not None and bb.requires_grad:
            entries.append((bb, grad.sum(axis=0), True))
        return entries

    out = Tensor._make(out_data, parents, backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("affine", out, (x, weight, b))
    return out


def sigmoid_bce(logits: ArrayLike, targets: ArrayLike, probs: np.ndarray) -> Tensor:
    """Per-sample binary log-loss fused with the sigmoid, from logits.

    Forward uses the overflow-free identity
    ``max(z, 0) - z*y + log1p(exp(-|z|))``; backward is the closed form
    ``(sigmoid(z) - y) * g``.  This replaces the five-node
    sigmoid -> clip -> log chain of the probability-space loss (and is
    also stabler: no clipping needed, gradients stay exact in the
    saturated tails).

    ``probs`` is the already-computed ``sigmoid(z)`` array (the fusion
    path in ``binary_cross_entropy`` reuses the forward sigmoid output),
    so backward does not recompute it.  Returns the unreduced per-sample
    loss.
    """
    logits = _as_tensor(logits)
    y = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=float)
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("sigmoid_bce", (logits, y, probs))
    z = logits.data
    out_data = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))

    def backward(grad: np.ndarray, a=logits, yy=y, s=probs) -> Iterable:
        return ((a, (s - yy) * grad, True),)

    out = Tensor._make(out_data, (logits,), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("sigmoid_bce", out, (logits, y, probs))
    return out


def concat(tensors: Sequence[ArrayLike], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``."""
    ts = [_as_tensor(t) for t in tensors]
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("concat", tuple(ts), (axis,))
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray, parts=ts, offs=offsets, ax=axis) -> Iterable:
        result = []
        for i, part in enumerate(parts):
            slicer = [slice(None)] * grad.ndim
            slicer[ax] = slice(offs[i], offs[i + 1])
            result.append((part, grad[tuple(slicer)]))
        return result

    out = Tensor._make(out_data, tuple(ts), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("concat", out, tuple(ts), (axis,))
    return out


def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    ts = [_as_tensor(t) for t in tensors]
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("stack", tuple(ts), (axis,))
    out_data = np.stack([t.data for t in ts], axis=axis)

    def backward(grad: np.ndarray, parts=ts, ax=axis) -> Iterable:
        return [
            (part, np.take(grad, i, axis=ax), True) for i, part in enumerate(parts)
        ]

    out = Tensor._make(out_data, tuple(ts), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("stack", out, tuple(ts), (axis,))
    return out


def scatter_rows(
    indices: np.ndarray,
    grad: np.ndarray,
    shape: Tuple[int, ...],
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Sum the rows of ``grad`` into a zero ``shape`` table at ``indices``.

    Byte-identical to ``np.add.at(np.zeros(shape, dtype), indices,
    grad)``: ``np.bincount`` over flat element indices adds its weights
    in occurrence order starting from 0.0, which is exactly the
    sequence of additions ``np.add.at`` performs, without its
    per-element dispatch.  ``grad`` has shape ``indices.shape +
    shape[1:]``.
    Non-float64 data, empty ids and negative (wrapping) ids take the
    literal ``np.add.at`` path.
    """
    flat_idx = np.asarray(indices).reshape(-1)
    if (
        grad.dtype != np.float64
        or np.dtype(dtype) != np.float64
        or flat_idx.size == 0
        or flat_idx.min() < 0
    ):
        out = np.zeros(shape, dtype=dtype)
        np.add.at(out, indices, grad)
        return out
    dim = 1
    for extent in shape[1:]:
        dim *= extent
    if dim == 1:
        flat = flat_idx
    else:
        flat = (flat_idx[:, None] * dim + np.arange(dim)).reshape(-1)
    sums = np.bincount(
        flat, weights=grad.reshape(-1), minlength=shape[0] * dim
    )
    return sums.reshape(shape)


def take_rows(table: ArrayLike, indices: np.ndarray) -> Tensor:
    """Gather rows of a 2-D ``table`` by integer ``indices``.

    This is the embedding-lookup primitive.  The backward pass scatters
    gradients into a dense zero table with :func:`scatter_rows`
    (duplicate indices accumulate, bit-identical to ``np.add.at``).
    """
    table = _as_tensor(table)
    idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise TypeError(f"indices must be integers, got {idx.dtype}")
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("take_rows", (table, idx), ())
    out_data = table.data[idx]

    def backward(grad: np.ndarray, t=table, i=idx) -> Iterable:
        full = scatter_rows(i, grad, t.data.shape, t.data.dtype)
        return ((t, full, True),)

    out = Tensor._make(out_data, (table,), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("take_rows", out, (table, idx), ())
    return out


def softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (used by MMoE/PLE gates)."""
    x = _as_tensor(x)
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("softmax", (x,), (axis,))
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray, a=x, out=out_data, ax=axis) -> Iterable:
        dot = (grad * out).sum(axis=ax, keepdims=True)
        return ((a, out * (grad - dot), True),)

    out = Tensor._make(out_data, (x,), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("softmax", out, (x,), (axis,))
    return out


def dropout_mask(
    shape: Sequence[int], rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample an inverted-dropout mask (scales kept units by 1/(1-rate))."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


def squeeze(x: ArrayLike, axis: Optional[int] = None) -> Tensor:
    """Remove a singleton axis (all singleton axes when ``axis`` is None)."""
    x = _as_tensor(x)
    if _planmode._REPLAY is not None:
        return _planmode._REPLAY.run("squeeze", (x,), (axis,))
    out_data = np.squeeze(x.data, axis=axis)

    def backward(grad: np.ndarray, a=x) -> Iterable:
        return ((a, grad.reshape(a.shape)),)

    out = Tensor._make(out_data, (x,), backward)
    if _planmode._TRACER is not None:
        _planmode._TRACER.record("squeeze", out, (x,), (axis,))
    return out
