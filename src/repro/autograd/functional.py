"""Composite differentiable losses shared by all CVR estimators.

The paper's losses are all built from the binary log-loss
``e(y, y_hat) = -y log(y_hat) - (1-y) log(1-y_hat)`` (Eq. (1)), possibly
weighted per-sample by inverse propensities.  We provide:

* :func:`binary_cross_entropy` -- per-sample log-loss on probabilities;
  on a direct ``ops.sigmoid`` output it fuses into one numerically
  stable logits-space node (``ops.sigmoid_bce``).
* :func:`weighted_mean` -- weighted reduction used by the IPW/DR/DCMT
  losses (weights are plain numpy arrays; gradients never flow through
  importance weights, matching the stop-gradient on propensities used
  by ESCM2 and DCMT).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor, _as_tensor

ArrayLike = Union[Tensor, np.ndarray, float, int, list, tuple]

#: Probabilities are clipped to ``[EPS, 1-EPS]`` inside the log-losses,
#: mirroring the paper's clipping of propensities to the open interval
#: (0, 1) to avoid NaN losses (Section III-F).
EPS = 1e-7


def binary_cross_entropy(
    probs: ArrayLike, targets: ArrayLike, reduction: str = "mean"
) -> Tensor:
    """Binary log-loss on probabilities, clipped for stability.

    Parameters
    ----------
    probs:
        Predicted probabilities in ``[0, 1]``.
    targets:
        Binary labels (numpy array or tensor; no gradient flows to them).
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    probs = _as_tensor(probs)
    y = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=float)
    logits = probs._logits
    if logits is not None:
        # ``probs`` is the direct output of ``ops.sigmoid``: fuse the
        # sigmoid into a logits-space log-loss (one graph node instead
        # of five, exact tail gradients, no clipping needed).  The
        # already-computed probabilities are reused by the backward.
        loss = ops.sigmoid_bce(logits, y, probs=probs.data)
        return _reduce(loss, reduction)
    p = ops.clip(probs, EPS, 1.0 - EPS)
    loss = -(Tensor(y) * ops.log(p) + Tensor(1.0 - y) * ops.log(1.0 - p))
    return _reduce(loss, reduction)


def weighted_mean(
    values: ArrayLike,
    weights: np.ndarray,
    denominator: Optional[float] = None,
) -> Tensor:
    """Weighted sum of ``values`` divided by ``denominator``.

    ``weights`` is a plain numpy array: importance weights (inverse
    propensities) are treated as constants during backpropagation, the
    standard stop-gradient treatment in propensity-weighted learning.
    ``denominator`` defaults to the number of elements (i.e. a weighted
    mean over the batch, matching the ``1/|D|`` normalisation of the
    paper's losses).
    """
    values = _as_tensor(values)
    w = np.asarray(weights, dtype=float)
    if denominator is None:
        denominator = float(values.size)
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return (values * Tensor(w)).sum() * (1.0 / denominator)


def _reduce(loss: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")
