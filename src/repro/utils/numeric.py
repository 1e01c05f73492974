"""Numerically stable elementwise functions shared by numpy-only modules."""

from __future__ import annotations

from typing import Optional

import numpy as np


def stable_sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``1 / (1 + exp(-x))`` without overflow, as float64.

    Both branches are evaluated on ``e = exp(-|x|)``, which never
    overflows: ``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)``
    elsewhere.  ``exp(-|x|)`` is bit-for-bit ``exp(-x)`` on the first
    branch and ``exp(x)`` on the second, so the result is elementwise
    identical to the masked two-branch form (``-0.0``, ``+-inf`` and a
    NaN's sign included), yet it runs as whole-array passes with no
    boolean gather, scatter or select.  It is not the ``1 - t`` form of
    :func:`repro.autograd.ops.sigmoid`, which rounds differently.

    ``out`` (float64, ``x``'s shape; may be ``x`` itself) receives the
    result.
    """
    x = np.asarray(x, dtype=np.float64)
    neg = np.negative(x, out=np.empty_like(x))
    e = np.minimum(x, neg, out=np.empty_like(x) if out is None else out)
    # 1.0 where x >= 0 (that is, -x <= 0; False for NaN), else 0.0.
    np.less_equal(neg, 0.0, out=neg)
    np.exp(e, out=e)
    # Numerator: 1 where x >= 0 (e <= 1 there), e elsewhere (e >= 0).
    np.maximum(e, neg, out=neg)
    np.add(e, 1.0, out=e)
    return np.divide(neg, e, out=e)
