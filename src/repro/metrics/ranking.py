"""Ranking metrics: AUC and grouped AUC.

AUC is computed exactly via the rank-sum (Mann-Whitney) statistic with
midranks for ties -- no threshold sweep, O(n log n).  The midranks are
plain numpy and equal ``scipy.stats.rankdata(x)`` bit for bit, NaN rule
included, so the package needs numpy only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _midranks(values) -> np.ndarray:
    """1-based ranks of the flattened ``values``, ties sharing their mean rank.

    The float64 ranks of ``scipy.stats.rankdata(values)``: a stable sort,
    the start of each tie run, and each run's mean position
    ``0.5 * (first + last)`` in exact half-integers.  Any NaN makes
    every rank NaN (ranks against NaN are undefined); ±inf ranks like
    any other value.
    """
    x = np.ravel(np.asarray(values))
    if x.size == 0:
        return np.empty(0, dtype=np.float64)
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="mergesort")
    inverse = np.empty(x.size, dtype=np.intp)
    inverse[order] = np.arange(x.size, dtype=np.intp)
    ordered = x[order]
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    dense = np.cumsum(starts)[inverse]
    count = np.concatenate((np.nonzero(starts)[0], [x.size]))
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve.

    Parameters
    ----------
    labels:
        Binary ground truth in {0, 1}.
    scores:
        Real-valued predictions (higher = more positive).

    Raises
    ------
    ValueError
        If the label vector is degenerate (one class only), since AUC
        is undefined there; callers on very sparse data should check
        ``labels.sum()`` first.
    """
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    if y.shape != s.shape:
        raise ValueError(f"shape mismatch: labels {y.shape} vs scores {s.shape}")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"AUC undefined: {n_pos} positives, {n_neg} negatives in evaluation set"
        )
    ranks = _midranks(s)
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def grouped_auc(
    labels: np.ndarray,
    scores: np.ndarray,
    groups: np.ndarray,
    min_group_size: int = 2,
) -> Optional[float]:
    """Impression-weighted average of within-group AUCs (GAUC).

    Groups whose labels are degenerate are skipped (standard GAUC
    convention).  Returns ``None`` when no group is scoreable.
    """
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    g = np.asarray(groups)
    total_weight = 0.0
    weighted = 0.0
    for value in np.unique(g):
        mask = g == value
        if mask.sum() < min_group_size:
            continue
        sub_labels = y[mask]
        if sub_labels.min() == sub_labels.max():
            continue
        weight = float(mask.sum())
        weighted += weight * auc(sub_labels, s[mask])
        total_weight += weight
    if total_weight == 0.0:
        return None
    return weighted / total_weight
