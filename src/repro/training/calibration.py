"""Post-hoc probability calibration for CVR outputs.

Production CVR estimates feed bidding/blending formulas, so their
*values* matter, not just their ranking (this is the practical weight
behind the paper's Fig. 7 analysis).  Two standard calibrators:

* :class:`PlattScaler` -- logistic regression on the logit of the raw
  prediction (two scalars, robust on small validation sets);
* :class:`IsotonicCalibrator` -- monotone step function via the
  pool-adjacent-violators algorithm (non-parametric; needs more data).

Both are fit on a validation set and then applied to test predictions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.numeric import stable_sigmoid

_EPS = 1e-7


def _logit(p: np.ndarray) -> np.ndarray:
    q = np.clip(p, _EPS, 1.0 - _EPS)
    return np.log(q / (1.0 - q))


class PlattScaler:
    """``calibrated = sigmoid(a * logit(raw) + b)``.

    Fit by Newton steps on the log-loss (a 2-parameter logistic
    regression; converges in a handful of iterations).
    """

    def __init__(self) -> None:
        self.a: float = 1.0
        self.b: float = 0.0
        self._fitted = False

    def fit(
        self, predictions: np.ndarray, labels: np.ndarray, n_iter: int = 50
    ) -> "PlattScaler":
        p = np.asarray(predictions, dtype=float)
        y = np.asarray(labels, dtype=float)
        if p.shape != y.shape:
            raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
        if p.size < 2 or y.min() == y.max():
            raise ValueError("calibration needs both classes present")
        x = _logit(p)
        a, b = 1.0, 0.0
        for _ in range(n_iter):
            z = stable_sigmoid(a * x + b)
            grad_a = float(((z - y) * x).mean())
            grad_b = float((z - y).mean())
            w = z * (1.0 - z) + 1e-9
            h_aa = float((w * x * x).mean())
            h_ab = float((w * x).mean())
            h_bb = float(w.mean())
            det = h_aa * h_bb - h_ab**2
            if abs(det) < 1e-12:
                break
            step_a = (h_bb * grad_a - h_ab * grad_b) / det
            step_b = (h_aa * grad_b - h_ab * grad_a) / det
            a -= step_a
            b -= step_b
            if max(abs(step_a), abs(step_b)) < 1e-10:
                break
        self.a, self.b = a, b
        self._fitted = True
        return self

    def transform(self, predictions: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("fit() must be called before transform()")
        raw = np.asarray(predictions, dtype=float)
        return stable_sigmoid(self.a * _logit(raw) + self.b)


class IsotonicCalibrator:
    """Monotone calibration via pool-adjacent-violators (PAV).

    Produces a piecewise-constant non-decreasing map from raw scores to
    empirical rates; queries interpolate between block values.
    """

    def __init__(self) -> None:
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None

    def fit(self, predictions: np.ndarray, labels: np.ndarray) -> "IsotonicCalibrator":
        p = np.asarray(predictions, dtype=float)
        y = np.asarray(labels, dtype=float)
        if p.shape != y.shape:
            raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
        if p.size < 2:
            raise ValueError("calibration needs at least two points")
        order = np.argsort(p, kind="stable")
        xs = p[order]
        ys = y[order].astype(float)
        weights = np.ones_like(ys)
        # Pool adjacent violators.
        values = list(ys)
        wts = list(weights)
        starts = list(range(len(ys)))
        i = 0
        while i < len(values) - 1:
            if values[i] > values[i + 1] + 1e-15:
                merged = (values[i] * wts[i] + values[i + 1] * wts[i + 1]) / (
                    wts[i] + wts[i + 1]
                )
                wts[i] += wts[i + 1]
                values[i] = merged
                del values[i + 1], wts[i + 1], starts[i + 1]
                if i > 0:
                    i -= 1
            else:
                i += 1
        block_x = []
        for j, start in enumerate(starts):
            end = starts[j + 1] if j + 1 < len(starts) else len(xs)
            block_x.append(float(xs[start:end].mean()))
        self._x = np.asarray(block_x)
        self._y = np.asarray(values)
        return self

    def transform(self, predictions: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("fit() must be called before transform()")
        p = np.asarray(predictions, dtype=float)
        return np.interp(p, self._x, self._y)
