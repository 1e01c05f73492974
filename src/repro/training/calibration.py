"""Post-hoc probability calibration for CVR outputs.

Production CVR estimates feed bidding/blending formulas, so their
*values* matter, not just their ranking (this is the practical weight
behind the paper's Fig. 7 analysis).  :class:`PlattScaler` is logistic
regression on the logit of the raw prediction: two scalars, robust on
small validation sets.  It is fit on a validation set and then applied
to test predictions.
"""

from __future__ import annotations

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
