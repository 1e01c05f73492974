"""Statistical machinery for the online A/B test (Table V).

The paper reports per-day relative lifts vs the MMOE base bucket and
flags days/overall lifts that are significant at 95% confidence.  We
provide a bootstrap CI on mean metrics and a classic two-proportion
z-test for rate metrics.  The z-test takes its normal tail from
``math.erfc``: numpy is the only dependency, and p-values stay accurate
far into the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np


@dataclass(frozen=True)
class LiftResult:
    """A relative lift and its significance flag."""

    lift: float
    p_value: float
    significant_95: bool

    @property
    def direction(self) -> str:
        return "up" if self.lift >= 0 else "down"


def relative_lift(treatment: float, control: float) -> float:
    """``(treatment - control) / control``; control must be positive."""
    if control <= 0:
        raise ValueError(f"control metric must be positive, got {control}")
    return (treatment - control) / control


def _two_sided_p_value(z: float) -> float:
    """``P(|Z| >= |z|)`` for a standard normal ``Z``.

    ``erfc`` keeps full relative precision in the tail, where
    ``2 * (1 - cdf(|z|))`` cancels to 0 beyond ``|z|`` of about 8.3.
    """
    return math.erfc(abs(z) / math.sqrt(2.0))


def two_proportion_test(
    successes_a: int, trials_a: int, successes_b: int, trials_b: int
) -> LiftResult:
    """Two-sided two-proportion z-test; ``a`` is treatment, ``b`` control.

    Returns the relative lift of ``a`` over ``b`` with its p-value.
    """
    if min(trials_a, trials_b) <= 0:
        raise ValueError("both buckets need at least one trial")
    if successes_a > trials_a or successes_b > trials_b:
        raise ValueError("successes cannot exceed trials")
    p_a = successes_a / trials_a
    p_b = successes_b / trials_b
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    se = np.sqrt(pooled * (1 - pooled) * (1 / trials_a + 1 / trials_b))
    if se == 0:
        return LiftResult(lift=0.0, p_value=1.0, significant_95=False)
    z = (p_a - p_b) / se
    p_value = _two_sided_p_value(z)
    lift = relative_lift(p_a, p_b) if p_b > 0 else float("inf")
    return LiftResult(lift=lift, p_value=p_value, significant_95=p_value < 0.05)


def bootstrap_mean_ci(
    values: np.ndarray,
    rng: np.random.Generator,
    n_boot: int = 1000,
    alpha: float = 0.05,
    statistic: Callable[[np.ndarray], float] = np.mean,
) -> Tuple[float, float, float]:
    """Percentile bootstrap CI: returns ``(estimate, low, high)``."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    estimate = float(statistic(x))
    stats = np.empty(n_boot)
    for i in range(n_boot):
        sample = x[rng.integers(0, x.size, size=x.size)]
        stats[i] = statistic(sample)
    low, high = np.quantile(stats, [alpha / 2, 1 - alpha / 2])
    return estimate, float(low), float(high)
