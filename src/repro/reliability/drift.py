"""Drift sentinels: PSI/KS monitors against a frozen training reference.

DCMT's inverse-propensity weights ``1/o_hat`` (Eq. (8)-(9), clipped per
Eq. (13)) are calibrated against the *training* propensity
distribution.  When the serving-time distribution of features,
propensities, or predicted CVRs drifts away from that reference, the
weights silently blow up or the calibration silently rots -- neither
failure throws an exception.  This module turns the drift into a
signal:

* :class:`DriftReference` -- a frozen snapshot of the training-time
  distributions (per-dense-feature histograms plus the model's
  ``o_hat`` and CVR prediction histograms), captured once after
  training and serializable to JSON;
* :class:`DriftMonitor` -- one tracked quantity: a sliding window of
  serving-time observations compared to its reference bin-by-bin with
  the population stability index (PSI) and a histogram-based
  Kolmogorov-Smirnov statistic;
* :class:`DriftSentinel` -- the bundle of monitors a
  :class:`~repro.simulation.serving.RankingService` consults; per-monitor
  and overall status is ``ok`` / ``warn`` / ``trip``.

Everything is deterministic: fixed bin edges from the reference, a
bounded deque window, no wall clock.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np

#: Monitor statuses, in escalating severity.
STATUS_OK = "ok"
STATUS_WARN = "warn"
STATUS_TRIP = "trip"
_SEVERITY = {STATUS_OK: 0, STATUS_WARN: 1, STATUS_TRIP: 2}


def _histogram_shares(
    expected: np.ndarray, actual: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Validate two histograms over identical bins and normalise them.

    A histogram with zero total mass has no distribution to compare --
    dividing by its (zero) total would silently manufacture one out of
    the epsilon floor.  That happens in practice when a degenerate
    reference (constant feature column collapsed to zero-width bins by
    a hand-built or legacy JSON payload) is binned: every count lands
    nowhere.  Refuse loudly instead of returning garbage.
    """
    expected = np.asarray(expected, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if expected.shape != actual.shape:
        raise ValueError(
            f"histogram shapes differ: {expected.shape} vs {actual.shape}"
        )
    e_total, a_total = expected.sum(), actual.sum()
    if e_total <= 0 or a_total <= 0:
        raise ValueError(
            "histogram has zero total mass (degenerate zero-width bins?); "
            f"expected.sum()={e_total:g} actual.sum()={a_total:g}"
        )
    return expected / e_total, actual / a_total


def population_stability_index(
    expected: np.ndarray, actual: np.ndarray, eps: float = 1e-4
) -> float:
    """PSI between two histograms over identical bins.

    Bin shares are floored at ``eps`` (then renormalised) so empty bins
    do not produce infinities; < 0.1 is conventionally stable, 0.1-0.25
    moderate shift, > 0.25 a significant shift.  Raises ``ValueError``
    on an all-zero histogram (see :func:`_histogram_shares`).
    """
    e, a = _histogram_shares(expected, actual)
    e = np.clip(e, eps, None)
    a = np.clip(a, eps, None)
    e /= e.sum()
    a /= a.sum()
    return float(np.sum((a - e) * np.log(a / e)))


def ks_statistic(expected: np.ndarray, actual: np.ndarray) -> float:
    """Max CDF gap between two histograms over identical bins.

    Raises ``ValueError`` on an all-zero histogram rather than dividing
    by zero mass (see :func:`_histogram_shares`).
    """
    e, a = _histogram_shares(expected, actual)
    return float(np.max(np.abs(np.cumsum(e) - np.cumsum(a))))


def _widen_degenerate_range(lo: float, hi: float) -> "tuple[float, float]":
    """Open up a zero-width value range so histogram edges stay strictly
    increasing (a constant feature column otherwise collapses every bin
    to width zero and binning divides by nothing)."""
    if lo == hi:
        return lo - 0.5, hi + 0.5
    return lo, hi


@dataclass
class ReferenceDistribution:
    """A frozen histogram of one quantity (fixed edges + counts)."""

    name: str
    edges: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_samples(
        cls,
        name: str,
        values: np.ndarray,
        bins: int = 10,
        value_range: Optional[tuple] = None,
    ) -> "ReferenceDistribution":
        values = np.asarray(values, dtype=float)
        values = values[np.isfinite(values)]
        if values.size == 0:
            raise ValueError(f"{name}: no finite reference samples")
        if value_range is None:
            lo, hi = float(values.min()), float(values.max())
        else:
            lo, hi = float(value_range[0]), float(value_range[1])
        lo, hi = _widen_degenerate_range(lo, hi)
        edges = np.linspace(lo, hi, bins + 1)
        counts, _ = np.histogram(np.clip(values, lo, hi), bins=edges)
        return cls(name=name, edges=edges, counts=counts.astype(float))

    def histogram(self, values: np.ndarray) -> np.ndarray:
        """Bin serving-time values with the frozen reference edges.

        Out-of-range values are clipped into the edge bins, so a shift
        beyond the training support piles up at the boundary -- exactly
        the signature PSI is most sensitive to.
        """
        values = np.asarray(values, dtype=float)
        values = values[np.isfinite(values)]
        clipped = np.clip(values, self.edges[0], self.edges[-1])
        counts, _ = np.histogram(clipped, bins=self.edges)
        return counts.astype(float)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "edges": [float(e) for e in self.edges],
            "counts": [float(c) for c in self.counts],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ReferenceDistribution":
        """Rebuild from JSON, repairing degenerate zero-width edges.

        References captured before the constant-column widening (or
        hand-built payloads) can carry edges that collapsed to a single
        value; re-spreading them around that value keeps the round trip
        loadable and the monitors' PSI/KS finite instead of dividing by
        zero-mass histograms.
        """
        edges = np.asarray(payload["edges"], dtype=float)
        if len(edges) < 2:
            raise ValueError(
                f"{payload['name']}: need at least 2 histogram edges"
            )
        if edges[0] == edges[-1]:  # zero-width legacy/degenerate payload
            lo, hi = _widen_degenerate_range(float(edges[0]), float(edges[-1]))
            edges = np.linspace(lo, hi, len(edges))
        elif np.any(np.diff(edges) <= 0):
            raise ValueError(
                f"{payload['name']}: histogram edges must be strictly "
                "increasing"
            )
        return cls(
            name=payload["name"],
            edges=edges,
            counts=np.asarray(payload["counts"], dtype=float),
        )


@dataclass(frozen=True)
class DriftThresholds:
    """Warn/trip levels for both statistics, plus a sample floor."""

    psi_warn: float = 0.10
    psi_trip: float = 0.25
    ks_warn: float = 0.10
    ks_trip: float = 0.20
    #: Monitors report ``ok`` until this many observations accumulate
    #: (small windows make both statistics pure noise).
    min_samples: int = 100

    def __post_init__(self) -> None:
        if not 0 < self.psi_warn <= self.psi_trip:
            raise ValueError("need 0 < psi_warn <= psi_trip")
        if not 0 < self.ks_warn <= self.ks_trip:
            raise ValueError("need 0 < ks_warn <= ks_trip")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")


class DriftMonitor:
    """Sliding-window drift statistics for one quantity."""

    def __init__(
        self,
        reference: ReferenceDistribution,
        thresholds: Optional[DriftThresholds] = None,
        window: int = 2048,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.reference = reference
        self.thresholds = thresholds or DriftThresholds()
        self._buffer: deque = deque(maxlen=window)

    @property
    def n_observed(self) -> int:
        return len(self._buffer)

    def observe(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float).ravel()
        self._buffer.extend(values[np.isfinite(values)].tolist())

    def reset(self) -> None:
        self._buffer.clear()

    def psi(self) -> float:
        if not self._buffer:
            return 0.0
        return population_stability_index(
            self.reference.counts, self.reference.histogram(np.array(self._buffer))
        )

    def ks(self) -> float:
        if not self._buffer:
            return 0.0
        return ks_statistic(
            self.reference.counts, self.reference.histogram(np.array(self._buffer))
        )

    def status(self) -> str:
        t = self.thresholds
        if self.n_observed < t.min_samples:
            return STATUS_OK
        psi, ks = self.psi(), self.ks()
        if psi >= t.psi_trip or ks >= t.ks_trip:
            return STATUS_TRIP
        if psi >= t.psi_warn or ks >= t.ks_warn:
            return STATUS_WARN
        return STATUS_OK

    def snapshot(self) -> Dict:
        return {
            "name": self.reference.name,
            "n": self.n_observed,
            "psi": self.psi(),
            "ks": self.ks(),
            "status": self.status(),
        }


@dataclass
class DriftReference:
    """Frozen training-time distributions for every monitored quantity."""

    dense: Dict[str, ReferenceDistribution]
    propensity: ReferenceDistribution
    cvr: ReferenceDistribution

    @classmethod
    def capture(
        cls,
        model,
        dataset,
        sample: int = 2048,
        bins: int = 10,
        seed: int = 0,
    ) -> "DriftReference":
        """Snapshot a trained model against (a sample of) its train set.

        Dense feature histograms come straight from the data; the
        ``o_hat`` (propensity) and CVR histograms come from the model's
        predictions on the sampled rows, binned over the fixed [0, 1]
        probability range.
        """
        rng = np.random.default_rng(seed)
        n = len(dataset)
        if n == 0:
            raise ValueError("cannot capture a drift reference from 0 rows")
        idx = np.sort(rng.choice(n, size=min(sample, n), replace=False))
        subset = dataset.subset(idx)
        preds = model.predict(subset.full_batch())
        dense = {
            c: ReferenceDistribution.from_samples(c, v, bins=bins)
            for c, v in subset.dense.items()
        }
        propensity = ReferenceDistribution.from_samples(
            "o_hat", preds.ctr, bins=bins, value_range=(0.0, 1.0)
        )
        cvr = ReferenceDistribution.from_samples(
            "cvr_hat", preds.cvr, bins=bins, value_range=(0.0, 1.0)
        )
        return cls(dense=dense, propensity=propensity, cvr=cvr)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "dense": {k: v.to_dict() for k, v in self.dense.items()},
            "propensity": self.propensity.to_dict(),
            "cvr": self.cvr.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "DriftReference":
        return cls(
            dense={
                k: ReferenceDistribution.from_dict(v)
                for k, v in payload["dense"].items()
            },
            propensity=ReferenceDistribution.from_dict(payload["propensity"]),
            cvr=ReferenceDistribution.from_dict(payload["cvr"]),
        )

    def save(self, path: "Path | str") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    @classmethod
    def load(cls, path: "Path | str") -> "DriftReference":
        return cls.from_dict(json.loads(Path(path).read_text()))


class DriftSentinel:
    """The monitor bundle a serving stack consults per request."""

    def __init__(
        self,
        reference: DriftReference,
        thresholds: Optional[DriftThresholds] = None,
        window: int = 2048,
    ) -> None:
        self.thresholds = thresholds or DriftThresholds()
        self.monitors: Dict[str, DriftMonitor] = {
            f"dense:{name}": DriftMonitor(ref, self.thresholds, window)
            for name, ref in reference.dense.items()
        }
        self.monitors["propensity"] = DriftMonitor(
            reference.propensity, self.thresholds, window
        )
        self.monitors["cvr"] = DriftMonitor(reference.cvr, self.thresholds, window)

    def observe(
        self,
        dense: Optional[Dict[str, np.ndarray]] = None,
        o_hat: Optional[np.ndarray] = None,
        cvr: Optional[np.ndarray] = None,
    ) -> None:
        """Feed one request's serving-time observations."""
        if dense:
            for name, values in dense.items():
                monitor = self.monitors.get(f"dense:{name}")
                if monitor is not None:
                    monitor.observe(values)
        if o_hat is not None:
            self.monitors["propensity"].observe(o_hat)
        if cvr is not None:
            self.monitors["cvr"].observe(cvr)

    def statuses(self) -> Dict[str, str]:
        return {name: m.status() for name, m in self.monitors.items()}

    def status(self) -> str:
        """Worst status across every monitor."""
        return max(
            self.statuses().values(), key=_SEVERITY.__getitem__, default=STATUS_OK
        )

    @property
    def tripped(self) -> bool:
        return self.status() == STATUS_TRIP

    def report(self) -> Dict[str, Dict]:
        return {name: m.snapshot() for name, m in self.monitors.items()}

    def reset(self) -> None:
        for monitor in self.monitors.values():
            monitor.reset()


# ----------------------------------------------------------------------
# Outcome calibration (the confounder-shift detector)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CalibrationThresholds:
    """Warn/trip levels for the prediction-vs-outcome gap."""

    gap_warn: float = 0.02
    gap_trip: float = 0.05
    #: Pairs required before the gap is trusted (binary outcomes make
    #: small windows pure noise).
    min_samples: int = 200

    def __post_init__(self) -> None:
        if not 0 < self.gap_warn <= self.gap_trip:
            raise ValueError("need 0 < gap_warn <= gap_trip")
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )


class CalibrationMonitor:
    """Sliding-window ``|E[prediction] - E[outcome]|`` gap.

    A *hidden-confounder* shift is invisible to every feature-space
    monitor: the observable feature distribution and the model's
    prediction distribution both stay put, because what changed is the
    unobserved attention variable ``h`` inside ``p(o=1 | x, h)``
    (Section I-C of the paper; the non-stationarity warning of the
    Twitter entire-space analysis).  What *does* move is realised
    behaviour against the model's calibrated expectations: the clicks
    and conversions that actually happen stop matching the
    probabilities the model assigns to them.  This monitor pairs each
    prediction with its realised binary outcome and trips when the
    windowed mean gap exceeds the threshold -- the label-aware
    complement to :class:`DriftSentinel`'s label-free PSI/KS.

    On a *served* (model-selected) slice the raw gap carries a large
    steady-state offset that is not drift: ranking by predicted score
    selects rows whose predictions overshoot their outcomes (the
    winner's curse), so ``E[prediction] - E[outcome]`` sits well above
    zero from the champion's first page onward.  ``auto_baseline=True``
    handles that slice honestly: the first time the window fills to
    ``min_samples`` the monitor freezes the current gap as the
    champion's own launch calibration and thereafter alerts on the
    *deviation* from it (:meth:`drift`), so only the world moving --
    not the selection effect -- can trip it.  :meth:`reset` clears the
    baseline along with the window, so every promotion re-baselines.
    """

    def __init__(
        self,
        name: str,
        thresholds: Optional[CalibrationThresholds] = None,
        window: int = 4096,
        auto_baseline: bool = False,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.name = name
        self.thresholds = thresholds or CalibrationThresholds()
        self.auto_baseline = auto_baseline
        self._baseline: Optional[float] = None
        self._predicted: deque = deque(maxlen=window)
        self._observed: deque = deque(maxlen=window)

    @property
    def n_observed(self) -> int:
        return len(self._predicted)

    def observe(self, predicted: np.ndarray, outcomes: np.ndarray) -> None:
        """Feed aligned (prediction, realised outcome) pairs."""
        predicted = np.asarray(predicted, dtype=float).ravel()
        outcomes = np.asarray(outcomes, dtype=float).ravel()
        if predicted.shape != outcomes.shape:
            raise ValueError(
                f"predicted/outcomes shapes differ: {predicted.shape} vs "
                f"{outcomes.shape}"
            )
        keep = np.isfinite(predicted) & np.isfinite(outcomes)
        self._predicted.extend(predicted[keep].tolist())
        self._observed.extend(outcomes[keep].tolist())

    def reset(self, keep_baseline: bool = False) -> None:
        """Clear the window (and, by default, the frozen baseline).

        ``keep_baseline=True`` supports the promotion/rollback dance: a
        freshly promoted champion is judged against the *previous*
        champion's steady-state gap for its grace period (a healthy
        successor lands near it; a broken one deviates and trips), and
        only re-baselines once it survives.
        """
        self._predicted.clear()
        self._observed.clear()
        if not keep_baseline:
            self._baseline = None

    def gap(self) -> float:
        """Signed windowed ``E[prediction] - E[outcome]``."""
        if not self._predicted:
            return 0.0
        return float(
            np.mean(np.array(self._predicted)) - np.mean(np.array(self._observed))
        )

    @property
    def baseline(self) -> Optional[float]:
        return self._baseline

    def rebase(self) -> float:
        """Freeze the current gap as the zero point for :meth:`drift`."""
        self._baseline = self.gap()
        return self._baseline

    def drift(self) -> float:
        """Signed gap relative to the baseline (raw gap if unset)."""
        if self._baseline is None:
            return self.gap()
        return self.gap() - self._baseline

    def status(self) -> str:
        t = self.thresholds
        if self.n_observed < t.min_samples:
            return STATUS_OK
        if self.auto_baseline and self._baseline is None:
            # First full window after a reset IS the reference point.
            self.rebase()
            return STATUS_OK
        gap = abs(self.drift())
        if gap >= t.gap_trip:
            return STATUS_TRIP
        if gap >= t.gap_warn:
            return STATUS_WARN
        return STATUS_OK

    @property
    def tripped(self) -> bool:
        return self.status() == STATUS_TRIP

    def snapshot(self) -> Dict:
        return {
            "name": self.name,
            "n": self.n_observed,
            "gap": self.gap(),
            "baseline": self._baseline,
            "drift": self.drift(),
            "status": self.status(),
        }
