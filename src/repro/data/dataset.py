"""Dataset containers: exposures with click/conversion labels.

An :class:`InteractionDataset` holds one exposure log (the entire space
``D`` of the paper): every row is an exposed user-item pair with a
click label ``o`` and an *observed* conversion label ``r`` (which is 0
by construction whenever ``o = 0`` -- the paper's "fake negative"
problem).  Synthetic datasets additionally carry oracle columns (true
click propensity, true CVR, and the potential-outcome conversion label
``r(do(o=1))``) that exist only because we control the generator; they
are used for entire-space evaluation and never shown to models during
training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.data.schema import FeatureSchema


@dataclass
class Batch:
    """A mini-batch of exposures handed to models.

    ``sparse``/``dense`` map feature names to arrays of length ``size``.
    ``conversions`` are the *observed* labels (0 outside the click
    space).  ``actions`` are optional post-click micro-behaviour labels
    (cart/favourite; 0 outside the click space) used by ESM2-style
    behaviour-decomposition models.  ``weights`` are optional per-row
    importance weights (e.g. the delayed-feedback correction of
    :mod:`repro.simulation.feedback`); weight-aware losses (DCMT and
    the click-space BCE of :class:`~repro.models.base.MultiTaskModel`)
    consume them, other models ignore them.
    """

    sparse: Dict[str, np.ndarray]
    dense: Dict[str, np.ndarray]
    clicks: np.ndarray
    conversions: np.ndarray
    actions: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return len(self.clicks)


@dataclass
class InteractionDataset:
    """An exposure log over the entire space ``D``.

    Attributes
    ----------
    name:
        Scenario name (e.g. ``"ae_es"``).
    schema:
        Feature inventory; models derive their embedding layers from it.
    sparse / dense:
        Feature columns, each of length ``n``.
    clicks:
        Click labels ``o`` in {0,1}.
    conversions:
        Observed conversion labels ``r`` (0 wherever ``o`` is 0).
    oracle_ctr / oracle_cvr:
        True click propensity and true post-click conversion
        probability per exposure (generator-only knowledge).
    oracle_conversion:
        Potential-outcome label ``r(do(o=1))`` per exposure, sampled
        from ``oracle_cvr``; equals the observed conversion inside the
        click space.
    """

    name: str
    schema: FeatureSchema
    sparse: Dict[str, np.ndarray]
    dense: Dict[str, np.ndarray]
    clicks: np.ndarray
    conversions: np.ndarray
    oracle_ctr: Optional[np.ndarray] = None
    oracle_cvr: Optional[np.ndarray] = None
    oracle_conversion: Optional[np.ndarray] = None
    #: Optional post-click micro-behaviour labels (cart/favourite),
    #: observed only inside the click space -- the intermediate node of
    #: ESM2's "click -> action -> buy" decomposition.
    actions: Optional[np.ndarray] = None
    #: Optional per-row event timestamps (hours on the log's clock): the
    #: moment of exposure (clicks are treated as instantaneous) and the
    #: moment the conversion was attributed (NaN where no conversion
    #: ever happens).  Emitted by delay-enabled synthetic scenarios;
    #: they drive :meth:`censored_as_of`.
    exposure_times: Optional[np.ndarray] = None
    conversion_times: Optional[np.ndarray] = None
    #: Optional per-row training weights (delayed-feedback importance
    #: correction); sliced into :attr:`Batch.weights` by the batchers.
    weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = len(self.clicks)
        for key, column in {**self.sparse, **self.dense}.items():
            if len(column) != n:
                raise ValueError(
                    f"feature {key!r} has length {len(column)}, expected {n}"
                )
        if len(self.conversions) != n:
            raise ValueError("conversions length mismatch")
        for name, column in (
            ("exposure_times", self.exposure_times),
            ("conversion_times", self.conversion_times),
            ("weights", self.weights),
        ):
            if column is not None and len(column) != n:
                raise ValueError(f"{name} length mismatch")
        if self.conversion_times is not None:
            with np.errstate(invalid="ignore"):
                timed = np.isfinite(np.asarray(self.conversion_times, dtype=float))
            if np.any(timed & (self.conversions == 0)):
                raise ValueError(
                    "conversion_times recorded on rows without an observed "
                    "conversion"
                )
        if np.any((self.conversions == 1) & (self.clicks == 0)):
            raise ValueError(
                "observed conversions outside the click space violate the "
                "exposure->click->conversion behaviour path"
            )
        for oracle in (self.oracle_ctr, self.oracle_cvr, self.oracle_conversion):
            if oracle is not None and len(oracle) != n:
                raise ValueError("oracle column length mismatch")
        if self.actions is not None:
            if len(self.actions) != n:
                raise ValueError("actions length mismatch")
            if np.any((self.actions == 1) & (self.clicks == 0)):
                raise ValueError(
                    "micro-actions outside the click space violate the "
                    "click->action behaviour path"
                )
        if self.oracle_conversion is not None:
            clicked = self.clicks == 1
            if not np.array_equal(
                self.oracle_conversion[clicked], self.conversions[clicked]
            ):
                raise ValueError(
                    "oracle potential outcomes must agree with observed "
                    "conversions inside the click space"
                )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.clicks)

    @property
    def n_exposures(self) -> int:
        return len(self.clicks)

    @property
    def n_clicks(self) -> int:
        return int(self.clicks.sum())

    @property
    def n_conversions(self) -> int:
        return int(self.conversions.sum())

    @property
    def ctr(self) -> float:
        """Marginal click-through rate over ``D``."""
        return self.n_clicks / max(self.n_exposures, 1)

    @property
    def cvr_given_click(self) -> float:
        """Conversion rate inside the click space ``O``."""
        return self.n_conversions / max(self.n_clicks, 1)

    @property
    def has_oracle(self) -> bool:
        return (
            self.oracle_ctr is not None
            and self.oracle_cvr is not None
            and self.oracle_conversion is not None
        )

    # ------------------------------------------------------------------
    def subset(self, indices: np.ndarray) -> "InteractionDataset":
        """Row-subset view (copies columns)."""
        idx = np.asarray(indices)

        def take(column):
            return None if column is None else column[idx]

        return InteractionDataset(
            name=self.name,
            schema=self.schema,
            sparse={k: v[idx] for k, v in self.sparse.items()},
            dense={k: v[idx] for k, v in self.dense.items()},
            clicks=self.clicks[idx],
            conversions=self.conversions[idx],
            oracle_ctr=take(self.oracle_ctr),
            oracle_cvr=take(self.oracle_cvr),
            oracle_conversion=take(self.oracle_conversion),
            actions=take(self.actions),
            exposure_times=take(self.exposure_times),
            conversion_times=take(self.conversion_times),
            weights=take(self.weights),
        )

    @classmethod
    def concat(cls, parts: Sequence["InteractionDataset"]) -> "InteractionDataset":
        """Row-concatenate logs that share one schema and feature set.

        Name and schema come from the first part.  An optional column
        (oracles, actions, timestamps, weights) is kept only when every
        part carries it.  A single part is returned as it is.
        """
        if len(parts) == 1:
            return parts[0]
        first = parts[0]

        def cat(column: str) -> Optional[np.ndarray]:
            columns = [getattr(p, column) for p in parts]
            if any(c is None for c in columns):
                return None
            return np.concatenate(columns)

        return cls(
            name=first.name,
            schema=first.schema,
            sparse={
                k: np.concatenate([p.sparse[k] for p in parts])
                for k in first.sparse
            },
            dense={
                k: np.concatenate([p.dense[k] for p in parts])
                for k in first.dense
            },
            clicks=cat("clicks"),
            conversions=cat("conversions"),
            oracle_ctr=cat("oracle_ctr"),
            oracle_cvr=cat("oracle_cvr"),
            oracle_conversion=cat("oracle_conversion"),
            actions=cat("actions"),
            exposure_times=cat("exposure_times"),
            conversion_times=cat("conversion_times"),
            weights=cat("weights"),
        )

    def censored_as_of(self, now: float) -> "InteractionDataset":
        """The log as an observer at time ``now`` would see it.

        Conversions whose attribution timestamp lies after ``now`` have
        not arrived yet: their labels flip to 0 (the *delayed-feedback*
        fake negatives) and their timestamps are masked out.  Click
        labels and features are untouched -- clicks are observed
        instantly.  ``oracle_conversion`` is dropped from the view
        because the censored observed labels intentionally disagree
        with it inside the click space; ``oracle_ctr``/``oracle_cvr``
        (rates, not labels) are kept for diagnostics.

        Requires conversion/exposure timestamps (delay-enabled
        generators emit them).
        """
        if self.conversion_times is None or self.exposure_times is None:
            raise ValueError(
                "censored_as_of needs exposure_times and conversion_times; "
                "generate the dataset with conversion delays enabled"
            )
        with np.errstate(invalid="ignore"):
            matured = np.asarray(self.conversion_times, dtype=float) <= now
        observed = (self.conversions == 1) & matured
        return InteractionDataset(
            name=f"{self.name}@{now:g}h",
            schema=self.schema,
            sparse=dict(self.sparse),
            dense=dict(self.dense),
            clicks=self.clicks,
            conversions=observed.astype(np.int64),
            oracle_ctr=self.oracle_ctr,
            oracle_cvr=self.oracle_cvr,
            oracle_conversion=None,
            actions=self.actions,
            exposure_times=self.exposure_times,
            conversion_times=np.where(
                observed, self.conversion_times, np.nan
            ),
        )

    def click_space(self) -> "InteractionDataset":
        """The click space ``O`` (conventional CVR training data)."""
        return self.subset(np.flatnonzero(self.clicks == 1))

    def non_click_space(self) -> "InteractionDataset":
        """The non-click space ``N``."""
        return self.subset(np.flatnonzero(self.clicks == 0))

    def full_batch(self) -> Batch:
        """The whole dataset as a single batch (evaluation)."""
        return Batch(
            sparse=self.sparse,
            dense=self.dense,
            clicks=self.clicks,
            conversions=self.conversions,
            actions=self.actions,
            weights=self.weights,
        )

    def validate(self) -> None:
        """Re-run schema/range validation on the stored columns."""
        self.schema.validate_batch_arrays(self.sparse, self.dense)
