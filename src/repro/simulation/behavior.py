"""User behaviour rollout for served pages.

Given a ranked page, the simulator draws the hidden attention
confounder per impression and samples clicks from the true click model
(including position bias) and conversions from the true post-click
conversion model -- the same generative process that produced the
offline training logs, so online and offline worlds are consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import SyntheticScenario


@dataclass(frozen=True)
class PageViewOutcome:
    """What happened on one served page."""

    items: np.ndarray
    positions: np.ndarray
    clicks: np.ndarray
    conversions: np.ndarray
    true_cvr: np.ndarray

    @property
    def any_conversion(self) -> bool:
        return bool(self.conversions.any())

    def any_conversion_in_top(self, k: int) -> bool:
        """Conversion among the first ``k`` display positions."""
        mask = self.positions < k
        return bool((self.conversions[mask]).any())


MODES = ("independent", "single_choice")


class BehaviorSimulator:
    """Samples user behaviour on served pages from the true world.

    Two behaviour modes:

    * ``independent`` (default) -- every impression is clicked
      independently with its position-biased true CTR; matches the
      exposure-log generator, so offline and online worlds coincide.
    * ``single_choice`` -- the user clicks **at most one** item per
      page, chosen by a multinomial over the click logits (with a
      no-click option); models within-page cannibalization, the
      mechanism behind "clickbait" losses.
    """

    def __init__(
        self, scenario: SyntheticScenario, mode: str = "independent"
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.scenario = scenario
        self.mode = mode

    def roll_out(
        self, user: int, page_items: np.ndarray, rng: np.random.Generator
    ) -> PageViewOutcome:
        """Simulate one page view under the configured behaviour mode."""
        if self.mode == "single_choice":
            return self._roll_out_single_choice(user, page_items, rng)
        return self._roll_out_independent(user, page_items, rng)

    # ------------------------------------------------------------------
    def _roll_out_independent(
        self, user: int, page_items: np.ndarray, rng: np.random.Generator
    ) -> PageViewOutcome:
        k = len(page_items)
        users = np.full(k, user)
        positions = np.arange(k)
        hidden = self.scenario.sample_hidden(k, rng)
        ctr = self.scenario.true_ctr(users, page_items, positions, hidden)
        cvr = self.scenario.true_cvr(users, page_items, hidden)
        clicks = (rng.random(k) < ctr).astype(np.int64)
        conversions = clicks * (rng.random(k) < cvr).astype(np.int64)
        return PageViewOutcome(
            items=page_items,
            positions=positions,
            clicks=clicks,
            conversions=conversions,
            true_cvr=cvr,
        )

    def _roll_out_single_choice(
        self, user: int, page_items: np.ndarray, rng: np.random.Generator
    ) -> PageViewOutcome:
        """At most one click per page: multinomial over click odds.

        One hidden attention draw applies to the whole page view (the
        user's session state); the no-click option has weight 1 so that
        each item's choice odds reduce to its calibrated click odds.
        """
        k = len(page_items)
        users = np.full(k, user)
        positions = np.arange(k)
        hidden = np.full(k, self.scenario.sample_hidden(1, rng)[0])
        ctr = self.scenario.true_ctr(users, page_items, positions, hidden)
        cvr = self.scenario.true_cvr(users, page_items, hidden)
        odds = ctr / np.clip(1.0 - ctr, 1e-9, None)
        total = odds.sum() + 1.0  # +1: the no-click option
        probabilities = np.concatenate([odds, [1.0]]) / total
        choice = rng.choice(k + 1, p=probabilities)
        clicks = np.zeros(k, dtype=np.int64)
        conversions = np.zeros(k, dtype=np.int64)
        if choice < k:
            clicks[choice] = 1
            if rng.random() < cvr[choice]:
                conversions[choice] = 1
        return PageViewOutcome(
            items=page_items,
            positions=positions,
            clicks=clicks,
            conversions=conversions,
            true_cvr=cvr,
        )
