"""Synthetic exposure -> click -> conversion behaviour model.

The generator implements the causal data-generation process that the
paper's debiasing machinery targets:

1. Every user has a latent *click-affinity* vector and a latent
   *conversion-affinity* vector.  The two are correlated with
   coefficient ``bias_strength`` (rho); this correlation is exactly the
   not-missing-at-random mechanism: users click what they like, and
   what they like converts better, so conversion labels are missing
   systematically -- not at random -- in the non-click space.
2. Exposures sample users uniformly and items from a Zipf popularity
   distribution; each exposure gets a display position with a position
   bias on the click logit (one of the paper's motivations for fake
   negatives: lower positions are simply not *seen*).
3. Click labels ``o ~ Bernoulli(sigmoid(click_logit))`` with the
   intercept calibrated so the marginal CTR matches the scenario
   target (Table II rates).
4. Potential-outcome conversions ``r(do(o=1)) ~ Bernoulli(cvr)`` exist
   for *every* exposure; the observed label is ``o * r(do(o=1))``.
   The CVR intercept is calibrated on the click space so the observed
   conversion-per-click rate matches the target.

Because the generator stores true propensities and potential outcomes,
entire-space metrics (the paper's real object of interest) can be
computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.schema import FeatureSchema, paper_like_schema
from repro.utils.numeric import stable_sigmoid

#: Dimension of the latent click/conversion affinity vectors.
LATENT_DIM = 8
#: Number of display positions an exposure can land on.
POSITION_COUNT = 10
#: Exponent of the Zipf item-popularity law exposures sample from.
ZIPF_EXPONENT = 1.1
#: Target marginal rate of the post-click micro-behaviour ("cart" /
#: "favourite"; the intermediate node of ESM2's click -> action -> buy
#: path) among clicked exposures.
TARGET_ACTION_GIVEN_CLICK = 0.35


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of a synthetic scenario.

    The defaults produce an AE-like dataset at ~1/1000 of the paper's
    row counts.  ``target_cvr_given_click`` is deliberately a few times
    larger than the paper's raw rate so that reduced-scale datasets
    still contain hundreds of positive conversions (see ``DESIGN.md``,
    substitutions table); the *geometry* of the selection bias is
    governed by ``bias_strength`` and is unaffected by this scaling.
    """

    name: str = "synthetic"
    n_users: int = 600
    n_items: int = 400
    n_train: int = 40_000
    n_test: int = 16_000
    target_ctr: float = 0.04
    target_cvr_given_click: float = 0.06
    bias_strength: float = 0.65
    position_bias: float = 0.35
    logit_scale: float = 2.2
    affinity_noise: float = 0.35
    #: Strength of the per-exposure *hidden* confounder ``h`` on the
    #: click logit and the conversion logit.  ``h`` models unobserved
    #: attention/awareness ("users have not been aware of these
    #: unclicked items because of exposure position, display style, and
    #: other factors" -- Section I-C): it raises both the probability of
    #: clicking and of converting, and it is NOT exposed as a feature.
    #: This is what makes ``p(r | x, o=1) != p(r | do(o=1), x)`` and
    #: creates genuine fake negatives that only entire-space causal
    #: methods can correct.
    hidden_confounder_click: float = 1.5
    hidden_confounder_conversion: float = 1.5
    #: Generate post-click micro-behaviour labels (see
    #: ``TARGET_ACTION_GIVEN_CLICK``).
    include_micro_actions: bool = True
    include_wide_features: bool = True
    #: Mean conversion delay in hours (0 disables the delayed-feedback
    #: machinery entirely: no timestamps are emitted and datasets are
    #: bit-identical to pre-delay builds).  When enabled, every
    #: converting click draws an exponential attribution delay whose
    #: scale is *item-dependent* (see ``conversion_delay_item_spread``),
    #: and :meth:`SyntheticScenario.generate` emits per-row
    #: ``exposure_times`` / ``conversion_times``.
    conversion_delay_mean_hours: float = 0.0
    #: Spread of the per-item log-delay-scale.  Crucially the per-item
    #: factor is *correlated with the item's conversion base rate*:
    #: high-CVR items attribute slowly (think considered purchases vs
    #: impulse buys).  That makes censoring missing-not-at-random in
    #: feature space -- a naive model trained on the censored view
    #: learns "slow items convert poorly", which is exactly backwards,
    #: so the delayed-feedback correction has something real to fix.
    conversion_delay_item_spread: float = 0.0
    #: Length of the exposure log's clock in hours; exposures land
    #: uniformly on ``[0, log_span_hours)``.
    log_span_hours: float = 72.0
    seed: int = 2023

    def __post_init__(self) -> None:
        if not 0.0 < self.target_ctr < 1.0:
            raise ValueError("target_ctr must be in (0, 1)")
        if not 0.0 < self.target_cvr_given_click < 1.0:
            raise ValueError("target_cvr_given_click must be in (0, 1)")
        if not 0.0 <= self.bias_strength <= 1.0:
            raise ValueError("bias_strength must be in [0, 1]")
        if min(self.n_users, self.n_items, self.n_train, self.n_test) < 1:
            raise ValueError("population and sample sizes must be positive")
        if self.conversion_delay_mean_hours < 0:
            raise ValueError("conversion_delay_mean_hours must be >= 0")
        if self.conversion_delay_item_spread < 0:
            raise ValueError("conversion_delay_item_spread must be >= 0")
        if not self.log_span_hours > 0:
            raise ValueError("log_span_hours must be > 0")

    @property
    def has_delays(self) -> bool:
        """Whether conversion-delay modelling is enabled."""
        return self.conversion_delay_mean_hours > 0

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """A copy with some fields replaced."""
        return replace(self, **kwargs)


#: Bisection stops once the bracket ``[low, high]`` is narrower than this.
_TOLERANCE = 1e-6
#: Half-width of the Newton-centred bracket that two exact evaluations
#: confirm before the bisection runs.
_BRACKET = 1e-5
#: Each confirming evaluation must clear the target by this much (rate
#: units).  It is far above the worst-case gap between a computed rate
#: and the exact weighted mean (about 50 ulp), so a midpoint outside a
#: confirmed bracket compares with the target as its evaluation would.
_MARGIN = 1e-12
#: Newton steps allowed for the root estimate (4-6 usually converge).
_NEWTON_STEPS = 8
#: The bisection's search range for the intercept.
_LOW, _HIGH = -30.0, 30.0


def calibrate_intercept(
    logits: np.ndarray,
    target_rate: float,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Find ``b`` such that ``mean_w sigmoid(logits + b) == target_rate``.

    The answer is the plain bisection on ``[-30, 30]`` down to a 1e-6
    bracket, bit for bit.  A few safeguarded Newton steps first estimate
    the root; when two exact evaluations confirm the target lies inside
    ``root +- 1e-5`` (with :data:`_MARGIN` to spare), every bisection
    midpoint outside that bracket is decided without evaluating it.
    Otherwise (extreme targets, a root outside ``[-30, 30]``, negative or
    non-finite weights) every midpoint is evaluated.  ``weights``
    (optional) restrict the average to a subpopulation, e.g. the click
    space when calibrating conversion rates.
    """
    logits = np.asarray(logits, dtype=np.float64)
    total = float(logits.size) if weights is None else weights.sum()
    if total <= 0:
        raise ValueError("calibration weights sum to zero")
    buf = np.empty_like(logits)

    def rate(b: float) -> float:
        probs = stable_sigmoid(np.add(logits, b, out=buf), out=buf)
        if weights is not None:
            np.multiply(probs, weights, out=probs)
        return float(probs.sum() / total)

    below, above = _root_bracket(logits, target_rate, weights, total, rate)
    low, high = _LOW, _HIGH
    for _ in range(200):
        mid = 0.5 * (low + high)
        if mid <= below:
            under = True
        elif mid >= above:
            under = False
        else:
            under = rate(mid) < target_rate
        if under:
            low = mid
        else:
            high = mid
        if high - low < _TOLERANCE:
            break
    return 0.5 * (low + high)


def _root_bracket(
    logits: np.ndarray,
    target_rate: float,
    weights: Optional[np.ndarray],
    total: float,
    rate: Callable[[float], float],
) -> Tuple[float, float]:
    """``(below, above)`` with ``rate(b) < target`` for every ``b <= below``
    and ``rate(b) >= target`` for every ``b >= above``.

    Both bounds are exact claims about the computed ``rate``: the exact
    weighted mean is monotone for non-negative weights, and the
    confirming evaluations clear the target by :data:`_MARGIN`, more
    than twice the computed rate's error.  ``(-inf, inf)`` when the
    bracket cannot be confirmed; the bisection then evaluates every
    midpoint.
    """
    unconfirmed = (-math.inf, math.inf)
    if not 0.0 < target_rate < 1.0:
        return unconfirmed
    if weights is not None and not (
        weights.min() >= 0 and 1e-200 < total < math.inf
    ):
        return unconfirmed
    root = _newton_root(logits, target_rate, weights, total)
    below, above = root - _BRACKET, root + _BRACKET
    if rate(below) < target_rate - _MARGIN and rate(above) >= target_rate + _MARGIN:
        return below, above
    return unconfirmed


def _newton_root(
    logits: np.ndarray,
    target_rate: float,
    weights: Optional[np.ndarray],
    total: float,
) -> float:
    """Safeguarded Newton estimate of the calibration root.

    Newton runs on ``log(rate)`` (on ``log(1 - rate)`` for targets above
    one half): near-linear in ``b`` on the side of small mass, so it
    converges in a few steps even for wide logit spreads.  A step that
    leaves the sign-change bracket is replaced by its midpoint.  Only an
    estimate: :func:`_root_bracket` confirms it exactly.
    """
    upper = target_rate > 0.5
    goal = math.log(1.0 - target_rate if upper else target_rate)
    b = math.log(target_rate / (1.0 - target_rate)) - float(
        np.average(logits, weights=weights)
    )
    if not _LOW < b < _HIGH:
        b = 0.0
    low, high = _LOW, _HIGH
    probs = np.empty_like(logits)
    slope = np.empty_like(logits)
    for _ in range(_NEWTON_STEPS):
        stable_sigmoid(np.add(logits, b, out=probs), out=probs)
        np.subtract(1.0, probs, out=slope)
        np.multiply(slope, probs, out=slope)
        if weights is not None:
            np.multiply(probs, weights, out=probs)
            np.multiply(slope, weights, out=slope)
        value = float(probs.sum() / total)
        derivative = float(slope.sum() / total)
        if value < target_rate:
            low = b
        else:
            high = b
        mass = 1.0 - value if upper else value
        nxt = math.nan
        if mass > 0 and derivative > 0:
            step = (math.log(mass) - goal) * mass / derivative
            if abs(step) < 1e-9:
                return b
            nxt = b + step if upper else b - step
        b = nxt if low < nxt < high else 0.5 * (low + high)
    return b


def _quantile_edges(values: np.ndarray, n_buckets: int) -> np.ndarray:
    """Bucket edges at empirical quantiles (n_buckets - 1 cut points)."""
    return np.quantile(values, np.linspace(0, 1, n_buckets + 1)[1:-1])


def _bucketize(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map values to bucket ids using precomputed ``edges``."""
    return np.searchsorted(edges, values, side="right").astype(np.int64)


class SyntheticScenario:
    """A fully specified behaviour model; call :meth:`generate`.

    The scenario object itself is the "world": the online simulator
    (:mod:`repro.simulation`) queries :meth:`true_ctr` / :meth:`true_cvr`
    to roll out user sessions against models under test.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = LATENT_DIM
        # Entry scale d**-0.25 makes dot-product affinities ~N(0, 1), so
        # ``logit_scale`` directly controls logit spread (and therefore
        # achievable AUC and bias magnitude).
        scale = d ** (-0.25)

        # Latent click-affinity factors and an independent second set;
        # conversion affinity mixes the two at the *logit* level with
        # coefficient rho = bias_strength.  rho=0 -> conversions missing
        # completely at random; rho->1 -> users click exactly what they
        # would buy, the strongest possible MNAR selection bias.
        rho = config.bias_strength
        self.user_click = rng.normal(size=(config.n_users, d)) * scale
        self.item_click = rng.normal(size=(config.n_items, d)) * scale
        self.user_indep = rng.normal(size=(config.n_users, d)) * scale
        self.item_indep = rng.normal(size=(config.n_items, d)) * scale
        # Kept for feature engineering: an approximate per-user/item
        # conversion factor (the exact conversion affinity is pairwise).
        self.user_conv = rho * self.user_click + np.sqrt(1 - rho**2) * self.user_indep
        self.item_conv = rho * self.item_click + np.sqrt(1 - rho**2) * self.item_indep

        # Per-user / per-item base rates (heterogeneous activity), with
        # the conversion base rates correlated the same way.
        self.user_click_base = rng.normal(scale=0.5, size=config.n_users)
        self.item_click_base = rng.normal(scale=0.5, size=config.n_items)
        user_base_noise = rng.normal(scale=0.5, size=config.n_users)
        item_base_noise = rng.normal(scale=0.5, size=config.n_items)
        self.user_conv_base = (
            rho * self.user_click_base + np.sqrt(1 - rho**2) * user_base_noise
        ) * 0.8
        self.item_conv_base = (
            rho * self.item_click_base + np.sqrt(1 - rho**2) * item_base_noise
        ) * 0.8

        # Zipf item popularity for exposure sampling.
        ranks = np.arange(1, config.n_items + 1, dtype=np.float64)
        popularity = ranks ** (-ZIPF_EXPONENT)
        self.item_popularity = popularity / popularity.sum()

        # Intercepts are calibrated on a large probe sample, and
        # feature-bucket edges are frozen on the same probe so training
        # and online-serving features share one discretisation.
        self._calibrate()

        # Per-item conversion-delay scales (hours), drawn on a separate
        # RNG stream (seed + 303) so enabling delays never perturbs the
        # main generator stream -- delay-free datasets stay bit-exact.
        # The log-scale mixes the item's conversion base rate (dominant:
        # considered purchases attribute slowly) with independent noise,
        # recentred so the geometric-mean scale equals the configured
        # mean.  With delays disabled the scales are all zero.
        delay_rng = np.random.default_rng(config.seed + 303)
        noise_z = delay_rng.normal(size=config.n_items)
        if config.has_delays:
            base = self.item_conv_base / max(float(self.item_conv_base.std()), 1e-12)
            log_factor = config.conversion_delay_item_spread * (
                0.8 * base + 0.6 * noise_z
            )
            log_factor -= log_factor.mean()
            self.item_delay_scale = config.conversion_delay_mean_hours * np.exp(
                log_factor
            )
        else:
            self.item_delay_scale = np.zeros(config.n_items)

        self.schema: FeatureSchema = paper_like_schema(
            n_users=config.n_users,
            n_items=config.n_items,
            n_positions=POSITION_COUNT,
            include_wide=config.include_wide_features,
        )

    # ------------------------------------------------------------------
    # True behaviour model (oracle)
    # ------------------------------------------------------------------
    def click_affinity(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Latent click affinity (the signal behind the CTR logit)."""
        return np.sum(self.user_click[users] * self.item_click[items], axis=1)

    def _affinities(
        self, users: np.ndarray, items: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(click, conversion)`` affinities from one click-affinity pass.

        Conversion affinity is a rho-mix of click affinity and an
        independent component -- the MNAR correlation, pairwise exact.
        """
        click = self.click_affinity(users, items)
        rho = self.config.bias_strength
        indep = np.sum(self.user_indep[users] * self.item_indep[items], axis=1)
        return click, rho * click + np.sqrt(1 - rho**2) * indep

    def sample_hidden(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the per-exposure hidden confounder ``h ~ N(0, 1)``."""
        return rng.normal(size=n)

    # The raw (uncalibrated) logits take their affinities precomputed, so
    # one affinity pass serves every logit of a probe or a log.  ``hidden``
    # is the unobserved attention confounder; ``None`` evaluates at
    # ``h = 0`` (the feature-conditional median).
    def _click_logit(self, click, users, items, positions, hidden) -> np.ndarray:
        """Click logit for user-item-position triples."""
        base = self.user_click_base[users] + self.item_click_base[items]
        pos_term = -self.config.position_bias * positions
        logit = self.config.logit_scale * click + base + pos_term
        if hidden is not None:
            logit = logit + self.config.hidden_confounder_click * hidden
        return logit

    def _conversion_logit(self, conv, users, items, hidden) -> np.ndarray:
        """Post-click conversion logit.

        Positions do not enter (conversion happens on the detail page,
        after the click), but the hidden attention confounder does --
        an attentive user both clicks more and converts more.
        """
        base = self.user_conv_base[users] + self.item_conv_base[items]
        logit = self.config.logit_scale * conv + base
        if hidden is not None:
            logit = logit + self.config.hidden_confounder_conversion * hidden
        return logit

    def _action_logit(self, click, conv, users, items, hidden) -> np.ndarray:
        """Micro-action (cart/favourite) logit, post-click.

        Actions sit between click and conversion on the behaviour path,
        so their affinity mixes conversion affinity (dominant -- users
        cart what they will buy) with click affinity.
        """
        affinity = 0.7 * conv + 0.3 * click
        base = 0.5 * (self.user_conv_base[users] + self.item_conv_base[items])
        logit = self.config.logit_scale * affinity + base
        if hidden is not None:
            logit = logit + 0.5 * self.config.hidden_confounder_conversion * hidden
        return logit

    def true_action_rate(
        self,
        users: np.ndarray,
        items: np.ndarray,
        hidden: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """True post-click micro-action probability."""
        click, conv = self._affinities(users, items)
        logit = self._action_logit(click, conv, users, items, hidden)
        return stable_sigmoid(logit + self._action_intercept)

    def true_ctr(
        self,
        users: np.ndarray,
        items: np.ndarray,
        positions: np.ndarray,
        hidden: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """True click propensity ``p(o=1 | x, h)`` (``h=0`` when omitted)."""
        click = self.click_affinity(users, items)
        logit = self._click_logit(click, users, items, positions, hidden)
        return stable_sigmoid(logit + self._ctr_intercept)

    def true_cvr(
        self,
        users: np.ndarray,
        items: np.ndarray,
        hidden: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """True post-click conversion probability ``p(r=1 | do(o=1), x, h)``."""
        _, conv = self._affinities(users, items)
        logit = self._conversion_logit(conv, users, items, hidden)
        return stable_sigmoid(logit + self._cvr_intercept)

    # ------------------------------------------------------------------
    # Delayed conversion feedback (oracle delay model)
    # ------------------------------------------------------------------
    def sample_conversion_delays(
        self, items: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw click->attribution delays (hours), exponential per item."""
        if not self.config.has_delays:
            raise ValueError(
                "conversion delays are disabled "
                "(conversion_delay_mean_hours == 0)"
            )
        return rng.exponential(scale=self.item_delay_scale[items])

    def conversion_delay_cdf(
        self, items: np.ndarray, elapsed: np.ndarray
    ) -> np.ndarray:
        """``P(delay <= elapsed)`` per exposure -- the maturation
        probability that the importance-weighting delayed-feedback
        correction divides by (``w = 1 / P(delay <= elapsed)`` on
        observed positives)."""
        if not self.config.has_delays:
            raise ValueError(
                "conversion delays are disabled "
                "(conversion_delay_mean_hours == 0)"
            )
        elapsed = np.maximum(np.asarray(elapsed, dtype=np.float64), 0.0)
        return 1.0 - np.exp(-elapsed / self.item_delay_scale[items])

    # ------------------------------------------------------------------
    def _sample_exposures(
        self, n: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        users = rng.integers(0, self.config.n_users, size=n)
        items = rng.choice(self.config.n_items, size=n, p=self.item_popularity)
        positions = rng.integers(0, POSITION_COUNT, size=n)
        return users, items, positions

    def _calibrate(self) -> None:
        """Calibrate the intercepts and freeze the bucket edges on one
        probe exposure sample.

        Each probe quantity is computed once: both affinities feed the
        three logits and the two affinity buckets.  The click propensity
        overwrites the click logits and each later logit array replaces
        the one before, so at most two probe-sized logit arrays are alive.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 101)
        probe = max(50_000, cfg.n_train)
        users, items, positions = self._sample_exposures(probe, rng)
        hidden = self.sample_hidden(probe, rng)
        click, conv = self._affinities(users, items)
        logits = self._click_logit(click, users, items, positions, hidden)
        self._ctr_intercept = calibrate_intercept(logits, cfg.target_ctr)
        # Calibrate CVR *inside the click space*: weight each probe
        # exposure by its click propensity, which is the expected
        # click-space composition (this is where the hidden confounder
        # enters -- attentive exposures are over-represented in O).
        np.add(logits, self._ctr_intercept, out=logits)
        click_propensity = stable_sigmoid(logits, out=logits)
        logits = self._conversion_logit(conv, users, items, hidden)
        self._cvr_intercept = calibrate_intercept(
            logits, cfg.target_cvr_given_click, weights=click_propensity
        )
        self._action_intercept = 0.0
        if cfg.include_micro_actions:
            logits = self._action_logit(click, conv, users, items, hidden)
            self._action_intercept = calibrate_intercept(
                logits, TARGET_ACTION_GIVEN_CLICK, weights=click_propensity
            )
        # Freeze bucket edges on the probe population.
        probe_rng = np.random.default_rng(cfg.seed + 202)
        noise = cfg.affinity_noise
        self._bucket_edges = {
            "user_segment": _quantile_edges(self.user_click[users, 0], 16),
            "user_activity": _quantile_edges(self.user_click_base[users], 8),
            "item_category": _quantile_edges(self.item_conv[items, 0], 12),
            "item_popularity": _quantile_edges(
                self.item_popularity[items] + 1e-12 * items, 8
            ),
            "click_affinity_bucket": _quantile_edges(
                click + noise * probe_rng.normal(size=probe), 20
            ),
            "conv_affinity_bucket": _quantile_edges(
                conv + noise * probe_rng.normal(size=probe), 20
            ),
        }

    # ------------------------------------------------------------------
    # Feature engineering (what the models are allowed to see)
    # ------------------------------------------------------------------
    def features_for(
        self,
        users: np.ndarray,
        items: np.ndarray,
        positions: np.ndarray,
        rng: np.random.Generator,
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Observable features for arbitrary exposure triples.

        Used both by :meth:`generate` and by the online simulator when
        serving candidate lists; bucket edges are frozen at scenario
        construction so both paths share one discretisation.
        """
        affinities = None
        if self.config.include_wide_features:
            affinities = self._affinities(users, items)
        return self._features(users, items, positions, rng, affinities)

    def _features(self, users, items, positions, rng, affinities):
        """:meth:`features_for` with ``(click, conversion)`` affinities
        precomputed (read only when wide features are on)."""
        cfg = self.config
        noise = cfg.affinity_noise
        edges = self._bucket_edges
        sparse = {
            "user_id": users.astype(np.int64),
            "user_segment": _bucketize(
                self.user_click[users, 0], edges["user_segment"]
            ),
            "user_activity": _bucketize(
                self.user_click_base[users], edges["user_activity"]
            ),
            "item_id": items.astype(np.int64),
            "item_category": _bucketize(
                self.item_conv[items, 0], edges["item_category"]
            ),
            "item_popularity": _bucketize(
                self.item_popularity[items] + 1e-12 * items,
                edges["item_popularity"],
            ),
            "position": positions.astype(np.int64),
            "hour": rng.integers(0, 24, size=len(users)),
        }
        if cfg.include_wide_features:
            click, conv = affinities
            sparse["click_affinity_bucket"] = _bucketize(
                click + noise * rng.normal(size=len(users)),
                edges["click_affinity_bucket"],
            )
            sparse["conv_affinity_bucket"] = _bucketize(
                conv + noise * rng.normal(size=len(users)),
                edges["conv_affinity_bucket"],
            )
        dense = {
            "user_hist_ctr": (
                stable_sigmoid(self.user_click_base[users])
                + 0.05 * rng.normal(size=len(users))
            ),
            "item_hist_cvr": (
                stable_sigmoid(self.item_conv_base[items])
                + 0.05 * rng.normal(size=len(users))
            ),
        }
        return sparse, dense

    # ------------------------------------------------------------------
    def generate(self) -> Tuple[InteractionDataset, InteractionDataset]:
        """Materialise the (train, test) exposure logs."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 7)
        total = cfg.n_train + cfg.n_test
        users, items, positions = self._sample_exposures(total, rng)
        hidden = self.sample_hidden(total, rng)

        click, conv = self._affinities(users, items)
        ctr = self._click_logit(click, users, items, positions, hidden)
        stable_sigmoid(np.add(ctr, self._ctr_intercept, out=ctr), out=ctr)
        cvr = self._conversion_logit(conv, users, items, hidden)
        stable_sigmoid(np.add(cvr, self._cvr_intercept, out=cvr), out=cvr)
        clicks = (rng.random(total) < ctr).astype(np.int64)
        potential = (rng.random(total) < cvr).astype(np.int64)
        observed = clicks * potential

        actions = None
        if cfg.include_micro_actions:
            action_rate = self._action_logit(click, conv, users, items, hidden)
            np.add(action_rate, self._action_intercept, out=action_rate)
            stable_sigmoid(action_rate, out=action_rate)
            actions = clicks * (rng.random(total) < action_rate).astype(np.int64)

        sparse, dense = self._features(users, items, positions, rng, (click, conv))

        # Event timestamps ride a separate RNG stream (seed + 404) so
        # enabling delays leaves every other column bit-identical.
        exposure_times = conversion_times = None
        if cfg.has_delays:
            time_rng = np.random.default_rng(cfg.seed + 404)
            exposure_times = time_rng.uniform(0.0, cfg.log_span_hours, size=total)
            delays = self.sample_conversion_delays(items, time_rng)
            conversion_times = np.where(
                observed == 1, exposure_times + delays, np.nan
            )

        def build(slice_: slice) -> InteractionDataset:
            return InteractionDataset(
                name=cfg.name,
                schema=self.schema,
                sparse={k: v[slice_] for k, v in sparse.items()},
                dense={k: v[slice_] for k, v in dense.items()},
                clicks=clicks[slice_],
                conversions=observed[slice_],
                oracle_ctr=ctr[slice_],
                oracle_cvr=cvr[slice_],
                oracle_conversion=potential[slice_],
                actions=None if actions is None else actions[slice_],
                exposure_times=(
                    None if exposure_times is None else exposure_times[slice_]
                ),
                conversion_times=(
                    None if conversion_times is None else conversion_times[slice_]
                ),
            )

        train = build(slice(0, cfg.n_train))
        test = build(slice(cfg.n_train, total))
        return train, test
