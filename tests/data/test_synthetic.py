"""Tests for the synthetic behaviour-model generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.scenarios import SCENARIO_PRESETS, load_scenario, scenario_config
from repro.data.stats import selection_bias_summary
from repro.data.synthetic import (
    ScenarioConfig,
    SyntheticScenario,
    calibrate_intercept,
)


def small_config(**overrides):
    base = dict(
        name="unit",
        n_users=80,
        n_items=60,
        n_train=6000,
        n_test=2000,
        target_ctr=0.05,
        target_cvr_given_click=0.2,
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfigValidation:
    def test_bad_ctr(self):
        with pytest.raises(ValueError):
            small_config(target_ctr=0.0)

    def test_bad_cvr(self):
        with pytest.raises(ValueError):
            small_config(target_cvr_given_click=1.0)

    def test_bad_bias(self):
        with pytest.raises(ValueError):
            small_config(bias_strength=1.5)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            small_config(n_train=0)

    def test_with_overrides(self):
        cfg = small_config().with_overrides(n_train=123)
        assert cfg.n_train == 123
        assert cfg.n_users == 80


class TestCalibration:
    def test_calibrate_intercept_hits_target(self, rng):
        logits = rng.normal(size=50_000)
        b = calibrate_intercept(logits, 0.03)
        achieved = (1.0 / (1.0 + np.exp(-(logits + b)))).mean()
        assert abs(achieved - 0.03) < 1e-4

    def test_calibrate_with_weights(self, rng):
        logits = rng.normal(size=50_000)
        weights = rng.random(50_000)
        b = calibrate_intercept(logits, 0.4, weights=weights)
        probs = 1.0 / (1.0 + np.exp(-(logits + b)))
        achieved = (weights * probs).sum() / weights.sum()
        assert abs(achieved - 0.4) < 1e-4

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            calibrate_intercept(np.zeros(5), 0.1, weights=np.zeros(5))

    def test_generated_ctr_near_target(self):
        scenario = SyntheticScenario(small_config(n_train=30_000))
        train, _ = scenario.generate()
        assert abs(train.ctr - 0.05) < 0.01

    def test_generated_cvr_near_target(self):
        scenario = SyntheticScenario(small_config(n_train=30_000))
        train, _ = scenario.generate()
        assert abs(train.cvr_given_click - 0.2) < 0.06


class TestGeneratedStructure:
    def test_invariant_conversion_inside_clicks(self):
        train, test, _ = _generate_small()
        for ds in (train, test):
            assert not np.any((ds.conversions == 1) & (ds.clicks == 0))

    def test_oracle_columns_present(self):
        train, _, _ = _generate_small()
        assert train.has_oracle
        assert np.all((train.oracle_ctr > 0) & (train.oracle_ctr < 1))
        assert np.all((train.oracle_cvr > 0) & (train.oracle_cvr < 1))

    def test_schema_matches_columns(self):
        train, _, _ = _generate_small()
        train.validate()  # raises on schema violations

    def test_deterministic_given_seed(self):
        a_train, _, _ = _generate_small(seed=9)
        b_train, _, _ = _generate_small(seed=9)
        assert np.array_equal(a_train.clicks, b_train.clicks)
        assert np.array_equal(
            a_train.sparse["user_id"], b_train.sparse["user_id"]
        )

    def test_different_seeds_differ(self):
        a_train, _, _ = _generate_small(seed=1)
        b_train, _, _ = _generate_small(seed=2)
        assert not np.array_equal(a_train.clicks, b_train.clicks)

    def test_train_test_sizes(self):
        train, test, _ = _generate_small()
        assert len(train) == 6000
        assert len(test) == 2000


class TestSelectionBias:
    def test_bias_increases_with_rho(self):
        """With the hidden confounder off, the O/D CVR gap must grow
        with bias_strength -- that knob *is* the affinity-level MNAR
        mechanism."""
        gaps = []
        for rho in (0.0, 0.5, 0.95):
            scenario = SyntheticScenario(
                small_config(
                    bias_strength=rho,
                    n_train=30_000,
                    hidden_confounder_click=0.0,
                    hidden_confounder_conversion=0.0,
                )
            )
            train, _ = scenario.generate()
            summary = selection_bias_summary(train)
            gaps.append(summary["avg_cvr_O"] - summary["avg_cvr_D"])
        assert gaps[0] < gaps[1] < gaps[2]
        assert abs(gaps[0]) < 0.03  # rho=0 is (nearly) missing at random

    def test_hidden_confounder_creates_conditional_bias(self):
        """The hidden confounder shifts the O/D gap even at rho=0: the
        missingness depends on the (unobserved) outcome driver, which is
        what makes p(r|x,o=1) != p(r|do(o=1),x)."""
        base = dict(bias_strength=0.0, n_train=30_000)
        off = SyntheticScenario(
            small_config(
                hidden_confounder_click=0.0,
                hidden_confounder_conversion=0.0,
                **base,
            )
        )
        on = SyntheticScenario(
            small_config(
                hidden_confounder_click=2.5,
                hidden_confounder_conversion=2.5,
                **base,
            )
        )
        gap_off = _od_gap(off)
        gap_on = _od_gap(on)
        assert gap_on > gap_off + 0.02

    def test_position_is_instrument(self):
        """Positions shift CTR but not the conversion logit."""
        scenario = SyntheticScenario(small_config())
        users = np.arange(50) % scenario.config.n_users
        items = np.arange(50) % scenario.config.n_items
        front = scenario.true_ctr(users, items, np.zeros(50, dtype=int))
        back = scenario.true_ctr(users, items, np.full(50, 9))
        assert np.all(front > back)
        assert np.allclose(
            scenario.true_cvr(users, items), scenario.true_cvr(users, items)
        )


class TestPresets:
    def test_all_presets_construct(self):
        for name in SCENARIO_PRESETS:
            cfg = scenario_config(name, n_train=2000, n_test=500)
            SyntheticScenario(cfg)

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="ae_es"):
            scenario_config("nope")

    def test_load_scenario_ctr_matches_paper_rate(self):
        train, _, _ = load_scenario("ae_es", n_train=20_000, n_test=1000)
        target = SCENARIO_PRESETS["ae_es"].target_ctr
        assert abs(train.ctr - target) < 0.01

    def test_alipay_extreme_bias(self):
        train, _, _ = load_scenario("alipay_search", n_train=20_000, n_test=1000)
        summary = selection_bias_summary(train)
        # Fig. 7 phenomenon: posterior CVR over O far above over D.
        assert summary["avg_cvr_O"] > 2.5 * summary["avg_cvr_D"]


@settings(max_examples=10, deadline=None)
@given(
    rho=st.floats(min_value=0.0, max_value=1.0),
    ctr=st.floats(min_value=0.02, max_value=0.3),
)
def test_property_calibration_and_invariants(rho, ctr):
    """Any (rho, ctr) combination calibrates and respects invariants."""
    scenario = SyntheticScenario(
        ScenarioConfig(
            name="prop",
            n_users=50,
            n_items=40,
            n_train=8000,
            n_test=500,
            target_ctr=ctr,
            target_cvr_given_click=0.15,
            bias_strength=rho,
            seed=3,
        )
    )
    train, _ = scenario.generate()
    assert abs(train.ctr - ctr) < 0.05
    assert not np.any((train.conversions == 1) & (train.clicks == 0))
    clicked = train.clicks == 1
    assert np.array_equal(
        train.oracle_conversion[clicked], train.conversions[clicked]
    )


def _od_gap(scenario):
    train, _ = scenario.generate()
    summary = selection_bias_summary(train)
    return summary["avg_cvr_O"] - summary["avg_cvr_D"]


def _generate_small(seed=5):
    scenario = SyntheticScenario(small_config(seed=seed))
    train, test = scenario.generate()
    return train, test, scenario
