"""Tests for the A/B test harness."""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.simulation.ab_test import ABTest, ABTestConfig, BucketDay


@pytest.fixture(scope="module")
def world():
    train, _, scenario = load_scenario(
        "alipay_search", n_users=60, n_items=80, n_train=3000, n_test=500
    )
    config = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
    models = {
        "mmoe": build_model("mmoe", train.schema, config),
        "dcmt": build_model("dcmt", train.schema, config),
    }
    return scenario, models


@pytest.fixture(scope="module")
def result(world):
    scenario, models = world
    ab = ABTest(
        models,
        scenario,
        base_bucket="mmoe",
        config=ABTestConfig(days=2, page_views_per_day=120, seed=0),
    )
    return ab.run()


class TestConfigValidation:
    def test_bad_days(self):
        with pytest.raises(ValueError):
            ABTestConfig(days=0)

    def test_page_bigger_than_pool(self):
        with pytest.raises(ValueError):
            ABTestConfig(candidates_per_page=5, page_size=10)

    def test_topk_bigger_than_page(self):
        with pytest.raises(ValueError):
            ABTestConfig(page_size=4)

    def test_unknown_base_bucket(self, world):
        scenario, models = world
        with pytest.raises(KeyError):
            ABTest(models, scenario, base_bucket="nope")

    def test_single_bucket_rejected(self, world):
        scenario, models = world
        with pytest.raises(ValueError):
            ABTest({"only": models["mmoe"]}, scenario, base_bucket="only")

    def test_unknown_assignment_rejected(self):
        with pytest.raises(ValueError, match="assignment"):
            ABTestConfig(assignment="alphabetical")


class TestHashAssignment:
    def test_hash_buckets_are_disjoint_exhaustive_and_stable(self, world):
        scenario, models = world
        config = ABTestConfig(assignment="hash", seed=3)
        ab = ABTest(models, scenario, base_bucket="mmoe", config=config)
        again = ABTest(models, scenario, base_bucket="mmoe", config=config)
        all_users = np.concatenate(list(ab._bucket_users.values()))
        assert len(all_users) == scenario.config.n_users
        assert len(np.unique(all_users)) == scenario.config.n_users
        for name in models:
            np.testing.assert_array_equal(
                ab._bucket_users[name], again._bucket_users[name]
            )

    def test_hash_split_differs_from_round_robin(self, world):
        scenario, models = world
        hashed = ABTest(
            models,
            scenario,
            base_bucket="mmoe",
            config=ABTestConfig(assignment="hash", seed=0),
        )
        modulo = ABTest(models, scenario, base_bucket="mmoe")
        assert not np.array_equal(
            hashed._bucket_users["mmoe"], modulo._bucket_users["mmoe"]
        )

    def test_salt_reshuffles_the_split(self, world):
        scenario, models = world
        splits = [
            ABTest(
                models,
                scenario,
                base_bucket="mmoe",
                config=ABTestConfig(assignment="hash", seed=seed),
            )._bucket_users["dcmt"]
            for seed in (0, 1)
        ]
        assert not np.array_equal(splits[0], splits[1])


class TestBucketDay:
    def test_rates(self):
        day = BucketDay(
            page_views=100,
            impressions=1000,
            top_impressions=500,
            clicks=400,
            conversions=100,
            top_conversions=80,
        )
        assert day.rate("pv_ctr") == 0.4
        assert day.rate("pv_cvr") == 0.1
        assert day.rate("top5_pv_cvr") == 0.16


class TestABTestRun:
    def test_counts_structure(self, result):
        assert set(result.days) == {"mmoe", "dcmt"}
        for bucket_days in result.days.values():
            assert len(bucket_days) == 2
            for day in bucket_days:
                assert day.page_views == 120
                assert day.impressions == 120 * 10
                assert 0 <= day.clicks <= day.impressions
                assert day.top_conversions <= day.conversions <= day.clicks

    def test_day1_logs_present(self, result):
        for name in ("mmoe", "dcmt"):
            preds = result.day1_cvr_predictions[name]
            # one prediction per impression on day 1
            assert len(preds) == 120 * 10
            assert np.all((preds >= 0) & (preds <= 1))

    def test_lifts_computable(self, result):
        lift = result.overall_lift("dcmt", "pv_cvr")
        assert np.isfinite(lift.lift)
        daily = result.daily_lift("dcmt", "pv_cvr", 0)
        assert np.isfinite(daily.p_value)

    def test_posterior_cvr_spaces(self, result):
        d = result.posterior_cvr("D")
        o = result.posterior_cvr("O")
        n = result.posterior_cvr("N")
        assert 0 < d < 1
        # the alipay world has a strong selection gap
        assert o > d > n

    def test_posterior_invalid_space(self, result):
        with pytest.raises(ValueError):
            result.posterior_cvr("Q")

    def test_buckets_get_disjoint_users(self, world):
        scenario, models = world
        ab = ABTest(models, scenario, base_bucket="mmoe")
        users_a = set(ab._bucket_users["mmoe"].tolist())
        users_b = set(ab._bucket_users["dcmt"].tolist())
        assert users_a.isdisjoint(users_b)
        assert len(users_a) + len(users_b) == scenario.config.n_users

    def test_deterministic_given_seed(self, world):
        scenario, models = world
        def run():
            ab = ABTest(
                models,
                scenario,
                base_bucket="mmoe",
                config=ABTestConfig(days=1, page_views_per_day=50, seed=9),
            )
            out = ab.run()
            return out.days["dcmt"][0].clicks
        assert run() == run()
