"""Ablation benches beyond the paper (DESIGN.md section 6).

Sweeps the design choices the paper fixes silently: SNIPS
self-normalisation on/off, propensity clipping floors, and learned vs
oracle propensities.
"""

from benchmarks.conftest import run_once
from repro.core.dcmt import DCMT
from repro.data.synthetic import SyntheticScenario
from repro.metrics.ranking import auc
from repro.training import fit_model


def _train_score(scenario, config, **dcmt_kwargs):
    train, test = scenario.generate()
    seed = config.seeds[0]
    model = DCMT(train.schema, config.model_config(seed), **dcmt_kwargs)
    fit_model(model, train, config.train_config(seed))
    preds = model.predict(test.full_batch())
    return auc(test.conversions, preds.cvr)


def test_ablation_snips(benchmark, bench_config):
    """SNIPS on/off: self-normalisation must not be catastrophic either way."""
    scenario = SyntheticScenario(bench_config.scenario("ae_es"))

    def run():
        return {
            "snips": _train_score(scenario, bench_config, use_snips=True),
            "plain_ipw": _train_score(scenario, bench_config, use_snips=False),
        }

    scores = run_once(benchmark, run)
    print(f"\nSNIPS ablation: {scores}")
    assert all(0.5 < s < 1.0 for s in scores.values())


def test_ablation_propensity_floor(benchmark, bench_config):
    """Clipping floor sweep: extreme floors degrade gracefully."""
    scenario = SyntheticScenario(bench_config.scenario("ae_es"))

    def run():
        results = {}
        for floor in (0.01, 0.05, 0.2):
            config = bench_config.model_config(bench_config.seeds[0])
            model = DCMT(
                scenario.schema,
                config.with_overrides(propensity_floor=floor),
            )
            train, test = scenario.generate()
            fit_model(model, train, bench_config.train_config(0))
            preds = model.predict(test.full_batch())
            results[floor] = auc(test.conversions, preds.cvr)
        return results

    scores = run_once(benchmark, run)
    print(f"\npropensity floor ablation: {scores}")
    values = list(scores.values())
    assert max(values) - min(values) < 0.15


def test_ablation_variants(benchmark, bench_config):
    """Full vs PD vs CF (the paper's Result 2 at benchmark scale)."""
    scenario = SyntheticScenario(bench_config.scenario("ae_es"))

    def run():
        return {
            variant: _train_score(scenario, bench_config, variant=variant)
            for variant in ("full", "pd", "cf")
        }

    scores = run_once(benchmark, run)
    print(f"\nvariant ablation: {scores}")
    # All variants are in a competitive band; the completed model is
    # not dominated by more than noise.
    assert scores["full"] > min(scores["pd"], scores["cf"]) - 0.03
