"""Extension bench: the paper's future work on counterfactual strategies.

"In the future, we plan to study the effect of different counterfactual
strategies on our DCMT's performance." (Section VI) -- this bench runs
that study: the paper's mirror strategy vs label smoothing,
self-imputation, and confidence gating of the N* supervision.
"""

from benchmarks.conftest import run_once
from repro.core.dcmt import DCMT
from repro.core.strategies import STRATEGIES
from repro.data.synthetic import SyntheticScenario
from repro.metrics.ranking import auc
from repro.training import fit_model


def test_counterfactual_strategies(benchmark, bench_config):
    scenario = SyntheticScenario(bench_config.scenario("ae_es"))
    train, test = scenario.generate()

    def run():
        results = {}
        for strategy in STRATEGIES:
            seed = bench_config.seeds[0]
            model = DCMT(
                train.schema,
                bench_config.model_config(seed),
                cf_strategy=strategy,
            )
            fit_model(model, train, bench_config.train_config(seed))
            preds = model.predict(test.full_batch())
            results[strategy] = {
                "cvr_auc": auc(test.conversions, preds.cvr),
                "cvr_auc_do": auc(test.oracle_conversion, preds.cvr),
                "mean_pred": float(preds.cvr.mean()),
            }
        return results

    results = run_once(benchmark, run)
    print("\nCounterfactual strategy study (AE-ES):")
    for strategy, metrics in results.items():
        print(
            f"  {strategy:18s} CVR AUC={metrics['cvr_auc']:.4f} "
            f"do-AUC={metrics['cvr_auc_do']:.4f} "
            f"mean pred={metrics['mean_pred']:.4f}"
        )

    # All strategies produce working models in a competitive band.
    aucs = [m["cvr_auc"] for m in results.values()]
    assert all(a > 0.5 for a in aucs)
    assert max(aucs) - min(aucs) < 0.2
