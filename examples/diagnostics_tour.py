"""Production-style diagnostics on a trained CVR model.

Compares a click-space model (naive) against DCMT with the tables an
industry practitioner would pull: decile lift, bias by click
propensity, and post-hoc calibration::

    python examples/diagnostics_tour.py
"""

from repro.data import load_scenario
from repro.metrics import expected_calibration_error
from repro.metrics.diagnostics import (
    bias_by_propensity,
    decile_lift_table,
    render_bucket_table,
)
from repro.models import ModelConfig, build_model
from repro.training import TrainConfig, fit_model
from repro.training.calibration import PlattScaler


def main() -> None:
    train, test, _ = load_scenario("ae_es", n_train=30_000, n_test=12_000)
    config = ModelConfig(embedding_dim=8, hidden_sizes=(32, 16))
    tconfig = TrainConfig(epochs=5, learning_rate=0.003)

    models = {}
    for name in ("naive", "dcmt"):
        model = build_model(name, train.schema, config)
        fit_model(model, train, tconfig)
        models[name] = model
        print(f"trained {name}")

    for name, model in models.items():
        preds = model.predict(test.full_batch())
        print(f"\n================ {name} ================")
        print(
            render_bucket_table(
                decile_lift_table(test.conversions, preds.cvr),
                title=f"{name}: decile lift (observed conversions over D)",
            )
        )
        print()
        print(
            render_bucket_table(
                bias_by_propensity(
                    test.oracle_conversion, preds.cvr, test.oracle_ctr
                ),
                title=(
                    f"{name}: bias vs potential outcomes, grouped by true "
                    f"click propensity (low buckets = the region O never saw)"
                ),
            )
        )

        # Post-hoc calibration on a held-out slice of the training log.
        scaler = PlattScaler().fit(
            model.predict(train.full_batch()).cvr, train.conversions
        )
        calibrated = scaler.transform(preds.cvr)
        print(
            f"\n{name}: ECE raw={expected_calibration_error(test.conversions, preds.cvr):.4f} "
            f"-> calibrated={expected_calibration_error(test.conversions, calibrated):.4f}"
        )


if __name__ == "__main__":
    main()
