"""ModelRegistry: content addressing, atomicity, lineage, rollback."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.lifecycle import (
    CANDIDATE,
    CHAMPION,
    REJECTED,
    RETIRED,
    ModelRegistry,
    hash_train_config,
    model_digest,
    param_digest,
)
from repro.reliability.errors import PromotionBlockedError, RegistryCorruptError
from repro.training import TrainConfig, create_engine
from repro.training.callbacks import Callback, ValidationCallback

pytestmark = pytest.mark.lifecycle


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


class TestDigests:
    def test_param_digest_is_order_independent(self):
        a = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        b = dict(reversed(list(a.items())))
        assert param_digest(a) == param_digest(b)

    def test_param_digest_sees_single_bit_flips(self):
        state = {"w": np.arange(6.0).reshape(2, 3)}
        before = param_digest(state)
        state["w"].view(np.uint8).flat[0] ^= 1  # lowest mantissa bit
        assert param_digest(state) != before

    def test_param_digest_distinguishes_shape_and_dtype(self):
        flat = {"w": np.zeros(6)}
        square = {"w": np.zeros((2, 3))}
        assert param_digest(flat) != param_digest(square)
        f32 = {"w": np.zeros(6, dtype=np.float32)}
        assert param_digest(flat) != param_digest(f32)

    def test_train_config_hash_stable_and_discriminating(self):
        a = TrainConfig(epochs=2, seed=0)
        assert hash_train_config(a) == hash_train_config(TrainConfig(epochs=2, seed=0))
        assert hash_train_config(a) != hash_train_config(TrainConfig(epochs=3, seed=0))
        assert hash_train_config(None) == ""


class TestPublish:
    def test_publish_creates_candidate_with_lineage(
        self, registry, trained_model, train_config
    ):
        entry = registry.publish(
            trained_model, train_config=train_config, note="first"
        )
        assert entry.version == "v0001"
        assert entry.status == CANDIDATE
        assert entry.parent is None
        assert entry.params_digest == model_digest(trained_model)
        assert entry.train_config_hash == hash_train_config(train_config)
        assert registry.blob_path(entry.params_digest).exists()
        # publication is durable: a fresh handle sees the same entry
        reopened = ModelRegistry(registry.directory)
        assert reopened.get("v0001").params_digest == entry.params_digest

    def test_parent_defaults_to_current_champion(
        self, registry, trained_model, clone_model
    ):
        first = registry.publish(trained_model)
        registry.promote(first.version)
        second = registry.publish(clone_model())
        assert second.parent == first.version
        chain = [e.version for e in registry.lineage(second.version)]
        assert chain == [second.version, first.version]

    def test_identical_parameters_share_one_blob(
        self, registry, trained_model, clone_model
    ):
        a = registry.publish(trained_model)
        b = registry.publish(clone_model())
        assert a.params_digest == b.params_digest
        assert a.version != b.version
        blobs = list(registry.blob_dir.glob("*.npz"))
        assert len(blobs) == 1

    def test_unknown_parent_is_refused(self, registry, trained_model):
        with pytest.raises(KeyError):
            registry.publish(trained_model, parent="v9999")

    def test_kill_between_blob_and_manifest_leaves_registry_unchanged(
        self, registry, trained_model, clone_model, monkeypatch
    ):
        champion = registry.publish(trained_model)
        registry.promote(champion.version)

        # the "kill": manifest write raises after the blob landed
        def boom():
            raise KeyboardInterrupt("kill -9 mid-publish")

        monkeypatch.setattr(registry, "_write_manifest", boom)
        victim = clone_model()
        from tests.lifecycle.conftest import perturb

        perturb(victim, 0.05, seed=3)
        with pytest.raises(KeyboardInterrupt):
            registry.publish(victim)
        monkeypatch.undo()
        # survivor process reopens the directory: old state, loadable
        survivor = ModelRegistry(registry.directory)
        assert [e.version for e in survivor.versions()] == [champion.version]
        assert survivor.champion.version == champion.version
        report = survivor.fsck()
        assert len(report["orphaned"]) == 1  # the stranded blob is swept
        assert report["corrupt"] == []


class TestPromotionStateMachine:
    def test_promote_retires_prior_champion(
        self, registry, trained_model, clone_model
    ):
        first = registry.publish(trained_model)
        registry.promote(first.version)
        second = registry.publish(clone_model())
        registry.promote(second.version)
        assert registry.champion.version == second.version
        assert registry.get(first.version).status == RETIRED
        assert registry.get(second.version).status == CHAMPION

    def test_rejected_version_cannot_be_promoted(self, registry, trained_model):
        entry = registry.publish(trained_model)
        registry.reject(entry.version, "gate failure")
        assert registry.get(entry.version).status == REJECTED
        with pytest.raises(PromotionBlockedError, match="rejected"):
            registry.promote(entry.version)

    def test_serving_champion_cannot_be_rejected(self, registry, trained_model):
        entry = registry.publish(trained_model)
        registry.promote(entry.version)
        with pytest.raises(PromotionBlockedError, match="champion"):
            registry.reject(entry.version, "nope")

    def test_corrupt_blob_blocks_promotion(self, registry, trained_model):
        entry = registry.publish(trained_model)
        blob = registry.blob_path(entry.params_digest)
        raw = bytearray(blob.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        blob.write_bytes(bytes(raw))
        with pytest.raises(PromotionBlockedError):
            registry.promote(entry.version)
        assert registry.champion is None

    def test_load_model_verifies_digest(self, registry, trained_model, factory):
        entry = registry.publish(trained_model)
        loaded = registry.load_model(entry.version, factory)
        assert model_digest(loaded) == entry.params_digest
        expected = trained_model.state_dict()
        for name, array in loaded.state_dict().items():
            np.testing.assert_array_equal(array, expected[name])

    def test_load_model_returns_eval_mode_model(
        self, registry, trained_model, factory, world, train_config
    ):
        """A published model loads in eval mode; a fit from it trains in
        training mode and hands it back in eval mode."""
        entry = registry.publish(trained_model)
        loaded = registry.load_model(entry.version, factory)
        assert not any(m.training for m in loaded.modules())

        modes = []

        class ModeProbe(Callback):
            def on_batch_start(self, ctx):
                modes.append(all(m.training for m in ctx.model.modules()))

        # Two epochs, so the second runs after validation's predict.
        train, test, _ = world
        engine = create_engine(loaded, replace(train_config, epochs=2))
        history = engine.fit(
            train, validation=test, callbacks=[ValidationCallback(), ModeProbe()]
        )
        assert len(history.validation_cvr_auc) == 2
        assert modes and all(modes)
        assert engine.plan_runner.stats.replays > 0
        assert not any(m.training for m in loaded.modules())


class TestRollback:
    def test_rollback_restores_previous_champion_bit_exactly(
        self, registry, trained_model, clone_model, factory
    ):
        from tests.lifecycle.conftest import perturb

        first = registry.publish(trained_model)
        registry.promote(first.version)
        second = registry.publish(perturb(clone_model(), 0.05, seed=1))
        registry.promote(second.version)

        restored_entry = registry.rollback()
        assert restored_entry.version == first.version
        assert registry.champion.version == first.version
        assert registry.get(second.version).status == RETIRED
        restored = registry.load_champion(factory)
        assert model_digest(restored) == model_digest(trained_model)

    def test_rollback_to_explicit_version(
        self, registry, trained_model, clone_model
    ):
        from tests.lifecycle.conftest import perturb

        versions = []
        for seed in range(3):
            entry = registry.publish(perturb(clone_model(), 0.02, seed=seed))
            registry.promote(entry.version)
            versions.append(entry.version)
        entry = registry.rollback(versions[0], reason="skip one back")
        assert entry.version == versions[0]
        assert registry.champion.version == versions[0]

    def test_rollback_without_history_is_refused(self, registry, trained_model):
        entry = registry.publish(trained_model)
        registry.promote(entry.version)
        with pytest.raises(PromotionBlockedError, match="no prior champion"):
            registry.rollback()

    def test_rollback_refuses_rejected_target(
        self, registry, trained_model, clone_model
    ):
        bad = registry.publish(trained_model)
        registry.reject(bad.version, "gate failure")
        good = registry.publish(clone_model())
        registry.promote(good.version)
        with pytest.raises(PromotionBlockedError, match="rejected"):
            registry.rollback(bad.version)


class TestDurability:
    def test_events_form_an_append_only_audit_trail(
        self, registry, trained_model, clone_model
    ):
        first = registry.publish(trained_model, note="initial")
        registry.promote(first.version, "bootstrap")
        second = registry.publish(clone_model())
        registry.reject(second.version, "canary demotion")
        actions = [(e.action, e.version) for e in registry.events()]
        assert actions == [
            ("publish", first.version),
            ("promote", first.version),
            ("publish", second.version),
            ("reject", second.version),
        ]
        assert [e.sequence for e in registry.events()] == [1, 2, 3, 4]

    def test_unreadable_manifest_raises_registry_corrupt(
        self, registry, trained_model
    ):
        registry.publish(trained_model)
        registry.manifest_path.write_text("{ not json")
        with pytest.raises(RegistryCorruptError, match="unreadable"):
            ModelRegistry(registry.directory)

    def test_newer_manifest_version_is_refused(self, registry, trained_model):
        registry.publish(trained_model)
        manifest = json.loads(registry.manifest_path.read_text())
        manifest["manifest_version"] = 99
        registry.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(RegistryCorruptError, match="newer"):
            ModelRegistry(registry.directory)

    def test_fsck_reports_corrupt_versions_without_deleting(
        self, registry, trained_model
    ):
        entry = registry.publish(trained_model)
        blob = registry.blob_path(entry.params_digest)
        blob.write_bytes(blob.read_bytes()[:40])
        report = registry.fsck()
        assert report["corrupt"] == [entry.version]
        assert blob.exists()

    def test_fsck_sweeps_stranded_manifest_tmp(self, registry, trained_model):
        registry.publish(trained_model)
        tmp = registry.manifest_path.with_name("registry.json.tmp")
        tmp.write_text("torn write")
        report = registry.fsck()
        assert "registry.json.tmp" in report["orphaned"]
        assert not tmp.exists()
