"""The lifecycle chaos drill: the PR's acceptance criteria, end to end.

Seeded and clock-injected throughout; run twice, the whole transcript
of lifecycle decisions is identical.  The drill proves:

* a candidate that regresses AUC, drifts at serving time, or emits
  NaN is **never** promoted -- the prior champion keeps serving;
* ``rollback(version)`` restores a champion whose loaded parameters
  hash-match the registry entry bit-exactly;
* a kill at any point during publish or promote leaves the registry
  loadable with the prior champion serving (at worst an orphaned blob,
  swept by ``fsck``).
"""

import numpy as np
import pytest

from repro.lifecycle import (
    CHAMPION,
    REJECTED,
    CanaryPolicy,
    GatePolicy,
    ModelLifecycleManager,
    ModelRegistry,
    PromotionGate,
    model_digest,
)
from repro.reliability.drift import DriftReference, DriftThresholds
from repro.reliability.errors import PromotionBlockedError
from repro.simulation.feedback import FeedbackConfig, FeedbackLoopExperiment

from tests.lifecycle.conftest import perturb

pytestmark = pytest.mark.lifecycle


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def lax_gate():
    """A gate that only the canary's drift sentinel backstops.

    Metric-regression and shadow-drift bounds are opened wide so a
    drifting-but-plausible candidate reaches the canary, where the
    sentinel frozen on the champion's reference must catch it.
    """
    return PromotionGate(
        GatePolicy(
            max_auc_regression=1.0,
            max_ece_increase=1.0,
            propensity_floor=0.0,
            max_collapsed_fraction=1.0,
            drift=DriftThresholds(psi_trip=1e9, ks_trip=1.0, min_samples=1),
        )
    )


def run_drill(root, world, factory, clone_model, trained_model, train_config):
    """One full scripted drill; returns (manager, transcript, clock)."""
    train, test, scenario = world
    clock = FakeClock()
    manager = ModelLifecycleManager(
        ModelRegistry(root),
        factory,
        gate=lax_gate(),
        canary_policy=CanaryPolicy(traffic_fraction=0.5, min_requests=20),
    )
    reference = DriftReference.capture(trained_model, train, seed=0)

    # 1. bootstrap
    manager.submit(
        trained_model, test, train_config=train_config,
        reference=reference, note="initial train",
    )

    # 2. clean retrain: gate -> canary -> promote
    manager.submit(
        clone_model(), test, train_config=train_config,
        reference=reference, note="clean retrain",
    )
    rollout = manager.build_canary(scenario, page_size=6, clock=clock)
    rng = np.random.default_rng(0)
    for _ in range(120):
        clock.now += 0.01
        user = int(rng.integers(0, 40))
        candidates = rng.choice(50, size=12, replace=False)
        rollout.serve_page(user, candidates, rng)
    manager.conclude_canary(rollout)

    # 3. NaN candidate: rejected at the gate
    poisoned = clone_model()
    poisoned.parameters()[0].data[...] = np.nan
    manager.submit(poisoned, test, train_config=train_config, note="poisoned")

    # 4. regressing candidate: rejected by the default-strictness gate
    strict = ModelLifecycleManager(
        manager.registry, factory, canary_policy=manager.canary_policy
    )
    strict.submit(
        perturb(clone_model(), 2.0, seed=7), test,
        train_config=train_config, note="regressing retrain",
    )
    manager.decisions.extend(strict.decisions)

    # 5. drifting candidate: passes the lax gate, demoted by the canary
    #    sentinel frozen on the champion's training reference
    manager.submit(
        perturb(clone_model(), 1.5, seed=5), test,
        train_config=train_config, note="drifting retrain",
    )
    if manager.staged_version is not None:
        rollout = manager.build_canary(scenario, page_size=6, clock=clock)
        rng = np.random.default_rng(1)
        for _ in range(120):
            clock.now += 0.01
            user = int(rng.integers(0, 40))
            candidates = rng.choice(50, size=12, replace=False)
            rollout.serve_page(user, candidates, rng)
        manager.conclude_canary(rollout)

    # 6. operator rollback to the original champion
    manager.rollback(reason="drill rollback")

    transcript = [(d.version, d.action, d.reason) for d in manager.decisions]
    return manager, transcript


class TestChaosDrill:
    @pytest.fixture
    def drill(self, tmp_path, world, factory, clone_model, trained_model, train_config):
        return run_drill(
            tmp_path / "a", world, factory, clone_model, trained_model, train_config
        )

    def test_bad_candidates_are_never_promoted(self, drill):
        manager, transcript = drill
        actions = {v: a for v, a, _ in transcript}
        # v0001 bootstraps, v0002 is the one clean promotion
        assert actions["v0001"] == "rollback"  # final action wins the dict
        promoted = [v for v, a, _ in transcript if a in ("bootstrap", "promote")]
        assert promoted == ["v0001", "v0002"]
        # poisoned, regressing, and drifting candidates all died
        rejected = {
            v: a for v, a, _ in transcript if a in ("reject", "demote")
        }
        assert set(rejected) == {"v0003", "v0004", "v0005"}
        for version in rejected:
            assert manager.registry.get(version).status == REJECTED

    def test_drift_is_caught_by_the_canary_not_the_lax_gate(self, drill):
        manager, transcript = drill
        drifting = [(a, r) for v, a, r in transcript if v == "v0005"]
        # it reached the canary (staged), then the sentinel demoted it
        assert drifting[0][0] == "stage"
        assert drifting[-1][0] == "demote"
        assert "drift" in drifting[-1][1]

    def test_rollback_restores_hash_matching_champion(self, drill):
        manager, transcript = drill
        assert transcript[-1][1] == "rollback"
        entry = manager.champion
        assert entry.version == "v0001"
        assert entry.status == CHAMPION
        restored = manager.champion_model()
        assert model_digest(restored) == entry.params_digest
        # and the displaced champion is recoverable too, bit-exactly
        displaced = manager.registry.get("v0002")
        reloaded = manager.registry.load_model(
            "v0002", manager.model_factory
        )
        assert model_digest(reloaded) == displaced.params_digest

    def test_drill_is_deterministic_end_to_end(
        self, tmp_path, world, factory, clone_model, trained_model, train_config
    ):
        _, first = run_drill(
            tmp_path / "a", world, factory, clone_model, trained_model, train_config
        )
        _, second = run_drill(
            tmp_path / "b", world, factory, clone_model, trained_model, train_config
        )
        assert first == second


class TestKillDuringPublishAndPromote:
    """A kill at any point leaves the registry loadable, prior champion serving."""

    @pytest.fixture
    def seeded_registry(self, tmp_path, trained_model):
        registry = ModelRegistry(tmp_path / "registry")
        entry = registry.publish(trained_model, note="initial")
        registry.promote(entry.version, "bootstrap")
        return registry, entry

    def _assert_survivor_state(self, directory, champion_entry, factory):
        survivor = ModelRegistry(directory)
        assert survivor.champion.version == champion_entry.version
        served = survivor.load_champion(factory)
        assert model_digest(served) == champion_entry.params_digest
        report = survivor.fsck()
        assert report["corrupt"] == []
        return survivor

    def test_kill_during_blob_write(
        self, seeded_registry, clone_model, factory, monkeypatch
    ):
        registry, champion = seeded_registry
        import repro.lifecycle.registry as registry_mod

        def torn_save(model, path, metadata=None):
            raise KeyboardInterrupt("kill -9 during blob write")

        monkeypatch.setattr(registry_mod, "save_checkpoint", torn_save)
        with pytest.raises(KeyboardInterrupt):
            registry.publish(perturb(clone_model(), 0.05, seed=2))
        self._assert_survivor_state(registry.directory, champion, factory)

    def test_kill_between_blob_and_manifest(
        self, seeded_registry, clone_model, factory, monkeypatch
    ):
        registry, champion = seeded_registry

        def boom():
            raise KeyboardInterrupt("kill -9 before manifest rename")

        monkeypatch.setattr(registry, "_write_manifest", boom)
        with pytest.raises(KeyboardInterrupt):
            registry.publish(perturb(clone_model(), 0.05, seed=2))
        monkeypatch.undo()
        survivor = self._assert_survivor_state(
            registry.directory, champion, factory
        )
        # the stranded blob was invisible and is now swept
        assert [e.version for e in survivor.versions()] == [champion.version]

    def test_kill_during_promote(
        self, seeded_registry, clone_model, factory, monkeypatch
    ):
        registry, champion = seeded_registry
        candidate = registry.publish(perturb(clone_model(), 0.05, seed=2))

        real_write = registry._write_manifest

        def boom():
            raise KeyboardInterrupt("kill -9 during promote")

        monkeypatch.setattr(registry, "_write_manifest", boom)
        with pytest.raises(KeyboardInterrupt):
            registry.promote(candidate.version, "doomed promote")
        monkeypatch.undo()
        survivor = self._assert_survivor_state(
            registry.directory, champion, factory
        )
        # the candidate survived as a candidate; promoting it again works
        survivor.promote(candidate.version, "second attempt")
        assert survivor.champion.version == candidate.version
        assert real_write is not None

    def test_corrupted_candidate_blob_cannot_be_promoted(
        self, seeded_registry, clone_model
    ):
        registry, champion = seeded_registry
        candidate = registry.publish(perturb(clone_model(), 0.05, seed=2))
        blob = registry.blob_path(candidate.params_digest)
        raw = bytearray(blob.read_bytes())
        raw[len(raw) // 3] ^= 0xFF
        blob.write_bytes(bytes(raw))
        with pytest.raises(PromotionBlockedError):
            registry.promote(candidate.version)
        assert registry.champion.version == champion.version


class TestFeedbackLoopIntegration:
    def test_managed_loop_runs_and_is_deterministic(
        self, tmp_path, world, factory, train_config
    ):
        train, test, scenario = world

        def run_once(root):
            manager = ModelLifecycleManager(
                ModelRegistry(root),
                factory,
                canary_policy=CanaryPolicy(traffic_fraction=0.4, min_requests=10),
            )
            experiment = FeedbackLoopExperiment(
                scenario,
                factory,
                train_config,
                FeedbackConfig(
                    rounds=3,
                    pages_per_round=60,
                    candidates_per_page=12,
                    page_size=5,
                    seed=0,
                ),
                lifecycle=manager,
            )
            results = experiment.run(train, test)
            return (
                [(d.version, d.action) for d in manager.decisions],
                [(r.round_index, r.cvr_auc, r.champion_version) for r in results],
                manager,
            )

        decisions_a, rounds_a, manager = run_once(tmp_path / "a")
        decisions_b, rounds_b, _ = run_once(tmp_path / "b")
        assert decisions_a == decisions_b
        assert rounds_a == rounds_b
        # round 0 bootstraps a champion; every round reports who serves
        assert decisions_a[0] == ("v0001", "bootstrap")
        assert all(version is not None for _, _, version in rounds_a)
        # whoever serves is always a registry champion with a verified blob
        final = manager.champion
        assert final.status == CHAMPION
        assert manager.registry.verify(final.version).version == final.version

    def test_unmanaged_loop_is_unchanged(self, world, factory, train_config):
        train, test, scenario = world
        experiment = FeedbackLoopExperiment(
            scenario,
            factory,
            train_config,
            FeedbackConfig(
                rounds=2,
                pages_per_round=40,
                candidates_per_page=12,
                page_size=5,
                seed=0,
            ),
        )
        results = experiment.run(train, test)
        assert len(results) == 2
        assert all(r.champion_version is None for r in results)
        assert all(r.shed_pages == 0 for r in results)
