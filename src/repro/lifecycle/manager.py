"""The lifecycle manager: publish -> gate -> canary -> promote/rollback.

:class:`ModelLifecycleManager` is the one object the continual-training
loop talks to.  It owns the state machine spanning the other modules:

1. ``submit`` publishes a freshly trained model into the
   :class:`~repro.lifecycle.registry.ModelRegistry` (content-addressed,
   load-back verified) and runs the
   :class:`~repro.lifecycle.gate.PromotionGate` shadow review against
   the serving champion.  Failures are recorded as rejections; the
   first-ever model bootstraps straight to champion after the
   non-comparative checks.
2. ``build_canary`` stages a gated candidate behind a
   :class:`~repro.lifecycle.canary.CanaryRollout` -- two isolated
   serving arms, deterministic hash split.
3. ``conclude_canary`` reads the rollout verdict and performs the
   registry transition: promote (prior champion retired, recoverable)
   or reject, with the reason on the audit trail.
4. ``rollback`` restores a prior champion bit-exactly at any time.

Every decision lands in ``self.decisions`` in order, so a whole
continual-training run has a deterministic, assertable transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.data.dataset import InteractionDataset
from repro.lifecycle.canary import (
    DEMOTE,
    PROMOTE,
    CanaryPolicy,
    CanaryRollout,
    FleetCanaryRollout,
)
from repro.lifecycle.gate import GatePolicy, GateReport, PromotionGate
from repro.lifecycle.registry import ModelRegistry, ModelVersion
from repro.models.base import MultiTaskModel
from repro.reliability.drift import DriftReference, DriftSentinel, DriftThresholds
from repro.simulation.serving import RankingService
from repro.utils.logging import get_logger, log_event

logger = get_logger("lifecycle.manager")


@dataclass(frozen=True)
class LifecycleDecision:
    """One recorded lifecycle action (the audit transcript entry)."""

    version: str
    action: str  # bootstrap/reject/stage/promote/demote/rollback/adopt
    reason: str = ""
    gate: Optional[GateReport] = None

    @property
    def promoted(self) -> bool:
        return self.action in ("bootstrap", "promote", "rollback", "adopt")


@dataclass
class _StagedCandidate:
    version: str
    model: MultiTaskModel
    reference: Optional[DriftReference]


class ModelLifecycleManager:
    """Drives every model swap through gate and canary, reversibly."""

    def __init__(
        self,
        registry: ModelRegistry,
        model_factory: Callable[[], MultiTaskModel],
        gate: Optional[PromotionGate] = None,
        canary_policy: Optional[CanaryPolicy] = None,
        canary_drift_thresholds: Optional[DriftThresholds] = None,
    ) -> None:
        self.registry = registry
        self.model_factory = model_factory
        self.gate = gate or PromotionGate(GatePolicy())
        self.canary_policy = canary_policy or CanaryPolicy()
        #: Thresholds for the candidate arm's drift sentinel.  A
        #: candidate retrained on *fresher* data than the champion
        #: legitimately predicts differently from the champion's frozen
        #: reference -- deployments that retrain on drifted traffic
        #: loosen this so adaptation itself does not read as a fault.
        self.canary_drift_thresholds = canary_drift_thresholds
        self.decisions: List[LifecycleDecision] = []
        self._staged: Optional[_StagedCandidate] = None
        #: In-memory drift references per version (champion's reference
        #: feeds the gate's shadow check and the canary sentinel).
        self._references: Dict[str, DriftReference] = {}
        #: Cache of the loaded champion (invalidated on every swap).
        self._champion_cache: Optional[MultiTaskModel] = None
        self._champion_cache_version: Optional[str] = None

    # -- champion access -----------------------------------------------
    @property
    def champion(self) -> Optional[ModelVersion]:
        return self.registry.champion

    def champion_model(self) -> Optional[MultiTaskModel]:
        """The serving champion, loaded (and digest-verified) once."""
        champion = self.registry.champion
        if champion is None:
            return None
        if self._champion_cache_version != champion.version:
            self._champion_cache = self.registry.load_model(
                champion.version, self.model_factory
            )
            self._champion_cache_version = champion.version
        return self._champion_cache

    def champion_reference(self) -> Optional[DriftReference]:
        champion = self.registry.champion
        if champion is None:
            return None
        reference = self._references.get(champion.version)
        if reference is None and champion.drift_reference_path is not None:
            reference = DriftReference.load(champion.drift_reference_path)
            self._references[champion.version] = reference
        return reference

    def _invalidate_champion_cache(self) -> None:
        self._champion_cache = None
        self._champion_cache_version = None

    def _decide(
        self,
        version: str,
        action: str,
        reason: str = "",
        gate: Optional[GateReport] = None,
    ) -> LifecycleDecision:
        decision = LifecycleDecision(
            version=version, action=action, reason=reason, gate=gate
        )
        self.decisions.append(decision)
        log_event(
            logger,
            "lifecycle_decision",
            version=version,
            action=action,
            reason=reason,
        )
        return decision

    # -- submission -----------------------------------------------------
    def submit(
        self,
        model: MultiTaskModel,
        eval_set: InteractionDataset,
        *,
        train_config=None,
        metrics: Optional[Dict[str, float]] = None,
        reference: Optional[DriftReference] = None,
        note: str = "",
    ) -> LifecycleDecision:
        """Publish a retrained model and run the promotion gate.

        Outcomes: ``bootstrap`` (no champion existed; candidate passed
        the sanity checks and is champion now), ``reject`` (gate
        failure, recorded in the registry), or ``stage`` (gate passed;
        call :meth:`build_canary` to put it on real traffic).
        """
        entry = self.registry.publish(
            model,
            train_config=train_config,
            metrics=metrics,
            note=note,
        )
        if reference is not None:
            self._references[entry.version] = reference
        champion_model = self.champion_model()
        report = self.gate.review(
            model,
            champion_model,
            eval_set,
            reference=self.champion_reference(),
        )
        if not report.passed:
            self.registry.reject(entry.version, report.summary())
            return self._decide(entry.version, "reject", report.summary(), report)
        if champion_model is None:
            self.registry.promote(entry.version, "bootstrap: no champion")
            self._invalidate_champion_cache()
            return self._decide(
                entry.version, "bootstrap", report.summary(), report
            )
        self._staged = _StagedCandidate(
            version=entry.version, model=model, reference=reference
        )
        return self._decide(entry.version, "stage", report.summary(), report)

    def adopt(
        self,
        model: MultiTaskModel,
        *,
        train_config=None,
        reference: Optional[DriftReference] = None,
        note: str = "",
        reason: str = "adopted without gate review",
    ) -> LifecycleDecision:
        """Publish and promote unconditionally (registry surgery).

        The gate/canary pipeline exists to stop *behavioural* changes
        from taking traffic unreviewed.  Some swaps are not behavioural:
        growing an embedding vocabulary after catalog churn appends
        zero rows to the champion's own parameters -- every existing id
        scores bit-identically, the new ids *must* be servable now, and
        holding the grown copy behind a canary would leave the serving
        fleet unable to score the new catalog in the meantime.  This
        records the swap on the audit trail as an ``adopt`` decision so
        the transcript still shows exactly when and why the champion's
        blob changed.
        """
        entry = self.registry.publish(
            model, train_config=train_config, note=note
        )
        if reference is not None:
            self._references[entry.version] = reference
        self.registry.promote(entry.version, reason)
        self._invalidate_champion_cache()
        self._staged = None
        return self._decide(entry.version, "adopt", reason)

    @property
    def staged_version(self) -> Optional[str]:
        return None if self._staged is None else self._staged.version

    # -- canary ---------------------------------------------------------
    def build_canary(self, scenario, fleet=None, **service_kwargs) -> CanaryRollout:
        """Stage the gated candidate behind a two-arm canary rollout.

        Both arms get their own breaker/queue/health; the candidate arm
        additionally gets a :class:`DriftSentinel` frozen on the
        *champion's* training reference, so "predicts differently than
        what the system was calibrated on" demotes just like a crash
        would.  Extra ``service_kwargs`` (page_size, policy, clock, ...)
        apply to both arms.

        With ``fleet=`` (a :class:`~repro.simulation.fleet.ServingFleet`
        serving the current champion), the candidate is instead attached
        to the fleet as a real replica and a
        :class:`~repro.lifecycle.canary.FleetCanaryRollout` is returned:
        the champion arm is the fleet's replica pool, and the canary
        slice rides the same routing/hedging path as champion traffic.
        """
        if self._staged is None:
            raise RuntimeError(
                "no staged candidate: submit() must pass the gate first"
            )
        champion_model = self.champion_model()
        if champion_model is None:
            raise RuntimeError("cannot canary without a serving champion")
        reference = self.champion_reference()
        sentinel = (
            None
            if reference is None
            else DriftSentinel(reference, thresholds=self.canary_drift_thresholds)
        )
        if fleet is not None:
            champion_version = self.registry.champion.version
            if fleet.version is not None and fleet.version != champion_version:
                raise RuntimeError(
                    f"fleet serves {fleet.version!r} but the champion is "
                    f"{champion_version!r}; rebuild the fleet from the "
                    "registry before attaching a canary"
                )
            candidate_arm = RankingService(
                self._staged.model, scenario, sentinel=sentinel, **service_kwargs
            )
            fleet.attach_canary(
                candidate_arm,
                self._staged.version,
                traffic_fraction=self.canary_policy.traffic_fraction,
                salt=self.canary_policy.salt,
            )
            return FleetCanaryRollout(
                fleet,
                candidate_arm,
                candidate_version=self._staged.version,
                policy=self.canary_policy,
            )
        champion_arm = RankingService(champion_model, scenario, **service_kwargs)
        candidate_arm = RankingService(
            self._staged.model, scenario, sentinel=sentinel, **service_kwargs
        )
        return CanaryRollout(
            champion_arm,
            candidate_arm,
            candidate_version=self._staged.version,
            policy=self.canary_policy,
        )

    def conclude_canary(self, rollout: CanaryRollout) -> LifecycleDecision:
        """Apply the rollout verdict to the registry."""
        if (
            self._staged is None
            or rollout.candidate_version != self._staged.version
        ):
            raise RuntimeError(
                f"rollout for {rollout.candidate_version!r} does not match "
                f"the staged candidate {self.staged_version!r}"
            )
        verdict, reason = rollout.conclude()
        staged = self._staged
        self._staged = None
        if verdict == PROMOTE:
            self.registry.promote(staged.version, reason)
            self._invalidate_champion_cache()
            return self._decide(staged.version, "promote", reason)
        assert verdict == DEMOTE
        self.registry.reject(staged.version, reason)
        return self._decide(staged.version, "demote", reason)

    # -- rollback -------------------------------------------------------
    def rollback(
        self, version: Optional[str] = None, reason: str = "operator rollback"
    ) -> LifecycleDecision:
        """Restore a prior champion bit-exactly (default: the previous)."""
        entry = self.registry.rollback(version, reason)
        self._invalidate_champion_cache()
        self._staged = None
        return self._decide(entry.version, "rollback", reason)
