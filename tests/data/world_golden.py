"""World golden: calibrated intercepts, bucket edges and a generated log.

Pins, for every Table II preset at a 50k-row and a 100k-row calibration
probe, the three calibrated intercepts (as ``float.hex``), a SHA-256 of
the bytes of every frozen bucket-edge array and, for the 50k-probe
world, a SHA-256 over every column of a small generated log.  Drifted
``ae_es`` worlds, derived from the undrifted one, are pinned the same
way.  Any change to world construction that moves one bit shows up here.

Regenerate (only when a change to the world is intended) with::

    PYTHONPATH=src python -m tests.data.world_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.data.scenarios import SCENARIO_PRESETS, scenario_config
from repro.data.synthetic import SyntheticScenario

GOLDEN_PATH = Path(__file__).with_name("world_golden.json")

#: Probe size -> config overrides.  The probe is ``max(50_000, n_train)``.
PROBES = {
    "probe50k": dict(n_train=2_000, n_test=500),
    "probe100k": dict(n_train=100_000, n_test=500),
}

#: Variants of ``ae_es`` at the 50k probe that switch off the optional
#: columns or switch on conversion delays.
VARIANTS = {
    "plain": dict(include_micro_actions=False, include_wide_features=False),
    "delays": dict(conversion_delay_mean_hours=24.0, conversion_delay_item_spread=0.5),
}

#: Drifted ``ae_es`` worlds at the 50k probe: one per override kind the
#: month's drift schedule emits, and all five drift fields together.
#: They are derived from the undrifted world (``base=``); the golden
#: pins what a fresh build of the drifted config gives.
DRIFTS = {
    "target_ctr": dict(target_ctr=0.061),
    "position_bias": dict(position_bias=1.19),
    "confounder": dict(hidden_confounder_click=6.4, hidden_confounder_conversion=6.4),
    "all": dict(
        target_ctr=0.097,
        target_cvr_given_click=0.21,
        position_bias=1.05,
        hidden_confounder_click=5.9,
        hidden_confounder_conversion=6.7,
    ),
}


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _log_digest(scenario: SyntheticScenario) -> str:
    h = hashlib.sha256()
    for part in scenario.generate():
        for name in sorted(part.sparse):
            h.update(name.encode())
            h.update(part.sparse[name].tobytes())
        for name in sorted(part.dense):
            h.update(name.encode())
            h.update(part.dense[name].tobytes())
        for column in (
            part.clicks,
            part.conversions,
            part.oracle_ctr,
            part.oracle_cvr,
            part.oracle_conversion,
            part.actions,
            part.exposure_times,
            part.conversion_times,
        ):
            if column is not None:
                h.update(column.tobytes())
    return h.hexdigest()


def fingerprint(scenario: SyntheticScenario, log: bool = True) -> Dict[str, object]:
    """The intercepts, bucket-edge digests and (with ``log``) log digest."""
    record: Dict[str, object] = {
        "ctr_intercept": float(scenario._ctr_intercept).hex(),
        "cvr_intercept": float(scenario._cvr_intercept).hex(),
        "action_intercept": float(scenario._action_intercept).hex(),
        "bucket_edges": {
            name: _sha(edges) for name, edges in sorted(scenario._bucket_edges.items())
        },
    }
    if log:
        record["log"] = _log_digest(scenario)
    return record


def world_record(
    preset: str, probe: str, drift: Optional[Dict[str, float]] = None, **overrides
) -> Dict[str, object]:
    config = scenario_config(preset, **PROBES[probe], **overrides)
    scenario = SyntheticScenario(config)
    if drift is not None:
        scenario = SyntheticScenario(config.with_overrides(**drift), base=scenario)
    return fingerprint(scenario, log=probe == "probe50k")


def build_golden() -> Dict[str, Dict[str, object]]:
    golden = {
        f"{preset}/{probe}": world_record(preset, probe)
        for preset in sorted(SCENARIO_PRESETS)
        for probe in PROBES
    }
    for variant, overrides in VARIANTS.items():
        golden[f"ae_es/{variant}"] = world_record("ae_es", "probe50k", **overrides)
    for kind, drift in DRIFTS.items():
        golden[f"ae_es/drift_{kind}"] = world_record("ae_es", "probe50k", drift)
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(build_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
