"""A world derived from another is bit-identical to a fresh build.

A drift rebuild derives today's world from yesterday's
(``SyntheticScenario(config, base=world)``): it shares the base's latent
arrays, bucket edges and probe logits and recalibrates three intercepts.
The property test chains random overrides of the drift fields across
several rebuilds on the month's presets, at the smoke month's size and at
a 100k-row probe, and compares every derived world with a fresh build of
the same config: intercepts as ``float.hex``, the bytes of every
bucket-edge array and every column of a generated log.  A config that
moves any other field cannot be derived.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.scenarios import SCENARIO_PRESETS, scenario_config
from repro.data.synthetic import DRIFT_FIELDS, ScenarioConfig, SyntheticScenario
from repro.simulation.month import DELAY_ITEM_SPREAD, DELAY_MEAN_HOURS
from tests.data.world_golden import fingerprint

pytestmark = pytest.mark.month

#: The smoke month's world scale, with its conversion delays on.
SMOKE = dict(
    n_users=160,
    n_items=240,
    n_train=1500,
    n_test=400,
    conversion_delay_mean_hours=DELAY_MEAN_HOURS,
    conversion_delay_item_spread=DELAY_ITEM_SPREAD,
)
#: The same world calibrated on a 100k-row probe (``n_train`` sets it).
PROBE100K = dict(SMOKE, n_train=100_000)

DRIFT_VALUES = {
    "target_ctr": st.floats(0.005, 0.6),
    "target_cvr_given_click": st.floats(0.01, 0.6),
    "position_bias": st.floats(0.0, 3.0),
    "hidden_confounder_click": st.floats(0.0, 8.0),
    "hidden_confounder_conversion": st.floats(0.0, 8.0),
}
assert set(DRIFT_VALUES) == DRIFT_FIELDS

drift = st.fixed_dictionaries({}, optional=DRIFT_VALUES).filter(bool)


def _check_chain(preset, size, drifts):
    world = SyntheticScenario(scenario_config(preset, **size))
    for overrides in drifts:
        config = world.config.with_overrides(**overrides)
        world = SyntheticScenario(config, base=world)
        assert fingerprint(world) == fingerprint(SyntheticScenario(config))


@settings(derandomize=True, max_examples=6, deadline=None)
@given(
    preset=st.sampled_from(sorted(SCENARIO_PRESETS)),
    drifts=st.lists(drift, min_size=2, max_size=4),
)
def test_derived_world_matches_fresh_at_smoke_size(preset, drifts):
    _check_chain(preset, SMOKE, drifts)


@settings(derandomize=True, max_examples=2, deadline=None)
@given(
    preset=st.sampled_from(sorted(SCENARIO_PRESETS)),
    drifts=st.lists(drift, min_size=2, max_size=3),
)
def test_derived_world_matches_fresh_at_100k_probe(preset, drifts):
    _check_chain(preset, PROBE100K, drifts)


def _moved(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "_moved"
    return value + 1 if isinstance(value, int) else value + 0.125


#: Every field a derived world must share with its base.
FIXED_FIELDS = sorted(
    f.name for f in fields(ScenarioConfig) if f.name not in DRIFT_FIELDS
)


@pytest.fixture(scope="module")
def smoke_world():
    return SyntheticScenario(scenario_config("ae_es", **SMOKE))


@pytest.mark.parametrize("name", FIXED_FIELDS)
def test_a_non_drift_field_cannot_be_derived(smoke_world, name):
    config = smoke_world.config
    moved = config.with_overrides(**{name: _moved(getattr(config, name))})
    with pytest.raises(ValueError, match=f"; {name} differ"):
        SyntheticScenario(moved, base=smoke_world)


def test_derived_worlds_share_read_only_state(smoke_world):
    config = smoke_world.config
    first = SyntheticScenario(config.with_overrides(target_ctr=0.2), base=smoke_world)
    second = SyntheticScenario(config.with_overrides(position_bias=1.0), base=first)
    assert smoke_world._probe is None
    assert second._probe is first._probe
    for world in (first, second):
        assert world.user_click is smoke_world.user_click
        assert world._bucket_edges is smoke_world._bucket_edges
        assert world.schema is smoke_world.schema
    for array in (second.item_popularity, second._bucket_edges["user_segment"]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
