"""Every Table II preset world is bit-identical to the pinned golden.

The golden (``world_golden.json``, written by ``tests/data/world_golden.py``)
holds the calibrated intercepts as ``float.hex``, a SHA-256 of every
bucket-edge array and, for the 50k-probe worlds, a SHA-256 over a small
generated log.  A world-construction change that moves one bit fails
here with the preset and field that moved.
"""

import json

import pytest

from tests.data.world_golden import GOLDEN_PATH, build_golden

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def built():
    return build_golden()


def test_golden_covers_every_world(built):
    assert sorted(built) == sorted(GOLDEN)


@pytest.mark.parametrize("world", sorted(GOLDEN))
def test_world_matches_golden(world, built):
    moved = {
        field: (built[world][field], expected)
        for field, expected in GOLDEN[world].items()
        if built[world][field] != expected
    }
    assert not moved, f"{world}: {moved}"
