import math

import pytest

from benchmarks.perf.reference import NEIGHBOURS, NOMINAL_PARTS, NOMINAL_S, HostGauge


def gauge_with(durations, parts=None, every=1.0):
    """A gauge whose samples start at ``every``, ``2 * every``, ... seconds.

    ``parts`` maps a kernel part to its times; a part left out takes a
    fixed share of each sample.
    """
    gauge = HostGauge(math.inf)
    gauge.starts = [every * (i + 1) for i in range(len(durations))]
    gauge.ends = [s + d for s, d in zip(gauge.starts, durations)]
    for name, nominal in NOMINAL_PARTS.items():
        share = [d * nominal / NOMINAL_S for d in durations]
        gauge.parts[name] = list((parts or {}).get(name, share))
    return gauge


FAST, SLOW = NOMINAL_S, 2 * NOMINAL_S
# Four samples on a host at nominal speed, then four on one twice as slow.
TIMELINE = [FAST] * 4 + [SLOW] * 4


def test_an_operation_converts_by_the_samples_around_it():
    gauge = gauge_with(TIMELINE)
    fast_op = (2.5, 2.51)  # between samples 1 and 2: all four neighbours fast
    slow_op = (6.5, 6.51)  # between samples 5 and 6: all four neighbours slow
    fast, slow = gauge.op_seconds([fast_op, slow_op])
    assert fast == pytest.approx(0.01)
    assert slow == pytest.approx(0.005)
    assert gauge.op_seconds([fast_op, slow_op], nominal=False) == pytest.approx(
        [0.01, 0.01]
    )


@pytest.mark.parametrize("part", sorted(NOMINAL_PARTS))
def test_a_part_converts_by_its_own_samples(part):
    # The whole kernel keeps its pace; one part slows to half speed.
    nominal = NOMINAL_PARTS[part]
    gauge = gauge_with([FAST] * 8, {part: [nominal] * 4 + [2 * nominal] * 4})
    ops = [(2.5, 2.51), (6.5, 6.51)]
    assert gauge.op_seconds(ops, part=part) == pytest.approx([0.01, 0.005])
    assert gauge.op_seconds(ops) == pytest.approx([0.01, 0.01])
    assert gauge.seconds((6.2, 6.8), part=part) == pytest.approx(0.3)
    assert gauge.seconds((6.2, 6.8)) == pytest.approx(0.6)


def test_a_span_leaves_the_kernel_calls_out():
    gauge = gauge_with(TIMELINE)
    # 1.5 .. 2.5 holds sample 1 (starting at 2.0).
    wall = gauge.seconds((1.5, 2.5), nominal=False)
    assert wall == pytest.approx(1.0 - FAST)
    # Both stretches there have only fast neighbours, so nominal == wall.
    assert gauge.seconds((1.5, 2.5)) == pytest.approx(wall)


def test_each_stretch_of_a_span_has_its_own_factor():
    gauge = gauge_with(TIMELINE)
    # From 2.5 to 7.5: stretches between samples 1|2, 2|3, 3|4, 4|5, 5|6, 6|7.
    stretches = [0.5, 1 - FAST, 1 - FAST, 1 - SLOW, 1 - SLOW, 0.5 - SLOW]
    factors = []
    for after in range(2, 8):
        window = TIMELINE[max(after - NEIGHBOURS, 0):after + NEIGHBOURS]
        factors.append(NOMINAL_S * len(window) / sum(window))
    expected = sum(s * f for s, f in zip(stretches, factors))
    assert gauge.seconds((2.5, 7.5)) == pytest.approx(expected)
    assert gauge.seconds((2.5, 7.5), nominal=False) == pytest.approx(sum(stretches))


def test_work_before_the_first_sample_uses_the_first_samples():
    gauge = gauge_with(TIMELINE)
    assert gauge.seconds((0.0, 0.5)) == pytest.approx(0.5)


def test_conversion_needs_a_sample():
    gauge = gauge_with([])
    with pytest.raises(ValueError, match="no reference samples"):
        gauge.seconds((0.0, 1.0))
    assert gauge.seconds((0.0, 1.0), nominal=False) == 1.0


def test_tick_samples_once_the_interval_has_passed():
    quiet = HostGauge(math.inf)
    for _ in range(3):
        quiet.tick()
    assert quiet.starts == []
    eager = HostGauge(0.0)
    for _ in range(3):
        eager.tick()
    assert len(eager.starts) == 3
    assert all(end > start for start, end in zip(eager.starts, eager.ends))
    for times in eager.parts.values():
        assert len(times) == 3 and all(t > 0 for t in times)
